"""Persistence of design points and exploration results (JSON).

Full-scale sweeps take hours; their results should survive the process.
Design points round-trip exactly (every dataclass field, including the
technology constants), so a saved sweep can be re-analysed — Pareto
fronts, constrained searches, figure extraction — without re-simulating.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from operator import attrgetter
from pathlib import Path

from repro.core.results import Evaluation, ExplorationResult
from repro.power.technology import DesignPoint, Technology
from repro.util.fsio import atomic_write_text

#: Format marker written into every file (future-proofing).
FORMAT_VERSION = 1


_POINT_FIELDS = tuple(field.name for field in dataclasses.fields(DesignPoint))
_TECHNOLOGY_FIELDS = tuple(field.name for field in dataclasses.fields(Technology))
_point_values = attrgetter(*(name for name in _POINT_FIELDS if name != "technology"))
_technology_values = attrgetter(*_TECHNOLOGY_FIELDS)


def point_identity(point: DesignPoint) -> bytes:
    """Type-exact encoding of every field of ``point``, technology included.

    Equal bytes mean equal field types and values, and so an equal
    ``describe()`` -- the label per-point seeds derive from.  The
    encoding is a pickle of the field values: floats are their 8 IEEE
    bytes, ``bool``, ``int`` and ``float`` have distinct opcodes, and a
    stream ends at its ``STOP`` opcode, so bytes appended after it stay
    unambiguous.  Points that are equal but differ in a field's type
    (``8`` and ``8.0``, a numpy scalar and a float) encode differently;
    a key built from this then misses, which is safe.  A point rebuilt
    by :func:`design_point_from_dict` keeps its encoding.
    """
    return pickle.dumps((_point_values(point), _technology_values(point.technology)), 5)


def design_point_to_dict(point: DesignPoint) -> dict:
    """DesignPoint -> plain dict (technology inlined).

    Equal to ``dataclasses.asdict(point)``, key order included, but copies
    the fields directly: every field is a scalar, so ``asdict``'s deep copy
    only cost time (~44 us a point against ~3 us).
    """
    payload = {name: getattr(point, name) for name in _POINT_FIELDS}
    technology = point.technology
    payload["technology"] = {name: getattr(technology, name) for name in _TECHNOLOGY_FIELDS}
    return payload


def design_point_from_dict(payload: dict) -> DesignPoint:
    """Inverse of :func:`design_point_to_dict` (exact round-trip)."""
    data = dict(payload)
    tech_payload = data.pop("technology")
    technology = Technology(**tech_payload)
    return DesignPoint(technology=technology, **data)


def evaluation_to_dict(evaluation: Evaluation) -> dict:
    """Evaluation -> plain dict."""
    payload = {
        "point": design_point_to_dict(evaluation.point),
        "metrics": dict(evaluation.metrics),
        "breakdown": dict(evaluation.breakdown),
    }
    if evaluation.error is not None:
        payload["error"] = evaluation.error
    return payload


def evaluation_from_dict(payload: dict) -> Evaluation:
    """Inverse of :func:`evaluation_to_dict`."""
    return Evaluation(
        point=design_point_from_dict(payload["point"]),
        metrics=dict(payload["metrics"]),
        breakdown=dict(payload.get("breakdown", {})),
        error=payload.get("error"),
    )


def save_result(result: ExplorationResult, path: str | Path) -> None:
    """Write an exploration result as JSON (atomic replace).

    The file is staged in the destination directory and moved over the
    target with ``os.replace``: a crash mid-write -- the exact moment an
    hours-long sweep is being persisted -- leaves any previous file
    intact instead of truncating it, honouring this module's durability
    promise.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "name": result.name,
        "evaluations": [evaluation_to_dict(e) for e in result],
    }
    atomic_write_text(path, json.dumps(payload, indent=1), fsync=True)


def load_result(path: str | Path) -> ExplorationResult:
    """Read an exploration result written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported sweep file version {version!r} (expected {FORMAT_VERSION})"
        )
    evaluations = [evaluation_from_dict(item) for item in payload["evaluations"]]
    return ExplorationResult(evaluations, name=payload.get("name", "sweep"))
