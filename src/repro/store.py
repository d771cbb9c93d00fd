"""Content-addressed result store: durable, queryable sweep artefacts.

Full-scale sweeps are evaluation-bound -- hours of simulation per grid --
so evaluated results must outlive the process that computed them and be
servable to any number of read-mostly clients without touching the
simulator again.  The store turns sweep results into two kinds of
artefact:

* **Evaluation blobs** -- one JSON file per successful evaluation, named
  by :func:`~repro.core.execution.evaluation_key` (the SHA-256 of every
  field of the point and the evaluator fingerprint) and holding the
  key and the numbers.  This is *exactly* the key and payload
  :class:`~repro.core.execution.EvaluationCache` files entries under, so
  the blob directory doubles as a live evaluation cache: a sweep
  executed with ``cache=store.cache`` content-addresses its evaluations
  into the store as it runs, and a re-submitted sweep is served from
  disk without re-simulation.
* **Sweep manifests** -- one JSON file per *named* sweep, recording the
  evaluator fingerprint, the ordered entry list (blob key and full
  point for successes, inline payloads for failures -- failures are
  deliberately not blobbed, matching the cache's never-cache-failures
  rule) and a content digest over both.  The digest is stable across
  re-runs of identical content, which is what makes it usable as an
  HTTP ``ETag`` (see :mod:`repro.serve`).

Every write is atomic (temp file + ``os.replace``,
:mod:`repro.util.fsio`), and the derived ``index.json`` -- the
one-file summary CI uploads as an artifact -- is rebuilt from the
manifest directory under an advisory lock, so concurrent writers
converge instead of clobbering each other.

Layout::

    <root>/
      evaluations/<evaluation_key>.json   # EvaluationCache entries: key + numbers
      sweeps/<name>.json                  # one manifest per named sweep, points in full
      index.json                          # derived: name -> digest/counts
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.execution import EvaluationCache
from repro.core.results import Evaluation, ExplorationResult
from repro.core.serialization import (
    design_point_from_dict,
    design_point_to_dict,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.core.telemetry import get_active
from repro.util.fsio import FileLock, atomic_write_json

#: Format marker written into every manifest and the index.  v2 manifests
#: carry each successful point in full and its blob only the numbers.
STORE_FORMAT_VERSION = 2

#: Legal sweep names: filesystem- and URL-safe, no traversal.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


class StoreError(RuntimeError):
    """A store artefact is missing or unreadable."""


def check_sweep_name(name: str) -> str:
    """Validate a sweep name (used as a filename and a URL segment)."""
    if not _NAME_PATTERN.match(name):
        raise ValueError(
            f"invalid sweep name {name!r}: use letters, digits, '.', '_', '-' "
            "(max 100 chars, must start with a letter or digit)"
        )
    return name


@dataclass
class SweepManifest:
    """The named, digest-stamped record of one stored sweep.

    ``entries`` preserves grid order; each entry is either
    ``{"key": <blob key>, "point": <design_point_to_dict>}`` (success,
    numbers in the blob directory) or ``{"point": <description>,
    "evaluation": {...}}`` (failure, payload inline).  ``digest`` covers
    fingerprint and entries -- not the name or timestamp -- so identical
    content always produces an identical digest/ETag.
    """

    name: str
    fingerprint: str
    entries: list[dict]
    digest: str = ""
    created_unix: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = self.compute_digest(self.fingerprint, self.entries)

    @staticmethod
    def compute_digest(fingerprint: str, entries: list[dict]) -> str:
        """Content digest over fingerprint + ordered entries (ETag source)."""
        canonical = json.dumps(
            {"fingerprint": fingerprint, "entries": entries},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def keys(self) -> list[str | None]:
        """Blob key per entry, in grid order (``None`` for failures)."""
        return [entry.get("key") for entry in self.entries]

    @property
    def n_evaluations(self) -> int:
        return len(self.entries)

    @property
    def n_failures(self) -> int:
        return sum(1 for entry in self.entries if "evaluation" in entry)

    def summary_dict(self) -> dict:
        """The index row / HTTP manifest view (no entry list)."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "digest": self.digest,
            "created_unix": self.created_unix,
            "n_evaluations": self.n_evaluations,
            "n_failures": self.n_failures,
            "meta": dict(self.meta),
        }

    def to_dict(self) -> dict:
        return {
            "format_version": STORE_FORMAT_VERSION,
            **self.summary_dict(),
            "entries": self.entries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepManifest":
        version = payload.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"unsupported sweep manifest version {version!r} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        return cls(
            name=str(payload["name"]),
            fingerprint=str(payload["fingerprint"]),
            entries=list(payload["entries"]),
            digest=str(payload.get("digest", "")),
            created_unix=float(payload.get("created_unix", 0.0)),
            meta=dict(payload.get("meta", {})),
        )


class ResultStore:
    """Content-addressed store of evaluations and named sweeps.

    All mutation is crash-safe: blobs and manifests land via atomic
    replace, and the derived index is rebuilt from the manifest directory
    under a file lock, so a killed writer can at worst leave a stale --
    never a torn -- index, repaired by the next write.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.evaluations_dir = self.root / "evaluations"
        self.sweeps_dir = self.root / "sweeps"
        self.index_path = self.root / "index.json"
        self.sweeps_dir.mkdir(parents=True, exist_ok=True)
        #: Live evaluation cache over the blob directory: pass as
        #: ``explore(cache=store.cache)`` and the sweep content-addresses
        #: its successful evaluations into the store while it runs.
        self.cache = EvaluationCache(self.evaluations_dir)

    # --- evaluation blobs -----------------------------------------------------

    def put_evaluation(
        self, fingerprint: str, point, evaluation: Evaluation
    ) -> str | None:
        """Store one evaluation blob; returns its key (``None`` if failed)."""
        return self.cache.put(fingerprint, point, evaluation)

    # --- sweep manifests ------------------------------------------------------

    def _manifest_path(self, name: str) -> Path:
        return self.sweeps_dir / f"{check_sweep_name(name)}.json"

    def put_sweep(
        self,
        name: str,
        fingerprint: str,
        result: ExplorationResult,
        meta: dict | None = None,
    ) -> SweepManifest:
        """Persist ``result`` as the named sweep (blobs + manifest + index).

        Successful evaluations become content-addressed blobs (idempotent
        -- re-storing identical content rewrites identical files);
        failures are inlined in the manifest so the stored sweep
        round-trips losslessly, failed points included.
        """
        entries = []
        for evaluation in result:
            point = evaluation.point
            if evaluation.ok:
                key = self.put_evaluation(fingerprint, point, evaluation)
                entries.append({"key": key, "point": design_point_to_dict(point)})
            else:
                entries.append(
                    {"point": point.describe(), "evaluation": evaluation_to_dict(evaluation)}
                )
        manifest = SweepManifest(
            name=name,
            fingerprint=fingerprint,
            entries=entries,
            created_unix=time.time(),
            meta=dict(meta or {}),
        )
        atomic_write_json(self._manifest_path(name), manifest.to_dict(), fsync=True)
        get_active().count("store.sweeps_put")
        self._rebuild_index()
        return manifest

    def get_sweep(self, name: str) -> SweepManifest | None:
        """Manifest of the named sweep, or ``None``."""
        path = self._manifest_path(name)
        if not path.exists():
            return None
        try:
            return SweepManifest.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError, StoreError) as error:
            raise StoreError(f"unreadable sweep manifest {path}: {error}") from error

    def delete_sweep(self, name: str) -> bool:
        """Remove the named manifest (blobs stay until :meth:`gc`)."""
        path = self._manifest_path(name)
        existed = path.exists()
        path.unlink(missing_ok=True)
        if existed:
            self._rebuild_index()
        return existed

    def load_result(self, name: str) -> ExplorationResult:
        """Reassemble the named sweep as an :class:`ExplorationResult`.

        Each success takes its point from the manifest and its numbers
        from the blob.  Raises :class:`StoreError` when the manifest is
        missing or any referenced blob is gone (e.g. swept away by a gc
        run racing a manifest write from an older store), unreadable or
        recording another key.
        """
        manifest = self.get_sweep(name)
        if manifest is None:
            raise StoreError(
                f"no sweep named {name!r} in {self.root} "
                f"(known: {sorted(self.sweep_names())})"
            )
        evaluations: list[Evaluation] = []
        for entry in manifest.entries:
            if "evaluation" in entry:
                evaluations.append(evaluation_from_dict(entry["evaluation"]))
                continue
            key = entry["key"]
            try:
                metrics, breakdown = self.cache.load(key)
            except (OSError, ValueError, KeyError, TypeError) as error:
                raise StoreError(
                    f"sweep {name!r} references missing evaluation blob {key} ({error})"
                ) from None
            point = design_point_from_dict(entry["point"])
            evaluations.append(Evaluation(point, metrics, breakdown))
        return ExplorationResult(evaluations, name=name)

    # --- index and maintenance ------------------------------------------------

    def sweep_names(self) -> list[str]:
        """Names of all stored sweeps (sorted)."""
        return sorted(path.stem for path in self.sweeps_dir.glob("*.json"))

    def index(self) -> dict:
        """The store index (rebuilt from the manifest directory if absent)."""
        if not self.index_path.exists():
            self._rebuild_index()
        try:
            return json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            return self._rebuild_index()

    def _rebuild_index(self) -> dict:
        """Re-derive ``index.json`` from the manifests (locked, atomic).

        Rebuilding from the directory instead of patching the previous
        index makes the operation self-healing: no matter how writers
        interleave, the last rebuild reflects every manifest on disk.
        """
        with FileLock(self.index_path):
            sweeps = {}
            for manifest_name in self.sweep_names():
                try:
                    manifest = self.get_sweep(manifest_name)
                except StoreError:
                    continue  # torn, or another format version: skip
                if manifest is not None:
                    sweeps[manifest_name] = manifest.summary_dict()
            payload = {
                "format_version": STORE_FORMAT_VERSION,
                "updated_unix": time.time(),
                "sweeps": sweeps,
            }
            atomic_write_json(self.index_path, payload)
        return payload

    def referenced_keys(self) -> set[str]:
        """Blob keys referenced by at least one stored sweep."""
        keys: set[str] = set()
        for name in self.sweep_names():
            manifest = self.get_sweep(name)
            if manifest is not None:
                keys.update(k for k in manifest.keys if k)
        return keys

    def gc(self) -> list[str]:
        """Remove evaluation blobs no manifest references; returns their keys.

        Because the blob directory doubles as the live evaluation cache,
        gc also evicts cache entries for sweeps never given a name --
        that is the point: ``repro store gc`` reclaims everything not
        reachable from a named sweep.  Raises :class:`StoreError`,
        deleting nothing, while a manifest is unreadable (torn, or of
        another format version): its blobs are unknown.
        """
        referenced = self.referenced_keys()
        removed: list[str] = []
        for path in sorted(self.evaluations_dir.glob("*.json")):
            if path.stem not in referenced:
                path.unlink(missing_ok=True)
                removed.append(path.stem)
        if removed:
            get_active().count("store.blobs_gced", len(removed))
        return removed
