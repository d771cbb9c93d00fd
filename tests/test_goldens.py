"""Golden-regression suite: headline numbers locked to tests/goldens/.

Each test recomputes one golden fresh and compares it to the stored JSON
under the tolerance recorded *in the stored file*.  A failure means a
code change moved a paper-facing number -- either fix the regression or,
if the change is intentional, regenerate with
``python -m repro.testing.refresh_goldens`` and commit the JSON diff.
"""

import json

import pytest

from repro.testing.goldens import (
    GOLDEN_NAMES,
    compare_to_golden,
    compute_golden,
    default_goldens_dir,
    load_golden,
    write_golden,
)


def assert_matches_golden(name: str, **kwargs) -> None:
    golden = load_golden(name)
    fresh = compute_golden(name, **kwargs)
    mismatches = compare_to_golden(golden, fresh)
    assert not mismatches, (
        f"golden {name!r} drifted ({len(mismatches)} mismatch(es)); if "
        "intentional, run `python -m repro.testing.refresh_goldens`:\n"
        + "\n".join(mismatches)
    )


def test_all_goldens_are_committed():
    for name in GOLDEN_NAMES:
        golden = load_golden(name)
        assert golden["name"] == name
        assert "payload" in golden and "tolerance" in golden


def test_table1_matches_golden():
    assert_matches_golden("table1")


def test_table2_matches_golden():
    assert_matches_golden("table2")


@pytest.mark.parametrize("executor", ["serial"])
def test_fig7a_matches_golden(executor):
    assert_matches_golden("fig7a", executor=executor)


class TestGoldenMachinery:
    def test_roundtrip(self, tmp_path):
        golden = compute_golden("table2")
        path = write_golden(golden, tmp_path)
        assert path == tmp_path / "table2.json"
        assert load_golden("table2", tmp_path) == json.loads(path.read_text())

    def test_missing_golden_names_refresh_command(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="refresh_goldens"):
            load_golden("table2", tmp_path)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="no golden"):
            compute_golden("figure-99")

    def test_compare_detects_numeric_drift(self):
        golden = {
            "name": "demo",
            "tolerance": {"rtol": 1e-9},
            "payload": {"total_w": 1.0, "label": "x"},
        }
        ok = {"payload": {"total_w": 1.0 + 1e-12, "label": "x"}}
        assert compare_to_golden(golden, ok) == []
        drifted = {"payload": {"total_w": 1.001, "label": "x"}}
        assert any("total_w" in m for m in compare_to_golden(golden, drifted))

    def test_compare_detects_structural_drift(self):
        golden = {
            "name": "demo",
            "tolerance": {"rtol": 0.0},
            "payload": {"rows": [1.0, 2.0], "label": "x"},
        }
        assert any(
            "length" in m
            for m in compare_to_golden(golden, {"payload": {"rows": [1.0], "label": "x"}})
        )
        assert any(
            "label" in m
            for m in compare_to_golden(golden, {"payload": {"rows": [1.0, 2.0], "label": "y"}})
        )

    def test_exact_tolerance_rejects_any_float_change(self):
        golden = {"name": "demo", "tolerance": {"rtol": 0.0}, "payload": {"v": 1.0}}
        assert compare_to_golden(golden, {"payload": {"v": 1.0}}) == []
        assert compare_to_golden(golden, {"payload": {"v": 1.0 + 1e-15}})

    def test_refresh_cli_writes_requested_subset(self, tmp_path):
        from repro.testing.refresh_goldens import main

        assert main(["--only", "table1", "table2", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table2.json").exists()
        assert not (tmp_path / "fig7a.json").exists()
        # The freshly written table goldens match the committed ones.
        for name in ("table1", "table2"):
            committed = load_golden(name, default_goldens_dir())
            assert load_golden(name, tmp_path) == committed
