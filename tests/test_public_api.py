"""Public-API surface tests: every advertised name imports and works.

Guards the `__all__` contracts of the top-level packages (the names the
README and docs reference) against refactoring drift.
"""

import importlib

import pytest

PACKAGES = {
    "repro": ["DesignPoint", "GPDK045", "Technology", "__version__"],
    "repro.core": [
        "Block",
        "Signal",
        "Simulator",
        "SystemModel",
        "ParameterSpace",
        "CompositeSpace",
        "DesignSpaceExplorer",
        "FrontEndEvaluator",
        "ExplorationResult",
        "Objective",
        "pareto_front",
        "best_feasible",
        "save_result",
        "load_result",
        "accuracy_power_goal",
        "snr_power_goal",
        "area_constrained_goal",
    ],
    "repro.blocks": [
        "LNA",
        "SampleHold",
        "SarAdc",
        "Transmitter",
        "CsEncoderBlock",
        "DigitalCsEncoderBlock",
        "CsReconstructionBlock",
        "build_baseline_chain",
        "build_cs_chain",
        "build_digital_cs_chain",
        "build_chain",
        "sine",
        "multitone",
        "from_array",
    ],
    "repro.power": [
        "DesignPoint",
        "Technology",
        "GPDK045",
        "PowerReport",
        "chain_power",
        "chain_area",
        "lna_power",
        "transmitter_power",
        "cs_encoder_logic_power",
        "digital_cs_encoder_power",
        "noise_budget",
        "required_noise_floor",
    ],
    "repro.cs": [
        "SensingMatrix",
        "srbm",
        "srbm_balanced",
        "gaussian",
        "bernoulli",
        "ChargeSharingEncoder",
        "ChargeSharingConfig",
        "effective_matrix",
        "dct_basis",
        "wavelet_basis",
        "Reconstructor",
        "omp",
        "ista",
        "fista",
        "mutual_coherence",
    ],
    "repro.eeg": [
        "EegDataset",
        "EegRecord",
        "make_bonn_like_dataset",
        "resample_dataset",
        "SyntheticEegConfig",
    ],
    "repro.detection": ["SpectralCombDetector"],
    "repro.metrics": ["snr_vs_reference", "analyze_sine", "sndr_sine", "nmse", "prd"],
    "repro.experiments": [
        "make_harness",
        "run_search_space",
        "run_fig4",
        "analyze_fig7",
        "analyze_fig8",
        "analyze_fig9",
        "analyze_fig10",
        "paper_search_space",
        "render_table1",
        "render_table2",
        "render_table3",
    ],
}


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_package_exports(package):
    module = importlib.import_module(package)
    for name in PACKAGES[package]:
        assert hasattr(module, name), f"{package} is missing {name}"


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    """The README's quickstart snippet must stay executable verbatim."""
    from repro.blocks import build_baseline_chain, sine
    from repro.core import Simulator
    from repro.metrics import analyze_sine
    from repro.power import DesignPoint

    point = DesignPoint(n_bits=8, lna_noise_rms=2e-6)
    chain = build_baseline_chain(point)
    tone = sine(
        frequency=40.0, amplitude=0.9e-3, sample_rate=point.f_sample, n_samples=2048
    )
    result = Simulator(chain, point, seed=1).run(tone)
    analysis = analyze_sine(result.tap("adc").data)
    assert analysis.sndr_db > 30
    assert 7.0 < result.power.total_uw < 10.0
