"""Golden-result regression suite.

Every experiment's ``format()`` output is diffed against the checked-in
artifact under ``benchmarks/results/`` — the tables the golden writer
(``benchmarks/test_goldens.py``) regenerates.  This pins the *numbers*, byte for byte: the parallel runner,
the profile/result caches, and any engine refactor must all leave every
emitted digit untouched, or these tests name the experiment that moved.
"""

from pathlib import Path

import pytest

from repro.experiments import runner

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: experiment key -> golden file stem under benchmarks/results/.
GOLDEN_FILES = {
    "fig1": "fig1_stream",
    "tab1": "tab1_policy",
    "fig3": "fig3_transform",
    "fig4": "fig4_decisions",
    "tab2": "tab2_profiles",
    "tab3": "tab3_gaussian",
    "tab4": "tab4_bsrg",
    "tab5": "tab5_operations",
    "fig5": "fig5_tasksize",
    "fig6": "fig6_overhead",
    "fig7": "fig7_pairings",
    "abl-policy": "ablation_policy",
    "abl-partition": "ablation_partition",
    "abl-locality": "ablation_locality",
    "abl-tasksize": "ablation_task_size",
    "abl-resizing": "ablation_resizing",
    "validate": "model_validation",
    "sweep": "partition_sweep",
    "scaling": "scaling",
    "cluster": "cluster_study",
    "gen": "generalization",
    "shootout": "policy_shootout",
    "retreat": "retreat_vs_slice",
}

_EXPERIMENTS = {e.key: e for e in runner.EXPERIMENTS}


def golden_text(key: str) -> str:
    return (RESULTS_DIR / f"{GOLDEN_FILES[key]}.txt").read_text()


def test_every_experiment_has_a_golden_file():
    assert set(GOLDEN_FILES) == set(runner.experiment_keys())
    missing = [k for k, stem in GOLDEN_FILES.items()
               if not (RESULTS_DIR / f"{stem}.txt").is_file()]
    assert not missing, f"golden files missing for {missing}"


@pytest.mark.parametrize("key", sorted(GOLDEN_FILES))
def test_format_output_matches_golden(key):
    experiment = _EXPERIMENTS[key]
    formatted = experiment.format(experiment.run())
    assert formatted + "\n" == golden_text(key), (
        f"{key} drifted from benchmarks/results/{GOLDEN_FILES[key]}.txt — "
        "if the change is intentional, regenerate via "
        "`PYTHONPATH=src python -m pytest benchmarks/test_goldens.py`"
    )


def test_parallel_runner_matches_golden():
    """jobs>1 must produce byte-identical output to the golden artifacts."""
    keys = ["fig1", "tab2", "fig5", "sweep"]
    runs = runner.run_battery(keys, jobs=2)
    assert [r.key for r in runs] == keys  # deterministic battery order
    for run in runs:
        assert run.formatted + "\n" == golden_text(run.key)
