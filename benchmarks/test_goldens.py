"""The golden writer: regenerate every table under ``benchmarks/results/``.

One test per experiment in :data:`repro.experiments.runner.EXPERIMENTS`
runs it and writes its formatted table to
``benchmarks/results/<GOLDEN_FILES[key]>.txt``, the file that
``tests/experiments/test_golden.py`` diffs the experiment against.  Run
it after a change that moves an experiment's numbers on purpose::

    PYTHONPATH=src python -m pytest benchmarks/test_goldens.py -q

The asserts on each experiment's shape live in tier-1
(``tests/experiments/``); this file only writes.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from tests.experiments.test_golden import GOLDEN_FILES, RESULTS_DIR


@pytest.mark.parametrize("experiment", runner.EXPERIMENTS, ids=lambda e: e.key)
def test_write_golden(experiment):
    text = experiment.format(experiment.run())
    (RESULTS_DIR / f"{GOLDEN_FILES[experiment.key]}.txt").write_text(text + "\n")
