"""Smoke test of the benchmark contract.

``perfbench/tracing.py`` rebinds names in the routeseg modules (for
example ``routeseg.blocks.conv2d`` or ``routeseg.train.dice_loss``) and
``perfbench/run.py`` checks the outputs of each workload. A short traced
run of every workload fails here when a change to ``src/`` removes a
rebound name or breaks an output check.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["eval_hd64", "train_micro64",
                                      "infer_base", "train_base"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
