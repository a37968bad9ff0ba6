"""Smoke test of the benchmark contract.

``perfbench/tracing.py`` rebinds names in the routeseg modules (for
example ``routeseg.blocks.conv2d`` or ``routeseg.train.dice_loss``) and
``perfbench/run.py`` checks the outputs of each workload. A short traced
run of every workload fails here when a change to ``src/`` removes a
rebound name or breaks an output check. A rebound name that stays
importable but is no longer called reads 0 in the traced run, so on
``train_micro64``, which reaches every traced layer but the ones below,
every metric but the signed tracing overhead must read above 0. On
``eval_hd64`` the three metrics traced through ``routeseg.metrics`` must.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# train_micro64 runs no augmentation, no checkpoint load and no evaluation
MICRO64_UNREACHED = {"data.augment.s", "metrics.confusion_counts.s",
                     "metrics.hausdorff_distance.s", "metrics.hd_point_pairs",
                     "model.load_into_model.s", "model.read_records.s"}
# traced minus untraced time of the same steps: a signed difference of two
# timings, not a rebound name, so on a fast step it can read below 0
SIGNED = {"trace.overhead_s"}
# the only workload that calls the rebound routeseg.metrics names
EVAL_REACHED = ("metrics.hausdorff_distance.s", "metrics.confusion_counts.s",
                "metrics.hd_point_pairs")


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
    if workload == "train_micro64":
        idle = sorted(name for name, m in result["metrics"].items()
                      if name not in MICRO64_UNREACHED | SIGNED
                      and not m["value"] > 0)
        assert not idle, f"traced layers never called: {idle}"
    if workload == "eval_hd64":
        idle = [name for name in EVAL_REACHED
                if not result["metrics"][name]["value"] > 0]
        assert not idle, f"traced metrics layers never called: {idle}"
