"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads train_micro64,eval_hd64 \
        --seeds 1-10 [--trace 0] [--out summary.json]

Runs one benchmark process at a time from the repository root, with the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the interquartile distance as a share of the median,
next to the metric's bound. The spread of a metric should stay below a
third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def _seeds(raw: str):
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for wl in args.workloads.split(","):
        values, walls, digests, environment = {}, [], [], None
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect result", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(f".perfbench_out/{wl}-seed{seed}-trace{args.trace}.json",
                      encoding="utf-8") as f:
                record = json.load(f)
            digests.append(record["input_digest"])
            environment = record["environment"]
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"{wl:14s} {name:22s} median {med:<12.6g} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag,
                  flush=True)
        print(f"{wl:14s} wall per run: median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s; {len(set(digests))} distinct input"
              f" digests over {len(digests)} seeds", flush=True)
        summary[wl] = {"metrics": rows, "run_wall_s": walls,
                       "input_digests": digests, "environment": environment}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
