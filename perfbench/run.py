"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports ``routeseg`` from ``src/`` of
that checkout and nothing else. ``--trace 0`` measures the end-to-end
metrics named in BENCHMARK.json with no instrumentation. ``--trace 1``
makes the same untraced run, then repeats exactly the same work from a
fresh set-up with per-layer spans, checks that both runs produced the
same bits, and reports the per-layer metrics. The last line of standard
output is the JSON result; the lines above it are for people.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

# The BLAS pool changes both speed and bits, so it is pinned, to at most
# the number of cores, before main() imports numpy.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _environment(np) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy's default."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "routeseg", "__init__.py")):
        _fail(f"no routeseg package under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, src)

    import numpy as np
    import routeseg
    if not os.path.abspath(routeseg.__file__).startswith(src + os.sep):
        _fail(f"routeseg imported from {routeseg.__file__}, not {src}")

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    for name in ("configs/micro64.cfg", "configs/base.cfg"):
        if not os.path.isfile(os.path.join(root, name)):
            _fail(f"missing {name}")

    out_root = os.path.join(root, ".perfbench_out")
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(out_root, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        result, report = _run(wl, args, work_dir, spec, tracing,
                              os.path.join(out_root, f"{tag}-spans.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["environment"] = _environment(np)
    with open(os.path.join(out_root, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"result": result, **report}, f, indent=1)
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print(f"input digest: {report['input_digest']}")
    for name, ok in report["checks"]:
        if not ok:
            print(f"CHECK FAILED: {name}")
    print(f"checks: {sum(ok for _, ok in report['checks'])}"
          f"/{len(report['checks'])} passed")
    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    n_ops = report["samples"]["op_s_p50"]
    for name, value in report["end_to_end"].items():
        n = report["samples"].get(name)
        print(f"{name} = {value:.6g} {units[name]}"
              + (f" (n={n})" if n is not None else ""))
    print(f"op_s_p90 = {report['tail']['op_s_p90']:.6g} s (n={n_ops}, "
          f"{int(n_ops * 0.1)} beyond it; printed, not gated)")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def _run(wl, args, work_dir, spec, tracing, spans_path):
    perf = tracing.perf
    inp = wl.inputs(args.seed, work_dir)
    setups, st = [], None
    for _ in range(wl.setup_repeats):
        st = None                       # free the previous set-up first
        t0 = perf()
        st = wl.setup(inp)
        setups.append(perf() - t0)
    digest = wl.digest(st)
    ref = wl.before(st)
    m = wl.measure(st, wl.count_for(args.seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = wl.checks(st, m, ref)
    attempted = len(m.windows) + m.failed_ops
    failed = m.failed_ops

    op_s = m.op_s
    e2e = {"setup_s": statistics.median(setups),
           "items_per_s": m.items / m.busy_s,
           "op_s_p50": statistics.median(op_s),
           "peak_rss_mb": peak_rss_mb}
    samples = {"setup_s": len(setups), "items_per_s": m.items,
               "op_s_p50": len(op_s)}
    # too few operations in a run on the base workloads to gate a tail
    # percentile, so it is printed and recorded but not in BENCHMARK.json
    tail = {"op_s_p90": _quantile(op_s, 0.9)}

    if args.trace:
        st = None
        tracer = tracing.Tracer()
        with tracer.installed():
            st = wl.setup(inp)
            mt = wl.measure(st, count=m.count, tracer=tracer)
        attempted += len(mt.windows) + mt.failed_ops
        failed += mt.failed_ops
        checks.append(("traced run reproduces the untraced outputs bit-exactly",
                       mt.outputs == m.outputs))
        bwd = tracing.replay_backward(tracer) if wl.trains else {}
        layer = tracing.layer_metrics(tracer, mt.windows, bwd)
        untraced = sum(op_s) / len(op_s)
        traced = layer.pop("_window_s")
        self_sum = layer.pop("_self_sum_s")
        remainder = layer.pop("_harness_s")
        straddling = layer.pop("_straddling")
        if wl.trains:
            layer["train.self.s"] = remainder
        layer["model.ckpt_mb"] = m.extra.get("ckpt_mb", 0.0)
        layer["trace.op_s"] = traced
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.covered_ratio"] = self_sum / traced
        if wl.trains:
            # every top-level span lies inside its step, so the layer self
            # times plus train.self sum to the traced step time, which is
            # the untraced one plus trace.overhead_s
            checks.append(("per-layer self times plus train.self sum to the "
                           "traced step time",
                           straddling == 0 and remainder >= 0.0
                           and abs(self_sum + remainder - traced) <= 1e-9 * traced))
        tracer.dump(spans_path)
        wanted = spec["per_layer"]
        values = {x["name"]: float(layer.get(x["name"], 0.0)) for x in wanted}
    else:
        wanted = spec["end_to_end"]
        values = e2e
    attempted += len(checks)
    failed += sum(not ok for _, ok in checks)
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
               for x in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"input_digest": digest, "checks": checks, "samples": samples,
              "end_to_end": e2e, "tail": tail, "op_s": op_s,
              "outputs": m.outputs}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
