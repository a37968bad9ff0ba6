"""Command-line surface: train, eval, infer, report, bench-scaling,
dump-attention, gradcheck.

One command per process. Exit codes: 0 success, 1 gradcheck or internal
failure, 2 configuration error, 3 data or artifact error, 4 numeric
abort during training; every unusable checkpoint, a resumed one
included, and every file that cannot be read or written is a data
error. No command sets the thread count of numpy's BLAS. Results repeat
byte for byte at a fixed BLAS thread count; different counts can round
BLAS reductions differently, so pin the count with
``OPENBLAS_NUM_THREADS`` in the environment of the process.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attention import (RoutingRecord, attention_flops, min_cost_over_s, recording,
                        region_merge, region_partition)
from .config import (RunConfig, describe_keys, effective_text, load_config,
                     parse_config_text)
from .data import (SPLIT_NAMES, DataError, SegSample, kfold_splits,
                   load_dataset, make_splits, read_image, read_split_file,
                   synth_dataset, write_pgm)
from .model import (CheckpointError, ConfigError, Model, ModelConfig, build_model,
                    count_flops, count_params, load_into_model, read_records)
from .tensor import Tensor, softmax_lastdim
from .train import NumericAbort, evaluate, predict, train_loop

PARAM_TARGETS = [
    ("base with channel-spatial fusion", 96, True, 50.76e6),
    ("base without channel-spatial fusion", 96, False, 31.40e6),
    ("tiny (C=64) with channel-spatial fusion", 64, True, 22.64e6),
]
PARAM_TOLERANCE = 0.05


def _say(*parts):
    print(" ".join(str(p) for p in parts))


def _emit(text: str, out: Optional[str]):
    """Print a command's result, after writing it to ``out`` when given."""
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
        _say(f"wrote {out}")
    print(text, end="")


def _split_samples(samples: List[SegSample], run: RunConfig
                   ) -> Dict[str, List[SegSample]]:
    """Samples by split name, as the split file, k-fold or fractions say."""
    ids = [s.id for s in samples]
    if run.split_file:
        assignment = read_split_file(run.split_file)
        missing = [i for i in ids if i not in assignment]
        if missing:
            raise DataError(f"{run.split_file}: no split for id {missing[0]!r}")
    elif run.kfold:
        assignment = kfold_splits(ids, run.kfold, run.fold, run.seed)
    else:
        assignment = make_splits(ids, run.split_fractions, run.seed)
    buckets: Dict[str, List[SegSample]] = {name: [] for name in SPLIT_NAMES}
    for s in samples:
        name = assignment[s.id]
        if name not in buckets:
            raise DataError(f"unknown split name {name!r} for id {s.id!r}")
        buckets[name].append(s)
    return buckets


def _gather_samples(run: RunConfig) -> List[SegSample]:
    if run.synthetic:
        return synth_dataset(run.synth_n, run.model.input_hw,
                             run.model.num_classes, run.seed,
                             in_channels=run.model.in_channels)
    if not run.data_root:
        raise DataError("no dataset: configure data_root or synthetic = true "
                        "(eval also takes --data)")
    samples = load_dataset(run.data_root, run.model.in_channels,
                           run.model.num_classes)
    if not samples:
        raise DataError(f"no samples found under {run.data_root!r}")
    for s in samples:
        _check_extents(s.image, run.model.input_hw, f"{run.data_root}: sample {s.id!r}")
    return samples


def _at_least_one(**options: int):
    for name, value in options.items():
        if value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _check_extents(image: np.ndarray, hw: int, what: str):
    if image.shape[0] != hw or image.shape[1] != hw:
        raise DataError(f"{what}: extents {image.shape[0]}x{image.shape[1]} "
                        f"do not match the model input {hw}x{hw}")


def _load_checkpoint_model(path: str) -> Tuple[Model, RunConfig]:
    config_text, records = read_records(path)
    try:
        run = parse_config_text(config_text, source="embedded config")
    except ConfigError as e:    # an unusable checkpoint is a data error
        raise CheckpointError(f"{path}: {e}") from None
    model = build_model(run.model, seed=run.seed)
    load_into_model(model, records)
    return model, run


def _read_input_image(path: str, run: RunConfig) -> np.ndarray:
    image = read_image(path, run.model.in_channels)
    _check_extents(image, run.model.input_hw, path)
    return image


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    if args.stop_after_epochs is not None:
        _at_least_one(stop_after_epochs=args.stop_after_epochs)
    run = load_config(args.config)
    best, last = (os.path.join(args.out, n) for n in ("best.ckpt", "last.ckpt"))
    if args.resume is None:
        for name in ("best.ckpt", "last.ckpt", "train_log.jsonl"):
            if os.path.exists(os.path.join(args.out, name)):
                raise DataError(f"{args.out} holds another run's {name}: resume "
                                "that run with --resume or train into another --out")
    os.makedirs(args.out, exist_ok=True)
    text = effective_text(run)
    with open(os.path.join(args.out, "effective.cfg"), "w", encoding="utf-8") as f:
        f.write(text)
    splits = _split_samples(_gather_samples(run), run)
    train_set, val_set = splits["train"], splits["val"]
    if not train_set:
        raise DataError("training split is empty")
    model = build_model(run.model, seed=run.seed)
    totals = count_params(model)
    _say(f"model: {totals['total']:,} parameters; "
         f"{len(train_set)} train / {len(val_set)} val samples")
    state = train_loop(
        model, train_set, val_set, run.optim,
        loss_lambda=run.loss_lambda, seed=run.seed, out_dir=args.out,
        eval_every=run.eval_every, aug=run.aug if run.augment else None,
        config_text=text, resume_from=args.resume,
        stop_after_epochs=args.stop_after_epochs)
    # a run stopped before its first validation has no best.ckpt; a best
    # score of -1 means every validation found its foreground DSC undefined
    if not os.path.exists(best):
        score = "no validation ran"
    elif state.best_dsc < 0:
        score = "foreground DSC undefined at every validation"
    else:
        score = f"best foreground DSC {state.best_dsc:.4f}"
    _say(f"done: {state.epoch} epochs, {state.step} steps, {score}")
    _say("wrote", " and ".join(p for p in (best, last) if os.path.exists(p)))
    return 0


def cmd_eval(args) -> int:
    model, run = _load_checkpoint_model(args.checkpoint)
    if args.data:
        run = dataclasses.replace(run, synthetic=False, data_root=args.data)
    if args.split_file:
        run = dataclasses.replace(run, split_file=args.split_file)
    samples = _gather_samples(run)
    if args.split != "all":
        samples = _split_samples(samples, run)[args.split]
        if not samples:
            raise DataError(f"split {args.split!r} selects no samples")
    report = evaluate(model, samples,
                      with_hausdorff=args.hausdorff or run.eval_hausdorff)
    _emit(report.to_json() + "\n", args.out)
    return 0


def cmd_infer(args) -> int:
    model, run = _load_checkpoint_model(args.checkpoint)
    if run.model.num_classes > 256:
        raise ConfigError("cannot write class indices above 255 as PGM")
    image = _read_input_image(args.image, run)
    logits = predict(model, image)
    os.makedirs(args.out, exist_ok=True)
    pred_path = os.path.join(args.out, "pred.pgm")
    write_pgm(pred_path, np.argmax(logits, axis=-1).astype(np.uint8))
    written = [pred_path]
    if args.probs:
        probs = softmax_lastdim(Tensor(logits.astype(np.float64))).data
        for k in range(run.model.num_classes):
            p = os.path.join(args.out, f"prob_{k:02d}.pgm")
            write_pgm(p, np.rint(probs[:, :, k] * 255.0).astype(np.uint8))
            written.append(p)
    for path in written:
        _say(f"wrote {path}")
    return 0


def _report_text(run: RunConfig) -> str:
    model = build_model(run.model, seed=run.seed)
    params = count_params(model)
    flops = count_flops(run.model)
    lines = ["module          params          macs",
             "------          ------          ----"]
    for name, macs in flops["per_module"].items():
        lines.append(f"{name:<14}{params[name]:>12,}{macs:>16,}")
    lines.append(f"{'total':<14}{params['total']:>12,}"
                 f"{flops['total_macs']:>16,}")
    lines.append(f"total params: {params['total'] / 1e6:.2f} M")
    lines.append(f"total flops:  {flops['total_macs'] / 1e9:.2f} G "
                 f"({flops['convention']})")

    # the targets range over these four fields; every other one must be the default
    default = ModelConfig()
    ranged = ("base_channels", "sccsa", "scale_mode", "qkv_bias")
    pinned = dataclasses.replace(run.model, **{f: getattr(default, f) for f in ranged})
    targets = [t for t in PARAM_TARGETS if pinned == default
               and t[1:3] == (run.model.base_channels, run.model.sccsa)]
    for label, _, _, target in targets:
        dev = (params["total"] - target) / target
        verdict = "PASS" if abs(dev) <= PARAM_TOLERANCE else "FAIL"
        lines.append(f"published target [{label}]: {target / 1e6:.2f} M, "
                     f"deviation {dev * 100:+.2f}% -> {verdict} "
                     f"(tolerance +-{PARAM_TOLERANCE * 100:.0f}%)")
    if not targets:
        lines.append("no published parameter target for this configuration")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    run = load_config(args.config)
    _emit(_report_text(run), args.out)
    return 0


def _fit_exponent(hws: List[int], costs: List[int]) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(hws, dtype=np.float64)),
                          np.log(np.asarray(costs, dtype=np.float64)), 1)
    return float(slope)


def bench_scaling_table(sides: List[int], top_k: int, channels: int) -> dict:
    rows = []
    for side in sides:
        hw = side * side
        best_s, bra = min_cost_over_s(hw, channels, top_k)
        full = attention_flops(hw, channels, 1, 1)["token_macs"]   # dense: one region
        rows.append({"side": side, "hw": hw, "best_s": best_s,
                     "bra_macs": bra, "full_macs": full})
    bra_exp = _fit_exponent([r["hw"] for r in rows],
                            [r["bra_macs"] for r in rows])
    full_exp = _fit_exponent([r["hw"] for r in rows],
                             [r["full_macs"] for r in rows])
    return {"rows": rows, "bra_exponent": bra_exp, "full_exponent": full_exp}


def cmd_bench_scaling(args) -> int:
    sides = sorted(set(args.sides))
    if len(sides) < 3:
        raise ConfigError(f"need at least 3 distinct resolutions, got {sides}")
    if any(s < 2 for s in sides):
        raise ConfigError(f"feature sides must be >= 2, got {sides}")
    _at_least_one(top_k=args.top_k, channels=args.channels)
    try:
        table = bench_scaling_table(sides, args.top_k, args.channels)
    except ValueError as e:   # a top_k that no partition of some side holds
        raise ConfigError(str(e)) from None
    lines = [f"routed attention cost scan (top_k={args.top_k}, "
             f"c={args.channels})",
             "side        hw   best_s        bra_macs       full_macs"]
    for r in table["rows"]:
        lines.append(f"{r['side']:>4}{r['hw']:>10}{r['best_s']:>9}"
                     f"{r['bra_macs']:>16,}{r['full_macs']:>16,}")
    lines.append(f"fitted exponent, routed minimum: {table['bra_exponent']:.4f} "
                 f"(4/3 = 1.3333)")
    lines.append(f"fitted exponent, full attention: {table['full_exponent']:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_dump_attention(args) -> int:
    model, run = _load_checkpoint_model(args.checkpoint)
    if not 1 <= args.stage <= 7:
        raise ConfigError(f"stage must be in [1, 7], got {args.stage}")
    stage_idx = args.stage - 1
    depth = len(model.params.stages[stage_idx])
    if depth == 0:
        raise ConfigError(f"stage {args.stage} has no blocks in this checkpoint")
    if args.block != -1 and not 0 <= args.block < depth:
        raise ConfigError(f"block {args.block} outside [0, {depth}) "
                          f"for stage {args.stage}")
    image = _read_input_image(args.image, run)
    with recording(RoutingRecord()) as rec:
        predict(model, image)
    first = sum(model.cfg.stage_depths[:stage_idx])
    trace = rec.traces[first + args.block % depth]
    spec = trace.spec
    side = spec.feat_h
    if not (0 <= args.row < side and 0 <= args.col < side):
        raise ConfigError(f"query ({args.row}, {args.col}) outside the "
                          f"{side}x{side} stage-{args.stage} feature map")
    pixels = np.arange(side * side).reshape(1, side, side, 1)
    ids = region_partition(Tensor(pixels), spec).data[0, :, :, 0]   # [R, T] pixel ids
    region, t_local = map(int, np.argwhere(ids == args.row * side + args.col)[0])
    routed = trace.routing.index[0, region]              # [top_k]
    wrow = trace.weights[0, region, :, t_local, :].mean(axis=0)
    placed = np.zeros((1, spec.num_regions, ids.shape[1], 2))
    placed[0, routed, :, 0] = 255
    placed[0, routed, :, 1] = wrow.reshape(len(routed), -1)
    region_map, heat = np.moveaxis(region_merge(Tensor(placed), spec).data[0], -1, 0)
    region_map = region_map.astype(np.uint8)

    factor = run.model.input_hw // side
    up = lambda m: np.repeat(np.repeat(m, factor, axis=0), factor, axis=1)
    os.makedirs(args.out, exist_ok=True)
    region_path = os.path.join(args.out, "region_map.pgm")
    heat_path = os.path.join(args.out, "heatmap.pgm")
    raw_path = os.path.join(args.out, "heatmap.txt")
    write_pgm(region_path, up(region_map))
    write_pgm(heat_path,
              np.rint(up(heat) / heat.max() * 255.0).astype(np.uint8))
    with open(raw_path, "w", encoding="utf-8") as f:
        f.write(f"# stage {args.stage} query ({args.row}, {args.col}) "
                f"region {region} routed {list(map(int, routed))}\n")
        for r in range(side):
            f.write(" ".join(f"{v:.17g}" for v in heat[r]) + "\n")
    _say(f"attention mass {heat.sum():.6f} over {len(routed)} routed regions")
    for path in (region_path, heat_path, raw_path):
        _say(f"wrote {path}")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_standard_suite
    if not 0 < args.step < np.inf:
        raise ConfigError(f"--step must be finite and > 0, got {args.step}")
    if not 0 <= args.tol < np.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    reports = run_standard_suite(step=args.step, tol=args.tol)
    for rep in reports:
        _say(rep.summary())
    failed = [r for r in reports if not r.passed]
    pool = failed or reports
    # np.argmax ranks a NaN above every number, so a NaN error is named
    worst = pool[int(np.argmax([r.max_rel_err for r in pool]))]
    if failed:
        _say(f"FAILED: {len(failed)}/{len(reports)} checks; worst offender "
             f"{worst.op} at rel err {worst.max_rel_err:.3e} (tol {worst.tol})")
        return 1
    _say(f"all {len(reports)} gradient checks passed "
         f"(worst {worst.op} at {worst.max_rel_err:.3e})")
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_list(raw: str) -> List[int]:
    try:
        return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, "
                                         f"got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routeseg",
        description="Region-routed attention segmentation toolkit.",
        epilog="exit codes: 0 ok, 1 failed check, 2 config error, "
               "3 data error, 4 numeric abort")
    parser.add_argument("--help-config", action="store_true",
                        help="print the config key reference and exit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", default=None,
                   help="checkpoint to resume from; train_log.jsonl is cut back to it")
    p.add_argument("--stop-after-epochs", type=int, default=None,
                   help="interrupt after this many epochs (schedule unchanged)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None, help="dataset root (images/+masks/)")
    p.add_argument("--split", default="all", choices=("all", *SPLIT_NAMES))
    p.add_argument("--split-file", default=None)
    p.add_argument("--hausdorff", action="store_true")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="predict a mask for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="PGM/PPM input")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--probs", action="store_true",
                   help="also write per-class probability maps")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("report", help="parameter and FLOP table for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench-scaling",
                       help="attention cost vs resolution, fitted exponent")
    p.add_argument("--sides", type=_int_list, default=[32, 64, 128, 256],
                   help="comma-separated feature map sides")
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_scaling)

    p = sub.add_parser("dump-attention",
                       help="export routed regions and an attention heatmap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--stage", type=int, default=3, help="stage number, 1-7")
    p.add_argument("--block", type=int, default=-1,
                   help="block index within the stage; -1 = last")
    p.add_argument("--row", type=int, required=True,
                   help="query row in stage feature coordinates")
    p.add_argument("--col", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.help_config:
        print(describe_keys(), end="")
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"routeseg: config error: {e}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, OSError) as e:
        print(f"routeseg: data error: {e}", file=sys.stderr)
        return 3
    except NumericAbort as e:
        print(f"routeseg: numeric abort: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
