"""Per-layer tracing from outside the package.

The traced run rebinds names in the routeseg modules that call them (for
example ``routeseg.blocks.conv2d`` or ``routeseg.train.backward``) to
wrappers that record a span per call: name, start, end and the index of
the enclosing span. Nothing in ``src/`` changes, and the wrappers return
exactly what the wrapped function returned, so a traced run computes the
same bits as an untraced one. Spans stay in memory and are written out
when the benchmark ends.

Backward time per tape op cannot be seen from outside the sweep, so each
distinct (op, operand shapes, arguments) recorded during the traced steps
is replayed afterwards through the public op on a fresh ``Tape`` and its
backward is timed; see :func:`replay_backward`.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import routeseg.attention as rs_attention
import routeseg.blocks as rs_blocks
import routeseg.data as rs_data
import routeseg.fusion as rs_fusion
import routeseg.metrics as rs_metrics
import routeseg.model as rs_model
import routeseg.train as rs_train
from routeseg.attention import attention_flops
from routeseg.model import count_flops
from routeseg.tensor import Tape, Tensor, backward, mul, sum_

perf = time.perf_counter

# reshape, transpose and concat are reported together as "tensor.layout"
_LAYOUT = ("reshape", "transpose", "concat")


def _op_name(fn_name: str) -> str:
    return "tensor.layout" if fn_name in _LAYOUT else f"tensor.{fn_name}"


def _macs(fn_name: str, args: tuple, out: Tensor) -> int:
    """Multiply-accumulates of one conv2d / matmul / dense call."""
    if fn_name == "conv2d":
        kh, kw, cpg, _ = args[1].shape
        return out.size * kh * kw * cpg
    return out.size * args[0].shape[-1]


class _Operand:
    """Shape, dtype and tape binding of a Tensor argument, without its data.

    Keeping the Tensor itself would keep its tape, and with it every
    activation of that step, alive until the replay.
    """

    __slots__ = ("shape", "dtype", "bound")

    def __init__(self, t: Tensor):
        self.shape, self.dtype, self.bound = t.shape, t.dtype, t.tape is not None

    def key(self):
        return ("T", self.shape, self.dtype.str, self.bound)


def _detach(value):
    """Argument as kept for the replay: operands by shape, arrays copied."""
    if isinstance(value, Tensor):
        return _Operand(value)
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (list, tuple)):
        return type(value)(_detach(v) for v in value)
    if isinstance(value, dict):
        return {k: _detach(v) for k, v in value.items()}
    return value


def _key(value):
    """Hashable replay signature of a detached argument."""
    if isinstance(value, _Operand):
        return value.key()
    if isinstance(value, np.ndarray):
        return ("A", value.shape, value.dtype.str)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_key(v) for v in value)
    return ("V", value)


class Tracer:
    """In-memory span recorder plus the counters the spans cannot carry."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.call_bytes: Dict[int, int] = {}        # span index -> output bytes
        self.call_macs: Dict[int, int] = {}         # span index -> MACs
        self.call_pairs: Dict[int, int] = {}        # span index -> |A|*|B|
        self.call_stage: Dict[int, int] = {}        # block span -> stage 1..7
        # replay signature -> [fn, args, kwargs, span indices]
        self.replays: Dict[tuple, list] = {}
        self.tape_nodes: List[int] = []
        self._tape: Optional[Tape] = None
        self._cfg = None
        self._flops: dict = {}                      # ModelConfig -> per-module MACs
        self._blocks_seen = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _op_after(self, fn_name: str, fn: Callable):
        def after(idx, args, kwargs, out):
            self.call_bytes[idx] = out.data.nbytes
            if fn_name in ("conv2d", "matmul", "dense"):
                self.call_macs[idx] = _macs(fn_name, args, out)
            if out.tape is not None:
                kept = _detach(args), _detach(kwargs)
                key = (fn_name, _key(kept[0]), _key(tuple(sorted(kept[1].items()))))
                entry = self.replays.setdefault(key, [fn, kept[0], kept[1], []])
                entry[3].append(idx)
        return after

    # -- rebinding ---------------------------------------------------------

    def install(self):
        """Rebind every traced name; :meth:`uninstall` restores them."""
        op_sites = {
            rs_blocks: ("conv2d", "dense", "gelu", "layer_norm", "reshape",
                        "transpose"),
            rs_attention: ("conv2d", "dense", "gather_regions", "matmul",
                           "reshape", "softmax_lastdim", "transpose"),
            rs_fusion: ("batch_norm", "concat", "conv2d", "dense"),
            rs_model: ("dense",),
        }
        for module, names in op_sites.items():
            for fn_name in names:
                fn = getattr(module, fn_name)
                self._patch(module, fn_name, self.wrap(
                    _op_name(fn_name), fn, self._op_after(fn_name, fn)))

        layers = [
            (rs_model, "bind", "params.bind", None),
            (rs_model, "patch_embed", "blocks.patch_embed", None),
            (rs_model, "block_forward", "blocks.block_forward", self._block_after),
            (rs_model, "patch_merge", "blocks.patch_merge", None),
            (rs_model, "patch_expand", "blocks.patch_expand", None),
            (rs_model, "channel_spatial_fuse", "fusion.channel_spatial_fuse", None),
            (rs_blocks, "routed_attention", "attention.routed_attention",
             self._attention_after),
            (rs_attention, "route_regions", "attention.route_regions", None),
            (rs_attention, "gather_kv", "attention.gather_kv", None),
            (rs_attention, "token_attention", "attention.token_attention", None),
            (rs_attention, "local_context", "attention.local_context", None),
            (rs_train, "augment", "data.augment", None),
            (rs_train, "stack_batch", "data.stack_batch", None),
            (rs_train, "softmax_lastdim", "losses.softmax", None),
            (rs_train, "dice_loss", "losses.dice_loss", None),
            (rs_train, "cross_entropy_loss", "losses.cross_entropy_loss", None),
            (rs_train, "backward", "tensor.backward", None),
            (rs_train, "save_model", "model.save_model", None),
            (rs_model, "read_records", "model.read_records", None),
            (rs_model, "load_into_model", "model.load_into_model", None),
            (rs_data, "synth_dataset", "data.synth_dataset", None),
            (rs_metrics, "hausdorff_distance", "metrics.hausdorff_distance",
             self._hausdorff_after),
            (rs_metrics, "confusion_counts", "metrics.confusion_counts", None),
        ]
        for module, attr, name, after in layers:
            self._patch(module, attr, self.wrap(name, getattr(module, attr), after))

        model_cls = rs_model.Model
        forward = self.wrap("model.forward", model_cls.forward)

        def forward_entry(model, *args, **kwargs):
            self._cfg = model.cfg
            self._blocks_seen = 0
            return forward(model, *args, **kwargs)

        self._patch(model_cls, "forward", forward_entry)

        base_opt = rs_train.Optimizer

        class TracedOptimizer(base_opt):
            step = self.wrap("optim.step", base_opt.step)

        self._patch(rs_train, "Optimizer", TracedOptimizer)

        def new_tape():
            self._tape = Tape()
            return self._tape

        self._patch(rs_train, "Tape", new_tape)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counters fed by the wrappers --------------------------------------

    def on_step(self):
        """Called when train_loop logs a step: the step's tape is complete."""
        if self._tape is not None:
            self.tape_nodes.append(len(self._tape))
            self._tape = None

    def _block_after(self, idx, args, kwargs, out):
        cfg = self._cfg
        k, stage = self._blocks_seen, 0
        while k >= cfg.stage_depths[stage]:
            k -= cfg.stage_depths[stage]
            stage += 1
        self._blocks_seen += 1
        side, dim = cfg.stage_geometry()[stage]
        x = args[0]
        if x.shape[1:] != (side, side, dim):
            raise RuntimeError(f"block call {self._blocks_seen} has input "
                               f"{x.shape}, stage {stage + 1} wants {side}x{dim}")
        if cfg not in self._flops:
            self._flops[cfg] = count_flops(cfg)["per_module"]
        per_block = self._flops[cfg][f"stage{stage + 1}"] // cfg.stage_depths[stage]
        self.call_stage[idx] = stage + 1
        self.call_macs[idx] = per_block * x.shape[0]

    def _attention_after(self, idx, args, kwargs, out):
        x, spec, top_k = args[0], args[2], args[3]
        n, h, w, c = x.shape
        self.call_macs[idx] = n * attention_flops(h * w, c, spec.s,
                                                  top_k)["total_macs"]

    def _hausdorff_after(self, idx, args, kwargs, out):
        self.call_pairs[idx] = (int(np.count_nonzero(args[0]))
                                * int(np.count_nonzero(args[1])))

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)


# ---------------------------------------------------------------------------
# backward replay


def _materialize(value, tape: Tape, rng):
    if isinstance(value, _Operand):
        t = Tensor(rng.standard_normal(value.shape).astype(value.dtype))
        return tape.watch(t) if value.bound else t
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (list, tuple)):
        return type(value)(_materialize(v, tape, rng) for v in value)
    return value


def _timed_backward(loss) -> float:
    t0 = perf()
    backward(loss)
    return perf() - t0


def replay_backward(tracer: Tracer) -> Dict[int, float]:
    """Backward seconds of each recorded op call, by span index.

    Each distinct call signature runs once through the public op on a
    fresh tape with seeded random operands, and ``backward`` of
    ``sum(out * g)`` is timed. The same sweep over a bare leaf of the
    output's shape is timed too and subtracted, which leaves the op's own
    backward. Every call with that signature is charged the result.
    """
    rng = np.random.default_rng(0)
    per_call: Dict[int, float] = {}
    for fn, args, kwargs, calls in tracer.replays.values():
        tape = Tape()
        out = fn(*_materialize(args, tape, rng),
                 **{k: _materialize(v, tape, rng) for k, v in kwargs.items()})
        g = Tensor(rng.standard_normal(out.shape).astype(out.dtype))
        full = _timed_backward(sum_(mul(out, g)))
        bare_tape = Tape()
        leaf = bare_tape.watch(Tensor(out.data.copy()))
        bare = _timed_backward(sum_(mul(leaf, g)))
        cost = max(0.0, full - bare)
        for idx in calls:
            per_call[idx] = cost
    return per_call


# ---------------------------------------------------------------------------
# aggregation


def _in_window(windows: List[Tuple[float, float]], t: float) -> int:
    """Index of the window containing time t, or -1."""
    lo, hi = 0, len(windows)
    while lo < hi:
        mid = (lo + hi) // 2
        if windows[mid][1] < t:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(windows) and windows[lo][0] <= t <= windows[lo][1]:
        return lo
    return -1


def layer_metrics(tracer: Tracer, windows: List[Tuple[float, float]],
                  bwd: Optional[Dict[int, float]] = None) -> Dict[str, float]:
    """Per-operation layer figures from the spans inside ``windows``.

    A window is one operation: a training step, or one inferred or
    evaluated image. Times are seconds per operation. Spans outside every
    window (checkpoint writes, set-up) are reported per call.
    """
    bwd = bwd or {}
    spans = tracer.spans
    units = max(1, len(windows))
    window_of: List[int] = []
    incl = defaultdict(float)            # name -> inclusive seconds in windows
    child = [0.0] * len(spans)
    top_per_window = [0.0] * len(windows)
    outside = defaultdict(list)          # name -> durations outside windows
    straddling = 0                       # top-level spans ending after their window
    for i, (name, start, end, parent) in enumerate(spans):
        w = window_of[parent] if parent >= 0 else _in_window(windows, start)
        window_of.append(w)
        dur = end - start
        if parent >= 0:
            child[parent] += dur
        if w < 0:
            outside[name].append(dur)
            continue
        incl[name] += dur
        if parent < 0:
            top_per_window[w] += dur
            straddling += end > windows[w][1]

    self_total = sum(end - start - child[i]
                     for i, (_, start, end, _) in enumerate(spans)
                     if window_of[i] >= 0)

    out: Dict[str, float] = {}
    for name, total in incl.items():
        suffix = "fwd_s" if name.startswith("tensor.") and \
            name != "tensor.backward" else "s"
        out[f"{name}.{suffix}"] = total / units
    for name, durs in outside.items():
        out[f"{name}.s"] = float(np.median(durs))

    macs = defaultdict(int)
    secs = defaultdict(float)
    for idx, m in tracer.call_macs.items():
        if window_of[idx] < 0:
            continue
        name = spans[idx][0]
        if idx in tracer.call_stage:
            name = f"model.stage{tracer.call_stage[idx]}"
        macs[name] += m
        secs[name] += spans[idx][2] - spans[idx][1]
    for name, m in macs.items():
        if secs[name] > 0:
            out[f"{name}.gmac_per_s"] = m / secs[name] / 1e9

    out["tensor.fwd_out_mb"] = sum(
        b for i, b in tracer.call_bytes.items() if window_of[i] >= 0) / units / 2 ** 20
    pairs = [p for i, p in tracer.call_pairs.items() if window_of[i] >= 0]
    if pairs:
        out["metrics.hd_point_pairs"] = sum(pairs) / units
    for idx, cost in bwd.items():
        if window_of[idx] >= 0:
            key = f"{spans[idx][0]}.bwd_s"
            out[key] = out.get(key, 0.0) + cost / units
    if tracer.tape_nodes:
        out["tensor.tape_nodes"] = float(np.median(tracer.tape_nodes))

    window_total = sum(b - a for a, b in windows)
    out["_window_s"] = window_total / units
    out["_self_sum_s"] = self_total / units
    out["_harness_s"] = (window_total - sum(top_per_window)) / units
    out["_straddling"] = straddling
    return out

