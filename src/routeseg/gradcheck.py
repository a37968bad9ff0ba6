"""Central-difference gradient checking.

The checker never touches backward formulas: it re-evaluates the forward
function at perturbed inputs and compares the quotient against the tape
gradient. Relative error per coordinate is

    |analytic - numeric| / max(|analytic|, |numeric|, REL_FLOOR)

so coordinates where both gradients vanish are compared on an absolute
scale instead of dividing by zero.

Per-op checks scan every coordinate. Composite and end-to-end checks may
cap coordinates per parameter (seeded uniform sample without
replacement); the report counts the coordinates checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .tensor import Tape, Tensor, backward

REL_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    op: str
    tol: float
    step: float
    max_rel_err: float = 0.0
    passed: bool = True
    coords_checked: int = 0

    def summary(self) -> str:
        flag = "ok" if self.passed else "FAIL"
        return (f"{self.op}: max rel err {self.max_rel_err:.3e} "
                f"over {self.coords_checked} coords ({flag})")


def grad_check(fn: Callable[[Dict[str, Tensor]], Tensor],
               params: Dict[str, np.ndarray],
               step: float = 1e-4,
               tol: float = 1e-3,
               max_coords_per_param: Optional[int] = None,
               seed: int = 0,
               op: str = "fn") -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    ``fn`` receives a dict of tensors (tape-bound for the analytic pass,
    constants for the numeric evaluations) and must return a scalar Tensor.
    ``params`` holds float64 arrays; float32 finite differences are too
    coarse to be meaningful and are rejected.
    """
    for name, arr in params.items():
        if arr.dtype != np.float64:
            raise ValueError(f"grad_check: param {name} must be float64")

    tape = Tape()
    bound = {name: tape.watch(Tensor(arr)) for name, arr in params.items()}
    loss = fn(bound)
    if loss.shape != ():
        raise ValueError(f"grad_check: fn must return a scalar, got {loss.shape}")
    grads = backward(loss)
    analytic = {name: grads[bound[name]] for name in params}

    def evaluate(values: Dict[str, np.ndarray]) -> float:
        out = fn({name: Tensor(v) for name, v in values.items()})
        return float(out.data)

    rng = np.random.default_rng(seed)
    report = GradCheckReport(op=op, tol=tol, step=step)
    work = {name: arr.astype(np.float64, copy=True) for name, arr in params.items()}

    for name, arr in params.items():
        size = arr.size
        if size == 0:
            continue
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
            coords = np.sort(coords)
        else:
            coords = np.arange(size)
        flat = work[name].reshape(-1)
        aflat = analytic[name].reshape(-1)
        for idx in coords:
            keep = flat[idx]
            flat[idx] = keep + step
            f_plus = evaluate(work)
            flat[idx] = keep - step
            f_minus = evaluate(work)
            flat[idx] = keep
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(aflat[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
            report.coords_checked += 1
            # np.maximum keeps a NaN, which then fails the check
            report.max_rel_err = float(np.maximum(report.max_rel_err, rel))
    report.passed = report.max_rel_err <= tol
    return report


def standard_suite() -> list:
    """Named (op, fn, params, kwargs) checks covering every differentiable
    op plus the shipped composites. Imports are local so this module stays
    import-light for plain per-op use."""
    from . import losses
    from .attention import PartitionSpec, RoutingAttentionParams, routed_attention
    from .blocks import BlockParams, block_forward
    from .fusion import FusionParams, channel_spatial_fuse
    from .params import named_arrays, substitute
    from . import tensor as T

    rng = np.random.default_rng(7)

    def rand(*shape):
        return rng.standard_normal(shape)

    suite = []

    def entry(name, fn, params, **kwargs):
        suite.append((name, fn, params, kwargs))

    entry("add", lambda p: T.sum_(T.add(p["a"], p["b"])),
          {"a": rand(3, 4), "b": rand(4)})
    entry("sub", lambda p: T.sum_(T.mul(T.sub(p["a"], p["b"]), p["a"])),
          {"a": rand(3, 4), "b": rand(3, 1)})
    entry("mul", lambda p: T.sum_(T.mul(p["a"], p["b"])),
          {"a": rand(2, 5), "b": rand(2, 5)})
    entry("div", lambda p: T.sum_(T.div(p["a"], p["b"])),
          {"a": rand(3, 3), "b": rand(3, 3) + 3.0})
    entry("neg", lambda p: T.sum_(T.mul(T.neg(p["a"]), p["a"])), {"a": rand(6)})
    entry("exp", lambda p: T.sum_(T.exp(p["a"])), {"a": rand(4, 3) * 0.5})
    entry("log", lambda p: T.sum_(T.log(p["a"])), {"a": np.abs(rand(5, 2)) + 0.5})
    entry("sqrt", lambda p: T.sum_(T.sqrt(p["a"])), {"a": np.abs(rand(7)) + 0.5})
    entry("clip", lambda p: T.sum_(T.mul(T.clip(p["a"], -0.8, 0.8), p["a"])),
          {"a": rand(40)})
    relu_in = rand(30)
    relu_in += np.where(relu_in >= 0, 0.3, -0.3)     # keep off the kink
    entry("relu", lambda p: T.sum_(T.relu(p["a"])), {"a": relu_in})
    entry("sigmoid", lambda p: T.sum_(T.sigmoid(p["a"])), {"a": rand(4, 4) * 2})
    entry("gelu", lambda p: T.sum_(T.gelu(p["a"])), {"a": rand(25)})
    entry("reshape", lambda p: T.sum_(T.mul(T.reshape(p["a"], (6, 2)), 2.0)),
          {"a": rand(3, 4)})
    entry("transpose", lambda p: T.sum_(T.mul(T.transpose(p["a"], (2, 0, 1)),
                                              T.transpose(p["a"], (2, 0, 1)))),
          {"a": rand(2, 3, 4)})
    entry("concat", lambda p: T.sum_(T.mul(T.concat([p["a"], p["b"]], axis=1),
                                           T.concat([p["b"], p["a"]], axis=1))),
          {"a": rand(3, 2), "b": rand(3, 2)})
    entry("sum", lambda p: T.sum_(T.mul(T.sum_(p["a"], axis=1, keepdims=True), p["a"])),
          {"a": rand(3, 5)})
    entry("mean", lambda p: T.sum_(T.mul(T.mean_(p["a"], axis=(0, 2), keepdims=True),
                                         p["a"])),
          {"a": rand(2, 3, 4)})
    entry("matmul", lambda p: T.sum_(T.matmul(p["a"], p["b"])),
          {"a": rand(2, 3, 4), "b": rand(4, 5)})
    entry("softmax", lambda p: T.sum_(T.mul(T.softmax_lastdim(p["a"], scale=0.7),
                                            p["b"])),
          {"a": rand(3, 6), "b": rand(3, 6)})
    entry("conv2d", lambda p: T.sum_(T.conv2d(p["x"], p["w"], p["b"],
                                              stride=2, padding=1)),
          {"x": rand(2, 5, 5, 3), "w": rand(3, 3, 3, 4), "b": rand(4)})
    entry("conv2d_depthwise",
          lambda p: T.sum_(T.mul(T.conv2d(p["x"], p["w"], None, stride=1,
                                          padding=2), p["x"])),
          {"x": rand(1, 6, 6, 6), "w": rand(5, 5, 1, 6)})
    entry("conv2d_depthwise_bias",
          lambda p: T.sum_(T.mul(T.conv2d(p["x"], p["w"], p["b"], stride=1,
                                          padding=1), p["x"])),
          {"x": rand(2, 5, 5, 4), "w": rand(3, 3, 1, 4), "b": rand(4)})
    entry("layer_norm", lambda p: T.sum_(T.mul(T.layer_norm(p["x"], p["g"], p["b"]),
                                               p["x"])),
          {"x": rand(2, 3, 5), "g": rand(5) + 1.5, "b": rand(5)})

    def bn_train(p):
        rm = np.zeros(3)
        rv = np.ones(3)
        y = T.batch_norm(p["x"], p["g"], p["b"], rm, rv, training=True)
        return T.sum_(T.mul(y, p["x"]))

    entry("batch_norm", bn_train,
          {"x": rand(2, 4, 4, 3), "g": rand(3) + 1.5, "b": rand(3)})

    def gather(p):
        idx = np.array([[[0, 2], [1, 0], [3, 1], [2, 3]]])  # [1, 4, 2]
        g = T.gather_regions(p["src"], idx)
        return T.sum_(T.mul(g, g))

    entry("gather_regions", gather, {"src": rand(1, 4, 3, 2)})

    from .params import walk_tensors

    def randomize(struct, seed, scale=0.5):
        # production init is tiny (std 0.02); checks want O(1) routing
        # margins so a finite-difference step cannot flip a selection
        r = np.random.default_rng(seed)
        for _, t in walk_tensors(struct):
            t.data[...] = r.standard_normal(t.shape) * scale
        return struct

    spec = PartitionSpec.build(4, 4, 2)

    def composite(name, struct, inputs, run):
        # loss sum(y*y) of y = run(p, struct with p's arrays); the check
        # perturbs ``inputs`` and every parameter of ``struct``
        def fn(p):
            y = run(p, substitute(struct, p))
            return T.sum_(T.mul(y, y))
        entry(name, fn, {**inputs, **named_arrays(struct)})

    composite("routed_attention",
              randomize(RoutingAttentionParams.init(
                  dim=4, heads=2, rng=np.random.default_rng(11),
                  dtype=np.float64), seed=11),
              {"x": rng.standard_normal((2, 4, 4, 4))},
              lambda p, ap: routed_attention(p["x"], ap, spec, top_k=2))
    composite("block",
              randomize(BlockParams.init(dim=4, heads=2, rng=np.random.default_rng(13),
                                         dtype=np.float64), seed=13),
              {"x": rng.standard_normal((1, 4, 4, 4))},
              lambda p, bp: block_forward(p["x"], bp, spec, top_k=2))
    composite("channel_spatial_fuse",
              randomize(FusionParams.init(channels=4, rng=np.random.default_rng(17),
                                          dtype=np.float64), seed=17),
              {"x1": rng.standard_normal((2, 4, 4, 4)),
               "x2": rng.standard_normal((2, 4, 4, 4))},
              lambda p, fp: channel_spatial_fuse(p["x1"], p["x2"], fp, training=True))

    labels = rng.integers(0, 3, size=(2, 4, 4))
    onehot = np.eye(3)[labels]

    entry("dice_loss", lambda p: losses.dice_loss(
        T.softmax_lastdim(p["logits"]), Tensor(onehot)),
        {"logits": rng.standard_normal((2, 4, 4, 3))})
    entry("ce_loss", lambda p: losses.cross_entropy_loss(
        T.softmax_lastdim(p["logits"]), Tensor(onehot)),
        {"logits": rng.standard_normal((2, 4, 4, 3))})
    entry("hybrid_loss", lambda p: losses.hybrid_loss(p["logits"], Tensor(onehot),
                                                      lam=0.6),
          {"logits": rng.standard_normal((2, 4, 4, 3))})

    from .model import Model, ModelConfig, build_model

    micro_cfg = ModelConfig(in_channels=1, num_classes=2, base_channels=8,
                            stage_depths=(1, 1, 1, 1, 1, 1, 1), s=2,
                            input_hw=32)
    micro = build_model(micro_cfg, seed=23, dtype=np.float64)
    # 0.25, not 0.5: seven stages of 0.5-scale weights saturate the
    # attention softmaxes, and central differences go bad in the
    # high-curvature saturated regime even though the tape is exact
    randomize(micro.params, seed=23, scale=0.25)
    micro_labels = rng.integers(0, 2, size=(1, 32, 32))
    micro_onehot = np.eye(2)[micro_labels]

    from .attention import RoutingRecord, recording

    # pin the top-k selections: the tape differentiates the loss with the
    # discrete routing held fixed, so the difference quotient must too
    micro_routing = RoutingRecord()

    def micro_net(p):
        m = Model(micro.cfg, substitute(micro.params, p))
        with recording(micro_routing):
            micro_routing.begin_pass()
            logits = m.forward(p["x"], training=True)
        return losses.hybrid_loss(logits, Tensor(micro_onehot), lam=0.6)

    micro_params = {"x": rng.standard_normal((1, 32, 32, 1))}
    micro_params.update(named_arrays(micro.params))
    # 2 sampled coordinates per tensor keeps the end-to-end check minutes-fast
    entry("micro_model", micro_net, micro_params,
          max_coords_per_param=2, seed=29)

    return suite


def run_standard_suite(step: float = 1e-4, tol: float = 1e-3) -> list[GradCheckReport]:
    return [grad_check(fn, params, step=step, tol=tol, op=name, **kwargs)
            for name, fn, params, kwargs in standard_suite()]
