"""Bi-level routed sparse attention.

A feature map is cut into an S x S grid of regions. Region-mean queries
and keys build a region-to-region affinity; each query region keeps its
top-k regions, gathers their keys/values, and runs ordinary multi-head
attention over that gathered set only. A 5x5 depth-wise conv on V
restores local context that the sparse path drops. With top_k = S*S the
gathered set is every token and the layer degenerates to full attention,
which is what ``full_attention_reference`` checks against.

Routing is a discrete selection: gradients flow through the gathered
keys/values and the projections, never through the top-k scores, so the
affinity is computed off-tape. Each layout change (region partition and
merge, head split and merge) is one ``rearrange`` node.

Routing is inspected through one hook. Inside ``recording(rec)`` every
``routed_attention`` call appends its routing, post-softmax weights,
partition and top_k to ``rec.traces``, in call order; ``dump-attention``
reads one block's trace from there. The same record pins routing: after
``rec.begin_pass()`` has seen a recorded pass, each later pass replays
the recorded selections, which is how gradcheck holds the discrete
selection fixed while it perturbs the inputs. Outside ``recording`` the
forward pass neither records nor pins.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .params import trunc_normal, zeros
from .tensor import (Tensor, conv2d, dense, gather_regions, matmul, rearrange, reshape,
                     softmax_lastdim, transpose)  # noqa: F401, perfbench rebinds transpose

LCE_KERNEL = 5                   # side of the depth-wise local-context conv


@dataclass(frozen=True)
class PartitionSpec:
    """Geometry of one region partition."""

    feat_h: int
    feat_w: int
    s: int
    region_h: int
    region_w: int
    tokens_per_region: int

    @classmethod
    def build(cls, feat_h: int, feat_w: int, s: int) -> "PartitionSpec":
        if s < 1:
            raise ValueError(f"partition factor must be >= 1, got {s}")
        if feat_h % s or feat_w % s:
            raise ValueError(
                f"feature {feat_h}x{feat_w} not divisible into {s}x{s} regions")
        rh, rw = feat_h // s, feat_w // s
        return cls(feat_h, feat_w, s, rh, rw, rh * rw)

    @property
    def num_regions(self) -> int:
        return self.s * self.s


def effective_s(side: int, s: int) -> int:
    """Largest divisor of ``side`` not exceeding ``s``.

    Deep stages can shrink a map below the nominal grid (a 1x1 bottleneck
    under S=2); they then partition with the finest grid that still fits,
    down to a single region.
    """
    for cand in range(min(side, s), 0, -1):
        if side % cand == 0:
            return cand
    return 1


@dataclass(frozen=True)
class RoutingResult:
    """Off-tape routing artifacts: region means, affinity, and selection."""

    region_queries: np.ndarray   # [N, R, C]
    region_keys: np.ndarray      # [N, R, C]
    adjacency: np.ndarray        # [N, R, R]
    index: np.ndarray            # [N, R, k] int64


@dataclass(frozen=True)
class AttentionTrace:
    """One routed attention call, as a :class:`RoutingRecord` holds it."""

    routing: RoutingResult
    weights: np.ndarray          # [N, R, heads, T, k*T] post-softmax
    spec: PartitionSpec
    top_k: int


@dataclass
class RoutingAttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Optional[Tensor]
    bk: Optional[Tensor]
    bv: Optional[Tensor]
    bo: Tensor
    lce: Tensor                  # [5, 5, 1, C] depth-wise, no bias
    heads: int = 1
    scale_mode: str = "per_head"

    @classmethod
    def init(cls, dim: int, heads: int, rng: np.random.Generator,
             dtype=np.float32, qkv_bias: bool = True,
             scale_mode: str = "per_head"):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by {heads} heads")
        if scale_mode not in ("per_head", "model_dim"):
            raise ValueError(f"unknown scale_mode {scale_mode!r}")

        def w():
            return Tensor(trunc_normal(rng, (dim, dim), dtype=dtype))

        def b():
            return Tensor(zeros((dim,), dtype)) if qkv_bias else None

        lce = Tensor(trunc_normal(rng, (LCE_KERNEL, LCE_KERNEL, 1, dim),
                                  dtype=dtype))
        return cls(wq=w(), wk=w(), wv=w(), wo=w(), bq=b(), bk=b(), bv=b(),
                   bo=Tensor(zeros((dim,), dtype)), lce=lce, heads=heads,
                   scale_mode=scale_mode)

    @property
    def dim(self) -> int:
        return self.wq.shape[0]

    def softmax_scale(self) -> float:
        d = self.dim // self.heads if self.scale_mode == "per_head" else self.dim
        return 1.0 / float(np.sqrt(d))


# ---------------------------------------------------------------------------
# partition plumbing


def region_partition(x: Tensor, spec: PartitionSpec) -> Tensor:
    """[N, H, W, C] -> [N, S*S, T, C], regions and tokens row-major."""
    n, h, w, c = x.shape
    if (h, w) != (spec.feat_h, spec.feat_w):
        raise ValueError(f"feature {h}x{w} does not match spec "
                         f"{spec.feat_h}x{spec.feat_w}")
    s, rh, rw = spec.s, spec.region_h, spec.region_w
    return rearrange(x, (n, s, rh, s, rw, c), (0, 1, 3, 2, 4, 5),
                     (n, s * s, rh * rw, c))


def region_merge(x: Tensor, spec: PartitionSpec) -> Tensor:
    """Inverse of region_partition, bit-exact."""
    n = x.shape[0]
    s, rh, rw = spec.s, spec.region_h, spec.region_w
    c = x.shape[-1]
    if x.shape[1] != s * s or x.shape[2] != rh * rw:
        raise ValueError(f"region layout {x.shape} does not match spec")
    return rearrange(x, (n, s, s, rh, rw, c), (0, 1, 3, 2, 4, 5),
                     (n, spec.feat_h, spec.feat_w, c))


def project_qkv(xr: Tensor, p: RoutingAttentionParams) -> Tuple[Tensor, Tensor, Tensor]:
    q = dense(xr, p.wq, p.bq)
    k = dense(xr, p.wk, p.bk)
    v = dense(xr, p.wv, p.bv)
    return q, k, v


class RoutingRecord:
    """Routed attention calls made inside :func:`recording`.

    ``traces`` holds one :class:`AttentionTrace` per call since the last
    :meth:`begin_pass`, in call order. Calling :meth:`begin_pass` before
    each forward pins the routing: once a pass has been recorded, every
    later pass replays its top-k selections in call order. Finite-difference
    checks must difference the function the tape differentiates, and the
    tape holds the discrete selection constant; pinning removes the
    measure-zero selection-boundary discontinuities from the comparison.
    """

    def __init__(self):
        self.traces: List[AttentionTrace] = []
        self._replay: List[np.ndarray] = []
        self._pos = 0

    def begin_pass(self):
        if self.traces and not self._replay:
            self._replay = [t.routing.index for t in self.traces]
        self.traces = []
        self._pos = 0

    def select(self, index: np.ndarray) -> np.ndarray:
        """The live selection, or the recorded one on a replayed pass."""
        if not self._replay:
            return index
        if self._pos >= len(self._replay):
            raise RuntimeError("routing replayed past its recording")
        pinned = self._replay[self._pos]
        self._pos += 1
        if pinned.shape != index.shape:
            raise RuntimeError(f"recorded routing {pinned.shape} does not "
                               f"match live routing {index.shape}")
        return pinned


_RECORD: Optional[RoutingRecord] = None


@contextmanager
def recording(rec: RoutingRecord):
    global _RECORD
    previous = _RECORD
    _RECORD = rec
    try:
        yield rec
    finally:
        _RECORD = previous


def route_regions(q: Tensor, k: Tensor, spec: PartitionSpec,
                  top_k: int) -> RoutingResult:
    """Region-mean affinity and row-wise top-k selection.

    Ties break toward the lower region id (stable sort on negated
    scores). Purely index-producing: runs on raw arrays.
    """
    r = spec.num_regions
    if not 1 <= top_k <= r:
        raise ValueError(f"top_k {top_k} outside [1, {r}]")
    qr = q.data.mean(axis=2)
    kr = k.data.mean(axis=2)
    adj = np.matmul(qr, np.swapaxes(kr, -1, -2))
    order = np.argsort(-adj, axis=-1, kind="stable")
    index = order[:, :, :top_k].astype(np.int64)
    if _RECORD is not None:
        index = _RECORD.select(index)
    return RoutingResult(qr, kr, adj, index)


def gather_kv(k: Tensor, v: Tensor, index: np.ndarray) -> Tuple[Tensor, Tensor]:
    """Pull the routed regions' keys/values: [N,R,T,C] -> [N,R,k*T,C]."""
    n, r, t, c = k.shape
    kk = index.shape[-1]
    kg = reshape(gather_regions(k, index), (n, r, kk * t, c))
    vg = reshape(gather_regions(v, index), (n, r, kk * t, c))
    return kg, vg


def token_attention(q: Tensor, kg: Tensor, vg: Tensor,
                    p: RoutingAttentionParams) -> Tuple[Tensor, np.ndarray]:
    """Multi-head attention of region tokens over their gathered set.

    Heads are contiguous channel slices; K is split straight into the
    [N, R, h, dh, k*T] view its product reads. Returns the merged heads
    through the output projection, and the post-softmax weights
    [N, R, heads, T, k*T]; the local-context term is added by the caller
    in spatial layout.
    """
    n, r, t, c = q.shape
    l = kg.shape[2]
    h = p.heads
    dh = c // h

    qh = rearrange(q, (n, r, t, h, dh), (0, 1, 3, 2, 4), (n, r, h, t, dh))
    kh = rearrange(kg, (n, r, l, h, dh), (0, 1, 3, 4, 2), (n, r, h, dh, l))
    vh = rearrange(vg, (n, r, l, h, dh), (0, 1, 3, 2, 4), (n, r, h, l, dh))
    attn = softmax_lastdim(matmul(qh, kh), scale=p.softmax_scale())
    out = matmul(attn, vh)
    out = rearrange(out, (n, r, h, t, dh), (0, 1, 3, 2, 4), (n, r, t, c))
    return dense(out, p.wo, p.bo), attn.data


def local_context(v_spatial: Tensor, p: RoutingAttentionParams) -> Tensor:
    """Depth-wise conv on V, same padding, no bias."""
    return conv2d(v_spatial, p.lce, None, stride=1, padding=LCE_KERNEL // 2)


def routed_attention(x: Tensor, p: RoutingAttentionParams, spec: PartitionSpec,
                     top_k: int) -> Tensor:
    """partition -> project -> route -> gather -> attend -> merge (+LCE)."""
    xr = region_partition(x, spec)
    q, k, v = project_qkv(xr, p)
    routing = route_regions(q, k, spec, top_k)
    kg, vg = gather_kv(k, v, routing.index)
    att, weights = token_attention(q, kg, vg, p)
    if _RECORD is not None:
        _RECORD.traces.append(AttentionTrace(routing, weights, spec, top_k))
    out = region_merge(att, spec)
    return out + local_context(region_merge(v, spec), p)


# ---------------------------------------------------------------------------
# oracle and cost model


def full_attention_reference(x: np.ndarray, p: RoutingAttentionParams) -> np.ndarray:
    """Dense multi-head attention over all H*W tokens, plain numpy.

    Written without the partition/route/gather path on purpose: it is the
    oracle that routed attention with top_k = S*S must reproduce.
    """
    n, hgt, wid, c = x.shape
    hw = hgt * wid
    h = p.heads
    dh = c // h
    tokens = x.reshape(n, hw, c)

    def proj(w, b):
        y = tokens @ w.data
        return y + b.data if b is not None else y

    q = proj(p.wq, p.bq).reshape(n, hw, h, dh).transpose(0, 2, 1, 3)
    k = proj(p.wk, p.bk).reshape(n, hw, h, dh).transpose(0, 2, 1, 3)
    v = proj(p.wv, p.bv).reshape(n, hw, h, dh).transpose(0, 2, 1, 3)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * p.softmax_scale()
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(attn, v).transpose(0, 2, 1, 3).reshape(n, hw, c)
    out = out @ p.wo.data + p.bo.data
    out = out.reshape(n, hgt, wid, c)

    # local context: depth-wise conv on spatial V, same padding, no bias
    vsp = proj(p.wv, p.bv).reshape(n, hgt, wid, c)
    kk = p.lce.shape[0]
    pad = kk // 2
    vp = np.pad(vsp, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    lce = np.zeros_like(vsp)
    for i in range(kk):
        for j in range(kk):
            lce += vp[:, i:i + hgt, j:j + wid, :] * p.lce.data[i, j, 0, :]
    return out + lce


def attention_flops(hw: int, c: int, s: int, top_k: int) -> dict:
    """Analytic MAC counts for one routed attention at one feature size.

    routing: region means (hw*c) plus the S^2 x S^2 affinity (s^4 * c);
    token: score and apply matmuls, 2 * hw * (top_k * hw / s^2) * c.
    Projections are affine layers and counted by the model-level tally.
    """
    if hw % (s * s):
        raise ValueError(f"hw {hw} not divisible into {s}x{s} regions")
    if not 1 <= top_k <= s * s:
        raise ValueError(f"top_k {top_k} outside [1, {s * s}]")
    routing = s ** 4 * c + hw * c
    token = 2 * hw * (top_k * hw // (s * s)) * c
    return {"routing_macs": routing, "token_macs": token,
            "total_macs": routing + token}


def min_cost_over_s(hw: int, c: int, top_k: int) -> Tuple[int, int]:
    """(best_s, macs) over partition factors dividing the square side."""
    side = int(round(np.sqrt(hw)))
    if side * side != hw:
        raise ValueError(f"hw {hw} is not a square map")
    best = None
    for s in range(1, side + 1):
        if side % s:
            continue
        if top_k > s * s:
            continue
        macs = attention_flops(hw, c, s, top_k)["total_macs"]
        if best is None or macs < best[1]:
            best = (s, macs)
    if best is None:
        raise ValueError(f"no valid partition factor for hw {hw}, top_k {top_k}")
    return best
