"""Tape-based reverse-mode autodiff over numpy arrays.

Tensors are thin immutable wrappers around float32/float64 ndarrays.
A Tensor is either a constant (no tape) or bound to a Tape node. Ops are
pure functions: they compute the forward value eagerly and, when any
input is tape-bound, append one node holding a backward closure. Nodes
are appended in execution order, so node ids are already topologically
sorted and ``backward`` is a single reverse sweep with gradient
accumulation at fan-out points.

The sweep consumes the tape: as it passes each op node it drops the
node's closure, and with it the activations the closure captured, and
the node's gradient, so memory is released in reverse creation order.
Only leaf gradients survive, in the returned ``Grads``. A tape is
therefore single-use; a second ``backward`` on it raises ValueError.

Dtype rule: the tensor operands of one op share one dtype, and ops never
promote; a mix raises ValueError. A python scalar operand of a binary op
takes its partner's dtype.

Each op family shares its plumbing: ``_operands`` checks the dtype rule
and finds the one tape that all operands of a multi-operand op share;
``_binary`` records the broadcasting two-operand ops and sums each
gradient back to its operand's shape (``_unbroadcast``); ``_normalize``
is the affine normalization behind ``layer_norm`` and ``batch_norm``;
``_spread`` broadcasts a reduction's gradient back over the reduced axes.
``dense`` is one op that flattens its leading axes, so its forward and
backward run on 2-D GEMMs; ``matmul`` serves the batched products.
``rearrange`` is the one layout op: a reshape, transpose and reshape as
one node, with ``reshape`` and ``transpose`` as its special cases.
``recompute`` records a whole function of tensors as one node that keeps
only its inputs and runs the function again, on a tape of its own, in
backward.

Layout convention throughout the package: channel-last, row-major,
images as [N, H, W, C].
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class _Node:
    __slots__ = ("op", "parents", "backward")

    def __init__(self, op: str, parents: tuple, backward: Optional[Callable]):
        self.op = op
        self.parents = parents
        self.backward = backward


class Tape:
    """Append-only record of one forward pass, consumed by one ``backward``.

    Single-writer: a tape must only be grown from the thread that owns
    it. Single-use: ``backward`` frees the closures as it sweeps them, so
    a swept tape cannot be swept again. Its node count stays as it was.
    The training loop builds a fresh tape per step, and the tape dies
    with the step.
    """

    __slots__ = ("_nodes", "_swept")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._swept = False

    def __len__(self) -> int:
        return len(self._nodes)

    def _append(self, op: str, parents: tuple, backward: Optional[Callable]) -> int:
        self._nodes.append(_Node(op, parents, backward))
        return len(self._nodes) - 1

    def watch(self, t: "Tensor") -> "Tensor":
        """Register a leaf. Returns a new Tensor sharing the same buffer."""
        if t.tape is not None:
            raise ValueError("tensor is already bound to a tape")
        return Tensor(t.data, tape=self, node=self._append("leaf", (), None))


class Tensor:
    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Optional[Tape] = None, node: Optional[int] = None):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "" if self.tape is None else f", node={self.node}"
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tag})"

    def __add__(self, other):
        return add(self, other)


def _operands(op: str, *ts: Tensor) -> Optional[Tape]:
    """The tape an op's tensor operands share, or None if all are constants.

    Raises ValueError unless every operand has the first one's dtype and
    the bound operands share one tape.
    """
    dtype = ts[0].dtype
    tape = None
    for t in ts:
        if t.dtype != dtype:
            raise ValueError(f"{op}: dtype mismatch {dtype.name} vs {t.dtype.name}")
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands bound to different tapes")
    return tape


def _nonempty(t: Tensor, op: str):
    if t.size == 0:
        raise ValueError(f"{op}: zero-size input of shape {t.shape}")


def _make(out_data, tape: Optional[Tape], op: str, parents: Sequence[Tensor],
          backward: Optional[Callable]) -> Tensor:
    if tape is None:
        return Tensor(out_data)
    ids = tuple(p.node for p in parents)
    return Tensor(out_data, tape=tape, node=tape._append(op, ids, backward))


class Grads:
    """Gradient lookup for the leaves of a swept tape.

    Unused leaves read as zeros. Other tensors raise KeyError: the sweep
    has already freed the gradients of non-leaf nodes.
    """

    def __init__(self, tape: Tape, table: dict):
        self._tape = tape
        self._table = table

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if (t.tape is not self._tape or t.node is None
                or self._tape._nodes[t.node].op != "leaf"):
            raise KeyError("tensor is not a leaf of this tape")
        g = self._table.get(t.node)
        if g is None:
            return np.zeros_like(t.data)
        return g


def backward(loss: Tensor) -> Grads:
    """Reverse sweep from a scalar loss; consumes the loss's tape.

    Visits each node at most once, in reverse creation order, which is a
    valid reverse-topological order because ops append nodes after their
    inputs exist. Each op node's closure and gradient are dropped as it is
    visited, so captured activations and consumed gradients are freed
    during the sweep; leaf gradients are kept for the returned ``Grads``.
    Raises ValueError if the tape has already been swept.
    """
    tape = loss.tape
    if tape is None or loss.node is None:
        raise ValueError("loss is not bound to a tape")
    if loss.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    return Grads(tape, _sweep(tape, loss.node, np.ones((), dtype=loss.dtype)))


def _sweep(tape: Tape, start: int, seed: np.ndarray) -> dict:
    """The reverse sweep behind ``backward``, from node ``start`` seeded with
    gradient ``seed``; returns the table of leaf gradients."""
    if tape._swept:
        raise ValueError("tape was already swept by backward; record a new one")
    tape._swept = True
    nodes = tape._nodes
    table: dict[int, np.ndarray] = {start: seed}
    for nid in range(start, -1, -1):
        node = nodes[nid]
        back = node.backward
        if back is None:
            # a leaf: its gradient stays in the table for Grads
            continue
        node.backward = None
        g = table.pop(nid, None)
        if g is None:
            continue
        parent_grads = back(g)
        for pid, pg in zip(node.parents, parent_grads):
            # pid None marks a constant operand; nothing downstream reads it
            if pid is None or pg is None:
                continue
            acc = table.get(pid)
            table[pid] = pg if acc is None else acc + pg
    return table


def recompute(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """``fn(*inputs)`` as one node whose closure keeps only the inputs' arrays.

    The forward runs ``fn`` on constant copies of the inputs, so the ops
    inside it record nothing and their intermediates die with the call. The
    backward runs ``fn`` again on a fresh tape over watched copies of the
    bound inputs and sweeps that tape from the incoming gradient: memory
    traded for a second forward of ``fn``. ``fn`` must be deterministic and
    must hold no tape-bound Tensor (see conv2d); its second forward then
    repeats the first bit for bit, and the gradients are those of ``fn``
    recorded straight on the tape. One exception: ``fn``'s gradients into an
    input are summed before the gradients from the input's later uses are
    added, so an input that ``fn`` uses more than once and the graph uses
    again after ``fn`` can get other rounding.
    """
    tape = _operands("recompute", *inputs)
    arrays = tuple(t.data for t in inputs)
    out = fn(*(Tensor(a) for a in arrays))
    bound = tuple(t.tape is not None for t in inputs)

    def back(g):
        sub = Tape()
        xs = [sub.watch(Tensor(a)) if b else Tensor(a) for a, b in zip(arrays, bound)]
        table = _sweep(sub, fn(*xs).node, g)
        return tuple(table.get(x.node) for x in xs)

    return _make(out.data, tape, "recompute", inputs, back)


# ---------------------------------------------------------------------------
# elementwise ops


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape the operand actually had."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(op: str, a, b, rule: Callable) -> Tensor:
    """One broadcasting two-operand op.

    ``rule(ad, bd)`` returns the forward value and a function from the
    output gradient to the two operand gradients at the broadcast shape;
    each is then summed back to its operand's shape. A python scalar
    operand becomes a constant of the other operand's dtype.
    """
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    tape = _operands(op, a, b)
    out, grads = rule(a.data, b.data)
    ash, bsh = a.shape, b.shape

    def back(g):
        ga, gb = grads(g)
        return _unbroadcast(ga, ash), _unbroadcast(gb, bsh)

    return _make(out, tape, op, (a, b), back)


def add(a, b) -> Tensor:
    return _binary("add", a, b, lambda ad, bd: (ad + bd, lambda g: (g, g)))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, lambda ad, bd: (ad - bd, lambda g: (g, -g)))


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, lambda ad, bd: (ad * bd, lambda g: (g * bd, g * ad)))


def div(a, b) -> Tensor:
    return _binary("div", a, b, lambda ad, bd: (
        ad / bd, lambda g: (g / bd, -g * ad / (bd * bd))))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, a.tape, "neg", (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, a.tape, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _make(np.log(ad), a.tape, "log", (a,), lambda g: (g / ad,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, a.tape, "sqrt", (a,), lambda g: (g / (2.0 * out),))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp. Pass-through gradient strictly inside [lo, hi], zero outside."""
    ad = a.data
    out = np.clip(ad, lo, hi)
    inside = (ad > lo) & (ad < hi)

    def back(g):
        return (g * inside,)

    return _make(out, a.tape, "clip", (a,), back)


def relu(a: Tensor) -> Tensor:
    # a bool mask, a quarter of a float32 one; as a factor it is exactly 0 or 1
    ad = a.data
    mask = ad > 0
    return _make(ad * mask, a.tape, "relu", (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    ad = a.data
    # e = exp(-|x|) never overflows; 1/(1+e) for x >= 0, e/(1+e) below.
    # min(x, -x) rather than -abs(x) keeps the sign of a NaN input
    e = np.exp(np.minimum(ad, -ad))
    out = np.where(ad >= 0, 1 / (1 + e), e / (1 + e))

    def back(g):
        return (g * out * (1.0 - out),)

    return _make(out, a.tape, "sigmoid", (a,), back)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c (x + 0.044715 x^3)) in one buffer of x's size, filled in place."""
    th = np.multiply(x, x, out=np.empty_like(x))  # an array even when x is 0-d
    th *= x
    th *= 0.044715
    th += x
    th *= _GELU_C
    return np.tanh(th, out=th)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gelu: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    th = tanh(c (x + 0.044715 x^3)) is computed in place in one buffer; each
    step is the same IEEE operation, in the same order, as the textbook
    expression, so the bits are those of that expression. Only x is kept
    for the backward pass, which computes th again by the same steps.
    """
    x = a.data
    out = 0.5 * x
    out *= 1.0 + _gelu_tanh(x)

    def back(g):
        th = _gelu_tanh(x)
        du = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        d = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du
        return (g * d,)

    return _make(out, a.tape, "gelu", (a,), back)


# ---------------------------------------------------------------------------
# shape ops


def rearrange(a: Tensor, split, perm, merge) -> Tensor:
    """``a.reshape(split).transpose(perm).reshape(merge)`` as one node, a
    view when ``merge`` is the permuted ``split``. Backward: the inverse."""
    t = a.data.reshape(split).transpose(perm)
    ash, mid, inv = a.shape, t.shape, sorted(range(t.ndim), key=perm.__getitem__)
    return _make(t.reshape(merge), a.tape, "rearrange", (a,),
                 lambda g: (g.reshape(mid).transpose(inv).reshape(ash),))


def reshape(a: Tensor, shape) -> Tensor:
    return rearrange(a, tuple(shape), range(len(shape)), shape)


def transpose(a: Tensor, perm) -> Tensor:
    return rearrange(a, a.shape, perm, tuple(a.shape[i] for i in perm))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    tape = _operands("concat", *parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tape, "concat", parts, back)


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient broadcast back over the reduced axes."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    ash = a.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        return (_spread(g, ash, axis, keepdims).astype(g.dtype, copy=True),)

    return _make(out, a.tape, "sum", (a,), back)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    ash = a.shape
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size // max(np.size(out), 1)

    def back(g):
        return ((_spread(g, ash, axis, keepdims) / count).astype(g.dtype),)

    return _make(out, a.tape, "mean", (a,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting on leading dims."""
    _nonempty(a, "matmul")
    _nonempty(b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: bad ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return _binary("matmul", a, b, lambda ad, bd: (np.matmul(ad, bd), lambda g: (
        np.matmul(g, np.swapaxes(bd, -1, -2)), np.matmul(np.swapaxes(ad, -1, -2), g))))


def dense(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Token-wise affine x [..., C] @ w [C, Cout] (+ b [Cout]) as one op whose
    forward and backward products are 2-D GEMMs over the flattened tokens."""
    _nonempty(x, "dense")
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise ValueError(f"dense: want x[..., C] @ w[C, Cout], got {x.shape} @ {w.shape}")
    cout = w.shape[1]
    with_bias = b is not None  # a flag, not b, for back(): see conv2d
    if with_bias and b.shape != (cout,):
        raise ValueError(f"dense: bias {b.shape} does not match {cout} output channels")
    parents = (x, w, b) if with_bias else (x, w)
    tape = _operands("dense", *parents)
    xsh, wd = x.shape, w.data
    x2 = x.data.reshape(-1, xsh[-1])
    out = x2 @ wd
    if with_bias:
        out += b.data

    def back(g):
        g2 = g.reshape(-1, cout)
        gx = (g2 @ wd.T).reshape(xsh)
        return (gx, x2.T @ g2, g2.sum(0)) if with_bias else (gx, x2.T @ g2)

    return _make(out.reshape(xsh[:-1] + (cout,)), tape, "dense", parents, back)


def softmax_lastdim(a: Tensor, scale: float = 1.0) -> Tensor:
    """softmax(scale * a) along the last axis, max-shifted for stability.

    One buffer of a's size is allocated, scale * a, and the shift, exp and
    normalization run in place in it: the same operations in the same order
    as the out-of-place form, so the same bits.
    """
    if scale <= 0:
        raise ValueError(f"softmax scale must be positive, got {scale}")
    _nonempty(a, "softmax")
    s = a.data * scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (scale * s * (g - inner),)

    return _make(s, a.tape, "softmax", (a,), back)


# ---------------------------------------------------------------------------
# structured ops


def gather_regions(src: Tensor, index: np.ndarray) -> Tensor:
    """Select whole regions by integer index.

    src   [N, R, T, C]
    index [N, R, k] of region ids in [0, R)
    out   [N, R, k, T, C]

    The index is data, not a differentiable input; the backward pass sums
    the copies into their sources by a 0/1 selection GEMM, sel[n, src, q*k+j].
    """
    if src.ndim != 4:
        raise ValueError(f"gather_regions: want [N,R,T,C], got {src.shape}")
    n, r, _, _ = src.shape
    if index.shape[0] != n or index.shape[1] != r or index.ndim != 3:
        raise ValueError(
            f"gather_regions: index {index.shape} does not match source {src.shape}")
    if index.min() < 0 or index.max() >= r:
        raise ValueError("gather_regions: region id out of range")
    rows = np.arange(n)[:, None, None]
    out = src.data[rows, index]
    shape, rk = src.shape, r * index.shape[2]

    def back(g):
        sel = np.zeros((n, r, rk), dtype=g.dtype)
        sel[rows, index, np.arange(rk).reshape(index.shape[1:])] = 1
        return ((sel @ g.reshape(n, rk, -1)).reshape(shape),)

    return _make(out, src.tape, "gather_regions", (src,), back)


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2d convolution, channel-last, of the two kinds the network uses.

    x [N, H, W, C], optional b [Cout]. The weight's shape picks the kind:
    dense w [kh, kw, C, Cout] mixes all input channels into each output;
    depth-wise w [kh, kw, 1, C] with C > 1 filters channel c with
    w[:, :, 0, c] alone, so Cout = C. Any other weight shape is an error.
    Output extent floor((H + 2*padding - kh)/stride) + 1, with x read as
    zero outside its borders.

    Both kinds loop over the kh*kw kernel taps, forward and backward, with
    no padded copy of x. Tap (i, j) reads input row o*stride + i - padding
    for output row o (columns alike), so it runs only on the output window
    whose input lies inside x, and a tap whose window is empty is skipped:
    no product with a padding zero is formed. On that window the tap adds
    the strided slice of x times w[i, j, 0] (depth-wise) or its GEMM with
    w[i, j] (dense), in the order a padded loop adds them, so the output
    has a padded loop's bits wherever BLAS rounds a GEMM row the same at
    any row count. Every conv shape of micro64 at batch 8 and of base at
    batch 1 does; a one-row window (a 7x7 corner tap on a 4x4 map at
    batch 1) goes down a matrix-vector path that can round differently.
    There is no im2col buffer of kh*kw input copies (118 MB in float32 for
    the 7x7 fusion conv at [1, 56, 56, 192]).
    """
    _nonempty(x, "conv2d")
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d: want x[N,H,W,C] and w[kh,kw,c,o], got {x.shape}, {w.shape}")
    n, h, ww_, cin = x.shape
    kh, kw, wcin, cout = w.shape
    depthwise = wcin != cin
    if depthwise and (wcin != 1 or cout != cin):
        raise ValueError(f"conv2d: weight {w.shape} is neither dense nor depth-wise "
                         f"over the {cin} channels of input {x.shape}")
    if h + 2 * padding < kh or ww_ + 2 * padding < kw:
        raise ValueError(f"conv2d: kernel {kh}x{kw} exceeds padded input {h}x{ww_}+{padding}")
    # a flag, not b itself, for back(): a closure holding a tape-bound Tensor
    # would make the tape a reference cycle that only the cyclic collector frees
    with_bias = b is not None
    if with_bias and b.shape != (cout,):
        raise ValueError(f"conv2d: bias {b.shape} does not match {cout} output channels")
    parents = (x, w, b) if with_bias else (x, w)
    tape = _operands("conv2d", *parents)

    xd = x.data
    ho, wo = (h + 2 * padding - kh) // stride + 1, (ww_ + 2 * padding - kw) // stride + 1

    def windows(size, n_out, k_size):
        # per kernel offset k: the outputs o in [lo, hi) whose input
        # o*stride + k - padding lies in [0, size), and that input slice;
        # None when no output reaches the input
        spans = []
        for k in range(k_size):
            lo = max(0, -((k - padding) // stride))
            hi = min(n_out, (size - 1 + padding - k) // stride + 1)
            first = lo * stride + k - padding
            spans.append((slice(lo, hi), slice(first, first + (hi - lo - 1) * stride + 1, stride))
                         if lo < hi else None)
        return spans

    # (i, j, output window, input slice) of every tap that reaches x
    rows, cols = windows(h, ho, kh), windows(ww_, wo, kw)
    taps = [(i, j, (slice(None), r[0], c[0]), (slice(None), r[1], c[1]))
            for i, r in enumerate(rows) if r for j, c in enumerate(cols) if c]
    wt = w.data[:, :, 0] if depthwise else w.data  # per tap: [C] scales or [C, Cout]
    out = np.zeros((n, ho, wo, cout), dtype=xd.dtype)
    for i, j, osl, xsl in taps:
        # o is a view, so += on it skips the write-back of out[osl] += ...
        o, xs = out[osl], xd[xsl]
        o += xs * wt[i, j] if depthwise else (xs.reshape(-1, cin) @ wt[i, j]).reshape(o.shape)
    if with_bias:
        out += b.data

    def back(g):
        dx = np.zeros(xd.shape, dtype=g.dtype)
        gw = np.zeros((kh, kw, wcin, cout), dtype=g.dtype)
        for i, j, osl, xsl in taps:
            xs, d = xd[xsl], dx[xsl]
            if depthwise:
                gs = g[osl]
                gw[i, j, 0] = (xs * gs).sum((0, 1, 2))
                d += gs * wt[i, j]
            else:
                g2 = g[osl].reshape(-1, cout)
                gw[i, j] = xs.reshape(-1, cin).T @ g2
                d += (g2 @ wt[i, j].T).reshape(d.shape)
        return (dx, gw, g.reshape(-1, cout).sum(axis=0)) if with_bias else (dx, gw)

    return _make(out, tape, "conv2d", parents, back)


NORM_EPS = 1e-5                  # layer and batch norm variance floor
BN_MOMENTUM = 0.1                # batch-norm running-statistics update rate


def _normalize(op: str, x: Tensor, gamma: Tensor, beta: Tensor, mu, var, axes,
               batch_stats: bool) -> Tensor:
    """(x - mu) / sqrt(var + NORM_EPS) * gamma + beta, per-channel gamma, beta.

    ``mu`` and ``var`` are statistics over ``axes``. With ``batch_stats``
    they were computed from x, and the input gradient flows through them;
    otherwise they are constants.
    """
    tape = _operands(op, x, gamma, beta)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - mu) * inv
    gd = gamma.data
    out = xhat * gd + beta.data

    def back(g):
        channel_sum = tuple(range(g.ndim - 1))
        gbeta = g.sum(axis=channel_sum)
        ggamma = (g * xhat).sum(axis=channel_sum)
        gx_hat = g * gd
        if batch_stats:
            m1 = gx_hat.mean(axis=axes, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=axes, keepdims=True)
            gx = inv * (gx_hat - m1 - xhat * m2)
        else:
            gx = gx_hat * inv
        return gx.astype(g.dtype), ggamma, gbeta

    return _make(out, tape, op, (x, gamma, beta), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last (channel) axis, then affine."""
    _nonempty(x, "layer_norm")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    return _normalize("layer_norm", x, gamma, beta, mu, var, -1, True)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel batch norm over [N, H, W] of a channel-last map.

    ``running_mean``/``running_var`` are plain buffers, updated in place
    when training (new = (1 - BN_MOMENTUM) * old + BN_MOMENTUM * batch stat).
    """
    _nonempty(x, "batch_norm")
    if x.ndim != 4:
        raise ValueError(f"batch_norm: want [N,H,W,C], got {x.shape}")
    xd = x.data
    axes = (0, 1, 2)
    if not training:
        return _normalize("batch_norm", x, gamma, beta, running_mean.astype(xd.dtype),
                          running_var.astype(xd.dtype), axes, False)
    mu = xd.mean(axis=axes)
    var = xd.var(axis=axes)
    # normalize first: it rejects bad operands before the buffers change
    out = _normalize("batch_norm", x, gamma, beta, mu, var, axes, True)
    m = xd.shape[0] * xd.shape[1] * xd.shape[2]
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mu
    # unbiased variance for the running buffer, biased for normalization
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * (var * m / max(m - 1, 1))
    return out
