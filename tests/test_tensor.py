import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routeseg import attention, blocks, fusion
from routeseg import tensor as T
from routeseg.config import load_config
from routeseg.gradcheck import grad_check
from routeseg.model import build_model
from routeseg.tensor import Grads, Tape, Tensor, backward


def leaf(tape, values, dtype=np.float64):
    return tape.watch(Tensor(np.asarray(values, dtype=dtype)))


# ---------------------------------------------------------------------------
# construction and attributes


def test_tensor_casts_ints_to_float64():
    t = Tensor(np.array([1, 2, 3]))
    assert t.dtype == np.float64
    assert t.shape == (3,) and t.ndim == 1 and t.size == 3


def test_scalar_item_and_repr():
    t = Tensor(np.float64(2.5))
    assert t.item() == 2.5
    assert "node" not in repr(t)
    tape = Tape()
    assert "node=0" in repr(tape.watch(t))


def test_watch_rejects_bound_tensor():
    tape = Tape()
    t = leaf(tape, [1.0])
    with pytest.raises(ValueError, match="already bound"):
        tape.watch(t)


# ---------------------------------------------------------------------------
# forward values


def test_arithmetic_forward_and_sugar():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 5.0]))
    np.testing.assert_array_equal((a + b).data, [4.0, 7.0])
    np.testing.assert_array_equal(T.sub(a, b).data, [-2.0, -3.0])
    np.testing.assert_array_equal(T.mul(a, b).data, [3.0, 10.0])
    np.testing.assert_array_equal(T.div(b, a).data, [3.0, 2.5])
    np.testing.assert_array_equal(T.neg(a).data, [-1.0, -2.0])
    np.testing.assert_array_equal(T.mul(2.0, a).data, [2.0, 4.0])
    np.testing.assert_array_equal(T.sub(1.0, a).data, [0.0, -1.0])


def test_elementwise_forward_values():
    x = Tensor(np.array([0.0, 1.0]))
    np.testing.assert_allclose(T.exp(x).data, [1.0, np.e])
    np.testing.assert_allclose(T.sqrt(Tensor(np.array([4.0, 9.0]))).data, [2.0, 3.0])
    np.testing.assert_array_equal(T.relu(Tensor(np.array([-2.0, 0.0, 3.0]))).data,
                                  [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(
        T.clip(Tensor(np.array([-5.0, 0.2, 5.0])), -1.0, 1.0).data,
        [-1.0, 0.2, 1.0])
    assert T.gelu(Tensor(np.zeros(1))).data[0] == 0.0


def test_sigmoid_extremes_stay_finite():
    y = T.sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0]))).data
    assert np.all(np.isfinite(y))
    np.testing.assert_array_equal(y, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_keeps_the_bits_of_the_sign_split(dtype):
    def split(x):               # the earlier boolean-indexed formula
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(17)
    special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e4, -1e4]
    x = np.concatenate([rng.standard_normal(4096) * 12, special]).astype(dtype)
    y = T.sigmoid(Tensor(x)).data
    assert y.dtype == dtype
    assert y.tobytes() == split(x).tobytes()


def test_gelu_and_its_gradient_match_the_closed_form():
    mags = np.array([0.0, 1e-3, 0.5, 3.0, 10.0, 1e3])
    x = np.concatenate([mags, -mags])
    c = np.sqrt(2.0 / np.pi)
    th = np.tanh(c * (x + 0.044715 * x ** 3))
    want = 0.5 * x * (1.0 + th)
    dwant = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * c * (1.0 + 3 * 0.044715 * x ** 2)
    tape = Tape()
    a = leaf(tape, x)
    y = T.gelu(a)
    grads = backward(T.sum_(y))
    np.testing.assert_allclose(y.data, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[a], dwant, rtol=1e-12, atol=1e-12)


def test_softmax_extreme_logits_no_overflow():
    y = T.softmax_lastdim(Tensor(np.array([1000.0, 0.0]))).data
    np.testing.assert_array_equal(y, [1.0, 0.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = T.softmax_lastdim(Tensor(rng.standard_normal((4, 7))), scale=0.3).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(4), atol=1e-12)
    assert np.all(y > 0)


def test_matmul_broadcasts_leading_dims():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b)


def test_dense_is_affine():
    rng = np.random.default_rng(2)
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    out = T.dense(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, x @ w + b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=5), st.integers(1, 4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_dense_matches_batched_matmul_forward_and_gradients(xshape, cout, bias, seed):
    """x of rank 2-5 against np.matmul(x, w) + b and the batched adjoints of
    sum(dense(x, w, b) * r); dense itself flattens the tokens instead."""
    rng = np.random.default_rng(seed)
    x, w = rng.standard_normal(xshape), rng.standard_normal((xshape[-1], cout))
    b = rng.standard_normal(cout) if bias else np.zeros(cout)
    ref = np.matmul(x, w) + b
    r = rng.standard_normal(ref.shape)
    tape = Tape()
    tx, tw = leaf(tape, x), leaf(tape, w)
    tb = leaf(tape, b) if bias else None
    y = T.dense(tx, tw, tb)
    np.testing.assert_allclose(y.data, ref, rtol=1e-12, atol=1e-12)
    grads = backward(T.sum_(T.mul(y, Tensor(r))))
    expect = [(tx, np.matmul(r, w.T)),
              (tw, np.matmul(np.swapaxes(x, -1, -2), r).reshape((-1,) + w.shape).sum(0))]
    if bias:
        expect.append((tb, r.reshape(-1, cout).sum(0)))
    for t, want in expect:
        assert grads[t].shape == t.shape
        np.testing.assert_allclose(grads[t], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bias", [False, True])
def test_dense_central_differences(bias):
    """The 4-D call the blocks make, by the gradcheck suite's method. It is not
    a suite entry: the acceptance contract pins the suite at 32 entries."""
    rng = np.random.default_rng(11)
    params = {"x": rng.standard_normal((2, 3, 3, 4)), "w": rng.standard_normal((4, 5))}
    if bias:
        params["b"] = rng.standard_normal(5)
    r = Tensor(rng.standard_normal((2, 3, 3, 5)))
    # linear in each argument, so a unit step has no truncation error
    report = grad_check(lambda p: T.sum_(T.mul(T.dense(p["x"], p["w"], p.get("b")), r)),
                        params, step=1.0, tol=1e-6)
    assert report.passed, report.summary()


@pytest.mark.parametrize("bias", [False, True])
def test_dense_records_one_tape_node(bias):
    tape = Tape()
    operands = [leaf(tape, np.ones((2, 3, 4))), leaf(tape, np.ones((4, 5)))]
    if bias:
        operands.append(leaf(tape, np.ones(5)))
    before = len(tape)
    T.dense(*operands)
    assert len(tape) == before + 1


def test_dense_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    for wshape in [(4,), (4, 5, 1), (3, 5)]:     # rank 1, rank 3, inner dims differ
        with pytest.raises(ValueError, match="w\\[C, Cout\\]"):
            T.dense(x, Tensor(np.zeros(wshape)))
    for bshape in [(1,), (6,)]:
        with pytest.raises(ValueError, match="bias"):
            T.dense(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(bshape)))


# ---------------------------------------------------------------------------
# backward: hand-checked gradients


def test_backward_square():
    tape = Tape()
    a = leaf(tape, [1.0, -2.0, 3.0])
    grads = backward(T.sum_(T.mul(a, a)))
    np.testing.assert_array_equal(grads[a], [2.0, -4.0, 6.0])


def test_backward_accumulates_at_fanout():
    tape = Tape()
    a = leaf(tape, [1.5, 2.5])
    grads = backward(T.sum_(T.add(a, a)))
    np.testing.assert_array_equal(grads[a], [2.0, 2.0])


def test_backward_unbroadcasts():
    tape = Tape()
    a = leaf(tape, np.zeros((3, 4)))
    b = leaf(tape, np.zeros(4))
    grads = backward(T.sum_(T.add(a, b)))
    np.testing.assert_array_equal(grads[a], np.ones((3, 4)))
    np.testing.assert_array_equal(grads[b], np.full(4, 3.0))


def test_backward_div():
    tape = Tape()
    a = leaf(tape, [6.0])
    b = leaf(tape, [2.0])
    grads = backward(T.sum_(T.div(a, b)))
    np.testing.assert_allclose(grads[a], [0.5])
    np.testing.assert_allclose(grads[b], [-1.5])


def sum_to_shape(full_grad, shape):
    """Add each entry of a full-shape gradient into the operand entry it was
    broadcast from: a reference for the adjoint of broadcasting."""
    size = int(np.prod(shape))
    src = np.broadcast_to(np.arange(size).reshape(shape), full_grad.shape)
    return np.bincount(src.ravel(), weights=full_grad.ravel(), minlength=size).reshape(shape)


# numpy forward, and the gradients of sum(op(a, b) * r) with respect to a
# and b broadcast to the output's batch shape
BROADCAST_OPS = {
    "add": (np.add, lambda a, b, r: (r, r)),
    "sub": (np.subtract, lambda a, b, r: (r, -r)),
    "mul": (np.multiply, lambda a, b, r: (r * b, r * a)),
    "div": (np.divide, lambda a, b, r: (r / b, -r * a / (b * b))),
    "matmul": (np.matmul, lambda a, b, r: (r @ np.swapaxes(b, -1, -2),
                                           np.swapaxes(a, -1, -2) @ r)),
}


@st.composite
def broadcast_cases(draw):
    """Two operand shapes that broadcast together.

    Each keeps a suffix of one common shape, so either side may lack
    leading axes or be rank 0, and sets any of its axes to 1. For matmul
    that is the batch shape, and the [m, k] and [k, n] matrices follow.
    """
    op = draw(st.sampled_from(sorted(BROADCAST_OPS)))
    common = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))

    def operand():
        kept = common[draw(st.integers(0, len(common))):]
        return tuple(1 if draw(st.booleans()) else n for n in kept)

    ashape, bshape = operand(), operand()
    if op == "matmul":
        m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
        ashape, bshape = ashape + (m, k), bshape + (k, n)
    return op, ashape, bshape, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(broadcast_cases())
def test_broadcasting_ops_match_numpy_and_sum_gradients_over_broadcast_axes(case):
    op, ashape, bshape, seed = case
    forward, full_grads = BROADCAST_OPS[op]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(ashape)
    b = rng.uniform(0.5, 2.0, bshape) * rng.choice([-1.0, 1.0], bshape)  # divisors
    out = forward(a, b)
    r = rng.standard_normal(out.shape)
    tape = Tape()
    ta, tb = leaf(tape, a), leaf(tape, b)
    y = getattr(T, op)(ta, tb)
    np.testing.assert_array_equal(y.data, out)
    grads = backward(T.sum_(T.mul(y, Tensor(r))))

    core = 2 if op == "matmul" else 0
    batch = out.shape[:out.ndim - core]
    ga, gb = full_grads(np.broadcast_to(a, batch + ashape[len(ashape) - core:]),
                        np.broadcast_to(b, batch + bshape[len(bshape) - core:]), r)
    for t, arr, full in ((ta, a, ga), (tb, b, gb)):
        assert grads[t].shape == arr.shape
        np.testing.assert_allclose(grads[t], sum_to_shape(full, arr.shape),
                                   rtol=1e-12, atol=1e-12)


def test_backward_through_shape_ops():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((2, 3))
    tape = Tape()
    a = leaf(tape, rng.standard_normal((3, 2)))
    y = T.mul(T.transpose(T.reshape(a, (2, 3)), (0, 1)), Tensor(c))
    grads = backward(T.sum_(y))
    np.testing.assert_array_equal(grads[a], c.reshape(3, 2))


def group_axes(draw, dims):
    """``dims`` with runs of neighbouring axes merged at drawn cut points."""
    cuts = sorted(draw(st.sets(st.integers(1, len(dims) - 1)))) if len(dims) > 1 else []
    bounds = [0, *cuts, len(dims)]
    return tuple(math.prod(dims[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


@st.composite
def rearrange_cases(draw):
    split = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    perm = tuple(draw(st.permutations(range(len(split)))))
    merge = group_axes(draw, tuple(split[i] for i in perm))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(group_axes(draw, split)), split, perm, merge


@settings(max_examples=80, deadline=None)
@given(rearrange_cases())
def test_rearrange_inverts_bit_exactly_and_matches_central_differences(case):
    x, split, perm, merge = case
    y = T.rearrange(Tensor(x), split, perm, merge)
    want = x.reshape(split).transpose(perm).reshape(merge)
    assert y.shape == want.shape and y.data.tobytes() == want.tobytes()
    mid = tuple(split[i] for i in perm)
    if merge == mid:                        # the permuted split: a view
        assert np.shares_memory(y.data, x)
    back = T.rearrange(y, mid, np.argsort(perm), x.shape)
    assert back.shape == x.shape and back.data.tobytes() == x.tobytes()
    r = np.random.default_rng(1).standard_normal(merge)
    # linear in x, so a unit step has no truncation error
    report = grad_check(
        lambda p: T.sum_(T.mul(T.rearrange(p["x"], split, perm, merge), Tensor(r))),
        {"x": x}, step=1.0, tol=1e-6, max_coords_per_param=16)
    assert report.passed, report.summary()


@st.composite
def layout_cases(draw):
    """An array that is often not contiguous, a shape of the same size
    (its axes cut into factors, then neighbours merged) and an axis order."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(dims).transpose(draw(st.permutations(range(len(dims)))))
    factors = []
    for d in x.shape:
        a = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]))
        factors += [a, d // a]
    perm = tuple(draw(st.permutations(range(x.ndim))))
    return x, group_axes(draw, tuple(factors)), perm


@settings(max_examples=120, deadline=None)
@given(layout_cases())
def test_reshape_and_transpose_equal_numpy_and_are_views_where_numpy_is(case):
    x, shape, perm = case
    for got, want in ((T.reshape(Tensor(x), shape), x.reshape(shape)),
                      (T.transpose(Tensor(x), perm), x.transpose(perm))):
        assert got.shape == want.shape and got.data.tobytes() == want.tobytes()
        assert np.shares_memory(got.data, x) == np.shares_memory(want, x)


def test_backward_concat_splits():
    tape = Tape()
    a = leaf(tape, np.zeros((2, 2)))
    b = leaf(tape, np.zeros((2, 3)))
    w = np.arange(10.0).reshape(2, 5)
    grads = backward(T.sum_(T.mul(T.concat([a, b], axis=1), Tensor(w))))
    np.testing.assert_array_equal(grads[a], w[:, :2])
    np.testing.assert_array_equal(grads[b], w[:, 2:])


def test_backward_mean_scales_by_count():
    tape = Tape()
    a = leaf(tape, np.zeros((2, 4)))
    grads = backward(T.mean_(a))
    np.testing.assert_array_equal(grads[a], np.full((2, 4), 1.0 / 8.0))


def segment(x, w, b):
    # a product, a nonlinearity and a fan-out of x inside the segment
    return T.mul(T.softmax_lastdim(T.gelu(T.dense(x, w, b))), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("constant_bias", [False, True])
def test_recompute_equals_the_segment_recorded_straight(dtype, constant_bias):
    # x is an op output that the segment uses twice, w a parameter that the
    # graph also uses after the segment, b a parameter or a constant that no
    # gradient reaches
    rng = np.random.default_rng(60)
    xv, wv, bv, gv = (rng.standard_normal(shape).astype(dtype)
                      for shape in [(2, 3, 4), (4, 4), (4,), (2, 3, 4)])

    def run(through_recompute):
        tape = Tape()
        x0, w = tape.watch(Tensor(xv)), tape.watch(Tensor(wv))
        b = Tensor(bv) if constant_bias else tape.watch(Tensor(bv))
        x = T.sigmoid(x0)
        y = T.recompute(segment, x, w, b) if through_recompute else segment(x, w, b)
        grads = backward(T.sum_(T.mul(T.add(y, T.dense(x0, w)), Tensor(gv))))
        leaves = (x0, w) if constant_bias else (x0, w, b)
        return y.data, [grads[t] for t in leaves], len(tape)

    y, grads, nodes = run(True)
    y_straight, grads_straight, nodes_straight = run(False)
    assert y.dtype == dtype
    assert np.array_equal(y, y_straight)
    for g, g_straight in zip(grads, grads_straight):
        assert g.dtype == dtype and np.array_equal(g, g_straight)
    # the segment's 4 ops are one node
    assert nodes == nodes_straight - 3


def test_recompute_without_a_tape_is_the_plain_forward():
    rng = np.random.default_rng(61)
    x, w, b = (Tensor(rng.standard_normal(shape)) for shape in [(2, 3, 4), (4, 4), (4,)])
    y = T.recompute(segment, x, w, b)
    assert y.tape is None
    assert np.array_equal(y.data, segment(x, w, b).data)


def test_clip_gradient_zero_at_and_outside_bounds():
    tape = Tape()
    a = leaf(tape, [-2.0, -1.0, 0.0, 1.0, 2.0])
    grads = backward(T.sum_(T.clip(a, -1.0, 1.0)))
    np.testing.assert_array_equal(grads[a], [0.0, 0.0, 1.0, 0.0, 0.0])


def test_relu_gradient_zero_at_kink():
    tape = Tape()
    a = leaf(tape, [0.0, 2.0])
    grads = backward(T.sum_(T.relu(a)))
    np.testing.assert_array_equal(grads[a], [0.0, 1.0])


def test_unused_leaf_reads_zero_gradient():
    tape = Tape()
    a = leaf(tape, [1.0, 1.0])
    b = leaf(tape, [5.0])
    grads = backward(T.sum_(a))
    np.testing.assert_array_equal(grads[b], [0.0])


def test_constants_of_unequal_shapes_coexist_in_one_graph():
    # unwatched operands share node id None; backward must not try to
    # accumulate their (differently shaped) gradients
    tape = Tape()
    a = leaf(tape, np.ones((3, 4)))
    y = T.mul(a, Tensor(np.full((3, 4), 2.0)))
    y = T.add(y, Tensor(np.arange(4.0)))
    grads = backward(T.sum_(y))
    np.testing.assert_array_equal(grads[a], np.full((3, 4), 2.0))


def test_grads_rejects_foreign_tensor():
    tape = Tape()
    a = leaf(tape, [1.0])
    grads = backward(T.sum_(a))
    with pytest.raises(KeyError):
        grads[Tensor(np.zeros(1))]
    with pytest.raises(KeyError):
        grads[Tape().watch(Tensor(np.zeros(1)))]


def test_backward_frees_the_tape_as_it_sweeps():
    # 20 muls on a 2 MiB leaf: the tape holds ~42 MiB of captured operands.
    # Kept until the sweep ends, they and the gradients would add tens of MiB;
    # freed in reverse order, the sweep needs only a few gradients at a time.
    tracemalloc.start()
    try:
        tape = Tape()
        a = leaf(tape, np.ones(2 ** 18))
        y = a
        for _ in range(20):
            y = T.mul(y, 1.0001)
        loss = T.sum_(y)
        del y
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = backward(loss)
        rise = tracemalloc.get_traced_memory()[1] - after_forward
    finally:
        tracemalloc.stop()
    assert rise <= 8 * 2 ** 20, f"sweep peaked {rise / 2 ** 20:.1f} MiB above the forward"
    np.testing.assert_allclose(grads[a], np.full(2 ** 18, 1.0001 ** 20))
    assert len(tape) == 22                  # the node list keeps its length


def test_second_backward_on_a_swept_tape_raises():
    tape = Tape()
    a = leaf(tape, [1.0, 2.0])
    loss = T.sum_(T.mul(a, a))
    backward(loss)
    with pytest.raises(ValueError, match="already swept"):
        backward(loss)
    with pytest.raises(ValueError, match="already swept"):
        backward(T.sum_(a))


def test_grads_rejects_non_leaf():
    tape = Tape()
    a = leaf(tape, [1.0, 2.0])
    y = T.mul(a, a)
    grads = backward(T.sum_(y))
    with pytest.raises(KeyError, match="not a leaf"):
        grads[y]
    np.testing.assert_array_equal(grads[a], [2.0, 4.0])


# ---------------------------------------------------------------------------
# error contracts


def test_backward_requires_scalar_bound_loss():
    tape = Tape()
    a = leaf(tape, [1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        backward(a)
    with pytest.raises(ValueError, match="not bound"):
        backward(Tensor(np.float64(1.0)))


def f32(*shape):
    return Tensor(np.ones(shape, dtype=np.float32))


def f64(*shape):
    return Tensor(np.ones(shape, dtype=np.float64))


def batch_norm_with(gamma, beta):
    return T.batch_norm(f32(1, 2, 2, 3), gamma, beta, np.zeros(3), np.ones(3), training=True)


# one float64 operand among float32 ones, for every op with several operands
MIXED_DTYPE_CALLS = {
    "add": lambda: T.add(f32(2), f64(2)),
    "sub": lambda: T.sub(f32(2), f64(2)),
    "mul": lambda: T.mul(f32(2), f64(2)),
    "div": lambda: T.div(f32(2), f64(2)),
    "matmul": lambda: T.matmul(f32(2, 3), f64(3, 2)),
    "dense": lambda: T.dense(f32(2, 3), f32(3, 2), f64(2)),
    "concat": lambda: T.concat([f32(2), f32(2), f64(2)], axis=0),
    "conv2d-weight": lambda: T.conv2d(f32(1, 4, 4, 2), f64(3, 3, 2, 2), padding=1),
    "conv2d-bias": lambda: T.conv2d(f32(1, 4, 4, 2), f32(3, 3, 2, 2), f64(2), padding=1),
    "layer_norm-gamma": lambda: T.layer_norm(f32(2, 3), f64(3), f32(3)),
    "layer_norm-beta": lambda: T.layer_norm(f32(2, 3), f32(3), f64(3)),
    "batch_norm-gamma": lambda: batch_norm_with(f64(3), f32(3)),
    "batch_norm-beta": lambda: batch_norm_with(f32(3), f64(3)),
}


@pytest.mark.parametrize("call", sorted(MIXED_DTYPE_CALLS))
def test_mixed_dtypes_rejected(call):
    with pytest.raises(ValueError, match="dtype mismatch float32 vs float64"):
        MIXED_DTYPE_CALLS[call]()


def test_batch_norm_rejects_operands_before_updating_running_stats():
    rm, rv = np.zeros(3), np.ones(3)
    with pytest.raises(ValueError, match="dtype mismatch"):
        T.batch_norm(f32(1, 2, 2, 3), f32(3), f64(3), rm, rv, training=True)
    np.testing.assert_array_equal(rm, np.zeros(3))
    np.testing.assert_array_equal(rv, np.ones(3))


def test_mixed_tapes_rejected():
    a = Tape().watch(Tensor(np.zeros(2)))
    b = Tape().watch(Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="different tapes"):
        T.add(a, b)


def test_matmul_shape_errors():
    with pytest.raises(ValueError, match="ranks"):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="inner dims"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError, match="zero-size"):
        T.matmul(Tensor(np.zeros((0, 3))), Tensor(np.zeros((3, 2))))


def test_softmax_rejects_bad_scale():
    with pytest.raises(ValueError, match="positive"):
        T.softmax_lastdim(Tensor(np.zeros(3)), scale=0.0)


# ---------------------------------------------------------------------------
# conv2d against a naive loop


def naive_conv(x, w, b, stride, padding, groups):
    n, h, ww, cin = x.shape
    kh, kw, cpg, cout = w.shape
    opg = cout // groups
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((n, ho, wo, cout))
    for nn in range(n):
        for i in range(ho):
            for j in range(wo):
                for o in range(cout):
                    g = o // opg
                    acc = 0.0
                    for di in range(kh):
                        for dj in range(kw):
                            for c in range(cpg):
                                acc += xp[nn, i * stride + di, j * stride + dj,
                                          g * cpg + c] * w[di, dj, c, o]
                    out[nn, i, j, o] = acc + (b[o] if b is not None else 0.0)
    return out


def test_conv2d_matches_loop():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 5, 5, 3))
    w = rng.standard_normal((3, 3, 3, 4))
    b = rng.standard_normal(4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
    np.testing.assert_allclose(out.data, naive_conv(x, w, b, 2, 1, 1), atol=1e-12)


@pytest.mark.parametrize("k,padding", [(3, 1), (5, 2)])
def test_depthwise_conv2d_with_bias_matches_loop(k, padding):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 6, 6, 4))
    w = rng.standard_normal((k, k, 1, 4))
    b = rng.standard_normal(4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=padding)
    np.testing.assert_allclose(out.data, naive_conv(x, w, b, 1, padding, 4), atol=1e-12)


def test_depthwise_conv_equals_per_channel_convs():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 6, 6, 3))
    w = rng.standard_normal((3, 3, 1, 3))
    full = T.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1).data
    for c in range(3):
        single = T.conv2d(Tensor(x[..., c:c + 1]), Tensor(w[..., c:c + 1]),
                          None, stride=1, padding=1).data
        np.testing.assert_allclose(full[..., c], single[..., 0], atol=1e-12)


def check_conv_against_loop_and_differences(x, w, b, stride, padding, max_coords=None):
    """Forward against naive_conv; x, w, b gradients against central differences."""
    groups = 1 if w.shape[2] == x.shape[3] else x.shape[3]
    out = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                   stride=stride, padding=padding)
    np.testing.assert_allclose(out.data, naive_conv(x, w, b, stride, padding, groups),
                               rtol=1e-12, atol=1e-12)
    # a fixed random projection, so no gradient cancels in a plain sum
    r = np.random.default_rng(0).standard_normal(out.shape)
    params = {"x": x, "w": w} if b is None else {"x": x, "w": w, "b": b}
    # the loss is linear in each argument, so a unit step has no truncation
    # error and the least rounding error (max 2e-11 relative over 400 cases)
    report = grad_check(
        lambda p: T.sum_(T.mul(T.conv2d(p["x"], p["w"], p.get("b"), stride=stride,
                                        padding=padding), Tensor(r))),
        params, step=1.0, tol=1e-6, max_coords_per_param=max_coords)
    assert report.passed, report.summary()


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3, 5, 7]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, k // 2))
    lo = max(1, k - 2 * padding)
    h, w_ = draw(st.integers(lo, lo + 5)), draw(st.integers(lo, lo + 5))
    n = draw(st.sampled_from([1, 2]))
    depthwise = draw(st.booleans())
    cin = draw(st.integers(2, 4) if depthwise else st.integers(1, 3))
    wshape = (k, k, 1, cin) if depthwise else (k, k, cin, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal(wshape[3]) if draw(st.booleans()) else None
    return (rng.standard_normal((n, h, w_, cin)), rng.standard_normal(wshape), b,
            stride, padding)


@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_conv2d_property_matches_loop_and_central_differences(case):
    check_conv_against_loop_and_differences(*case, max_coords=12)


@pytest.mark.parametrize("xshape,wshape,padding", [
    ((1, 7, 6, 3), (7, 7, 3, 2), 3),   # dense 7x7, the fusion conv's geometry
    ((2, 6, 5, 3), (5, 5, 1, 3), 2),   # depth-wise 5x5, the LCE's geometry, N = 2
])
def test_conv2d_fusion_and_lce_shapes_match_loop_and_differences(xshape, wshape, padding):
    rng = np.random.default_rng(8)
    b = rng.standard_normal(wshape[3])
    check_conv_against_loop_and_differences(rng.standard_normal(xshape),
                                            rng.standard_normal(wshape), b, 1, padding)


def padded_tap_conv(x, w, b, stride, padding):
    """conv2d by an explicit zero pad and a loop over every kernel tap, in
    float64: the output and a function from an output gradient to the x, w
    and b gradients."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    n, h, ww, cin = x.shape
    kh, kw, _, cout = w.shape
    depthwise = w.shape[2] != cin
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    taps = [(i, j, np.s_[:, i:i + (ho - 1) * stride + 1:stride,
                         j:j + (wo - 1) * stride + 1:stride])
            for i in range(kh) for j in range(kw)]
    out = np.zeros((n, ho, wo, cout))
    for i, j, sl in taps:
        out += (xp[sl] * w[i, j, 0] if depthwise
                else np.einsum("nhwc,co->nhwo", xp[sl], w[i, j]))
    if b is not None:
        out += b

    def vjp(g):
        g = g.astype(np.float64)
        dxp, gw = np.zeros_like(xp), np.zeros_like(w)
        for i, j, sl in taps:
            if depthwise:
                gw[i, j, 0] = (xp[sl] * g).sum((0, 1, 2))
                dxp[sl] += g * w[i, j, 0]
            else:
                gw[i, j] = np.einsum("nhwc,nhwo->co", xp[sl], g)
                dxp[sl] += np.einsum("nhwo,co->nhwc", g, w[i, j])
        return dxp[:, padding:padding + h, padding:padding + ww], gw, g.sum((0, 1, 2))

    return out, vjp


def check_conv_against_padded_taps(x, w, b, stride, padding):
    """Output and x, w, b gradients of conv2d against ``padded_tap_conv``."""
    tape = Tape()
    params = [tape.watch(Tensor(a)) for a in (x, w) + (() if b is None else (b,))]
    out = T.conv2d(*params[:2], params[2] if b is not None else None,
                   stride=stride, padding=padding)
    g = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
    grads = backward(T.sum_(T.mul(out, Tensor(g))))
    want, vjp = padded_tap_conv(x, w, b, stride, padding)
    tol = 1e-10 if x.dtype == np.float64 else 1e-4
    np.testing.assert_allclose(out.data, want, rtol=tol, atol=tol)
    for name, t, ref in zip("xwb", params, vjp(g)):
        assert grads[t].dtype == x.dtype
        np.testing.assert_allclose(grads[t], ref, rtol=tol, atol=tol, err_msg=name)


@st.composite
def clipped_conv_cases(draw):
    # padding up to k - 1 leaves whole output rows and columns, and whole
    # taps, outside the input; sides down to 1 make maps smaller than k
    k = draw(st.sampled_from([1, 3, 5, 7]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, k - 1))
    lo = max(1, k - 2 * padding)
    h, w_ = draw(st.integers(lo, lo + 5)), draw(st.integers(lo, lo + 5))
    n = draw(st.sampled_from([1, 2]))
    depthwise = draw(st.booleans())
    cin = draw(st.integers(2, 4) if depthwise else st.integers(1, 3))
    wshape = (k, k, 1, cin) if depthwise else (k, k, cin, draw(st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal(wshape[3]).astype(dtype) if draw(st.booleans()) else None
    return (rng.standard_normal((n, h, w_, cin)).astype(dtype),
            rng.standard_normal(wshape).astype(dtype), b, stride, padding)


@settings(max_examples=120, deadline=None)
@given(clipped_conv_cases())
def test_conv2d_property_matches_padded_tap_reference(case):
    check_conv_against_padded_taps(*case)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("side", [2, 4])
@pytest.mark.parametrize("depthwise", [False, True], ids=["dense", "depthwise"])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_7x7_on_maps_smaller_than_the_kernel(dtype, side, depthwise, stride):
    # the fusion gate's 7x7 convs at padding 3 on the 2x2 and 4x4 maps of
    # small configs: on 2x2 the 24 taps that reach no pixel are empty
    rng = np.random.default_rng(side * 10 + stride)
    cin = 3
    wshape = (7, 7, 1, cin) if depthwise else (7, 7, cin, 2)
    x = rng.standard_normal((2, side, side, cin)).astype(dtype)
    check_conv_against_padded_taps(x, rng.standard_normal(wshape).astype(dtype),
                                   rng.standard_normal(wshape[3]).astype(dtype),
                                   stride, 3)


def padded_tap_forward(x, w, b, stride, padding):
    """The forward of conv2d before it clipped its taps: every tap runs on
    the whole output over a zero-padded copy of x, in x's dtype."""
    n, h, ww, cin = x.shape
    kh, kw, _, cout = w.shape
    depthwise = w.shape[2] != cin
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    wt = w[:, :, 0] if depthwise else w
    out = np.zeros((n, ho, wo, cout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            a = xp[:, i:i + ho * stride:stride, j:j + wo * stride:stride]
            out += (a * wt[i, j] if depthwise
                    else (a.reshape(-1, cin) @ wt[i, j]).reshape(n, ho, wo, cout))
    if b is not None:
        out += b
    return out


@pytest.fixture(scope="module")
def model_conv_calls():
    """(x shape, w shape, bias?, stride, padding) of every conv2d call of a
    forward of micro64 at its batch size 8 and of base at batch 1."""
    calls = set()

    def record(x, w, b=None, stride=1, padding=0):
        calls.add((x.shape, w.shape, b is not None, stride, padding))
        return T.conv2d(x, w, b, stride=stride, padding=padding)

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    with pytest.MonkeyPatch.context() as mp:
        for module in (attention, blocks, fusion):
            mp.setattr(module, "conv2d", record)
        for name, n in (("micro64", 8), ("base", 1)):
            cfg = load_config(os.path.join(root, "configs", f"{name}.cfg")).model
            x = np.zeros((n, cfg.input_hw, cfg.input_hw, cfg.in_channels), np.float32)
            build_model(cfg).forward(Tensor(x))
    return sorted(calls)


def test_conv2d_forward_keeps_the_bits_of_padded_taps_at_model_shapes(model_conv_calls):
    # a tap's product with padding zeros adds exactly 0, so dropping it and
    # running the GEMM on the clipped rows keeps every bit at these shapes.
    # Not in general: at fewer rows (micro64 at batch 1, the 1x1 corner
    # windows of a 7x7 on 4x4) BLAS takes a matrix-vector path whose
    # float32 sums can round differently
    rng = np.random.default_rng(9)
    assert len(model_conv_calls) > 30
    for xshape, wshape, with_bias, stride, padding in model_conv_calls:
        x = rng.standard_normal(xshape).astype(np.float32)
        w = rng.standard_normal(wshape).astype(np.float32)
        b = rng.standard_normal(wshape[3]).astype(np.float32) if with_bias else None
        got = T.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                       stride=stride, padding=padding).data
        want = padded_tap_forward(x, w, b, stride, padding)
        assert np.array_equal(got, want), (xshape, wshape, stride, padding)


def test_conv2d_rejects_bias_of_wrong_shape():
    x = Tensor(np.zeros((1, 4, 4, 3)))
    for w, bshape in [((3, 3, 3, 2), (1,)), ((3, 3, 3, 2), (3,)), ((3, 3, 1, 3), (1, 3))]:
        with pytest.raises(ValueError, match="bias"):
            T.conv2d(x, Tensor(np.zeros(w)), Tensor(np.zeros(bshape)), padding=1)


def test_conv2d_shape_and_group_errors():
    x = Tensor(np.zeros((1, 4, 4, 4)))
    with pytest.raises(ValueError, match="channels"):
        T.conv2d(x, Tensor(np.zeros((3, 3, 3, 4))))
    with pytest.raises(ValueError, match="neither dense nor depth-wise"):
        T.conv2d(x, Tensor(np.zeros((3, 3, 2, 5))))
    with pytest.raises(ValueError, match="exceeds"):
        T.conv2d(x, Tensor(np.zeros((7, 7, 4, 2))))
    with pytest.raises(ValueError, match="want x"):
        T.conv2d(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((3, 3, 4, 2))))


# ---------------------------------------------------------------------------
# normalization layers


def test_layer_norm_standardizes_before_affine():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 6, 64)) * 3.0
    y = T.layer_norm(Tensor(x), Tensor(np.ones(64)), Tensor(np.zeros(64))).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)


def test_batch_norm_updates_running_stats_in_training_only():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 3, 2)) + 5.0
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    rm, rv = np.zeros(2), np.ones(2)
    T.batch_norm(Tensor(x), g, b, rm, rv, training=True)
    mu = x.mean(axis=(0, 1, 2))
    m = x.shape[0] * x.shape[1] * x.shape[2]
    var_unbiased = x.var(axis=(0, 1, 2)) * m / (m - 1)
    np.testing.assert_allclose(rm, 0.1 * mu, atol=1e-12)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * var_unbiased, atol=1e-12)

    frozen_m, frozen_v = rm.copy(), rv.copy()
    y = T.batch_norm(Tensor(x), g, b, rm, rv, training=False).data
    np.testing.assert_array_equal(rm, frozen_m)
    np.testing.assert_array_equal(rv, frozen_v)
    expect = (x - frozen_m) / np.sqrt(frozen_v + 1e-5)
    np.testing.assert_allclose(y, expect, atol=1e-12)


def test_eval_batch_norm_gradients_treat_running_stats_as_constants():
    rng = np.random.default_rng(10)
    rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)

    def bn_eval(p):
        y = T.batch_norm(p["x"], p["g"], p["b"], rm, rv, training=False)
        return T.sum_(T.mul(y, p["x"]))

    report = grad_check(bn_eval, {"x": rng.standard_normal((2, 4, 4, 3)),
                                  "g": rng.standard_normal(3) + 1.5,
                                  "b": rng.standard_normal(3)})
    assert report.passed, report.summary()


def test_batch_norm_wants_nhwc():
    with pytest.raises(ValueError, match="N,H,W,C"):
        T.batch_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)),
                     Tensor(np.zeros(3)), np.zeros(3), np.ones(3), training=True)


# ---------------------------------------------------------------------------
# gather_regions


def test_gather_regions_forward_matches_loop():
    rng = np.random.default_rng(9)
    src = rng.standard_normal((2, 4, 3, 5))
    index = rng.integers(0, 4, size=(2, 4, 2))
    out = T.gather_regions(Tensor(src), index).data
    for n in range(2):
        for r in range(4):
            for k in range(2):
                np.testing.assert_array_equal(out[n, r, k], src[n, index[n, r, k]])


def test_gather_regions_backward_scatter_adds_duplicates():
    tape = Tape()
    src = leaf(tape, np.zeros((1, 2, 1, 1)))
    index = np.array([[[0, 0], [0, 1]]])       # region 0 pulled three times
    grads = backward(T.sum_(T.gather_regions(src, index)))
    np.testing.assert_array_equal(grads[src].reshape(2), [3.0, 1.0])


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_gather_regions_backward_matches_scatter_add(dtype, tol):
    rng = np.random.default_rng(10)
    index = rng.integers(0, 9, size=(2, 9, 4))     # 36 picks of 9 regions per image
    assert all(np.bincount(index[n].ravel()).max() > 1 for n in range(2))
    src = rng.standard_normal((2, 9, 3, 5)).astype(dtype)
    r = rng.standard_normal((2, 9, 4, 3, 5)).astype(dtype)
    tape = Tape()
    ts = leaf(tape, src, dtype)
    grad = backward(T.sum_(T.mul(T.gather_regions(ts, index), Tensor(r))))[ts]
    want = np.zeros((2, 9, 3, 5))
    np.add.at(want, (np.arange(2)[:, None, None], index), r.astype(np.float64))
    assert grad.dtype == dtype
    np.testing.assert_allclose(grad, want, rtol=tol, atol=tol)


def test_gather_regions_index_errors():
    src = Tensor(np.zeros((1, 4, 2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        T.gather_regions(src, np.array([[[4]] * 4]))
    with pytest.raises(ValueError, match="does not match"):
        T.gather_regions(src, np.array([[[0]] * 3]))
    with pytest.raises(ValueError, match="N,R,T,C"):
        T.gather_regions(Tensor(np.zeros((4, 2, 3))), np.zeros((1, 4, 1), dtype=int))
