import tracemalloc

import numpy as np
import pytest

from routeseg.attention import (AttentionTrace, PartitionSpec, RoutingAttentionParams,
                                RoutingRecord, attention_flops, effective_s,
                                full_attention_reference, gather_kv, min_cost_over_s,
                                recording, region_merge, region_partition,
                                route_regions, routed_attention, token_attention)
from routeseg.gradcheck import grad_check
from routeseg.params import bind, named_arrays, substitute, walk_tensors
from routeseg.tensor import Tape, Tensor, mul, sum_


def make_params(dim, heads, seed, dtype=np.float64, **kw):
    return RoutingAttentionParams.init(dim, heads, np.random.default_rng(seed),
                                       dtype=dtype, **kw)


# ---------------------------------------------------------------------------
# partition geometry


def test_partition_spec_counts():
    spec = PartitionSpec.build(8, 8, 2)
    assert spec.num_regions == 4 and spec.region_h * spec.region_w == 16
    spec = PartitionSpec.build(56, 56, 7)
    assert spec.region_h * spec.region_w == 64


def test_partition_spec_rejects_bad_grid():
    with pytest.raises(ValueError, match="not divisible"):
        PartitionSpec.build(6, 6, 4)
    with pytest.raises(ValueError, match=">= 1"):
        PartitionSpec.build(4, 4, 0)


def test_effective_s_picks_largest_fitting_divisor():
    assert effective_s(56, 7) == 7
    assert effective_s(16, 7) == 4
    assert effective_s(9, 7) == 3
    assert effective_s(30, 7) == 6
    assert effective_s(1, 7) == 1
    assert effective_s(2, 2) == 2


def test_region_partition_layout_and_inverse():
    hw, s = 8, 2
    x = np.arange(hw * hw * 3, dtype=np.float64).reshape(1, hw, hw, 3)
    spec = PartitionSpec.build(hw, hw, s)
    xr = region_partition(Tensor(x), spec)
    assert xr.shape == (1, 4, 16, 3)
    # region 1 is the top-right grid cell, row-major within the cell
    np.testing.assert_array_equal(
        xr.data[0, 1], x[0, 0:4, 4:8, :].reshape(16, 3))
    back = region_merge(xr, spec)
    np.testing.assert_array_equal(back.data, x)


def test_region_partition_shape_errors():
    spec = PartitionSpec.build(8, 8, 2)
    with pytest.raises(ValueError, match="does not match spec"):
        region_partition(Tensor(np.zeros((1, 4, 4, 3))), spec)
    with pytest.raises(ValueError, match="does not match spec"):
        region_merge(Tensor(np.zeros((1, 4, 4, 3))), spec)


# ---------------------------------------------------------------------------
# routing


def test_route_regions_hand_toy_with_tie_break():
    # single-token regions so the region means are the tokens themselves
    spec = PartitionSpec.build(2, 2, 2)
    q = np.zeros((1, 4, 1, 2))
    q[0, :, 0] = [1.0, 0.0]
    k = np.zeros((1, 4, 1, 2))
    k[0, :, 0] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    result = route_regions(Tensor(q), Tensor(k), spec, top_k=2)
    np.testing.assert_array_equal(result.adjacency[0, 0], [1.0, 0.0, -1.0, 0.0])
    # regions 1 and 3 tie at score 0; the lower id wins
    np.testing.assert_array_equal(result.index[0, 0], [0, 1])


def test_route_regions_full_selection_is_permutation():
    rng = np.random.default_rng(21)
    spec = PartitionSpec.build(4, 4, 2)
    q = Tensor(rng.standard_normal((2, 4, 4, 3)))
    k = Tensor(rng.standard_normal((2, 4, 4, 3)))
    index = route_regions(q, k, spec, top_k=4).index
    for n in range(2):
        for r in range(4):
            assert sorted(index[n, r]) == [0, 1, 2, 3]


def test_routing_invariant_under_positive_key_scaling():
    rng = np.random.default_rng(22)
    spec = PartitionSpec.build(4, 4, 2)
    q = rng.standard_normal((1, 4, 4, 5))
    k = rng.standard_normal((1, 4, 4, 5))
    base = route_regions(Tensor(q), Tensor(k), spec, top_k=2).index
    scaled = route_regions(Tensor(q), Tensor(k * 7.25), spec, top_k=2).index
    np.testing.assert_array_equal(base, scaled)


def test_route_regions_rejects_bad_top_k():
    spec = PartitionSpec.build(4, 4, 2)
    q = Tensor(np.zeros((1, 4, 4, 2)))
    for bad in (0, 5):
        with pytest.raises(ValueError, match="top_k"):
            route_regions(q, q, spec, top_k=bad)


def test_routing_pin_records_then_replays():
    rng = np.random.default_rng(23)
    p = make_params(3, 1, 23)
    spec = PartitionSpec.build(4, 4, 2)
    x = Tensor(rng.standard_normal((1, 4, 4, 3)))
    other = Tensor(rng.standard_normal((1, 4, 4, 3)))
    rec = RoutingRecord()
    with recording(rec):
        rec.begin_pass()
        routed_attention(x, p, spec, top_k=2)
        first = rec.traces[0].routing.index
        rec.begin_pass()
        # other scores would reorder; the record replays its selection
        replayed = routed_attention(other, p, spec, top_k=2)
        assert len(rec.traces) == 1
        np.testing.assert_array_equal(rec.traces[0].routing.index, first)
        with pytest.raises(RuntimeError, match="past its recording"):
            routed_attention(x, p, spec, top_k=2)
        rec.begin_pass()
        with pytest.raises(RuntimeError, match="does not match live routing"):
            routed_attention(x, p, spec, top_k=3)
    # outside the record the live selection is used again
    live = routed_attention(other, p, spec, top_k=2)
    assert not np.array_equal(live.data, replayed.data)


# ---------------------------------------------------------------------------
# gather


def test_gather_kv_self_gather_identity():
    rng = np.random.default_rng(24)
    k = rng.standard_normal((1, 4, 3, 2))
    v = rng.standard_normal((1, 4, 3, 2))
    index = np.arange(4).reshape(1, 4, 1)
    kg, vg = gather_kv(Tensor(k), Tensor(v), index)
    np.testing.assert_array_equal(kg.data, k)
    np.testing.assert_array_equal(vg.data, v)


def test_gather_kv_full_gather_flattens_all_regions():
    rng = np.random.default_rng(25)
    k = rng.standard_normal((1, 4, 3, 2))
    index = np.tile(np.arange(4), (1, 4, 1))
    kg, _ = gather_kv(Tensor(k), Tensor(k), index)
    flat = k.reshape(1, 12, 2)
    for r in range(4):
        np.testing.assert_array_equal(kg.data[0, r], flat[0])


def test_gather_kv_rows_are_exact_copies():
    rng = np.random.default_rng(26)
    k = rng.standard_normal((2, 4, 3, 5))
    index = rng.integers(0, 4, size=(2, 4, 2))
    kg, _ = gather_kv(Tensor(k), Tensor(k), index)
    for n in range(2):
        for r in range(4):
            want = np.concatenate([k[n, index[n, r, j]] for j in range(2)])
            np.testing.assert_array_equal(kg.data[n, r], want)


# ---------------------------------------------------------------------------
# token attention


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(27)
    p = make_params(6, 2, 27)
    q = Tensor(rng.standard_normal((2, 4, 3, 6)))
    kg = Tensor(rng.standard_normal((2, 4, 9, 6)))
    vg = Tensor(rng.standard_normal((2, 4, 9, 6)))
    _, weights = token_attention(q, kg, vg, p.wo, p.bo, p.heads, p.softmax_scale())
    np.testing.assert_allclose(weights.sum(axis=-1),
                               np.ones(weights.shape[:-1]), atol=1e-6)


def test_identical_values_pass_through_attention():
    # any convex combination of identical rows is that row; wo = identity
    # isolates the mixing step
    rng = np.random.default_rng(28)
    p = make_params(4, 2, 28)
    p.wo.data[...] = np.eye(4)
    p.bo.data[...] = 0.0
    v = rng.standard_normal(4)
    q = Tensor(rng.standard_normal((1, 2, 3, 4)))
    kg = Tensor(rng.standard_normal((1, 2, 6, 4)))
    vg = Tensor(np.broadcast_to(v, (1, 2, 6, 4)).copy())
    out, _ = token_attention(q, kg, vg, p.wo, p.bo, p.heads, p.softmax_scale())
    np.testing.assert_allclose(out.data, np.broadcast_to(v, out.shape), atol=1e-12)


def test_softmax_scale_follows_mode():
    per_head = make_params(8, 2, 29, scale_mode="per_head")
    model_dim = make_params(8, 2, 29, scale_mode="model_dim")
    assert per_head.softmax_scale() == 1.0 / 2.0       # sqrt(8 / 2)
    assert model_dim.softmax_scale() == pytest.approx(1.0 / np.sqrt(8.0))


def test_params_init_validation():
    with pytest.raises(ValueError, match="divisible"):
        make_params(6, 4, 0)
    with pytest.raises(ValueError, match="scale_mode"):
        make_params(4, 2, 0, scale_mode="global")
    no_bias = make_params(4, 2, 0, qkv_bias=False)
    assert no_bias.bq is None and no_bias.bo is not None


# ---------------------------------------------------------------------------
# the dense-attention oracle

ORACLE_SHAPES = [
    # (n, h, w, c, heads, s, qkv_bias, scale_mode)
    (2, 8, 8, 8, 1, 2, True, "per_head"),
    (1, 8, 8, 16, 2, 4, True, "per_head"),
    (2, 4, 4, 8, 2, 4, True, "per_head"),       # 1-pixel regions
    (1, 2, 2, 4, 1, 2, True, "per_head"),       # 1-pixel regions, minimal
    (1, 8, 4, 8, 4, 2, True, "per_head"),       # rectangular map
    (2, 6, 6, 12, 3, 3, False, "model_dim"),
]


@pytest.mark.parametrize("dtype,bound", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_full_topk_matches_dense_attention(dtype, bound):
    for i, (n, h, w, c, heads, s, qkv_bias, mode) in enumerate(ORACLE_SHAPES):
        rng = np.random.default_rng(100 + i)
        p = make_params(c, heads, 100 + i, dtype=dtype,
                        qkv_bias=qkv_bias, scale_mode=mode)
        x = rng.standard_normal((n, h, w, c)).astype(dtype)
        spec = PartitionSpec.build(h, w, s)
        routed = routed_attention(Tensor(x), p, spec, top_k=s * s).data
        dense = full_attention_reference(x, p)
        assert routed.shape == x.shape
        diff = float(np.abs(routed - dense).max())
        assert diff <= bound, f"shape {i}: max abs {diff:.3e} > {bound}"


def test_single_region_equals_dense_attention():
    rng = np.random.default_rng(31)
    p = make_params(8, 2, 31)
    x = rng.standard_normal((1, 4, 4, 8))
    spec = PartitionSpec.build(4, 4, 1)
    routed = routed_attention(Tensor(x), p, spec, top_k=1).data
    np.testing.assert_allclose(routed, full_attention_reference(x, p), atol=1e-10)


def test_routed_attention_equivariant_under_region_swap():
    # center-tap-only local kernel makes the conv a per-pixel scaling, so
    # the whole layer commutes with whole-region permutations
    rng = np.random.default_rng(32)
    p = make_params(4, 1, 32)
    p.lce.data[...] = 0.0
    p.lce.data[2, 2, 0, :] = rng.standard_normal(4)
    spec = PartitionSpec.build(4, 4, 2)
    x = rng.standard_normal((1, 4, 4, 4))

    def swap01(a):
        out = a.copy()
        out[:, 0:2, 0:2, :] = a[:, 0:2, 2:4, :]
        out[:, 0:2, 2:4, :] = a[:, 0:2, 0:2, :]
        return out

    y = routed_attention(Tensor(x), p, spec, top_k=2).data
    y_swapped = routed_attention(Tensor(swap01(x)), p, spec, top_k=2).data
    np.testing.assert_allclose(y_swapped, swap01(y), atol=1e-12)


def test_capture_returns_trace():
    rng = np.random.default_rng(33)
    p = make_params(4, 2, 33)
    spec = PartitionSpec.build(4, 4, 2)
    x = Tensor(rng.standard_normal((1, 4, 4, 4)))
    with recording(RoutingRecord()) as rec:
        out = routed_attention(x, p, spec, top_k=3)
    np.testing.assert_array_equal(out.data,
                                  routed_attention(x, p, spec, top_k=3).data)
    (trace,) = rec.traces
    assert isinstance(trace, AttentionTrace)
    assert trace.spec is spec
    assert trace.routing.index.shape == (1, 4, 3)    # [N, R, top_k]
    assert trace.weights.shape == (1, 4, 2, 4, 12)   # [N, R, heads, T, k*T]
    np.testing.assert_allclose(trace.weights.sum(axis=-1), 1.0, atol=1e-12)
    assert out.shape == x.shape


@pytest.mark.parametrize("top_k", [1, 4])
def test_routed_attention_matches_central_differences_through_recompute(top_k):
    # float64, the selection pinned as the tape holds it; top_k 4 = S * S
    # gathers every region
    rng = np.random.default_rng(34)
    p = make_params(4, 2, 34)
    for _, t in walk_tensors(p):
        t.data[...] = rng.standard_normal(t.shape) * 0.5
    spec = PartitionSpec.build(4, 4, 2)
    g = Tensor(rng.standard_normal((2, 4, 4, 4)))
    routing = RoutingRecord()

    def loss(v):
        with recording(routing):
            routing.begin_pass()
            y = routed_attention(v["x"], substitute(p, v), spec, top_k)
        return sum_(mul(y, g))

    values = {"x": rng.standard_normal((2, 4, 4, 4))}
    values.update(named_arrays(p))
    tape = Tape()
    loss({"x": tape.watch(Tensor(values["x"]))})
    assert [n.op for n in tape._nodes].count("recompute") == 1

    report = grad_check(loss, values, op="routed_attention")
    assert report.passed, report.summary()
    assert report.coords_checked == sum(a.size for a in values.values())


def test_training_forward_keeps_one_copy_of_v():
    # the tape keeps x's region partition (read by the three projections),
    # q, k and the spatial V that both the recompute node and local context
    # read; with the output that is five x-sized arrays. A second, region
    # layout copy of V would make six.
    n, side, c = 2, 32, 32
    p = make_params(c, 2, 35)
    spec = PartitionSpec.build(side, side, 4)
    x = np.random.default_rng(35).standard_normal((n, side, side, c))
    tape = Tape()
    bp, xt = bind(p, tape), tape.watch(Tensor(x))
    tracemalloc.start()
    try:
        out = routed_attention(xt, bp, spec, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert held <= 5.5 * x.nbytes, f"held {held / x.nbytes:.2f} x-sized arrays"


# ---------------------------------------------------------------------------
# cost model


def test_attention_flops_reduces_to_full_attention():
    hw, c = 64, 16
    macs = attention_flops(hw, c, s=1, top_k=1)
    assert macs["token_macs"] == 2 * hw * hw * c
    assert macs["total_macs"] == macs["routing_macs"] + macs["token_macs"]


def test_attention_flops_quadratic_in_hw_at_fixed_s():
    a = attention_flops(64, 8, s=2, top_k=2)["token_macs"]
    b = attention_flops(128, 8, s=2, top_k=2)["token_macs"]
    assert b == 4 * a


def test_token_cost_strictly_decreases_with_s():
    costs = [attention_flops(256, 8, s, top_k=4)["token_macs"]
             for s in (2, 4, 8, 16)]
    assert all(x > y for x, y in zip(costs, costs[1:]))


def test_attention_flops_validation():
    with pytest.raises(ValueError, match="not divisible"):
        attention_flops(60, 8, s=4, top_k=2)
    with pytest.raises(ValueError, match="top_k"):
        attention_flops(64, 8, s=2, top_k=5)


def test_min_cost_beats_full_attention():
    for side in (32, 64, 128, 256):
        hw = side * side
        _, bra = min_cost_over_s(hw, 64, top_k=4)
        assert bra < 2 * hw * hw * 64


def test_min_cost_over_s_errors():
    with pytest.raises(ValueError, match="square"):
        min_cost_over_s(48, 8, top_k=1)
    with pytest.raises(ValueError, match="no valid partition"):
        min_cost_over_s(4, 8, top_k=100)


def test_min_cost_scaling_exponent_near_four_thirds():
    hws, costs = [], []
    for side in (32, 64, 128):
        hw = side * side
        hws.append(hw)
        costs.append(min_cost_over_s(hw, 64, top_k=4)[1])
    slope, _ = np.polyfit(np.log(hws), np.log(costs), 1)
    assert abs(slope - 4.0 / 3.0) <= 0.1
