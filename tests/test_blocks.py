import numpy as np
import pytest

from routeseg.attention import PartitionSpec, RoutingRecord, recording
from routeseg.blocks import (MLP_RATIO, BlockParams, PatchEmbedParams,
                             PatchExpandParams, PatchMergeParams, block_forward,
                             patch_embed, patch_expand, patch_merge,
                             pixel_shuffle)
from routeseg.params import bind
from routeseg.tensor import Tape, Tensor, backward, sum_

from conftest import count_scalars


def test_patch_embed_quarters_resolution():
    rng = np.random.default_rng(40)
    p = PatchEmbedParams.init(3, 16, rng, dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 32, 32, 3)))
    out = patch_embed(x, p)
    assert out.shape == (2, 8, 8, 16)
    assert np.isfinite(out.data).all()


def test_patch_merge_halves_and_doubles():
    rng = np.random.default_rng(41)
    p = PatchMergeParams.init(8, rng, dtype=np.float64)
    out = patch_merge(Tensor(rng.standard_normal((1, 8, 8, 8))), p)
    assert out.shape == (1, 4, 4, 16)


# patch_expand returns the sub-pixel cells [N, H, W, f, f, out_ch] and
# pixel_shuffle lays them out; the expanded map is the two together


def test_patch_expand_factor2_shape_and_channels():
    rng = np.random.default_rng(42)
    p = PatchExpandParams.init(16, 2, rng, dtype=np.float64)
    cells = patch_expand(Tensor(rng.standard_normal((1, 4, 4, 16))), p)
    assert cells.shape == (1, 4, 4, 2, 2, 8)
    assert pixel_shuffle(cells).shape == (1, 8, 8, 8)


def test_patch_expand_factor4_keeps_channels():
    rng = np.random.default_rng(43)
    p = PatchExpandParams.init(8, 4, rng, dtype=np.float64)
    cells = patch_expand(Tensor(rng.standard_normal((1, 4, 4, 8))), p)
    assert cells.shape == (1, 4, 4, 4, 4, 8)
    assert pixel_shuffle(cells).shape == (1, 16, 16, 8)


def test_patch_expand_matches_subpixel_oracle():
    # cell (a, b) under pixel (i, j) reads channels [(a*f+b)*out : +out]
    # of the affine output at (i, j)
    rng = np.random.default_rng(44)
    f, in_ch = 2, 6
    p = PatchExpandParams.init(in_ch, f, rng, dtype=np.float64)
    out_ch = in_ch // 2
    x = rng.standard_normal((1, 3, 3, in_ch))
    affine = x @ p.w.data + p.b.data
    got = pixel_shuffle(patch_expand(Tensor(x), p)).data
    for i in range(3):
        for j in range(3):
            for a in range(f):
                for b in range(f):
                    cell = (a * f + b) * out_ch
                    np.testing.assert_array_equal(
                        got[0, i * f + a, j * f + b],
                        affine[0, i, j, cell:cell + out_ch])


def test_block_forward_preserves_shape():
    rng = np.random.default_rng(45)
    p = BlockParams.init(8, 2, rng, dtype=np.float64)
    spec = PartitionSpec.build(8, 8, 2)
    x = Tensor(rng.standard_normal((2, 8, 8, 8)))
    out = block_forward(x, p, spec, top_k=2)
    assert out.shape == x.shape
    assert np.isfinite(out.data).all()


def test_block_forward_capture_returns_trace():
    rng = np.random.default_rng(46)
    p = BlockParams.init(8, 2, rng, dtype=np.float64)
    spec = PartitionSpec.build(4, 4, 2)
    x = Tensor(rng.standard_normal((1, 4, 4, 8)))
    with recording(RoutingRecord()) as rec:
        out = block_forward(x, p, spec, top_k=3)
    (trace,) = rec.traces
    assert out.shape == x.shape
    assert trace.routing.index.shape == (1, 4, 3)


def test_block_is_residual_at_zeroed_branches():
    # zeroing the depthwise kernel, attention output affine, and second
    # mlp affine collapses every branch, leaving the identity
    rng = np.random.default_rng(47)
    p = BlockParams.init(8, 2, rng, dtype=np.float64)
    p.dw.data[...] = 0.0
    p.dw_b.data[...] = 0.0
    p.attn.wo.data[...] = 0.0
    p.attn.bo.data[...] = 0.0
    p.attn.lce.data[...] = 0.0
    p.mlp_w2.data[...] = 0.0
    p.mlp_b2.data[...] = 0.0
    spec = PartitionSpec.build(4, 4, 2)
    x = rng.standard_normal((1, 4, 4, 8))
    out = block_forward(Tensor(x), p, spec, top_k=2)
    np.testing.assert_array_equal(out.data, x)


def test_block_param_count_formula():
    dim, heads = 8, 2
    p = BlockParams.init(dim, heads, np.random.default_rng(48))
    hidden = MLP_RATIO * dim
    want = (9 * dim + dim                       # depthwise conv
            + 2 * dim + 2 * dim                 # two layer norms
            + 4 * (dim * dim + dim)             # q, k, v, o affines
            + 25 * dim                          # 5x5 local conv, no bias
            + dim * hidden + hidden             # mlp in
            + hidden * dim + dim)               # mlp out
    assert count_scalars(p) == want


def test_block_is_differentiable_end_to_end():
    rng = np.random.default_rng(49)
    tape = Tape()
    p = bind(BlockParams.init(4, 1, rng, dtype=np.float64), tape)
    spec = PartitionSpec.build(4, 4, 2)
    x = tape.watch(Tensor(rng.standard_normal((1, 4, 4, 4))))
    loss = sum_(block_forward(x, p, spec, top_k=2))
    grads = backward(loss)
    g = grads[x]
    assert g.shape == x.shape and np.abs(g).max() > 0
    assert np.abs(grads[p.mlp_w1]).max() > 0


def test_block_records_three_layout_nodes():
    # region partition and two region merges (attention output and V),
    # each one node. The two reshapes after the K/V gathers, the q, k and
    # v head splits and the head merge run inside the routed core's
    # recompute node, so they record on its own tape during backward
    rng = np.random.default_rng(50)
    tape = Tape()
    p = bind(BlockParams.init(8, 2, rng), tape)
    x = tape.watch(Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32)))
    block_forward(x, p, PartitionSpec.build(8, 8, 2), top_k=2)
    layout = [n.op for n in tape._nodes if n.op in ("reshape", "transpose", "rearrange")]
    assert len(layout) == 3
