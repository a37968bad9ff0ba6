import numpy as np
import pytest

from routeseg.fusion import (FusionParams, PlainFuseParams, channel_spatial_fuse,
                             plain_fuse)
from routeseg.tensor import Tensor

from conftest import count_scalars


def pair(rng, n=2, hw=6, c=8, dtype=np.float64):
    x1 = Tensor(rng.standard_normal((n, hw, hw, c)).astype(dtype))
    x2 = Tensor(rng.standard_normal((n, hw, hw, c)).astype(dtype))
    return x1, x2


def test_fuse_output_shape_matches_single_input():
    rng = np.random.default_rng(50)
    p = FusionParams.init(8, rng, dtype=np.float64)
    x1, x2 = pair(rng)
    out = channel_spatial_fuse(x1, x2, p, training=True)
    assert out.shape == x1.shape
    assert np.isfinite(out.data).all()


def test_plain_fuse_is_concat_plus_affine():
    rng = np.random.default_rng(51)
    p = PlainFuseParams.init(4, rng, dtype=np.float64)
    x1, x2 = pair(rng, c=4)
    got = plain_fuse(x1, x2, p).data
    cat = np.concatenate([x1.data, x2.data], axis=-1)
    np.testing.assert_allclose(got, cat @ p.out_w.data + p.out_b.data,
                               atol=1e-12)


def test_gated_fuse_costs_more_parameters_than_plain():
    n = 8
    gated = FusionParams.init(n, np.random.default_rng(52))
    plain = PlainFuseParams.init(n, np.random.default_rng(52))
    wide, mid, k = 2 * n, (2 * n) // 4, 7
    extra = (wide * mid + mid + mid * wide + wide          # channel gate mlp
             + k * k * wide * mid + mid + 2 * mid          # conv1 + bn affine
             + k * k * mid * wide + wide)                  # conv2
    assert count_scalars(gated) == count_scalars(plain) + extra


def test_fuse_rejects_mismatched_or_non_image_inputs():
    rng = np.random.default_rng(53)
    p = FusionParams.init(8, rng, dtype=np.float64)
    x1, _ = pair(rng)
    with pytest.raises(ValueError, match="differ"):
        channel_spatial_fuse(x1, Tensor(np.zeros((2, 6, 6, 4))), p, training=True)
    with pytest.raises(ValueError, match="N,H,W,C"):
        plain_fuse(Tensor(np.zeros((6, 8))), Tensor(np.zeros((6, 8))),
                   PlainFuseParams.init(4, rng))


def test_fuse_init_rejects_too_narrow_bottleneck():
    with pytest.raises(ValueError, match="too small"):
        FusionParams.init(1, np.random.default_rng(54))


def test_training_pass_updates_bn_stats_eval_does_not():
    rng = np.random.default_rng(55)
    p = FusionParams.init(8, rng, dtype=np.float64)
    x1, x2 = pair(rng)
    mean0, var0 = p.bn_mean.copy(), p.bn_var.copy()
    channel_spatial_fuse(x1, x2, p, training=True)
    assert not np.array_equal(p.bn_mean, mean0)
    assert not np.array_equal(p.bn_var, var0)
    mean1, var1 = p.bn_mean.copy(), p.bn_var.copy()
    channel_spatial_fuse(x1, x2, p, training=False)
    np.testing.assert_array_equal(p.bn_mean, mean1)
    np.testing.assert_array_equal(p.bn_var, var1)


def test_eval_pass_is_deterministic_given_frozen_stats():
    rng = np.random.default_rng(56)
    p = FusionParams.init(8, rng, dtype=np.float64)
    x1, x2 = pair(rng)
    a = channel_spatial_fuse(x1, x2, p, training=False).data
    b = channel_spatial_fuse(x1, x2, p, training=False).data
    np.testing.assert_array_equal(a, b)


def test_saturated_gates_reduce_to_plain_fuse():
    # huge positive channel-gate bias and spatial-conv bias drive both
    # sigmoids to 1, leaving concat -> affine
    rng = np.random.default_rng(57)
    p = FusionParams.init(4, rng, dtype=np.float64)
    p.ca_w2.data[...] = 0.0
    p.ca_b2.data[...] = 60.0
    p.sa_w2.data[...] = 0.0
    p.sa_b2.data[...] = 60.0
    x1, x2 = pair(rng, c=4)
    got = channel_spatial_fuse(x1, x2, p, training=True).data
    cat = np.concatenate([x1.data, x2.data], axis=-1)
    np.testing.assert_allclose(got, cat @ p.out_w.data + p.out_b.data,
                               atol=1e-12)
