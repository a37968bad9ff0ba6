"""Skip-connection fusion with stacked channel and spatial gates.

Both inputs carry n channels; the encoder feature goes first in the
concat. The channel gate is a position-wise bottleneck MLP (2n -> n/2 ->
2n, reduction 4, no pooling) squashed by a sigmoid. The spatial gate is a
pair of 7x7 convs through a 2n/4 bottleneck, batch norm after the first
conv only, sigmoid at the end. A final affine brings 2n back to n.

    f1 = concat(enc, dec)
    f2 = sigmoid(fc2(relu(fc1(f1)))) * f1
    f3 = sigmoid(conv2(relu(bn(conv1(f2))))) * f2
    out = fc_out(f3)

The cheap variant used when the gates are disabled is the same concat
followed directly by the output affine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import conv_init, trunc_normal
from .tensor import (Tensor, batch_norm, concat, conv2d, dense, mul, relu,
                     sigmoid)

GATE_KERNEL = 7                  # side of both spatial-gate convs
GATE_REDUCTION = 4               # both gates narrow 2n to 2n / 4


@dataclass
class FusionParams:
    ca_w1: Tensor                # [2n, n/2]
    ca_b1: Tensor
    ca_w2: Tensor                # [n/2, 2n]
    ca_b2: Tensor
    sa_w1: Tensor                # [7, 7, 2n, n/2]
    sa_b1: Tensor
    bn_g: Tensor
    bn_b: Tensor
    sa_w2: Tensor                # [7, 7, n/2, 2n]
    sa_b2: Tensor
    out_w: Tensor                # [2n, n]
    out_b: Tensor
    bn_mean: np.ndarray = field(default=None, repr=False)
    bn_var: np.ndarray = field(default=None, repr=False)

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator, dtype=np.float32):
        n = channels
        wide = 2 * n
        mid = wide // GATE_REDUCTION
        if mid < 1:
            raise ValueError(f"fusion width {wide} too small for reduction {GATE_REDUCTION}")
        return cls(
            ca_w1=Tensor(trunc_normal(rng, (wide, mid), dtype=dtype)),
            ca_b1=Tensor(np.zeros((mid,), dtype)),
            ca_w2=Tensor(trunc_normal(rng, (mid, wide), dtype=dtype)),
            ca_b2=Tensor(np.zeros((wide,), dtype)),
            sa_w1=Tensor(conv_init(rng, GATE_KERNEL, GATE_KERNEL, wide, mid, dtype)),
            sa_b1=Tensor(np.zeros((mid,), dtype)),
            bn_g=Tensor(np.ones((mid,), dtype)),
            bn_b=Tensor(np.zeros((mid,), dtype)),
            sa_w2=Tensor(conv_init(rng, GATE_KERNEL, GATE_KERNEL, mid, wide, dtype)),
            sa_b2=Tensor(np.zeros((wide,), dtype)),
            out_w=Tensor(trunc_normal(rng, (wide, n), dtype=dtype)),
            out_b=Tensor(np.zeros((n,), dtype)),
            bn_mean=np.zeros((mid,), dtype=np.float64),
            bn_var=np.ones((mid,), dtype=np.float64),
        )


@dataclass
class PlainFuseParams:
    out_w: Tensor
    out_b: Tensor

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator, dtype=np.float32):
        return cls(out_w=Tensor(trunc_normal(rng, (2 * channels, channels),
                                             dtype=dtype)),
                   out_b=Tensor(np.zeros((channels,), dtype)))


def _check_pair(x1: Tensor, x2: Tensor):
    if x1.shape != x2.shape:
        raise ValueError(f"fusion inputs differ: {x1.shape} vs {x2.shape}")
    if x1.ndim != 4:
        raise ValueError(f"fusion wants [N,H,W,C], got {x1.shape}")


def channel_spatial_fuse(x1: Tensor, x2: Tensor, p: FusionParams,
                         training: bool) -> Tensor:
    """Gated fuse of encoder feature ``x1`` with decoder feature ``x2``."""
    _check_pair(x1, x2)
    f1 = concat([x1, x2], axis=-1)
    gate_c = sigmoid(dense(relu(dense(f1, p.ca_w1, p.ca_b1)), p.ca_w2, p.ca_b2))
    f2 = mul(gate_c, f1)
    k = p.sa_w1.shape[0]
    t = conv2d(f2, p.sa_w1, p.sa_b1, stride=1, padding=k // 2)
    t = relu(batch_norm(t, p.bn_g, p.bn_b, p.bn_mean, p.bn_var,
                        training=training))
    gate_s = sigmoid(conv2d(t, p.sa_w2, p.sa_b2, stride=1, padding=k // 2))
    f3 = mul(gate_s, f2)
    return dense(f3, p.out_w, p.out_b)


def plain_fuse(x1: Tensor, x2: Tensor, p: PlainFuseParams) -> Tensor:
    """Concat + affine, the gate-free fallback."""
    _check_pair(x1, x2)
    return dense(concat([x1, x2], axis=-1), p.out_w, p.out_b)
