"""Transformer block and patch-resolution plumbing.

Block recipe, all residual:

    z1 = x  + dwconv3x3(x)            (implicit positional encoding)
    z2 = z1 + routed_attention(LN(z1))
    z3 = z2 + mlp(LN(z2))             (hidden = 3 * dim, gelu)

Patch embed halves resolution twice with 3x3 stride-2 convs (3 -> C/2 ->
C), norm + gelu after each. Patch merge is one 3x3 stride-2 conv doubling
channels, then norm. Patch expand is a token-wise affine to factor^2
output channels, read as one factor x factor cell of channels per
position (row-major within the cell); factor 2 halves channels, the
final factor 4 keeps them. The pixel shuffle that lays the cells out at
factor times the resolution is a separate ``rearrange``, so a token-wise
op can run on the cells before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import PartitionSpec, RoutingAttentionParams, routed_attention
from .params import conv_init, ones, trunc_normal, zeros
from .tensor import (Tensor, conv2d, dense, gelu, layer_norm, rearrange, reshape,
                     transpose)  # noqa: F401, perfbench rebinds transpose

MLP_RATIO = 3


@dataclass
class BlockParams:
    dw: Tensor                   # [3, 3, 1, C]
    dw_b: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    attn: RoutingAttentionParams
    ln2_g: Tensor
    ln2_b: Tensor
    mlp_w1: Tensor               # [C, 3C]
    mlp_b1: Tensor
    mlp_w2: Tensor               # [3C, C]
    mlp_b2: Tensor

    @classmethod
    def init(cls, dim: int, heads: int, rng: np.random.Generator,
             dtype=np.float32, qkv_bias: bool = True,
             scale_mode: str = "per_head"):
        hidden = MLP_RATIO * dim
        return cls(
            dw=Tensor(conv_init(rng, 3, 3, 1, dim, dtype)),
            dw_b=Tensor(zeros((dim,), dtype)),
            ln1_g=Tensor(ones((dim,), dtype)),
            ln1_b=Tensor(zeros((dim,), dtype)),
            attn=RoutingAttentionParams.init(dim, heads, rng, dtype=dtype,
                                             qkv_bias=qkv_bias,
                                             scale_mode=scale_mode),
            ln2_g=Tensor(ones((dim,), dtype)),
            ln2_b=Tensor(zeros((dim,), dtype)),
            mlp_w1=Tensor(trunc_normal(rng, (dim, hidden), dtype=dtype)),
            mlp_b1=Tensor(zeros((hidden,), dtype)),
            mlp_w2=Tensor(trunc_normal(rng, (hidden, dim), dtype=dtype)),
            mlp_b2=Tensor(zeros((dim,), dtype)),
        )

def block_forward(x: Tensor, p: BlockParams, spec: PartitionSpec,
                  top_k: int) -> Tensor:
    z = x + conv2d(x, p.dw, p.dw_b, stride=1, padding=1)
    z = z + routed_attention(layer_norm(z, p.ln1_g, p.ln1_b), p.attn, spec, top_k)
    h = dense(gelu(dense(layer_norm(z, p.ln2_g, p.ln2_b), p.mlp_w1, p.mlp_b1)),
              p.mlp_w2, p.mlp_b2)
    return z + h


# ---------------------------------------------------------------------------
# resolution plumbing


@dataclass
class PatchEmbedParams:
    w1: Tensor
    b1: Tensor
    n1_g: Tensor
    n1_b: Tensor
    w2: Tensor
    b2: Tensor
    n2_g: Tensor
    n2_b: Tensor

    @classmethod
    def init(cls, in_ch: int, out_ch: int, rng: np.random.Generator,
             dtype=np.float32):
        mid = out_ch // 2
        return cls(
            w1=Tensor(conv_init(rng, 3, 3, in_ch, mid, dtype)),
            b1=Tensor(zeros((mid,), dtype)),
            n1_g=Tensor(ones((mid,), dtype)), n1_b=Tensor(zeros((mid,), dtype)),
            w2=Tensor(conv_init(rng, 3, 3, mid, out_ch, dtype)),
            b2=Tensor(zeros((out_ch,), dtype)),
            n2_g=Tensor(ones((out_ch,), dtype)), n2_b=Tensor(zeros((out_ch,), dtype)),
        )


def patch_embed(x: Tensor, p: PatchEmbedParams) -> Tensor:
    """Two stride-2 convs: [N, H, W, in] -> [N, H/4, W/4, C]."""
    x = gelu(layer_norm(conv2d(x, p.w1, p.b1, stride=2, padding=1),
                        p.n1_g, p.n1_b))
    x = gelu(layer_norm(conv2d(x, p.w2, p.b2, stride=2, padding=1),
                        p.n2_g, p.n2_b))
    return x


@dataclass
class PatchMergeParams:
    w: Tensor
    b: Tensor
    n_g: Tensor
    n_b: Tensor

    @classmethod
    def init(cls, in_ch: int, rng: np.random.Generator, dtype=np.float32):
        out = 2 * in_ch
        return cls(w=Tensor(conv_init(rng, 3, 3, in_ch, out, dtype)),
                   b=Tensor(zeros((out,), dtype)),
                   n_g=Tensor(ones((out,), dtype)),
                   n_b=Tensor(zeros((out,), dtype)))


def patch_merge(x: Tensor, p: PatchMergeParams) -> Tensor:
    """[N, H, W, C] -> [N, H/2, W/2, 2C]."""
    return layer_norm(conv2d(x, p.w, p.b, stride=2, padding=1), p.n_g, p.n_b)


@dataclass
class PatchExpandParams:
    w: Tensor                    # [C, factor^2 * out_ch]
    b: Tensor
    factor: int = 2

    @classmethod
    def init(cls, in_ch: int, factor: int, rng: np.random.Generator,
             dtype=np.float32):
        out_ch = in_ch if factor == 4 else in_ch // 2
        return cls(w=Tensor(trunc_normal(rng, (in_ch, factor * factor * out_ch),
                                         dtype=dtype)),
                   b=Tensor(zeros((factor * factor * out_ch,), dtype)),
                   factor=factor)


def patch_expand(x: Tensor, p: PatchExpandParams) -> Tensor:
    """Sub-pixel cells: [N, H, W, C] -> [N, H, W, f, f, out_ch].

    The token-wise affine's output at (i, j) is read as an f x f cell of
    out_ch channels, row-major within the cell: cell entry (a, b) holds
    channels [(a*f + b)*out_ch : +out_ch]. The result is a view of the
    affine's output; ``pixel_shuffle`` lays the cells out as a map.
    """
    n, h, w, _ = x.shape
    f = p.factor
    return reshape(dense(x, p.w, p.b), (n, h, w, f, f, p.w.shape[1] // (f * f)))


def pixel_shuffle(cells: Tensor) -> Tensor:
    """[N, H, W, f, f, C] -> [N, fH, fW, C]: cell entry (a, b) at (i, j)
    becomes pixel (f*i + a, f*j + b), in one copy. A token-wise op commutes
    with it, so one that narrows the channels (the classifier head) can run
    on the cells first and leave only its output to be copied."""
    n, h, w, f, _, c = cells.shape
    return rearrange(cells, cells.shape, (0, 1, 3, 2, 4, 5), (n, h * f, w * f, c))
