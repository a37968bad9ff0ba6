"""Segmentation losses on soft probabilities.

Dice uses squared-sum denominators and a small eps on both the numerator
and denominator of each class ratio; each class weighs 1/K. Cross
entropy is the per-class binary form evaluated on softmax
probabilities, averaged over classes and pixels. The training objective
mixes them as lam * dice + (1 - lam) * ce with lam = 0.6.
"""

from __future__ import annotations

import numpy as np

from .model import ConfigError
from .tensor import Tensor, add, clip, div, log, mul, neg, softmax_lastdim, sub, sum_, mean_


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """Integer labels [..., H, W] -> one-hot [..., H, W, K]."""
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels outside [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]")
    return np.eye(num_classes, dtype=dtype)[labels]


def _check_probs_target(probs: Tensor, target: Tensor):
    if probs.shape != target.shape:
        raise ValueError(f"probs {probs.shape} vs target {target.shape}")
    if probs.ndim < 2:
        raise ValueError(f"want [..., K] probability maps, got {probs.shape}")


def dice_loss(probs: Tensor, target: Tensor, eps: float = 1e-5) -> Tensor:
    """1 - sum_k (1/K) * (2 * sum(p*g) + eps) / (sum(p^2) + sum(g^2) + eps).

    Sums run over every pixel of the batch, per class.
    """
    _check_probs_target(probs, target)
    k = probs.shape[-1]
    weights = np.full((k,), 1.0 / k, dtype=probs.dtype)
    axes = tuple(range(probs.ndim - 1))
    inter = sum_(mul(probs, target), axis=axes)          # [K]
    psq = sum_(mul(probs, probs), axis=axes)
    gsq = sum_(mul(target, target), axis=axes)
    ratio = div(add(mul(inter, 2.0), eps), add(add(psq, gsq), eps))
    return sub(1.0, sum_(mul(ratio, Tensor(weights))))


CE_CLAMP = 1e-7                  # probabilities are clipped to [CE_CLAMP, 1 - CE_CLAMP]


def cross_entropy_loss(probs: Tensor, target: Tensor) -> Tensor:
    """Binary-form CE per class on soft probabilities, mean over all axes."""
    _check_probs_target(probs, target)
    p = clip(probs, CE_CLAMP, 1.0 - CE_CLAMP)
    pos = mul(target, log(p))
    negterm = mul(sub(1.0, target), log(sub(1.0, p)))
    return neg(mean_(add(pos, negterm)))


def check_loss_lambda(lam: float):
    """The dice weight of the hybrid loss must sit in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"loss_lambda must sit in [0, 1], got {lam}")


def hybrid_loss(logits: Tensor, target: Tensor, lam: float = 0.6) -> Tensor:
    """lam * dice + (1 - lam) * ce on softmaxed logits."""
    check_loss_lambda(lam)
    probs = softmax_lastdim(logits)
    d = dice_loss(probs, target)
    c = cross_entropy_loss(probs, target)
    return add(mul(d, lam), mul(c, 1.0 - lam))
