import numpy as np
import pytest

from routeseg.losses import cross_entropy_loss, dice_loss, hybrid_loss, one_hot
from routeseg.tensor import Tensor, softmax_lastdim


def test_one_hot_layout_and_dtype():
    labels = np.array([[0, 2], [1, 1]])
    oh = one_hot(labels, 3, dtype=np.float64)
    assert oh.shape == (2, 2, 3) and oh.dtype == np.float64
    np.testing.assert_array_equal(oh[0, 1], [0.0, 0.0, 1.0])
    assert oh.sum() == labels.size


def test_one_hot_rejects_out_of_range_labels():
    with pytest.raises(ValueError, match="outside"):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(ValueError, match="outside"):
        one_hot(np.array([-1, 0]), 3)


def test_perfect_prediction_gives_zero_dice_loss():
    target = one_hot(np.array([[0, 1], [1, 0]]), 2, dtype=np.float64)
    loss = dice_loss(Tensor(target), Tensor(target), eps=0.0)
    assert loss.item() == 0.0


def test_uniform_binary_prediction_gives_one_third():
    # p = 0.5 everywhere, hard binary target: per class
    # 2 * sum(p*g) / (sum(p^2) + sum(g^2)) = n / (n/2 + n) = 2/3
    target = one_hot(np.array([[0, 1], [1, 0]]), 2, dtype=np.float64)
    probs = Tensor(np.full_like(target, 0.5))
    loss = dice_loss(probs, Tensor(target), eps=0.0)
    assert abs(loss.item() - 1.0 / 3.0) < 1e-15


def test_disjoint_prediction_saturates_dice():
    target = one_hot(np.zeros((8, 8), dtype=int), 2, dtype=np.float64)
    flipped = Tensor(target[..., ::-1].copy())
    loss = dice_loss(flipped, Tensor(target))
    assert loss.item() > 0.999


def test_dice_input_validation():
    t = Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="vs target"):
        dice_loss(t, Tensor(np.zeros((2, 2, 3))))
    with pytest.raises(ValueError, match="probability maps"):
        dice_loss(Tensor(np.zeros(3)), Tensor(np.zeros(3)))


def test_cross_entropy_uniform_binary_is_ln_two():
    # 8 pixels (power of two) so the float mean is exact
    target = one_hot(np.array([0, 1, 0, 1, 1, 0, 1, 0]), 2, dtype=np.float64)
    probs = Tensor(np.full_like(target, 0.5))
    loss = cross_entropy_loss(probs, Tensor(target))
    assert loss.item() == np.log(2.0)


def test_cross_entropy_matches_scalar_oracle():
    rng = np.random.default_rng(61)
    target = one_hot(rng.integers(0, 3, (2, 4, 4)), 3, dtype=np.float64)
    probs = softmax_lastdim(Tensor(rng.standard_normal(target.shape))).data
    clamp = 1e-7
    total = 0.0
    for idx in np.ndindex(*target.shape):
        p = min(max(probs[idx], clamp), 1.0 - clamp)
        g = target[idx]
        total += -(g * np.log(p) + (1.0 - g) * np.log(1.0 - p))
    want = total / target.size
    got = cross_entropy_loss(Tensor(probs), Tensor(target)).item()
    assert abs(got - want) < 1e-9


def test_cross_entropy_clamps_hard_zero_and_one():
    target = one_hot(np.array([0, 1]), 2, dtype=np.float64)
    loss = cross_entropy_loss(Tensor(target.copy()), Tensor(target))
    assert np.isfinite(loss.item())


def test_hybrid_endpoints_match_components():
    rng = np.random.default_rng(62)
    target = one_hot(rng.integers(0, 2, (4, 4)), 2, dtype=np.float64)
    logits = Tensor(rng.standard_normal(target.shape))
    probs = softmax_lastdim(logits)
    dice_only = hybrid_loss(logits, Tensor(target), lam=1.0).item()
    ce_only = hybrid_loss(logits, Tensor(target), lam=0.0).item()
    assert dice_only == dice_loss(probs, Tensor(target)).item()
    assert ce_only == cross_entropy_loss(probs, Tensor(target)).item()


def test_hybrid_default_mix_is_affine_in_lambda():
    rng = np.random.default_rng(63)
    target = one_hot(rng.integers(0, 3, (4, 4)), 3, dtype=np.float64)
    logits = Tensor(rng.standard_normal(target.shape))
    probs = softmax_lastdim(logits)
    d = dice_loss(probs, Tensor(target)).item()
    c = cross_entropy_loss(probs, Tensor(target)).item()
    got = hybrid_loss(logits, Tensor(target), lam=0.6).item()
    assert abs(got - (0.6 * d + 0.4 * c)) < 1e-15


def test_hybrid_rejects_lambda_outside_unit_interval():
    t = Tensor(np.zeros((2, 2)))
    for lam in (-0.1, 1.5):
        with pytest.raises(ValueError, match="lam"):
            hybrid_loss(t, t, lam=lam)


def test_losses_are_differentiable():
    from routeseg.tensor import Tape, backward
    rng = np.random.default_rng(64)
    target = one_hot(rng.integers(0, 2, (3, 3)), 2, dtype=np.float64)
    tape = Tape()
    logits = tape.watch(Tensor(rng.standard_normal(target.shape)))
    grads = backward(hybrid_loss(logits, Tensor(target)))
    g = grads[logits]
    assert g.shape == logits.shape
    assert np.isfinite(g).all() and np.abs(g).max() > 0
