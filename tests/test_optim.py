import math

import numpy as np
import pytest

from routeseg.model import CheckpointError, ConfigError, take_records
from routeseg.optim import Optimizer, OptimConfig, cosine_lr
from routeseg.tensor import Tensor


def params_of(*arrays):
    return [(f"p{i}", Tensor(np.asarray(a, dtype=np.float64)))
            for i, a in enumerate(arrays)]


def grads_for(named, values):
    return {name: np.asarray(v, dtype=np.float64)
            for (name, _), v in zip(named, values)}


# ---------------------------------------------------------------------------
# config


def test_presets():
    sgd = OptimConfig.preset("sgd")
    assert (sgd.kind, sgd.lr, sgd.momentum, sgd.weight_decay,
            sgd.schedule, sgd.epochs, sgd.batch_size) == \
        ("sgd", 0.05, 0.9, 1e-4, "constant", 400, 24)
    adam = OptimConfig.preset("adam")
    assert (adam.kind, adam.lr, adam.weight_decay, adam.schedule,
            adam.epochs, adam.batch_size) == \
        ("adam", 5e-4, 0.0, "cosine", 200, 16)
    with pytest.raises(ConfigError, match="preset"):
        OptimConfig.preset("rmsprop")


@pytest.mark.parametrize("kw,msg", [
    (dict(kind="lamb"), "optimizer kind"),
    (dict(schedule="linear"), "schedule"),
    (dict(lr=0.0), "lr"),
    (dict(momentum=1.0), "momentum"),
    (dict(weight_decay=-1e-4), "weight_decay"),
    (dict(beta1=1.0), "betas"),
    (dict(eps=0.0), "eps"),
    (dict(epochs=0), "epochs"),
])
def test_config_validation(kw, msg):
    with pytest.raises(ConfigError, match=msg):
        OptimConfig(**kw)


def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.05) == 0.05
    assert cosine_lr(100, 100, 0.05) == pytest.approx(0.0, abs=1e-17)
    assert cosine_lr(50, 100, 0.05) == pytest.approx(0.025)
    assert cosine_lr(25, 100, 0.05) == pytest.approx(
        0.05 * (1 + math.cos(math.pi / 4)) / 2)
    with pytest.raises(ValueError, match="outside"):
        cosine_lr(101, 100, 0.05)
    with pytest.raises(ValueError, match="outside"):
        cosine_lr(-1, 100, 0.05)


# ---------------------------------------------------------------------------
# sgd


def test_plain_sgd_step_is_exact():
    named = params_of([1.0, 2.0])
    opt = Optimizer(OptimConfig(momentum=0.0, weight_decay=0.0), named)
    opt.step(grads_for(named, [[0.5, -1.0]]), lr=0.1)
    np.testing.assert_allclose(named[0][1].data, [0.95, 2.1], atol=1e-15)


def test_sgd_momentum_accumulates_geometrically():
    # constant gradient 1: velocity after n steps is sum of mu^i
    named = params_of([0.0])
    opt = Optimizer(OptimConfig(momentum=0.5, weight_decay=0.0), named)
    g = grads_for(named, [[1.0]])
    total = 0.0
    v = 0.0
    for _ in range(5):
        opt.step(g, lr=0.1)
        v = 0.5 * v + 1.0
        total += 0.1 * v
    np.testing.assert_allclose(named[0][1].data, [-total], atol=1e-15)


def test_weight_decay_skips_low_rank_tensors():
    matrix = Tensor(np.full((2, 2), 2.0))
    bias = Tensor(np.full((2,), 2.0))
    named = [("w", matrix), ("b", bias)]
    opt = Optimizer(OptimConfig(momentum=0.0, weight_decay=0.1), named)
    zero = {"w": np.zeros((2, 2)), "b": np.zeros((2,))}
    opt.step(zero, lr=1.0)
    np.testing.assert_allclose(matrix.data, np.full((2, 2), 1.8), atol=1e-15)
    np.testing.assert_array_equal(bias.data, np.full((2,), 2.0))


def test_sgd_converges_on_quadratic():
    # f(x) = 0.5 * ||x||^2, lr 0.75, no momentum: contraction by 0.25/step
    named = params_of([4.0, -2.0, 1.0])
    opt = Optimizer(OptimConfig(momentum=0.0, weight_decay=0.0), named)
    x = named[0][1]
    for _ in range(100):
        opt.step({"p0": x.data.copy()}, lr=0.75)
    assert np.abs(x.data).max() < 1e-15


def test_sgd_momentum_converges_on_quadratic():
    named = params_of([4.0, -2.0, 1.0])
    opt = Optimizer(OptimConfig(momentum=0.5, weight_decay=0.0), named)
    x = named[0][1]
    for _ in range(300):
        opt.step({"p0": x.data.copy()}, lr=0.5)
    assert np.abs(x.data).max() < 1e-40


# ---------------------------------------------------------------------------
# adam


def test_adam_converges_on_quadratic():
    named = params_of([4.0, -2.0, 1.0])
    opt = Optimizer(OptimConfig.preset("adam"), named)
    x = named[0][1]
    for _ in range(1000):
        opt.step({"p0": x.data.copy()}, lr=0.05)
    assert np.abs(x.data).max() < 1e-15


def test_adam_zero_gradient_leaves_params_unchanged():
    named = params_of([1.0, -3.0])
    opt = Optimizer(OptimConfig.preset("adam"), named)
    opt.step({"p0": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(named[0][1].data, [1.0, -3.0])


def test_adam_constant_gradient_step_approaches_lr():
    # with bias correction, |update| -> lr for a constant unit gradient
    named = params_of([0.0])
    opt = Optimizer(OptimConfig.preset("adam"), named)
    g = {"p0": np.ones(1)}
    prev = named[0][1].data.copy()
    for _ in range(400):
        prev = named[0][1].data.copy()
        opt.step(g, lr=0.01)
    last_step = float(np.abs(named[0][1].data - prev)[0])
    assert abs(last_step / 0.01 - 1.0) < 1e-4


def test_first_adam_step_matches_closed_form():
    named = params_of([1.0])
    cfg = OptimConfig(kind="adam", lr=0.1, weight_decay=0.0)
    opt = Optimizer(cfg, named)
    opt.step({"p0": np.array([0.5])}, lr=0.1)
    # t=1: mhat = g, vhat = g^2, update = lr * g / (|g| + eps)
    want = 1.0 - 0.1 * 0.5 / (0.5 + cfg.eps)
    np.testing.assert_allclose(named[0][1].data, [want], atol=1e-15)


# ---------------------------------------------------------------------------
# bookkeeping


def test_duplicate_parameter_names_rejected():
    t = Tensor(np.zeros(1))
    with pytest.raises(ValueError, match="duplicate parameter"):
        Optimizer(OptimConfig(), [("a", t), ("a", t)])


def test_missing_and_misshapen_gradients_rejected():
    named = params_of([1.0, 2.0])
    opt = Optimizer(OptimConfig(), named)
    with pytest.raises(ValueError, match="no gradient"):
        opt.step({}, lr=0.1)
    with pytest.raises(ValueError, match="gradient shape"):
        opt.step({"p0": np.zeros((3,))}, lr=0.1)


def test_state_records_round_trip():
    named = params_of([1.0, 2.0])
    opt = Optimizer(OptimConfig.preset("adam"), named)
    for _ in range(3):
        opt.step({"p0": np.array([0.1, -0.2])}, lr=0.01)
    records = opt.state_records()
    assert records["opt.t"] == 3.0

    fresh_named = params_of([1.0, 2.0])
    fresh_named[0][1].data[...] = named[0][1].data    # resume value and state
    fresh = Optimizer(OptimConfig.preset("adam"), fresh_named)
    # the restore a resumed run makes: take into the live slots, read t back
    wanted = fresh.state_records()
    given = dict(records)
    take_records(given, wanted)
    fresh.t = int(wanted["opt.t"])
    assert fresh.t == 3
    assert given.keys() == records.keys()             # the input is unchanged
    assert all(given[k] is records[k] for k in records)
    np.testing.assert_array_equal(fresh.slots["p0"]["m"], opt.slots["p0"]["m"])
    np.testing.assert_array_equal(fresh.slots["p0"]["v"], opt.slots["p0"]["v"])

    opt.step({"p0": np.array([0.1, -0.2])}, lr=0.01)
    fresh.step({"p0": np.array([0.1, -0.2])}, lr=0.01)
    np.testing.assert_array_equal(fresh_named[0][1].data, named[0][1].data)


def test_load_state_records_validation():
    named = params_of([1.0])
    opt = Optimizer(OptimConfig(), named)
    with pytest.raises(CheckpointError, match="missing opt.t"):
        take_records({}, opt.state_records())
    with pytest.raises(CheckpointError, match="missing opt.p0.v"):
        take_records({"opt.t": np.array(1.0)}, opt.state_records())
    with pytest.raises(CheckpointError, match=r"opt.p0.v: checkpoint has float64\(2,\)"):
        take_records({"opt.t": np.array(1.0), "opt.p0.v": np.zeros((2,))},
                     opt.state_records())


def test_failed_take_leaves_slots_unchanged():
    # a resume whose checkpoint lacks the last slot must not have restored
    # the slots before it
    opt = Optimizer(OptimConfig.preset("adam"), params_of([1.0, 2.0], [3.0]))
    opt.step({"p0": np.array([0.1, -0.2]), "p1": np.array([0.3])}, lr=0.01)
    before = {k: v.copy() for k, v in opt.state_records().items()}
    other = Optimizer(OptimConfig.preset("adam"), params_of([4.0, 5.0], [6.0]))
    for _ in range(2):
        other.step({"p0": np.array([0.5, 0.5]), "p1": np.array([-0.5])}, lr=0.01)
    records = other.state_records()
    records.pop("opt.p1.v")
    with pytest.raises(CheckpointError, match="missing opt.p1.v"):
        take_records(records, opt.state_records())
    for name, arr in opt.state_records().items():
        np.testing.assert_array_equal(arr, before[name])


def test_step_with_zero_lr_is_identity():
    # cfg.lr must be positive, but step() takes the rate as an argument
    named = params_of([[1.0, 2.0], [3.0, 4.0]])
    opt = Optimizer(OptimConfig.preset("sgd"), named)
    before = named[0][1].data.copy()
    opt.step({"p0": np.ones((2, 2))}, lr=0.0)
    np.testing.assert_array_equal(named[0][1].data, before)
