import numpy as np
import pytest

from routeseg import tensor as T
from routeseg.gradcheck import REL_FLOOR, grad_check
from routeseg.tensor import Tensor

EXPECTED_OPS = {
    "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "clip", "relu",
    "sigmoid", "gelu", "reshape", "transpose", "concat", "sum", "mean",
    "matmul", "softmax", "conv2d", "conv2d_depthwise", "conv2d_depthwise_bias",
    "layer_norm", "batch_norm", "gather_regions",
    "routed_attention", "block", "channel_spatial_fuse",
    "dice_loss", "ce_loss", "hybrid_loss", "micro_model",
}


def test_grad_check_accepts_correct_gradient():
    rep = grad_check(lambda p: T.sum_(T.mul(p["a"], p["a"])),
                     {"a": np.array([0.5, -1.5, 2.0])}, op="square")
    assert rep.passed
    assert rep.coords_checked == 3
    assert rep.max_rel_err < 1e-8
    assert "square" in rep.summary() and "ok" in rep.summary()


def test_grad_check_detects_wrong_backward():
    # forward is x^2 but the reported gradient is x, not 2x
    def broken(p):
        a = p["a"]
        out = T.mul(a, a)
        if a.tape is not None:
            ad = a.data
            fake = a.tape._append("bad_square", (a.node,), lambda g: (g * ad,))
            out = Tensor(out.data, tape=a.tape, node=fake)
        return T.sum_(out)

    rep = grad_check(broken, {"a": np.array([1.0, 2.0])}, op="bad")
    assert not rep.passed
    assert rep.max_rel_err > 0.4
    assert "FAIL" in rep.summary()


def test_grad_check_fails_a_nan_gradient():
    # the forward is x^2 but the backward returns NaN; a NaN compares
    # greater than nothing, so a running maximum would have kept 0
    def nan_square(p):
        a = p["a"]
        out = T.mul(a, a)
        if a.tape is not None:
            fake = a.tape._append("nan_square", (a.node,),
                                  lambda g: (np.full_like(a.data, np.nan),))
            out = Tensor(out.data, tape=a.tape, node=fake)
        return T.sum_(out)

    rep = grad_check(nan_square, {"a": np.array([1.0, 2.0])}, op="nan_square")
    assert not rep.passed
    assert np.isnan(rep.max_rel_err)
    assert "max rel err nan" in rep.summary() and "FAIL" in rep.summary()


@pytest.mark.parametrize("step", [np.nan, np.inf])
def test_grad_check_fails_a_non_finite_step(step):
    rep = grad_check(lambda p: T.sum_(T.mul(p["a"], p["a"])),
                     {"a": np.array([0.5, -1.5])}, step=step)
    assert not rep.passed


def test_grad_check_rejects_float32_and_nonscalar():
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda p: T.sum_(p["a"]), {"a": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda p: p["a"], {"a": np.zeros(2)})


def test_grad_check_caps_sampled_coordinates():
    rep = grad_check(lambda p: T.sum_(T.mul(p["a"], p["a"])),
                     {"a": np.arange(100, dtype=np.float64)},
                     max_coords_per_param=7, seed=3)
    assert rep.coords_checked == 7
    assert rep.passed


def test_grad_check_handles_vanishing_gradient_coords():
    # both analytic and numeric are 0 at the relu dead zone; the floor
    # keeps the comparison absolute instead of 0/0
    rep = grad_check(lambda p: T.sum_(T.relu(p["a"])),
                     {"a": np.array([-3.0, -2.0])}, op="dead")
    assert rep.passed and rep.max_rel_err <= REL_FLOOR


def test_standard_suite_covers_every_op_and_passes(gradcheck_reports):
    names = {r.op for r in gradcheck_reports}
    assert names == EXPECTED_OPS
    failed = [r.summary() for r in gradcheck_reports if not r.passed]
    assert not failed, f"gradient checks failed: {failed}"


def test_standard_suite_tolerances(gradcheck_reports):
    by_name = {r.op: r for r in gradcheck_reports}
    for rep in gradcheck_reports:
        assert rep.tol == 1e-3 and rep.step == 1e-4
        assert rep.max_rel_err <= rep.tol
    # composites are the expensive, load-bearing entries
    for name in ("routed_attention", "block", "channel_spatial_fuse",
                 "hybrid_loss", "micro_model"):
        assert by_name[name].coords_checked > 0
    # the end-to-end entry samples a bounded number of coords per tensor
    assert by_name["micro_model"].coords_checked <= 2 * 200
