"""Finite-difference checker: the two-step reference around kinks."""

import numpy as np
import pytest

from stereosr import tensor as T
from stereosr.gradcheck import check_gradients, numerical_gradient, scaled_max_error
from stereosr.tensor import Tensor


def _abs_point(first):
    return Tensor(np.array([first, 0.3, -0.7]), requires_grad=True, dtype=np.float64)


def test_kink_between_the_two_steps_is_accepted():
    """|x| at 5e-5: the eps=1e-4 step straddles the kink, eps/10 does not."""
    x = _abs_point(5e-5)
    report = check_gradients(lambda: T.absolute(x).sum(), [("x", x)], eps=1e-4)
    assert report["x"] < 1e-9


def test_kink_between_the_two_steps_fails_one_step_alone():
    """The same case through the plain central difference is 0.5 off."""
    x = _abs_point(5e-5)
    numeric = numerical_gradient(lambda: T.absolute(x).sum(), x, eps=1e-4)
    assert scaled_max_error(np.sign(x.data), numeric) == pytest.approx(0.5)


def test_kink_within_the_smaller_step_is_still_reported():
    x = _abs_point(5e-6)
    report = check_gradients(lambda: T.absolute(x).sum(), [("x", x)], eps=1e-4)
    assert report["x"] == pytest.approx(0.5)


@pytest.mark.parametrize("elementwise", [False, True])
def test_wrong_vjp_is_reported(monkeypatch, elementwise):
    """A vjp 1 % too large misses both references by 0.01/1.01."""
    absolute = T.absolute

    def scaled_absolute(a):
        out = absolute(a)
        vjp = out._vjp
        out._vjp = lambda g: tuple(1.01 * pg for pg in vjp(g))
        return out

    monkeypatch.setattr(T, "absolute", scaled_absolute)
    x = _abs_point(5e-5)
    report = check_gradients(
        lambda: T.absolute(x).sum(), [("x", x)], eps=1e-4, elementwise=elementwise
    )
    assert report["x"] == pytest.approx(0.01 / 1.01, rel=1e-3)


@pytest.mark.parametrize("eps", [0.0, -1e-4, float("nan"), float("inf")])
def test_bad_step_rejected(eps):
    x = Tensor(np.array([0.3]), requires_grad=True, dtype=np.float64)
    with pytest.raises(ValueError, match="finite and positive"):
        numerical_gradient(lambda: (x * x).sum(), x, eps=eps)
