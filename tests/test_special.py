"""Accuracy and domain tests for the gamma-family kernels.

High-precision oracle: mpmath at 30 significant digits. Known closed-form
values (Γ(1)=1, ψ(1)=−γ, ψ'(1)=π²/6, ...) are asserted directly.
"""

import math

import mpmath
import numpy as np
import pytest

from tvae import _kernels as K
from tvae.errors import DomainError
from tvae.tensor import Tensor, evaluate_and_grad

mpmath.mp.dps = 30

EULER_GAMMA = 0.5772156649015329


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))


# ---------------------------------------------------------------- known values


def test_lgamma_known_values():
    assert abs(K.lgamma_scalar(1.0)) < 1e-15
    assert abs(K.lgamma_scalar(0.5) - 0.5 * math.log(math.pi)) < 1e-14
    assert abs(K.lgamma_scalar(5.0) - math.log(24.0)) < 1e-13


def test_digamma_known_values():
    assert abs(K.digamma_scalar(1.0) + EULER_GAMMA) < 1e-12
    assert abs(K.digamma_scalar(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) < 1e-12
    assert abs(K.digamma_scalar(2.0) - (1.0 - EULER_GAMMA)) < 1e-12


def test_trigamma_known_values():
    assert abs(K.trigamma_scalar(1.0) - math.pi**2 / 6.0) < 1e-10
    assert abs(K.trigamma_scalar(0.5) - math.pi**2 / 2.0) < 1e-10
    assert abs(K.trigamma_scalar(2.0) - (math.pi**2 / 6.0 - 1.0)) < 1e-10


# ---------------------------------------------------------- accuracy envelopes


def test_lgamma_accuracy_envelope():
    rng = np.random.default_rng(101)
    xs = _log_uniform(rng, 1e-3, 1e3, 2000)
    got = K.lgamma(xs)
    worst = 0.0
    for x, g in zip(xs, got):
        truth = float(mpmath.loggamma(mpmath.mpf(float(x))))
        worst = max(worst, abs(g - truth))
    assert worst < 1e-12, f"lgamma worst abs err {worst:.3e}"


def test_digamma_accuracy_envelope():
    rng = np.random.default_rng(102)
    xs = _log_uniform(rng, 1e-3, 1e3, 2000)
    got = K.digamma(xs)
    worst = 0.0
    for x, g in zip(xs, got):
        truth = float(mpmath.digamma(mpmath.mpf(float(x))))
        worst = max(worst, abs(g - truth))
    assert worst < 1e-10, f"digamma worst abs err {worst:.3e}"


def test_trigamma_accuracy_envelope():
    rng = np.random.default_rng(103)
    xs = _log_uniform(rng, 1e-3, 1e3, 2000)
    got = K.trigamma(xs)
    worst = 0.0
    for x, g in zip(xs, got):
        truth = float(mpmath.polygamma(1, mpmath.mpf(float(x))))
        worst = max(worst, abs(g - truth))
    assert worst < 1e-8, f"trigamma worst abs err {worst:.3e}"


def test_large_argument_values():
    # the frozen-dof Gaussian limit evaluates these at nu/2 = 5e5
    x = 5e5
    assert abs(K.lgamma_scalar(x) - float(mpmath.loggamma(x))) < 1e-6 * abs(
        float(mpmath.loggamma(x))
    )
    assert abs(K.digamma_scalar(x) - float(mpmath.digamma(x))) < 1e-10
    assert abs(K.trigamma_scalar(x) - float(mpmath.polygamma(1, x))) < 1e-12


# ----------------------------------------------------------------- recurrences


def test_lgamma_recurrence():
    rng = np.random.default_rng(104)
    xs = _log_uniform(rng, 0.1, 100.0, 500)
    resid = np.abs(K.lgamma(xs + 1.0) - K.lgamma(xs) - np.log(xs))
    assert resid.max() < 1e-10


def test_digamma_recurrence():
    rng = np.random.default_rng(105)
    xs = _log_uniform(rng, 0.1, 100.0, 500)
    resid = np.abs(K.digamma(xs + 1.0) - K.digamma(xs) - 1.0 / xs)
    assert resid.max() < 1e-10


def test_trigamma_recurrence():
    rng = np.random.default_rng(106)
    xs = _log_uniform(rng, 0.1, 100.0, 500)
    resid = np.abs(K.trigamma(xs + 1.0) - K.trigamma(xs) + 1.0 / xs**2)
    assert resid.max() < 1e-10


# -------------------------------------------------------------- domain & shape


@pytest.mark.parametrize("fn", [K.lgamma, K.digamma, K.trigamma])
def test_nonpositive_arguments_rejected(fn):
    with pytest.raises(DomainError):
        fn(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        fn(np.array([-3.5]))


@pytest.mark.parametrize(
    "fn", [K.lgamma_scalar, K.digamma_scalar, K.trigamma_scalar]
)
def test_nonpositive_scalars_rejected(fn):
    with pytest.raises(DomainError):
        fn(0.0)
    with pytest.raises(DomainError):
        fn(-1.0)


def test_shape_preserved():
    x = np.array([[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]])
    assert K.lgamma(x).shape == x.shape
    assert K.digamma(x).shape == x.shape
    assert K.trigamma(x).shape == x.shape


# ------------------------------------------------------- array/scalar parity


@pytest.mark.parametrize(
    "fn, scalar",
    [
        (K.lgamma, K.lgamma_scalar),
        (K.digamma, K.digamma_scalar),
        (K.trigamma, K.trigamma_scalar),
    ],
)
def test_array_kernels_equal_their_scalar_kernels(fn, scalar):
    # both sides of the reflection at 0.5 and of the series switch at 6
    edges = [0.5, 6.0]
    xs = [np.nextafter(e, 0.0) for e in edges] + edges
    xs += [np.nextafter(e, 10.0) for e in edges] + [1e-3, 0.25, 1.0, 3.0, 40.0, 1e5]
    flat = np.array(xs)
    for x in (flat[3], flat, flat.reshape(3, 4)):
        got = fn(x)
        expected = np.array([scalar(v) for v in np.ravel(x)]).reshape(np.shape(x))
        assert got.shape == np.shape(x)
        assert np.array_equal(got, expected)


def test_zero_dim_inputs_and_gradients_keep_their_shape():
    for fn in (K.lgamma, K.digamma, K.trigamma):
        assert fn(np.float64(3.0)).shape == ()
        assert fn(np.array(3.0)).shape == ()
    x = Tensor.param(np.array(3.0), "x")
    _, grads = evaluate_and_grad(x.lgamma().digamma().sum())
    grad = grads["x"]
    assert grad.shape == ()
    x.assign_(x.data - 0.1 * grad.data)


@pytest.mark.parametrize("fn", [K.lgamma, K.digamma, K.trigamma])
def test_public_api_reports_bad_flat_index(fn):
    with pytest.raises(DomainError, match="flat index 2"):
        fn(np.array([[2.0, 3.0], [-1.0, 4.0]]))
