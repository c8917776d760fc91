"""Gamma-family special functions: log-gamma, digamma, trigamma.

Public API: ``lgamma``, ``digamma``, ``trigamma`` (ndarray in/out, any
shape) and their ``*_scalar`` variants. All require strictly positive
arguments and raise :class:`~tvae.errors.DomainError` otherwise.

Algorithms:
  * log-gamma: Lanczos approximation (g=7, 9 coefficients) with reflection
    below 0.5. The dominant term (x-0.5)*ln(t) - t is accumulated with an
    exact two-product plus Neumaier summation so the absolute error stays
    below 1e-12 across [1e-3, 1e3] despite results of magnitude ~6e3.
  * digamma / trigamma: recurrence shift up to x >= 6, then the Bernoulli
    asymptotic series.
"""

import math

import numpy as np

from ..errors import DomainError

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "lgamma",
    "digamma",
    "trigamma",
    "lgamma_scalar",
    "digamma_scalar",
    "trigamma_scalar",
]

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.9189385332046727
_LN_PI = 1.1447298858494002
# B_{2n} / (2n) for psi(x) ~ ln x - 1/(2x) - sum c_n / x^{2n}
_PSI_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)
# B_{2n} for psi'(x) ~ 1/x + 1/(2x^2) + (1/x) * sum c_n / x^{2n}
_PSI1_SERIES = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitter


def _lgamma_positive(x):
    """Lanczos series for x >= 0.5, compensated accumulation."""
    z = x - 1.0
    a = _LANCZOS_COEF[0]
    for i in range(1, 9):
        a += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    b = z + 0.5
    lt = math.log(t)
    # exact product b*lt = p + perr (Dekker two-product)
    p = b * lt
    b1 = b * _SPLIT
    bh = b1 - (b1 - b)
    bl = b - bh
    l1 = lt * _SPLIT
    lh = l1 - (l1 - lt)
    ll = lt - lh
    perr = ((bh * lh - p) + bh * ll + bl * lh) + bl * ll
    # Neumaier-compensated sum of the remaining terms
    s = p
    c = 0.0
    for term in (perr, -t, _LN_SQRT_2PI, math.log(a)):
        tmp = s + term
        if abs(s) >= abs(term):
            c += (s - tmp) + term
        else:
            c += (term - tmp) + s
        s = tmp
    return s + c


def _lgamma(x):
    """ln Gamma(x) for x > 0."""
    if x < 0.5:
        # reflection keeps the series argument >= 0.5
        return _LN_PI - math.log(math.sin(math.pi * x)) - _lgamma_positive(1.0 - x)
    return _lgamma_positive(x)


def _digamma(x):
    """psi(x) for x > 0."""
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    s = 0.0
    for coef in reversed(_PSI_SERIES):
        s = (s + coef) * r
    return acc + math.log(x) - 0.5 / x - s


def _trigamma(x):
    """psi'(x) for x > 0."""
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    s = 0.0
    for coef in reversed(_PSI1_SERIES):
        s = (s + coef) * r
    return acc + 1.0 / x + 0.5 * r + s / x


def _elementwise(fn, name, x):
    arr = np.asarray(x, dtype=np.float64)
    bad = np.flatnonzero(arr <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{name} requires a positive argument; got {float(arr.flat[i])!r} "
            f"at flat index {i}"
        )
    return np.array([fn(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def lgamma(x):
    """Elementwise ln Gamma(x) for x > 0."""
    return _elementwise(_lgamma, "lgamma", x)


def digamma(x):
    """Elementwise psi(x) = d/dx ln Gamma(x) for x > 0."""
    return _elementwise(_digamma, "digamma", x)


def trigamma(x):
    """Elementwise psi'(x) = d^2/dx^2 ln Gamma(x) for x > 0."""
    return _elementwise(_trigamma, "trigamma", x)


def _scalar(fn, name, x):
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"{name} requires a positive argument; got {x!r}")
    return fn(x)


def lgamma_scalar(x):
    return _scalar(_lgamma, "lgamma", x)


def digamma_scalar(x):
    return _scalar(_digamma, "digamma", x)


def trigamma_scalar(x):
    return _scalar(_trigamma, "trigamma", x)
