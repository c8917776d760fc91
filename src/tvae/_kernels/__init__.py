"""Gamma-family special functions.

The algorithms live in the pure-Python module ``special_py``; this layer
adds the array interface and the domain checks.

Public API: ``lgamma``, ``digamma``, ``trigamma`` (ndarray in/out, any
shape) and their ``*_scalar`` variants. All require strictly positive
arguments and raise :class:`~tvae.errors.DomainError` otherwise.
"""

import numpy as np

from ..errors import DomainError
from . import special_py

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


def _elementwise(into, name, x):
    arr = np.ascontiguousarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    bad = into(flat, out)
    if bad >= 0:
        raise DomainError(
            f"{name} requires a positive argument; got {float(flat[bad])!r} "
            f"at flat index {bad}"
        )
    return out.reshape(arr.shape)


def lgamma(x):
    """Elementwise ln Gamma(x) for x > 0."""
    return _elementwise(special_py.lgamma_into, "lgamma", x)


def digamma(x):
    """Elementwise psi(x) = d/dx ln Gamma(x) for x > 0."""
    return _elementwise(special_py.digamma_into, "digamma", x)


def trigamma(x):
    """Elementwise psi'(x) = d^2/dx^2 ln Gamma(x) for x > 0."""
    return _elementwise(special_py.trigamma_into, "trigamma", x)


def _scalar(fn, name, x):
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"{name} requires a positive argument; got {x!r}")
    return fn(x)


def lgamma_scalar(x):
    return _scalar(special_py.lgamma_scalar, "lgamma", x)


def digamma_scalar(x):
    return _scalar(special_py.digamma_scalar, "digamma", x)


def trigamma_scalar(x):
    return _scalar(special_py.trigamma_scalar, "trigamma", x)
