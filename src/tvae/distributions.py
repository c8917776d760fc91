"""Reference densities, entropies, and samplers.

These are plain-ndarray computations: the training loss re-expresses the
same formulas on the autodiff graph, and the tests compare the two routes.
Scale matrices are handled through their Cholesky factors only (log-dets
from the factor diagonal, Mahalanobis terms by solving against the factor
with numpy).

All samplers draw from an explicit ``numpy.random.Generator`` so a seed
fixes the entire stream.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ContractViolation, DomainError
from .tensor import Tensor

LN_2PI = math.log(2.0 * math.pi)


# --------------------------------------------------------------------- types


@dataclass(frozen=True)
class DiagGaussian:
    """Independent Gaussian per coordinate: N(mean_d, exp(log_std_d)^2)."""

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        log_std = np.asarray(self.log_std, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_std", log_std)
        if mean.shape != log_std.shape or mean.ndim != 1:
            raise ContractViolation(
                f"DiagGaussian needs matching vectors, got {mean.shape} "
                f"and {log_std.shape}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(log_std).all()):
            raise ContractViolation("DiagGaussian parameters must be finite")


@dataclass(frozen=True)
class GammaDist:
    """Gamma with shape alpha and *rate* beta (mean alpha/beta)."""

    shape_alpha: float
    rate_beta: float

    def __post_init__(self):
        if not (self.shape_alpha > 0.0 and self.rate_beta > 0.0):
            raise DomainError(
                f"Gamma parameters must be positive, got shape="
                f"{self.shape_alpha!r} rate={self.rate_beta!r}"
            )


@dataclass(frozen=True)
class StudentT:
    """Multivariate Student-t with mean, SPD scale matrix, and dof nu."""

    mean: np.ndarray
    scale: np.ndarray
    dof_nu: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        d = mean.shape[0]
        if mean.ndim != 1 or scale.shape != (d, d):
            raise ContractViolation(
                f"StudentT shapes inconsistent: mean {mean.shape}, "
                f"scale {scale.shape}"
            )
        if np.abs(scale - scale.T).max() > 1e-12:
            raise ContractViolation("StudentT scale must be symmetric")
        if not self.dof_nu > 0.0:
            raise DomainError(f"StudentT dof must be positive, got {self.dof_nu!r}")
        try:
            chol = np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"StudentT scale is not positive definite: {exc}")
        object.__setattr__(self, "_chol", chol)

    @property
    def chol(self):
        return self._chol


# ------------------------------------------------------------- log densities


def gaussian_diag_log_pdf(x, g):
    """Log-density of a diagonal Gaussian at vector x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != g.mean.shape:
        raise ContractViolation(
            f"dimension mismatch: x {x.shape} vs mean {g.mean.shape}"
        )
    d = x.shape[0]
    z = (x - g.mean) * np.exp(-g.log_std)
    return float(-0.5 * d * LN_2PI - g.log_std.sum() - 0.5 * (z * z).sum())


def gaussian_diag_entropy(g):
    """H = D/2 ln(2*pi*e) + sum(log_std)."""
    d = g.mean.shape[0]
    return float(0.5 * d * (LN_2PI + 1.0) + g.log_std.sum())


def gamma_entropy(d):
    """H = alpha - ln(beta) + ln Gamma(alpha) + (1 - alpha) psi(alpha)."""
    a, b = d.shape_alpha, d.rate_beta
    return float(
        a
        - math.log(b)
        + _kernels.lgamma_scalar(a)
        + (1.0 - a) * _kernels.digamma_scalar(a)
    )


def student_t_log_pdf(x, s):
    """Closed-form log-density of the multivariate Student-t.

    Uses the Cholesky factor of the scale matrix for both the log-det and
    the Mahalanobis term (no explicit inverse).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != s.mean.shape:
        raise ContractViolation(
            f"dimension mismatch: x {x.shape} vs mean {s.mean.shape}"
        )
    d = x.shape[0]
    nu = s.dof_nu
    chol = s.chol
    y = np.linalg.solve(chol, x - s.mean)
    maha = float(y @ y)
    half_log_det = float(np.log(np.diag(chol)).sum())
    return float(
        _kernels.lgamma_scalar(0.5 * (nu + d))
        - _kernels.lgamma_scalar(0.5 * nu)
        - 0.5 * d * math.log(nu * math.pi)
        - half_log_det
        - 0.5 * (nu + d) * math.log1p(maha / nu)
    )


# ------------------------------------------------------------------ samplers


def standard_normal_array(rng, n):
    """n i.i.d. standard normals via Box-Muller on the given generator."""
    if n == 0:
        return np.empty(0, dtype=np.float64)
    pairs = (n + 1) // 2
    # 1-U keeps the argument of log strictly positive
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:n]


def sample_standard_normal(rng, shape):
    """Standard-normal Tensor of the given shape (constant, no gradient)."""
    if isinstance(shape, int):
        shape = (shape,)
    n = int(np.prod(shape)) if shape else 1
    return Tensor(standard_normal_array(rng, n).reshape(shape))


def sample_gamma_array(rng, shape_alpha, rate_beta, size):
    """Vectorized Marsaglia-Tsang draws from Gamma(shape, rate)."""
    if not (shape_alpha > 0.0 and rate_beta > 0.0):
        raise DomainError(
            f"Gamma parameters must be positive, got shape={shape_alpha!r} "
            f"rate={rate_beta!r}"
        )
    if size == 0:
        return np.empty(0, dtype=np.float64)
    boost = None
    a = shape_alpha
    if a < 1.0:
        # draw from Gamma(a+1) and multiply by U^(1/a)
        boost = rng.random(size) ** (1.0 / a)
        a = a + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size, dtype=np.float64)
    filled = 0
    while filled < size:
        k = size - filled
        x = standard_normal_array(rng, k)
        u = rng.random(k)
        v = (1.0 + c * x) ** 3
        ok = v > 0.0
        ok[ok] = np.log(u[ok]) < 0.5 * x[ok] ** 2 + d - d * v[ok] + d * np.log(v[ok])
        n_ok = int(ok.sum())
        out[filled : filled + n_ok] = d * v[ok]
        filled += n_ok
    if boost is not None:
        out *= boost
    return out / rate_beta


def sample_gamma(rng, dist):
    """One draw from Gamma(shape_alpha, rate_beta)."""
    return float(sample_gamma_array(rng, dist.shape_alpha, dist.rate_beta, 1)[0])


def _check_simplex(weights):
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or (w < 0.0).any() or abs(w.sum() - 1.0) > 1e-9:
        raise ContractViolation(
            "categorical weights must be a nonnegative vector summing to 1"
        )
    return w


def sample_categorical_array(rng, weights, size):
    """Vector of indices drawn with the given probabilities (inverse CDF)."""
    w = _check_simplex(weights)
    edges = np.cumsum(w)
    edges[-1] = 1.0  # guard against cumulative rounding
    return np.searchsorted(edges, rng.random(size), side="right").astype(np.int64)


def sample_categorical(rng, weights):
    """One index drawn with the given probabilities."""
    return int(sample_categorical_array(rng, weights, 1)[0])
