"""Student-t mixture in latent space.

The mixture is optimized through unconstrained raw parameters:
  * mixing logits m (softmax gives the weights pi),
  * dof pre-activations n with nu = ln(exp(n) + exp(2+eps)), computed in
    the equivalent overflow-safe form nu = (2+eps) + softplus(n - (2+eps)),
    which keeps every nu strictly above 2,
  * component means mu,
  * scale factors C held as a strictly-lower-triangular raw matrix plus a
    log-parameterized diagonal, with Sigma = C C^T + sigma_jitter^2 I kept
    positive definite by construction.

Closed-form posterior statistics for the Gamma-scale and cluster latents:
    alpha_k  = (nu_k + D) / 2
    beta_nk  = [nu_k + Tr(Sigma_n Sigma_k^-1)
                + (mu_n - mu_k)^T Sigma_k^-1 (mu_n - mu_k)] / 2
    ln qz_nk = ln pi_k + (nu_k/2) ln(nu_k/2) - lnG(nu_k/2)
               - ln|Sigma_k|/2 + lnG(alpha_k) - alpha_k ln beta_nk
up to a per-row constant; responsibilities are the row softmax, and
    ln rho_nk = ln qz_nk - H(Gamma(alpha_k, beta_nk)) - D ln(2 pi)/2
feeds the cross-entropy part of the lower bound.

Everything here runs on the autodiff graph so gradients reach both the
encoder outputs and the raw mixture parameters, except the numpy-only
helpers: the scoring E-step (``scoring_constants`` and
``score_responsibilities``, which repeat the graph's operations in its
order and so give bit-identical responsibilities), the GMM warm start and
the closed-form refit of the mixture to labeled latents (``refit_labeled``
with its dof solve ``solve_dof``).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .distributions import (
    sample_categorical_array,
    sample_gamma_array,
    standard_normal_array,
)
from .errors import ContractViolation, DomainError, NumericFault
from .tensor import Tensor, stack

log = logging.getLogger(__name__)

NU_FLOOR = 2.0
NU_FLOOR_EPS = 1e-3
BETA_UNDERFLOW_GUARD = 1e-30
LN_2PI = math.log(2.0 * math.pi)
DOF_SOLVE_MIN = 2.01  # range of the closed-form dof update; the top end
DOF_SOLVE_MAX = 1e6  # stands for the Gaussian limit
DOF_SOLVE_TOL = 1e-12  # relative step at which solve_dof stops
DOF_SOLVE_MAX_ITER = 100
# A component's own rows fit its Sigma_k, so their in-sample distances
# spread less than fresh rows do; for Gaussian rows their spread is about
# (N_k - D - 1) / (N_k + 1) of the fresh one, under half below 2D rows,
# and at N_k <= D + 1 every row is about equally far out. A component
# with fewer than DOF_OWN_ROWS_PER_DIM * D rows therefore adds
# DOF_PSEUDO_ROWS_PER_DIM * D pseudo-rows at the mixture-wide mean to its
# dof equation; at or above it, only its own rows count. Large components
# are not pooled: near the Gaussian limit the dof equation is flat and the
# pooled term acts on every pass, so even 1.3% of the weight on it holds a
# Gaussian component of 600 rows in 8 dims at nu = 23-31 next to a nu = 3
# one.
DOF_OWN_ROWS_PER_DIM = 2
DOF_PSEUDO_ROWS_PER_DIM = 1


def nu_floor_constant():
    """The additive floor in nu = floor + softplus(n - floor)."""
    return NU_FLOOR + NU_FLOOR_EPS


def raw_dof_for_nu(nu):
    """Invert the dof activation: the n giving exactly this nu (nu > floor)."""
    c = nu_floor_constant()
    if not nu > c:
        raise DomainError(f"nu must exceed {c}, got {nu!r}")
    # n = c + ln(exp(nu - c) - 1), stable for large nu
    gap = nu - c
    if gap > 30.0:
        return float(nu)  # exp(-gap) below double precision
    return c + math.log(math.expm1(gap))


class SmmRawParams:
    """Unconstrained trainable mixture parameters."""

    def __init__(self, m, n, mu, c_raw, c_logdiag, sigma_jitter_sq):
        self.m = m if isinstance(m, Tensor) else Tensor.param(m, "mix.m")
        self.n = n if isinstance(n, Tensor) else Tensor.param(n, "mix.n")
        self.mu = mu if isinstance(mu, Tensor) else Tensor.param(mu, "mix.mu")
        self.c_raw = (
            c_raw if isinstance(c_raw, Tensor) else Tensor.param(c_raw, "mix.C_raw")
        )
        self.c_logdiag = (
            c_logdiag
            if isinstance(c_logdiag, Tensor)
            else Tensor.param(c_logdiag, "mix.C_logdiag")
        )
        self.sigma_jitter_sq = float(sigma_jitter_sq)
        k = self.m.shape[0]
        d = self.mu.shape[1] if self.mu.ndim == 2 else -1
        if (
            self.n.shape != (k,)
            or self.mu.shape != (k, d)
            or self.c_raw.shape != (k, d, d)
            or self.c_logdiag.shape != (k, d)
        ):
            raise ContractViolation(
                "inconsistent raw mixture shapes: "
                f"m {self.m.shape}, n {self.n.shape}, mu {self.mu.shape}, "
                f"C_raw {self.c_raw.shape}, C_logdiag {self.c_logdiag.shape}"
            )
        if not self.sigma_jitter_sq > 0.0:
            raise ContractViolation("sigma_jitter_sq must be positive")
        self.K = k
        self.D = d

    def params(self):
        return {
            t.name: t
            for t in (self.m, self.n, self.mu, self.c_raw, self.c_logdiag)
        }


@dataclass
class SmmParams:
    """Materialized (constrained) mixture parameters, on the graph."""

    pi: Tensor  # (K,)
    nu: Tensor  # (K,) each > 2
    mu: Tensor  # (K, D)
    sigma: list  # K Tensors (D, D), SPD
    sigma_inv: list  # K Tensors (D, D)
    log_det_sigma: Tensor  # (K,)
    sigma_chol: np.ndarray  # (K, D, D) numeric Cholesky factors, for sampling

    @property
    def K(self):
        return self.pi.shape[0]

    @property
    def D(self):
        return self.mu.shape[1]


@dataclass
class PosteriorStats:
    """Closed-form posterior pieces for one batch."""

    alpha: Tensor  # (K,)
    beta: Tensor  # (N, K)
    log_qz: Tensor  # (N, K), unnormalized per row
    gamma: Tensor  # (N, K), rows sum to 1
    log_rho: Tensor  # (N, K)


def materialize_params(raw):
    """Constrain raw parameters: simplex pi, nu > 2, SPD Sigma with fresh
    Cholesky factors. Differentiable end-to-end."""
    k_comp, d = raw.K, raw.D
    pi = raw.m.softmax()
    c = nu_floor_constant()
    nu = (raw.n - c).softplus() + c
    strict_mask = Tensor(np.tril(np.ones((d, d)), k=-1))
    eye = Tensor(np.eye(d) * raw.sigma_jitter_sq)
    sigma, sigma_inv, log_dets = [], [], []
    for k in range(k_comp):
        c_k = raw.c_raw.take(k) * strict_mask + raw.c_logdiag.take(k).exp().diag_embed()
        sig = c_k @ c_k.T + eye
        sigma.append(sig)
        sigma_inv.append(sig.inverse())
        log_dets.append(sig.logdet())
    try:
        chols = np.linalg.cholesky(np.stack([sig.data for sig in sigma]))
    except np.linalg.LinAlgError:  # cannot happen for jitter > 0
        for k, sig in enumerate(sigma):
            try:
                np.linalg.cholesky(sig.data)
            except np.linalg.LinAlgError as exc:
                raise NumericFault(
                    f"scale matrix {k} lost positive definiteness: {exc}"
                ) from exc
        raise
    params = SmmParams(
        pi=pi,
        nu=nu,
        mu=raw.mu,
        sigma=sigma,
        sigma_inv=sigma_inv,
        log_det_sigma=stack(log_dets),
        sigma_chol=chols,
    )
    if abs(float(params.pi.data.sum()) - 1.0) > 1e-9:
        raise NumericFault("mixing weights drifted off the simplex")
    if not (params.nu.data > NU_FLOOR).all():
        raise NumericFault("a dof slipped below its floor")
    return params


def compute_alpha(params, d_latent):
    """alpha_k = (nu_k + D) / 2."""
    if d_latent < 1:
        raise ContractViolation(f"latent dimension must be >= 1, got {d_latent}")
    return (params.nu + float(d_latent)) * 0.5


def compute_beta(enc, params):
    """beta_nk = [nu_k + trace + Mahalanobis] / 2, shape (N, K)."""
    var = (enc.log_std_x * 2.0).exp()  # (N, D) encoder variances
    cols = []
    for k in range(params.K):
        inv_k = params.sigma_inv[k]
        trace = (var * inv_k.diag_part()).sum(axis=1)
        diff = enc.mu_x - params.mu.take(k).reshape(1, params.D)
        quad = ((diff @ inv_k) * diff).sum(axis=1)
        cols.append((params.nu.take(k) + trace + quad) * 0.5)
    return stack(cols, axis=1)


def _warn_beta_underflow(beta):
    """Log the smallest entry of the (N, K) array ``beta`` when it falls
    below the underflow guard; a clamp hit is not fatal."""
    if (beta < BETA_UNDERFLOW_GUARD).any():
        n_idx, k_idx = np.unravel_index(np.argmin(beta), beta.shape)
        log.warning(
            "beta underflow clamped at (n=%d, k=%d): %.3e",
            n_idx,
            k_idx,
            float(beta[n_idx, k_idx]),
        )


def _log_beta(beta):
    """ln beta with an underflow guard; a clamp hit is logged, not fatal."""
    _warn_beta_underflow(beta.data)
    return beta.clip_min(BETA_UNDERFLOW_GUARD).log()


def _check_log_qz(log_qz):
    """Raise NumericFault at the first non-finite entry of an (N, K) array."""
    if not np.isfinite(log_qz).all():
        n_idx, k_idx = np.argwhere(~np.isfinite(log_qz))[0]
        raise NumericFault(f"log_qz non-finite at (n={n_idx}, k={k_idx})")


def _log_qz_const(params, alpha):
    """The per-component part of ln qz_nk, shape (K,)."""
    half_nu = params.nu * 0.5
    return (
        params.pi.log()
        + half_nu * half_nu.log()
        - half_nu.lgamma()
        - params.log_det_sigma * 0.5
        + alpha.lgamma()
    )


def compute_log_qz(enc, params, alpha, beta):
    """Unnormalized log posterior class scores, shape (N, K)."""
    const_k = _log_qz_const(params, alpha)
    out = const_k.reshape(1, params.K) - alpha.reshape(1, params.K) * _log_beta(beta)
    _check_log_qz(out.data)
    return out


def responsibilities(log_qz):
    """Row-wise softmax of the class scores."""
    return log_qz.softmax(axis=-1)


def compute_log_rho(log_qz, alpha, beta, d_latent):
    """ln rho_nk = ln qz_nk - H(Gamma(alpha_k, beta_nk)) - D ln(2 pi) / 2."""
    if d_latent < 1:
        raise ContractViolation(f"latent dimension must be >= 1, got {d_latent}")
    k_count = alpha.shape[0]
    # gamma entropy: alpha - ln beta + lnG(alpha) + (1 - alpha) psi(alpha)
    ent_k = (alpha + alpha.lgamma() + (1.0 - alpha) * alpha.digamma()).reshape(
        1, k_count
    )
    entropy = ent_k - _log_beta(beta)
    return log_qz - entropy - 0.5 * d_latent * LN_2PI


def posterior_stats(enc, params):
    """All posterior pieces for a batch of encoder outputs."""
    d_latent = params.D
    alpha = compute_alpha(params, d_latent)
    beta = compute_beta(enc, params)
    log_qz = compute_log_qz(enc, params, alpha, beta)
    gamma = responsibilities(log_qz)
    log_rho = compute_log_rho(log_qz, alpha, beta, d_latent)
    return PosteriorStats(
        alpha=alpha, beta=beta, log_qz=log_qz, gamma=gamma, log_rho=log_rho
    )


# ------------------------------------------------------- scoring E-step


@dataclass
class ScoringConstants:
    """What ``score_responsibilities`` reads of one mixture, as arrays."""

    nu: np.ndarray  # (K,)
    alpha: np.ndarray  # (1, K)
    const_k: np.ndarray  # (1, K), the per-component part of ln qz
    sigma_inv: list  # K arrays (D, D)
    inv_diag: list  # K arrays (D,), the diagonals of sigma_inv
    mu: np.ndarray  # (K, D)


def scoring_constants(params):
    """The per-mixture constants of the scoring E-step, from materialized
    parameters that need no gradient. ``alpha`` and ``const_k`` are
    computed by the graph's own expressions."""
    alpha = compute_alpha(params, params.D)
    return ScoringConstants(
        nu=params.nu.data,
        alpha=alpha.data.reshape(1, params.K),
        const_k=_log_qz_const(params, alpha).data.reshape(1, params.K),
        sigma_inv=[inv.data for inv in params.sigma_inv],
        inv_diag=[np.diag(inv.data).copy() for inv in params.sigma_inv],
        mu=params.mu.data,
    )


def score_responsibilities(consts, mu_x, log_std_x):
    """Responsibilities gamma, shape (N, K), of constant encoder outputs.

    Repeats compute_beta, compute_log_qz and responsibilities in numpy,
    operation by operation and in the same order, so gamma has the bits of
    ``posterior_stats(enc, params).gamma`` without its graph, its
    per-op finiteness checks or the unused ln rho. Only (N, D) and (N, K)
    temporaries are made. A clamped beta logs the same warning, and a
    non-finite ln qz raises the same NumericFault.
    """
    var = np.exp(log_std_x * 2.0)
    cols = []
    for k, inv_k in enumerate(consts.sigma_inv):
        trace = (var * consts.inv_diag[k]).sum(axis=1)
        diff = mu_x - consts.mu[k]
        quad = diff @ inv_k
        quad *= diff
        cols.append((consts.nu[k] + trace + quad.sum(axis=1)) * 0.5)
    beta = np.stack(cols, axis=1)
    _warn_beta_underflow(beta)
    log_qz = consts.const_k - consts.alpha * np.log(
        np.maximum(beta, BETA_UNDERFLOW_GUARD)
    )
    _check_log_qz(log_qz)
    log_qz -= log_qz.max(axis=-1, keepdims=True)
    gamma = np.exp(log_qz, out=log_qz)
    gamma /= gamma.sum(axis=-1, keepdims=True)
    return gamma


# ------------------------------------------------------ closed-form refit


def solve_dof(gap):
    """Root in nu of ln(nu/2) + 1 - psi(nu/2) + gap = 0.

    ``gap`` is a component's mean of E[ln u] - E[u] (always below -1); the
    left-hand side falls monotonically in nu, so the root is unique. Newton steps
    fall back to bisection whenever they leave the current bracket. Roots
    outside [DOF_SOLVE_MIN, DOF_SOLVE_MAX] are clipped to its ends; the
    upper end stands for the Gaussian limit.
    """

    def f(nu):
        return math.log(nu / 2.0) + 1.0 - _kernels.digamma_scalar(nu / 2.0) + gap

    lo, hi = DOF_SOLVE_MIN, DOF_SOLVE_MAX
    if f(lo) <= 0.0:
        return lo
    if f(hi) >= 0.0:
        return hi
    # start from ln x - psi(x) ~ 1/(2x) + 1/(12x^2) = g at x = nu/2
    g = -(1.0 + gap)
    nu = min(max((1.0 + math.sqrt(1.0 + 4.0 * g / 3.0)) / (2.0 * g), lo), hi)
    for _ in range(DOF_SOLVE_MAX_ITER):
        value = f(nu)
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        slope = 1.0 / nu - 0.5 * _kernels.trigamma_scalar(nu / 2.0)
        step = value / slope
        nxt = nu - step
        if not lo < nxt < hi:
            nxt = math.sqrt(lo * hi)  # bisection in log scale
        if abs(nxt - nu) <= DOF_SOLVE_TOL * nu:
            return nxt
        nu = nxt
    return nu


def refit_labeled(raw, mu_n, var_n, labels):
    """One closed-form ECM pass over the mixture for labeled latents.

    With q(z) one-hot at the labels, each component sees only its own rows
    (encoder means ``mu_n`` and variances ``var_n``, both (N, D)). E-step
    at the current parameters: beta_nk as in compute_beta,
    E[u] = alpha_k / beta_nk and E[ln u] = psi(alpha_k) - ln beta_nk. Then
    pi_k is the class frequency, mu_k the E[u]-weighted mean, and
        Sigma_k = sum_n E[u_n] ((mu_n - mu_k)(mu_n - mu_k)^T + diag var_n) / N_k.
    nu_k comes from solve_dof at the mean of E[ln u] - E[u] over the N_k
    rows of component k. A component with fewer than
    DOF_OWN_ROWS_PER_DIM * D rows adds DOF_PSEUDO_ROWS_PER_DIM * D
    pseudo-rows at the mixture-wide mean (see those constants for why);
    larger components keep independent control of their tails. Components
    without rows keep their mean, scale and dof (and get weight 0).

    Works on the raw parameters in numpy, off the autodiff graph. Returns
    (weights, means, covs, nu) for raw_from_moments.
    """
    k_count, d = raw.K, raw.D
    labels = np.asarray(labels)
    if mu_n.shape != var_n.shape or mu_n.shape != (labels.shape[0], d):
        raise ContractViolation(
            f"latents {mu_n.shape} / {var_n.shape} do not match "
            f"{labels.shape[0]} labels in {d} dims"
        )
    chol = np.tril(raw.c_raw.data, k=-1) + np.exp(raw.c_logdiag.data)[:, :, None] * np.eye(d)
    covs = chol @ chol.transpose(0, 2, 1) + raw.sigma_jitter_sq * np.eye(d)
    inv = np.linalg.inv(covs)
    c = nu_floor_constant()
    nu = np.logaddexp(0.0, raw.n.data - c) + c  # the dof activation
    means = raw.mu.data.copy()
    counts = np.bincount(labels, minlength=k_count)
    present = np.flatnonzero(counts)
    gap_sums = np.zeros(k_count)  # sum over rows of E[ln u] - E[u]
    for k in present:
        rows = labels == k
        x, v = mu_n[rows], var_n[rows]
        diff = x - means[k]
        alpha = (nu[k] + d) / 2.0
        beta = (nu[k] + v @ np.diag(inv[k]) + ((diff @ inv[k]) * diff).sum(axis=1)) / 2.0
        e_u = alpha / beta
        gap_sums[k] = counts[k] * _kernels.digamma_scalar(alpha) - (np.log(beta) + e_u).sum()
        means[k] = e_u @ x / e_u.sum()
        diff = x - means[k]
        covs[k] = ((e_u[:, None] * diff).T @ diff + np.diag(e_u @ v)) / counts[k]
    pooled = gap_sums.sum() / labels.shape[0]
    pseudo = np.where(
        counts < DOF_OWN_ROWS_PER_DIM * d, DOF_PSEUDO_ROWS_PER_DIM * d, 0
    )
    for k in present:
        nu[k] = solve_dof((gap_sums[k] + pseudo[k] * pooled) / (counts[k] + pseudo[k]))
    return counts / labels.shape[0], means, covs, nu


# ------------------------------------------------------------- generative side


def sample_generative(rng, params, count):
    """Ancestral sampling: z ~ Cat(pi), u ~ Gamma(nu/2, nu/2), x ~ N(mu, Sigma/u).

    Returns (labels, u, x) as ndarrays of shapes (count,), (count,), (count, D).
    """
    d = params.D
    labels = sample_categorical_array(rng, params.pi.data, count)
    u = np.empty(count)
    x = np.empty((count, d))
    for k in range(params.K):
        idx = np.nonzero(labels == k)[0]
        if idx.size == 0:
            continue
        half_nu = float(params.nu.data[k]) / 2.0
        u_k = sample_gamma_array(rng, half_nu, half_nu, idx.size)
        z = standard_normal_array(rng, idx.size * d).reshape(idx.size, d)
        scaled = (z / np.sqrt(u_k)[:, None]) @ params.sigma_chol[k].T
        x[idx] = params.mu.data[k] + scaled
        u[idx] = u_k
    return labels, u, x


# ----------------------------------------------------------- GMM warm start


@dataclass
class GmmFit:
    """EM result used to warm-start training."""

    raw: SmmRawParams
    responsibilities: np.ndarray  # (N, K)
    log_likelihoods: list  # per-iteration total data log-likelihood


def _gaussian_mix_log_pdfs(data_t, means, chols):
    """(K, N) matrix of component log-densities.

    ``data_t`` is the contiguous (D, N) transpose of the data, so every
    elementwise pass runs along N. The K lower-triangular Cholesky factors
    are inverted in one batched call; per component, y = L_k^-1 (x - mu_k)
    is one matmul, the Mahalanobis term is the column sum of y^2 (never
    negative) and the log-determinant comes from the factor's diagonal.
    """
    d, n = data_t.shape
    inv_chols = np.linalg.inv(chols)
    half_logdets = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    out = np.empty((means.shape[0], n))
    for k, mean in enumerate(means):
        y = inv_chols[k] @ (data_t - mean[:, None])
        y *= y
        out[k] = -0.5 * (d * LN_2PI + y.sum(axis=0)) - half_logdets[k]
    return out


def _logsumexp_columns(a):
    m = a.max(axis=0)
    return m + np.log(np.exp(a - m).sum(axis=0))


def _kmeanspp_centers(data, k_count, rng):
    """k-means++ seeding; ``d2`` is the running minimum of the squared
    distances to the centers chosen so far."""
    n = data.shape[0]
    centers = [data[int(rng.integers(n))]]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k_count):
        total = d2.sum()
        if total <= 0.0:
            center = data[int(rng.integers(n))]
        else:
            r = rng.random() * total
            center = data[int(np.searchsorted(np.cumsum(d2), r))]
        centers.append(center)
        if len(centers) < k_count:
            np.minimum(d2, ((data - center) ** 2).sum(axis=1), out=d2)
    return np.array(centers)


def _floor_spd(mat, floor):
    """Project symmetric matrices onto {Sigma : Sigma >= floor*I}.

    ``mat`` is one (D, D) matrix or a (..., D, D) stack, each projected on
    its own. Eigenvalue clipping in the matrix's own eigenbasis is the
    exact maximizer of the Gaussian M-step objective under that
    constraint, so EM stays monotone even when the floor is active.
    """
    sym = (mat + np.swapaxes(mat, -1, -2)) / 2.0
    eigval, eigvec = np.linalg.eigh(sym)
    floored = eigvec * np.maximum(eigval, floor)[..., None, :]
    return floored @ np.swapaxes(eigvec, -1, -2)


def gmm_em_fit(data, k_count, rng, sigma_jitter_sq, iters=50, tol=1e-6, nu_init=5.0):
    """Fit a Gaussian mixture by EM and package it as warm-start parameters.

    k-means++ seeding; covariance eigenvalues are floored at the jitter
    level so every factorization stays well-posed; a component that loses
    all its weight is re-seeded at a random data point. Stops when the
    total log-likelihood gain drops below ``tol`` or after ``iters`` rounds.

    The O(D N) work runs per component on the (D, N) transpose of the data
    (one component's temporaries alive at a time); the O(K D^2) work runs
    once per iteration on the stack of all components.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if n < k_count:
        raise ContractViolation(f"need at least K={k_count} rows, got {n}")
    data_t = np.ascontiguousarray(data.T)
    means = _kmeanspp_centers(data, k_count, rng)
    global_cov = _floor_spd(np.cov(data.T, bias=True).reshape(d, d), sigma_jitter_sq)
    covs = np.stack([global_cov] * k_count)
    weights = np.full(k_count, 1.0 / k_count)
    resp_t = np.full((k_count, n), 1.0 / k_count)  # responsibilities, (K, N)
    lls = []
    for _ in range(iters):
        chols = np.linalg.cholesky(covs)
        scores = _gaussian_mix_log_pdfs(data_t, means, chols)
        scores += np.log(weights)[:, None]
        row_ll = _logsumexp_columns(scores)
        lls.append(float(row_ll.sum()))
        scores -= row_ll
        resp_t = np.exp(scores, out=scores)
        if len(lls) > 1 and lls[-1] - lls[-2] < tol:
            break
        counts = resp_t.sum(axis=1)
        dead = counts < 1e-8
        live = np.flatnonzero(~dead)
        scatters = np.empty((live.size, d, d))
        for i, k in enumerate(live):
            means[k] = data_t @ resp_t[k] / counts[k]
            diff = data_t - means[k][:, None]
            scatters[i] = (diff * resp_t[k]) @ diff.T / counts[k]
        covs[live] = _floor_spd(scatters, sigma_jitter_sq)
        for k in np.flatnonzero(dead):  # dead component: re-seed, keep going
            means[k] = data[int(rng.integers(n))]
            covs[k] = global_cov
            counts[k] = 1.0
            resp_t[k] = 1.0 / n
        weights = counts / counts.sum()

    raw = raw_from_moments(weights, means, covs, sigma_jitter_sq, nu_init)
    return GmmFit(
        raw=raw,
        responsibilities=np.ascontiguousarray(resp_t.T),
        log_likelihoods=lls,
    )


def raw_from_moments(weights, means, covs, sigma_jitter_sq, nu_init=5.0):
    """Package mixture moments as raw parameters.

    Per component, C_k C_k^T reproduces cov_k - jitter*I (eigenvalues
    floored so the factorization stays well-posed); weights enter through
    their logits and the dofs start at ``nu_init`` (a scalar for all
    components, or one value each).
    """
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    covs = np.asarray(covs, dtype=np.float64)
    k_count, d = means.shape
    bare = covs - sigma_jitter_sq * np.eye(d)
    eigval, eigvec = np.linalg.eigh((bare + bare.transpose(0, 2, 1)) / 2.0)
    eigval = np.maximum(eigval, 1e-8)
    chol = np.linalg.cholesky(
        (eigvec * eigval[:, None, :]) @ eigvec.transpose(0, 2, 1) + 1e-12 * np.eye(d)
    )
    return SmmRawParams(
        m=np.log(np.maximum(weights, 1e-12)),
        n=np.array([raw_dof_for_nu(nu) for nu in np.broadcast_to(nu_init, k_count)]),
        mu=means.copy(),
        c_raw=np.tril(chol, k=-1),
        c_logdiag=np.log(np.diagonal(chol, axis1=1, axis2=2)),
        sigma_jitter_sq=sigma_jitter_sq,
    )
