"""Mixture posterior math vs independent oracles: triangular-solve linear
algebra, adaptive quadrature of the scale-mixture integral, Gaussian-limit
E-step, and Monte-Carlo moment checks."""

import copy
import logging
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_triangular
from scipy.special import digamma as sp_digamma
from scipy.stats import gamma as sp_gamma
from scipy.stats import multivariate_normal

import tvae.distributions as dist
from tvae import data as data_mod
from tvae import mixture
from tvae.errors import ContractViolation, DomainError, NumericFault
from tvae.network import EncoderStats
from tvae.tensor import Tensor

LN_2PI = math.log(2.0 * math.pi)


def random_raw(rng, k_count=3, d=2, jitter=0.05, nu_lo=2.5, nu_hi=8.0):
    return mixture.SmmRawParams(
        m=rng.standard_normal(k_count) * 0.5,
        n=rng.uniform(nu_lo, nu_hi, k_count),
        mu=rng.standard_normal((k_count, d)) * 2.0,
        c_raw=rng.standard_normal((k_count, d, d)) * 0.3,
        c_logdiag=rng.standard_normal((k_count, d)) * 0.3,
        sigma_jitter_sq=jitter,
    )


def random_encoder_stats(rng, n, d):
    return EncoderStats(
        mu_x=Tensor(rng.standard_normal((n, d)) * 1.5),
        log_std_x=Tensor(rng.uniform(-1.5, 0.0, (n, d))),
    )


# ------------------------------------------------------------ dof activation


def test_dof_activation_round_trip():
    for nu in (2.0015, 2.5, 5.0, 30.0, 1e6):
        n_raw = mixture.raw_dof_for_nu(nu)
        raw = mixture.SmmRawParams(
            m=np.zeros(1),
            n=np.array([n_raw]),
            mu=np.zeros((1, 2)),
            c_raw=np.zeros((1, 2, 2)),
            c_logdiag=np.zeros((1, 2)),
            sigma_jitter_sq=0.1,
        )
        params = mixture.materialize_params(raw)
        assert float(params.nu.data[0]) == pytest.approx(nu, rel=1e-12)


def test_dof_floor_is_respected():
    raw = mixture.SmmRawParams(
        m=np.zeros(1),
        n=np.array([-40.0]),
        mu=np.zeros((1, 1)),
        c_raw=np.zeros((1, 1, 1)),
        c_logdiag=np.zeros((1, 1)),
        sigma_jitter_sq=0.1,
    )
    nu = float(mixture.materialize_params(raw).nu.data[0])
    assert nu == pytest.approx(mixture.nu_floor_constant(), abs=1e-12)
    assert nu > 2.0
    with pytest.raises(DomainError):
        mixture.raw_dof_for_nu(2.0)


# -------------------------------------------------------------- materialize


def test_materialize_uniform_logits_give_uniform_weights():
    raw = mixture.SmmRawParams(
        m=np.array([4.2, 4.2, 4.2]),
        n=np.full(3, 5.0),
        mu=np.zeros((3, 2)),
        c_raw=np.zeros((3, 2, 2)),
        c_logdiag=np.zeros((3, 2)),
        sigma_jitter_sq=0.1,
    )
    pi = mixture.materialize_params(raw).pi.data
    assert np.allclose(pi, 1.0 / 3.0, atol=1e-15)


def test_materialize_zero_factor_leaves_jitter_scale():
    raw = mixture.SmmRawParams(
        m=np.zeros(1),
        n=np.array([5.0]),
        mu=np.zeros((1, 2)),
        c_raw=np.zeros((1, 2, 2)),
        c_logdiag=np.full((1, 2), -40.0),  # diagonal factor ~ e^-40
        sigma_jitter_sq=0.1,
    )
    params = mixture.materialize_params(raw)
    assert np.allclose(params.sigma[0].data, 0.1 * np.eye(2), atol=1e-30)
    assert float(params.log_det_sigma.data[0]) == pytest.approx(2 * math.log(0.1))
    assert np.allclose(params.sigma_inv[0].data, 10.0 * np.eye(2), atol=1e-9)


def test_materialize_matches_numpy_assembly():
    rng = np.random.default_rng(401)
    raw = random_raw(rng, k_count=4, d=3)
    params = mixture.materialize_params(raw)
    for k in range(4):
        c = np.tril(raw.c_raw.data[k], -1) + np.diag(np.exp(raw.c_logdiag.data[k]))
        sig = c @ c.T + raw.sigma_jitter_sq * np.eye(3)
        assert np.allclose(params.sigma[k].data, sig, atol=1e-14)
        assert np.allclose(params.sigma_inv[k].data @ sig, np.eye(3), atol=1e-10)
        sign, want_logdet = np.linalg.slogdet(sig)
        assert sign == 1.0
        assert float(params.log_det_sigma.data[k]) == pytest.approx(
            want_logdet, abs=1e-10
        )
        chol = params.sigma_chol[k]
        assert np.allclose(chol @ chol.T, sig, atol=1e-12)
    assert float(params.pi.data.sum()) == pytest.approx(1.0, abs=1e-12)


def test_materialize_cholesky_factors_each_component_and_names_a_failure():
    rng = np.random.default_rng(403)
    raw = random_raw(rng, k_count=5, d=4)
    params = mixture.materialize_params(raw)
    for k in range(5):
        want = np.linalg.cholesky(params.sigma[k].data)
        assert np.array_equal(params.sigma_chol[k], want)
    bad = mixture.SmmRawParams(
        m=np.zeros(3),
        n=np.full(3, 4.0),
        mu=np.zeros((3, 2)),
        c_raw=np.zeros((3, 2, 2)),
        c_logdiag=[[1.0, 1.0], [-3.0, -3.0], [1.0, 1.0]],
        sigma_jitter_sq=0.01,
    )
    # past the constructor's check: Sigma_1 = C C^T - I is invertible with a
    # positive determinant, but not positive definite
    bad.sigma_jitter_sq = -1.0
    with pytest.raises(NumericFault, match="scale matrix 1 lost positive"):
        mixture.materialize_params(bad)


def test_raw_params_shape_validation():
    with pytest.raises(ContractViolation):
        mixture.SmmRawParams(
            m=np.zeros(2),
            n=np.zeros(3),
            mu=np.zeros((2, 2)),
            c_raw=np.zeros((2, 2, 2)),
            c_logdiag=np.zeros((2, 2)),
            sigma_jitter_sq=0.1,
        )
    with pytest.raises(ContractViolation):
        mixture.SmmRawParams(
            m=np.zeros(2),
            n=np.zeros(2),
            mu=np.zeros((2, 2)),
            c_raw=np.zeros((2, 2, 2)),
            c_logdiag=np.zeros((2, 2)),
            sigma_jitter_sq=0.0,
        )


# ---------------------------------------------------------- posterior stats


def unit_scale_raw(k_count, d, nu, means):
    """Components with Sigma_k = I exactly (0.5 from the factor, 0.5 jitter)."""
    return mixture.SmmRawParams(
        m=np.zeros(k_count),
        n=np.array([mixture.raw_dof_for_nu(v) for v in nu]),
        mu=np.asarray(means, dtype=np.float64),
        c_raw=np.zeros((k_count, d, d)),
        c_logdiag=np.full((k_count, d), math.log(math.sqrt(0.5))),
        sigma_jitter_sq=0.5,
    )


def test_alpha_values():
    raw = unit_scale_raw(2, 2, [5.0, 10.0], np.zeros((2, 2)))
    params = mixture.materialize_params(raw)
    alpha = mixture.compute_alpha(params, 2)
    assert float(alpha.data[0]) == pytest.approx(3.5, rel=1e-12)
    assert float(alpha.data[1]) == pytest.approx(6.0, rel=1e-12)
    alpha10 = mixture.compute_alpha(params, 10)
    assert float(alpha10.data[1]) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ContractViolation):
        mixture.compute_alpha(params, 0)


def test_beta_unit_case():
    # Sigma = I, encoder at the mean with unit variances:
    # beta = (nu + trace + 0) / 2 = (nu + D) / 2
    raw = unit_scale_raw(1, 2, [4.0], np.zeros((1, 2)))
    params = mixture.materialize_params(raw)
    enc = EncoderStats(
        mu_x=Tensor(np.zeros((1, 2))), log_std_x=Tensor(np.zeros((1, 2)))
    )
    beta = mixture.compute_beta(enc, params)
    assert float(beta.data[0, 0]) == pytest.approx(3.0, rel=1e-12)

    enc_off = EncoderStats(
        mu_x=Tensor(np.array([[1.0, 0.0]])), log_std_x=Tensor(np.zeros((1, 2)))
    )
    beta_off = mixture.compute_beta(enc_off, params)
    assert float(beta_off.data[0, 0]) == pytest.approx(3.5, rel=1e-12)


def test_beta_matches_triangular_solve_oracle():
    rng = np.random.default_rng(402)
    raw = random_raw(rng, k_count=3, d=3)
    params = mixture.materialize_params(raw)
    enc = random_encoder_stats(rng, 5, 3)
    beta = mixture.compute_beta(enc, params).data
    var = np.exp(2.0 * enc.log_std_x.data)
    for k in range(3):
        c = np.tril(raw.c_raw.data[k], -1) + np.diag(np.exp(raw.c_logdiag.data[k]))
        sig = c @ c.T + raw.sigma_jitter_sq * np.eye(3)
        chol = np.linalg.cholesky(sig)
        inv_diag = (solve_triangular(chol, np.eye(3), lower=True) ** 2).sum(axis=0)
        for n_i in range(5):
            y = solve_triangular(
                chol, enc.mu_x.data[n_i] - raw.mu.data[k], lower=True
            )
            want = 0.5 * (
                float(params.nu.data[k]) + var[n_i] @ inv_diag + y @ y
            )
            assert beta[n_i, k] == pytest.approx(want, rel=1e-10)


def test_single_component_responsibility_is_one():
    raw = unit_scale_raw(1, 2, [5.0], np.zeros((1, 2)))
    params = mixture.materialize_params(raw)
    enc = random_encoder_stats(np.random.default_rng(403), 4, 2)
    stats = mixture.posterior_stats(enc, params)
    assert np.array_equal(stats.gamma.data, np.ones((4, 1)))


def test_symmetric_components_share_responsibility():
    raw = unit_scale_raw(2, 2, [5.0, 5.0], [[1.5, 0.0], [-1.5, 0.0]])
    params = mixture.materialize_params(raw)
    enc = EncoderStats(
        mu_x=Tensor(np.zeros((1, 2))), log_std_x=Tensor(np.full((1, 2), -0.3))
    )
    stats = mixture.posterior_stats(enc, params)
    assert np.allclose(stats.gamma.data, 0.5, atol=1e-14)


def test_responsibilities_known_ratio_and_shift_invariance():
    log_qz = Tensor(np.array([[math.log(3.0), 0.0]]))
    gamma = mixture.responsibilities(log_qz).data
    assert gamma[0, 0] == pytest.approx(0.75, rel=1e-14)
    assert gamma[0, 1] == pytest.approx(0.25, rel=1e-14)

    rng = np.random.default_rng(404)
    scores = rng.standard_normal((6, 4))
    g1 = mixture.responsibilities(Tensor(scores)).data
    g2 = mixture.responsibilities(Tensor(scores + 123.456)).data
    assert np.allclose(g1, g2, atol=1e-12)
    assert np.allclose(g1.sum(axis=1), 1.0, atol=1e-9)


def test_posterior_scores_match_log_u_quadrature():
    # oracle: qz_nk is, up to a per-row constant, the integral over the
    # Gamma scale of pi_k N(mu_n | mu_k, Sigma_k/u) Gamma(u | nu/2, nu/2)
    # exp(-u tr(Sigma_n Sigma_k^-1)/2); integrate in t = ln u with the peak
    # scaled out, then compare pairwise score differences.
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(4):
        d, k_count, n_rows = 2, 3, 2
        raw = random_raw(rng, k_count=k_count, d=d)
        params = mixture.materialize_params(raw)
        enc = random_encoder_stats(rng, n_rows, d)
        alpha = mixture.compute_alpha(params, d)
        beta = mixture.compute_beta(enc, params)
        log_qz = mixture.compute_log_qz(enc, params, alpha, beta).data

        pi = params.pi.data
        nu = params.nu.data
        var = np.exp(2.0 * enc.log_std_x.data)
        for n_i in range(n_rows):
            lq_oracle = np.empty(k_count)
            for k in range(k_count):
                sig_k = params.sigma[k].data
                tr = float(var[n_i] @ np.diag(np.linalg.inv(sig_k)))
                half_nu = nu[k] / 2.0
                mu_n = enc.mu_x.data[n_i]

                def log_integrand(t):
                    u = math.exp(t)
                    return (
                        math.log(pi[k])
                        + sp_gamma.logpdf(u, half_nu, scale=1.0 / half_nu)
                        + multivariate_normal.logpdf(
                            mu_n, mean=raw.mu.data[k], cov=sig_k / u
                        )
                        - 0.5 * u * tr
                        + t
                    )

                grid = np.linspace(-30.0, 8.0, 200)
                log_vals = np.array([log_integrand(t) for t in grid])
                peak = float(log_vals.max())
                val, _ = integrate.quad(
                    lambda t: math.exp(log_integrand(t) - peak),
                    -30.0,
                    8.0,
                    limit=200,
                    points=list(grid[np.argsort(log_vals)[-3:]]),
                )
                lq_oracle[k] = peak + math.log(val)
            for k1 in range(k_count):
                for k2 in range(k1 + 1, k_count):
                    got = log_qz[n_i, k1] - log_qz[n_i, k2]
                    want = lq_oracle[k1] - lq_oracle[k2]
                    worst = max(worst, abs(got - want))
    assert worst < 1e-5


def test_log_rho_decomposition():
    rng = np.random.default_rng(405)
    raw = random_raw(rng, k_count=3, d=2)
    params = mixture.materialize_params(raw)
    enc = random_encoder_stats(rng, 4, 2)
    stats = mixture.posterior_stats(enc, params)
    for n_i in range(4):
        for k in range(3):
            ent = dist.gamma_entropy(
                dist.GammaDist(
                    float(stats.alpha.data[k]), float(stats.beta.data[n_i, k])
                )
            )
            want = float(stats.log_qz.data[n_i, k]) - ent - 0.5 * 2 * LN_2PI
            assert float(stats.log_rho.data[n_i, k]) == pytest.approx(
                want, rel=1e-12, abs=1e-12
            )


def test_posterior_ranges_and_row_sums():
    rng = np.random.default_rng(406)
    raw = random_raw(rng, k_count=4, d=3)
    params = mixture.materialize_params(raw)
    enc = random_encoder_stats(rng, 16, 3)
    stats = mixture.posterior_stats(enc, params)
    assert (stats.alpha.data > 1.0).all()
    assert (stats.beta.data > 0.0).all()
    assert np.allclose(stats.gamma.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.isfinite(stats.log_rho.data).all()


def test_component_permutation_equivariance():
    rng = np.random.default_rng(407)
    raw = random_raw(rng, k_count=3, d=2)
    enc = random_encoder_stats(rng, 5, 2)
    perm = [2, 0, 1]
    raw_p = mixture.SmmRawParams(
        m=raw.m.data[perm],
        n=raw.n.data[perm],
        mu=raw.mu.data[perm],
        c_raw=raw.c_raw.data[perm],
        c_logdiag=raw.c_logdiag.data[perm],
        sigma_jitter_sq=raw.sigma_jitter_sq,
    )
    g = mixture.posterior_stats(enc, mixture.materialize_params(raw)).gamma.data
    g_p = mixture.posterior_stats(enc, mixture.materialize_params(raw_p)).gamma.data
    assert np.allclose(g_p, g[:, perm], atol=1e-12)


def test_scale_latent_moment_identities_monte_carlo():
    # E[u | z=k] = alpha/beta and E[ln u | z=k] = psi(alpha) - ln beta,
    # checked against numpy's own Gamma sampler
    rng = np.random.default_rng(408)
    raw = random_raw(rng, k_count=2, d=2)
    params = mixture.materialize_params(raw)
    enc = random_encoder_stats(rng, 3, 2)
    stats = mixture.posterior_stats(enc, params)
    for n_i, k in ((0, 0), (1, 1), (2, 0)):
        a = float(stats.alpha.data[k])
        b = float(stats.beta.data[n_i, k])
        draws = rng.gamma(a, 1.0 / b, size=400_000)
        assert a / b == pytest.approx(draws.mean(), abs=1e-2)
        assert sp_digamma(a) - math.log(b) == pytest.approx(
            np.log(draws).mean(), abs=1e-2
        )


def test_gaussian_limit_matches_gaussian_e_step():
    # dof pushed to 1e6 and encoder variance to ~0: responsibilities reduce
    # to a plain Gaussian-mixture E-step on the encoder means
    rng = np.random.default_rng(409)
    for _ in range(3):
        d, k_count = 2, 3
        raw = random_raw(rng, k_count=k_count, d=d, nu_lo=0.0, nu_hi=0.0)
        raw = mixture.SmmRawParams(
            m=raw.m.data,
            n=np.full(k_count, mixture.raw_dof_for_nu(1e6)),
            mu=raw.mu.data,
            c_raw=raw.c_raw.data,
            c_logdiag=raw.c_logdiag.data,
            sigma_jitter_sq=raw.sigma_jitter_sq,
        )
        params = mixture.materialize_params(raw)
        mu_n = rng.standard_normal((6, d)) * 1.5
        enc = EncoderStats(
            mu_x=Tensor(mu_n), log_std_x=Tensor(np.full((6, d), -12.0))
        )
        gamma = mixture.posterior_stats(enc, params).gamma.data

        scores = np.empty((6, k_count))
        for k in range(k_count):
            scores[:, k] = math.log(params.pi.data[k]) + multivariate_normal.logpdf(
                mu_n, mean=raw.mu.data[k], cov=params.sigma[k].data
            )
        scores -= scores.max(axis=1, keepdims=True)
        want = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        assert np.abs(gamma - want).max() < 1e-3


def test_beta_underflow_is_clamped_and_reported(caplog):
    raw = unit_scale_raw(1, 1, [5.0], np.zeros((1, 1)))
    params = mixture.materialize_params(raw)
    alpha = mixture.compute_alpha(params, 1)
    tiny_beta = Tensor(np.array([[1e-40]]))
    enc = EncoderStats(mu_x=Tensor(np.zeros((1, 1))), log_std_x=Tensor(np.zeros((1, 1))))
    with caplog.at_level(logging.WARNING, logger="tvae.mixture"):
        out = mixture.compute_log_qz(enc, params, alpha, tiny_beta)
    assert "underflow" in caplog.text
    assert np.isfinite(out.data).all()


# ------------------------------------------------------------------ sampling


def test_sample_generative_one_hot_weights():
    raw = unit_scale_raw(2, 2, [5.0, 5.0], [[0.0, 0.0], [50.0, 50.0]])
    raw = mixture.SmmRawParams(
        m=np.array([40.0, -40.0]),  # pi ~ (1, 0)
        n=raw.n.data,
        mu=raw.mu.data,
        c_raw=raw.c_raw.data,
        c_logdiag=raw.c_logdiag.data,
        sigma_jitter_sq=0.5,
    )
    params = mixture.materialize_params(raw)
    labels, u, x = mixture.sample_generative(np.random.default_rng(410), params, 500)
    assert (labels == 0).all()
    assert (u > 0).all()
    assert x.shape == (500, 2)
    assert np.abs(x.mean(axis=0)).max() < 0.2


def test_sample_generative_gaussian_limit_moments():
    rng = np.random.default_rng(411)
    raw = mixture.SmmRawParams(
        m=np.zeros(1),
        n=np.array([mixture.raw_dof_for_nu(1e6)]),
        mu=np.array([[1.0, -2.0]]),
        c_raw=np.array([[[0.0, 0.0], [0.8, 0.0]]]),
        c_logdiag=np.log(np.array([[1.2, 0.7]])),
        sigma_jitter_sq=0.05,
    )
    params = mixture.materialize_params(raw)
    _, u, x = mixture.sample_generative(rng, params, 100_000)
    assert np.abs(u - 1.0).max() < 0.02  # Gamma(5e5, 5e5) concentrates at 1
    assert np.abs(x.mean(axis=0) - [1.0, -2.0]).max() < 0.03
    emp_cov = np.cov(x.T, bias=True)
    assert np.abs(emp_cov - params.sigma[0].data).max() < 0.05


def test_sample_generative_heavy_tails_at_low_dof():
    rng = np.random.default_rng(412)
    raw = unit_scale_raw(1, 2, [3.0], np.zeros((1, 2)))
    params = mixture.materialize_params(raw)
    _, _, x = mixture.sample_generative(rng, params, 100_000)
    z = x[:, 0]
    excess_kurtosis = ((z - z.mean()) ** 4).mean() / z.var() ** 2 - 3.0
    assert excess_kurtosis > 1.0  # Gaussian would sit near 0


def test_sample_generative_determinism():
    raw = unit_scale_raw(3, 2, [3.0, 5.0, 8.0], np.arange(6).reshape(3, 2))
    params = mixture.materialize_params(raw)
    out1 = mixture.sample_generative(np.random.default_rng(7), params, 64)
    out2 = mixture.sample_generative(np.random.default_rng(7), params, 64)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)


# ------------------------------------------------------------ EM warm start


def blobs(rng, centers, n_each, scale):
    """Isotropic Gaussian blobs, one block of ``n_each`` rows per center."""
    centers = np.asarray(centers, dtype=np.float64)
    return np.vstack(
        [c + scale * rng.standard_normal((n_each, centers.shape[1])) for c in centers]
    )


def test_em_single_component_closed_form():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((200, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1, 2, 3]
    fit = mixture.gmm_em_fit(data, 1, rng, sigma_jitter_sq=0.01)
    assert np.abs(fit.raw.mu.data[0] - data.mean(axis=0)).max() < 1e-10
    sigma = mixture.materialize_params(fit.raw).sigma[0].data
    assert np.abs(sigma - np.cov(data.T, bias=True)).max() < 1e-10
    assert np.array_equal(fit.responsibilities, np.ones((200, 1)))


def test_em_log_likelihood_is_monotone():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        data = blobs(rng, [[0.0, 0.0], [4.0, 4.0], [-4.0, 3.0]], 80, 1.0)
        fit = mixture.gmm_em_fit(data, 3, rng, sigma_jitter_sq=1e-3)
        diffs = np.diff(fit.log_likelihoods)
        assert (diffs >= -1e-9).all()


def test_em_monotone_with_active_floor():
    rng = np.random.default_rng(300)
    data = blobs(rng, [[0.0, 0.0]], 120, 0.1)
    fit = mixture.gmm_em_fit(data, 3, rng, sigma_jitter_sq=0.5)
    assert (np.diff(fit.log_likelihoods) >= -1e-9).all()
    for k in range(3):
        eigs = np.linalg.eigvalsh(mixture.materialize_params(fit.raw).sigma[k].data)
        assert eigs.min() >= 0.5 - 1e-8


def test_em_separated_blobs_give_hard_assignments():
    rng = np.random.default_rng(413)
    data = blobs(rng, [[0.0, 0.0], [10.0, 10.0]], 100, 0.2)
    fit = mixture.gmm_em_fit(data, 2, rng, sigma_jitter_sq=1e-3)
    assert fit.responsibilities.max(axis=1).min() > 0.999
    hard = fit.responsibilities.argmax(axis=1)
    assert len(set(hard[:100])) == 1 and len(set(hard[100:])) == 1
    assert hard[0] != hard[100]


def test_em_fit_is_consistent_with_its_own_e_step():
    rng = np.random.default_rng(414)
    data = blobs(rng, [[0.0, 0.0], [6.0, -6.0]], 150, 0.5)
    fit = mixture.gmm_em_fit(data, 2, rng, sigma_jitter_sq=1e-3)
    assert len(fit.log_likelihoods) < 50  # converged, so params match resp
    params = mixture.materialize_params(fit.raw)
    scores = np.empty((300, 2))
    for k in range(2):
        scores[:, k] = math.log(params.pi.data[k]) + multivariate_normal.logpdf(
            data, mean=fit.raw.mu.data[k], cov=params.sigma[k].data
        )
    scores -= scores.max(axis=1, keepdims=True)
    want = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    assert np.abs(fit.responsibilities - want).max() < 1e-6


def test_em_survives_overparameterized_fit():
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        data = blobs(rng, [[0.0, 0.0], [5.0, 5.0]], 40, 0.3)
        fit = mixture.gmm_em_fit(data, 4, rng, sigma_jitter_sq=1e-2)
        params = mixture.materialize_params(fit.raw)
        assert float(params.pi.data.sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(fit.log_likelihoods).all()


def test_em_rejects_too_few_rows():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractViolation):
        mixture.gmm_em_fit(np.zeros((2, 2)), 3, rng, sigma_jitter_sq=0.1)


# ------------------------------------------- EM warm start vs a plain reference


def reference_kmeanspp(data, k_count, rng):
    """k-means++ seeding that recomputes the distance to every center."""
    n = data.shape[0]
    centers = [data[int(rng.integers(n))]]
    for _ in range(1, k_count):
        d2 = np.min([((data - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0.0:
            centers.append(data[int(rng.integers(n))])
            continue
        r = rng.random() * total
        centers.append(data[int(np.searchsorted(np.cumsum(d2), r))])
    return np.array(centers)


def reference_floor_spd(mat, floor):
    """Eigenvalue floor of one symmetric matrix."""
    eigval, eigvec = np.linalg.eigh((mat + mat.T) / 2.0)
    return (eigvec * np.maximum(eigval, floor)) @ eigvec.T


def reference_em(data, k_count, rng, jitter, seeding, iters=50, tol=1e-6):
    """The warm-start EM written plainly on the (N, D) layout: a general
    solve and a floor per component. Returns (responsibilities,
    log-likelihoods, number of dead components re-seeded)."""
    n, d = data.shape
    means = seeding(data, k_count, rng)
    global_cov = reference_floor_spd(np.cov(data.T, bias=True).reshape(d, d), jitter)
    covs = np.stack([global_cov] * k_count)
    weights = np.full(k_count, 1.0 / k_count)
    lls, reseeds = [], 0
    for _ in range(iters):
        scores = np.empty((n, k_count))
        for k in range(k_count):
            chol = np.linalg.cholesky(covs[k])
            y = np.linalg.solve(chol, (data - means[k]).T)
            scores[:, k] = -0.5 * (d * LN_2PI + (y * y).sum(axis=0)) - np.log(
                np.diag(chol)
            ).sum()
        scores += np.log(weights)
        top = scores.max(axis=1, keepdims=True)
        row_ll = (top + np.log(np.exp(scores - top).sum(axis=1, keepdims=True))).ravel()
        lls.append(float(row_ll.sum()))
        resp = np.exp(scores - row_ll[:, None])
        if len(lls) > 1 and lls[-1] - lls[-2] < tol:
            break
        counts = resp.sum(axis=0)
        for k in range(k_count):
            if counts[k] < 1e-8:
                means[k] = data[int(rng.integers(n))]
                covs[k] = global_cov
                counts[k] = 1.0
                resp[:, k] = 1.0 / n
                reseeds += 1
                continue
            means[k] = resp[:, k] @ data / counts[k]
            diff = data - means[k]
            covs[k] = reference_floor_spd((resp[:, k] * diff.T) @ diff / counts[k], jitter)
        weights = counts / counts.sum()
    return resp, lls, reseeds


def assert_em_matches_reference(data, k_count, rng, jitter, seeding=reference_kmeanspp):
    """Fit from a copy of ``rng``; returns the reference's re-seed count."""
    ref_rng = copy.deepcopy(rng)
    resp, lls, reseeds = reference_em(data, k_count, ref_rng, jitter, seeding)
    fit = mixture.gmm_em_fit(data, k_count, rng, jitter)
    assert len(fit.log_likelihoods) == len(lls)
    assert np.array_equal(fit.responsibilities.argmax(axis=1), resp.argmax(axis=1))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.abs(fit.responsibilities - resp).max() < 1e-9
    assert np.abs(np.subtract(fit.log_likelihoods, lls)).max() < 1e-9
    return reseeds


@pytest.mark.parametrize("seed", range(10))
def test_em_matches_reference_on_pinwheel(seed):
    rng = np.random.default_rng(seed)
    ds = data_mod.gen_pinwheel(rng, arms=5, points_per_arm=400)
    assert_em_matches_reference(ds.observations, 5, rng, 0.01)


@pytest.mark.parametrize(
    "seed, centers, n_each, scale, k_count, jitter",
    [(100 + s, [[0.0, 0.0], [4.0, 4.0], [-4.0, 3.0]], 80, 1.0, 3, 1e-3) for s in range(5)]
    + [
        (300, [[0.0, 0.0]], 120, 0.1, 3, 0.5),
        (413, [[0.0, 0.0], [10.0, 10.0]], 100, 0.2, 2, 1e-3),
        (414, [[0.0, 0.0], [6.0, -6.0]], 150, 0.5, 2, 1e-3),
    ]
    + [(500 + s, [[0.0, 0.0], [5.0, 5.0]], 40, 0.3, 4, 1e-2) for s in range(3)]
    + [(600, np.eye(6)[:3] * 4.0, 60, 1.0, 4, 1e-2)],
)
def test_em_matches_reference_on_blobs(seed, centers, n_each, scale, k_count, jitter):
    rng = np.random.default_rng(seed)
    data = blobs(rng, centers, n_each, scale)
    assert_em_matches_reference(data, k_count, rng, jitter)


def test_em_reseeds_a_dead_component_like_the_reference(monkeypatch):
    def far_seeding(data, k_count, rng):
        centers = reference_kmeanspp(data, k_count, rng)
        centers[1] = data.mean(axis=0) + 1e3  # no row ever claims this one
        return centers

    monkeypatch.setattr(mixture, "_kmeanspp_centers", far_seeding)
    rng = np.random.default_rng(7)
    ds = data_mod.gen_pinwheel(rng, arms=5, points_per_arm=100)
    assert assert_em_matches_reference(ds.observations, 5, rng, 0.01, far_seeding) >= 1


def test_kmeanspp_matches_the_recomputing_reference():
    rng = np.random.default_rng(8)
    data = blobs(rng, [[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0]], 50, 0.7)
    ref_rng = copy.deepcopy(rng)
    got = mixture._kmeanspp_centers(data, 12, rng)
    assert np.array_equal(got, reference_kmeanspp(data, 12, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 8])
def test_floor_spd_on_a_stack_equals_per_matrix_calls(d):
    rng = np.random.default_rng(d)
    factors = rng.standard_normal((6, d, d)) * np.geomspace(0.01, 3.0, d)
    mats = factors @ factors.transpose(0, 2, 1) + 1e-3 * rng.standard_normal((6, d, d))
    stacked = mixture._floor_spd(mats, 0.05)
    assert np.array_equal(stacked, np.stack([mixture._floor_spd(m, 0.05) for m in mats]))
    assert np.array_equal(stacked[0], reference_floor_spd(mats[0], 0.05))
    assert np.linalg.eigvalsh(stacked).min() >= 0.05 - 1e-12
