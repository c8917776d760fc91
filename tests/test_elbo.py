"""Lower-bound assembly: per-term oracles, mode semantics, the Gaussian
limit against a closed-form Gaussian-VAE bound, and finite-difference
checks of the full loss."""

import math

import numpy as np
import pytest

import tvae.distributions as dist
from tvae import elbo, mixture, network
from tvae.errors import ContractViolation
from tvae.gradcheck import check_loss_gradients
from tvae.tensor import Tensor, evaluate_and_grad

LN_2PI = math.log(2.0 * math.pi)


def tiny_instance(seed=14, n_rows=6, obs_dim=4, latent_dim=2, k_count=3):
    rng = np.random.default_rng(seed)
    enc = network.TwoHeadMlp(
        network.MlpConfig((obs_dim, 8, latent_dim), "tanh"), "enc", rng
    )
    dec = network.TwoHeadMlp(
        network.MlpConfig((latent_dim, 8, obs_dim), "tanh"), "dec", rng
    )
    raw = mixture.SmmRawParams(
        m=rng.standard_normal(k_count) * 0.3,
        n=rng.uniform(3.0, 6.0, k_count),
        mu=rng.standard_normal((k_count, latent_dim)),
        c_raw=rng.standard_normal((k_count, latent_dim, latent_dim)) * 0.2,
        c_logdiag=rng.uniform(-0.5, 0.2, (k_count, latent_dim)),
        sigma_jitter_sq=0.01,
    )
    obs = rng.standard_normal((n_rows, obs_dim))
    eps = [rng.standard_normal((n_rows, latent_dim))]
    return enc, dec, raw, obs, eps


def posterior_for(enc_net, raw, obs):
    stats = network.encoder_forward(Tensor(obs), enc_net)
    params = mixture.materialize_params(raw)
    return stats, params, mixture.posterior_stats(stats, params)


# ----------------------------------------------------------------- per term


def test_reconstruction_standard_normal_row():
    dec_stats = network.DecoderStats(
        mu_o=[Tensor(np.zeros((1, 1)))], log_std_o=[Tensor(np.zeros((1, 1)))]
    )
    val = elbo.reconstruction_term(np.zeros((1, 1)), dec_stats, 1)
    assert float(val.data[0]) == pytest.approx(-0.5 * LN_2PI)


def test_reconstruction_matches_row_wise_density():
    rng = np.random.default_rng(601)
    o = rng.standard_normal((5, 3))
    mu = rng.standard_normal((5, 3))
    ls = rng.uniform(-1.0, 0.5, (5, 3))
    dec_stats = network.DecoderStats(mu_o=[Tensor(mu)], log_std_o=[Tensor(ls)])
    got = elbo.reconstruction_term(o, dec_stats, 1).data
    for i in range(5):
        want = dist.gaussian_diag_log_pdf(
            o[i], dist.DiagGaussian(mu[i], ls[i])
        )
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_reconstruction_averages_over_samples():
    rng = np.random.default_rng(602)
    o = rng.standard_normal((4, 2))
    mu = rng.standard_normal((4, 2))
    ls = rng.uniform(-0.5, 0.5, (4, 2))
    one = network.DecoderStats(mu_o=[Tensor(mu)], log_std_o=[Tensor(ls)])
    two = network.DecoderStats(
        mu_o=[Tensor(mu), Tensor(mu)], log_std_o=[Tensor(ls), Tensor(ls)]
    )
    assert np.allclose(
        elbo.reconstruction_term(o, one, 1).data,
        elbo.reconstruction_term(o, two, 2).data,
        atol=1e-14,
    )
    with pytest.raises(ContractViolation):
        elbo.reconstruction_term(o, one, 2)


def test_encoder_entropy_matches_distribution_entropy():
    rng = np.random.default_rng(603)
    mu = rng.standard_normal((6, 3))
    ls = rng.uniform(-1.0, 1.0, (6, 3))
    enc = network.EncoderStats(mu_x=Tensor(mu), log_std_x=Tensor(ls))
    got = elbo.encoder_entropy_term(enc).data
    for i in range(6):
        want = dist.gaussian_diag_entropy(dist.DiagGaussian(mu[i], ls[i]))
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_one_hot_validation():
    y = elbo.one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(y, np.eye(3)[[0, 2, 1]])
    with pytest.raises(ContractViolation):
        elbo.one_hot(np.array([0, 3]), 3)
    with pytest.raises(ContractViolation):
        elbo.one_hot(np.array([-1]), 3)


# ------------------------------------------------------------ mode semantics


def test_weights_by_mode():
    enc_net, _, raw, obs, _ = tiny_instance()
    _, _, post = posterior_for(enc_net, raw, obs)
    k_count = 3

    w_unsup = elbo.cross_entropy_weights(post, "unsupervised", k_count)
    assert w_unsup is post.gamma

    w_detached = elbo.cross_entropy_weights(
        post, "unsupervised", k_count, detach_gamma=True
    )
    assert w_detached is not post.gamma
    assert np.array_equal(w_detached.data, post.gamma.data)
    assert not w_detached.requires_grad

    labels = np.array([0, 1, 2, 0, 1, 2])
    w_sup = elbo.cross_entropy_weights(post, "supervised", k_count, labels=labels)
    assert np.array_equal(w_sup.data, np.eye(3)[labels])

    override = np.full((6, 3), 1.0 / 3.0)
    w_ovr = elbo.cross_entropy_weights(
        post, "supervised", k_count, labels=labels, weight_override=override
    )
    assert np.array_equal(w_ovr.data, override)

    for w in (w_unsup, w_sup, w_ovr):
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    with pytest.raises(ContractViolation):
        elbo.cross_entropy_weights(post, "supervised", k_count)
    with pytest.raises(ContractViolation):
        elbo.cross_entropy_weights(
            post, "supervised", k_count, labels=labels, weight_override=np.ones((2, 2))
        )
    with pytest.raises(ContractViolation):
        elbo.cross_entropy_weights(post, "mystery", k_count)


def test_training_mode_validation():
    elbo.TrainingMode("unsupervised")
    elbo.TrainingMode("semi_supervised", supervised_epochs=3)
    with pytest.raises(ContractViolation):
        elbo.TrainingMode("banana")
    with pytest.raises(ContractViolation):
        elbo.TrainingMode("semi_supervised")


def test_supervised_equals_override_with_one_hot():
    enc_net, dec_net, raw, obs, eps = tiny_instance()
    labels = np.array([0, 1, 2, 0, 1, 2])
    loss_sup = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "supervised", 0.0, t_samples=1,
        labels=labels, eps=eps,
    )
    loss_ovr = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "unsupervised", 0.0, t_samples=1,
        weight_override=elbo.one_hot(labels, 3), eps=eps,
    )
    v1, g1 = evaluate_and_grad(loss_sup)
    v2, g2 = evaluate_and_grad(loss_ovr)
    assert v1 == v2
    for name in g1:
        assert np.array_equal(g1[name].data, g2[name].data)


def test_supervised_matches_unsupervised_when_gamma_is_one_hot():
    # components pushed far apart so the responsibilities saturate
    rng = np.random.default_rng(604)
    latent_dim, k_count = 2, 2
    enc_net = network.TwoHeadMlp(
        network.MlpConfig((2, 4, latent_dim), "tanh"), "enc", rng
    )
    dec_net = network.TwoHeadMlp(
        network.MlpConfig((latent_dim, 4, 2), "tanh"), "dec", rng
    )
    raw = mixture.SmmRawParams(
        m=np.zeros(k_count),
        n=np.full(k_count, 8.0),
        mu=np.array([[80.0, 0.0], [-80.0, 0.0]]),
        c_raw=np.zeros((k_count, latent_dim, latent_dim)),
        c_logdiag=np.zeros((k_count, latent_dim)),
        sigma_jitter_sq=0.01,
    )
    # pin the encoder onto the first component so gamma saturates
    for name, p in enc_net.params().items():
        p.assign_(np.zeros_like(p.data))
    enc_net.b_mu.assign_(np.array([80.0, 0.0]))
    enc_net.b_ls.assign_(np.array([-1.0, -1.0]))
    obs = rng.standard_normal((4, 2)) * 0.1
    stats, params, post = posterior_for(enc_net, raw, obs)
    gamma = post.gamma.data
    assert gamma.max(axis=1).min() > 1.0 - 1e-12  # saturated
    labels = gamma.argmax(axis=1)
    eps = [rng.standard_normal((4, latent_dim))]
    loss_u = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "unsupervised", 0.0, t_samples=1, eps=eps
    )
    loss_s = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "supervised", 0.0, t_samples=1,
        labels=labels, eps=eps,
    )
    v_u, _ = evaluate_and_grad(loss_u)
    v_s, _ = evaluate_and_grad(loss_s)
    assert v_s == pytest.approx(v_u, rel=1e-9)


def test_gamma_target_replacement_scores_labels_against_gamma():
    enc_net, _, raw, obs, _ = tiny_instance()
    _, _, post = posterior_for(enc_net, raw, obs)
    labels = np.array([0, 1, 2, 0, 1, 2])
    got = elbo.cross_entropy_term(
        post, "supervised", 3, labels=labels,
        supervised_replacement="gamma-target",
    ).data
    want = np.log(post.gamma.data[np.arange(6), labels])
    assert np.allclose(got, want, atol=1e-12)
    with pytest.raises(ContractViolation):
        elbo.cross_entropy_term(
            post, "supervised", 3, labels=labels, supervised_replacement="other"
        )


def test_single_component_cross_term_is_log_rho():
    rng = np.random.default_rng(605)
    enc_net, _, _, obs, _ = tiny_instance()
    raw = mixture.SmmRawParams(
        m=np.zeros(1),
        n=np.array([5.0]),
        mu=rng.standard_normal((1, 2)),
        c_raw=np.zeros((1, 2, 2)),
        c_logdiag=np.zeros((1, 2)),
        sigma_jitter_sq=0.05,
    )
    _, _, post = posterior_for(enc_net, raw, obs)
    got = elbo.cross_entropy_term(post, "unsupervised", 1).data
    assert np.allclose(got, post.log_rho.data[:, 0], atol=1e-14)


# -------------------------------------------------------------- full bound


def test_breakdown_totals_and_loss_agree():
    enc_net, dec_net, raw, obs, eps = tiny_instance()
    stats, params, post = posterior_for(enc_net, raw, obs)
    x_samples = network.reparameterize(stats, eps)
    dec_stats = network.decoder_forward(x_samples, dec_net)
    recon, entropy, cross = elbo.elbo_terms(
        obs, stats, dec_stats, post, "unsupervised", 1, 3
    )
    loss = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "unsupervised", 0.0, t_samples=1, eps=eps
    )
    val, _ = evaluate_and_grad(loss)
    total = recon.data + entropy.data + cross.data
    assert val == pytest.approx(-np.mean(total), abs=1e-12)


def test_l1_penalty_scaling():
    enc_net, dec_net, raw, obs, eps = tiny_instance()

    def loss_value(coeff):
        loss = elbo.loss_batch(
            obs, enc_net, dec_net, raw, "unsupervised", coeff,
            t_samples=1, eps=eps,
        )
        val, _ = evaluate_and_grad(loss)
        return val

    base = loss_value(0.0)
    bump1 = loss_value(0.01) - base
    bump2 = loss_value(0.02) - base
    assert bump1 > 0.0
    assert bump2 == pytest.approx(2.0 * bump1, rel=1e-9)
    pen, _ = evaluate_and_grad(elbo.l1_penalty([enc_net, dec_net]))
    assert bump1 == pytest.approx(0.01 * pen, rel=1e-9)
    with pytest.raises(ContractViolation):
        elbo.l1_penalty([])


def test_loss_batch_contracts():
    enc_net, dec_net, raw, obs, eps = tiny_instance()
    with pytest.raises(ContractViolation):
        elbo.loss_batch(obs, enc_net, dec_net, raw, "unsupervised", 0.0)
    with pytest.raises(ContractViolation):
        elbo.loss_batch(
            obs[:0], enc_net, dec_net, raw, "unsupervised", 0.0, eps=eps
        )
    with pytest.raises(ContractViolation):
        elbo.loss_batch(
            obs, enc_net, dec_net, raw, "unsupervised", 0.0, t_samples=2, eps=eps
        )


def test_constant_shift_leaves_gradients_bit_identical():
    enc_net, dec_net, raw, obs, eps = tiny_instance()
    loss = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "unsupervised", 0.001, t_samples=1, eps=eps
    )
    _, grads = evaluate_and_grad(loss)
    shifted = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "unsupervised", 0.001, t_samples=1, eps=eps
    ) + 5.0
    _, grads_shifted = evaluate_and_grad(shifted)
    assert set(grads) == set(grads_shifted)
    for name in grads:
        assert np.array_equal(grads[name].data, grads_shifted[name].data)


def all_params(enc_net, dec_net, raw):
    return {**enc_net.params(), **dec_net.params(), **raw.params()}


@pytest.mark.parametrize(
    "mode_kwargs",
    [
        {"mode_kind": "unsupervised"},
        {"mode_kind": "supervised", "labels": np.array([0, 1, 2, 0, 1, 2])},
        {
            "mode_kind": "supervised",
            "labels": np.array([0, 1, 2, 0, 1, 2]),
            "supervised_replacement": "gamma-target",
        },
    ],
    ids=["unsupervised", "supervised", "gamma-target"],
)
def test_full_loss_gradients_match_finite_differences(mode_kwargs):
    enc_net, dec_net, raw, obs, eps = tiny_instance()
    kwargs = dict(mode_kwargs)
    mode_kind = kwargs.pop("mode_kind")

    def build_loss():
        return elbo.loss_batch(
            obs, enc_net, dec_net, raw, mode_kind, 0.001,
            t_samples=1, eps=eps, **kwargs,
        )

    params = all_params(enc_net, dec_net, raw)
    reports = check_loss_gradients(build_loss, params)
    assert set(reports) == set(params)
    for rep in reports.values():
        assert rep.passed(1e-4), rep


def test_detach_gamma_changes_gradients_not_value():
    enc_net, dec_net, raw, obs, eps = tiny_instance()

    def value_and_grads(detach):
        loss = elbo.loss_batch(
            obs, enc_net, dec_net, raw, "unsupervised", 0.0,
            t_samples=1, eps=eps, detach_gamma=detach,
        )
        return evaluate_and_grad(loss)

    v0, g0 = value_and_grads(False)
    v1, g1 = value_and_grads(True)
    assert v0 == v1
    assert any(not np.array_equal(g0[n].data, g1[n].data) for n in g0)


def test_gaussian_limit_matches_gaussian_vae_bound():
    # K=1 and dof 1e6: the bound equals the closed-form Gaussian-VAE ELBO
    # (same frozen noise) plus the per-row constant
    # [ln(nu/2) - ln(2 pi) - 1] / 2 from the scale latent
    obs_dim, latent_dim, n_rows = 3, 2, 6
    rng = np.random.default_rng(13)
    enc_net = network.TwoHeadMlp(
        network.MlpConfig((obs_dim, 5, latent_dim), "tanh"), "enc", rng
    )
    dec_net = network.TwoHeadMlp(
        network.MlpConfig((latent_dim, 5, obs_dim), "tanh"), "dec", rng
    )
    obs = rng.standard_normal((n_rows, obs_dim))
    nu = 1e6
    raw = mixture.SmmRawParams(
        m=np.zeros(1),
        n=np.full(1, nu),
        mu=rng.standard_normal((1, latent_dim)),
        c_raw=np.zeros((1, latent_dim, latent_dim)),
        c_logdiag=rng.uniform(-0.3, 0.3, (1, latent_dim)),
        sigma_jitter_sq=0.05,
    )
    eps = [rng.standard_normal((n_rows, latent_dim))]
    loss = elbo.loss_batch(
        obs, enc_net, dec_net, raw, "unsupervised", 0.0, t_samples=1, eps=eps
    )
    val, _ = evaluate_and_grad(loss)

    params = mixture.materialize_params(raw)
    sig = params.sigma[0].data
    sig_inv = np.linalg.inv(sig)
    mu1 = raw.mu.data[0]
    stats = network.encoder_forward(Tensor(obs), enc_net)
    mu_x, ls_x = stats.mu_x.data, stats.log_std_x.data
    x_s = mu_x + np.exp(ls_x) * eps[0]
    dec_mu, dec_ls = dec_net.forward(Tensor(x_s))
    zz = (obs - dec_mu.data) * np.exp(-dec_ls.data)
    recon = -0.5 * obs_dim * LN_2PI - dec_ls.data.sum(1) - 0.5 * (zz**2).sum(1)
    entropy = 0.5 * latent_dim * (LN_2PI + 1.0) + ls_x.sum(1)
    var_x = np.exp(2 * ls_x)
    quad = np.array(
        [
            var_x[i] @ np.diag(sig_inv)
            + (mu_x[i] - mu1) @ sig_inv @ (mu_x[i] - mu1)
            for i in range(n_rows)
        ]
    )
    log_prior = -0.5 * (latent_dim * LN_2PI + np.linalg.slogdet(sig)[1] + quad)
    offset = 0.5 * (math.log(nu / 2.0) - LN_2PI - 1.0)
    gauss_bound = recon + entropy + log_prior + offset
    assert val == pytest.approx(-gauss_bound.mean(), abs=1e-3)
