"""Two-head MLPs and reparameterized sampling: finite-difference gradient
checks, shape/validation contracts, and sampling moments."""

import numpy as np
import pytest

from tvae import network
from tvae.distributions import sample_standard_normal
from tvae.errors import ContractViolation
from tvae.gradcheck import check_loss_gradients
from tvae.tensor import Tensor, evaluate_and_grad


def small_net(prefix="enc", dims=(3, 4, 2), act="tanh", seed=21):
    return network.TwoHeadMlp(
        network.MlpConfig(dims, act), prefix, np.random.default_rng(seed)
    )


def test_config_validation():
    with pytest.raises(ContractViolation):
        network.MlpConfig((3,), "tanh")
    with pytest.raises(ContractViolation):
        network.MlpConfig((3, 0, 2), "tanh")
    with pytest.raises(ContractViolation):
        network.MlpConfig((3, 4, 2), "sigmoid")


def test_param_names_and_init_determinism():
    net = small_net(dims=(3, 5, 4, 2))
    assert set(net.params()) == {
        "enc.W0",
        "enc.b0",
        "enc.W1",
        "enc.b1",
        "enc.W_mu",
        "enc.b_mu",
        "enc.W_ls",
        "enc.b_ls",
    }
    net2 = small_net(dims=(3, 5, 4, 2))
    for name, p in net.params().items():
        assert np.array_equal(p.data, net2.params()[name].data)

    limit = np.sqrt(6.0 / (3 + 5))
    w0 = net.params()["enc.W0"].data
    assert np.abs(w0).max() <= limit
    assert w0.std() > 0.1 * limit
    assert np.array_equal(net.params()["enc.b0"].data, np.zeros(5))


def test_zeroed_net_outputs_zero():
    net = small_net()
    for p in net.params().values():
        p.assign_(np.zeros_like(p.data))
    mu, log_std = net.forward(np.ones((4, 3)))
    assert np.array_equal(mu.data, np.zeros((4, 2)))
    assert np.array_equal(log_std.data, np.zeros((4, 2)))


def test_forward_shape_contract():
    net = small_net()
    mu, log_std = net.forward(np.zeros((5, 3)))
    assert mu.shape == (5, 2) and log_std.shape == (5, 2)
    with pytest.raises(ContractViolation):
        net.forward(np.zeros((5, 4)))
    with pytest.raises(ContractViolation):
        net.forward(np.zeros(3))


def test_rows_are_processed_independently():
    net = small_net(act="relu", seed=22)
    x = np.random.default_rng(23).standard_normal((6, 3))
    mu, _ = net.forward(x)
    perm = [3, 1, 5, 0, 4, 2]
    mu_p, _ = net.forward(x[perm])
    assert np.array_equal(mu_p.data, mu.data[perm])

    same = np.tile(x[0], (4, 1))
    mu_same, ls_same = net.forward(same)
    assert np.array_equal(mu_same.data, np.tile(mu_same.data[0], (4, 1)))
    assert np.array_equal(ls_same.data, np.tile(ls_same.data[0], (4, 1)))


def test_detached_copy_runs_the_same_forward_on_constants():
    net = small_net(dims=(3, 5, 4, 2), act="relu", seed=24)
    x = np.random.default_rng(25).standard_normal((7, 3))
    frozen = net.detached()
    assert frozen.prefix == net.prefix
    for name, p in frozen.params().items():
        assert not p.requires_grad and p.data is net.params()[name].data
    want, got = net.forward(x), frozen.forward(x)
    assert all(t.requires_grad for t in want)
    for w, g in zip(want, got):
        assert not g.requires_grad and not g._parents
        assert np.array_equal(w.data, g.data)
    assert all(p.requires_grad for p in net.params().values())


def test_log_std_clamp_saturates():
    net = small_net()
    net.b_ls.assign_(np.array([20.0, -20.0]))
    for p in (net.w_ls,):
        p.assign_(np.zeros_like(p.data))
    _, log_std = net.forward(np.random.default_rng(0).standard_normal((3, 3)))
    assert np.array_equal(log_std.data[:, 0], np.full(3, 7.0))
    assert np.array_equal(log_std.data[:, 1], np.full(3, -7.0))


@pytest.mark.parametrize("act", ["tanh", "relu"])
def test_network_gradients_match_finite_differences(act):
    rng = np.random.default_rng(24)
    net = small_net(act=act, seed=25)
    x = rng.standard_normal((5, 3))
    w_mu = rng.standard_normal((5, 2))
    w_ls = rng.standard_normal((5, 2))

    def build_loss():
        mu, log_std = net.forward(x)
        return (mu * Tensor(w_mu)).sum() + (log_std * Tensor(w_ls)).sum()

    reports = check_loss_gradients(build_loss, net.params())
    assert set(reports) == set(net.params())
    for rep in reports.values():
        assert rep.passed(1e-4), rep


def test_encoder_decoder_chain_gradients():
    rng = np.random.default_rng(26)
    enc = small_net("enc", dims=(4, 6, 2), seed=27)
    dec = small_net("dec", dims=(2, 6, 4), seed=28)
    o = rng.standard_normal((5, 4))
    eps = [rng.standard_normal((5, 2))]

    def build_loss():
        stats = network.encoder_forward(o, enc)
        x_samples = network.reparameterize(stats, eps)
        dstats = network.decoder_forward(x_samples, dec)
        return (
            dstats.mu_o[0].square().sum()
            + dstats.log_std_o[0].sum()
            + stats.log_std_x.square().sum()
        )

    params = {**enc.params(), **dec.params()}
    reports = check_loss_gradients(build_loss, params)
    for rep in reports.values():
        assert rep.passed(1e-4), rep


def test_reparameterize_known_cases():
    mu = np.array([[1.0, -2.0], [0.5, 3.0]])
    enc = network.EncoderStats(mu_x=Tensor(mu), log_std_x=Tensor(np.zeros((2, 2))))
    x0 = network.reparameterize(enc, [np.zeros((2, 2))])[0]
    assert np.array_equal(x0.data, mu)
    x1 = network.reparameterize(enc, [np.ones((2, 2))])[0]
    assert np.array_equal(x1.data, mu + 1.0)

    enc_scaled = network.EncoderStats(
        mu_x=Tensor(mu), log_std_x=Tensor(np.full((2, 2), np.log(3.0)))
    )
    x3 = network.reparameterize(enc_scaled, [np.ones((2, 2))])[0]
    assert np.allclose(x3.data, mu + 3.0, atol=1e-14)

    with pytest.raises(ContractViolation):
        network.reparameterize(enc, [np.zeros((3, 2))])


def test_reparameterize_sampling_moments():
    rng = np.random.default_rng(29)
    n = 200_000
    enc = network.EncoderStats(
        mu_x=Tensor(np.full((n, 1), 1.5)),
        log_std_x=Tensor(np.full((n, 1), np.log(0.5))),
    )
    eps = sample_standard_normal(rng, (n, 1))
    x = network.reparameterize(enc, [eps.data])[0].data
    assert abs(x.mean() - 1.5) < 0.01
    assert abs(x.std() - 0.5) < 0.005


def test_decoder_forward_multiple_samples():
    dec = small_net("dec", dims=(2, 5, 3), seed=30)
    rng = np.random.default_rng(31)
    xs = [Tensor(rng.standard_normal((4, 2))) for _ in range(3)]
    stats = network.decoder_forward(xs, dec)
    assert len(stats.mu_o) == 3 and len(stats.log_std_o) == 3
    for mu, ls in zip(stats.mu_o, stats.log_std_o):
        assert mu.shape == (4, 3) and ls.shape == (4, 3)
    direct_mu, _ = dec.forward(xs[1])
    assert np.array_equal(stats.mu_o[1].data, direct_mu.data)


def test_gradients_flow_through_reparameterization():
    # d/d(log_std) of x = mu + e^{log_std} eps must carry the eps factor
    mu = Tensor.param(np.array([[0.5]]), "m")
    ls = Tensor.param(np.array([[0.2]]), "s")
    enc = network.EncoderStats(mu_x=mu, log_std_x=ls)
    eps_val = 0.7
    x = network.reparameterize(enc, [np.array([[eps_val]])])[0]
    _, grads = evaluate_and_grad(x.sum())
    assert grads["m"].data[0, 0] == pytest.approx(1.0)
    assert grads["s"].data[0, 0] == pytest.approx(np.exp(0.2) * eps_val, rel=1e-12)
