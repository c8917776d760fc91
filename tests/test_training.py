"""Optimizer, training loop, evaluation, and checkpoint round trips."""

import json

import numpy as np
import pytest

from tvae import mixture, network, training
from tvae.elbo import TrainingMode
from tvae.errors import ContractViolation, NumericFault, ValidationError
from tvae.tensor import GradientMap, Tensor


def gmap(**named):
    out = GradientMap()
    for name, arr in named.items():
        out[name] = Tensor(np.asarray(arr, dtype=np.float64))
    return out


# ----------------------------------------------------------------- optimizer


def test_adam_first_step_moves_by_stepsize():
    p = {"w": Tensor.param(np.array(2.0), "w")}
    moments = {}
    training.adam_step(p, gmap(w=1.0), moments, 1e-3, t=1)
    assert float(p["w"].data) == pytest.approx(2.0 - 1e-3, rel=1e-6)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = {"w": Tensor.param(np.array([1.5, -2.0]), "w")}
    moments = {}
    for t in range(1, 6):
        training.adam_step(p, gmap(w=[0.0, 0.0]), moments, 1e-2, t=t)
    assert np.array_equal(p["w"].data, np.array([1.5, -2.0]))


def test_adam_matches_independent_reference_over_ten_steps():
    # independent scalar re-implementation, written as explicit recurrences
    rng = np.random.default_rng(31)
    grads = rng.standard_normal(10)
    x_ref, m_ref, v_ref = 1.2, 0.0, 0.0
    alpha, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t, g in enumerate(grads, start=1):
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        x_ref -= alpha * (m_ref / (1 - b1**t)) / (np.sqrt(v_ref / (1 - b2**t)) + eps)

    p = {"w": Tensor.param(np.array(1.2), "w")}
    moments = {}
    for t, g in enumerate(grads, start=1):
        training.adam_step(p, gmap(w=g), moments, alpha, t=t)
    assert float(p["w"].data) == pytest.approx(x_ref, abs=1e-12)


def test_adam_contracts():
    p = {"w": Tensor.param(np.array(1.0), "w")}
    with pytest.raises(ContractViolation):
        training.adam_step(p, gmap(w=1.0), {}, 1e-3, t=0)
    with pytest.raises(ContractViolation):
        training.adam_step(p, gmap(other=1.0), {}, 1e-3, t=1)


def test_clip_grad_norm():
    clipped = training.clip_grad_norm(gmap(a=[2.0, 0.0]), 1.0)
    assert np.allclose(clipped["a"].data, [1.0, 0.0], atol=1e-15)

    small = gmap(a=[0.3, 0.4])  # norm 0.5
    assert training.clip_grad_norm(small, 1.0) is small

    rng = np.random.default_rng(32)
    for _ in range(10):
        grads = gmap(
            a=rng.standard_normal((3, 2)) * 5, b=rng.standard_normal(4) * 5
        )
        out = training.clip_grad_norm(grads, 1.0)
        norm = np.sqrt(sum(float((g.data**2).sum()) for g in out.values()))
        assert norm <= 1.0 + 1e-12
        # direction preserved
        ratio = out["a"].data / grads["a"].data
        assert np.allclose(ratio, ratio.ravel()[0], atol=1e-12)
    with pytest.raises(ContractViolation):
        training.clip_grad_norm(gmap(a=[1.0]), 0.0)


# --------------------------------------------------------------------- config


def base_config(**overrides):
    defaults = dict(
        net=network.MlpConfig((2, 16, 2), "tanh"),
        latent_dim=2,
        n_components=2,
        epochs=6,
        batch_size=32,
        mode=TrainingMode("supervised"),
        seed=3,
        warm_start_iters=5,
    )
    defaults.update(overrides)
    return training.TrainConfig(**defaults)


def two_blobs(n=120, seed=0):
    rng = np.random.default_rng(seed)
    obs = np.vstack(
        [
            rng.standard_normal((n // 2, 2)) * 0.3 + [2.0, 2.0],
            rng.standard_normal((n // 2, 2)) * 0.3 + [-2.0, -2.0],
        ]
    )
    return obs, np.repeat([0, 1], n // 2)


def test_config_validation():
    with pytest.raises(ContractViolation):
        base_config(epochs=-1)
    with pytest.raises(ContractViolation):
        base_config(latent_dim=3)  # encoder emits 2 dims
    with pytest.raises(ContractViolation):
        base_config(supervised_replacement="nope")
    with pytest.raises(ContractViolation):
        base_config(nu_init=1.5)
    with pytest.raises(ContractViolation):
        base_config(stepsize=0.0)


def test_trainer_input_contracts():
    obs, labels = two_blobs()
    with pytest.raises(ContractViolation):
        training.Trainer(obs, None, base_config())  # supervised needs labels
    with pytest.raises(ContractViolation):
        training.Trainer(np.zeros((0, 2)), None, base_config(mode=TrainingMode("unsupervised")))
    with pytest.raises(ContractViolation):
        training.Trainer(np.zeros((10, 3)), None, base_config(mode=TrainingMode("unsupervised")))
    with pytest.raises(ValidationError):
        training.Trainer(obs, labels + 5, base_config())


# ------------------------------------------------------------- training runs


def test_supervised_blobs_reach_zero_error():
    obs, labels = two_blobs()
    result = training.train(obs, labels, base_config(epochs=25))
    assert result.metrics[-1].error_rate == 0.0
    assert len(result.metrics) == 25
    assert result.metrics[-1].epoch == 25


def test_training_is_deterministic():
    obs, labels = two_blobs()
    r1 = training.train(obs, labels, base_config())
    r2 = training.train(obs, labels, base_config())
    for a, b in zip(r1.metrics, r2.metrics):
        assert a.loss == b.loss and a.error_rate == b.error_rate
    for name, p in r1.trainer.params().items():
        assert np.array_equal(p.data, r2.trainer.params()[name].data)


def test_zero_epochs_keeps_initialization():
    obs, labels = two_blobs()
    cfg = base_config(epochs=0)
    result = training.train(obs, labels, cfg)
    fresh = training.Trainer(obs, labels, cfg)
    assert result.metrics == []
    assert result.trainer.step == 0
    for name, p in result.trainer.params().items():
        assert np.array_equal(p.data, fresh.params()[name].data)


def test_materialization_invariants_hold_after_training():
    obs, labels = two_blobs()
    result = training.train(obs, labels, base_config(epochs=4))
    params = mixture.materialize_params(result.trainer.raw_mix)
    assert (params.nu.data > 2.0).all()
    assert float(params.pi.data.sum()) == pytest.approx(1.0, abs=1e-9)
    for k in range(params.K):
        np.linalg.cholesky(params.sigma[k].data)  # SPD or this raises


def test_frozen_dof_stays_at_gaussian_limit():
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(freeze_dof=True, epochs=3))
    nu0 = mixture.materialize_params(trainer.raw_mix).nu.data.copy()
    assert np.allclose(nu0, training.FROZEN_DOF, rtol=1e-12)
    trainer.train_epochs()
    nu1 = mixture.materialize_params(trainer.raw_mix).nu.data
    assert np.array_equal(nu0, nu1)
    assert "mix.n" not in trainer.moments


def test_warm_start_overrides_first_updates(monkeypatch):
    import tvae.elbo as elbo_mod

    seen = []
    original = elbo_mod.loss_batch

    def spy(*args, **kwargs):
        seen.append(kwargs.get("weight_override") is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(training.elbo, "loss_batch", spy)
    obs, labels = two_blobs(n=96)
    cfg = base_config(
        epochs=2, batch_size=24, warm_start_iters=5,
        mode=TrainingMode("unsupervised"),
    )
    training.train(obs, labels, cfg)
    assert seen[:5] == [True] * 5
    assert not any(seen[5:])


def test_semi_supervised_schedule():
    obs, labels = two_blobs()
    cfg = base_config(mode=TrainingMode("semi_supervised", supervised_epochs=2))
    trainer = training.Trainer(obs, labels, cfg)
    assert trainer._epoch_plan(0)[0] == "supervised"
    assert trainer._epoch_plan(1)[0] == "supervised"
    assert trainer._epoch_plan(2)[0] == "unsupervised"
    assert trainer._epoch_plan(2)[1].size == obs.shape[0]


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_loss_aborts_with_location():
    rng = np.random.default_rng(0)
    obs = rng.standard_normal((40, 2))
    cfg = base_config(
        mode=TrainingMode("unsupervised"), epochs=2, batch_size=20,
        stepsize=1e12, warm_start_iters=0,
    )
    with pytest.raises(NumericFault, match=r"epoch \d+, batch \d+"):
        training.train(obs, None, cfg)


def test_unsupervised_loss_descends_on_blobs():
    obs, labels = two_blobs(n=160, seed=4)
    cfg = base_config(
        mode=TrainingMode("unsupervised"), epochs=8, batch_size=40, seed=9
    )
    result = training.train(obs, labels, cfg)
    assert result.metrics[-1].loss < result.metrics[0].loss


# ------------------------------------------------------------------ evaluate


def fixed_gamma_trainer(gamma, labels, unsupervised=False):
    obs = np.zeros((gamma.shape[0], 2))
    cfg = base_config(
        mode=TrainingMode("unsupervised" if unsupervised else "supervised"),
        n_components=gamma.shape[1],
        epochs=0,
    )
    trainer = training.Trainer(obs, labels, cfg)
    trainer.predict_responsibilities = lambda observations, encoded=None: gamma
    return trainer


def test_evaluate_known_error_rates():
    labels = np.array([0, 1, 0, 1])
    right = np.eye(2)[labels]
    trainer = fixed_gamma_trainer(right, labels)
    err, confusion = trainer.evaluate(np.zeros((4, 2)), labels)
    assert err == 0.0
    assert np.array_equal(confusion, np.array([[2, 0], [0, 2]]))

    wrong = np.eye(2)[1 - labels]
    assert fixed_gamma_trainer(wrong, labels).evaluate(np.zeros((4, 2)), labels)[0] == 1.0

    labels10 = np.array([0] * 5 + [1] * 5)
    half = np.eye(2)[[0] * 10]  # predicts 0 everywhere
    assert (
        fixed_gamma_trainer(half, labels10).evaluate(np.zeros((10, 2)), labels10)[0]
        == 0.5
    )


def test_evaluate_tie_breaks_to_lowest_index():
    labels = np.array([1, 1])
    tied = np.full((2, 2), 0.5)
    err, _ = fixed_gamma_trainer(tied, labels).evaluate(np.zeros((2, 2)), labels)
    assert err == 1.0  # both rows predicted as cluster 0


def test_evaluate_unsupervised_maps_clusters():
    labels = np.array([0, 0, 1, 1])
    swapped = np.eye(2)[1 - labels]  # clusters are label-swapped
    trainer = fixed_gamma_trainer(swapped, labels, unsupervised=True)
    err, _ = trainer.evaluate(np.zeros((4, 2)), labels)
    assert err == 0.0
    err_direct, _ = trainer.evaluate(np.zeros((4, 2)), labels, map_clusters=False)
    assert err_direct == 1.0


def test_evaluate_label_range_mismatch():
    labels = np.array([0, 1, 2, 3])
    trainer = fixed_gamma_trainer(np.full((4, 2), 0.5), np.array([0, 1, 0, 1]))
    with pytest.raises(ValidationError):
        trainer.evaluate(np.zeros((4, 2)), labels)
    with pytest.raises(ContractViolation):
        trainer.evaluate(np.zeros((4, 2)), None)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_resume_is_bit_exact(tmp_path):
    obs, labels = two_blobs()
    cfg = base_config(epochs=6)
    full = training.train(obs, labels, cfg)

    trainer = training.Trainer(obs, labels, cfg)
    head = trainer.train_epochs(3)
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    resumed = training.load_checkpoint(path, obs, labels)
    tail = resumed.train_epochs(3)

    stitched = head + tail
    assert len(stitched) == len(full.metrics)
    for a, b in zip(stitched, full.metrics):
        assert a.loss == b.loss and a.error_rate == b.error_rate
    for name, p in resumed.params().items():
        assert np.array_equal(p.data, full.trainer.params()[name].data)
    for name, (m, v) in resumed.moments.items():
        assert np.array_equal(m, full.trainer.moments[name][0])
        assert np.array_equal(v, full.trainer.moments[name][1])


def test_checkpoint_preserves_config_round_trip(tmp_path):
    obs, labels = two_blobs()
    cfg = base_config(
        mode=TrainingMode("semi_supervised", supervised_epochs=2),
        freeze_dof=True,
        l1_coeff=0.02,
        epochs=1,
    )
    trainer = training.Trainer(obs, labels, cfg)
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    loaded = training.load_checkpoint(path, obs, labels)
    assert loaded.cfg == cfg


def test_checkpoint_rejects_unknown_version(tmp_path):
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=0))
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    state = json.loads(path.read_text())
    state["version"] = 99
    path.write_text(json.dumps(state))
    with pytest.raises(ValidationError):
        training.load_checkpoint(path, obs, labels)


def test_checkpoint_rejects_version_one(tmp_path):
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=0))
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    state = json.loads(path.read_text())
    state["version"] = 1
    with pytest.raises(ValidationError, match=r"version 1 \(expected 2\)"):
        training.restore_checkpoint(state, obs, labels)


def bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def test_checkpoint_round_trips_extreme_floats_bitwise(tmp_path):
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=1))
    trainer.train_epochs(1)
    extremes = np.array([-0.0, 5e-324, 1e308, -5e-324])
    p = trainer.params()["enc.W0"]
    flat = p.data.ravel().copy()
    flat[:4] = extremes
    p.assign_(flat.reshape(p.shape))
    m, v = trainer.moments["mix.mu"]
    m = m.copy()
    m.ravel()[:4] = extremes
    trainer.moments["mix.mu"] = (m, v)
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    loaded = training.load_checkpoint(path, obs, labels)
    assert np.signbit(loaded.params()["enc.W0"].data.ravel()[0])
    for name, q in trainer.params().items():
        assert bits(loaded.params()[name].data) == bits(q.data)
    assert list(loaded.moments) == list(trainer.moments)
    for name, (m, v) in trainer.moments.items():
        assert bits(loaded.moments[name][0]) == bits(m)
        assert bits(loaded.moments[name][1]) == bits(v)
    assert bits(loaded.warm_weights) == bits(trainer.warm_weights)


def test_checkpoint_layout_and_same_seed_bytes(tmp_path):
    obs, labels = two_blobs()
    paths = []
    for i in range(2):
        trainer = training.Trainer(obs, labels, base_config(epochs=1))
        trainer.train_epochs(1)
        paths.append(tmp_path / f"ckpt{i}.json")
        training.save_checkpoint(trainer, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    state = json.loads(paths[0].read_text())
    assert list(state) == [
        "version", "config", "epoch", "step", "params", "moments",
        "warm_weights", "rng_state",
    ]
    assert state["version"] == 2
    w0 = state["params"]["enc.W0"]
    assert list(w0) == ["dtype", "shape", "data"]
    assert w0["dtype"] == "<f8" and w0["shape"] == [2, 16]
    assert np.array_equal(
        training.decode_array(w0), trainer.params()["enc.W0"].data
    )


def drop_param(state):
    del state["params"]["enc.W0"]


def add_param(state):
    state["params"]["enc.W9"] = state["params"]["enc.b0"]


def reshape_param(state):
    state["params"]["enc.W0"]["shape"] = [16, 2]


def truncate_param(state):
    arr = state["params"]["enc.W0"]
    arr["data"] = arr["data"][:-8]


def retype_param(state):
    state["params"]["enc.W0"]["dtype"] = "<f4"


def reshape_moment(state):
    state["moments"]["enc.W0"][1]["shape"] = [32]


def add_moment(state):
    state["moments"]["enc.W9"] = state["moments"]["enc.b0"]


def drop_params(state):
    del state["params"]


@pytest.mark.parametrize(
    "corrupt",
    [
        drop_param, add_param, reshape_param, truncate_param, retype_param,
        reshape_moment, add_moment, drop_params,
    ],
)
def test_checkpoint_restore_rejects_mismatched_arrays(tmp_path, corrupt):
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=1))
    trainer.train_epochs(1)
    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    state = json.loads(path.read_text())
    corrupt(state)
    name = "params" if corrupt is drop_params else "enc.W"
    with pytest.raises(ValidationError, match=name):
        training.restore_checkpoint(state, obs, labels)


def test_sample_shapes_and_determinism():
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=0))
    out1 = trainer.sample(50, np.random.default_rng(40))
    out2 = trainer.sample(50, np.random.default_rng(40))
    clusters, u, x, o = out1
    assert clusters.shape == (50,) and u.shape == (50,)
    assert x.shape == (50, 2) and o.shape == (50, 2)
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)
    empty = trainer.sample(0, np.random.default_rng(41))
    assert empty[2].shape == (0, 2) and empty[3].shape == (0, 2)
    with pytest.raises(ContractViolation):
        trainer.sample(-1, np.random.default_rng(42))


# ------------------------------------------------- forward-only requests


def assert_scores_match_the_graph_route(trainer, obs):
    enc = network.encoder_forward(Tensor(obs), trainer.encoder)
    params = mixture.materialize_params(trainer.raw_mix)
    expected = mixture.posterior_stats(enc, params).gamma.data
    assert np.array_equal(trainer.predict_responsibilities(obs), expected)


def test_scores_follow_every_parameter_change(tmp_path):
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=2))
    assert_scores_match_the_graph_route(trainer, obs)
    trainer.train_epochs(1)  # Adam steps, then the closed-form refit
    assert_scores_match_the_graph_route(trainer, obs)
    rng = np.random.default_rng(50)
    for p in trainer.raw_mix.params().values():
        p.assign_(p.data + 0.05 * rng.standard_normal(p.shape))
        assert_scores_match_the_graph_route(trainer, obs)

    path = tmp_path / "ckpt.json"
    training.save_checkpoint(trainer, path)
    loaded = training.load_checkpoint(path, obs, labels)
    assert_scores_match_the_graph_route(loaded, obs)
    assert np.array_equal(
        loaded.predict_responsibilities(obs), trainer.predict_responsibilities(obs)
    )


def test_scores_follow_training_under_freeze_dof():
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(freeze_dof=True))
    assert_scores_match_the_graph_route(trainer, obs)
    trainer.train_epochs(1)
    assert_scores_match_the_graph_route(trainer, obs)


def test_sample_draws_from_the_current_mixture():
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=2))
    trainer.sample(5, np.random.default_rng(60))  # caches the initial mixture
    trainer.train_epochs(1)
    drawn = trainer.sample(40, np.random.default_rng(61))
    expected = mixture.sample_generative(
        np.random.default_rng(61), mixture.materialize_params(trainer.raw_mix), 40
    )
    for a, b in zip(drawn, expected):
        assert np.array_equal(a, b)


def test_forward_only_requests_build_no_graph():
    obs, labels = two_blobs()
    trainer = training.Trainer(obs, labels, base_config(epochs=1))
    trainer.train_epochs()
    for stats in trainer._encode(obs, chunk=50):
        assert not stats.mu_x.requires_grad and not stats.log_std_x.requires_grad
    params = trainer._constant_mixture()
    tensors = [params.pi, params.nu, params.mu, params.log_det_sigma]
    tensors += params.sigma + params.sigma_inv
    assert not any(t.requires_grad for t in tensors)


@pytest.fixture(scope="module")
def k30_trainer():
    """An untrained K=30, D=20 model whose mixture is moved off its warm
    start, with 2049 rows: one more than a scoring chunk."""
    rng = np.random.default_rng(70)
    obs = rng.standard_normal((2049, 40))
    labels = np.arange(2049) % 30
    cfg = base_config(
        net=network.MlpConfig((40, 32, 20), "tanh"),
        latent_dim=20,
        n_components=30,
        epochs=0,
    )
    trainer = training.Trainer(obs, labels, cfg)
    for p in trainer.raw_mix.params().values():
        p.assign_(p.data + 0.1 * rng.standard_normal(p.shape))
    return trainer, obs


def graph_gamma(trainer, enc):
    params = mixture.materialize_params(trainer.raw_mix)
    return mixture.posterior_stats(enc, params).gamma.data


def test_numpy_scores_keep_the_graph_bits_across_the_chunk_boundary(k30_trainer):
    trainer, obs = k30_trainer
    expected = np.vstack(
        [
            graph_gamma(trainer, network.encoder_forward(Tensor(part), trainer.encoder))
            for part in (obs[:2048], obs[2048:])
        ]
    )
    gamma = trainer.predict_responsibilities(obs)
    assert gamma.shape == (2049, 30)
    assert np.array_equal(gamma, expected)


@pytest.mark.parametrize("case", ["far", "low_std", "high_std"])
def test_numpy_scores_keep_the_graph_bits_on_extreme_rows(k30_trainer, case):
    trainer, _ = k30_trainer
    rng = np.random.default_rng(71)
    clamp = trainer.cfg.log_std_clamp
    mu_x = rng.standard_normal((64, 20))
    log_std_x = rng.uniform(-clamp, clamp, (64, 20))
    if case == "far":  # 1e3 times farther out than any component mean
        scale = 1e3 * np.abs(trainer.raw_mix.mu.data).max()
        mu_x *= scale / np.abs(mu_x).max(axis=1, keepdims=True)
    else:
        log_std_x[:] = -clamp if case == "low_std" else clamp
    enc = network.EncoderStats(Tensor(mu_x), Tensor(log_std_x))
    gamma = trainer.predict_responsibilities(None, encoded=[enc])
    assert np.array_equal(gamma, graph_gamma(trainer, enc))


def test_numpy_scores_raise_on_an_overflowing_distance(k30_trainer):
    trainer, _ = k30_trainer
    mu_x = np.zeros((3, 20))
    mu_x[1] = 1e200
    enc = network.EncoderStats(Tensor(mu_x), Tensor(np.zeros((3, 20))))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFault):
            graph_gamma(trainer, enc)
        with pytest.raises(NumericFault, match=r"log_qz non-finite at \(n=1, "):
            trainer.predict_responsibilities(None, encoded=[enc])


def test_evaluate_confusion_counts_labels_no_row_is_predicted_as():
    labels = np.array([0, 1, 2, 3, 3, 1, 0, 2])
    gamma = np.eye(4)[[0, 0, 2, 2, 0, 2, 0, 2]]  # never predicts 1 or 3
    _, confusion = fixed_gamma_trainer(gamma, labels).evaluate(
        np.zeros((8, 2)), labels
    )
    expected = np.zeros((4, 4), dtype=np.int64)
    np.add.at(expected, (gamma.argmax(axis=1), labels), 1)
    assert confusion.dtype == np.int64
    assert np.array_equal(confusion, expected)
    assert not confusion[[1, 3]].any()


# ------------------------------------------------------ closed-form refit


def test_solve_dof_returns_root_and_falls_with_the_gap():
    from scipy.special import digamma

    gaps = [-1.0005, -1.002, -1.01, -1.05, -1.1, -1.2]
    roots = [mixture.solve_dof(gap) for gap in gaps]
    for gap, nu in zip(gaps, roots):
        assert mixture.DOF_SOLVE_MIN < nu < mixture.DOF_SOLVE_MAX
        residual = np.log(nu / 2.0) + 1.0 - digamma(nu / 2.0) + gap
        assert abs(residual) < 1e-10, (gap, nu, residual)
    assert all(a > b for a, b in zip(roots, roots[1:]))
    # roots outside the solve range clip to its ends
    assert mixture.solve_dof(-3.0) == mixture.DOF_SOLVE_MIN
    assert mixture.solve_dof(-1.0 - 1e-9) == mixture.DOF_SOLVE_MAX


def labeled_latents(nu_true, dim=8, count=1200, seed=5):
    """Rows from a known two-component t mixture, with their labels."""
    rng = np.random.default_rng(100)
    factors = rng.normal(0.0, 0.5, (2, dim, dim))
    truth = mixture.raw_from_moments(
        [0.5, 0.5],
        rng.normal(0.0, 3.0, (2, dim)),
        factors @ factors.transpose(0, 2, 1) + 0.5 * np.eye(dim),
        0.01,
        nu_true,
    )
    params = mixture.materialize_params(truth)
    labels, _, x = mixture.sample_generative(
        np.random.default_rng(seed), params, count
    )
    return x, labels


def refit_trainer(x, labels, **overrides):
    dim = x.shape[1]
    cfg = base_config(
        net=network.MlpConfig((dim, 16, dim), "tanh"),
        latent_dim=dim,
        nu_init=18.0,
        sigma_jitter_sq=0.01,
        epochs=0,
        **overrides,
    )
    trainer = training.Trainer(x, labels, cfg)
    # near-zero encoder variance: the latents are the sampled rows
    encoded = [network.EncoderStats(Tensor(x), Tensor(np.full_like(x, -9.0)))]
    return trainer, encoded


# per component; [3.0, 1e6] puts a heavy and a Gaussian component side by
# side, each with ~600 rows (>> 2D), so neither pools its dof equation
@pytest.mark.parametrize("nu_true", [3.0, 1e6, [3.0, 1e6]])
def test_refit_passes_track_the_tails_of_labeled_latents(nu_true):
    x, labels = labeled_latents(nu_true)
    trainer, encoded = refit_trainer(x, labels)
    # the trainer's warm start fits other latents, so the first passes see
    # every row as an outlier; near the Gaussian limit ECM moves nu slowly
    for _ in range(100):
        trainer._refit_mixture(encoded)
    nu = mixture.materialize_params(trainer.raw_mix).nu.data
    heavy = np.broadcast_to(nu_true, nu.shape) < 10.0
    assert (nu[heavy] < 10.0).all() and (nu[~heavy] > 30.0).all(), nu
    pi = mixture.materialize_params(trainer.raw_mix).pi.data
    assert np.allclose(pi, np.bincount(labels) / labels.size, atol=1e-12)


def test_refit_dof_of_a_component_with_2d_rows_ignores_the_other_rows():
    x, labels = labeled_latents([3.0, 1e6])
    dim = x.shape[1]
    trainer, encoded = refit_trainer(x, labels)
    for _ in range(20):  # parameters near the rows, so no dof sits at a clip
        trainer._refit_mixture(encoded)
    var = np.full_like(x, np.exp(-18.0))
    for own_rows in (2 * dim, 2 * dim - 1):
        mine = np.flatnonzero(labels == 0)[:own_rows]
        rows = np.concatenate([mine, np.flatnonzero(labels == 1)])
        alone = mixture.refit_labeled(trainer.raw_mix, x[mine], var[mine], labels[mine])
        beside = mixture.refit_labeled(trainer.raw_mix, x[rows], var[rows], labels[rows])
        assert mixture.DOF_SOLVE_MIN < alone[3][0] < mixture.DOF_SOLVE_MAX
        # below 2D rows a component borrows from the others' rows
        assert (alone[3][0] == beside[3][0]) == (own_rows >= 2 * dim), own_rows


def test_refit_under_freeze_dof_keeps_the_dof_bit_identical():
    x, labels = labeled_latents(3.0)
    trainer, encoded = refit_trainer(x, labels, freeze_dof=True)
    before = {name: p.data.copy() for name, p in trainer.raw_mix.params().items()}
    weights, means, covs, _ = mixture.refit_labeled(
        trainer.raw_mix, x, np.full_like(x, np.exp(-18.0)), labels
    )
    trainer._refit_mixture(encoded)
    assert np.array_equal(trainer.raw_mix.n.data, before["mix.n"])
    # pi, mu and Sigma still take the closed-form update
    params = mixture.materialize_params(trainer.raw_mix)
    assert np.allclose(params.pi.data, weights, atol=1e-12)
    assert np.allclose(params.mu.data, means, atol=1e-12)
    for k in range(params.K):
        assert np.allclose(params.sigma[k].data, covs[k], atol=1e-9)
    assert not np.array_equal(trainer.raw_mix.mu.data, before["mix.mu"])
