"""Autodiff engine tests: closed-form gradients, finite-difference oracle,
domain policing, and graph bookkeeping."""

import numpy as np
import pytest

from tvae import elbo, mixture, network
from tvae.errors import ContractViolation, DomainError, NumericFault
from tvae.gradcheck import check_loss_gradients, relative_error
from tvae.tensor import (
    GradientMap,
    Tensor,
    _RowGrad,
    _topological_order,
    concat,
    evaluate_and_grad,
    stack,
)

EULER_GAMMA = 0.5772156649015329


def _fd_check(build_loss, params, tol=1e-4, floor=1e-2):
    reports = check_loss_gradients(build_loss, params, floor=floor)
    for rep in reports.values():
        assert rep.max_rel_err < tol, f"{rep.name}: rel err {rep.max_rel_err:.3e}"


# ------------------------------------------------------------ closed forms


def test_sum_of_squares_gradient():
    w = Tensor.param([1.0, 2.0], "w")
    value, gmap = evaluate_and_grad(w.square().sum())
    assert value == pytest.approx(5.0)
    np.testing.assert_allclose(gmap["w"].data, [2.0, 4.0])


def test_lgamma_gradient_is_digamma():
    w = Tensor.param([3.0], "w")
    value, gmap = evaluate_and_grad(w.lgamma().sum())
    assert value == pytest.approx(np.log(2.0))
    # psi(3) = 1 + 1/2 - Euler-Mascheroni
    assert gmap["w"].data[0] == pytest.approx(1.5 - EULER_GAMMA, abs=1e-10)


def test_matmul_gradient_closed_form():
    a = Tensor.param([[1.0, 2.0], [3.0, 4.0]], "a")
    b = Tensor.param([[5.0], [6.0]], "b")
    _, gmap = evaluate_and_grad((a @ b).sum())
    np.testing.assert_allclose(gmap["a"].data, [[5.0, 6.0], [5.0, 6.0]])
    np.testing.assert_allclose(gmap["b"].data, [[4.0], [6.0]])


def test_chain_rule_through_reused_node():
    # y = x*x + x: gradient 2x + 1, with x feeding two consumers
    x = Tensor.param([3.0], "x")
    _, gmap = evaluate_and_grad((x * x + x).sum())
    assert gmap["x"].data[0] == pytest.approx(7.0)


# ---------------------------------------------- finite-difference per primitive


def test_unary_primitives_match_finite_differences():
    rng = np.random.default_rng(201)
    weights = rng.standard_normal(100)

    cases = {
        "exp": (rng.uniform(-2.0, 2.0, 100), lambda t: t.exp()),
        "log": (np.exp(rng.uniform(-2.0, 2.0, 100)), lambda t: t.log()),
        "square": (rng.uniform(-3.0, 3.0, 100), lambda t: t.square()),
        "tanh": (rng.uniform(-3.0, 3.0, 100), lambda t: t.tanh()),
        "softplus": (rng.uniform(-5.0, 5.0, 100), lambda t: t.softplus()),
        "lgamma": (np.exp(rng.uniform(-1.0, 3.0, 100)), lambda t: t.lgamma()),
        "digamma": (np.exp(rng.uniform(-1.0, 3.0, 100)), lambda t: t.digamma()),
        "neg": (rng.uniform(-3.0, 3.0, 100), lambda t: -t),
    }
    # keep kinked primitives away from their kink so FD is valid
    relu_x = rng.uniform(-3.0, 3.0, 100)
    relu_x[np.abs(relu_x) < 0.05] += 0.1
    cases["relu"] = (relu_x, lambda t: t.relu())
    abs_x = rng.uniform(-3.0, 3.0, 100)
    abs_x[np.abs(abs_x) < 0.05] += 0.1
    cases["abs"] = (abs_x, lambda t: t.abs())
    clip_x = rng.uniform(-3.0, 3.0, 100)
    clip_x[np.abs(clip_x - 0.5) < 0.05] += 0.1
    cases["clip_min"] = (clip_x, lambda t: t.clip_min(0.5))

    for name, (x, op) in cases.items():
        w = Tensor.param(x, f"w_{name}")
        _fd_check(lambda: (op(w) * weights).sum(), {f"w_{name}": w})


def test_binary_primitives_match_finite_differences():
    rng = np.random.default_rng(202)
    a = Tensor.param(rng.standard_normal((5, 4)), "a")
    b = Tensor.param(rng.standard_normal((5, 4)), "b")
    bias = Tensor.param(rng.standard_normal(4), "bias")
    d = Tensor.param(np.exp(rng.standard_normal((5, 4))), "d")
    w = rng.standard_normal((5, 4))

    _fd_check(lambda: ((a + b) * w).sum(), {"a": a, "b": b})
    _fd_check(lambda: ((a - b) * w).sum(), {"a": a, "b": b})
    _fd_check(lambda: ((a * b) * w).sum(), {"a": a, "b": b})
    _fd_check(lambda: ((a / d) * w).sum(), {"a": a, "d": d})
    # broadcast add of a bias row, as used by the dense layers
    _fd_check(lambda: ((a + bias) * w).sum(), {"a": a, "bias": bias})


def test_matmul_softmax_reductions_match_finite_differences():
    rng = np.random.default_rng(203)
    a = Tensor.param(rng.standard_normal((4, 3)), "a")
    b = Tensor.param(rng.standard_normal((3, 5)), "b")
    w = rng.standard_normal((4, 5))
    _fd_check(lambda: ((a @ b) * w).sum(), {"a": a, "b": b})

    z = Tensor.param(rng.standard_normal((6, 4)), "z")
    wz = rng.standard_normal((6, 4))
    _fd_check(lambda: (z.softmax(axis=-1) * wz).sum(), {"z": z})
    _fd_check(lambda: (z.softmax(axis=0) * wz).sum(), {"z": z})

    _fd_check(lambda: (z.sum(axis=0) * wz[0]).sum(), {"z": z})
    _fd_check(lambda: (z.sum(axis=1) * wz[:, 0]).sum(), {"z": z})
    _fd_check(lambda: (z.mean(axis=1) * wz[:, 0]).sum(), {"z": z})
    _fd_check(lambda: z.sum(), {"z": z})


def test_matrix_primitives_match_finite_differences():
    rng = np.random.default_rng(204)
    base = rng.standard_normal((3, 3))
    spd = base @ base.T + 3.0 * np.eye(3)
    m = Tensor.param(spd, "m")
    w = rng.standard_normal((3, 3))

    _fd_check(lambda: (m.inverse() * w).sum(), {"m": m})
    _fd_check(lambda: m.logdet(), {"m": m})
    _fd_check(lambda: (m.diag_part() * w[0]).sum(), {"m": m})

    v = Tensor.param(rng.standard_normal(3), "v")
    _fd_check(lambda: (v.diag_embed() * w).sum(), {"v": v})

    x = Tensor.param(rng.standard_normal((4, 3)), "x")
    wx = rng.standard_normal((3, 4))
    _fd_check(lambda: (x.T * wx).sum(), {"x": x})
    _fd_check(lambda: (x.reshape(2, 6) * wx.reshape(2, 6)).sum(), {"x": x})
    _fd_check(lambda: (x.take(2) * wx[:, 0]).sum(), {"x": x})


def test_stack_concat_match_finite_differences():
    rng = np.random.default_rng(205)
    parts = [Tensor.param(rng.standard_normal(4), f"p{i}") for i in range(3)]
    params = {f"p{i}": p for i, p in enumerate(parts)}
    w = rng.standard_normal((3, 4))
    _fd_check(lambda: (stack(parts, axis=0) * w).sum(), params)
    _fd_check(lambda: (stack(parts, axis=1) * w.T).sum(), params)
    wc = rng.standard_normal(12)
    _fd_check(lambda: (concat(parts, axis=0) * wc).sum(), params)


def test_small_mlp_matches_finite_differences():
    # 3-4-2 tanh network with a quadratic loss
    rng = np.random.default_rng(206)
    x = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 2))
    params = {
        "W1": Tensor.param(rng.standard_normal((3, 4)) * 0.5, "W1"),
        "b1": Tensor.param(rng.standard_normal(4) * 0.1, "b1"),
        "W2": Tensor.param(rng.standard_normal((4, 2)) * 0.5, "W2"),
        "b2": Tensor.param(rng.standard_normal(2) * 0.1, "b2"),
    }

    def build_loss():
        h = (Tensor.const(x) @ params["W1"] + params["b1"]).tanh()
        out = h @ params["W2"] + params["b2"]
        return (out - target).square().sum()

    _fd_check(build_loss, params)


def test_gradcheck_negative_control():
    w = Tensor.param([1.0, 2.0], "w")

    def corrupt(name, grad):
        grad[0] += 0.5
        return grad

    reports = check_loss_gradients(
        lambda: w.square().sum(), {"w": w}, corrupt=corrupt
    )
    assert not reports["w"].passed()


# ----------------------------------------------------------- domain policing


def test_log_rejects_nonpositive():
    t = Tensor([1.0, -1.0])
    with pytest.raises(DomainError, match="log"):
        t.log()


def test_lgamma_rejects_nonpositive():
    t = Tensor([0.0])
    with pytest.raises(DomainError, match="lgamma"):
        t.lgamma()


def test_div_rejects_zero_denominator():
    with pytest.raises(DomainError, match="div"):
        Tensor([1.0]) / Tensor([0.0])


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflow_raises_numeric_fault():
    with pytest.raises(NumericFault, match="exp"):
        Tensor([1e6]).exp()


def test_nonfinite_leaf_rejected():
    with pytest.raises(ContractViolation):
        Tensor([np.nan])
    with pytest.raises(ContractViolation):
        Tensor([np.inf])


@pytest.mark.filterwarnings("ignore:overflow")
def test_tiny_log_argument_faults_in_backward():
    x = Tensor.param([1e-310], "x")
    with pytest.raises(NumericFault, match="'log'"):
        evaluate_and_grad(x.log().sum())


@pytest.mark.filterwarnings("ignore:overflow")
def test_finite_data_whose_sum_overflows_is_accepted():
    big = Tensor([1e308, 1e308])
    np.testing.assert_array_equal(big.data, [1e308, 1e308])
    with pytest.raises(NumericFault, match="'sum'"):
        big.sum()


def test_inverse_rejects_singular():
    with pytest.raises(DomainError, match="singular"):
        Tensor(np.zeros((2, 2))).inverse()


def test_logdet_rejects_nonpositive_determinant():
    with pytest.raises(DomainError):
        Tensor([[1.0, 0.0], [0.0, -1.0]]).logdet()


def test_matmul_shape_contract():
    with pytest.raises(ContractViolation):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
    with pytest.raises(ContractViolation):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


# --------------------------------------------------------- graph bookkeeping


def test_loss_must_be_scalar():
    w = Tensor.param([1.0, 2.0], "w")
    with pytest.raises(ContractViolation, match="scalar"):
        evaluate_and_grad(w.square())


def test_unnamed_trainable_leaf_rejected():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractViolation, match="name"):
        evaluate_and_grad(w.square().sum())


def test_duplicate_names_rejected():
    a = Tensor.param([1.0], "w")
    b = Tensor.param([2.0], "w")
    with pytest.raises(ContractViolation, match="share the name"):
        evaluate_and_grad((a * b).sum())


def test_gradient_map_has_every_reachable_parameter_once():
    a = Tensor.param([1.0, -1.0], "a")
    b = Tensor.param([2.0, 3.0], "b")
    # b enters through a dead relu path: still reachable, gradient zeros
    loss = (a * 2.0).sum() + (-(b.square())).relu().sum()
    _, gmap = evaluate_and_grad(loss)
    assert isinstance(gmap, GradientMap)
    assert sorted(gmap) == ["a", "b"]
    np.testing.assert_allclose(gmap["b"].data, [0.0, 0.0])


def test_detach_blocks_gradient():
    a = Tensor.param([2.0], "a")
    loss = (a.detach() * a).sum()
    _, gmap = evaluate_and_grad(loss)
    # d/da (c * a) with c = detached copy: only the live branch contributes
    np.testing.assert_allclose(gmap["a"].data, [2.0])


def test_determinism_bit_identical():
    rng = np.random.default_rng(207)
    w = Tensor.param(rng.standard_normal((4, 4)), "w")
    x = Tensor(rng.standard_normal((4, 4)))

    def run():
        return evaluate_and_grad(((w @ x).tanh().square()).sum())

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1["w"].data, g2["w"].data)


def _dense_reference_grads(loss):
    """The backward walk without the engine's shortcuts: every contribution
    a dense array (a ``take`` gradient expanded to its parent's shape),
    summed into a fresh array each time, in the engine's order."""
    grads = {id(loss): np.ones(())}
    leaves = {}
    for node in reversed(_topological_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                leaves[node.name] = g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            if isinstance(pg, _RowGrad):
                full = np.zeros_like(parent.data)
                full[pg.index] = pg.value
                pg = full
            pg = np.asarray(pg, dtype=np.float64)
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
    return leaves


def _small_mixture_loss(mode_kind):
    rng = np.random.default_rng(311)
    n_rows, obs_dim, latent_dim, k_count = 7, 5, 2, 3
    enc = network.TwoHeadMlp(
        network.MlpConfig((obs_dim, 6, latent_dim), "tanh"), "enc", rng
    )
    dec = network.TwoHeadMlp(
        network.MlpConfig((latent_dim, 6, obs_dim), "tanh"), "dec", rng
    )
    raw = mixture.SmmRawParams(
        m=rng.standard_normal(k_count) * 0.3,
        n=rng.uniform(3.0, 6.0, k_count),
        mu=rng.standard_normal((k_count, latent_dim)),
        c_raw=rng.standard_normal((k_count, latent_dim, latent_dim)) * 0.2,
        c_logdiag=rng.uniform(-0.5, 0.2, (k_count, latent_dim)),
        sigma_jitter_sq=0.01,
    )
    labels = rng.integers(0, k_count, n_rows) if mode_kind == "supervised" else None
    return elbo.loss_batch(
        rng.standard_normal((n_rows, obs_dim)),
        enc,
        dec,
        raw,
        mode_kind,
        0.01,
        rng=rng,
        t_samples=2,
        labels=labels,
    )


@pytest.mark.parametrize("mode_kind", ["supervised", "unsupervised"])
def test_backward_equals_dense_reference_walk(mode_kind):
    # take-scatter mixed with dense uses of the same leaf, constant operands
    # (one-hot weights, masks, observations) and shared parents
    loss = _small_mixture_loss(mode_kind)
    _, gmap = evaluate_and_grad(loss)
    want = _dense_reference_grads(loss)
    assert sorted(gmap) == sorted(want)
    for name, g in want.items():
        assert np.array_equal(gmap[name].data, g), name


def test_backward_of_aliased_contributions_equals_dense_reference_walk():
    # ``p + q`` hands one array to both parents as their first gradient;
    # later contributions to p (dense or take) must not change q's
    rng = np.random.default_rng(317)
    p = Tensor.param(rng.standard_normal((3, 2)), "p")
    q = Tensor.param(rng.standard_normal((3, 2)), "q")
    w = Tensor(rng.standard_normal((3, 2)))
    for build in (
        lambda: ((p + q) * w).sum() + (p * w).sum() + (p * p).sum(),
        lambda: ((p + q) * w).sum() + p.take(1).square().sum() + p.take(2).sum(),
        lambda: (p + q).sum() + (p.take(0) * p.take(0)).sum() + (q + q).sum(),
        lambda: p.take(0).sum() + ((p + q) * w).sum() + (p - q).square().sum(),
    ):
        loss = build()
        _, gmap = evaluate_and_grad(loss)
        want = _dense_reference_grads(loss)
        for name, g in want.items():
            assert np.array_equal(gmap[name].data, g), name


def test_backward_repeats_and_leaves_node_data_alone():
    loss = _small_mixture_loss("supervised")
    nodes = _topological_order(loss)
    before = [node.data.copy() for node in nodes]
    v1, g1 = evaluate_and_grad(loss)
    v2, g2 = evaluate_and_grad(loss)
    assert v1 == v2
    assert sorted(g1) == sorted(g2)
    for name in g1:
        assert np.array_equal(g1[name].data, g2[name].data), name
    for node, data in zip(nodes, before):
        assert np.array_equal(node.data, data), node


def test_logdet_gradient_with_and_without_inverse_of_the_same_node():
    rng = np.random.default_rng(313)
    a = Tensor.param(rng.standard_normal((3, 3)), "a")
    eye = np.eye(3) * 0.5

    def alone():
        return (a @ a.T + eye).logdet()

    def with_inverse():
        spd = a @ a.T + eye
        return spd.inverse().sum() + spd.logdet()

    _fd_check(alone, {"a": a})
    _fd_check(with_inverse, {"a": a})
    # a leaf's inverse is not reused, because assign_ may replace its data
    s = Tensor.param(np.eye(2) * 2.0, "s")
    s.inverse()
    s.assign_(np.eye(2) * 4.0)
    _, gmap = evaluate_and_grad(s.logdet())
    np.testing.assert_allclose(gmap["s"].data, np.eye(2) * 0.25)


def test_assign_is_the_update_path():
    w = Tensor.param([1.0, 2.0], "w")
    w.assign_([3.0, 4.0])
    np.testing.assert_allclose(w.data, [3.0, 4.0])
    with pytest.raises(ContractViolation):
        w.assign_([1.0, 2.0, 3.0])
    with pytest.raises(NumericFault):
        w.assign_([np.nan, 0.0])


def test_relative_error_floor():
    errs = relative_error([1e-9], [0.0], floor=1e-2)
    assert errs[0] == pytest.approx(1e-7)
