"""Data generators, CSV round trips, split plans, cluster-class matching."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from tvae import data
from tvae.errors import ValidationError


# ------------------------------------------------------------------ datasets


def test_dataset_validation():
    with pytest.raises(ValidationError):
        data.Dataset(np.zeros(3))
    with pytest.raises(ValidationError):
        data.Dataset(np.array([[1.0, np.nan]]))
    with pytest.raises(ValidationError):
        data.Dataset(np.zeros((2, 2)), labels=np.array([0]))
    with pytest.raises(ValidationError):
        data.Dataset(np.zeros((2, 2)), labels=np.array([0, -1]))
    ds = data.Dataset(np.zeros((4, 2)), labels=np.array([0, 1, 2, 2]))
    assert ds.n_rows == 4 and ds.n_features == 2 and ds.n_classes == 3


# ------------------------------------------------------------------ pinwheel


def test_pinwheel_default_shape_and_labels():
    ds = data.gen_pinwheel(np.random.default_rng(1))
    assert ds.observations.shape == (2000, 2)
    assert set(np.unique(ds.labels)) == {0, 1, 2, 3, 4}
    assert np.bincount(ds.labels).tolist() == [400] * 5
    assert np.isfinite(ds.observations).all()


def test_pinwheel_determinism():
    a = data.gen_pinwheel(np.random.default_rng(2))
    b = data.gen_pinwheel(np.random.default_rng(2))
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.labels, b.labels)


def test_pinwheel_unwarped_arms_are_straight_rays():
    ds = data.gen_pinwheel(
        np.random.default_rng(3),
        arms=4,
        points_per_arm=50,
        radial_std=0.05,
        tangential_std=0.0,
        rate=0.0,
    )
    base = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
    pts = ds.observations
    units = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    want = np.stack([np.cos(base[ds.labels]), np.sin(base[ds.labels])], axis=1)
    assert np.abs(units - want).max() < 1e-12


def test_pinwheel_validation():
    with pytest.raises(ValidationError):
        data.gen_pinwheel(np.random.default_rng(0), arms=1)
    with pytest.raises(ValidationError):
        data.gen_pinwheel(np.random.default_rng(0), points_per_arm=0)


# ----------------------------------------------------------------- surrogate


def _projected_excess_kurtosis(ds, label, rng, n_directions=3):
    x = ds.observations[ds.labels == label]
    out = []
    for _ in range(n_directions):
        v = rng.standard_normal(x.shape[1])
        v /= np.linalg.norm(v)
        z = x @ v
        z = (z - z.mean()) / z.std()
        out.append(float((z**4).mean() - 3.0))
    return float(np.mean(out))


def test_surrogate_counts_labels_and_determinism():
    ds = data.gen_surrogate_attribution(
        np.random.default_rng(4), k_classes=6, obs_dim=30, per_class=(10, 20)
    )
    assert ds.observations.shape[1] == 30
    counts = np.bincount(ds.labels, minlength=6)
    assert (counts >= 10).all() and (counts <= 20).all()
    assert set(np.unique(ds.labels)) == set(range(6))
    ds2 = data.gen_surrogate_attribution(
        np.random.default_rng(4), k_classes=6, obs_dim=30, per_class=(10, 20)
    )
    assert np.array_equal(ds.observations, ds2.observations)

    single = data.gen_surrogate_attribution(
        np.random.default_rng(5), k_classes=1, obs_dim=8, per_class=(5, 8)
    )
    assert (single.labels == 0).all()


def test_surrogate_gaussian_dof_passes_kurtosis_screen():
    ds = data.gen_surrogate_attribution(
        np.random.default_rng(7),
        k_classes=4,
        obs_dim=40,
        per_class=(250, 300),
        dof_nu_true=1e6,
    )
    rng = np.random.default_rng(8)
    for c in range(4):
        assert abs(_projected_excess_kurtosis(ds, c, rng)) < 1.0


def test_surrogate_low_dof_is_heavy_tailed():
    ds = data.gen_surrogate_attribution(
        np.random.default_rng(7),
        k_classes=4,
        obs_dim=40,
        per_class=(250, 300),
        dof_nu_true=3.0,
    )
    rng = np.random.default_rng(8)
    kurt = [_projected_excess_kurtosis(ds, c, rng) for c in range(4)]
    assert np.median(kurt) > 1.5


def test_surrogate_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        data.gen_surrogate_attribution(rng, k_classes=0)
    with pytest.raises(ValidationError):
        data.gen_surrogate_attribution(rng, per_class=(5, 3))
    with pytest.raises(ValidationError):
        data.gen_surrogate_attribution(rng, dof_nu_true=-2.0)


# ----------------------------------------------------------------------- CSV


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(9)
    obs = rng.standard_normal((40, 3)) * np.exp(rng.uniform(-20, 20, (40, 3)))
    ds = data.Dataset(obs, labels=rng.integers(0, 4, 40))
    path = tmp_path / "round.csv"
    data.save_csv(ds, path)
    back = data.load_csv(path)
    assert np.array_equal(back.observations, ds.observations)
    assert np.array_equal(back.labels, ds.labels)

    unlabeled = data.Dataset(obs)
    path2 = tmp_path / "round2.csv"
    data.save_csv(unlabeled, path2)
    back2 = data.load_csv(path2)
    assert back2.labels is None
    assert np.array_equal(back2.observations, obs)


def test_csv_header_only_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    ds = data.load_csv(path)
    assert ds.n_rows == 0 and ds.n_features == 2
    assert ds.labels is not None and ds.labels.size == 0


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n", "line 3"),
        ("f0,f1,label\n1.0,2.0\n", "line 2"),
        ("f0,f1,label\n1.0,2.0,zebra\n", "line 2"),
        ("f0,f1,label\n1.0,2.0,-3\n", "line 2"),
        ("x,y\n1.0,2.0\n", "header"),
        ("", "header"),
    ],
)
def test_csv_malformed_inputs_are_rejected_with_location(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValidationError) as err:
        data.load_csv(path)
    assert fragment in str(err.value)


# -------------------------------------------------------------------- splits


def labeled_dataset(n=400, k=4, seed=10):
    rng = np.random.default_rng(seed)
    return data.Dataset(
        rng.standard_normal((n, 3)), labels=rng.integers(0, k, n)
    )


def test_kfold_partitions_are_disjoint_and_exhaustive():
    ds = labeled_dataset()
    plan = data.kfold_split(ds, folds=5, rng=np.random.default_rng(11))
    holdout = np.concatenate([plan.dev_indices, plan.test_indices])
    train_rows = np.nonzero(plan.fold_of >= 0)[0]
    combined = np.sort(np.concatenate([holdout, train_rows]))
    assert np.array_equal(combined, np.arange(ds.n_rows))
    assert np.intersect1d(plan.dev_indices, plan.test_indices).size == 0
    assert abs(holdout.size - 0.2 * ds.n_rows) <= 4
    assert abs(plan.dev_indices.size - plan.test_indices.size) <= 2
    for fold in range(5):
        overlap = np.intersect1d(plan.train_indices(fold), plan.val_indices(fold))
        assert overlap.size == 0
        assert (
            plan.train_indices(fold).size + plan.val_indices(fold).size
            == train_rows.size
        )


def test_kfold_stratification_within_two_percent():
    ds = labeled_dataset(n=2000, k=4, seed=12)
    plan = data.kfold_split(ds, folds=5, rng=np.random.default_rng(13))
    train_rows = np.nonzero(plan.fold_of >= 0)[0]
    global_prop = np.bincount(ds.labels[train_rows], minlength=4) / train_rows.size
    for fold in range(5):
        rows = plan.val_indices(fold)
        prop = np.bincount(ds.labels[rows], minlength=4) / rows.size
        assert np.abs(prop - global_prop).max() < 0.02


def test_kfold_label_fraction():
    ds = labeled_dataset()
    full = data.kfold_split(ds, label_fraction=1.0, rng=np.random.default_rng(14))
    assert full.labeled_mask.all()

    half = data.kfold_split(ds, label_fraction=0.5, rng=np.random.default_rng(15))
    train_rows = np.nonzero(half.fold_of >= 0)[0]
    kept = half.labeled_mask[train_rows].sum()
    assert kept == round(0.5 * train_rows.size)
    holdout = np.concatenate([half.dev_indices, half.test_indices])
    assert half.labeled_mask[holdout].all()


def test_kfold_validation():
    ds = labeled_dataset(n=20)
    rng = np.random.default_rng(16)
    with pytest.raises(ValidationError):
        data.kfold_split(ds, label_fraction=0.0, rng=rng)
    with pytest.raises(ValidationError):
        data.kfold_split(ds, label_fraction=1.2, rng=rng)
    with pytest.raises(ValidationError):
        data.kfold_split(labeled_dataset(n=3), folds=5, rng=rng)
    with pytest.raises(ValidationError):
        data.kfold_split(ds, rng=None)


def test_kfold_determinism():
    ds = labeled_dataset()
    a = data.kfold_split(ds, label_fraction=0.4, rng=np.random.default_rng(17))
    b = data.kfold_split(ds, label_fraction=0.4, rng=np.random.default_rng(17))
    assert np.array_equal(a.fold_of, b.fold_of)
    assert np.array_equal(a.dev_indices, b.dev_indices)
    assert np.array_equal(a.labeled_mask, b.labeled_mask)


# ------------------------------------------------------------------ matching


def test_matching_identity_and_permuted():
    eye = np.eye(4) * 25
    mapping, acc = data.match_clusters_to_classes(eye)
    assert np.array_equal(mapping, np.arange(4))
    assert acc == 1.0

    perm = np.array([2, 0, 3, 1])
    permuted = eye[:, perm]  # permuted[i, j] = 25 iff perm[j] == i
    mapping_p, acc_p = data.match_clusters_to_classes(permuted)
    inverse = np.argsort(perm)
    assert np.array_equal(mapping_p, inverse)
    assert acc_p == 1.0


def test_matching_uniform_confusion():
    _, acc = data.match_clusters_to_classes(np.full((2, 2), 25.0))
    assert acc == 0.5


def test_matching_agrees_with_brute_force():
    rng = np.random.default_rng(18)
    for k in range(2, 7):
        for _ in range(5):
            confusion = rng.integers(0, 30, (k, k)).astype(float)
            mapping, acc = data.match_clusters_to_classes(confusion)
            best = max(
                sum(confusion[i, p[i]] for i in range(k))
                for p in itertools.permutations(range(k))
            )
            got = sum(confusion[i, mapping[i]] for i in range(k))
            assert got == best
            assert acc == pytest.approx(best / confusion.sum())
            assert sorted(mapping) == list(range(k))


def test_matching_equals_scipy_on_random_counts():
    rng = np.random.default_rng(19)
    for k in range(1, 31):
        cases = [np.zeros((k, k))]
        for high in (1, 2, 5, 40, 40, 400):  # small ranges give many ties
            confusion = rng.integers(0, high + 1, (k, k)).astype(float)
            if high == 40:
                confusion[rng.integers(k)] = 0
                confusion[:, rng.integers(k)] = 0
            cases.append(confusion)
        for confusion in cases:
            mapping, acc = data.match_clusters_to_classes(confusion)
            rows, cols = linear_sum_assignment(confusion, maximize=True)
            total = confusion.sum()
            want = float(confusion[rows, cols].sum() / total) if total > 0 else 0.0
            assert sorted(mapping) == list(range(k))
            assert confusion[np.arange(k), mapping].sum() == confusion[rows, cols].sum()
            assert acc == want


def test_matching_validation():
    with pytest.raises(ValidationError):
        data.match_clusters_to_classes(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        data.match_clusters_to_classes(np.array([[1.0, -1.0], [0.0, 1.0]]))
