"""Synthetic data generators, CSV round-tripping, cross-validation splits,
and cluster-to-class matching."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, ValidationError

HOLDOUT_FRACTION = 0.2  # split equally into dev and test halves


@dataclass
class Dataset:
    """Observations (N, L) with optional integer labels in [0, K)."""

    observations: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=np.float64)
        if obs.ndim != 2:
            raise ValidationError(f"observations must be 2-d, got {obs.shape}")
        if not np.isfinite(obs).all():
            raise ValidationError("observations contain non-finite values")
        self.observations = obs
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim != 1 or labels.shape[0] != obs.shape[0]:
                raise ValidationError(
                    f"labels shape {labels.shape} does not match {obs.shape[0]} rows"
                )
            if labels.size and (
                not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0
            ):
                raise ValidationError("labels must be non-negative integers")
            self.labels = labels.astype(np.int64)

    @property
    def n_rows(self):
        return self.observations.shape[0]

    @property
    def n_features(self):
        return self.observations.shape[1]

    @property
    def n_classes(self):
        if self.labels is None or self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1


@dataclass
class SplitPlan:
    """Fold assignment per row (-1 = holdout), dev/test holdout halves, and
    the mask of rows whose labels remain available for training."""

    fold_of: np.ndarray  # (N,) int, -1 for holdout rows
    dev_indices: np.ndarray
    test_indices: np.ndarray
    labeled_mask: np.ndarray  # (N,) bool
    folds: int = 5
    label_fraction: float = 1.0

    def __post_init__(self):
        n = self.fold_of.shape[0]
        holdout = np.concatenate([self.dev_indices, self.test_indices])
        if np.unique(holdout).size != holdout.size:
            raise ContractViolation("dev/test holdout sets overlap")
        if not np.array_equal(np.sort(np.nonzero(self.fold_of < 0)[0]), np.sort(holdout)):
            raise ContractViolation("holdout rows disagree with fold assignment")
        if self.fold_of.max(initial=-1) >= self.folds:
            raise ContractViolation("fold index out of range")
        if self.labeled_mask.shape != (n,):
            raise ContractViolation("labeled mask has the wrong shape")

    def train_indices(self, fold):
        return np.nonzero((self.fold_of >= 0) & (self.fold_of != fold))[0]

    def val_indices(self, fold):
        return np.nonzero(self.fold_of == fold)[0]


# ------------------------------------------------------------------ pinwheel


def gen_pinwheel(
    rng,
    arms=5,
    points_per_arm=400,
    radial_std=0.3,
    tangential_std=0.05,
    rate=0.25,
):
    """Spiral-arm point cloud in the plane; labels are arm indices.

    Per arm, Gaussian features (radius ~ N(1, radial_std), tangent ~
    N(0, tangential_std)) are rotated to the arm's base angle plus a warp
    proportional to exp(radius), producing interleaved spirals.
    """
    if arms < 2:
        raise ValidationError(f"need at least 2 arms, got {arms}")
    if points_per_arm < 1:
        raise ValidationError("points_per_arm must be positive")
    n = arms * points_per_arm
    base_angles = np.linspace(0.0, 2.0 * np.pi, arms, endpoint=False)
    labels = np.repeat(np.arange(arms), points_per_arm)
    features = rng.standard_normal((n, 2)) * np.array([radial_std, tangential_std])
    features[:, 0] += 1.0
    angles = base_angles[labels] + rate * np.exp(features[:, 0])
    cos, sin = np.cos(angles), np.sin(angles)
    obs = np.stack(
        [
            features[:, 0] * cos - features[:, 1] * sin,
            features[:, 0] * sin + features[:, 1] * cos,
        ],
        axis=1,
    )
    return Dataset(observations=obs, labels=labels, name="pinwheel")


# ------------------------------------------------- surrogate attribution set


def gen_surrogate_attribution(
    rng,
    k_classes=30,
    obs_dim=200,
    per_class=(20, 40),
    dof_nu_true=(3.0, 10.0),
    latent_dim=8,
    mean_spread=4.0,
    tanh_scale=0.25,
    noise_std=0.02,
):
    """Heavy-tailed class clouds in high dimension.

    Latent Student-t mixture draws (per-class dof sampled from
    ``dof_nu_true``, or fixed if a scalar) are pushed through a fixed random
    near-linear tanh map into ``obs_dim`` dimensions, plus slight isotropic
    noise. Labels are the mixture components.
    """
    if k_classes < 1 or obs_dim < 1 or latent_dim < 1:
        raise ValidationError("k_classes, obs_dim and latent_dim must be >= 1")
    lo, hi = int(per_class[0]), int(per_class[1])
    if not 1 <= lo <= hi:
        raise ValidationError(f"bad per_class range ({lo}, {hi})")
    if np.isscalar(dof_nu_true):
        nu_k = np.full(k_classes, float(dof_nu_true))
    else:
        nu_k = rng.uniform(dof_nu_true[0], dof_nu_true[1], k_classes)
    if (nu_k <= 0).any():
        raise ValidationError("dof values must be positive")

    counts = rng.integers(lo, hi + 1, size=k_classes)
    means = rng.standard_normal((k_classes, latent_dim)) * mean_spread
    w_map = rng.standard_normal((latent_dim, obs_dim)) / np.sqrt(latent_dim)

    rows, labels = [], []
    for k in range(k_classes):
        a_mat = rng.standard_normal((latent_dim, latent_dim)) * 0.3
        chol = np.linalg.cholesky(a_mat @ a_mat.T + 0.5 * np.eye(latent_dim))
        half_nu = nu_k[k] / 2.0
        u = rng.gamma(half_nu, 1.0 / half_nu, size=counts[k])
        z = rng.standard_normal((counts[k], latent_dim))
        x = means[k] + (z / np.sqrt(u)[:, None]) @ chol.T
        h = x @ w_map
        o = np.tanh(tanh_scale * h) / tanh_scale
        o += noise_std * rng.standard_normal(o.shape)
        rows.append(o)
        labels.append(np.full(counts[k], k, dtype=np.int64))
    return Dataset(
        observations=np.vstack(rows),
        labels=np.concatenate(labels),
        name="surrogate-attribution",
    )


# ----------------------------------------------------------------- CSV files


def save_csv(dataset, path):
    """Write ``f0..f{L-1}[,label]`` rows with 17-significant-digit floats."""
    l_dim = dataset.n_features
    header = ",".join(f"f{i}" for i in range(l_dim))
    if dataset.labels is not None:
        header += ",label"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(dataset.n_rows):
            cells = [f"{v:.17g}" for v in dataset.observations[i]]
            if dataset.labels is not None:
                cells.append(str(int(dataset.labels[i])))
            fh.write(",".join(cells) + "\n")


def load_csv(path, name=""):
    """Parse a dataset written by :func:`save_csv`; errors carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ValidationError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    has_label = header[-1] == "label"
    feat_cols = header[:-1] if has_label else header
    if feat_cols != [f"f{i}" for i in range(len(feat_cols))] or not feat_cols:
        raise ValidationError(f"{path}: line 1: malformed header {lines[0]!r}")
    n_cols = len(header)
    obs_rows, label_rows = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValidationError(
                f"{path}: line {line_no}: expected {n_cols} columns, got {len(cells)}"
            )
        try:
            obs_rows.append([float(c) for c in cells[: len(feat_cols)]])
        except ValueError as exc:
            raise ValidationError(f"{path}: line {line_no}: {exc}") from exc
        if has_label:
            cell = cells[-1].strip()
            try:
                label = int(cell)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: line {line_no}: bad label {cell!r}"
                ) from exc
            if label < 0:
                raise ValidationError(
                    f"{path}: line {line_no}: bad label {cell!r}"
                )
            label_rows.append(label)
    obs = (
        np.array(obs_rows, dtype=np.float64)
        if obs_rows
        else np.empty((0, len(feat_cols)))
    )
    labels = np.array(label_rows, dtype=np.int64) if has_label else None
    return Dataset(observations=obs, labels=labels, name=name)


# ------------------------------------------------------------------- splits


def _grouped_indices(dataset, rng):
    """Per-class shuffled index lists (single group when unlabeled)."""
    if dataset.labels is None or dataset.labels.size == 0:
        return [rng.permutation(dataset.n_rows)]
    return [
        rng.permutation(np.nonzero(dataset.labels == c)[0])
        for c in range(dataset.n_classes)
    ]


def kfold_split(dataset, folds=5, label_fraction=1.0, rng=None):
    """Hold out 20% (split into dev/test halves), stratify the rest into
    ``folds`` cross-validation folds, and keep labels on a random
    ``label_fraction`` of the training rows."""
    if rng is None:
        raise ValidationError("kfold_split needs an rng")
    if folds < 2:
        raise ValidationError(f"folds must be >= 2, got {folds}")
    if dataset.n_rows < folds:
        raise ValidationError(
            f"need at least {folds} rows for {folds}-fold splits, got {dataset.n_rows}"
        )
    if not 0.0 < label_fraction <= 1.0:
        raise ValidationError(
            f"label_fraction must lie in (0, 1], got {label_fraction}"
        )
    n = dataset.n_rows
    fold_of = np.full(n, -1, dtype=np.int64)
    dev, test = [], []
    parity = 0
    for group in _grouped_indices(dataset, rng):
        n_hold = int(round(HOLDOUT_FRACTION * group.size))
        for idx in group[:n_hold]:
            (dev if parity == 0 else test).append(int(idx))
            parity ^= 1
        rest = group[n_hold:]
        for j, idx in enumerate(rest):
            fold_of[idx] = j % folds
    labeled_mask = np.ones(n, dtype=bool)
    train_rows = np.nonzero(fold_of >= 0)[0]
    if label_fraction < 1.0:
        keep = int(round(label_fraction * train_rows.size))
        dropped = rng.permutation(train_rows)[keep:]
        labeled_mask[dropped] = False
    return SplitPlan(
        fold_of=fold_of,
        dev_indices=np.array(sorted(dev), dtype=np.int64),
        test_indices=np.array(sorted(test), dtype=np.int64),
        labeled_mask=labeled_mask,
        folds=folds,
        label_fraction=label_fraction,
    )


# --------------------------------------------------------- cluster matching


def _max_weight_assignment(weights):
    """Column matched to each row of a square matrix, maximising the
    matched sum: the Hungarian method as shortest augmenting paths with
    row and column potentials (Kuhn 1955, Munkres 1957), O(K^3).

    Rows join one at a time. Each search grows a tree of reduced costs
    from the new row until it reaches a free column, then flips the
    matching along that path. Whole-number weights keep every potential a
    whole number, so the optimum is exact.
    """
    k = weights.shape[0]
    # Index 0 is a virtual column, the root of each search; it costs inf.
    cost = np.full((k + 1, k + 1), np.inf)
    cost[1:, 1:] = -weights
    row_pot = np.zeros(k + 1)
    col_pot = np.zeros(k + 1)
    row_of = np.zeros(k + 1, dtype=np.int64)  # 1-based row on each column, 0 = free
    came_from = np.zeros(k + 1, dtype=np.int64)
    for row in range(1, k + 1):
        row_of[0] = row
        col = 0
        slack = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[col] != 0:
            used[col] = True
            i = row_of[col]
            reduced = cost[i] - row_pot[i] - col_pot
            closer = ~used & (reduced < slack)
            slack[closer] = reduced[closer]
            came_from[closer] = col
            candidates = np.where(used, np.inf, slack)
            col = int(np.argmin(candidates))
            delta = candidates[col]
            row_pot[row_of[used]] += delta
            col_pot[used] -= delta
            slack[~used] -= delta
        while col:  # flip the matching along the augmenting path
            prev = came_from[col]
            row_of[col] = row_of[prev]
            col = prev
    mapping = np.empty(k, dtype=np.int64)
    mapping[row_of[1:] - 1] = np.arange(k)
    return mapping


def match_clusters_to_classes(confusion):
    """Best one-to-one cluster->class mapping and its accuracy.

    ``confusion[i, j]`` counts rows predicted as cluster i with true class
    j; the assignment maximizes the matched count.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValidationError(f"confusion must be square, got {confusion.shape}")
    if (confusion < 0).any():
        raise ValidationError("confusion counts must be non-negative")
    mapping = _max_weight_assignment(confusion)
    rows, cols = np.arange(mapping.size), mapping
    total = confusion.sum()
    accuracy = float(confusion[rows, cols].sum() / total) if total > 0 else 0.0
    return mapping, accuracy
