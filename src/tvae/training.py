"""Training loop: Adam with gradient clipping, a mixture warm start from the
initial latents grouped by labels or by the hard assignments of a
Gaussian-mixture fit to the observations, one closed-form ECM refit of
the mixture at the end of every supervised epoch (unsupervised epochs stay
gradient-only), per-epoch metrics, and bit-exact checkpointing.

Forward-only requests (scoring, evaluation, sampling) build no autodiff
graph: the networks run on constant weights, and one constant
materialized mixture, rebuilt only after a raw mixture parameter has been
replaced, serves them all. Draws come from that mixture; scores come from
a numpy E-step (``mixture.score_responsibilities``) on its per-version
constants, bit-identical to the graph's responsibilities."""

import base64
import binascii
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import elbo, mixture, network
from .data import match_clusters_to_classes
from .distributions import standard_normal_array
from .elbo import TrainingMode
from .errors import ContractViolation, NumericFault, ValidationError
from .network import MlpConfig, TwoHeadMlp
from .tensor import GradientMap, Tensor, evaluate_and_grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CHECKPOINT_VERSION = 2
FROZEN_DOF = 1e6  # Gaussian-limit baseline: dof pinned here and not trained


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; defaults cover the unstated knobs."""

    net: MlpConfig
    latent_dim: int
    n_components: int
    stepsize: float = 1e-3
    sigma_jitter_sq: float = 0.01
    l1_coeff: float = 0.001
    epochs: int = 100
    batch_size: int = 128
    t_samples: int = 1
    warm_start_iters: int = 15
    seed: int = 0
    mode: TrainingMode = TrainingMode("unsupervised")
    nu_init: float = 5.0
    freeze_dof: bool = False
    detach_gamma: bool = False
    supervised_replacement: str = "weights"
    log_std_clamp: float = 7.0
    grad_clip: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ContractViolation(f"{f.name} must be finite, got {value}")
        positive = {
            "latent_dim": self.latent_dim,
            "n_components": self.n_components,
            "stepsize": self.stepsize,
            "sigma_jitter_sq": self.sigma_jitter_sq,
            "batch_size": self.batch_size,
            "t_samples": self.t_samples,
            "log_std_clamp": self.log_std_clamp,
            "grad_clip": self.grad_clip,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ContractViolation(f"{name} must be positive, got {value}")
        for name, value in (
            ("epochs", self.epochs),
            ("warm_start_iters", self.warm_start_iters),
            ("l1_coeff", self.l1_coeff),
            ("seed", self.seed),
        ):
            if value < 0:
                raise ContractViolation(f"{name} must be >= 0, got {value}")
        if self.net.layer_dims[-1] != self.latent_dim:
            raise ContractViolation(
                f"encoder output dim {self.net.layer_dims[-1]} != "
                f"latent_dim {self.latent_dim}"
            )
        if self.supervised_replacement not in elbo.SUPERVISED_REPLACEMENTS:
            raise ContractViolation(
                f"supervised_replacement must be one of "
                f"{elbo.SUPERVISED_REPLACEMENTS}"
            )
        if not self.nu_init > mixture.nu_floor_constant():
            raise ContractViolation(
                f"nu_init must exceed {mixture.nu_floor_constant()}"
            )


@dataclass
class EpochMetrics:
    epoch: int  # 1-based
    loss: float  # mean batch loss
    error_rate: Optional[float]
    wallclock: float  # seconds spent in this epoch


@dataclass
class TrainResult:
    trainer: "Trainer"
    metrics: list = field(default_factory=list)


# -------------------------------------------------------------- optimization


def clip_grad_norm(grads, max_norm=1.0):
    """Scale all gradients so their joint l2 norm is at most ``max_norm``."""
    if max_norm <= 0:
        raise ContractViolation(f"max_norm must be positive, got {max_norm}")
    sq = 0.0
    for g in grads.values():
        sq += float((g.data**2).sum())
    norm = float(np.sqrt(sq))
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    clipped = GradientMap()
    for name, g in grads.items():
        clipped[name] = Tensor(g.data * scale)
    return clipped


def adam_step(params, grads, moments, stepsize, t):
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected).

    Mutates the parameter tensors in place and the moment store; ``t`` is
    the 1-based update count shared by every parameter group.
    """
    if t < 1:
        raise ContractViolation(f"adam step count must be >= 1, got {t}")
    corr1 = 1.0 - ADAM_BETA1**t
    corr2 = 1.0 - ADAM_BETA2**t
    for name, g in grads.items():
        if name not in params:
            raise ContractViolation(f"gradient for unknown parameter {name!r}")
        grad = g.data
        if name in moments:
            m, v = moments[name]
        else:
            m = np.zeros_like(grad)
            v = np.zeros_like(grad)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        moments[name] = (m, v)
        step = stepsize * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        params[name].assign_(params[name].data - step)


# -------------------------------------------------------------------- trainer


def _t_scale_from_rows(rows, mean, nu, iters=4, ridge=1e-9):
    """Student-t scale-matrix fixed point started from the sample covariance.

    For rows drawn from a t distribution with the given dof the sample
    covariance overestimates the scale matrix by nu / (nu - 2); iterating
    S <- mean_i w_i d_i d_i^T with w_i = (nu + D) / (nu + d_i^T S^-1 d_i)
    recovers the maximum-likelihood scale. For Gaussian rows the update is
    consistent, so light-tailed clusters are left essentially unchanged.
    """
    d = rows.shape[1]
    diffs = rows - mean
    scale = np.cov(rows.T, bias=True).reshape(d, d)
    eye = np.eye(d)
    for _ in range(iters):
        solved = np.linalg.solve(scale + ridge * eye, diffs.T)
        maha = np.einsum("nd,dn->n", diffs, solved)
        w = (nu + d) / (nu + np.maximum(maha, 0.0))
        scale = (w[:, None] * diffs).T @ diffs / rows.shape[0]
    return scale


def _mixture_from_assignments(latents, assignments, k_count, jitter, nu_init):
    """Initial latent mixture from per-cluster moments of the latents.

    Cluster scales come from the t fixed point at nu_init rather than the
    raw covariance so heavy-tailed clusters start near their scale matrix.
    Clusters with fewer than two rows fall back to the global moments so
    every component starts well-posed.
    """
    n, d = latents.shape
    global_mean = latents.mean(axis=0)
    global_cov = _t_scale_from_rows(latents, global_mean, nu_init)
    weights = np.zeros(k_count)
    means = np.zeros((k_count, d))
    covs = np.zeros((k_count, d, d))
    for k in range(k_count):
        rows = latents[assignments == k]
        if rows.shape[0] < 2:
            weights[k] = 1.0 / n
            means[k] = global_mean
            covs[k] = global_cov
            continue
        weights[k] = rows.shape[0] / n
        means[k] = rows.mean(axis=0)
        covs[k] = _t_scale_from_rows(rows, means[k], nu_init)
    weights = weights / weights.sum()
    return mixture.raw_from_moments(weights, means, covs, jitter, nu_init)


def check_label_range(labels, n_components):
    """Fail unless every int label names one of ``n_components`` components."""
    if labels.size and labels.max() >= n_components:
        raise ValidationError(
            f"label {labels.max()} outside the {n_components} components"
        )


class Trainer:
    """Owns the networks, raw mixture parameters, optimizer state and rng.

    The rng is consumed in a fixed order (network init, warm-start fit,
    then per-epoch shuffles and noise draws) so a run is reproducible from
    the seed and resumable bit-exactly from a checkpoint.
    """

    def __init__(self, observations, labels, cfg, _restore=None):
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim != 2 or observations.shape[0] == 0:
            raise ContractViolation("training needs a non-empty (N, L) matrix")
        if observations.shape[1] != cfg.net.layer_dims[0]:
            raise ContractViolation(
                f"encoder expects {cfg.net.layer_dims[0]} features, data has "
                f"{observations.shape[1]}"
            )
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (observations.shape[0],):
                raise ContractViolation("labels must align with observations")
            check_label_range(labels, cfg.n_components)
        if cfg.mode.kind in ("supervised", "semi_supervised") and labels is None:
            raise ContractViolation(f"{cfg.mode.kind} training requires labels")
        self.cfg = cfg
        # (raw arrays, constant SmmParams, ScoringConstants) of
        # ``_constant_mixture``
        self._mixture_cache = None
        self.observations = observations
        self.labels = labels

        dec_dims = tuple(reversed(cfg.net.layer_dims))
        dec_cfg = MlpConfig(dec_dims, cfg.net.activation)
        if _restore is not None:
            # a skeleton: restore_checkpoint assigns every saved array
            self.rng = _restore["rng"]
            self.encoder = TwoHeadMlp(
                cfg.net, "enc", np.random.default_rng(0), cfg.log_std_clamp
            )
            self.decoder = TwoHeadMlp(
                dec_cfg, "dec", np.random.default_rng(0), cfg.log_std_clamp
            )
            self.raw_mix = mixture.SmmRawParams(
                m=np.zeros(cfg.n_components),
                n=np.full(cfg.n_components, mixture.raw_dof_for_nu(cfg.nu_init)),
                mu=np.zeros((cfg.n_components, cfg.latent_dim)),
                c_raw=np.zeros((cfg.n_components, cfg.latent_dim, cfg.latent_dim)),
                c_logdiag=np.zeros((cfg.n_components, cfg.latent_dim)),
                sigma_jitter_sq=cfg.sigma_jitter_sq,
            )
            self.moments = {}
            self.step = _restore["step"]
            self.epoch = _restore["epoch"]
            self.warm_weights = _restore["warm_weights"]
            return

        self.rng = np.random.default_rng(cfg.seed)
        self.encoder = TwoHeadMlp(cfg.net, "enc", self.rng, cfg.log_std_clamp)
        self.decoder = TwoHeadMlp(dec_cfg, "dec", self.rng, cfg.log_std_clamp)

        latents = network.encoder_forward(
            Tensor(observations), self.encoder.detached()
        ).mu_x.data
        # Warm-start assignments: labels when the mode may see them,
        # otherwise hard assignments of a mixture fit to the observations.
        # Unsupervised runs ignore labels even if present (metrics only).
        if labels is not None and cfg.mode.kind != "unsupervised":
            assignments = labels.copy()
        else:
            fit = mixture.gmm_em_fit(
                observations,
                cfg.n_components,
                self.rng,
                cfg.sigma_jitter_sq,
                nu_init=cfg.nu_init,
            )
            assignments = fit.responsibilities.argmax(axis=1)
        self.raw_mix = _mixture_from_assignments(
            latents, assignments, cfg.n_components, cfg.sigma_jitter_sq,
            cfg.nu_init,
        )
        if cfg.freeze_dof:
            self.raw_mix.n.assign_(
                np.full(cfg.n_components, mixture.raw_dof_for_nu(FROZEN_DOF))
            )
        self.warm_weights = elbo.one_hot(assignments, cfg.n_components)
        self.moments = {}
        self.step = 0
        self.epoch = 0

    # ------------------------------------------------------------- plumbing

    def params(self):
        return {
            **self.encoder.params(),
            **self.decoder.params(),
            **self.raw_mix.params(),
        }

    def _epoch_plan(self, epoch):
        """(mode kind, row indices) for a 0-based epoch index. Every epoch
        trains on all rows: supervised and semi-supervised runs have a label
        on every row."""
        mode = self.cfg.mode
        supervised = mode.kind == "supervised" or (
            mode.kind == "semi_supervised" and epoch < mode.supervised_epochs
        )
        kind = "supervised" if supervised else "unsupervised"
        return kind, np.arange(self.observations.shape[0])

    # ------------------------------------------------------------- training

    def train_epochs(self, n_epochs=None):
        """Run up to ``cfg.epochs`` (or ``n_epochs`` more); returns metrics."""
        cfg = self.cfg
        last = cfg.epochs if n_epochs is None else self.epoch + n_epochs
        metrics = []
        while self.epoch < last:
            t_start = time.perf_counter()
            kind, rows = self._epoch_plan(self.epoch)
            order = rows[self.rng.permutation(rows.size)]
            losses = []
            for b_idx, start in enumerate(range(0, order.size, cfg.batch_size)):
                batch = order[start : start + cfg.batch_size]
                try:
                    losses.append(self._update(batch, kind))
                except NumericFault as exc:
                    raise NumericFault(
                        f"epoch {self.epoch + 1}, batch {b_idx + 1}: {exc}"
                    ) from exc
            self.epoch += 1
            error_rate = None
            if kind == "supervised":
                encoded = list(self._encode(self.observations))
                self._refit_mixture(encoded)
                error_rate, _ = self.evaluate(
                    self.observations, self.labels, encoded=encoded
                )
            elif self.labels is not None:
                error_rate, _ = self.evaluate(self.observations, self.labels)
            metrics.append(
                EpochMetrics(
                    epoch=self.epoch,
                    loss=float(np.mean(losses)),
                    error_rate=error_rate,
                    wallclock=time.perf_counter() - t_start,
                )
            )
        return metrics

    def _refit_mixture(self, encoded):
        """One closed-form ECM pass over the mixture (``mixture.refit_labeled``)
        on ``encoded``, the encoder outputs of every (labeled) row, written
        back into the raw parameters. Under ``freeze_dof`` the dofs are left
        as they are.
        """
        cfg = self.cfg
        mu_n = np.vstack([stats.mu_x.data for stats in encoded])
        var_n = np.exp(2.0 * np.vstack([stats.log_std_x.data for stats in encoded]))
        weights, means, covs, nu = mixture.refit_labeled(
            self.raw_mix, mu_n, var_n, self.labels
        )
        fitted = mixture.raw_from_moments(
            weights, means, covs, cfg.sigma_jitter_sq, nu
        ).params()
        for name, p in self.raw_mix.params().items():
            if not (name == "mix.n" and cfg.freeze_dof):
                p.assign_(fitted[name].data)

    def _update(self, batch_rows, kind):
        cfg = self.cfg
        weight_override = None
        if self.step < cfg.warm_start_iters:
            weight_override = self.warm_weights[batch_rows]
        labels_arg = self.labels[batch_rows] if kind == "supervised" else None
        loss = elbo.loss_batch(
            self.observations[batch_rows],
            self.encoder,
            self.decoder,
            self.raw_mix,
            kind,
            cfg.l1_coeff,
            rng=self.rng,
            t_samples=cfg.t_samples,
            labels=labels_arg,
            weight_override=weight_override,
            detach_gamma=cfg.detach_gamma,
            supervised_replacement=cfg.supervised_replacement,
        )
        value, grads = evaluate_and_grad(loss)
        if cfg.freeze_dof:
            grads.pop("mix.n", None)
        grads = clip_grad_norm(grads, cfg.grad_clip)
        self.step += 1
        adam_step(self.params(), grads, self.moments, cfg.stepsize, self.step)
        return value

    # ------------------------------------------------------------ evaluation

    def _encode(self, observations, chunk=2048):
        """Forward-only encoder outputs, one EncoderStats per chunk of rows,
        each made only when it is consumed (so one chunk's activations are
        alive at a time). The encoder runs on constant weights, so the
        outputs are constants and nothing computed from them keeps a graph."""
        observations = np.asarray(observations, dtype=np.float64)
        encoder = self.encoder.detached()
        for start in range(0, observations.shape[0], chunk):
            yield network.encoder_forward(
                Tensor(observations[start : start + chunk]), encoder
            )

    def _constant_mixture(self):
        """``materialize_params`` of constant copies of the raw mixture.

        The result and its ``mixture.scoring_constants`` are kept with the
        five raw arrays they came from and reused while each raw parameter
        still holds the same array object. ``assign_`` always installs a
        new array, so an Adam step, the refit and a checkpoint restore all
        force a rebuild.
        """
        raw = self.raw_mix
        arrays = tuple(
            p.data for p in (raw.m, raw.n, raw.mu, raw.c_raw, raw.c_logdiag)
        )
        cache = self._mixture_cache
        if cache is None or any(a is not b for a, b in zip(arrays, cache[0])):
            const = mixture.SmmRawParams(*map(Tensor, arrays), raw.sigma_jitter_sq)
            params = mixture.materialize_params(const)
            cache = self._mixture_cache = (
                arrays, params, mixture.scoring_constants(params)
            )
        return cache[1]

    def predict_responsibilities(self, observations, encoded=None):
        """(N, K) responsibilities without touching the optimizer state.

        Builds no graph: constant encoder outputs go through the numpy
        E-step ``mixture.score_responsibilities`` on the constants of
        ``_constant_mixture``. ``encoded`` is ``list(_encode(observations))``
        when the caller already has it.
        """
        if encoded is None:
            encoded = self._encode(observations)
        self._constant_mixture()
        consts = self._mixture_cache[2]
        return np.vstack(
            [
                mixture.score_responsibilities(
                    consts, stats.mu_x.data, stats.log_std_x.data
                )
                for stats in encoded
            ]
        )

    def evaluate(self, observations, labels, map_clusters=None, encoded=None):
        """Error rate and K-by-K confusion (rows: predicted, cols: true).

        Unsupervised models are scored after the optimal cluster-to-class
        assignment; supervised/semi-supervised models use cluster ids as
        class ids directly. ``encoded`` is passed on to
        ``predict_responsibilities``.
        """
        if labels is None:
            raise ContractViolation("evaluation requires labels")
        labels = np.asarray(labels, dtype=np.int64)
        k = self.cfg.n_components
        if labels.size == 0:
            raise ContractViolation("evaluation requires at least one row")
        if labels.max() >= k or labels.min() < 0:
            raise ValidationError(
                f"labels span [{labels.min()}, {labels.max()}] but the model "
                f"has {k} clusters"
            )
        if map_clusters is None:
            map_clusters = self.cfg.mode.kind == "unsupervised"
        gamma = self.predict_responsibilities(observations, encoded=encoded)
        pred = np.argmax(gamma, axis=1)  # ties resolve to the lowest index
        confusion = np.bincount(pred * k + labels, minlength=k * k).reshape(k, k)
        if map_clusters:
            _, accuracy = match_clusters_to_classes(confusion)
            return 1.0 - accuracy, confusion
        return float((pred != labels).mean()), confusion

    def sample(self, count, rng):
        """Generative draws: (cluster, u, latent x, decoded observation o),
        ``count`` >= 0, drawn from the constant mixture of
        ``_constant_mixture``."""
        if count < 0:
            raise ContractViolation(f"sample count must be >= 0, got {count}")
        params = self._constant_mixture()
        labels, u, x = mixture.sample_generative(rng, params, count)
        if count == 0:
            return labels, u, x, np.empty((0, self.cfg.net.layer_dims[0]))
        mu_o, log_std_o = self.decoder.detached().forward(Tensor(x))
        noise = standard_normal_array(rng, mu_o.data.size).reshape(mu_o.shape)
        obs = mu_o.data + np.exp(log_std_o.data) * noise
        return labels, u, x, obs


def train(observations, labels, cfg):
    """Fresh run: returns the trained state plus per-epoch metrics."""
    trainer = Trainer(observations, labels, cfg)
    metrics = trainer.train_epochs()
    return TrainResult(trainer=trainer, metrics=metrics)


# ---------------------------------------------------------------- checkpoints


# The JSON types that may set a config field of each type, and their names.
JSON_TYPES = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def fits_json_type(value, kind):
    """Whether a JSON ``value`` may set a field of type ``kind``: a bool sets
    only a bool field, and an integer also sets a float field."""
    return isinstance(value, bool) == (kind is bool) and isinstance(
        value, JSON_TYPES[kind][0]
    )


def _checked_keys(obj, keys, name):
    """``obj`` if it is a JSON object with exactly ``keys``; otherwise a
    ``ValidationError`` naming ``name`` and the offending keys."""
    if not isinstance(obj, dict):
        raise ValidationError(f"checkpoint {name} is not an object")
    unknown = sorted(obj.keys() - set(keys))
    if unknown:
        raise ValidationError(f"checkpoint {name} has unknown keys {unknown}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValidationError(f"checkpoint {name} is missing {', '.join(missing)}")
    return obj


def config_from_dict(raw):
    """Inverse of ``dataclasses.asdict`` on a ``TrainConfig``. A missing or
    unknown key, a value of the wrong JSON type, or a value ``TrainConfig``
    rejects raises ``ValidationError`` naming the field."""
    raw = dict(_checked_keys(raw, [f.name for f in fields(TrainConfig)], "config"))
    for f in fields(TrainConfig):
        value = raw[f.name]
        if f.type in JSON_TYPES and not fits_json_type(value, f.type):
            raise ValidationError(
                f"checkpoint config {f.name} must be of type "
                f"{f.type.__name__}, got {value!r}"
            )
    net = _checked_keys(raw.pop("net"), ("layer_dims", "activation"), "config net")
    mode = _checked_keys(raw.pop("mode"), ("kind", "supervised_epochs"), "config mode")
    try:
        return TrainConfig(
            net=MlpConfig(tuple(net["layer_dims"]), net["activation"]),
            mode=TrainingMode(mode["kind"], mode["supervised_epochs"]),
            **raw,
        )
    except (TypeError, ValueError, ContractViolation) as exc:
        raise ValidationError(f"checkpoint config is invalid: {exc}") from exc


CHECKPOINT_KEYS = (
    "version", "config", "epoch", "step", "params", "moments", "warm_weights",
    "rng_state",
)
ARRAY_DTYPE = "<f8"


def encode_array(values):
    """A float array as JSON: dtype, shape and the base64 of its
    little-endian float64 bytes, which round-trip every value exactly."""
    arr = np.ascontiguousarray(values, dtype=ARRAY_DTYPE)
    return {
        "dtype": ARRAY_DTYPE,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj, name="array", shape=None):
    """Inverse of ``encode_array``; a malformed object, or a shape other
    than ``shape`` when one is given, raises ``ValidationError`` naming
    ``name``."""
    if not isinstance(obj, dict) or obj.get("dtype") != ARRAY_DTYPE:
        raise ValidationError(f"checkpoint {name} is not a {ARRAY_DTYPE} array")
    saved = obj.get("shape")
    if not isinstance(saved, list) or not all(
        type(n) is int and n >= 0 for n in saved
    ):
        raise ValidationError(f"checkpoint {name} has an invalid shape {saved!r}")
    if shape is not None and tuple(saved) != tuple(shape):
        raise ValidationError(
            f"checkpoint {name} has shape {tuple(saved)}, expected {tuple(shape)}"
        )
    try:
        raw = base64.b64decode(obj.get("data"), validate=True)
    except (TypeError, binascii.Error) as exc:
        raise ValidationError(f"checkpoint {name} data is not base64: {exc}") from exc
    expected = 8 * math.prod(saved)
    if len(raw) != expected:
        raise ValidationError(
            f"checkpoint {name} holds {len(raw)} bytes, expected {expected}"
        )
    return np.frombuffer(raw, dtype=ARRAY_DTYPE).astype(np.float64).reshape(saved)


def save_checkpoint(trainer, path):
    """Versioned JSON snapshot: config echo, parameters, Adam moments,
    progress counters, warm-start weights, and the exact rng state.

    Every float array is written by ``encode_array`` (raw float64 bytes in
    base64), so a restore gets back every bit, and same-seed runs write
    byte-identical files."""
    state = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(trainer.cfg),
        "epoch": trainer.epoch,
        "step": trainer.step,
        "params": {
            name: encode_array(p.data) for name, p in trainer.params().items()
        },
        "moments": {
            name: [encode_array(m), encode_array(v)]
            for name, (m, v) in trainer.moments.items()
        },
        "warm_weights": encode_array(trainer.warm_weights),
        "rng_state": trainer.rng.bit_generator.state,
    }
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder (json.dump the pure-Python one);
        # both write the same bytes
        fh.write(json.dumps(state))


def read_json(path, name):
    """The JSON value in the file at ``path``. An unreadable file or one
    that is not JSON raises ``ValidationError``; ``name`` names the file
    in its message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {name}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{name} is not valid JSON: {exc}") from exc


def read_checkpoint(path):
    """The JSON object of a checkpoint file, arrays still encoded;
    ``restore_checkpoint`` checks and decodes it. An unreadable file or
    one that is not a JSON object raises ``ValidationError``."""
    state = read_json(path, f"checkpoint {path}")
    if not isinstance(state, dict):
        raise ValidationError(f"checkpoint {path} is not a JSON object")
    return state


def restore_checkpoint(state, observations, labels):
    """Rebuild a Trainer from ``read_checkpoint``'s result; its next step
    matches the saved run bit-exactly.

    The checkpoint must hold exactly the configured model's parameters,
    moments only for those, and every array at its parameter's shape;
    anything else raises ``ValidationError`` naming the array."""
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    missing = [key for key in CHECKPOINT_KEYS if key not in state]
    if missing:
        raise ValidationError(f"checkpoint is missing {', '.join(missing)}")
    cfg = config_from_dict(state["config"])
    bit_gen = np.random.PCG64()
    try:
        bit_gen.state = state["rng_state"]
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(f"checkpoint rng_state is invalid: {exc}") from exc
    warm_weights = decode_array(state["warm_weights"], "warm_weights")
    if warm_weights.ndim != 2 or warm_weights.shape[1] != cfg.n_components:
        raise ValidationError(
            f"checkpoint warm_weights has shape {warm_weights.shape}, expected "
            f"(rows, {cfg.n_components})"
        )
    for counter in ("step", "epoch"):
        value = state[counter]
        if type(value) is not int or value < 0:
            raise ValidationError(
                f"checkpoint {counter} must be a non-negative integer, got {value!r}"
            )
    restore = {
        "rng": np.random.Generator(bit_gen),
        "step": state["step"],
        "epoch": state["epoch"],
        "warm_weights": warm_weights,
    }
    trainer = Trainer(observations, labels, cfg, _restore=restore)

    params = trainer.params()
    saved, moments = state["params"], state["moments"]
    if not isinstance(saved, dict) or not isinstance(moments, dict):
        raise ValidationError("checkpoint params and moments must be objects")
    unknown = sorted(saved.keys() - params.keys())
    if unknown:
        raise ValidationError(f"checkpoint has unknown parameters {unknown}")
    for name, p in params.items():
        if name not in saved:
            raise ValidationError(f"checkpoint is missing parameter {name!r}")
        p.assign_(decode_array(saved[name], f"params[{name!r}]", p.shape))
    for name, pair in moments.items():
        if name not in params:
            raise ValidationError(f"checkpoint has moments for unknown {name!r}")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"checkpoint moments[{name!r}] is not a pair")
        shape = params[name].shape
        trainer.moments[name] = tuple(
            decode_array(arr, f"moments[{name!r}][{i}]", shape)
            for i, arr in enumerate(pair)
        )
    return trainer


def load_checkpoint(path, observations, labels):
    """Rebuild a Trainer whose next step matches the saved run bit-exactly."""
    return restore_checkpoint(read_checkpoint(path), observations, labels)
