"""The per-observation lower bound and the batch training loss.

The bound for observation n splits into three pieces:
  * reconstruction: Monte-Carlo average over T latent samples of the
    decoder Gaussian log-likelihood of o_n,
  * encoder entropy: H of the diagonal posterior q(x|o_n),
  * cross term: sum_k w_nk ln rho_nk against the mixture posterior, with
    w = responsibilities (unsupervised) or one-hot labels (supervised).
A term that stays constant during the gradient update (the expected log
posterior of the scale/cluster latents) is dropped, so reported bound
values are offset by a constant but every gradient is exact.

The training objective is J = -(1/N) sum_n bound_n plus an l1 penalty on
encoder/decoder weights and biases only.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import mixture, network
from .errors import ContractViolation
from .tensor import Tensor

LN_2PI = math.log(2.0 * math.pi)

SUPERVISED_REPLACEMENTS = ("weights", "gamma-target")


@dataclass(frozen=True)
class TrainingMode:
    """unsupervised | supervised | semi_supervised.

    ``supervised_epochs`` is the semi-supervised schedule: that many
    supervised epochs on the labeled rows, then unsupervised refinement
    on everything.
    """

    kind: str
    supervised_epochs: int = 0

    def __post_init__(self):
        if self.kind not in ("unsupervised", "supervised", "semi_supervised"):
            raise ContractViolation(f"unknown training mode {self.kind!r}")
        if self.kind == "semi_supervised" and self.supervised_epochs < 1:
            raise ContractViolation(
                "semi_supervised needs supervised_epochs >= 1"
            )


def one_hot(labels, k_count):
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels < 0).any() or (labels >= k_count).any():
        raise ContractViolation(
            f"labels must be ints in [0, {k_count}), got range "
            f"[{labels.min() if labels.size else '-'}, "
            f"{labels.max() if labels.size else '-'}]"
        )
    out = np.zeros((labels.shape[0], k_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def reconstruction_term(o, dec, t_samples):
    """Per-row MC average of decoder log-likelihoods, shape (N,)."""
    if t_samples < 1 or len(dec.mu_o) != t_samples:
        raise ContractViolation(
            f"expected {t_samples} decoder sample(s), got {len(dec.mu_o)}"
        )
    o = Tensor.const(o)
    obs_dim = o.shape[1]
    acc = None
    for mu_t, ls_t in zip(dec.mu_o, dec.log_std_o):
        z = (o - mu_t) * (-ls_t).exp()
        ll = (
            -0.5 * obs_dim * LN_2PI
            - ls_t.sum(axis=1)
            - 0.5 * z.square().sum(axis=1)
        )
        acc = ll if acc is None else acc + ll
    return acc * (1.0 / t_samples)


def encoder_entropy_term(enc):
    """Per-row entropy of the diagonal posterior, shape (N,)."""
    d = enc.mu_x.shape[1]
    return enc.log_std_x.sum(axis=1) + 0.5 * d * (LN_2PI + 1.0)


def cross_entropy_weights(
    posterior, mode_kind, k_count, labels=None, weight_override=None,
    detach_gamma=False,
):
    """The w_nk used against ln rho (rows sum to 1 in every mode)."""
    if weight_override is not None:
        w = np.asarray(weight_override, dtype=np.float64)
        if w.shape != posterior.gamma.shape:
            raise ContractViolation(
                f"weight override shape {w.shape} != {posterior.gamma.shape}"
            )
        return Tensor(w)
    if mode_kind == "supervised":
        if labels is None:
            raise ContractViolation("supervised mode requires labels")
        return Tensor(one_hot(labels, k_count))
    if mode_kind == "unsupervised":
        return posterior.gamma.detach() if detach_gamma else posterior.gamma
    raise ContractViolation(f"unknown mode kind {mode_kind!r}")


def cross_entropy_term(
    posterior, mode_kind, k_count, labels=None, weight_override=None,
    detach_gamma=False, supervised_replacement="weights",
):
    """sum_k w_nk ln rho_nk per row, shape (N,).

    ``supervised_replacement`` picks the reading of label injection:
    "weights" replaces the responsibilities with one-hot labels (default);
    "gamma-target" instead scores the responsibilities against the labels,
    sum_k y_nk ln gamma_nk.
    """
    if supervised_replacement not in SUPERVISED_REPLACEMENTS:
        raise ContractViolation(
            f"supervised_replacement must be one of {SUPERVISED_REPLACEMENTS}"
        )
    if (
        mode_kind == "supervised"
        and supervised_replacement == "gamma-target"
        and weight_override is None
    ):
        if labels is None:
            raise ContractViolation("supervised mode requires labels")
        y = Tensor(one_hot(labels, k_count))
        log_gamma = posterior.gamma.clip_min(1e-300).log()
        return (y * log_gamma).sum(axis=1)
    w = cross_entropy_weights(
        posterior,
        mode_kind,
        k_count,
        labels=labels,
        weight_override=weight_override,
        detach_gamma=detach_gamma,
    )
    return (w * posterior.log_rho).sum(axis=1)


def elbo_terms(
    o, enc, dec, posterior, mode_kind, t_samples, k_count,
    labels=None, weight_override=None, detach_gamma=False,
    supervised_replacement="weights",
):
    """The three per-row bound terms as (N,) tensors."""
    recon = reconstruction_term(o, dec, t_samples)
    entropy = encoder_entropy_term(enc)
    cross = cross_entropy_term(
        posterior,
        mode_kind,
        k_count,
        labels=labels,
        weight_override=weight_override,
        detach_gamma=detach_gamma,
        supervised_replacement=supervised_replacement,
    )
    return recon, entropy, cross


def l1_penalty(nets):
    """Sum of absolute weights and biases across the given networks."""
    total = None
    for net in nets:
        for p in net.params().values():
            term = p.abs().sum()
            total = term if total is None else total + term
    if total is None:
        raise ContractViolation("l1 penalty over an empty network list")
    return total


def loss_batch(
    o, encoder, decoder, raw_mix, mode_kind, l1_coeff, rng=None,
    t_samples=1, labels=None, eps=None, weight_override=None,
    detach_gamma=False, supervised_replacement="weights",
):
    """Assemble the scalar training loss for one batch.

    ``eps`` freezes the reparameterization noise (a list of (N, D)
    arrays); otherwise ``rng`` must be given and T batches are drawn.
    Returns the loss expression; differentiate with evaluate_and_grad.
    """
    o = Tensor.const(o)
    n_rows = o.shape[0]
    if n_rows == 0:
        raise ContractViolation("loss over an empty batch")
    from .distributions import sample_standard_normal

    enc = network.encoder_forward(o, encoder)
    if eps is None:
        if rng is None:
            raise ContractViolation("loss_batch needs either rng or frozen eps")
        eps = [
            sample_standard_normal(rng, enc.mu_x.shape) for _ in range(t_samples)
        ]
    if len(eps) != t_samples:
        raise ContractViolation(f"expected {t_samples} noise batches")
    x_samples = network.reparameterize(enc, eps)
    dec = network.decoder_forward(x_samples, decoder)
    params = mixture.materialize_params(raw_mix)
    posterior = mixture.posterior_stats(enc, params)
    recon, entropy, cross = elbo_terms(
        o, enc, dec, posterior, mode_kind, t_samples, params.K,
        labels=labels, weight_override=weight_override,
        detach_gamma=detach_gamma, supervised_replacement=supervised_replacement,
    )
    bound = recon + entropy + cross
    loss = -(bound.sum() * (1.0 / n_rows))
    if l1_coeff != 0.0:
        loss = loss + l1_coeff * l1_penalty([encoder, decoder])
    return loss
