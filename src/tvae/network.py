"""Encoder/decoder networks: an MLP trunk with two parallel affine heads
emitting the mean and log-standard-deviation of a diagonal Gaussian, plus
reparameterized sampling."""

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .tensor import Tensor

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpConfig:
    """Layer widths input -> hidden... -> output, and the trunk activation."""

    layer_dims: tuple
    activation: str

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ContractViolation(f"layer_dims needs >= 2 positive dims: {dims}")
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass
class EncoderStats:
    """Per-row posterior parameters mu_n, log_std_n over the latent space."""

    mu_x: Tensor
    log_std_x: Tensor


@dataclass
class DecoderStats:
    """Per-sample, per-row likelihood parameters over observation space.

    ``mu_o[t]`` and ``log_std_o[t]`` are the (N, L) outputs for the t-th
    Monte-Carlo latent sample.
    """

    mu_o: list = field(default_factory=list)
    log_std_o: list = field(default_factory=list)


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class TwoHeadMlp:
    """Shared trunk, two affine output heads (mean and log-std).

    Parameter names are ``{prefix}.W0/.b0, ...`` for the trunk and
    ``{prefix}.W_mu/.b_mu/.W_ls/.b_ls`` for the heads, so gradient maps and
    checkpoints address each array unambiguously.
    """

    def __init__(self, cfg, prefix, rng, log_std_clamp=7.0):
        self.cfg = cfg
        self.prefix = prefix
        self.log_std_clamp = float(log_std_clamp)
        dims = cfg.layer_dims
        self.in_dim = dims[0]
        self.out_dim = dims[-1]
        self._trunk = []
        for i in range(len(dims) - 2):
            w = Tensor.param(_glorot(rng, dims[i], dims[i + 1]), f"{prefix}.W{i}")
            b = Tensor.param(np.zeros(dims[i + 1]), f"{prefix}.b{i}")
            self._trunk.append((w, b))
        head_in = dims[-2]
        self.w_mu = Tensor.param(_glorot(rng, head_in, dims[-1]), f"{prefix}.W_mu")
        self.b_mu = Tensor.param(np.zeros(dims[-1]), f"{prefix}.b_mu")
        self.w_ls = Tensor.param(_glorot(rng, head_in, dims[-1]), f"{prefix}.W_ls")
        self.b_ls = Tensor.param(np.zeros(dims[-1]), f"{prefix}.b_ls")

    def params(self):
        out = {}
        for w, b in self._trunk:
            out[w.name] = w
            out[b.name] = b
        for t in (self.w_mu, self.b_mu, self.w_ls, self.b_ls):
            out[t.name] = t
        return out

    def detached(self):
        """Shallow copy on constant weights: named constant Tensors that share
        this network's arrays. Its forward builds no graph, so forward-only
        callers keep no op's intermediates alive. Make a fresh copy per use:
        an optimizer step installs new arrays in this network, not the copy."""

        def const(t):
            return Tensor(t.data, name=t.name)

        out = copy.copy(self)
        out._trunk = [(const(w), const(b)) for w, b in self._trunk]
        out.w_mu, out.b_mu, out.w_ls, out.b_ls = map(
            const, (self.w_mu, self.b_mu, self.w_ls, self.b_ls)
        )
        return out

    def forward(self, x):
        """Map an (N, in_dim) Tensor to (mu, log_std), both (N, out_dim)."""
        x = Tensor.const(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ContractViolation(
                f"{self.prefix}: expected (N, {self.in_dim}) input, got {x.shape}"
            )
        h = x
        for w, b in self._trunk:
            h = h @ w + b
            h = h.relu() if self.cfg.activation == "relu" else h.tanh()
        mu = h @ self.w_mu + self.b_mu
        log_std = (h @ self.w_ls + self.b_ls).clip(
            -self.log_std_clamp, self.log_std_clamp
        )
        return mu, log_std


def encoder_forward(o, encoder):
    """Encode observations into per-row latent Gaussian parameters."""
    mu, log_std = encoder.forward(o)
    return EncoderStats(mu_x=mu, log_std_x=log_std)


def decoder_forward(x_samples, decoder):
    """Decode each latent sample batch into observation Gaussian parameters."""
    stats = DecoderStats()
    for x_t in x_samples:
        mu, log_std = decoder.forward(x_t)
        stats.mu_o.append(mu)
        stats.log_std_o.append(log_std)
    return stats


def reparameterize(enc, eps_samples):
    """x_t = mu + exp(log_std) * eps_t for each noise batch eps_t (N, D)."""
    std = enc.log_std_x.exp()
    out = []
    for eps in eps_samples:
        eps = Tensor.const(eps)
        if eps.shape != enc.mu_x.shape:
            raise ContractViolation(
                f"noise shape {eps.shape} != encoder shape {enc.mu_x.shape}"
            )
        out.append(enc.mu_x + std * eps)
    return out
