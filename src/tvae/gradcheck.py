"""Finite-difference verification of reverse-mode gradients.

Central differences with step ``h`` serve as the independent oracle: for a
parameter entry w, fd = (J(w+h) - J(w-h)) / 2h. Relative error is measured
against the larger of the analytic and numeric magnitudes, floored so that
near-zero gradients are compared absolutely instead of dividing by noise.

The loss builder is called once per perturbed entry and must be
deterministic (freeze any sampling noise before calling in here).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .tensor import Tensor, evaluate_and_grad


@dataclass
class GroupReport:
    """Finite-difference comparison result for one parameter group."""

    name: str
    max_rel_err: float
    worst_index: int
    n_entries: int

    def passed(self, tol=1e-4):
        return self.max_rel_err < tol


def relative_error(analytic, numeric, floor=1e-2):
    """Elementwise |a-n| / max(|a|, |n|, floor), as a flat array."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return np.abs(a - n) / denom


def central_difference(fn, x0, h=1e-5):
    """Gradient of scalar ``fn`` at ndarray ``x0`` by central differences."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    base = x0.copy()
    view = base.reshape(-1)
    for i in range(view.size):
        orig = view[i]
        view[i] = orig + h
        f_plus = float(fn(base))
        view[i] = orig - h
        f_minus = float(fn(base))
        view[i] = orig
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_loss_gradients(build_loss, params, h=1e-5, floor=1e-2, corrupt=None):
    """Compare analytic gradients of a loss against central differences.

    ``build_loss`` rebuilds the scalar loss Tensor from the current values
    of ``params`` (a dict name -> parameter Tensor). Each parameter entry
    is perturbed in place through ``assign_`` and restored afterwards.

    ``corrupt`` is a test hook: callable (name, grad) -> grad applied to
    the analytic gradient before comparison, used as a negative control.

    Returns a dict name -> :class:`GroupReport`.
    """
    for name, p in params.items():
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise ContractViolation(f"parameter {name!r} is not a trainable Tensor")

    _, gmap = evaluate_and_grad(build_loss())
    reports = {}
    for name, p in params.items():
        analytic = (
            gmap[name].data if name in gmap else np.zeros_like(p.data)
        )
        if corrupt is not None:
            analytic = corrupt(name, analytic.copy())
        base = p.data.copy()

        def loss_at(values):
            p.assign_(values)
            return build_loss().item()

        fd = central_difference(loss_at, base, h=h)
        p.assign_(base)
        errs = relative_error(analytic, fd, floor=floor)
        worst = int(np.argmax(errs)) if errs.size else 0
        reports[name] = GroupReport(
            name=name,
            max_rel_err=float(errs.max()) if errs.size else 0.0,
            worst_index=worst,
            n_entries=int(errs.size),
        )
    return reports
