"""Per-layer tracing of tvae from outside the package.

The tracer replaces public functions of the tvae modules (and three
``Trainer`` methods) with wrappers that record a span per call. Spans nest:
a span's self time is its duration minus the time of the spans it directly
encloses, and it is charged to a layer group. A function without a group of
its own (``mixture.compute_beta``, say) is charged to the group of the span
that encloses it, so the groups of one request partition its wallclock.

A span with no enclosing span is a root: a training step
(``Trainer._update``), an evaluation (``Trainer.evaluate``) or a sampling
request (``Trainer.sample``); roots outside any request, such as the GMM
warm start during set-up, keep only their durations.

Wrappers are installed on module attributes, so callers that look a
function up through its module at call time see them. ``training`` imports
``evaluate_and_grad`` by name, so the backward pass is wrapped there.
"""

import collections
import contextlib
import functools
import inspect
import time

STEP = "training.Trainer._update"
EVALUATE = "training.Trainer.evaluate"
SAMPLE = "training.Trainer.sample"
FORWARD = "network.TwoHeadMlp.forward"
GMM = "mixture.gmm_em_fit"

# Layer group charged with each wrapped function's self time.
GROUPS = {
    "training.evaluate_and_grad": "tensor.backward",
    "training.clip_grad_norm": "training.clip_adam",
    "training.adam_step": "training.clip_adam",
    "elbo.loss_batch": "elbo.loss_batch_self",
    "elbo.elbo_terms": "elbo.elbo_terms",
    "elbo.l1_penalty": "elbo.l1_penalty",
    "mixture.materialize_params": "mixture.materialize_params",
    "mixture.posterior_stats": "mixture.posterior_stats",
    "mixture.sample_generative": "mixture.sample_generative",
    "network.encoder_forward": "network.encoder_forward",
    FORWARD + "[enc]": "network.encoder_forward",
    "network.reparameterize": "network.decoder",
    "network.decoder_forward": "network.decoder",
    FORWARD + "[dec]": "network.decoder",
}
ROOT_GROUP = "training.step_other"
KERNEL_GROUP = "kernels"

# Ops whose per-step node counts are reported; every op is counted.
CENSUS_OPS = (
    "add", "mul", "take", "matmul", "sum", "stack", "inverse", "logdet", "abs",
)


def _public_functions(module):
    """Names of the functions a module defines itself, without a leading _."""
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def graph_census(loss):
    """Node count per op of the graph reachable from ``loss``.

    Walks ``_parents`` from the loss and counts every distinct node once,
    leaves and constants included.
    """
    ops = collections.Counter()
    seen = set()
    todo = [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops[node._op] += 1
        todo.extend(node._parents)
    return ops


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self):
        self._installed = []
        self._stack = []
        self._paused = False
        self.reset()

    def reset(self):
        """Forget every span and count recorded so far."""
        # root name -> layer group -> self seconds
        self.self_s = collections.defaultdict(collections.Counter)
        # root name -> wrapped function name -> calls
        self.calls = collections.defaultdict(collections.Counter)
        # root name -> duration of each root span, seconds
        self.roots = collections.defaultdict(list)
        self.clip_calls = 0
        self.clipped = 0
        self.last_loss = None

    # ------------------------------------------------------------ wrapping

    def _targets(self):
        from tvae import _kernels, elbo, mixture, network, training

        targets = [
            (training, name)
            for name in ("evaluate_and_grad", "clip_grad_norm", "adam_step")
        ]
        targets += [(elbo, name) for name in ("loss_batch", "elbo_terms", "l1_penalty")]
        targets += [(mixture, name) for name in _public_functions(mixture)]
        targets += [(network, name) for name in _public_functions(network)]
        targets += [(_kernels, name) for name in _kernels.__all__ if name != "BACKEND"]
        targets += [(network.TwoHeadMlp, "forward")]
        targets += [(training.Trainer, name) for name in ("_update", "evaluate", "sample")]
        return targets

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr in self._targets():
            original = getattr(owner, attr)
            if inspect.isclass(owner):
                prefix = f"{owner.__module__.split('.')[-1]}.{owner.__name__}"
            else:
                prefix = owner.__name__.split(".")[-1]
            name = f"{prefix}.{attr}"
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        """Restore every wrapped attribute and check that none is left."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        for owner, attr in self._targets():
            if getattr(getattr(owner, attr), "__wrapped__", None) is not None:
                raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")

    @contextlib.contextmanager
    def suspended(self):
        """Run wrapped functions without recording spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            return tracer._span(name, fn, args, kwargs)

        return wrapper

    def _span(self, name, fn, args, kwargs):
        if name == FORWARD:
            name = f"{name}[{args[0].prefix}]"
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            root, group = name, ROOT_GROUP
        elif name.startswith("_kernels."):
            root, group = parent[0], KERNEL_GROUP
        else:
            root, group = parent[0], GROUPS.get(name, parent[1])
        frame = [root, group, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.self_s[root][group] += elapsed - frame[2]
            self.calls[root][name] += 1
            if parent is None:
                self.roots[name].append(elapsed)
            else:
                parent[2] += elapsed
        if name == "training.clip_grad_norm":
            self.clip_calls += 1
            self.clipped += result is not args[0]
        elif name == "elbo.loss_batch":
            self.last_loss = result
        return result

    # ------------------------------------------------------------- results

    def per_request(self, roots, count):
        """Self ms per layer group and kernel calls, summed over the given
        root spans and divided by ``count`` requests."""
        ms = collections.Counter()
        kernel_calls = 0
        for root in roots:
            for group, seconds in self.self_s[root].items():
                ms[group] += seconds * 1e3 / count
            kernel_calls += sum(
                n for fn, n in self.calls[root].items() if fn.startswith("_kernels.")
            )
        return ms, kernel_calls / count
