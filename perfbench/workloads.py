"""The benchmark's three workloads: set-up, closed loop and output checks.

Each workload runs in one process with one client that sends its next
request only after the previous one completed (a closed loop).

* ``pinwheel-unsup``: the acceptance-test pinwheel run (tanh [2,32,32,2],
  K=5, D=2, batch 512, 150 epochs), unsupervised. Smallest arrays and the
  most autodiff overhead per unit of work; the only workload whose set-up
  runs the GMM warm start and whose responsibilities stay on the graph.
* ``surrogate-sup-k30``: the acceptance-test heavy-tailed run (tanh
  [200,110,20], K=30, D=20, batch 128, 40 epochs), supervised. The
  per-component Python loops of the mixture math scale with K, and every
  epoch ends with a forward-only evaluation.
* ``surrogate-score``: the K=30 model trained once, saved and loaded back,
  then scoring 2048-row requests of held-out rows and drawing 2048-row
  samples. Forward only: backward, Adam and l1 do no work.

A training request is one optimizer step; a training job is one full
acceptance-length run from a fresh set-up. The training loops run whole
epochs until the time is up and finish at least one job, whose final loss
and error rate are checked.

Set-ups are timed one by one, spread through the closed loop
(``SetupClock``), so that they meet the same slow and fast phases of a
shared host as the requests do. A training workload's set-ups cycle
through a panel of ``SETUP_PANEL`` seeds derived from the run's seed,
which averages out how the GMM warm start's iteration count depends on the
data; a scoring set-up is one generate, save and load.

Every timed section is bracketed by a host-speed probe (``HostSpeed``), so
that its wallclock can also be given at a fixed reference speed.
"""

import contextlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tvae import data, training
from tvae.elbo import TrainingMode
from tvae.errors import DomainError, NumericFault
from tvae.network import MlpConfig

SETUP_PANEL = 8  # seeds a training workload's set-ups cycle through
SETUP_SHARE = {"training": 0.15, "score": 0.3}  # set-up time / loop time
MIN_SETUPS = 8
PROBE_ARRAY = np.random.default_rng(0).standard_normal((512, 64))
# The probe's wallclock in the fast phases of the machine this benchmark
# was built on (2-vCPU VM, Python 3.11, numpy 2.4): timed metrics are
# reported at that speed.
REFERENCE_PROBE_S = 1.2e-3
PROBE_WINDOW = 6  # probes whose median scales one timed section
REQUEST_ROWS = 2048  # rows per scoring request and draws per sampling request
FAULTS = (NumericFault, DomainError)


def pinwheel_config(seed, epochs):
    return training.TrainConfig(
        net=MlpConfig((2, 32, 32, 2), "tanh"),
        latent_dim=2,
        n_components=5,
        stepsize=5e-3,
        epochs=epochs,
        batch_size=512,
        warm_start_iters=15,
        seed=seed,
    )


def surrogate_config(seed, epochs):
    return training.TrainConfig(
        net=MlpConfig((200, 110, 20), "tanh"),
        latent_dim=20,
        n_components=30,
        stepsize=2e-3,
        sigma_jitter_sq=0.1,
        l1_coeff=0.001,
        epochs=epochs,
        batch_size=128,
        warm_start_iters=15,
        seed=seed,
        mode=TrainingMode("supervised"),
        nu_init=5.0,
        log_std_clamp=2.5,
    )


@dataclass
class Setup:
    trainer: training.Trainer
    eval_obs: np.ndarray  # rows the finished model is scored on
    eval_labels: np.ndarray
    seconds: dict  # phase -> seconds; "total" is the whole set-up


@dataclass
class Measurement:
    """What one closed loop measured, untraced or traced.

    ``request_ref_s`` are the same latencies scaled to the reference host
    speed, and ``rates_ref`` the rows per second of each epoch or
    scoring-and-sampling round at that speed.
    """

    setups: list  # Setup.seconds of each set-up, plus "total_ref"
    request_s: list  # wallclock latency of each timed request
    request_ref_s: list
    rows: int  # rows trained, scored or drawn in the loop
    busy_s: float  # wallclock those rows took
    rates_ref: list
    probe_s: list  # every host-speed probe taken in the loop
    final_loss: float
    error_rate: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)  # failed output checks
    extra: dict = field(default_factory=dict)  # name -> (value, unit)

    def setup_median(self, phase):
        return statistics.median(s.get(phase, 0.0) for s in self.setups)


def percentile_ms(seconds, q):
    return float(np.percentile(seconds, q)) * 1e3 if seconds else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------- host speed


def probe_s():
    """Wallclock of fixed elementwise numpy work on a batch-sized array,
    which runs no tvae code."""
    start = time.perf_counter()
    for _ in range(10):
        float(np.exp(np.tanh(PROBE_ARRAY)).sum())
    return time.perf_counter() - start


class HostSpeed:
    """Scales wallclock to the reference host speed.

    A shared host runs the same code up to about 1.6x slower, in phases
    that last from seconds to minutes, and the process's CPU time slows as
    much as its wallclock. A probe runs before and after each timed
    section. Once the loop is over, ``scale`` gives the factor that turns a
    section's wallclock into seconds at which the probe takes
    ``REFERENCE_PROBE_S``, from the median of the ``PROBE_WINDOW`` probes
    around the section, which smooths the probe's own jitter.
    """

    def __init__(self):
        self.probes = [probe_s()]

    def mark(self):
        """Probe now, before a timed section that follows untimed work."""
        self.probes.append(probe_s())

    def end_section(self):
        """Probe now, after a timed section; returns the section's id. The
        next timed section may begin at this probe."""
        self.probes.append(probe_s())
        return len(self.probes) - 2

    def scale(self, section):
        lo = max(0, section + 1 - PROBE_WINDOW // 2)
        return REFERENCE_PROBE_S / statistics.median(
            self.probes[lo : lo + PROBE_WINDOW]
        )


# ------------------------------------------------------------------ set-ups


class SetupClock:
    """Times set-ups spread evenly through a closed loop.

    ``setup_once(i)`` makes the i-th set-up and returns its seconds per
    phase. ``poll`` makes one whenever set-ups have taken less than
    ``share`` of the loop's own time so far, so that they meet the same slow
    and fast phases of a shared host as the requests do. ``spent`` is the
    wallclock the set-ups took, which the loop leaves out of its own time.
    Each set-up is a timed section of ``speed``, and begins at its last
    probe; ``finish`` adds each set-up's "total_ref".
    """

    def __init__(self, setup_once, share, speed):
        self.setup_once = setup_once
        self.share = share
        self.speed = speed
        self.setups = []
        self.spent = 0.0
        self._start = time.perf_counter()

    def run(self):
        start = time.perf_counter()
        seconds = self.setup_once(len(self.setups))
        self.setups.append((self.speed.end_section(), seconds))
        self.spent += time.perf_counter() - start

    def poll(self):
        loop_s = time.perf_counter() - self._start - self.spent
        if self.spent < self.share * loop_s:
            self.run()

    def finish(self):
        while len(self.setups) < MIN_SETUPS:
            self.run()
        for section, seconds in self.setups:
            seconds["total_ref"] = seconds["total"] * self.speed.scale(section)
        return [seconds for _, seconds in self.setups]


def _surrogate_split(seed, per_class, folds):
    """One generator call; every split below comes from its rows."""
    rng = np.random.default_rng(seed)
    ds = data.gen_surrogate_attribution(
        rng, dof_nu_true=(3.0, 6.0), per_class=per_class
    )
    return ds, data.kfold_split(ds, folds=folds, rng=rng)


def setup_pinwheel(seed, epochs):
    start = time.perf_counter()
    ds = data.gen_pinwheel(np.random.default_rng(seed), arms=5, points_per_arm=400)
    generated = time.perf_counter()
    # Labels are withheld from training and only score the clustering.
    trainer = training.Trainer(ds.observations, None, pinwheel_config(seed, epochs))
    end = time.perf_counter()
    return Setup(
        trainer,
        ds.observations,
        ds.labels,
        {"data.generate_s": generated - start, "total": end - start},
    )


def setup_surrogate(seed, epochs):
    start = time.perf_counter()
    ds, plan = _surrogate_split(seed, (20, 40), folds=5)
    generated = time.perf_counter()
    train_rows = np.nonzero(plan.fold_of >= 0)[0]
    trainer = training.Trainer(
        ds.observations[train_rows],
        ds.labels[train_rows],
        surrogate_config(seed, epochs),
    )
    end = time.perf_counter()
    test = plan.test_indices
    return Setup(
        trainer,
        ds.observations[test],
        ds.labels[test],
        {"data.generate_s": generated - start, "total": end - start},
    )


SETUPS = {"pinwheel-unsup": setup_pinwheel, "surrogate-sup-k30": setup_surrogate}


# --------------------------------------------------------- training loops


class StepTimer:
    """Times each ``Trainer._update`` call with one clock pair per step."""

    def __init__(self, after_step=None):
        self.seconds = []
        self.losses = []
        self.attempted = 0
        self.failed = 0  # steps that raised a fault
        self.after_step = after_step

    def attach(self, trainer):
        update = trainer._update

        def timed(batch_rows, kind):
            self.attempted += 1
            start = time.perf_counter()
            try:
                loss = update(batch_rows, kind)
            except FAULTS:
                self.failed += 1
                raise
            self.seconds.append(time.perf_counter() - start)
            self.losses.append(loss)
            if self.after_step is not None:
                self.after_step(trainer)
            return loss

        trainer._update = timed


def run_training(setup_fn, seed, epochs, seconds, tracer=None, after_step=None):
    """Train fresh acceptance-length jobs back to back for ``seconds`` of
    loop time, with set-ups of the run's seed panel spread through it."""
    setup_fn(seed, epochs).trainer.train_epochs(1)  # warm-up, not timed
    if tracer is not None:
        tracer.reset()
    timer = StepTimer(after_step)
    speed = HostSpeed()
    rows, busy, aborted, finished, timed_epochs = 0, 0.0, 0, [], []
    clock = SetupClock(
        lambda i: setup_fn(seed * SETUP_PANEL + i % SETUP_PANEL, epochs).seconds,
        SETUP_SHARE["training"],
        speed,
    )
    deadline = time.perf_counter() + seconds

    def time_left():
        return time.perf_counter() - clock.spent < deadline

    while time_left() or not (finished or aborted):
        job = setup_fn(seed, epochs)
        trainer = job.trainer
        timer.attach(trainer)
        speed.mark()
        epoch_losses = []
        try:
            while trainer.epoch < epochs and (time_left() or not finished):
                first = len(timer.seconds)
                start = time.perf_counter()
                metrics = trainer.train_epochs(1)
                elapsed = time.perf_counter() - start
                epoch_losses.append(metrics[-1].loss)
                section = speed.end_section()
                n = trainer.observations.shape[0]
                timed_epochs.append((section, first, len(timer.seconds), elapsed, n))
                busy += elapsed
                rows += n
                clock.poll()
        except FAULTS:
            aborted += 1
            continue
        if trainer.epoch == epochs:
            finished.append((job, epoch_losses))
    setups = clock.finish()
    step_ref_s, rates_ref = [], []
    for section, first, end, elapsed, n in timed_epochs:
        scale = speed.scale(section)
        step_ref_s += [s * scale for s in timer.seconds[first:end]]
        rates_ref.append(n / (elapsed * scale))

    problems = []
    if aborted > timer.failed:
        problems.append("a fault outside a training step aborted a job")
    if not np.isfinite(timer.losses).all():
        problems.append("a training step returned a non-finite loss")
    results = []
    with tracer.suspended() if tracer is not None else contextlib.nullcontext():
        for job, losses in finished:
            error, _ = job.trainer.evaluate(job.eval_obs, job.eval_labels)
            results.append((losses[-1], error))
    if len(set(results)) > 1:
        problems.append(f"same-seed jobs disagree: {sorted(set(results))}")
    if finished:
        problems += loss_problems(finished[0][1])
    final_loss, error_rate = results[0] if results else (float("nan"),) * 2
    return Measurement(
        setups=setups,
        request_s=timer.seconds,
        request_ref_s=step_ref_s,
        rows=rows,
        busy_s=busy,
        rates_ref=rates_ref,
        probe_s=speed.probes,
        final_loss=final_loss,
        error_rate=error_rate,
        attempted=timer.attempted,
        failed=timer.failed,
        problems=problems,
        extra={
            "jobs": (len(finished), "count"),
            "jobs_aborted": (aborted, "count"),
            "setups": (len(setups), "count"),
        },
    )


def loss_problems(epoch_losses):
    """The acceptance tests' check of every training run: the epoch-30
    loss is below the epoch-1 loss."""
    if len(epoch_losses) >= 30 and not epoch_losses[29] < epoch_losses[0]:
        return [
            f"epoch-30 loss {epoch_losses[29]} not below epoch-1 loss "
            f"{epoch_losses[0]}"
        ]
    return []


def reference_job(setup_fn, seed, epochs):
    """Train one untimed job at ``seed``; returns its epoch losses and the
    error rate of the finished model."""
    job = setup_fn(seed, epochs)
    losses = [m.loss for m in job.trainer.train_epochs(epochs)]
    error, _ = job.trainer.evaluate(job.eval_obs, job.eval_labels)
    return losses, error


# ------------------------------------------------------------ scoring loop


@dataclass
class TrainedModel:
    """The K=30 model the scoring workload serves, trained once per process."""

    seed: int
    trainer: training.Trainer
    train_loss: list
    train_s: float
    workdir: str  # checkpoint directory inside the checkout


def train_score_model(seed, epochs, workdir):
    ds, plan = _surrogate_split(seed, (200, 400), folds=10)
    rows = np.nonzero(plan.fold_of == 0)[0]
    start = time.perf_counter()
    result = training.train(
        ds.observations[rows], ds.labels[rows], surrogate_config(seed, epochs)
    )
    return TrainedModel(
        seed,
        result.trainer,
        [m.loss for m in result.metrics],
        time.perf_counter() - start,
        workdir,
    )


def setup_score(model):
    """Generate and split the rows, then save and reload the checkpoint:
    what a scoring process pays before its first request."""
    start = time.perf_counter()
    ds, plan = _surrogate_split(model.seed, (200, 400), folds=10)
    generated = time.perf_counter()
    path = os.path.join(model.workdir, "model.json")
    training.save_checkpoint(model.trainer, path)
    saved = time.perf_counter()
    train_rows = np.nonzero(plan.fold_of == 0)[0]
    trainer = training.load_checkpoint(
        path, ds.observations[train_rows], ds.labels[train_rows]
    )
    end = time.perf_counter()
    held = np.nonzero(plan.fold_of != 0)[0]  # never seen in training
    return Setup(
        trainer,
        ds.observations[held],
        ds.labels[held],
        {
            "data.generate_s": generated - start,
            "training.save_checkpoint_s": saved - generated,
            "training.load_checkpoint_s": end - saved,
            "total": end - start,
        },
    )


def run_score(model, seconds, tracer=None):
    """Alternate scoring and sampling requests for ``seconds`` of loop time,
    with set-ups spread through it."""
    served = setup_score(model)  # the set-up whose model is served
    trainer, obs, labels = served.trainer, served.eval_obs, served.eval_labels
    problems = []
    probe = obs[:REQUEST_ROWS]
    if not np.array_equal(
        trainer.predict_responsibilities(probe),
        model.trainer.predict_responsibilities(probe),
    ):
        problems.append("reloaded checkpoint scores differently")

    def window(i):
        return (i * REQUEST_ROWS + np.arange(REQUEST_ROWS)) % obs.shape[0]

    for i in range(2):  # warm-up, not timed
        trainer.evaluate(obs[window(i)], labels[window(i)])
        trainer.sample(REQUEST_ROWS, np.random.default_rng([model.seed, i]))
    if tracer is not None:
        tracer.reset()
    score_s, sample_s, rounds = [], [], []
    rows, busy = 0, 0.0
    attempted = failed = 0
    i = 0
    speed = HostSpeed()
    clock = SetupClock(
        lambda i: setup_score(model).seconds, SETUP_SHARE["score"], speed
    )
    deadline = time.perf_counter() + seconds
    while time.perf_counter() - clock.spent < deadline:
        clock.poll()
        request_obs, request_labels = obs[window(i)], labels[window(i)]
        rng = np.random.default_rng([model.seed, i])
        i += 1
        attempted += 2
        done = len(score_s), len(sample_s)
        try:
            start = time.perf_counter()
            error, _ = trainer.evaluate(request_obs, request_labels)
            score_s.append(time.perf_counter() - start)
            if not 0.0 <= error <= 1.0:
                problems.append(f"request error rate {error} outside [0, 1]")
        except FAULTS:
            failed += 1
        try:
            start = time.perf_counter()
            _, u, x, drawn = trainer.sample(REQUEST_ROWS, rng)
            sample_s.append(time.perf_counter() - start)
            if not all(np.isfinite(a).all() for a in (u, x, drawn)):
                problems.append("sampled draws are not finite")
        except FAULTS:
            failed += 1
        scored, sampled = score_s[done[0] :], sample_s[done[1] :]
        rounds.append((speed.end_section(), scored, sampled))
        rows += REQUEST_ROWS * (len(scored) + len(sampled))
        busy += sum(scored) + sum(sampled)
    setups = clock.finish()
    score_ref_s, rates_ref = [], []
    for section, scored, sampled in rounds:
        scale = speed.scale(section)
        score_ref_s += [s * scale for s in scored]
        if scored or sampled:
            served = REQUEST_ROWS * (len(scored) + len(sampled))
            rates_ref.append(served / ((sum(scored) + sum(sampled)) * scale))

    if not np.isfinite(model.train_loss).all():
        problems.append("a training epoch returned a non-finite loss")
    with tracer.suspended() if tracer is not None else contextlib.nullcontext():
        error_rate, _ = trainer.evaluate(obs, labels)
    return Measurement(
        setups=setups,
        request_s=score_s,
        request_ref_s=score_ref_s,
        rows=rows,
        busy_s=busy,
        rates_ref=rates_ref,
        probe_s=speed.probes,
        final_loss=model.train_loss[-1],
        error_rate=error_rate,
        attempted=attempted,
        failed=failed,
        problems=sorted(set(problems)),
        extra={
            "score_ms_p50": (percentile_ms(score_s, 50), "ms"),
            "score_ms_p95": (percentile_ms(score_s, 95), "ms"),
            "sample_draws_per_s": (
                REQUEST_ROWS * len(sample_s) / sum(sample_s) if sample_s else 0.0,
                "1/s",
            ),
            "sample_ms_p50": (percentile_ms(sample_s, 50), "ms"),
            "train_s": (model.train_s, "s"),
            "held_out_rows": (obs.shape[0], "count"),
            "setups": (len(setups), "count"),
        },
    )
