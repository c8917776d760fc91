"""Training and scoring benchmark for tvae.

Runs one workload in this process and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are its per-layer metrics, from a
run that first measures untraced and then with every tvae layer wrapped.

    python3 perfbench/run.py --workload pinwheel-unsup --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # each workload, both modes
    python3 perfbench/run.py --smoke             # short self-test of every metric

See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (training epochs per job, epochs in smoke mode)
WORKLOADS = {
    "pinwheel-unsup": (150, 3),
    "surrogate-sup-k30": (40, 2),
    "surrogate-score": (40, 2),
}


def load_json(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the checkout; None outside a git repository or without git."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy
    from tvae import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "kernels_backend": _kernels.BACKEND,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def reference_problems(ref, seed, loss, error):
    """Compare the finished model with perfbench/reference.json."""
    problems = []
    lo, hi = ref["final_loss_range"]
    if not lo <= loss <= hi:
        problems.append(f"final_loss {loss} outside [{lo}, {hi}]")
    if not error <= ref["error_rate_max"]:
        problems.append(f"error_rate {error} above {ref['error_rate_max']}")
    exact = ref["seeds"].get(str(seed))
    if exact is not None:
        want = exact["final_loss"]
        if abs(loss - want) > ref["final_loss_rel_tol"] * abs(want):
            problems.append(f"final_loss {loss} != reference {want} at seed {seed}")
        if error > exact["error_rate"] + ref["error_rate_abs_tol"]:
            problems.append(
                f"error_rate {error} above reference {exact['error_rate']} at seed {seed}"
            )
    return problems


# ------------------------------------------------------------- one workload


def end_to_end(m, kind):
    import workloads

    report = {
        "setup_s": (m.setup_median("total_ref"), "s"),
        "setup_wallclock_s": (m.setup_median("total"), "s"),
        "probe_ms_p50": (workloads.percentile_ms(m.probe_s, 50), "ms"),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
        "final_loss": (m.final_loss, "nats"),
        "error_rate": (m.error_rate, "ratio"),
        "failed_frac": (m.failed / max(m.attempted, 1), "ratio"),
    }
    if kind == "training":
        report["train_rows_per_s"] = (m.rows / m.busy_s, "rows/s")
        report["step_ms_p50"] = (workloads.percentile_ms(m.request_s, 50), "ms")
        report["step_ms_p95"] = (workloads.percentile_ms(m.request_s, 95), "ms")
        report["steps"] = (len(m.request_s), "count")
    report.update(m.extra)
    # At the reference host speed, as setup_s is; the figures above are wallclock.
    report["request_ms_p50"] = (workloads.percentile_ms(m.request_ref_s, 50), "ms")
    report["request_ms_p95"] = (workloads.percentile_ms(m.request_ref_s, 95), "ms")
    report["rows_per_s"] = (statistics.median(m.rates_ref), "rows/s")
    gated = ("setup_s", "request_ms_p50", "rows_per_s", "peak_rss_mb")
    return {name: report[name][0] for name in gated}, report


def per_layer(m, untraced, tracer, kind, censuses):
    import workloads
    from tracing import CENSUS_OPS, EVALUATE, GMM, SAMPLE, STEP

    roots = [STEP] if kind == "training" else [EVALUATE, SAMPLE]
    count = len(m.request_s)
    ms, kernel_calls = tracer.per_request(roots, count)
    census = censuses[-1][1] if censuses else {}
    traced_p50 = workloads.percentile_ms(m.request_s, 50)
    root_s = sum(sum(tracer.roots[r]) for r in roots)
    evals = tracer.roots[EVALUATE] if kind == "training" else []
    metrics = {
        "tensor.backward_ms": ms["tensor.backward"],
        "tensor.nodes_per_step": sum(census.values()),
        **{f"tensor.nodes.{op}": census.get(op, 0) for op in CENSUS_OPS},
        "mixture.materialize_params_ms": ms["mixture.materialize_params"],
        "mixture.posterior_stats_ms": ms["mixture.posterior_stats"],
        "mixture.gmm_em_fit_s": statistics.median(tracer.roots[GMM] or [0.0]),
        "mixture.sample_generative_ms": ms["mixture.sample_generative"],
        "network.encoder_forward_ms": ms["network.encoder_forward"],
        "network.decoder_ms": ms["network.decoder"],
        "elbo.elbo_terms_ms": ms["elbo.elbo_terms"],
        "elbo.l1_penalty_ms": ms["elbo.l1_penalty"],
        "elbo.loss_batch_self_ms": ms["elbo.loss_batch_self"],
        "training.clip_adam_ms": ms["training.clip_adam"],
        "training.step_other_ms": ms["training.step_other"],
        "training.clip_rate": tracer.clipped / max(tracer.clip_calls, 1),
        "training.epoch_eval_ms": 1e3 * statistics.fmean(evals) if evals else 0.0,
        "training.save_checkpoint_s": m.setup_median("training.save_checkpoint_s"),
        "training.load_checkpoint_s": m.setup_median("training.load_checkpoint_s"),
        "kernels.calls_per_step": kernel_calls,
        "kernels.ms_per_step": ms["kernels"],
        "data.generate_s": m.setup_median("data.generate_s"),
        "trace.request_ms_mean": 1e3 * root_s / count,
        "trace.request_ms_p50": traced_p50,
        "trace.overhead_frac": workloads.percentile_ms(m.request_ref_s, 50)
        / workloads.percentile_ms(untraced.request_ref_s, 50)
        - 1.0,
    }
    return metrics


def run_workload(args, spec, reference):
    import tracing
    import workloads

    epochs, smoke_epochs = WORKLOADS[args.workload]
    epochs = smoke_epochs if args.smoke else epochs
    kind = "score" if args.workload == "surrogate-score" else "training"
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)  # checkpoints
    try:
        if kind == "training":
            setup_fn = workloads.SETUPS[args.workload]

            def measure(seconds, tracer=None, after_step=None):
                return workloads.run_training(
                    setup_fn, args.seed, epochs, seconds, tracer, after_step
                )

        else:
            model = workloads.train_score_model(args.seed, epochs, workdir)

            def measure(seconds, tracer=None, after_step=None):
                return workloads.run_score(model, seconds, tracer)

        if not args.trace:
            m = measure(args.seconds)
            metrics, report = end_to_end(m, kind)
            problems = list(m.problems)
        else:
            untraced = measure(args.seconds / 2)
            tracer = tracing.Tracer()
            censuses = []

            def after_step(trainer):
                # Warm-start steps put fixed weights in place of gamma, so
                # only later steps must share one graph.
                warm = trainer.step <= trainer.cfg.warm_start_iters
                censuses.append((warm, tracing.graph_census(tracer.last_loss)))
                tracer.last_loss = None

            tracer.install()
            try:
                m = measure(args.seconds / 2, tracer, after_step)
            finally:
                tracer.uninstall()
            metrics = per_layer(m, untraced, tracer, kind, censuses)
            _, report = end_to_end(m, kind)
            problems = untraced.problems + m.problems
            steady = [ops for warm, ops in censuses if not warm]
            if any(ops != steady[0] for ops in steady):
                problems.append("graph census differs between training steps")
            want = reference[args.workload].get("census")
            if want is not None and not args.smoke:
                got = dict(steady[0]) if steady else {}
                if got != want:
                    problems.append(
                        f"graph census {json.dumps(got, sort_keys=True)} != "
                        f"reference {json.dumps(want, sort_keys=True)}"
                    )
            if (untraced.final_loss, untraced.error_rate) != (m.final_loss, m.error_rate):
                problems.append("traced run trained a different model")
            m.attempted += untraced.attempted
            m.failed += untraced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.smoke:
        ref = reference[args.workload]
        problems += reference_problems(ref, args.seed, m.final_loss, m.error_rate)
        check_seed = ref.get("check_seed")
        if check_seed is not None and str(args.seed) not in ref["seeds"]:
            # Where the seed decides how well a run ends, the band above is
            # loose; one untimed job at a recorded seed checks the outputs
            # against their reference values.
            losses, error = workloads.reference_job(
                workloads.SETUPS[args.workload], check_seed, epochs
            )
            problems += [
                f"check job at seed {check_seed}: {problem}"
                for problem in workloads.loss_problems(losses)
                + reference_problems(ref, check_seed, losses[-1], error)
            ]
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json"
        )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))


# ----------------------------------------------------- several workloads


def run_all(args, spec):
    """Run every workload, untraced then traced, each in its own process."""
    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace {trace} exited {proc.returncode}")
            runs.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    bad = []
    for name, trace, result in runs:
        section = spec["per_layer" if trace else "end_to_end"]
        if not result["correct"]:
            bad.append(f"{name} trace {trace}: output checks failed")
        for entry in section:
            got = result["metrics"].get(entry["name"])
            if (
                got is None
                or got["unit"] != entry["unit"]
                or not math.isfinite(got["value"])
            ):
                bad.append(f"{name} trace {trace}: {entry['name']} missing or not finite")
    for line in bad:
        print(f"SELF-TEST FAILED: {line}")
    if bad:
        raise SystemExit(1)
    print(f"all {len(runs)} runs emitted every metric with its unit and a finite value")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short jobs and no reference values; with --workload all, "
        "check that every metric is emitted",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "tvae")):
        sys.exit(f"tvae sources not found under {SRC}")
    sys.path.insert(0, SRC)
    spec = load_json("BENCHMARK.json")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload == "all":
        run_all(args, spec)
    else:
        run_workload(args, spec, load_json(os.path.join("perfbench", "reference.json")))


if __name__ == "__main__":
    main()
