"""Command line: data generation, training, evaluation, sampling, gradient
checking, and grid search.

Exit codes: 0 success, 1 validation/usage failure, 2 numeric fault.
Relative output paths are resolved under $TVAE_OUTPUT_ROOT when set.
"""

import argparse
import hashlib
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np

from . import data as data_mod
from . import elbo, mixture, training
from .elbo import TrainingMode
from .errors import ContractViolation, DomainError, NumericFault, ValidationError
from .gradcheck import check_loss_gradients
from .network import MlpConfig, TwoHeadMlp

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
OUTPUT_ROOT_ENV = "TVAE_OUTPUT_ROOT"
GRADCHECK_SIZE_LIMIT = 10_000  # rows * obs_dim guard

# A flat config key is a ``TrainConfig`` field, typed and defaulted there, or
# one of these CLI keys: ``hidden_dims`` and ``activation`` build ``net``,
# ``mode`` and ``supervised_epochs`` build ``mode``, and the fields that
# ``TrainConfig`` requires take their CLI defaults here.
_CLI_DEFAULTS = {
    "latent_dim": 2,
    "n_components": 5,
    "hidden_dims": [16],
    "activation": "tanh",
    "mode": "unsupervised",
    "supervised_epochs": 0,
}
_FLAT_KEYS = {  # key -> (type, default)
    **{
        f.name: (f.type, f.default)
        for f in fields(training.TrainConfig)
        if f.name != "net"
    },
    **{key: (type(value), value) for key, value in _CLI_DEFAULTS.items()},
}


# ----------------------------------------------------------- config handling


def parse_config_mapping(raw):
    """Merge a flat key/value mapping over the defaults, fail-loud."""
    if not isinstance(raw, dict):
        raise ValidationError("config must be a flat key/value object")
    unknown = sorted(set(raw) - set(_FLAT_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    merged = {key: default for key, (_, default) in _FLAT_KEYS.items()}
    for key, value in raw.items():
        kind = _FLAT_KEYS[key][0]
        if key == "hidden_dims":
            if (
                not isinstance(value, list)
                or not value
                or not all(training.fits_json_type(v, int) for v in value)
            ):
                raise ValidationError(
                    "config key 'hidden_dims' must be a non-empty list of ints"
                )
        elif not training.fits_json_type(value, kind):
            raise ValidationError(
                f"config key {key!r} must be {training.JSON_TYPES[kind][1]}"
            )
        elif kind is float:
            value = float(value)
        merged[key] = value
    return merged


def load_config_file(path):
    return parse_config_mapping(training.read_json(path, f"config {path}"))


def train_config_from_mapping(merged, input_dim):
    """The ``TrainConfig`` of a ``parse_config_mapping`` result, for data
    with ``input_dim`` features."""
    flat = dict(merged)
    net = MlpConfig(
        (input_dim, *flat.pop("hidden_dims"), flat["latent_dim"]),
        flat.pop("activation"),
    )
    mode = TrainingMode(flat.pop("mode"), flat.pop("supervised_epochs"))
    return training.TrainConfig(net=net, mode=mode, **flat)


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _resolve(path):
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _prepare_out(path):
    """Resolve an output file path and create its parent directory."""
    resolved = _resolve(path)
    parent = os.path.dirname(resolved)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return resolved


def _write_manifest(out_dir, command, seed, config_path=None, inputs=None, outputs=None):
    manifest = {
        "command": command,
        "seed": seed,
        "config_path": config_path,
        "config_sha256": _sha256_file(config_path) if config_path else None,
        "inputs": inputs or {},
        "outputs": outputs or {},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def _fmt(value):
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(value))


# -------------------------------------------------------------- data commands


def cmd_pinwheel(args):
    rng = np.random.default_rng(args.seed)
    ds = data_mod.gen_pinwheel(
        rng,
        arms=args.arms,
        points_per_arm=args.points_per_arm,
        radial_std=args.radial_std,
        tangential_std=args.tangential_std,
        rate=args.rate,
    )
    out = _prepare_out(args.out)
    data_mod.save_csv(ds, out)
    print(f"wrote {ds.n_rows} rows x {ds.n_features} features to {out}")
    return EXIT_OK


def cmd_surrogate(args):
    rng = np.random.default_rng(args.seed)
    dof = args.nu_fixed if args.nu_fixed is not None else (args.nu_low, args.nu_high)
    ds = data_mod.gen_surrogate_attribution(
        rng,
        k_classes=args.k_classes,
        obs_dim=args.obs_dim,
        per_class=(args.per_class_min, args.per_class_max),
        dof_nu_true=dof,
        latent_dim=args.latent_dim,
    )
    out = _prepare_out(args.out)
    data_mod.save_csv(ds, out)
    print(f"wrote {ds.n_rows} rows x {ds.n_features} features to {out}")
    return EXIT_OK


# ------------------------------------------------------------------ training


def _write_metrics(out_dir, metrics):
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,error_rate\n")
        for m in metrics:
            err = "" if m.error_rate is None else _fmt(m.error_rate)
            fh.write(f"{m.epoch},{_fmt(m.loss)},{err}\n")
    with open(os.path.join(out_dir, "timings.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,wallclock_seconds\n")
        for m in metrics:
            fh.write(f"{m.epoch},{m.wallclock:.6f}\n")


def _write_latents(out_dir, trainer, ds):
    encoded = list(trainer._encode(ds.observations))
    gamma = trainer.predict_responsibilities(ds.observations, encoded=encoded)
    mu = np.vstack([stats.mu_x.data for stats in encoded])
    d, k = mu.shape[1], gamma.shape[1]
    header = (
        [f"x{i}" for i in range(d)] + [f"gamma{j}" for j in range(k)] + ["cluster"]
    )
    if ds.labels is not None:
        header.append("label")
    with open(os.path.join(out_dir, "latents.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        pred = gamma.argmax(axis=1)
        for i in range(mu.shape[0]):
            cells = [_fmt(v) for v in mu[i]] + [_fmt(v) for v in gamma[i]]
            cells.append(str(int(pred[i])))
            if ds.labels is not None:
                cells.append(str(int(ds.labels[i])))
            fh.write(",".join(cells) + "\n")


def _write_samples(path, clusters, u, x, obs):
    d = x.shape[1]
    l_dim = obs.shape[1]
    header = (
        ["cluster", "u"]
        + [f"x{i}" for i in range(d)]
        + [f"o{i}" for i in range(l_dim)]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(clusters.shape[0]):
            cells = [str(int(clusters[i])), _fmt(u[i])]
            cells += [_fmt(v) for v in x[i]]
            cells += [_fmt(v) for v in obs[i]]
            fh.write(",".join(cells) + "\n")


def cmd_train(args):
    merged = load_config_file(args.config)
    ds = data_mod.load_csv(_resolve(args.data))
    if ds.n_rows == 0:
        raise ValidationError("training data is empty")
    if args.baseline == "gaussian":
        merged["freeze_dof"] = True
    cfg = train_config_from_mapping(merged, ds.n_features)
    out_dir = _resolve(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    result = training.train(ds.observations, ds.labels, cfg)
    trainer = result.trainer
    training.save_checkpoint(trainer, os.path.join(out_dir, "checkpoint.json"))
    _write_metrics(out_dir, result.metrics)
    _write_latents(out_dir, trainer, ds)
    clusters, u, x, obs = trainer.sample(args.plot_samples, trainer.rng)
    _write_samples(os.path.join(out_dir, "samples.csv"), clusters, u, x, obs)
    _write_manifest(
        out_dir,
        "train",
        cfg.seed,
        config_path=args.config,
        inputs={"data": args.data},
        outputs={
            "checkpoint": "checkpoint.json",
            "metrics": "metrics.csv",
            "timings": "timings.csv",
            "latents": "latents.csv",
            "samples": "samples.csv",
        },
    )
    if result.metrics:
        last = result.metrics[-1]
        line = f"epoch {last.epoch}: loss {last.loss:.6f}"
        if last.error_rate is not None:
            line += f", error rate {last.error_rate:.4f}"
        print(line)
    print(f"run artifacts in {out_dir}")
    return EXIT_OK


def cmd_eval(args):
    ds = data_mod.load_csv(_resolve(args.data))
    if ds.labels is None or ds.labels.size == 0:
        raise ValidationError("evaluation data must include a label column")
    trainer = training.load_checkpoint(
        _resolve(args.checkpoint), ds.observations, ds.labels
    )
    error_rate, confusion = trainer.evaluate(ds.observations, ds.labels)
    print(f"error_rate {_fmt(error_rate)}")
    print("confusion (rows: predicted cluster, cols: true class)")
    for row in confusion:
        print(",".join(str(int(v)) for v in row))
    if args.out:
        out = _prepare_out(args.out)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {"error_rate": error_rate, "confusion": confusion.tolist()}, fh
            )
    return EXIT_OK


# ----------------------------------------------------------------- gradcheck


_GROUP_ORDER = ("encoder", "decoder", "m", "n", "mu", "C")
_MIX_GROUPS = {
    "mix.m": "m",
    "mix.n": "n",
    "mix.mu": "mu",
    "mix.C_raw": "C",
    "mix.C_logdiag": "C",
}


def _group_name(param_name):
    if param_name.startswith("enc."):
        return "encoder"
    if param_name.startswith("dec."):
        return "decoder"
    if param_name in _MIX_GROUPS:
        return _MIX_GROUPS[param_name]
    raise ContractViolation(f"parameter {param_name!r} fits no report group")


def cmd_gradcheck(args):
    if args.rows * args.obs_dim > GRADCHECK_SIZE_LIMIT:
        raise ValidationError(
            f"gradcheck guard: rows*obs_dim = {args.rows * args.obs_dim} "
            f"exceeds {GRADCHECK_SIZE_LIMIT}"
        )
    rng = np.random.default_rng(args.seed)
    enc = TwoHeadMlp(
        MlpConfig((args.obs_dim, args.hidden, args.latent_dim), "tanh"), "enc", rng
    )
    dec = TwoHeadMlp(
        MlpConfig((args.latent_dim, args.hidden, args.obs_dim), "tanh"), "dec", rng
    )
    k, d = args.components, args.latent_dim
    raw = mixture.SmmRawParams(
        m=rng.standard_normal(k) * 0.3,
        n=rng.uniform(3.0, 6.0, k),
        mu=rng.standard_normal((k, d)),
        c_raw=rng.standard_normal((k, d, d)) * 0.2,
        c_logdiag=rng.uniform(-0.5, 0.2, (k, d)),
        sigma_jitter_sq=0.01,
    )
    obs = rng.standard_normal((args.rows, args.obs_dim))
    eps = [rng.standard_normal((args.rows, d)) for _ in range(args.t_samples)]

    def build_loss():
        return elbo.loss_batch(
            obs, enc, dec, raw, "unsupervised", 0.001,
            t_samples=args.t_samples, eps=eps,
        )

    corrupt = None
    if args.corrupt:
        corrupt = lambda name, grad: grad + 0.25  # noqa: E731 negative control

    params = {**enc.params(), **dec.params(), **raw.params()}
    reports = check_loss_gradients(build_loss, params, corrupt=corrupt)
    groups = {}
    for name, rep in reports.items():
        group = _group_name(name)
        worst = groups.get(group)
        if worst is None or rep.max_rel_err > worst.max_rel_err:
            groups[group] = rep
    all_ok = True
    for group in _GROUP_ORDER:
        rep = groups[group]
        ok = rep.passed(args.tolerance)
        all_ok = all_ok and ok
        print(
            f"group {group:8s} max rel err {rep.max_rel_err:.3e} "
            f"({rep.n_entries} entries via {rep.name}) "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_ok else EXIT_VALIDATION


# ---------------------------------------------------------------- gridsearch


def _run_grid_cell(payload):
    """Train one grid cell and score it; runs in a worker process."""
    (cell_dir, data_path, merged, train_rows, dev_rows, test_rows) = payload
    ds = data_mod.load_csv(data_path)
    cfg = train_config_from_mapping(merged, ds.n_features)
    os.makedirs(cell_dir, exist_ok=True)
    obs = ds.observations
    labels = ds.labels
    tr = np.asarray(train_rows)
    result = training.train(
        obs[tr], None if labels is None else labels[tr], cfg
    )
    trainer = result.trainer
    dev = np.asarray(dev_rows)
    test = np.asarray(test_rows)
    dev_error, _ = trainer.evaluate(obs[dev], labels[dev])
    test_error, _ = trainer.evaluate(obs[test], labels[test])
    training.save_checkpoint(trainer, os.path.join(cell_dir, "checkpoint.json"))
    _write_metrics(cell_dir, result.metrics)
    out = {"dev_error": dev_error, "test_error": test_error, "config": merged}
    with open(os.path.join(cell_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out


def cmd_gridsearch(args):
    template = load_config_file(args.config)
    grid = training.read_json(args.grid, "grid spec")
    if not isinstance(grid, dict) or not grid:
        raise ValidationError("grid spec must be a non-empty key/value object")
    unknown = sorted(set(grid) - set(_FLAT_KEYS))
    if unknown:
        raise ValidationError(f"unknown grid keys: {', '.join(unknown)}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValidationError(f"grid key {key!r} must map to a non-empty list")

    data_path = _resolve(args.data)
    ds = data_mod.load_csv(data_path)
    if ds.labels is None:
        raise ValidationError("grid search needs labeled data for selection")
    split = data_mod.kfold_split(
        ds, folds=5, rng=np.random.default_rng(template["seed"])
    )
    train_rows = np.nonzero(split.fold_of >= 0)[0].tolist()
    dev_rows = split.dev_indices.tolist()
    test_rows = split.test_indices.tolist()

    keys = sorted(grid)
    cells = [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    out_dir = _resolve(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    payloads, results = [], {}
    for idx, overrides in enumerate(cells):
        merged = parse_config_mapping({**template, **overrides})
        cell_dir = os.path.join(out_dir, f"cell_{idx:03d}")
        done = os.path.join(cell_dir, "results.json")
        if os.path.exists(done):  # resumable: completed cells are skipped
            res = training.read_json(done, done)
            if not isinstance(res, dict) or res.get("config") != merged:
                raise ValidationError(
                    f"{done} was written for another config; use a fresh --out-dir"
                )
            results[idx] = res
            continue
        payloads.append(
            (idx, (cell_dir, data_path, merged, train_rows, dev_rows, test_rows))
        )

    if payloads:
        # Under fork the pool starts all its workers at the first submit, so
        # it is never larger than the work.
        workers = min(args.jobs, len(payloads))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for (idx, _), out in zip(
                    payloads, pool.map(_run_grid_cell, [p for _, p in payloads])
                ):
                    results[idx] = out
        else:
            for idx, payload in payloads:
                results[idx] = _run_grid_cell(payload)

    ranking = sorted(results.items(), key=lambda kv: (kv[1]["dev_error"], kv[0]))
    table_path = os.path.join(out_dir, "results.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("rank,cell,dev_error,test_error,overrides\n")
        for rank, (idx, res) in enumerate(ranking, start=1):
            over = json.dumps(cells[idx], sort_keys=True).replace(",", ";")
            fh.write(
                f"{rank},cell_{idx:03d},{_fmt(res['dev_error'])},"
                f"{_fmt(res['test_error'])},{over}\n"
            )
    _write_manifest(
        out_dir,
        "gridsearch",
        template["seed"],
        config_path=args.config,
        inputs={"data": args.data, "grid": args.grid},
        outputs={"results": "results.csv"},
    )
    for rank, (idx, res) in enumerate(ranking, start=1):
        print(
            f"{rank:3d}. cell_{idx:03d} dev {res['dev_error']:.4f} "
            f"test {res['test_error']:.4f} {json.dumps(cells[idx], sort_keys=True)}"
        )
    best_idx, best = ranking[0]
    print(
        f"best cell_{best_idx:03d}: dev {best['dev_error']:.4f}, "
        f"test {best['test_error']:.4f}"
    )
    return EXIT_OK


# ------------------------------------------------------------------- sampling


def cmd_sample(args):
    path = _resolve(args.checkpoint)
    state = training.read_checkpoint(path)
    if "config" not in state:
        raise ValidationError(f"checkpoint {path} is missing its config echo")
    cfg = training.config_from_dict(state["config"])
    needs_labels = cfg.mode.kind != "unsupervised"
    stub_obs = np.zeros((1, cfg.net.layer_dims[0]))
    stub_labels = np.zeros(1, dtype=np.int64) if needs_labels else None
    trainer = training.restore_checkpoint(state, stub_obs, stub_labels)
    clusters, u, x, obs = trainer.sample(args.count, np.random.default_rng(args.seed))
    out = _prepare_out(args.out)
    _write_samples(out, clusters, u, x, obs)
    print(f"wrote {args.count} generated rows to {out}")
    return EXIT_OK


# -------------------------------------------------------------------- parser


def _int_at_least(low):
    """argparse type for an integer >= ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}"
            )
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation failures."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="tvae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinwheel", help="generate the spiral-arm dataset")
    p.add_argument("--arms", type=int, default=5)
    p.add_argument("--points-per-arm", type=int, default=400)
    p.add_argument("--radial-std", type=float, default=0.3)
    p.add_argument("--tangential-std", type=float, default=0.05)
    p.add_argument("--rate", type=float, default=0.25)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pinwheel)

    p = sub.add_parser("surrogate", help="generate the heavy-tailed benchmark")
    p.add_argument("--k-classes", type=int, default=30)
    p.add_argument("--obs-dim", type=int, default=200)
    p.add_argument("--per-class-min", type=int, default=20)
    p.add_argument("--per-class-max", type=int, default=40)
    p.add_argument("--nu-low", type=float, default=3.0)
    p.add_argument("--nu-high", type=float, default=10.0)
    p.add_argument("--nu-fixed", type=float, default=None)
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_surrogate)

    p = sub.add_parser("train", help="train on a CSV dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--baseline", choices=("student-t", "gaussian"), default="student-t",
        help="'gaussian' freezes every dof at 1e6",
    )
    p.add_argument("--plot-samples", type=_int_at_least(0), default=500)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--rows", type=int, default=6)
    p.add_argument("--obs-dim", type=int, default=4)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--latent-dim", type=int, default=2)
    p.add_argument("--components", type=int, default=3)
    p.add_argument("--t-samples", type=int, default=1)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gridsearch", help="sweep configs, rank by dev error")
    p.add_argument("--config", required=True, help="template config")
    p.add_argument("--grid", required=True, help="JSON of key -> value list")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("sample", help="draw from a trained generative model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericFault, DomainError) as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
