"""Command-line behavior: exit codes, run artifacts, and determinism."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tvae
from tvae import cli, training
from tvae import data as data_mod
from tvae.cli import EXIT_VALIDATION, main
from tvae.elbo import TrainingMode
from tvae.network import MlpConfig

TINY_CONFIG = {
    "epochs": 3,
    "batch_size": 45,
    "n_components": 3,
    "latent_dim": 2,
    "hidden_dims": [8],
    "mode": "supervised",
    "seed": 11,
    "warm_start_iters": 5,
}


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared tiny dataset, config, and one completed training run."""
    root = tmp_path_factory.mktemp("cli")
    data_path = str(root / "pin.csv")
    assert (
        main(
            [
                "pinwheel",
                "--arms", "3",
                "--points-per-arm", "40",
                "--seed", "7",
                "--out", data_path,
            ]
        )
        == 0
    )
    config_path = write_json(root / "cfg.json", TINY_CONFIG)
    run_dir = str(root / "run")
    assert (
        main(
            [
                "train",
                "--config", config_path,
                "--data", data_path,
                "--out-dir", run_dir,
                "--plot-samples", "10",
            ]
        )
        == 0
    )
    return {"root": root, "data": data_path, "config": config_path, "run": run_dir}


# ------------------------------------------------------------------ exit codes


def test_missing_required_argument_is_a_usage_failure(capsys):
    assert main(["pinwheel", "--out", "x.csv"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_failure():
    assert main(["bogus"]) == 1


def test_unknown_config_keys_are_listed(tmp_path, capsys):
    config = write_json(tmp_path / "bad.json", {"T": 3, "learning_rate": 0.1})
    data = write_json(tmp_path / "unused.csv", {})
    assert main(["train", "--config", config, "--data", data, "--out-dir", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "T" in err and "learning_rate" in err


def test_non_flat_config_rejected(tmp_path):
    config = write_json(tmp_path / "bad.json", [1, 2])
    assert main(["train", "--config", config, "--data", "x", "--out-dir", "y"]) == 1


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epochs", 2.5, "config key 'epochs' must be an integer"),
        ("stepsize", "fast", "config key 'stepsize' must be a number"),
        ("freeze_dof", 1, "config key 'freeze_dof' must be a boolean"),
        ("mode", 3, "config key 'mode' must be a string"),
        ("hidden_dims", [8, True],
         "config key 'hidden_dims' must be a non-empty list of ints"),
    ],
)
def test_config_values_of_the_wrong_type_are_named(tmp_path, capsys, key, value, message):
    config = write_json(tmp_path / "bad.json", {key: value})
    out_dir = tmp_path / "r"
    assert main(["train", "--config", config, "--data", "x", "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# Every TrainConfig field, set away from its default through flat keys.
NON_DEFAULT_FLAT = {
    "hidden_dims": [7, 5],
    "activation": "relu",
    "latent_dim": 3,
    "n_components": 4,
    "stepsize": 0.02,
    "sigma_jitter_sq": 0.05,
    "l1_coeff": 0.0,
    "epochs": 9,
    "batch_size": 32,
    "t_samples": 2,
    "warm_start_iters": 0,
    "seed": 17,
    "mode": "semi_supervised",
    "supervised_epochs": 2,
    "nu_init": 8,
    "freeze_dof": True,
    "detach_gamma": True,
    "supervised_replacement": "gamma-target",
    "log_std_clamp": 4.0,
    "grad_clip": 3.5,
}


def test_empty_config_takes_the_dataclass_and_cli_defaults():
    cfg = cli.train_config_from_mapping(cli.parse_config_mapping({}), 6)
    assert cfg == training.TrainConfig(
        net=MlpConfig((6, 16, 2), "tanh"), latent_dim=2, n_components=5
    )


def test_every_config_field_is_reachable_from_a_flat_key():
    default = cli.train_config_from_mapping(cli.parse_config_mapping({}), 6)
    cfg = cli.train_config_from_mapping(cli.parse_config_mapping(NON_DEFAULT_FLAT), 6)
    for f in dataclasses.fields(training.TrainConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    assert cfg == training.TrainConfig(
        net=MlpConfig((6, 7, 5, 3), "relu"),
        latent_dim=3,
        n_components=4,
        stepsize=0.02,
        sigma_jitter_sq=0.05,
        l1_coeff=0.0,
        epochs=9,
        batch_size=32,
        t_samples=2,
        warm_start_iters=0,
        seed=17,
        mode=TrainingMode("semi_supervised", 2),
        nu_init=8.0,
        freeze_dof=True,
        detach_gamma=True,
        supervised_replacement="gamma-target",
        log_std_clamp=4.0,
        grad_clip=3.5,
    )
    assert type(cfg.nu_init) is float


def test_checkpoint_config_echo_keeps_its_key_order(workspace):
    state = json.load(open(os.path.join(workspace["run"], "checkpoint.json")))
    config = state["config"]
    assert list(config) == [
        "net", "latent_dim", "n_components", "stepsize", "sigma_jitter_sq",
        "l1_coeff", "epochs", "batch_size", "t_samples", "warm_start_iters",
        "seed", "mode", "nu_init", "freeze_dof", "detach_gamma",
        "supervised_replacement", "log_std_clamp", "grad_clip",
    ]
    assert list(config["net"]) == ["layer_dims", "activation"]
    assert list(config["mode"]) == ["kind", "supervised_epochs"]


def test_an_integer_float_key_is_echoed_as_a_float(workspace, tmp_path):
    config = write_json(
        tmp_path / "int.json", {**TINY_CONFIG, "epochs": 1, "stepsize": 1}
    )
    run = tmp_path / "r"
    assert main(
        ["train", "--config", config, "--data", workspace["data"],
         "--out-dir", str(run), "--plot-samples", "0"]
    ) == 0
    text = (run / "checkpoint.json").read_text()
    assert '"stepsize": 1.0,' in text
    stepsize = json.loads(text)["config"]["stepsize"]
    assert stepsize == 1.0 and type(stepsize) is float


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "key, value",
    [
        ("grad_clip", float("inf")),
        ("l1_coeff", float("nan")),
        ("nu_init", float("inf")),
        ("sigma_jitter_sq", float("inf")),
        ("stepsize", float("nan")),
        ("log_std_clamp", float("-inf")),
    ],
)
def test_non_finite_config_values_fail_before_training(
    workspace, tmp_path, capsys, key, value
):
    config = write_json(tmp_path / "inf.json", {**TINY_CONFIG, key: value})
    run = tmp_path / "r"
    assert main(
        ["train", "--config", config, "--data", workspace["data"],
         "--out-dir", str(run)]
    ) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
    assert not (run / "checkpoint.json").exists()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_numeric_fault_exits_with_code_two(workspace, tmp_path, capsys):
    config = write_json(
        tmp_path / "blow.json",
        {**TINY_CONFIG, "epochs": 2, "stepsize": 1e12, "warm_start_iters": 0},
    )
    code = main(
        [
            "train",
            "--config", config,
            "--data", workspace["data"],
            "--out-dir", str(tmp_path / "r"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "epoch" in err and "batch" in err


# ------------------------------------------------------------ data generation


def test_pinwheel_writes_loadable_labeled_csv(tmp_path):
    out = str(tmp_path / "p.csv")
    assert main(["pinwheel", "--arms", "4", "--points-per-arm", "6", "--seed", "3", "--out", out]) == 0
    ds = data_mod.load_csv(out)
    assert ds.observations.shape == (24, 2)
    assert sorted(set(ds.labels.tolist())) == [0, 1, 2, 3]


def test_pinwheel_seed_controls_bytes(tmp_path):
    a, b, c = (str(tmp_path / f"{n}.csv") for n in "abc")
    for path, seed in ((a, "5"), (b, "5"), (c, "6")):
        assert main(["pinwheel", "--arms", "2", "--points-per-arm", "4", "--seed", seed, "--out", path]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a, "rb").read() != open(c, "rb").read()


def test_surrogate_writes_loadable_labeled_csv(tmp_path):
    out = str(tmp_path / "s.csv")
    code = main(
        [
            "surrogate",
            "--k-classes", "4",
            "--obs-dim", "10",
            "--per-class-min", "5",
            "--per-class-max", "8",
            "--latent-dim", "3",
            "--seed", "9",
            "--out", out,
        ]
    )
    assert code == 0
    ds = data_mod.load_csv(out)
    assert ds.n_features == 10
    assert ds.n_classes == 4
    assert 20 <= ds.n_rows <= 32


# ------------------------------------------------------------------- training


def test_train_writes_all_run_artifacts(workspace):
    run = workspace["run"]
    for name in (
        "manifest.json",
        "checkpoint.json",
        "metrics.csv",
        "timings.csv",
        "latents.csv",
        "samples.csv",
    ):
        assert os.path.exists(os.path.join(run, name)), name


def test_metrics_file_has_one_row_per_epoch(workspace):
    lines = open(os.path.join(workspace["run"], "metrics.csv")).read().splitlines()
    assert lines[0] == "epoch,loss,error_rate"
    assert len(lines) == 1 + TINY_CONFIG["epochs"]
    first = lines[1].split(",")
    assert first[0] == "1"
    assert np.isfinite(float(first[1]))
    assert 0.0 <= float(first[2]) <= 1.0


def test_wallclock_lives_in_its_own_file(workspace):
    metrics = open(os.path.join(workspace["run"], "metrics.csv")).read()
    timings = open(os.path.join(workspace["run"], "timings.csv")).read().splitlines()
    assert "wallclock" not in metrics
    assert timings[0] == "epoch,wallclock_seconds"
    assert len(timings) == 1 + TINY_CONFIG["epochs"]
    assert all(float(line.split(",")[1]) >= 0.0 for line in timings[1:])


def test_manifest_records_config_hash(workspace):
    manifest = json.load(open(os.path.join(workspace["run"], "manifest.json")))
    expected = hashlib.sha256(open(workspace["config"], "rb").read()).hexdigest()
    assert manifest["command"] == "train"
    assert manifest["config_sha256"] == expected
    assert manifest["seed"] == TINY_CONFIG["seed"]
    assert manifest["inputs"]["data"] == workspace["data"]


def test_latents_cover_every_row(workspace):
    ds = data_mod.load_csv(workspace["data"])
    lines = open(os.path.join(workspace["run"], "latents.csv")).read().splitlines()
    k = TINY_CONFIG["n_components"]
    assert lines[0].split(",") == (
        ["x0", "x1"] + [f"gamma{j}" for j in range(k)] + ["cluster", "label"]
    )
    assert len(lines) == 1 + ds.n_rows
    cells = lines[1].split(",")
    gammas = np.array([float(v) for v in cells[2 : 2 + k]])
    assert gammas.sum() == pytest.approx(1.0, abs=1e-9)
    assert int(cells[2 + k]) == int(np.argmax(gammas))


def test_samples_file_row_count_matches_request(workspace):
    lines = open(os.path.join(workspace["run"], "samples.csv")).read().splitlines()
    assert lines[0] == "cluster,u,x0,x1,o0,o1"
    assert len(lines) == 1 + 10


def test_repeat_run_reproduces_metrics_bytes(workspace, tmp_path):
    rerun = str(tmp_path / "rerun")
    code = main(
        [
            "train",
            "--config", workspace["config"],
            "--data", workspace["data"],
            "--out-dir", rerun,
            "--plot-samples", "10",
        ]
    )
    assert code == 0
    for name in ("metrics.csv", "samples.csv", "latents.csv"):
        first = open(os.path.join(workspace["run"], name), "rb").read()
        second = open(os.path.join(rerun, name), "rb").read()
        assert first == second, name


def test_gaussian_baseline_freezes_dof(workspace, tmp_path):
    run = str(tmp_path / "gauss")
    code = main(
        [
            "train",
            "--config", workspace["config"],
            "--data", workspace["data"],
            "--out-dir", run,
            "--baseline", "gaussian",
            "--plot-samples", "0",
        ]
    )
    assert code == 0
    state = json.load(open(os.path.join(run, "checkpoint.json")))
    assert state["config"]["freeze_dof"] is True
    raw_dof = training.decode_array(state["params"]["mix.n"])
    assert np.all(raw_dof == 1e6)


# ----------------------------------------------------------------- evaluation


def test_eval_reports_training_error_rate(workspace, tmp_path, capsys):
    out = str(tmp_path / "eval.json")
    code = main(
        [
            "eval",
            "--checkpoint", os.path.join(workspace["run"], "checkpoint.json"),
            "--data", workspace["data"],
            "--out", out,
        ]
    )
    assert code == 0
    assert "error_rate" in capsys.readouterr().out
    report = json.load(open(out))
    last_metrics_err = float(
        open(os.path.join(workspace["run"], "metrics.csv"))
        .read()
        .splitlines()[-1]
        .split(",")[2]
    )
    assert report["error_rate"] == pytest.approx(last_metrics_err, abs=1e-12)
    confusion = np.array(report["confusion"])
    assert confusion.shape == (3, 3)
    assert confusion.sum() == data_mod.load_csv(workspace["data"]).n_rows


def test_eval_requires_labels(workspace, tmp_path):
    ds = data_mod.load_csv(workspace["data"])
    unlabeled = str(tmp_path / "unlabeled.csv")
    data_mod.save_csv(data_mod.Dataset(ds.observations), unlabeled)
    code = main(
        [
            "eval",
            "--checkpoint", os.path.join(workspace["run"], "checkpoint.json"),
            "--data", unlabeled,
        ]
    )
    assert code == 1


# ------------------------------------------------------------------ gradcheck


def test_gradcheck_reports_six_passing_groups(capsys):
    assert main(["gradcheck", "--seed", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    groups = [line.split()[1] for line in out if line.startswith("group")]
    assert groups == ["encoder", "decoder", "m", "n", "mu", "C"]
    assert all("PASS" in line for line in out if line.startswith("group"))


def test_gradcheck_corrupt_hook_is_caught(capsys):
    assert main(["gradcheck", "--seed", "5", "--corrupt"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_size_guard(capsys):
    assert main(["gradcheck", "--rows", "200", "--obs-dim", "100", "--seed", "1"]) == 1
    assert "exceeds" in capsys.readouterr().err


# ----------------------------------------------------------------- gridsearch


@pytest.fixture(scope="module")
def grid_run(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    grid_path = write_json(root / "grid.json", {"l1_coeff": [0.001, 0.01]})
    out_dir = str(root / "gs")
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid_path,
            "--data", workspace["data"],
            "--out-dir", out_dir,
        ]
    )
    assert code == 0
    return {"grid": grid_path, "out": out_dir}


def test_gridsearch_ranks_cells_by_dev_error(grid_run):
    lines = open(os.path.join(grid_run["out"], "results.csv")).read().splitlines()
    assert lines[0] == "rank,cell,dev_error,test_error,overrides"
    assert len(lines) == 3
    dev = [float(line.split(",")[2]) for line in lines[1:]]
    assert dev == sorted(dev)
    for line in lines[1:]:
        cell = line.split(",")[1]
        assert os.path.exists(os.path.join(grid_run["out"], cell, "results.json"))
        assert os.path.exists(os.path.join(grid_run["out"], cell, "checkpoint.json"))


def test_gridsearch_resume_skips_completed_cells(workspace, grid_run):
    done = os.path.join(grid_run["out"], "cell_000", "results.json")
    redo = os.path.join(grid_run["out"], "cell_001", "results.json")
    before = os.path.getmtime(done)
    os.remove(redo)
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid_run["grid"],
            "--data", workspace["data"],
            "--out-dir", grid_run["out"],
        ]
    )
    assert code == 0
    assert os.path.getmtime(done) == before
    assert os.path.exists(redo)


def _rerun_grid(workspace, grid, out_dir):
    return main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid,
            "--data", workspace["data"],
            "--out-dir", out_dir,
        ]
    )


def test_gridsearch_refuses_to_resume_cells_of_another_config(
    workspace, grid_run, tmp_path, capsys
):
    out_dir = str(tmp_path / "gs")
    shutil.copytree(grid_run["out"], out_dir)
    grid = write_json(tmp_path / "g.json", {"l1_coeff": [0.5, 0.9]})
    before = os.path.getmtime(os.path.join(out_dir, "cell_001", "checkpoint.json"))
    assert _rerun_grid(workspace, grid, out_dir) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cell_000" in err and "--out-dir" in err
    after = os.path.getmtime(os.path.join(out_dir, "cell_001", "checkpoint.json"))
    assert after == before


def test_gridsearch_rejects_a_truncated_cell_result(
    workspace, grid_run, tmp_path, capsys
):
    out_dir = str(tmp_path / "gs")
    shutil.copytree(grid_run["out"], out_dir)
    done = os.path.join(out_dir, "cell_001", "results.json")
    with open(done, "r+", encoding="utf-8") as fh:
        fh.truncate(len(fh.read()) // 2)
    assert _rerun_grid(workspace, grid_run["grid"], out_dir) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {done} is not valid JSON: ")


def test_gridsearch_rejects_unlabeled_data(workspace, tmp_path):
    ds = data_mod.load_csv(workspace["data"])
    unlabeled = str(tmp_path / "unlabeled.csv")
    data_mod.save_csv(data_mod.Dataset(ds.observations), unlabeled)
    grid = write_json(tmp_path / "g.json", {"l1_coeff": [0.001]})
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid,
            "--data", unlabeled,
            "--out-dir", str(tmp_path / "gs"),
        ]
    )
    assert code == 1


def test_gridsearch_rejects_unknown_grid_keys(workspace, tmp_path, capsys):
    grid = write_json(tmp_path / "g.json", {"learning_rate": [0.1]})
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid,
            "--data", workspace["data"],
            "--out-dir", str(tmp_path / "gs"),
        ]
    )
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error: cannot read grid spec: "),
        ("{not json", "error: grid spec is not valid JSON: "),
    ],
)
def test_gridsearch_rejects_an_unreadable_grid_file(
    workspace, tmp_path, capsys, content, message
):
    grid = tmp_path / "g.json"
    if content is not None:
        grid.write_text(content)
    out_dir = tmp_path / "gs"
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", str(grid),
            "--data", workspace["data"],
            "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(message)
    assert not out_dir.exists()


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_gridsearch_pool_is_no_larger_than_the_grid(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    grid = write_json(tmp_path / "g.json", {"l1_coeff": [0.001, 0.01]})
    out_dir = tmp_path / "gs"
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid,
            "--data", workspace["data"],
            "--out-dir", str(out_dir),
            "--jobs", "1000",
        ]
    )
    assert code == 0
    assert RecordingPool.sizes == [2]
    assert len(open(out_dir / "results.csv").read().splitlines()) == 3


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_gridsearch_rejects_jobs_below_one(workspace, tmp_path, monkeypatch, capsys, jobs):
    def no_cell(payload):
        raise AssertionError("a grid cell ran")

    monkeypatch.setattr(cli, "_run_grid_cell", no_cell)
    grid = write_json(tmp_path / "g.json", {"l1_coeff": [0.001]})
    out_dir = tmp_path / "gs"
    code = main(
        [
            "gridsearch",
            "--config", workspace["config"],
            "--grid", grid,
            "--data", workspace["data"],
            "--out-dir", str(out_dir),
            "--jobs", jobs,
        ]
    )
    assert code == EXIT_VALIDATION
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists()


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is counted; returns the count list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"l1_coeff": [0.001, -1]}, "error: l1_coeff must be >= 0, got -1.0\n"),
        ({"n_components": [3, 2]}, "error: label 2 outside the 2 components\n"),
    ],
)
def test_gridsearch_checks_every_cell_before_any_trains(
    workspace, tmp_path, monkeypatch, capsys, grid, message
):
    trained = _count_calls(monkeypatch, training, "train")
    out_dir = tmp_path / "gs"
    grid_path = write_json(tmp_path / "g.json", grid)
    assert _rerun_grid(workspace, grid_path, str(out_dir)) == EXIT_VALIDATION
    assert capsys.readouterr().err == message
    assert trained == []
    assert not out_dir.exists()


def test_gridsearch_refuses_to_resume_cells_of_other_data(
    workspace, grid_run, tmp_path, monkeypatch, capsys
):
    out_dir = str(tmp_path / "gs")
    shutil.copytree(grid_run["out"], out_dir)
    other = str(tmp_path / "other.csv")
    assert main(["pinwheel", "--arms", "3", "--points-per-arm", "40",
                 "--seed", "8", "--out", other]) == 0
    capsys.readouterr()
    trained = _count_calls(monkeypatch, training, "train")
    code = main(["gridsearch", "--config", workspace["config"], "--grid",
                 grid_run["grid"], "--data", other, "--out-dir", out_dir])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cell_000" in err and "--out-dir" in err
    assert trained == []


def test_gridsearch_refuses_a_cell_result_without_its_data_digest(
    workspace, grid_run, tmp_path, monkeypatch, capsys
):
    out_dir = str(tmp_path / "gs")
    shutil.copytree(grid_run["out"], out_dir)
    done = os.path.join(out_dir, "cell_000", "results.json")
    with open(done, encoding="utf-8") as fh:
        res = json.load(fh)
    assert res.pop("data_sha256") == hashlib.sha256(
        open(workspace["data"], "rb").read()
    ).hexdigest()
    write_json(done, res)
    trained = _count_calls(monkeypatch, training, "train")
    assert _rerun_grid(workspace, grid_run["grid"], out_dir) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {done} ") and "--out-dir" in err
    assert trained == []


def test_gridsearch_parses_its_data_once(workspace, tmp_path, monkeypatch):
    loads = _count_calls(monkeypatch, data_mod, "load_csv")
    grid = write_json(tmp_path / "g.json", {"l1_coeff": [0.001, 0.01]})
    assert _rerun_grid(workspace, grid, str(tmp_path / "gs")) == 0
    assert len(loads) == 1


def test_gridsearch_pool_writes_the_serial_bytes(workspace, grid_run, tmp_path):
    out_dir = tmp_path / "gs"
    code = main(["gridsearch", "--config", workspace["config"], "--grid",
                 grid_run["grid"], "--data", workspace["data"],
                 "--out-dir", str(out_dir), "--jobs", "2"])
    assert code == 0
    names = ["results.csv"] + [
        os.path.join(f"cell_{i:03d}", name)
        for i in range(2)
        for name in ("results.json", "checkpoint.json", "metrics.csv")
    ]
    for name in names:
        with open(out_dir / name, "rb") as fh:
            pooled = fh.read()
        with open(os.path.join(grid_run["out"], name), "rb") as fh:
            assert fh.read() == pooled, name
    digest = hashlib.sha256(open(workspace["data"], "rb").read()).hexdigest()
    for i in range(2):
        res = json.loads((out_dir / f"cell_{i:03d}" / "results.json").read_text())
        assert res["data_sha256"] == digest


# ------------------------------------------------------------------- sampling


def test_sample_count_zero_writes_header_only(workspace, tmp_path):
    out = str(tmp_path / "gen.csv")
    ckpt = os.path.join(workspace["run"], "checkpoint.json")
    assert main(["sample", "--checkpoint", ckpt, "--count", "0", "--seed", "1", "--out", out]) == 0
    assert open(out).read() == "cluster,u,x0,x1,o0,o1\n"


def test_negative_sample_count_is_a_usage_failure(workspace, tmp_path, capsys):
    ckpt = os.path.join(workspace["run"], "checkpoint.json")
    out = str(tmp_path / "gen.csv")
    args = ["sample", "--checkpoint", ckpt, "--count", "-1", "--seed", "1", "--out", out]
    assert main(args) == EXIT_VALIDATION
    assert "--count" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_plot_samples_fails_before_training(workspace, tmp_path, capsys):
    run_dir = tmp_path / "r"
    args = [
        "train",
        "--config", workspace["config"],
        "--data", workspace["data"],
        "--out-dir", str(run_dir),
        "--plot-samples", "-1",
    ]
    assert main(args) == EXIT_VALIDATION
    assert "--plot-samples" in capsys.readouterr().err
    assert not run_dir.exists()


def test_sample_is_seed_deterministic(workspace, tmp_path):
    ckpt = os.path.join(workspace["run"], "checkpoint.json")
    a, b, c = (str(tmp_path / f"{n}.csv") for n in "abc")
    for path, seed in ((a, "4"), (b, "4"), (c, "5")):
        assert main(["sample", "--checkpoint", ckpt, "--count", "8", "--seed", seed, "--out", path]) == 0
    assert open(a).read() == open(b).read()
    assert open(a).read() != open(c).read()
    rows = open(a).read().splitlines()[1:]
    assert len(rows) == 8
    clusters = {int(r.split(",")[0]) for r in rows}
    assert clusters <= {0, 1, 2}


def test_sample_rejects_corrupt_checkpoint(workspace, tmp_path, capsys):
    state = json.load(open(os.path.join(workspace["run"], "checkpoint.json")))
    state["version"] = 99
    bad = write_json(tmp_path / "bad_ckpt.json", state)
    code = main(["sample", "--checkpoint", bad, "--count", "1", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    not_json = write_json(tmp_path / "not_ckpt.json", {"hello": 1})
    code = main(["sample", "--checkpoint", not_json, "--count", "1", "--seed", "1", "--out", str(tmp_path / "y.csv")])
    assert code == 1


def unreadable_checkpoints(workspace, tmp_path):
    """(expected message, path) for a missing file, a non-JSON file and one
    without params."""
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{not json")
    state = json.load(open(os.path.join(workspace["run"], "checkpoint.json")))
    del state["params"]
    no_params = write_json(tmp_path / "no_params.json", state)
    return [
        ("cannot read checkpoint", str(tmp_path / "missing.json")),
        ("is not valid JSON", str(not_json)),
        ("missing params", no_params),
    ]


def test_eval_and_sample_reject_unreadable_checkpoints(workspace, tmp_path, capsys):
    for message, path in unreadable_checkpoints(workspace, tmp_path):
        commands = [
            ["eval", "--checkpoint", path, "--data", workspace["data"]],
            ["sample", "--checkpoint", path, "--count", "1", "--seed", "1",
             "--out", str(tmp_path / "s.csv")],
        ]
        for argv in commands:
            assert main(argv) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err


def set_config(key, value):
    return lambda state: state["config"].update({key: value})


@pytest.mark.parametrize(
    "message, corrupt",
    [
        ("config is missing net", lambda state: state["config"].pop("net")),
        ("config is missing mode", lambda state: state["config"].pop("mode")),
        ("config net is missing activation",
         lambda state: state["config"]["net"].pop("activation")),
        ("config has unknown keys ['hidden']", set_config("hidden", 3)),
        ("config stepsize must be of type float", set_config("stepsize", "fast")),
        ("config seed must be of type int", set_config("seed", 1.5)),
        ("grad_clip must be positive", set_config("grad_clip", -1.0)),
        ("unknown training mode 'guided'", set_config("mode", {
            "kind": "guided", "supervised_epochs": 0})),
        ("step must be a non-negative integer", lambda state: state.update(step="12x")),
        ("epoch must be a non-negative integer", lambda state: state.update(epoch=1.5)),
    ],
)
def test_eval_and_sample_reject_a_bad_config_echo_or_counter(
    workspace, tmp_path, capsys, message, corrupt
):
    state = json.load(open(os.path.join(workspace["run"], "checkpoint.json")))
    corrupt(state)
    path = write_json(tmp_path / "bad.json", state)
    commands = [
        ["eval", "--checkpoint", path, "--data", workspace["data"]],
        ["sample", "--checkpoint", path, "--count", "1", "--seed", "1",
         "--out", str(tmp_path / "s.csv")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_eval_and_sample_reject_a_non_finite_config_echo(workspace, tmp_path, capsys):
    state = json.load(open(os.path.join(workspace["run"], "checkpoint.json")))
    state["config"]["grad_clip"] = float("inf")
    path = write_json(tmp_path / "inf.json", state)
    for argv in (
        ["eval", "--checkpoint", path, "--data", workspace["data"]],
        ["sample", "--checkpoint", path, "--count", "1", "--seed", "1",
         "--out", str(tmp_path / "s.csv")],
    ):
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: checkpoint config is invalid: grad_clip must be finite, got inf\n"
        )


RUNTIME_WITHOUT_SCIPY = """
import sys
import numpy as np
import tvae.cli
from tvae import data, distributions, training
from tvae.network import MlpConfig

ds = data.gen_pinwheel(np.random.default_rng(0), arms=3, points_per_arm=30)
cfg = training.TrainConfig(
    net=MlpConfig((2, 8, 2), "tanh"), latent_dim=2, n_components=3, epochs=1,
    batch_size=45, warm_start_iters=2,
)
trainer = training.train(ds.observations, None, cfg).trainer
error, _ = trainer.evaluate(ds.observations, ds.labels)
assert 0.0 <= error <= 1.0
distributions.student_t_log_pdf(
    np.ones(2), distributions.StudentT(np.zeros(2), np.eye(2), 3.0)
)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tvae.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_WITHOUT_SCIPY],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -------------------------------------------------------------- output rooting


def test_relative_outputs_land_under_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("TVAE_OUTPUT_ROOT", str(tmp_path))
    assert main(["pinwheel", "--arms", "2", "--points-per-arm", "3", "--seed", "1", "--out", "sub/p.csv"]) == 0
    assert os.path.exists(tmp_path / "sub" / "p.csv")


def test_absolute_outputs_ignore_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("TVAE_OUTPUT_ROOT", str(tmp_path / "elsewhere"))
    out = str(tmp_path / "direct.csv")
    assert main(["pinwheel", "--arms", "2", "--points-per-arm", "3", "--seed", "1", "--out", out]) == 0
    assert os.path.exists(out)
    assert not os.path.exists(tmp_path / "elsewhere")


@pytest.mark.parametrize("command", ["train", "eval", "gridsearch"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_data_file_is_a_validation_error(
    workspace, tmp_path, capsys, command, kind
):
    data = tmp_path / "data.csv"
    if kind == "directory":
        data.mkdir()
    elif kind == "not_utf8":
        data.write_bytes(b"f0,f1,label\n\xff\xfe,1.0,0\n")
    out_dir = tmp_path / "out"
    argv = {
        "train": ["--config", workspace["config"], "--out-dir", str(out_dir)],
        "eval": [
            "--checkpoint", os.path.join(workspace["run"], "checkpoint.json")
        ],
        "gridsearch": [
            "--config", workspace["config"],
            "--grid", write_json(tmp_path / "g.json", {"l1_coeff": [0.001]}),
            "--out-dir", str(out_dir),
        ],
    }[command]
    assert main([command, "--data", str(data), *argv]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot read {data}: ")
    assert not out_dir.exists()


# ------------------------------------------------- bad arguments and outputs


def _seed_argv(workspace, tmp_path, command):
    """``command``'s arguments with a negative seed, by flag or by config."""
    ckpt = os.path.join(workspace["run"], "checkpoint.json")
    negative = write_json(tmp_path / "neg.json", {**TINY_CONFIG, "seed": -1})
    out_dir = str(tmp_path / "out")
    return {
        "pinwheel": ["--seed", "-1", "--out", str(tmp_path / "p.csv")],
        "surrogate": ["--seed", "-1", "--out", str(tmp_path / "s.csv")],
        "gradcheck": ["--seed", "-1"],
        "sample": ["--checkpoint", ckpt, "--count", "3", "--seed", "-1",
                   "--out", str(tmp_path / "d.csv")],
        "train": ["--config", negative, "--data", workspace["data"],
                  "--out-dir", out_dir],
        "gridsearch": ["--config", negative, "--data", workspace["data"],
                       "--grid", write_json(tmp_path / "g.json", {"l1_coeff": [0.01]}),
                       "--out-dir", out_dir],
    }[command]


@pytest.mark.parametrize(
    "command", ["pinwheel", "surrogate", "gradcheck", "sample", "train", "gridsearch"]
)
def test_a_negative_seed_is_a_validation_error(workspace, tmp_path, capsys, command):
    argv = _seed_argv(workspace, tmp_path, command)
    assert main([command, *argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert sorted(os.listdir(tmp_path)) == ["g.json", "neg.json"]  # inputs only


@pytest.mark.parametrize(
    "flag, value",
    [("rows", "-1"), ("obs-dim", "0"), ("hidden", "0"), ("latent-dim", "0"),
     ("components", "0"), ("t-samples", "0")],
)
def test_gradcheck_sizes_below_one_are_usage_failures(capsys, flag, value):
    assert main(["gradcheck", "--seed", "1", f"--{flag}", value]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"argument --{flag}: " in err


@pytest.mark.parametrize(
    "command", ["pinwheel", "surrogate", "sample", "eval", "train", "gridsearch"]
)
def test_an_output_path_under_a_file_is_a_validation_error(
    workspace, tmp_path, capsys, command
):
    afile = tmp_path / "afile"
    afile.write_text("")
    ckpt = os.path.join(workspace["run"], "checkpoint.json")
    out = str(afile / "x.csv")
    argv = {
        "pinwheel": ["--seed", "1", "--out", out],
        "surrogate": ["--seed", "1", "--k-classes", "2", "--obs-dim", "3", "--out", out],
        "sample": ["--checkpoint", ckpt, "--count", "3", "--seed", "1", "--out", out],
        "eval": ["--checkpoint", ckpt, "--data", workspace["data"], "--out", out],
        "train": ["--config", workspace["config"], "--data", workspace["data"],
                  "--out-dir", str(afile)],
        "gridsearch": ["--config", workspace["config"], "--data", workspace["data"],
                       "--grid", write_json(tmp_path / "g.json", {"l1_coeff": [0.01]}),
                       "--out-dir", str(afile)],
    }[command]
    assert main([command, *argv]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert afile.read_text() == ""


def test_train_with_an_out_of_range_label_makes_no_directory(
    workspace, tmp_path, capsys
):
    config = write_json(tmp_path / "k2.json", {**TINY_CONFIG, "n_components": 2})
    out_dir = tmp_path / "run"
    assert main(["train", "--config", config, "--data", workspace["data"],
                 "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: label 2 outside the 2 components\n"
    assert not out_dir.exists()
