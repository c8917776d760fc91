"""Check that two checkouts write the same outputs for one fixed, seeded
list of ``tvae`` commands.

    python3 tools/same_outputs.py --parent ../parent --change .

Each side runs in a fresh temporary directory with its own ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread. Every file the commands
write is compared byte for byte, apart from ``timings.csv`` (wallclock
times); so is each command's stdout, and every command must exit 0 on
both sides. Every difference is printed, and the exit code is 1 if there
is any.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

IGNORED = {"timings.csv"}
BASE = {"epochs": 3, "batch_size": 64, "n_components": 3, "latent_dim": 2,
        "hidden_dims": [8], "seed": 5, "warm_start_iters": 4}
CONFIGS = {
    "unsup.json": {**BASE, "mode": "unsupervised"},
    "sup.json": {**BASE, "mode": "supervised", "n_components": 4, "epochs": 2},
    "semi.json": {**BASE, "mode": "semi_supervised", "supervised_epochs": 1,
                  "activation": "relu", "hidden_dims": [8, 6], "detach_gamma": True,
                  "supervised_replacement": "gamma-target", "t_samples": 2},
    "grid.json": {"l1_coeff": [0.001, 0.01]},
}
COMMANDS = [
    ["pinwheel", "--arms", "3", "--points-per-arm", "60", "--seed", "3",
     "--out", "pin.csv"],
    ["surrogate", "--k-classes", "4", "--obs-dim", "12", "--per-class-min", "20",
     "--per-class-max", "30", "--seed", "4", "--out", "sur.csv"],
    ["train", "--config", "unsup.json", "--data", "pin.csv", "--out-dir", "unsup",
     "--plot-samples", "20"],
    ["train", "--config", "sup.json", "--data", "sur.csv", "--out-dir", "sup",
     "--plot-samples", "20"],
    ["train", "--config", "semi.json", "--data", "pin.csv", "--out-dir", "semi",
     "--plot-samples", "20"],
    ["train", "--config", "unsup.json", "--data", "pin.csv", "--out-dir", "gauss",
     "--baseline", "gaussian", "--plot-samples", "20"],
    ["eval", "--checkpoint", "sup/checkpoint.json", "--data", "sur.csv",
     "--out", "eval_sup.json"],
    ["eval", "--checkpoint", "semi/checkpoint.json", "--data", "pin.csv",
     "--out", "eval_semi.json"],
    ["sample", "--checkpoint", "unsup/checkpoint.json", "--count", "50", "--seed", "9",
     "--out", "sample_unsup.csv"],
    ["sample", "--checkpoint", "sup/checkpoint.json", "--count", "50", "--seed", "9",
     "--out", "sample_sup.csv"],
    ["gridsearch", "--config", "sup.json", "--grid", "grid.json", "--data", "sur.csv",
     "--out-dir", "grid"],
]


def run_side(checkout, workdir):
    """Run COMMANDS from ``checkout`` in ``workdir``; returns
    [(command, exit code, stdout)]."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TVAE_")}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, payload in CONFIGS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    runs = []
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "tvae.cli", *cmd], cwd=workdir,
                              env=env, capture_output=True, text=True)
        runs.append((" ".join(cmd), proc.returncode, proc.stdout))
    return runs


def _files(root):
    return {os.path.relpath(os.path.join(dirpath, n), root)
            for dirpath, _, names in os.walk(root) for n in names if n not in IGNORED}


def compare_dirs(a, b):
    """The differences between the files under ``a`` and ``b``, as lines."""
    fa, fb = _files(a), _files(b)
    diffs = [f"only in parent: {p}" for p in sorted(fa - fb)]
    diffs += [f"only in change: {p}" for p in sorted(fb - fa)]
    for p in sorted(fa & fb):
        with open(os.path.join(a, p), "rb") as ha, open(os.path.join(b, p), "rb") as hb:
            if ha.read() != hb.read():
                diffs.append(f"differs: {p}")
    return diffs


def compare_runs(parent_runs, change_runs):
    diffs = []
    for (cmd, code_a, out_a), (_, code_b, out_b) in zip(parent_runs, change_runs):
        if code_a or code_b:  # a failed command checks nothing
            diffs.append(f"exit code {code_a} (parent), {code_b} (change): {cmd}")
        if out_a != out_b:
            diffs.append(f"stdout differs: {cmd}")
    return diffs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout to compare against")
    ap.add_argument("--change", required=True, help="checkout under test")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as pa, tempfile.TemporaryDirectory() as ch:
        diffs = compare_runs(run_side(args.parent, pa), run_side(args.change, ch))
        diffs += compare_dirs(pa, ch)
        n_files = len(_files(ch))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) over {len(COMMANDS)} commands, {n_files} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
