"""Paired benchmark runs of two checkouts, summarised as a BENCH_train.json
workload block.

For each seed, ``perfbench/run.py --trace 0`` runs once from each checkout,
each side from its own directory; the side that goes first alternates from
pair to pair (the parent at even offsets), so a slow or fast phase of a
shared host does not favour one side. The seeds are given on the command
line and so are fixed before any run.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload surrogate-score --seeds 3401-3410 --log runs.jsonl

prints the ``workloads`` entry: per end-to-end metric of BENCHMARK.json, the
median, q1 and q3 (``statistics.quantiles(n=4)``) of each side, and
``change_better``, the pairs the change wins in the metric's direction (a
tie counts for neither side) over all pairs. A pair in which either run is
not ``correct`` is not summarised: the tool stops and names the run, so
that pair can be replaced at a fresh seed. ``--log`` appends every run's
result line as it finishes; ``--from-log`` summarises such a file again
without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    """'3401-3410' or '3401,3405,3409' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {text!r} must be non-empty and distinct")
    return seeds


def run_once(checkout, workload, seed):
    """One untraced run from ``checkout``: its result object, with the
    run's ``CHECK FAILED`` lines added as ``problems``."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, timeout=1800
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["problems"] = [
        line.split("CHECK FAILED: ", 1)[1] for line in lines if "CHECK FAILED: " in line
    ]
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(workload, seeds_label, pairs, metrics):
    """The workload block of a BENCH_train.json entry.

    ``pairs`` is a list of (seed, parent result, change result), each result
    the JSON object ``perfbench/run.py`` prints last; ``metrics`` maps each
    metric name to "lower" or "higher", the better direction.
    """
    if len(pairs) < 2:
        raise ValueError("quartiles need at least two pairs")
    for seed, *results in pairs:
        for side, result in zip(SIDES, results):
            if not result["correct"]:
                problems = "; ".join(result.get("problems", []))
                raise ValueError(
                    f"{side} run at seed {seed} is not correct "
                    f"(failed {result['failed']} of {result['attempted']}"
                    f"{'; ' + problems if problems else ''}); replace this pair"
                )
    block = {"workload": workload, "seeds": seeds_label, "pairs": len(pairs)}
    block["metrics"] = {}
    for name, better in metrics.items():
        values = {
            side: [pair[1 + i]["metrics"][name]["value"] for pair in pairs]
            for i, side in enumerate(SIDES)
        }
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(
            sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"])
        )
        block["metrics"][name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_better": f"{wins}/{len(pairs)}",
        }
    return block


def end_to_end_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def read_log(path, workload, seeds):
    """Pairs from a ``--log`` file, in seed order; the last run of a side
    at a seed counts."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["workload"] == workload:
                runs[rec["seed"], rec["side"]] = rec["result"]
    missing = [s for s in seeds for side in SIDES if (s, side) not in runs]
    if missing:
        raise SystemExit(f"{path} has no complete pair at seeds {sorted(set(missing))}")
    return [(s, runs[s, "parent"], runs[s, "change"]) for s in seeds]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 3401-3410 or 5,7,9")
    parser.add_argument("--log", help="append each run's result here (JSON lines)")
    parser.add_argument(
        "--from-log", help="summarise this --log file instead of running"
    )
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": args.parent, "change": args.change}
    if args.from_log:
        pairs = read_log(args.from_log, args.workload, seeds)
    else:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = run_once(checkouts[side], args.workload, seed)
                print(
                    f"{args.workload} seed {seed} {side}: correct "
                    f"{results[side]['correct']}",
                    file=sys.stderr,
                )
                if args.log:
                    with open(args.log, "a", encoding="utf-8") as fh:
                        rec = {"workload": args.workload, "seed": seed, "side": side}
                        fh.write(json.dumps({**rec, "result": results[side]}) + "\n")
            pairs.append((seed, results["parent"], results["change"]))
    try:
        block = summarise(
            args.workload, args.seeds, pairs, end_to_end_metrics(args.change)
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(json.dumps(block, indent=1))


if __name__ == "__main__":
    main()
