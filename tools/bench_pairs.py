#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload search --pairs 10 --seed 1741 --out BENCH_17.json

Pair i runs the benchmark command of BENCHMARK.json (``python3 bench/run.py``)
in both checkouts on seed S + i for ``run_seconds`` seconds, the parent
first in even pairs and the change first in odd ones, and reads each run's
last line of standard output as JSON.  ``--workload`` may be given more
than once.  For each end-to-end metric of the change's BENCHMARK.json the
output holds each side's median and quartiles, the change's wins, losses
and ties, and a verdict:

- ``gain``: over at least 10 pairs, the change wins at least 9 of every 10
  and its median is better than the parent's by more than the parent's
  quartile distance;
- ``worse beyond bound``: the change's median is worse than the parent's by
  more than ``bound`` times the parent's median;
- ``unresolved``: neither, but the parent's quartile distance is wider than
  that bound, and not every change run reads better than every parent run;
- ``within bound``: otherwise.

After a workload's pairs it runs the benchmark ``TRACED_RUNS`` more times
per side with ``--trace 1`` on seed S, alternating which side goes first,
each for ``TRACED_LENGTH`` times ``run_seconds``, and writes the median of
each side's per-layer metrics (span times per layer, such as
``benchmarks.self_ms``, and counts) under ``per_layer``, to show in which
layer a change in an end-to-end metric lands, and their first and third
quartiles under ``per_layer_quartiles``.  The printout gives each side's
failed and attempted operations per workload, marked when the change fails
a larger share, and marks a per-layer difference as noise when each side's
median lies within the other side's quartiles.  It also records both
checkouts' git SHAs, the Python version and ``nproc``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ORDERS = (("parent", "change"), ("change", "parent"))  # of even and odd runs
TRACED_RUNS = 3  # per side and workload; one traced run is too noisy
# a traced run's length in run_seconds: traced and untraced rounds
# alternate, so a run of run_seconds on random12 holds only about two
# traced rounds
TRACED_LENGTH = 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired runs (``parent[i]`` against ``change[i]``)."""
    sign = 1 if better == "lower" else -1  # > 0: the change reads worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse = sign * (cm - pm)
    limit = bound * abs(pm)
    spread = p3 - p1
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and -worse > spread:
        result = "gain"
    elif worse > limit:
        result = "worse beyond bound"
    elif spread > limit and not max(sign * c for c in change) < min(sign * p for p in parent):
        result = "unresolved"
    else:
        result = "within bound"
    return {"parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "ratio": cm / pm if pm else None,
            "wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
            "better": better, "bound": bound, "verdict": result}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric verdicts and failure counts of one workload's pairs, each
    ``{"parent": result, "change": result}`` in the benchmark's last-line
    form; ``metrics`` are BENCHMARK.json's ``end_to_end`` entries."""
    sides = ("parent", "change")
    out = {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                  "failed": sum(p[side]["failed"] for p in pairs),
                  "all_correct": all(p[side]["correct"] for p in pairs)}
           for side in sides}
    out["metrics"] = {
        m["name"]: verdict(*([p[side]["metrics"][m["name"]]["value"] for p in pairs]
                             for side in sides), m["better"], m["bound"])
        for m in metrics}
    return out


def failed_share(side: dict) -> float:
    """The share of a side's attempted operations that failed."""
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def within(value: float, spread: dict | None) -> bool:
    """Whether ``value`` lies in a ``{"q1": ..., "q3": ...}`` range."""
    return spread is not None and spread["q1"] <= value <= spread["q3"]


def git_sha(checkout: str) -> str:
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


STDERR_LINES = 20  # of a failed run's standard error, printed


def run_once(checkout: str, command: list[str], workload: str, seed: int,
             seconds: float, trace: int = 0) -> dict:
    """One benchmark run in ``checkout``, traced or not; its last line of
    output, parsed.  A failed run prints the checkout, workload, seed, exit
    code and the end of its standard error, and ends the script with exit 1.
    So does a run that exits 0 without JSON as its last line of output,
    showing that line."""
    done = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    where = f"in {checkout}: workload {workload}, seed {seed}"
    if done.returncode:
        print(f"benchmark failed {where}, exit {done.returncode}", file=sys.stderr)
        for line in done.stderr.splitlines()[-STDERR_LINES:]:
            print(f"  {line}", file=sys.stderr)
        sys.exit(1)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    try:
        return json.loads(last)
    except json.JSONDecodeError:
        print(f"benchmark printed no JSON result {where}; last line: {last!r}",
              file=sys.stderr)
        sys.exit(1)


def values(result: dict) -> dict:
    """Metric name -> value of one run's last-line result."""
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--out", required=True, help="JSON output path")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {"parent": {"sha": git_sha(args.parent)},
              "change": {"sha": git_sha(args.change)},
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "command": spec["command"], "run_seconds": spec["run_seconds"],
              "pairs": args.pairs, "seeds": [args.seed + i for i in range(args.pairs)],
              "workloads": {}}
    for workload in args.workload:
        pairs, runs = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ORDERS[i % 2]
            pair = {side: run_once(getattr(args, side), spec["command"], workload,
                                   seed, spec["run_seconds"]) for side in order}
            pairs.append(pair)
            runs.append({"seed": seed, "first": order[0],
                         **{side: values(pair[side]) for side in order}})
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} done",
                  file=sys.stderr)
        traced = {"parent": [], "change": []}
        for i in range(TRACED_RUNS):
            for side in ORDERS[i % 2]:
                traced[side].append(values(run_once(getattr(args, side), spec["command"],
                                                    workload, args.seed,
                                                    TRACED_LENGTH * spec["run_seconds"],
                                                    trace=1)))
        per_layer, per_layer_quartiles = {}, {}
        for side, side_runs in traced.items():
            spread = {name: quartiles([run[name] for run in side_runs])
                      for name in side_runs[0]}
            per_layer[side] = {name: q2 for name, (_, q2, _) in spread.items()}
            per_layer_quartiles[side] = {name: {"q1": q1, "q3": q3}
                                         for name, (q1, _, q3) in spread.items()}
        report["workloads"][workload] = {**summarize(pairs, spec["end_to_end"]),
                                         "runs": runs, "per_layer": per_layer,
                                         "per_layer_quartiles": per_layer_quartiles}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:<10} {name:<16} parent {m['parent']['median']:<12.6g} "
                  f"change {m['change']['median']:<12.6g} wins {m['wins']}/{args.pairs} "
                  f"{m['verdict']}")
        parent, change = summary["parent"], summary["change"]
        print(f"{workload:<10} operations failed: parent {parent['failed']}/"
              f"{parent['attempted']} change {change['failed']}/{change['attempted']}"
              + ("  the change fails a larger share"
                 if failed_share(change) > failed_share(parent) else ""))
        layers, ranges = summary["per_layer"], summary["per_layer_quartiles"]
        for name, value in layers["parent"].items():
            other = layers["change"].get(name, float("nan"))
            noise = (other != value and within(other, ranges["parent"][name])
                     and within(value, ranges["change"].get(name)))
            print(f"{workload:<10} {name:<32} parent {value:<12.6g} change {other:<12.6g} "
                  f"traced median of {TRACED_RUNS}, seed {args.seed}"
                  + ("  noise: each median within the other's q1-q3" if noise else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
