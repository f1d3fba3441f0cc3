#!/usr/bin/env python3
"""Benchmark of the ionshuttle compiler, one workload per process.

    python3 bench/run.py --workload random12 --seed 1 --seconds 30 --trace 0

Workloads: ``random12`` (CLI compile and validate of long programs),
``structured`` (QFT and Toffoli, with traces and the paper-trap capacity
probe) and ``search`` (exhaustive oracle and verified sweep).  See NOTES.md.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run whose rounds alternate untraced and traced, plus
each layer's self time and the tracing overhead.  The last line of standard
output is one JSON object; a result and, when traced, the spans are written
under ``.bench_out/`` in the checkout.  Exits 2 when the package sources are
missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import inputs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "ionshuttle" or k.startswith("ionshuttle.")}


def measure_setup(workload: str, seed: int, sizes: dict, workdir: str):
    """Time importing the package and building the inputs.

    Each repetition drops the package from ``sys.modules`` first and is
    scaled to the reference speed like every other timing.  A package
    already imported before the call is put back afterwards, and the inputs
    are built once more against it.  Returns the scaled and the unscaled
    median, the repetitions and the inputs.
    """
    saved = _package_modules()
    times, refs = [], []
    try:
        for _ in range(SETUP_REPEATS):
            for name in _package_modules():
                del sys.modules[name]
            gc.collect()
            refs.append(speed.reference_seconds())
            t0 = time.perf_counter()
            import ionshuttle  # noqa: F401
            built = inputs.build(workload, seed, sizes, workdir)
            times.append(time.perf_counter() - t0)
            refs.append(speed.reference_seconds())
    finally:
        if saved:
            for name in _package_modules():
                del sys.modules[name]
            sys.modules.update(saved)
    if saved:
        built = inputs.build(workload, seed, sizes, workdir)
    scaled = [speed.scaled(t, refs, 2 * i) for i, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times), len(times), built


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict, out_dir: str) -> dict:
    """One benchmark run; returns the result object and writes it, and the
    spans when traced, to ``out_dir``."""
    workdir = os.path.join(out_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s, setup_raw, setup_n, built = measure_setup(workload, seed, sizes, workdir)
        import workloads

        run = workloads.Run(seed, built, workdir)
        run.execute(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "rounds": len(run.rounds),
            "traced_rounds": sum(run.rounds),
            "attempted": run.attempted, "failed": run.failed,
            "failures": run.failures}
    timed, timed_n = run.end_to_end(traced=False)
    slowdown = run.slowdown()
    meta.update(slowdown=slowdown, reference_loops=len(run.ref))
    e2e = {"setup_s": setup_s, **timed,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           **run.quality()}
    samples = {"setup_s": setup_n, **timed_n, "peak_rss_mb": 1}
    print(f"# {workload} seed={seed} sha={meta['git_sha'][:12]} python={meta['python']} "
          f"nproc={meta['nproc']} rounds={meta['rounds']} "
          f"attempted={run.attempted} failed={run.failed}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"# paper-trap overflows: {run.q.overflows}")
    print(f"# reference loop: {slowdown:.4f} x its {speed.REF_MS} ms (n={len(run.ref)}); "
          "timings are scaled to the reference speed by the loops around each sample")
    _print_table("end-to-end", e2e, metric_units("end_to_end"), samples)
    record = {"meta": meta, "end_to_end": e2e, "samples": samples,
              "unscaled_end_to_end": {"setup_s": setup_raw,
                                      **run.end_to_end(traced=False, scaled=False)[0]}}
    if trace:
        layer, layer_n = run.per_layer()
        traced, _ = run.end_to_end(traced=True)
        _print_table("per-layer", layer, metric_units("per_layer"), layer_n)
        print("# tracing overhead (traced / untraced median - 1):")
        for name, value in traced.items():
            base = timed[name]
            if base:
                print(f"  {name:<18} {100 * (value / base - 1):+7.2f} %")
        own = run.spans.self_seconds()
        total = sum(own.values()) or 1.0
        print(f"# self time per traced round, {len(run.spans.records)} spans:")
        for name in sorted(own, key=own.get, reverse=True):
            per_round = 1e3 * own[name] / max(meta["traced_rounds"], 1)
            print(f"  {name:<12} {per_round:12.3f} ms  {100 * own[name] / total:6.2f} %")
        record.update(per_layer=layer, per_layer_samples=layer_n, traced_end_to_end=traced)
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
        run.spans.write(spans_path, meta)
        print(f"# wrote {os.path.relpath(spans_path, ROOT)}")
        metrics, kind = layer, "per_layer"
    else:
        metrics, kind = e2e, "end_to_end"
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in metric_units(kind).items()}}


def _print_table(title: str, values: dict, units: dict, samples: dict) -> None:
    print(f"# {title} metrics:")
    for name, unit in units.items():
        n = samples.get(name)
        print(f"  {name:<30} {values[name]:>16.6g} {unit:<9}" + (f" n={n}" if n else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ionshuttle", "__init__.py")):
        print(f"error: no ionshuttle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          inputs.FULL[args.workload], OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
