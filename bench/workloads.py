"""One benchmark run: rounds of a workload's jobs, oracle searches and sweeps.

A round compiles, validates and traces every job, and runs every oracle
search and every verified sweep once.  Only the calls into the package are timed;
the checks run between them, outside the timed regions.  The first round
also checks every output in depth and counts the quality numbers; later
rounds check that each output repeats the first round's exactly.
"""
from __future__ import annotations

import gc
import io
import itertools
import os
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout

from ionshuttle import cli
from ionshuttle.benchmarks import (bench_config, brute_force_best_ordering,
                                   compile_ordering, enumerate_orderings,
                                   oir_costs)
from ionshuttle.commands import parse_sequence, render_trace, replay, serialize
from ionshuttle.ordering import (increase_pairwise_order, order_as_is,
                                 order_inputs_randomly, place_in_the_model)
from ionshuttle.qasm import parse_qasm
from ionshuttle.scheduler import schedule
from ionshuttle.trap import TrapConfig, TrapOverflow, TrapState

import speed
from checks import interpret
from spans import Spans

# Layouts replayed per oracle search in a traced round, to split a layout's
# time between placement and scheduling (the oracle itself is one call).
ORACLE_SAMPLE = 60


def layout(circuit, method: str, seed):
    if method == "oai":
        return order_as_is(circuit)
    if method == "ipo":
        return increase_pairwise_order(circuit)
    return order_inputs_randomly(circuit, seed)


def compile_text(sp: Spans, job):
    """QASM text to sequence text, one span per package call."""
    with sp.span("qasm.parse"):
        circuit = parse_qasm(job.text, decompose=job.decompose)
    with sp.span("ordering.layout"):
        ordering = layout(circuit, job.method, job.oir_seed)
    with sp.span("trap.state"):
        state = TrapState(job.config)
    with sp.span("ordering.place"):
        place_in_the_model(state, ordering, circuit)
    with sp.span("scheduler.schedule"):
        result = schedule(circuit, state)
    with sp.span("commands.serialize"):
        text = serialize(result.sequence)
    return circuit, result, text


def validate_text(sp: Spans, text: str):
    with sp.span("commands.parse"):
        sequence = parse_sequence(text)
    with sp.span("commands.replay"):
        report = replay(sequence)
    return sequence, report


def trace_text(sp: Spans, text: str) -> str:
    with sp.span("commands.parse"):
        sequence = parse_sequence(text)
    with sp.span("commands.trace"):
        return render_trace(sequence)


def head(text: str, n_commands: int | None) -> str:
    """The header plus the first ``n_commands`` commands (a valid program)."""
    if n_commands is None:
        return text
    lines = text.split("\n", n_commands + 1)
    if len(lines) <= n_commands + 1:
        return text
    return "\n".join(lines[:n_commands + 1]) + "\n"


def oracle_layout_count(n: int) -> int:
    """Layouts the oracle schedules: one per reversal class, two for an odd
    register (see ``brute_force_best_ordering``)."""
    return sum(1 for _ in enumerate_orderings(n)) * (2 if n % 2 else 1)


class Quality:
    """Counts over the first round's programs."""

    def __init__(self) -> None:
        self.ops: Counter = Counter()
        self.cost = self.gates2q = self.commands = 0
        self.per_gate: list[int] = []
        self.bytes = self.parsed_gates = self.span_max = 0
        self.violations = self.overflows = 0
        self.compiles = self.compiled = 0
        self.oracle_layouts = 0

    def add(self, circuit, result, problems: list[str], liz: int) -> None:
        found, span_max = interpret(result.sequence.raw, liz, circuit.gates)
        problems += found
        self.span_max = max(self.span_max, span_max)
        self.ops.update(result.sequence.opcode_counts())
        self.cost += result.cost
        self.commands += len(result.sequence)
        self.gates2q += sum(len(g.operands) == 2 for g in circuit.gates)
        self.per_gate += [c for g, c in zip(circuit.gates, result.per_gate_costs)
                          if len(g.operands) == 2]


class Run:
    def __init__(self, seed: int, inputs, workdir: str) -> None:
        self.seed = seed
        self.inputs = inputs
        self.workdir = workdir
        self.spans = Spans()
        self.q = Quality()
        # (traced, metric, item, seconds, index of the loop before it)
        self.timings: list[tuple] = []
        self.gates2q: dict[str, int] = {}   # job -> two-qubit gates
        self.cli_overhead: dict[str, list[float]] = defaultdict(list)
        self.rounds: list[bool] = []   # traced or not
        self.ref: list[float] = []     # seconds per reference loop
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first: dict[str, object] = {}
        self._traced = False

    # -- bookkeeping --------------------------------------------------------

    def _time(self, metric: str, item: str, fn, *args):
        """Time one call and scale it by the reference loops around it.

        A full collection first gives every call the same garbage-collector
        state, so that a collection left pending by the previous call does
        not land in this one."""
        gc.collect()
        self.ref.append(speed.reference_seconds())
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.ref.append(speed.reference_seconds())
        self.timings.append((self._traced, metric, item, dt, len(self.ref) - 2))
        return out

    def _scaled(self) -> list[tuple]:
        """The timings at the reference speed."""
        return [(traced, metric, item, speed.scaled(dt, self.ref, i))
                for traced, metric, item, dt, i in self.timings]

    def _call(self, name: str, fn, *args):
        with self.spans.span(name):
            return fn(*args)

    def _finish(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {problems[0]}")

    def _repeat(self, key: str, value, problems: list[str]) -> None:
        """First round: remember ``value``; later rounds: require it again."""
        if key not in self.first:
            self.first[key] = value
        elif self.first[key] != value:
            problems.append("output differs from the first round")

    def _guard(self, what: str, fn, *args) -> None:
        problems: list[str] = []
        try:
            fn(*args, problems)
        except Exception as e:  # noqa: BLE001 - one failed operation must not end the run
            problems.append(f"{type(e).__name__}: {e} "
                            f"({traceback.extract_tb(e.__traceback__)[-1].name})")
        self._finish(what, problems)

    # -- operations -----------------------------------------------------------

    def _job(self, index: int, job, first: bool, problems: list[str]) -> None:
        sp = self.spans
        with sp.span("bench.job", new_request=True):
            key = job.label
            outputs = set()
            for _ in range(self.inputs.reps):
                circuit, result, text = self._time("compile", key, compile_text, sp, job)
                sequence, report = self._time("validate", key, validate_text, sp, text)
                grid = self._time("trace", key, trace_text, sp, head(text, job.trace_commands))
                outputs.add((text, report.ok, report.s_count + report.m_count, grid))
            if job.path:
                out = os.path.join(self.workdir, f"job{index}.seq")
                argv = ["compile", "-i", job.path, "-o", out,
                        "--ordering", job.method, "--seed", str(job.oir_seed or 0),
                        "--segments", str(job.config.n_segments),
                        "--liz", str(job.config.liz)]
                code_c = self._time("cli_compile", key, self._cli, "cli.compile",
                                    argv + (["--decompose"] if job.decompose else []))
                code_v = self._time("cli_validate", key, self._cli, "cli.validate",
                                    ["validate", "-i", out])
        self.gates2q[key] = sum(len(g.operands) == 2 for g in circuit.gates)
        if len(outputs) > 1:
            problems.append("a repeated compile, validate or trace gave another output")
        if not report.ok:
            problems.append(f"replay violations {report.violations[:2]}")
        if report.s_count + report.m_count != result.cost:
            problems.append("replayed split+merge differs from the schedule cost")
        if sequence.raw != result.sequence.raw:
            problems.append("parse_sequence(serialize(seq)) differs from seq")
        if not grid.startswith("# segments="):
            problems.append("trace grid lacks its header")
        if job.path:
            last = {t[1]: t[3] for t in self.timings[-5:]}   # this job's last five calls
            for step in ("compile", "validate"):
                self.cli_overhead[step].append(last[f"cli_{step}"] - last[step])
            with open(out, encoding="utf-8") as fh:
                if fh.read() != text:
                    problems.append("CLI compile wrote other bytes than the library path")
            if (code_c, code_v) != (0, 0):
                problems.append(f"CLI exit codes {code_c}, {code_v}")
        self._repeat(f"job {index}", text, problems)
        if first:
            q = self.q
            q.compiles += 1
            q.parsed_gates += len(circuit.gates)
            q.bytes += len(text.encode())
            q.violations += len(report.violations)
            q.add(circuit, result, problems, job.config.liz)
            q.compiled += not problems

    def _cli(self, name: str, argv: list[str]) -> int:
        sink = io.StringIO()
        with self.spans.span(name), redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(argv)

    def _oracle(self, label: str, circuit, first: bool, problems: list[str]) -> None:
        seen = f"oracle {label}" in self.first
        with self.spans.span("bench.oracle", new_request=True):
            ordering, best = self._time("oracle", label, self._call, "benchmarks.oracle",
                                        brute_force_best_ordering, circuit)
        self._repeat(f"oracle {label}", (ordering, best), problems)
        if not first or seen:
            return
        result = compile_ordering(circuit, ordering)
        if result.cost != best:
            problems.append(f"oracle layout recompiles to {result.cost}, not {best}")
        for method in ("oai", "ipo", "oir"):
            other = compile_ordering(circuit, layout(circuit, method, self.seed)).cost
            if best > other:
                problems.append(f"oracle cost {best} exceeds {method} cost {other}")
        self.q.oracle_layouts += oracle_layout_count(circuit.n_qubits)
        self.q.add(circuit, result, problems, bench_config(circuit.n_qubits).liz)

    def _sweep(self, label: str, circuit, seeds: list[int], first: bool,
               problems: list[str]) -> None:
        with self.spans.span("bench.sweep", new_request=True):
            costs = self._time("sweep", label, self._call, "benchmarks.sweep",
                               oir_costs, circuit, seeds, None, True, 1)
        self._repeat(f"sweep {label}", costs, problems)
        if not first:
            return
        liz = bench_config(circuit.n_qubits).liz
        for s, c in zip(seeds, costs):
            result = compile_ordering(circuit, order_inputs_randomly(circuit, s))
            if result.cost != c:
                problems.append(f"sweep trial {s} cost {c}, recompiled {result.cost}")
            self.q.add(circuit, result, problems, liz)

    def _probe(self, circuit, method: str, problems: list[str]) -> None:
        """Compile on the paper's 32-segment trap: a checked program or a
        TrapOverflow are the two expected outcomes."""
        self.q.compiles += 1
        cfg = TrapConfig()
        try:
            result = compile_ordering(circuit, layout(circuit, method, None), cfg)
        except TrapOverflow:
            self.q.overflows += 1
            return
        report = replay(result.sequence, cfg)
        if not report.ok or report.s_count + report.m_count != result.cost:
            problems.append("paper-trap program fails replay")
        found, span_max = interpret(result.sequence.raw, cfg.liz, circuit.gates)
        problems += found
        self.q.span_max = max(self.q.span_max, span_max)
        self.q.compiled += not problems

    def _oracle_sample(self, circuit) -> None:
        """Replay every k-th oracle layout through the public calls."""
        sp = self.spans
        cfg = bench_config(circuit.n_qubits)
        step = max(1, sum(1 for _ in enumerate_orderings(circuit.n_qubits)) // ORACLE_SAMPLE)
        with sp.span("bench.oracle_sample", new_request=True):
            for ordering in itertools.islice(enumerate_orderings(circuit.n_qubits), 0, None, step):
                with sp.span("trap.state_oracle"):
                    state = TrapState(cfg)
                with sp.span("ordering.place_oracle"):
                    place_in_the_model(state, ordering, circuit)
                with sp.span("scheduler.schedule_oracle"):
                    schedule(circuit, state)

    # -- rounds -----------------------------------------------------------------

    def _schedule(self) -> list:
        """The round's operations, each kind spread evenly over the round so
        that every timing samples the whole run."""
        inputs = self.inputs
        kinds = [[(job.label, self._job, i, job) for i, job in enumerate(inputs.jobs)],
                 [(f"oracle {label}", self._oracle, label, c) for label, c in inputs.oracles],
                 [(f"sweep {label}", self._sweep, label, c, seeds)
                  for label, c, seeds in inputs.sweeps]]
        placed = [((j + 0.5) / len(ops), k, op)
                  for k, ops in enumerate(kinds) for j, op in enumerate(ops)]
        return [op for _, _, op in sorted(placed, key=lambda p: p[:2])]

    def round(self, first: bool, traced: bool, deadline: float | None) -> None:
        """One round, cut short at ``deadline`` (a ``perf_counter`` value)
        between two operations."""
        self._traced = traced
        self.spans.enabled = traced
        inputs = self.inputs
        for what, fn, *args in self._schedule():
            if deadline is not None and time.perf_counter() >= deadline:
                break
            self._guard(what, fn, *args, first)
        self.spans.enabled = False
        self.rounds.append(traced)
        if traced:
            self.spans.enabled = True
            for _, circuit in inputs.oracles:
                self._oracle_sample(circuit)
            self.spans.enabled = False
        if first:
            for label, circuit, method in inputs.probes:
                self._guard(f"paper trap {label}", self._probe, circuit, method)
            for label, parsed, expected in inputs.expected:
                self._finish(f"parse {label}", [] if parsed == expected else
                             ["parsed ccx text differs from gen_toffoli"])

    def execute(self, seconds: float, trace: bool) -> None:
        """Run rounds until ``seconds`` have passed; with ``trace`` rounds
        alternate untraced and traced, and at least one is traced.

        The run stops between two operations rather than after a whole
        round: on a shared machine whose speed drifts, a whole-round rule
        gives one round in some runs and two in others.  The first round
        (it checks in depth) and every traced round (per-round self times)
        always run whole."""
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(self.rounds) % 2 == 1
            whole = traced or not self.rounds
            self.round(first=not self.rounds, traced=traced,
                       deadline=None if whole else deadline)
            if time.perf_counter() >= deadline and (not trace or any(self.rounds)):
                break

    # -- results ------------------------------------------------------------------

    def slowdown(self) -> float:
        """Median reference loop time over REF_MS: how much slower than the
        reference machine this run was."""
        return _median(self.ref) * 1e3 / speed.REF_MS

    def end_to_end(self, traced: bool, scaled: bool = True) -> tuple[dict, dict]:
        """Values (at the reference speed unless ``scaled`` is off) and
        sample counts of the timed end-to-end metrics.

        A timing is the median over the workload's programs (or searches,
        or sweeps) of each one's median, so every program weighs the same
        however many rounds ran."""
        table: dict = defaultdict(lambda: defaultdict(list))
        timings = self._scaled() if scaled else [t[:4] for t in self.timings]
        for was_traced, metric, item, seconds in timings:
            if was_traced == traced:
                table[metric][item].append(seconds)
        per_item = {m: {k: _median(v) for k, v in table[m].items()}
                    for m in ("compile", "validate", "trace", "oracle", "sweep")}
        compile_s = sum(per_item["compile"].values())
        values = {
            "compile_ms.p50": 1e3 * _median(per_item["compile"].values()),
            "validate_ms.p50": 1e3 * _median(per_item["validate"].values()),
            "trace_ms.p50": 1e3 * _median(per_item["trace"].values()),
            "gates_per_s": (sum(self.gates2q[k] for k in per_item["compile"]) / compile_s
                            if compile_s else 0.0),
            "oracle_s": _median(per_item["oracle"].values()),
            "sweep_s": _median(per_item["sweep"].values()),
        }
        n = {m: sum(len(v) for v in table[m].values()) for m in per_item}
        counts = {"compile_ms.p50": n["compile"], "validate_ms.p50": n["validate"],
                  "trace_ms.p50": n["trace"], "gates_per_s": n["compile"],
                  "oracle_s": n["oracle"], "sweep_s": n["sweep"]}
        return values, counts

    def quality(self) -> dict:
        q = self.q
        return {
            "ok_ratio": q.compiled / q.compiles if q.compiles else 0.0,
            "circuit_fit": q.cost / q.gates2q if q.gates2q else 0.0,
            "commands": q.commands,
            "moves": q.ops["SMU"] + q.ops["SMD"],
        }

    def tracing_overhead_pct(self) -> float:
        """Median over timed calls (one kind of call on one program, search
        or sweep) of the traced median time over the untraced one, minus 1."""
        both: dict = defaultdict(lambda: ([], []))
        for traced, metric, item, seconds in self._scaled():
            both[metric, item][traced].append(seconds)
        ratios = [_median(t) / _median(u) for u, t in both.values() if u and t]
        return 100 * (_median(ratios) - 1) if ratios else 0.0

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer values and their sample counts, from the traced rounds."""
        d = self.spans.durations()
        q = self.q
        n_traced = sum(self.rounds) or 1
        sweep_trials = len(self.inputs.sweeps[0][2])
        searched = {label for label, _ in self.inputs.oracles}
        per_call = q.oracle_layouts / len(searched) if searched else 0
        span_ms = {
            "qasm.parse_ms": "qasm.parse", "ordering.layout_ms": "ordering.layout",
            "ordering.place_ms": "ordering.place",
            "scheduler.schedule_ms": "scheduler.schedule",
            "commands.serialize_ms": "commands.serialize",
            "commands.parse_ms": "commands.parse", "commands.replay_ms": "commands.replay",
            "commands.trace_ms": "commands.trace",
        }
        values = {k: 1e3 * _median(d[name]) for k, name in span_ms.items()}
        counts = {k: len(d[name]) for k, name in span_ms.items()}
        oracle = d["benchmarks.oracle"]
        sweep = d["benchmarks.sweep"]
        values.update({
            "qasm.gates": q.parsed_gates,
            "scheduler.splits": q.ops["S"], "scheduler.merges": q.ops["M"],
            "scheduler.rotations": q.ops["RC"], "scheduler.wells": q.ops["AEC"],
            "scheduler.cost_per_gate.p50": _median(q.per_gate),
            "scheduler.cost_per_gate.max": max(q.per_gate, default=0),
            "trap.span_max": q.span_max, "trap.overflows": q.overflows,
            "commands.bytes": q.bytes, "commands.violations": q.violations,
            "benchmarks.oracle_layouts": q.oracle_layouts,
            "benchmarks.oracle_layout_us": 1e6 * _median(oracle) / per_call if per_call else 0.0,
            "benchmarks.sweep_trial_ms": 1e3 * _median(sweep) / sweep_trials,
            "cli.compile_ms": 1e3 * _median(self.cli_overhead["compile"]),
            "cli.validate_ms": 1e3 * _median(self.cli_overhead["validate"]),
            "tracing.overhead_pct": self.tracing_overhead_pct(),
        })
        counts.update({"benchmarks.oracle_layout_us": len(oracle),
                       "benchmarks.sweep_trial_ms": len(sweep),
                       "cli.compile_ms": len(self.cli_overhead["compile"]),
                       "cli.validate_ms": len(self.cli_overhead["validate"]),
                       "scheduler.cost_per_gate.p50": len(q.per_gate)})
        own = self.spans.self_seconds()
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = 1e3 * own.get(layer, 0.0) / n_traced
        return values, counts


LAYERS = ("qasm", "ordering", "trap", "scheduler", "commands", "benchmarks", "cli")


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0
