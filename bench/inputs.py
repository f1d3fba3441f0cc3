"""Workload inputs, made from the workload seed.

Only this module's ``build`` runs inside the timed set-up.  It imports the
package inside the function, so that each set-up repetition uses the import
it has just timed.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Sizes of the full benchmark; the smoke test passes much smaller ones.
# Every oracle searches an even register: for an odd one the oracle misses
# layouts that IPO makes (see test_known_defects.py), so the check "oracle
# cost <= OAI, IPO and OIR cost" would fail on some seeds.
FULL = {
    "random12": {"n": 12, "gates": 1000, "oir_layouts": 2,
                 "trace_commands": 10_000,
                 "oracle_n": 6, "oracle_gates": 10, "oracle_circuits": 6,
                 "sweeps": 3, "sweep_trials": 2, "reps": 2},
    "structured": {"qft": (16, 24, 32), "toffoli": (10, 16, 24),
                   "trace_commands": 10_000, "paper": (12, 14, 16),
                   "oracle_n": 6, "sweep_n": 10, "sweeps": 6, "sweep_trials": 2,
                   "reps": 3},
    "search": {"oracle_n": 6, "oracle_gates": 20, "oracle_circuits": 14,
               "sweep_n": 16, "sweeps": 8, "sweep_trials": 5, "reps": 2},
}


@dataclass
class Job:
    """One QASM text compiled, validated and traced; with ``path`` set, the
    same compile and validate also run through the CLI."""

    label: str
    text: str
    decompose: bool
    method: str
    oir_seed: int | None
    config: object
    path: str = ""
    trace_commands: int | None = None


@dataclass
class Inputs:
    jobs: list[Job] = field(default_factory=list)
    # (label, circuit, method): compiles on the paper's 32-segment trap
    probes: list[tuple[str, object, str]] = field(default_factory=list)
    # (label, parsed circuit, expected circuit)
    expected: list[tuple[str, object, object]] = field(default_factory=list)
    oracles: list[tuple[str, object]] = field(default_factory=list)
    # (label, circuit, OIR trial seeds): one verified sweep each
    sweeps: list[tuple[str, object, list[int]]] = field(default_factory=list)
    # times each job's library compile, validate and trace run per round:
    # with two rounds in a run, a program's median of two samples swings
    # from run to run
    reps: int = 1


def toffoli_qasm(n: int) -> str:
    """The generalized Toffoli ladder of ``gen_toffoli(n)`` as ``ccx`` text."""
    c = n // 2
    ctrl, anc, target = list(range(c)), list(range(c, 2 * c - 1)), n - 1
    steps = [("ccx", (ctrl[0], ctrl[1], anc[0]))]
    steps += [("ccx", (ctrl[i], anc[i - 2], anc[i - 1])) for i in range(2, c)]
    steps.append(("cx", (anc[c - 2], target)))
    steps += reversed(steps[:-1])
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [f"{kind} " + ",".join(f"q[{q}]" for q in qubits) + ";"
              for kind, qubits in steps]
    return "\n".join(lines) + "\n"


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _sweeps(label: str, circuit, sizes: dict, draw) -> list:
    return [(f"{label}#{k}", circuit, [draw() for _ in range(sizes["sweep_trials"])])
            for k in range(sizes["sweeps"])]


def build(workload: str, seed: int, sizes: dict, workdir: str) -> Inputs:
    from ionshuttle.benchmarks import (bench_config, gen_qft,
                                       gen_random_circuit, gen_toffoli)
    from ionshuttle.qasm import parse_qasm, to_qasm

    rng = random.Random(seed)
    draw = lambda: rng.randrange(1 << 30)  # noqa: E731
    inputs = Inputs(reps=sizes["reps"])
    if workload == "random12":
        n = sizes["n"]
        circuit = gen_random_circuit(n, sizes["gates"], draw())
        text = to_qasm(circuit)
        path = _write(workdir, "random.qasm", text)
        layouts = [("ipo", None)] + [("oir", draw()) for _ in range(sizes["oir_layouts"])]
        for method, s in layouts:
            inputs.jobs.append(Job(f"random{n} {method}{'' if s is None else f' {s}'}",
                                   text, False, method, s, bench_config(n), path,
                                   sizes["trace_commands"]))
        inputs.oracles = [(f"random{sizes['oracle_n']}x{sizes['oracle_gates']}#{k}",
                           gen_random_circuit(sizes["oracle_n"], sizes["oracle_gates"], draw()))
                          for k in range(sizes["oracle_circuits"])]
        inputs.sweeps = _sweeps(f"random{n}", circuit, sizes, draw)
    elif workload == "structured":
        for n in sizes["qft"]:
            text = to_qasm(gen_qft(n))
            for method in ("oai", "ipo"):
                inputs.jobs.append(Job(f"qft{n} {method}", text, False, method,
                                       None, bench_config(n), "", sizes["trace_commands"]))
        for n in sizes["toffoli"]:
            text = toffoli_qasm(n)
            path = _write(workdir, f"toffoli{n}.qasm", text)
            inputs.expected.append((f"toffoli{n}", parse_qasm(text, decompose=True),
                                    gen_toffoli(n)))
            for method in ("oai", "ipo"):
                inputs.jobs.append(Job(f"toffoli{n} {method}", text, True, method,
                                       None, bench_config(n), path, sizes["trace_commands"]))
        for n in sizes["paper"]:
            for name, circuit in (("qft", gen_qft(n)), ("toffoli", gen_toffoli(n))):
                for method in ("oai", "ipo"):
                    inputs.probes.append((f"{name}{n} {method}", circuit, method))
        k = sizes["oracle_n"]
        # each searched twice a round, for more samples of these fixed circuits
        inputs.oracles = [(f"qft{k}", gen_qft(k)), (f"toffoli{k}", gen_toffoli(k))] * 2
        inputs.sweeps = _sweeps(f"toffoli{sizes['sweep_n']}",
                                gen_toffoli(sizes["sweep_n"]), sizes, draw)
    elif workload == "search":
        n, gates = sizes["oracle_n"], sizes["oracle_gates"]
        for k in range(sizes["oracle_circuits"]):
            text = to_qasm(gen_random_circuit(n, gates, draw()))
            path = _write(workdir, f"oracle{k}.qasm", text)
            label = f"random{n}x{gates}#{k}"
            inputs.oracles.append((label, parse_qasm(text)))
            for method, s in (("oai", None), ("ipo", None), ("oir", draw())):
                inputs.jobs.append(Job(f"{label} {method}", text, False, method, s,
                                       bench_config(n), path))
        inputs.sweeps = _sweeps(f"toffoli{sizes['sweep_n']}",
                                gen_toffoli(sizes["sweep_n"]), sizes, draw)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
