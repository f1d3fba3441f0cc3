"""Benchmark circuits, ordering sweeps, circuit-fit analysis and the
exhaustive placement oracle.

The cost of a compiled circuit is its split/merge count.  The circuit fit
C = cost / two-qubit-gate count measures mean cost per gate; for circuits
where one ion interacts with a run of others (the all-pairs structure) it
approaches the limit L = 6/K for K ions per crystal, so L = 3 here.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .commands import cost as sequence_cost
from .commands import replay
from .ordering import (Ordering, _chunk_pairs, check_capacity,
                       increase_pairwise_order, order_as_is,
                       order_inputs_randomly, place_in_the_model)
from .qasm import Circuit, build_circuit, decompose_gate, Gate
from .scheduler import ScheduleResult, plan_cost, schedule
from .trap import TrapConfig, TrapState


ORACLE_MAX_QUBITS = 8


# -- circuit generators --------------------------------------------------------


def gen_random_circuit(n: int, n_gates: int, seed: int) -> Circuit:
    """Two-qubit gates on uniformly random ordered pairs of distinct qubits."""
    if n < 2:
        raise ValueError("random circuits need at least 2 qubits")
    rng = random.Random(seed)
    specs = []
    for _ in range(n_gates):
        a, b = rng.sample(range(n), 2)
        specs.append(("cz", (a, b), ()))
    return build_circuit(n, specs)


def gen_qft(n: int) -> Circuit:
    """All-pairs interaction circuit in block order: qubit 0 with 1..n-1,
    then 1 with 2..n-1, and so on (n(n-1)/2 two-qubit gates, no 1-qubit
    gates: they never move an ion and would dilute the fit)."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    specs = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            specs.append(("cp", (i, j), (math.pi / 2 ** (j - i),)))
    return build_circuit(n, specs)


def gen_toffoli(n: int) -> Circuit:
    """Generalized Toffoli ladder on n = c controls + (c-1) ancillas + 1
    target, with every doubly-controlled step expanded to two-qubit gates."""
    if n < 4 or n % 2:
        raise ValueError(
            f"{n} qubits do not split into c controls, c-1 ancillas and a target")
    c = n // 2
    ctrl = list(range(c))
    anc = list(range(c, 2 * c - 1))
    target = n - 1
    steps = [("ccx", (ctrl[0], ctrl[1], anc[0]))]
    for i in range(2, c):
        steps.append(("ccx", (ctrl[i], anc[i - 2], anc[i - 1])))
    steps.append(("cx", (anc[c - 2], target)))
    steps.extend(reversed(steps[:-1]))
    specs = []
    for kind, qubits in steps:
        if kind == "ccx":
            for g in decompose_gate(Gate(0, "ccx", qubits)):
                specs.append((g.kind, g.operands, g.params))
        else:
            specs.append((kind, qubits, ()))
    return build_circuit(n, specs)


# -- compilation helpers ---------------------------------------------------------


def bench_config(n: int) -> TrapConfig:
    """Default trap for small registers; a proportionally larger trap once
    the packed register plus transport slack no longer fits 32 segments."""
    if n <= 8:
        return TrapConfig()
    return TrapConfig(n_segments=4 * n, liz=2 * n)


def make_ordering(circuit: Circuit, method: str, seed: int | None = None) -> Ordering:
    if method == "oai":
        return order_as_is(circuit)
    if method == "oir":
        if seed is None:
            raise ValueError("oir needs a seed")
        return order_inputs_randomly(circuit, seed)
    if method == "ipo":
        return increase_pairwise_order(circuit)
    raise ValueError(f"unknown ordering method {method!r}")


def compile_ordering(circuit: Circuit, ordering: Ordering,
                     config: TrapConfig | None = None,
                     verify: bool = False) -> ScheduleResult:
    """Place an ordering and schedule the circuit; with ``verify`` the
    emitted sequence is replayed against a fresh trap and must be clean."""
    cfg = config or bench_config(circuit.n_qubits)
    state = TrapState(cfg)
    place_in_the_model(state, ordering, circuit)
    result = schedule(circuit, state)
    if verify:
        report = replay(result.sequence, cfg)
        if report.violations:
            raise RuntimeError(f"replay violations: {report.violations[:3]}")
        if report.s_count + report.m_count != result.cost:
            raise RuntimeError("replay cost disagrees with scheduler cost")
    return result


# -- circuit fit -----------------------------------------------------------------


def circuit_fit(cost: int, n_gates: int) -> float:
    """Mean split/merge cost per two-qubit gate."""
    if n_gates == 0:
        raise ValueError("circuit fit needs at least one two-qubit gate, got 0")
    return cost / n_gates


def theoretical_limit(k: int) -> float:
    """Asymptotic fit limit 6/K for K ions per crystal (3 when K = 2)."""
    if k < 1:
        raise ValueError("crystal size must be at least 1")
    return 6 / k


# -- sweeps ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompileRecord:
    suite: str
    n: int
    method: str
    trial: int
    seed: int | None
    cost: int
    gates: int
    fit: float


def to_csv(records) -> str:
    """One CSV line per compile record, under a header line."""
    lines = ["suite,n,method,trial,seed,cost,gates,fit"]
    for r in records:
        seed = "" if r.seed is None else str(r.seed)
        lines.append(f"{r.suite},{r.n},{r.method},{r.trial},{seed},"
                     f"{r.cost},{r.gates},{r.fit:.6f}")
    return "\n".join(lines) + "\n"


def _suite_circuit(suite: str, n: int, n_gates: int, seed: int) -> Circuit:
    if suite == "random":
        return gen_random_circuit(n, n_gates, seed + 7919 * n)
    if suite == "qft":
        return gen_qft(n)
    if suite == "toffoli":
        return gen_toffoli(n)
    raise ValueError(f"unknown suite {suite!r}")


def _trial_cost(circuit: Circuit, cfg: TrapConfig, verify: bool, seed: int) -> int:
    return compile_ordering(circuit, order_inputs_randomly(circuit, seed), cfg,
                            verify=verify).cost


def oir_costs(circuit: Circuit, seeds, config: TrapConfig | None = None,
              verify: bool = True, workers: int = 1) -> list[int]:
    """Compile one randomized layout per seed; independent trials fan out
    over ``workers`` processes (results stay in seed order)."""
    trial = functools.partial(_trial_cost, circuit,
                              config or bench_config(circuit.n_qubits), verify)
    seeds = list(seeds)
    workers = min(workers, len(seeds))
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(trial, seeds,
                            chunksize=max(1, len(seeds) // (4 * workers)))
    return list(map(trial, seeds))


def run_sweep(suite: str, n_list, method_list=("oai", "oir", "ipo"),
              trials: int = 1, seed: int = 0, n_gates: int = 1000,
              config: TrapConfig | None = None,
              workers: int = 1) -> list[CompileRecord]:
    """Compile each suite circuit under each ordering method.

    Deterministic methods run once; the randomized one runs ``trials`` times
    with seeds derived from the master seed by counter.  Every compile is
    replayed and verified.  Records come per size, then per method, then
    per trial, so each method's pass starts at trial 0.  Trials are
    independent (each compile owns its trap), so ``workers`` > 1 fans them
    out over processes; records stay in trial order, identical to a serial
    run.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    records = []
    for n in n_list:
        cfg = config or bench_config(n)
        check_capacity((n + 1) // 2, cfg)  # before building the suite circuit
        circuit = _suite_circuit(suite, n, n_gates, seed)
        n2q = len(circuit.two_qubit_gates())
        for method in method_list:
            if method == "oir":
                runs: list[tuple[int, int | None]] = [(t, seed + t) for t in range(trials)]
                costs = oir_costs(circuit, [ts for _, ts in runs], cfg,
                                  workers=workers)
            else:
                runs = [(0, None)]
                costs = [compile_ordering(circuit, make_ordering(circuit, method),
                                          cfg, verify=True).cost]
            records += [CompileRecord(suite, n, method, trial, trial_seed, c,
                                      n2q, circuit_fit(c, n2q))
                        for (trial, trial_seed), c in zip(runs, costs)]
    return records


# -- exhaustive placement oracle ----------------------------------------------


def enumerate_orderings(n: int):
    """One representative per reversal class (n!/2 classes for n >= 2), in
    lexicographic order of the flat permutation, paired left to right."""
    for perm in itertools.permutations(range(1, n + 1)):
        if perm <= perm[::-1]:
            yield _chunk_pairs(list(perm))


def brute_force_best_ordering(circuit: Circuit,
                              config: TrapConfig | None = None,
                              verify: bool = False) -> tuple[Ordering, int]:
    """Rank every reversal class by its planned cost and return the
    cheapest layout.

    Mirroring a layout end to end (groups and intra-group order reversed)
    never changes the cost, so classes pair each permutation with its
    reverse.  For an odd register the two members chunk to layouts with the
    lone ion paired differently, which do differ in cost, so both
    representatives are ranked; for an even register the second member's
    layout is exactly the mirror and one suffices.  Ties keep the first hit
    in enumeration order.

    Layouts are ranked with ``plan_cost`` alone; only the winner is lowered
    (placed and scheduled on ``config``, which checks every gate's cost
    against the plan), so a ``TrapOverflow`` on the winner still ends the
    search, but a layout that would overflow and does not win no longer
    does.  On the traps checked (12/6, 16/8, 16/12, 20/10, 32/19 and 10/3
    segments/LIZ) overflow was all-or-none across the layouts of a circuit.
    With ``verify`` every layout is also compiled with ``verify=True``.
    """
    n = circuit.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"exhaustive search capped at {ORACLE_MAX_QUBITS} qubits")
    best: tuple[Ordering, int] | None = None
    for first in enumerate_orderings(n):
        layouts = (first,) if n % 2 == 0 else (
            first, _chunk_pairs(list(reversed(first.ions()))))
        for ordering in layouts:
            c = plan_cost(circuit, ordering.crystal_list)
            if verify:
                compile_ordering(circuit, ordering, config, verify=True)
            if best is None or c < best[1]:
                best = (ordering, c)
    assert best is not None
    compile_ordering(circuit, best[0], config)
    return best
