"""Benchmark circuits, ordering sweeps, circuit-fit analysis and the
exhaustive placement oracle.

The cost of a compiled circuit is its split/merge count.  The circuit fit
C = cost / two-qubit-gate count measures mean cost per gate.  For circuits
where one ion interacts with a run of others (the all-pairs structure) the
paper gives the limit L = 6/K for K ions per crystal, so L = 3 for the
two-ion crystals compiled here.  That figure is the paper's, not a bound
of this cost model: with one-ion crystals (K = 1) a QFT's fit here tends
to 2.0, below both 6/1 and 6/2.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import random
from dataclasses import dataclass

from .commands import ReplayError, verify_steps
from .ordering import (Ordering, check_register, increase_pairwise_order,
                       order_as_is, order_inputs_randomly, paired,
                       place_in_the_model)
from .qasm import Circuit, build_circuit, decompose_gate, Gate
from .scheduler import ScheduleResult, rank_flat, schedule
from .trap import TrapConfig, TrapState


ORACLE_MAX_QUBITS = 8
ORDERING_METHODS = ("oai", "oir", "ipo")  # the names make_ordering takes


# -- circuit generators --------------------------------------------------------


def gen_random_circuit(n: int, n_gates: int, seed: int) -> Circuit:
    """Two-qubit gates on uniformly random ordered pairs of distinct qubits."""
    if n < 2:
        raise ValueError("random circuits need at least 2 qubits")
    if n_gates < 0:
        raise ValueError(f"random circuits need a gate count of at least 0, "
                         f"got {n_gates}")
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


def check_method(method: str) -> None:
    if method not in ORDERING_METHODS:
        raise ValueError(f"unknown ordering method {method!r}")


def make_ordering(circuit: Circuit, method: str, seed: int | None = None) -> Ordering:
    check_method(method)
    if method == "oai":
        return order_as_is(circuit)
    if method == "ipo":
        return increase_pairwise_order(circuit)
    if seed is None:
        raise ValueError("oir needs a seed")
    return order_inputs_randomly(circuit, seed)


def compile_ordering(circuit: Circuit, ordering: Ordering,
                     config: TrapConfig | None = None,
                     verify: bool = False) -> ScheduleResult:
    """Place an ordering and schedule the circuit; with ``verify`` the
    emitted sequence is checked against a fresh trap and must be clean.

    The check is ``commands.verify_steps``, which gives strict ``replay``'s
    verdict and counts while running each repeated step once per trap
    shape.  Its verdict is final: a ``RuntimeError`` names the first failing
    command, as strict ``replay`` does, or S+M that disagrees with the cost."""
    cfg = config or bench_config(circuit.n_qubits)
    state = TrapState(cfg)
    place_in_the_model(state, ordering, circuit)
    result = schedule(circuit, state)
    if verify:
        try:
            report = verify_steps(result.sequence, result.steps, cfg)
        except ReplayError as e:
            raise RuntimeError(f"replay violations: {e}") from e
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
    """The paper's asymptotic fit limit 6/K for K ions per crystal (3 when
    K = 2, the crystals compiled here).  It is not a bound of this cost
    model for K = 1, where a QFT's fit tends to 2.0, not 6."""
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


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def oir_costs(circuit: Circuit, seeds, config: TrapConfig | None = None,
              verify: bool = True, workers: int = 1) -> list[int]:
    """Compile one randomized layout per seed, in seed order; the trials fan
    out over ``workers`` processes, at most one per seed and per CPU."""
    _check_workers(workers)
    trial = functools.partial(_trial_cost, circuit,
                              config or bench_config(circuit.n_qubits), verify)
    seeds = list(seeds)
    workers = min(workers, len(seeds), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(trial, seeds,
                            chunksize=max(1, len(seeds) // (4 * workers)))
    return list(map(trial, seeds))


def run_sweep(suite: str, n_list, method_list=ORDERING_METHODS,
              trials: int = 1, seed: int = 0, n_gates: int = 1000,
              config=bench_config, workers: int = 1) -> list[CompileRecord]:
    """Compile each suite circuit under each ordering method, each size on
    the trap that ``config`` maps its qubit count to.

    Before the first suite circuit is built, the sweep builds every size's
    trap, then checks every register's capacity, then ``trials`` and
    ``workers``, then every method name, so a fault fails at once.
    Deterministic methods run once; the randomized one runs ``trials``
    times with seeds derived from the master seed by counter.  Every compile
    is verified.  Records come per size, then per method, then per trial,
    so each method's pass starts at trial 0.  Trials are independent (each
    compile owns its trap), so ``workers`` > 1 fans them out over
    processes; records stay in trial order, identical to a serial run.
    """
    traps = [(n, config(n)) for n in n_list]
    for n, cfg in traps:
        check_register(n, cfg)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_workers(workers)
    for method in method_list:
        check_method(method)
    records = []
    for n, cfg in traps:
        circuit = _suite_circuit(suite, n, n_gates, seed)
        n2q = len(circuit.two_qubit_gates())
        for method in method_list:
            seeds = [seed + t for t in range(trials)] if method == "oir" else [None]
            costs = (oir_costs(circuit, seeds, cfg, workers=workers) if method == "oir"
                     else [compile_ordering(circuit, make_ordering(circuit, method),
                                            cfg, verify=True).cost])
            records += [CompileRecord(suite, n, method, trial, trial_seed, c,
                                      n2q, circuit_fit(c, n2q))
                        for trial, (trial_seed, c) in enumerate(zip(seeds, costs))]
    return records


# -- exhaustive placement oracle ----------------------------------------------


def _reversal_classes(n: int):
    """One flat permutation of ions 1..n per reversal class, the smaller of
    the two, in lexicographic order."""
    return (perm for perm in itertools.permutations(range(1, n + 1))
            if perm <= perm[::-1])


def _oracle_flats(n: int):
    """The flat permutations the oracle ranks, in its order: each reversal
    class's, followed for an odd register by its reverse, whose lone ion
    sits at the other end."""
    classes = _reversal_classes(n)
    if n % 2:
        return itertools.chain.from_iterable((perm, perm[::-1]) for perm in classes)
    return classes


def _compiled_as_read(circuit: Circuit, cfg: TrapConfig, flats):
    """Yield each flat permutation after a verified compile of its paired
    layout."""
    for flat in flats:
        compile_ordering(circuit, Ordering(paired(flat)), cfg, verify=True)
        yield flat


def enumerate_orderings(n: int):
    """One representative per reversal class (n!/2 classes for n >= 2), in
    lexicographic order of the flat permutation, paired left to right."""
    for perm in _reversal_classes(n):
        yield Ordering(paired(perm))


def brute_force_best_ordering(circuit: Circuit,
                              config: TrapConfig | None = None,
                              verify: bool = False) -> tuple[Ordering, int]:
    """Rank every reversal class by its planned cost and return the
    cheapest layout.

    Mirroring a layout end to end (groups and intra-group order reversed)
    never changes the cost, so classes pair each permutation with its
    reverse.  For an odd register the two members pair up into layouts with
    the lone ion paired differently, which do differ in cost, so both
    representatives are ranked; for an even register the second member's
    layout is exactly the mirror and one suffices.  Ties keep the first hit
    in enumeration order.

    The register must fit the trap (``config``, or ``bench_config(n)`` as
    ``compile_ordering`` uses when it is None): every layout has
    (n + 1) // 2 crystals, so a trap too small raises ``CapacityExceeded``
    before any layout is built.

    The permutations are generated valid, so they stream unchecked into
    ``scheduler.rank_flat`` (crystal sizes ``(2, ..., 2)``, with a trailing
    1 for an odd register), and no list of them or of their layouts is
    held.  The ranking merges permutations that the planner brings to the
    same chain, keeping the cheaper or, at equal cost, the earlier, so the
    winner is the one a layout-by-layout ``plan_cost`` scan picks.  Its
    permutation is then enumerated again up to its index.

    Only the winner becomes an ``Ordering`` and is lowered (placed, which
    checks its layout, and scheduled on the trap, which checks every gate's
    cost against the plan), so a ``TrapOverflow`` on the winner still ends
    the search, but a layout that would overflow and does not win does not.
    On the traps checked (12/6, 16/8, 16/12, 20/10, 32/19 and 10/3
    segments/LIZ) overflow was all-or-none across the layouts of a circuit.
    With ``verify`` every layout is also compiled with ``verify=True`` as
    it is enumerated, before the ranking reads it.
    """
    n = circuit.n_qubits
    if n > ORACLE_MAX_QUBITS:
        raise ValueError(
            f"exhaustive search capped at {ORACLE_MAX_QUBITS} qubits")
    cfg = config or bench_config(n)
    check_register(n, cfg)
    flats = _oracle_flats(n)
    if verify:
        flats = _compiled_as_read(circuit, cfg, flats)
    i, cost = rank_flat(circuit, (2,) * (n // 2) + (1,) * (n % 2), flats)
    winner = Ordering(paired(next(itertools.islice(_oracle_flats(n), i, None))))
    compile_ordering(circuit, winner, cfg)
    return winner, cost
