"""Benchmark generators, sweeps, circuit fit and the exhaustive oracle."""
import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ionshuttle import benchmarks, commands
from ionshuttle.benchmarks import (bench_config, brute_force_best_ordering,
                                   circuit_fit, compile_ordering,
                                   enumerate_orderings, gen_qft,
                                   gen_random_circuit, gen_toffoli,
                                   make_ordering, oir_costs, run_sweep,
                                   theoretical_limit, to_csv)
from ionshuttle.cli import main
from ionshuttle.commands import ReplayError
from ionshuttle.ordering import (order_as_is, order_inputs_randomly, paired,
                                 reverse_ordering)
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import plan_cost
from ionshuttle.trap import CapacityExceeded, TrapConfig, TrapOverflow


class TestRandomCircuits:
    def test_two_qubits_only_one_pair(self):
        circ = gen_random_circuit(2, 5, seed=0)
        assert all(set(g.operands) == {0, 1} for g in circ.gates)

    def test_one_qubit_rejected(self):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            gen_random_circuit(1, 5, seed=0)

    def test_negative_gate_count_rejected(self):
        with pytest.raises(ValueError, match="^random circuits need a gate count "
                                             "of at least 0, got -1$"):
            gen_random_circuit(4, -1, seed=0)
        assert gen_random_circuit(4, 0, seed=0).gates == ()

    def test_deterministic_per_seed(self):
        a = gen_random_circuit(7, 50, seed=3)
        b = gen_random_circuit(7, 50, seed=3)
        assert a == b
        assert a != gen_random_circuit(7, 50, seed=4)

    def test_uniform_pair_frequencies(self):
        # 1e5 gates over the 45 unordered pairs of ten qubits: every pair
        # within 5 sigma of uniform, chi-square within 5 sigma of df=44
        circ = gen_random_circuit(10, 100_000, seed=1)
        counts = Counter(tuple(sorted(g.operands)) for g in circ.gates)
        assert len(counts) == 45
        expected = 100_000 / 45
        sigma = math.sqrt(100_000 * (1 / 45) * (44 / 45))
        for count in counts.values():
            assert abs(count - expected) <= 5 * sigma
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 44 + 5 * math.sqrt(2 * 44)


class TestQftCircuits:
    def test_three_qubit_block_order(self):
        circ = gen_qft(3)
        assert [g.operands for g in circ.gates] == [(0, 1), (0, 2), (1, 2)]

    def test_minimal(self):
        assert [g.operands for g in gen_qft(2).gates] == [(0, 1)]

    def test_gate_count(self):
        assert len(gen_qft(8).gates) == 28

    def test_one_qubit_rejected(self):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            gen_qft(1)


class TestToffoliCircuits:
    def test_ladder_structure_before_expansion(self):
        # N=10: 5 controls, 4 ancillas, 1 target; 9 ladder steps expand to
        # 8 doubly-controlled steps (13 gates each) plus the middle cx
        circ = gen_toffoli(10)
        assert circ.n_qubits == 10
        assert len(circ.gates) == 8 * 13 + 1
        assert ("cx", (8, 9)) in [(g.kind, g.operands) for g in circ.gates]

    def test_minimal_instance(self):
        circ = gen_toffoli(4)
        assert len(circ.gates) == 2 * 13 + 1
        mid = circ.gates[13]
        assert (mid.kind, mid.operands) == ("cx", (2, 3))

    def test_uncompute_mirrors_compute(self):
        # the ladder mirrors step-by-step: first and last expanded blocks
        # act on the same qubits with the same pattern
        circ = gen_toffoli(8)
        first = [(g.kind, g.operands) for g in circ.gates[:13]]
        last = [(g.kind, g.operands) for g in circ.gates[-13:]]
        assert first == last
        mid = circ.gates[len(circ.gates) // 2]
        assert (mid.kind, mid.operands) == ("cx", (6, 7))

    def test_odd_shape_rejected(self):
        with pytest.raises(ValueError, match="5 qubits do not split into c controls"):
            gen_toffoli(5)
        with pytest.raises(ValueError, match="3 qubits do not split into c controls"):
            gen_toffoli(3)


class TestFit:
    def test_ratio(self):
        assert circuit_fit(12, 4) == 3.0

    def test_limit_for_pairs(self):
        assert theoretical_limit(2) == 3.0

    def test_limit_for_larger_crystals(self):
        assert theoretical_limit(6) == 1.0

    def test_empty_circuit_division(self):
        with pytest.raises(ValueError, match="two-qubit gate"):
            circuit_fit(5, 0)

    def test_invalid_crystal_size(self):
        with pytest.raises(ValueError):
            theoretical_limit(0)

    def test_qft_fit_report(self):
        circuit = gen_qft(8)
        cost = compile_ordering(circuit, order_as_is(circuit), verify=True).cost
        n2q = len(circuit.two_qubit_gates())
        assert circuit.n_qubits == 8
        assert n2q == 28
        assert cost == circuit_fit(cost, n2q) * 28
        assert theoretical_limit(2) == 3.0


def bench_rows(capsys, argv):
    """The (min, mean, max) cost of each printed ``bench`` row."""
    assert main(["bench"] + argv) == 0
    rows = [dict(f.split("=") for f in line.split()[3:])
            for line in capsys.readouterr().out.splitlines()]
    return [(int(r["min"]), float(r["mean"]), int(r["max"])) for r in rows]


class TestSweep:
    def test_single_trial_degenerate_stats(self, capsys):
        [(lo, mean, hi)] = bench_rows(capsys, [
            "--suite", "random", "--qubits", "6", "--methods", "oir",
            "--trials", "1", "--seed", "0", "--gates", "30"])
        assert lo == mean == hi

    def test_stats_ordering(self, capsys):
        rows = bench_rows(capsys, [
            "--suite", "random", "--qubits", "6", "--methods", "oai,oir,ipo",
            "--trials", "5", "--seed", "0", "--gates", "40"])
        assert len(rows) == 3
        for lo, mean, hi in rows:
            assert lo <= mean <= hi

    def test_csv_shape(self):
        records = run_sweep("qft", [4, 6], method_list=("oai", "oir"),
                            trials=2, seed=1, n_gates=0)
        lines = to_csv(records).splitlines()
        assert lines[0] == "suite,n,method,trial,seed,cost,gates,fit"
        assert len(lines) == 1 + 2 * (1 + 2)
        assert lines[1].startswith("qft,4,oai,0,,")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'ghz'"):
            run_sweep("ghz", [4])

    def test_fixed_seed_reproducible(self):
        a = run_sweep("random", [6], trials=3, seed=9, n_gates=25)
        b = run_sweep("random", [6], trials=3, seed=9, n_gates=25)
        assert len(a) == 1 + 3 + 1
        assert a == b
        assert to_csv(a) == to_csv(b)

    @pytest.fixture
    def serial_pools(self, monkeypatch) -> list[int]:
        """Make ``oir_costs``' pools map in this process; the list their
        sizes are appended to."""
        import multiprocessing
        sizes = []

        class SerialPool:
            """Records its size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return list(map(fn, items))

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=SerialPool))
        return sizes

    def test_pool_never_larger_than_seed_count(self, monkeypatch, serial_pools):
        monkeypatch.setattr(benchmarks.os, "cpu_count", lambda: 64)
        circuit = gen_random_circuit(6, 20, 0)
        assert oir_costs(circuit, [1, 2], workers=64) == oir_costs(circuit, [1, 2])
        assert serial_pools == [2]
        oir_costs(circuit, [3], workers=64)  # one seed runs without a pool
        assert serial_pools == [2]

    @pytest.mark.parametrize("cpus,pools", [(3, [3]), (1, []), (None, [])])
    def test_pool_never_larger_than_cpu_count(self, monkeypatch, serial_pools, cpus, pools):
        # a huge --workers asks for no more processes than the CPUs; an
        # unknown CPU count counts as one, which runs without a pool
        monkeypatch.setattr(benchmarks.os, "cpu_count", lambda: cpus)
        circuit = gen_random_circuit(6, 20, 0)
        seeds = list(range(10))
        assert oir_costs(circuit, seeds, workers=5000) == oir_costs(circuit, seeds)
        assert serial_pools == pools

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_refused(self, monkeypatch, serial_pools, workers):
        # refused, not run serially, and before any compile or pool
        monkeypatch.setattr(benchmarks, "compile_ordering", None)
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            oir_costs(gen_random_circuit(6, 20, 0), [1, 2], workers=workers)
        assert serial_pools == []

    def test_bench_config_scales(self):
        assert bench_config(8) == bench_config(4)
        big = bench_config(20)
        assert big.n_segments >= 40 and 1 <= big.liz <= big.n_segments


class TestOracle:
    def test_enumeration_counts_reversal_classes(self):
        for n in (2, 3, 4, 5):
            assert (sum(1 for _ in enumerate_orderings(n))
                    == math.factorial(n) // 2)

    def test_single_pair_circuit_costs_zero(self):
        circ = gen_random_circuit(2, 1, seed=0)
        ordering, best = brute_force_best_ordering(circ)
        assert best == 0
        assert ordering.crystal_list == ((1, 2),)

    def test_reversal_pairs_cost_the_same(self):
        circ = gen_random_circuit(4, 12, seed=5)
        for ordering in enumerate_orderings(4):
            assert (compile_ordering(circ, ordering).cost
                    == compile_ordering(circ, reverse_ordering(ordering)).cost)

    def test_heuristics_never_beat_oracle(self):
        for seed in (0, 1):
            circ = gen_random_circuit(4, 10, seed=seed)
            _, best = brute_force_best_ordering(circ)
            for method in ("oai", "ipo"):
                assert compile_ordering(
                    circ, make_ordering(circ, method)).cost >= best
            assert compile_ordering(
                circ, make_ordering(circ, "oir", 3)).cost >= best

    def test_size_guard(self):
        circ = gen_random_circuit(9, 5, seed=0)
        with pytest.raises(ValueError, match="exhaustive search capped at 8 qubits"):
            brute_force_best_ordering(circ)

    def test_tie_break_is_lexicographic(self):
        circ = build_circuit(3, [])  # every layout costs zero
        ordering, best = brute_force_best_ordering(circ)
        assert best == 0
        assert ordering.ions() == (1, 2, 3)


# The oracle's (layout, cost) for each circuit, as the exhaustive search that
# scheduled every layout found them.
ORACLE_PINS = [
    ("random2", lambda: gen_random_circuit(2, 12, 102), ((1, 2),), 0),
    ("random3", lambda: gen_random_circuit(3, 12, 103), ((3, 2), (1,)), 28),
    ("random4", lambda: gen_random_circuit(4, 12, 104), ((1, 3), (2, 4)), 36),
    ("random5", lambda: gen_random_circuit(5, 12, 105), ((3, 5), (1, 2), (4,)), 34),
    ("random6", lambda: gen_random_circuit(6, 12, 106), ((2, 3), (1, 5), (4, 6)), 48),
    ("random7", lambda: gen_random_circuit(7, 12, 107),
     ((1, 6), (2, 5), (3, 7), (4,)), 48),
    ("random8", lambda: gen_random_circuit(8, 12, 108),
     ((1, 5), (3, 4), (2, 6), (7, 8)), 60),
    ("qft6", lambda: gen_qft(6), ((1, 2), (3, 4), (5, 6)), 36),
    ("toffoli6", lambda: gen_toffoli(6), ((1, 4), (2, 6), (3, 5)), 84),
]


@pytest.mark.parametrize("make_circuit,layout,cost",
                         [case[1:] for case in ORACLE_PINS],
                         ids=[case[0] for case in ORACLE_PINS])
def test_oracle_pinned_results(make_circuit, layout, cost):
    ordering, best = brute_force_best_ordering(make_circuit())
    assert (ordering.crystal_list, best) == (layout, cost)


def corpus_circuit(rng, n):
    """Up to 16 gates on ``n`` qubits, about one in four a one-qubit gate."""
    specs = []
    for _ in range(rng.randint(0, 16)):
        if rng.random() < 0.25:
            specs.append(("h", (rng.randrange(n),), ()))
        else:
            specs.append(("cz", tuple(rng.sample(range(n), 2)), ()))
    return build_circuit(n, specs)


def test_oracle_corpus_pin():
    # 20 circuits at each n = 2..7 from one seed; the sha256 pins the list
    # of (crystal_list, cost) pairs that the oracle returned for them when
    # it ranked every layout through its own chain, so a faster ranking must
    # pick the same layouts.  The first two circuits at n <= 4 also compile
    # every layout verified.
    rng = random.Random(2020)
    results = []
    for n in range(2, 8):
        for k in range(20):
            ordering, best = brute_force_best_ordering(
                corpus_circuit(rng, n), verify=n <= 4 and k < 2)
            results.append((ordering.crystal_list, best))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "f3090814068c9b098109ad8614592a03595a3ce8830859c527f922cc210bc036")


def scanned_oracle(circuit):
    """The oracle's answer by a plain ``plan_cost`` scan: every reversal
    class's permutation in lexicographic order, each followed for an odd
    register by its reverse, paired left to right; the first cheapest wins.
    Also the layouts, in that order."""
    n = circuit.n_qubits
    layouts = []
    for perm in itertools.permutations(range(1, n + 1)):
        if perm <= perm[::-1]:
            layouts.append(paired(perm))
            if n % 2:
                layouts.append(paired(perm[::-1]))
    cost, i = min((plan_cost(circuit, layout), i) for i, layout in enumerate(layouts))
    return (layouts[i], cost), layouts


ONE_QUBIT_GATES = [("h", (q,), ()) for q in (4, 0, 2)]


@pytest.mark.parametrize("circuit", [
    *(corpus_circuit(random.Random(2300 + n), n) for n in range(2, 8)),
    *(gen_random_circuit(n, 14, 2310 + n) for n in (3, 5, 7)),
    build_circuit(5, []),
    build_circuit(5, ONE_QUBIT_GATES),
    build_circuit(5, ONE_QUBIT_GATES + [("cz", (4, 0), ())]),
], ids=[*(f"corpus{n}" for n in range(2, 8)), "random3", "random5", "random7",
        "gateless5", "one_qubit5", "one_qubit_then_cz5"])
def test_oracle_matches_a_plan_cost_scan(circuit):
    ordering, best = brute_force_best_ordering(circuit)
    assert (ordering.crystal_list, best) == scanned_oracle(circuit)[0]


@pytest.mark.parametrize("circuit", [gen_random_circuit(3, 10, 2321),
                                     gen_random_circuit(4, 10, 2322),
                                     build_circuit(3, [])],
                         ids=["random3", "random4", "gateless3"])
def test_verified_oracle_compiles_every_layout(monkeypatch, circuit):
    # under verify every layout is compiled verified, in enumeration order,
    # and then the winner once more, unverified
    compiled = []

    def compile_and_log(circuit, ordering, config=None, verify=False):
        compiled.append((ordering.crystal_list, verify))
        return compile_ordering(circuit, ordering, config, verify)

    monkeypatch.setattr(benchmarks, "compile_ordering", compile_and_log)
    ordering, best = brute_force_best_ordering(circuit, verify=True)
    answer, layouts = scanned_oracle(circuit)
    assert (ordering.crystal_list, best) == answer
    assert compiled == [(layout, True) for layout in layouts] + [(answer[0], False)]


def test_oracle_holds_no_list_of_layouts():
    # the ranking reads the 20,160 permutations one at a time and keeps
    # only the chains they reach; holding them all as layouts, with their
    # flat tuples, peaks near 12 MB
    circuit = gen_random_circuit(8, 30, 5)
    tracemalloc.start()
    try:
        brute_force_best_ordering(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_oracle_overflow_on_small_trap():
    # every 6-qubit layout overflows a 12-segment trap, the winner included
    with pytest.raises(TrapOverflow):
        brute_force_best_ordering(gen_random_circuit(6, 20, 0),
                                  TrapConfig(n_segments=12, liz=6))


@pytest.mark.parametrize("given", [True, False], ids=["config", "bench_config"])
def test_oracle_checks_capacity_before_ranking(monkeypatch, given):
    # 8 qubits make 4 crystals, which need 7 segments at stride 2; without
    # a config the oracle must check the trap that compile_ordering uses
    small = TrapConfig(n_segments=6, liz=3)

    def rank(*args):
        raise AssertionError("ranked layouts before checking the trap")

    monkeypatch.setattr(benchmarks, "rank_flat", rank)
    monkeypatch.setattr(benchmarks, "bench_config", lambda n: small)
    with pytest.raises(CapacityExceeded,
                       match="^4 crystals at stride 2 exceed 6 segments$"):
        brute_force_best_ordering(gen_random_circuit(8, 30, 5),
                                  small if given else None)


def test_run_sweep_checks_every_method_before_the_first_compile(monkeypatch):
    monkeypatch.setattr(benchmarks, "_suite_circuit", None)
    with pytest.raises(ValueError, match="^unknown ordering method 'xyz'$"):
        run_sweep("random", [4, 6], method_list=("oai", "xyz"))


def test_run_sweep_checks_workers_before_the_first_compile(monkeypatch):
    monkeypatch.setattr(benchmarks, "_suite_circuit", None)
    with pytest.raises(ValueError, match="^workers must be at least 1, got -3$"):
        run_sweep("random", [4, 6], trials=2, workers=-3)
    # checked right after trials and before the method names
    with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
        run_sweep("random", [4], trials=0, workers=0)
    with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
        run_sweep("random", [4], method_list=("xyz",), workers=0)


def test_run_sweep_checks_every_trap_before_the_first_compile(monkeypatch):
    # the first sizes fit the rule's trap and the last does not: no circuit
    # may be built, let alone compiled
    calls = []
    monkeypatch.setattr(benchmarks, "_suite_circuit",
                        lambda *args: calls.append(args) or None)
    with pytest.raises(CapacityExceeded,
                       match="^20 crystals at stride 2 exceed 32 segments$"):
        run_sweep("random", [8, 12, 40], trials=20, config=lambda n: TrapConfig())
    assert calls == []


def test_make_ordering_rejects_unknown_method_and_unseeded_oir():
    circuit = gen_qft(4)
    with pytest.raises(ValueError, match="unknown ordering method 'xyz'"):
        make_ordering(circuit, "xyz")
    with pytest.raises(ValueError, match="oir needs a seed"):
        make_ordering(circuit, "oir")


class TestVerifiedCompile:
    """``compile_ordering(verify=True)`` refuses a schedule that its replay
    does not confirm; the scheduler is wrapped to produce one."""

    # the last gate leaves the one-ion crystal (3,) in the LIZ, so a split
    # appended after it is illegal
    CIRCUIT = build_circuit(3, [("h", (2,), ())])

    def wrap_schedule(self, monkeypatch, change):
        real = benchmarks.schedule
        monkeypatch.setattr(benchmarks, "schedule",
                            lambda circuit, state: change(real(circuit, state)))

    def test_replay_violation_raises(self, monkeypatch):
        def illegal_split(result):
            result.sequence.raw.append(("S", ()))
            return result

        self.wrap_schedule(monkeypatch, illegal_split)
        with pytest.raises(RuntimeError, match="replay violations.*split needs "
                           "a 2-ion crystal"):
            compile_ordering(self.CIRCUIT, order_as_is(self.CIRCUIT), verify=True)

    def test_replay_cost_disagreement_raises(self, monkeypatch):
        self.wrap_schedule(monkeypatch,
                           lambda result: replace(result, cost=result.cost + 2))
        with pytest.raises(RuntimeError, match="replay cost disagrees"):
            compile_ordering(self.CIRCUIT, order_as_is(self.CIRCUIT), verify=True)

    # the step verifier's verdict is final, for a violation and for counts

    def test_a_verifier_violation_is_final(self, monkeypatch):
        def rejected(sequence, steps, config):
            raise ReplayError(7, "stub")

        monkeypatch.setattr(benchmarks, "verify_steps", rejected)
        with pytest.raises(RuntimeError, match="^replay violations: command 7: stub$"):
            compile_ordering(self.CIRCUIT, order_as_is(self.CIRCUIT), verify=True)

    def test_verifier_counts_are_final(self, monkeypatch):
        real = benchmarks.verify_steps
        monkeypatch.setattr(benchmarks, "verify_steps", lambda *args: replace(
            report := real(*args), s_count=report.s_count + 1,
            m_count=report.m_count + 1))
        with pytest.raises(RuntimeError, match="replay cost disagrees"):
            compile_ordering(self.CIRCUIT, order_as_is(self.CIRCUIT), verify=True)

    def test_a_violation_names_the_first_failing_command(self, monkeypatch):
        appended = []

        def illegal_split(result):
            result.sequence.raw.append(("S", ()))
            appended.append(len(result.sequence.raw))
            return result

        self.wrap_schedule(monkeypatch, illegal_split)
        with pytest.raises(RuntimeError) as raised:
            compile_ordering(self.CIRCUIT, order_as_is(self.CIRCUIT), verify=True)
        assert str(raised.value) == (f"replay violations: command {appended[0]}: "
                                     "split needs a 2-ion crystal, got 1")

    def test_a_failing_compile_runs_fewer_than_half_the_commands(self, monkeypatch):
        circuit = gen_random_circuit(12, 1000, 5)
        sequences = []

        def illegal_split(result):
            # the program ends on a merge in the LIZ: the first split is
            # legal, and the second finds no crystal there
            result.sequence.raw += [("S", ()), ("S", ())]
            sequences.append(result.sequence)
            return result

        self.wrap_schedule(monkeypatch, illegal_split)
        applied = Counter()
        apply = commands.apply

        def counted(state, op, params):
            applied[op] += 1
            apply(state, op, params)

        monkeypatch.setattr(commands, "apply", counted)
        with pytest.raises(RuntimeError, match="^replay violations: command 224106: "
                           "no crystal in the LIZ to split$"):
            compile_ordering(circuit, order_inputs_randomly(circuit, 5),
                             bench_config(12), verify=True)
        assert len(sequences[0]) == 224_106
        assert 0 < applied.total() < len(sequences[0]) // 2, applied
