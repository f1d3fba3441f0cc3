"""Benchmark generators, sweeps, circuit fit and the exhaustive oracle."""
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ionshuttle import benchmarks
from ionshuttle.benchmarks import (bench_config, brute_force_best_ordering,
                                   circuit_fit, compile_ordering,
                                   enumerate_orderings, gen_qft,
                                   gen_random_circuit, gen_toffoli,
                                   make_ordering, oir_costs, run_sweep,
                                   theoretical_limit, to_csv)
from ionshuttle.cli import main
from ionshuttle.ordering import order_as_is, reverse_ordering
from ionshuttle.qasm import build_circuit
from ionshuttle.trap import TrapConfig, TrapOverflow


class TestRandomCircuits:
    def test_two_qubits_only_one_pair(self):
        circ = gen_random_circuit(2, 5, seed=0)
        assert all(set(g.operands) == {0, 1} for g in circ.gates)

    def test_one_qubit_rejected(self):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            gen_random_circuit(1, 5, seed=0)

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

    def test_pool_never_larger_than_seed_count(self, monkeypatch):
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
        circuit = gen_random_circuit(6, 20, 0)
        assert oir_costs(circuit, [1, 2], workers=64) == oir_costs(circuit, [1, 2])
        assert sizes == [2]
        oir_costs(circuit, [3], workers=64)  # one seed runs without a pool
        assert sizes == [2]

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
    ("qft6", lambda: gen_qft(6), ((1, 2), (3, 4), (5, 6)), 36),
    ("toffoli6", lambda: gen_toffoli(6), ((1, 4), (2, 6), (3, 5)), 84),
]


@pytest.mark.parametrize("make_circuit,layout,cost",
                         [case[1:] for case in ORACLE_PINS],
                         ids=[case[0] for case in ORACLE_PINS])
def test_oracle_pinned_results(make_circuit, layout, cost):
    ordering, best = brute_force_best_ordering(make_circuit())
    assert (ordering.crystal_list, best) == (layout, cost)


def test_oracle_overflow_on_small_trap():
    # every 6-qubit layout overflows a 12-segment trap, the winner included
    with pytest.raises(TrapOverflow):
        brute_force_best_ordering(gen_random_circuit(6, 20, 0),
                                  TrapConfig(n_segments=12, liz=6))


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
