"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7 (replay soundness) audits every sequence produced by criteria
1-6, so run the whole module: ``pytest -s tests/test_acceptance.py``.
Compiles are funneled through ``checked_compile``/verified sweeps, which
replay each emitted sequence on a fresh trap and require zero violations
and agreement between scheduler cost and replayed split+merge count.
"""
import math
import statistics
import time
from pathlib import Path

import pytest

from ionshuttle.benchmarks import (bench_config, brute_force_best_ordering,
                                   compile_ordering, enumerate_orderings,
                                   gen_qft, gen_random_circuit, gen_toffoli,
                                   make_ordering, oir_costs, theoretical_limit)
from ionshuttle.commands import FormatError, cost, parse_sequence, replay, serialize
from ionshuttle.ordering import reverse_ordering
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import schedule
from ionshuttle.trap import TrapState

GOLDEN_DIR = Path(__file__).parent / "golden"
WORKERS = 2

# audited by criterion 7: every checked compile bumps these totals
AUDIT = {"sequences": 0, "violations": 0, "cost_mismatches": 0}


def checked_compile(circuit, ordering, config=None):
    """Compile, replay on a fresh trap, and record the audit outcome."""
    result = compile_ordering(circuit, ordering, config, verify=False)
    report = replay(result.sequence, config or bench_config(circuit.n_qubits))
    AUDIT["sequences"] += 1
    AUDIT["violations"] += len(report.violations)
    if report.s_count + report.m_count != result.cost:
        AUDIT["cost_mismatches"] += 1
    assert report.ok, f"replay violations: {report.violations[:3]}"
    assert report.s_count + report.m_count == result.cost
    return result


def audit_verified(n_sequences):
    """Record compiles that were replay-verified inside the benchmark layer
    (verify=True raises on any violation or cost mismatch)."""
    AUDIT["sequences"] += n_sequences


def test_criterion_1_exchange_cost_law():
    started = time.monotonic()
    circuit = build_circuit(4, [("cz", (0, 2), ())])
    state = TrapState()
    state.place_crystal([1, 2], 19)
    state.place_crystal([3, 4], 21)
    result = schedule(circuit, state)
    counts = result.sequence.opcode_counts()
    assert counts["S"] == 3
    assert counts["M"] == 3
    assert result.cost == 6
    report = replay(result.sequence)
    AUDIT["sequences"] += 1
    AUDIT["violations"] += len(report.violations)
    assert report.ok and report.s_count == 3 and report.m_count == 3
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: adjacent-pair exchange emits exactly 3 S + 3 M "
          f"({elapsed:.2f}s)")


def test_criterion_2_qft_circuit_fit():
    started = time.monotonic()
    fits = {}
    for n in (8, 12, 16, 20, 24):
        circuit = gen_qft(n)
        result = checked_compile(circuit, make_ordering(circuit, "oai"))
        fits[n] = result.cost / len(circuit.gates)
        target = 3 * (n - 2) / n
        assert abs(fits[n] - target) <= 0.45, (n, fits[n], target)
    values = [fits[n] for n in sorted(fits)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] < theoretical_limit(2)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print("ACCEPTANCE 2 PASS: QFT fit "
          + " ".join(f"C({n})={fits[n]:.3f}" for n in sorted(fits))
          + f" within 0.45 of 3(n-2)/n, nondecreasing ({elapsed:.1f}s)")


def test_criterion_3_theoretical_limit():
    assert theoretical_limit(2) == 3
    print("ACCEPTANCE 3 PASS: theoretical_limit(2) == 3 exactly")


def test_criterion_4_oracle_and_reversal():
    started = time.monotonic()
    cases = [(3, s) for s in range(7)] + [(4, 10 + s) for s in range(7)] \
        + [(5, 20 + s) for s in range(6)]
    assert len(cases) == 20
    for n, seed in cases:
        circuit = gen_random_circuit(n, 20, seed=seed)
        config = bench_config(n)
        classes = 0
        for ordering in enumerate_orderings(n):
            c = checked_compile(circuit, ordering, config).cost
            c_rev = checked_compile(circuit, reverse_ordering(ordering), config).cost
            assert c == c_rev, (n, seed, ordering.crystal_list)
            classes += 1
        assert classes == math.factorial(n) // 2
        _, oracle_cost = brute_force_best_ordering(circuit, config, verify=True)
        audit_verified(classes if n % 2 == 0 else 2 * classes)
        for method in ("oai", "ipo"):
            assert checked_compile(
                circuit, make_ordering(circuit, method), config).cost >= oracle_cost
        assert checked_compile(
            circuit, make_ordering(circuit, "oir", seed), config).cost >= oracle_cost
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 PASS: 20 circuits, all n!/2 classes enumerated, "
          f"heuristics >= oracle, reversal costs equal ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_5_random_circuit_trend():
    started = time.monotonic()
    oir_beats_ipo = 0
    summary = []
    for c in range(1, 6):
        circuit = gen_random_circuit(12, 1000, seed=c)
        config = bench_config(12)
        ipo_cost = compile_ordering(circuit, make_ordering(circuit, "ipo"),
                                    config, verify=True).cost
        trial_costs = oir_costs(circuit, [1000 * c + t for t in range(200)],
                                config, verify=True, workers=WORKERS)
        audit_verified(201)
        lo, mid, hi = min(trial_costs), statistics.fmean(trial_costs), max(trial_costs)
        assert lo <= mid <= hi
        if lo <= ipo_cost:
            oir_beats_ipo += 1
        summary.append(f"c{c}: oir-min={lo} ipo={ipo_cost}")
    assert oir_beats_ipo >= 4, summary
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 PASS: {'; '.join(summary)}; OIR-min <= IPO on "
          f"{oir_beats_ipo}/5 circuits ({elapsed:.1f}s)")


def test_criterion_6_toffoli_trend():
    started = time.monotonic()
    summary = []
    for n in (10, 16):
        circuit = gen_toffoli(n)
        config = bench_config(n)
        ipo_cost = compile_ordering(circuit, make_ordering(circuit, "ipo"),
                                    config, verify=True).cost
        oai_cost = compile_ordering(circuit, make_ordering(circuit, "oai"),
                                    config, verify=True).cost
        trial_costs = oir_costs(circuit, [7000 + t for t in range(100)],
                                config, verify=True, workers=WORKERS)
        audit_verified(102)
        mean_oir = statistics.fmean(trial_costs)
        assert ipo_cost <= mean_oir, (n, ipo_cost, mean_oir)
        assert ipo_cost <= 1.15 * oai_cost, (n, ipo_cost, oai_cost)
        summary.append(f"N={n}: ipo={ipo_cost} oai={oai_cost} oir-mean={mean_oir:.0f}")
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6 PASS: {'; '.join(summary)} ({elapsed:.1f}s)")


def test_criterion_7_replay_soundness():
    assert AUDIT["sequences"] > 0, "run the full acceptance module"
    assert AUDIT["violations"] == 0
    assert AUDIT["cost_mismatches"] == 0
    print(f"ACCEPTANCE 7 PASS: {AUDIT['sequences']} sequences replayed with "
          f"zero violations; costs match replay S+M counts")


def test_criterion_8_determinism():
    outputs = []
    for _ in range(2):
        circuit = gen_random_circuit(10, 300, seed=17)
        result = compile_ordering(circuit, make_ordering(circuit, "oir", 55),
                                  bench_config(10))
        outputs.append(serialize(result.sequence).encode())
    assert outputs[0] == outputs[1]
    qft = gen_qft(8)
    texts = {serialize(compile_ordering(qft, make_ordering(qft, "ipo")).sequence)
             for _ in range(2)}
    assert len(texts) == 1
    print("ACCEPTANCE 8 PASS: repeated compiles are byte-identical")


def test_criterion_9_format_round_trip():
    goldens = sorted(GOLDEN_DIR.glob("*.seq"))
    assert goldens, "golden sequences missing"
    for path in goldens:
        text = path.read_text()
        sequence = parse_sequence(text)
        assert serialize(sequence) == text, path.name
        report = replay(sequence)
        assert report.ok
        assert cost(sequence) == report.s_count + report.m_count

        lines = text.splitlines()
        # corrupt a mid-file line: arity mismatch must name that exact line
        target = len(lines) // 2
        corrupt = list(lines)
        corrupt[target] = corrupt[target] + " 99"
        with pytest.raises(FormatError) as err:
            parse_sequence("\n".join(corrupt))
        assert err.value.line == target + 1
        # break the sequence numbering instead
        corrupt = list(lines)
        seq_no, rest = corrupt[target].split(" ", 1)
        corrupt[target] = f"{int(seq_no) + 7} {rest}"
        with pytest.raises(FormatError) as err:
            parse_sequence("\n".join(corrupt))
        assert err.value.line == target + 1
    print(f"ACCEPTANCE 9 PASS: {len(goldens)} golden files round-trip; "
          f"corruption reports exact line numbers")
