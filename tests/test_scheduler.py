"""Scheduler: transport, ion exchange and the gate loop."""
import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ionshuttle.commands
import ionshuttle.scheduler
from ionshuttle.benchmarks import (bench_config, brute_force_best_ordering,
                                   compile_ordering, gen_qft, gen_random_circuit)
from ionshuttle.commands import (CommandSequence, ReplayError, replay, serialize,
                                 verify_steps)
from ionshuttle.ordering import (Ordering, increase_pairwise_order, order_as_is,
                                 order_inputs_randomly, paired, place_in_the_model)
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import _Lowering, _planned, crystal_chain, schedule
from ionshuttle.trap import TrapConfig, TrapOverflow, TrapState


def ops_of(commands, kinds):
    return [op for op, _ in commands if op in kinds]


def ion_sets(state):
    return sorted(tuple(sorted(ions)) for ions in state.seg_crystal.values())


def lowered(n_qubits, gate, crystals, config=None):
    """Schedule one gate on a hand-placed trap; return the program's
    commands and the trap its replay ends in."""
    state = TrapState(config)
    for ions, segment in crystals:
        state.place_crystal(ions, segment)
    result = schedule(build_circuit(n_qubits, [gate]), state)
    return result.sequence.raw, replay(result.sequence).final_state


def moves_of(commands):
    return [cmd for cmd in commands if cmd[0] in ("SMU", "SMD")]


class TestSendToSegment:
    """Transport of a crystal to a segment, run through schedule."""

    def test_clear_path_step_count(self):
        commands, final = lowered(1, ("h", (0,), ()), [([1], 10)])
        assert moves_of(commands) == [("SMD", (1, s)) for s in range(10, 19)]
        assert final.seg_crystal[19] == [1]

    def test_blocker_pushed_one_spacing_beyond_target(self):
        commands, final = lowered(2, ("h", (0,), ()), [([1], 17), ([2], 19)])
        assert moves_of(commands) == [("SMD", (1, 19)), ("SMD", (1, 20)),
                                      ("SMD", (1, 17)), ("SMD", (1, 18))]
        assert final.seg_crystal[19] == [1]
        assert final.seg_crystal[21] == [2]

    def test_send_upward_mirrors(self):
        commands, final = lowered(2, ("h", (0,), ()), [([2], 19), ([1], 21)])
        assert moves_of(commands) == [("SMU", (1, 19)), ("SMU", (1, 18)),
                                      ("SMU", (1, 21)), ("SMU", (1, 20))]
        assert final.seg_crystal[19] == [1]
        assert final.seg_crystal[17] == [2]

    def test_push_chain_overflow(self):
        with pytest.raises(TrapOverflow, match="push chain from segment 32 "
                           "leaves the trap"):
            lowered(3, ("h", (0,), ()), [([1], 28), ([2], 30), ([3], 32)],
                    TrapConfig(n_segments=32, liz=30))

    def test_split_side_overflow(self):
        # splitting [2, 1] at the LIZ must clear [3] from segment 10 to 11
        with pytest.raises(TrapOverflow, match=r"^gate 0: push chain from segment 10 "
                           r"leaves the trap \(occupied segments 8-10 of 10\)$"):
            lowered(3, ("cz", (0, 2), ()), [([1, 2], 8), ([3], 10)],
                    TrapConfig(n_segments=10, liz=8))


class TestIonPermutation:
    """Ion exchange between adjacent crystals, run through schedule."""

    def test_full_exchange_costs_six(self):
        commands, final = lowered(4, ("cz", (0, 2), ()),
                                  [([1, 2], 19), ([3, 4], 21)])
        assert len(ops_of(commands, ("S",))) == 3
        assert len(ops_of(commands, ("M",))) == 3
        assert ion_sets(final) == [(1, 4), (2, 3)]
        # upper home keeps its old partner on top; traveler rests on top of
        # the lower home (normative trace order)
        assert crystal_chain(final) == [[2, 3], [1, 4]]

    def test_top_ion_triggers_orientation_rotation(self):
        commands, _ = lowered(4, ("cz", (0, 2), ()),
                              [([1, 2], 19), ([3, 4], 21)])
        # ion 1 was on top of [1,2] and ion 3 on top of [3,4]: one initial
        # orientation rotation plus the mid-exchange rotation
        assert ops_of(commands, ("RC",)) == ["RC", "RC"]

    def test_two_singletons(self):
        commands, final = lowered(2, ("cz", (0, 1), ()), [([1], 19), ([2], 21)])
        assert ops_of(commands, ("S", "M", "RC", "DG")) == ["M", "RC", "DG", "S"]
        assert crystal_chain(final) == [[2], [1]]

    def test_pair_above_singleton(self):
        commands, final = lowered(3, ("cz", (1, 2), ()), [([1, 2], 19), ([3], 21)])
        assert ops_of(commands, ("S", "M")) == ["S", "M", "S", "M"]
        assert crystal_chain(final) == [[1, 3], [2]]

    def test_exchange_fixes_all_other_ions(self):
        _, final = lowered(6, ("cz", (3, 4), ()),
                           [([1, 2], 17), ([3, 4], 19), ([5, 6], 21)])
        assert ion_sets(final) == [(1, 2), (3, 5), (4, 6)]
        assert crystal_chain(final)[0] == [1, 2]


class TestSchedule:
    def test_gate_on_liz_crystal_costs_nothing(self):
        circ = build_circuit(2, [("cz", (0, 1), ())])
        state = TrapState()
        state.place_crystal([1, 2], 19)
        result = schedule(circ, state)
        assert result.cost == 0
        assert result.per_gate_costs == [0]
        ops = [op for op, _ in result.sequence.raw]
        assert ops.count("DG") == 1
        assert not any(op in ("S", "M", "SMU", "SMD") for op in ops)

    def test_distant_crystal_travels_without_cost(self):
        circ = build_circuit(2, [("cz", (0, 1), ())])
        state = TrapState()
        state.place_crystal([1, 2], 10)
        result = schedule(circ, state)
        assert result.cost == 0
        moves = [cmd for cmd in result.sequence.raw if cmd[0] in ("SMU", "SMD")]
        assert moves == [("SMD", (1, s)) for s in range(10, 19)]
        assert [op for op, _ in result.sequence.raw].count("DG") == 1

    def test_adjacent_pair_exchange_costs_six(self):
        circ = build_circuit(4, [("cz", (0, 2), ())])
        state = TrapState()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3, 4], 21)
        result = schedule(circ, state)
        assert result.cost == 6
        assert ops_of(result.sequence.raw, ("S", "M", "DG")) == ["S", "S", "M", "DG", "S", "M", "M"]
        report = replay(result.sequence)
        assert report.ok and report.s_count == 3 and report.m_count == 3

    def test_one_qubit_gate(self):
        circ = build_circuit(3, [("h", (2,), ())])
        state = TrapState()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        result = schedule(circ, state)
        assert result.cost == 0
        assert replay(result.sequence).final_state.seg_crystal[19] == [3]

    def test_lower_operand_designated_traveler_when_above(self):
        # gate lists the lower crystal's ion first: designation must flip
        circ = build_circuit(4, [("cz", (2, 0), ())])
        state = TrapState()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3, 4], 21)
        result = schedule(circ, state)
        assert result.cost == 6
        assert ion_sets(replay(result.sequence).final_state) == [(1, 4), (2, 3)]

    def test_multi_hop_exchange(self):
        # operands two crystals apart: one ferry hop plus the gate exchange
        circ = build_circuit(6, [("cz", (0, 5), ())])
        state = TrapState()
        state.place_crystal([1, 2], 17)
        state.place_crystal([3, 4], 19)
        state.place_crystal([5, 6], 21)
        result = schedule(circ, state)
        assert result.cost == 12
        assert result.per_gate_costs == [12]
        # ferry hop displaces ion 3 into the top home, then the gated
        # exchange swaps ions 1 and 6 between the lower two crystals
        assert ion_sets(replay(result.sequence).final_state) == [(1, 5), (2, 3), (4, 6)]

    def test_gate_count_and_order(self):
        rng = random.Random(11)
        pairs = [tuple(rng.sample(range(6), 2)) for _ in range(25)]
        circ = build_circuit(6, [("cz", p, ()) for p in pairs])
        state = TrapState(TrapConfig(n_segments=48, liz=24))
        place_in_the_model(state, order_inputs_randomly(circ, 4), circ)
        result = schedule(circ, state)
        dgs = [params[0] for op, params in result.sequence.raw if op == "DG"]
        assert dgs == list(range(25))
        assert sum(result.per_gate_costs) == result.cost

    def test_overflow_names_gate_and_span(self):
        circ = build_circuit(6, [("cz", (0, 1), ()), ("cz", (0, 5), ())])
        state = TrapState(TrapConfig(n_segments=12, liz=6))
        place_in_the_model(state, order_as_is(circ), circ)
        with pytest.raises(TrapOverflow, match=r"^gate 1: .*occupied "
                           r"segments \d+-\d+ of 12\)$") as err:
            schedule(circ, state)
        assert isinstance(err.value.__cause__, TrapOverflow)

    def test_schedule_rejects_wrong_ion_set(self):
        circ = build_circuit(4, [("cz", (0, 1), ())])
        state = TrapState()
        state.place_crystal([1, 2], 19)
        with pytest.raises(ValueError):
            schedule(circ, state)

    def test_schedule_rejects_crystals_closer_than_spacing(self):
        circ = build_circuit(2, [("cz", (0, 1), ())])
        state = TrapState()
        state.place_crystal([1], 18)
        # poke a violation directly: placement never makes one
        state.place_crystal([2], 20)
        state.seg_crystal[19] = state.seg_crystal.pop(20)
        with pytest.raises(ValueError, match="violates crystal spacing"):
            schedule(circ, state)

    def test_determinism_byte_for_byte(self):
        rng = random.Random(5)
        pairs = [tuple(rng.sample(range(8), 2)) for _ in range(40)]
        circ = build_circuit(8, [("cz", p, ()) for p in pairs])
        texts = []
        for _ in range(2):
            state = TrapState(TrapConfig(n_segments=48, liz=24))
            place_in_the_model(state, order_inputs_randomly(circ, 9), circ)
            texts.append(serialize(schedule(circ, state).sequence))
        assert texts[0] == texts[1]

    def test_replay_soundness_random_circuits(self):
        rng = random.Random(2)
        for trial in range(6):
            n = rng.randrange(4, 10)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(30)]
            circ = build_circuit(n, [("cz", p, ()) for p in pairs])
            state = TrapState(TrapConfig(n_segments=64, liz=32))
            place_in_the_model(state, order_inputs_randomly(circ, trial), circ)
            result = schedule(circ, state)
            report = replay(result.sequence)
            assert report.ok
            assert report.s_count + report.m_count == result.cost
            assert report.final_state.check_spacing() == []


def test_lowering_never_runs_the_executor():
    # the lowering only emits commands, so replaying them checks it
    # independently; nothing in the scheduler may execute them itself
    executor = ionshuttle.commands
    held = list(vars(ionshuttle.scheduler).values())
    for runner in (executor, executor.apply, executor._execute):
        assert not any(value is runner for value in held)


def test_lowering_that_miscounts_a_gate_is_refused(monkeypatch):
    # every compile checks each gate's split+merge count against the plan,
    # so one merge too many fails on its gate, in a plain compile and in
    # the oracle, which lowers only its winner
    circ = build_circuit(4, [("h", (0,), ())] + [
        ("cz", pair, ()) for pair in itertools.combinations(range(4), 2)])
    winner, _ = brute_force_best_ordering(circ)
    costs = compile_ordering(circ, winner).per_gate_costs
    first = next(g for g, c in enumerate(costs) if c)
    meet = ionshuttle.scheduler._Lowering._meet

    def merge_once_too_often(self, a, b, d):
        merged = meet(self, a, b, d)
        if not hasattr(self, "miscounted"):  # the first merge of a compile
            self.miscounted = True
            self.out.append(("M", ()))
            self.cost += 1
        return merged

    monkeypatch.setattr(ionshuttle.scheduler._Lowering, "_meet", merge_once_too_often)
    # layout [1 2] [3 4]: the h and cz(0, 1) cost nothing, and gate 2,
    # cz(0, 2), exchanges between the two pairs
    with pytest.raises(RuntimeError, match=r"^gate 2: lowered cost 7, planned 6$"):
        compile_ordering(circ, order_as_is(circ))
    with pytest.raises(RuntimeError, match=rf"^gate {first}: lowered cost "
                       rf"{costs[first] + 1}, planned {costs[first]}$"):
        brute_force_best_ordering(circ)


# -- the memo of lowered steps ---------------------------------------------------


@pytest.mark.parametrize("make_circuit,layout,exchanges,steps", [
    (lambda: gen_random_circuit(12, 1000, 5), lambda c: order_inputs_randomly(c, 5),
     579, 2196),
    (lambda: gen_qft(24), increase_pairwise_order, 350, 768),
], ids=["random12_oir5", "qft24_ipo"])
def test_each_distinct_step_is_lowered_once(monkeypatch, make_circuit, layout,
                                            exchanges, steps):
    # a step from a state lowered before in the same call replays the
    # memo; the byte pins would pass just as well if it never did
    circuit = make_circuit()
    ordering = layout(circuit)
    planned = _planned(circuit, [list(ions) for ions in ordering.crystal_list])
    assert sum(len(gate_steps) for gate_steps, _ in planned) == steps
    runs = Counter()
    exchange = _Lowering._exchange

    def counted(self, *args):
        runs[id(self)] += 1
        return exchange(self, *args)

    monkeypatch.setattr(_Lowering, "_exchange", counted)
    compile_ordering(circuit, ordering, bench_config(circuit.n_qubits))
    assert list(runs.values()) == [exchanges]


def reference_schedule(circuit, state):
    """``schedule`` without the memo: every planned step through
    ``_exchange`` on a fresh ``_Lowering``; the program's text, its cost
    and the per-gate costs."""
    plans = _planned(circuit, crystal_chain(state))
    low = _Lowering(state)
    low.out.append(("START", ()))
    low.out.extend(("AIC", (ion, c.segment)) for c in low.chain for ion in c.ions)
    per_gate = []
    for gate, (steps, _) in zip(circuit.gates, plans):
        before = low.cost
        try:
            if not steps:
                low.run_gate(gate, steps)
            for i, ion, partner, d, runs_gate in steps:
                low._exchange(i, ion, partner, d, gate.index if runs_gate else None)
        except TrapOverflow as e:
            raise TrapOverflow(
                f"gate {gate.index}: {e} (occupied segments {low.chain[0].segment}-"
                f"{low.chain[-1].segment} of {low.n_segments})") from e
        per_gate.append(low.cost - before)
    sequence = CommandSequence(low.n_segments, low.liz, low.out)
    return serialize(sequence), low.cost, per_gate


MEMO_EXAMPLES = 200
MEMO_OUTCOMES: Counter = Counter()


@st.composite
def memo_cases(draw):
    """A circuit of up to 40 gates on 2 to 10 qubits, in pairs (a lone ion
    last for an odd register) or in one-ion crystals, on a trap of 5 to 64
    segments with the LIZ anywhere off the end segments."""
    n = draw(st.integers(2, 10))
    specs = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 5)) == 0:
            specs.append(("h", (draw(st.integers(0, n - 1)),), ()))
        else:
            a, b = draw(st.permutations(range(n)))[:2]
            specs.append(("cz", (a, b), ()))
    ions = tuple(draw(st.permutations(range(1, n + 1))))
    groups = draw(st.sampled_from((paired(ions), tuple((ion,) for ion in ions))))
    n_segments = draw(st.integers(max(5, 2 * len(groups) - 1), 64))
    liz = draw(st.integers(2, n_segments - 1))
    return (build_circuit(n, specs), Ordering(groups),
            TrapConfig(n_segments=n_segments, liz=liz))


def memo_schedule(circuit, state):
    result = schedule(circuit, state)
    return serialize(result.sequence), result.cost, result.per_gate_costs


def outcome(lower, circuit, state):
    """``lower``'s program, cost and per-gate costs, or its overflow message."""
    try:
        return lower(circuit, state)
    except TrapOverflow as e:
        return str(e)


@settings(max_examples=MEMO_EXAMPLES)
@given(memo_cases())
def _memo_matches_reference(case):
    circuit, ordering, config = case
    state = TrapState(config)
    place_in_the_model(state, ordering, circuit)
    runs = []
    exchange = _Lowering._exchange

    def counted(self, *args):
        runs.append(args)
        return exchange(self, *args)

    with mock.patch.object(_Lowering, "_exchange", counted):
        got = outcome(memo_schedule, circuit, state)
    assert got == outcome(reference_schedule, circuit, state)
    if isinstance(got, str):
        MEMO_OUTCOMES["overflow"] += 1
        return
    MEMO_OUTCOMES["compiled"] += 1
    MEMO_OUTCOMES["exchanges"] += len(runs)
    MEMO_OUTCOMES["steps"] += sum(len(gate_steps) for gate_steps, _ in
                                  _planned(circuit, crystal_chain(state)))


def test_memo_matches_a_lowering_without_it():
    # the memo is exact on every trap shape and LIZ, not only on the bench
    # traps: equal bytes, cost and per-gate costs, or the same overflow
    MEMO_OUTCOMES.clear()
    _memo_matches_reference()
    assert MEMO_OUTCOMES["compiled"] >= MEMO_EXAMPLES // 4, MEMO_OUTCOMES
    assert MEMO_OUTCOMES["overflow"] >= MEMO_EXAMPLES // 10, MEMO_OUTCOMES
    # and the memo is hit: a good share of the compiled steps replay it
    assert MEMO_OUTCOMES["exchanges"] < 0.8 * MEMO_OUTCOMES["steps"], MEMO_OUTCOMES


# -- the step verifier -------------------------------------------------------------


def verdict(check, sequence, config):
    """``check``'s S and M counts and final trap, or the message of the
    ``ReplayError`` it raised."""
    try:
        report = check(sequence, config)
    except ReplayError as e:
        return str(e)
    state = report.final_state
    return report.s_count, report.m_count, state.seg_crystal, state.wells


def strict_replay(sequence, config):
    return replay(sequence, config, strict=True)


def changes(raw, start, stop, dg, liz):
    """The one-command changes of the step ``raw[start:stop]``, each an
    index and its new command, None to drop it: a move shifted by one
    segment either way, a REC dropped, and the gate turned into a rotation."""
    found = []
    for at in range(start, stop):
        op, params = raw[at]
        if op in ("SMU", "SMD"):
            found += [(at, (op, (1, params[1] + e))) for e in (-1, 1)]
        elif op == "REC":
            found.append((at, None))
    if dg is not None:
        found.append((start + dg, ("RC", (liz,))))
    return found


VERIFY_OUTCOMES: Counter = Counter()


@settings(max_examples=MEMO_EXAMPLES)
@given(memo_cases(), st.data())
def _verifier_matches_replay(case, data):
    circuit, ordering, config = case
    state = TrapState(config)
    place_in_the_model(state, ordering, circuit)
    try:
        result = schedule(circuit, state)
    except TrapOverflow:
        return
    sequence, steps = result.sequence, result.steps

    def verified(sequence, config):
        return verify_steps(sequence, steps, config)

    clean = verdict(strict_replay, sequence, config)
    assert not isinstance(clean, str), clean
    assert verdict(verified, sequence, config) == clean
    VERIFY_OUTCOMES["compiled"] += 1
    # change one command of a step whose entry was met before
    seen, repeats = set(), []
    for start, stop, entry, dg in steps:
        if entry in seen:
            repeats.append((start, stop, dg))
        seen.add(entry)
    if not repeats:
        return
    at, command = data.draw(st.sampled_from(
        changes(sequence.raw, *data.draw(st.sampled_from(repeats)), config.liz)))
    raw = list(sequence.raw)
    if command is None:  # later steps start one command earlier
        del raw[at]
        steps = [(start - (start > at), stop - (stop > at), entry, dg)
                 for start, stop, entry, dg in steps]
    else:
        raw[at] = command
    changed = CommandSequence(sequence.n_segments, sequence.liz, raw)
    outcome = verdict(strict_replay, changed, config)
    assert verdict(verified, changed, config) == outcome
    VERIFY_OUTCOMES["rejected"] += isinstance(outcome, str)


def test_verifier_matches_replay():
    # on clean programs and on programs with one command of a repeated step
    # changed, the verifier ends where strict replay ends: the same counts
    # and trap, or the same first violation
    VERIFY_OUTCOMES.clear()
    _verifier_matches_replay()
    assert VERIFY_OUTCOMES["compiled"] >= MEMO_EXAMPLES // 4, VERIFY_OUTCOMES
    assert VERIFY_OUTCOMES["rejected"] >= MEMO_EXAMPLES // 10, VERIFY_OUTCOMES


def test_verified_compile_runs_fewer_than_half_the_commands(monkeypatch):
    # each repeated step runs on the executor once per trap shape
    circuit = gen_random_circuit(12, 1000, 5)
    ordering = order_inputs_randomly(circuit, 5)
    applied = Counter()
    apply = ionshuttle.commands.apply

    def counted(state, op, params):
        applied[op] += 1
        apply(state, op, params)

    monkeypatch.setattr(ionshuttle.commands, "apply", counted)
    result = compile_ordering(circuit, ordering, bench_config(12), verify=True)
    assert len(result.sequence) == 224_104
    assert 0 < applied.total() < len(result.sequence) // 2, applied
