"""Scheduler: transport, ion exchange and the gate loop."""
import random

import pytest

from ionshuttle.commands import replay, serialize
from ionshuttle.ordering import (order_as_is, order_inputs_randomly,
                                 place_in_the_model)
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import ion_permutation, schedule, send_to_segment
from ionshuttle.trap import TrapConfig, TrapOverflow, TrapState, new_state


def ops_of(commands, kinds):
    return [op for op, _ in commands if op in kinds]


def ion_sets(state):
    return sorted(tuple(sorted(c.ions)) for c in state.seg_crystal.values())


class TestSendToSegment:
    def test_clear_path_step_count(self):
        state = new_state()
        crystal = state.place_crystal([1], 10)
        moves = send_to_segment(state, crystal, 19)
        assert moves == [("SMD", (1, s)) for s in range(10, 19)]
        assert crystal.segment == 19

    def test_blocker_pushed_one_spacing_beyond_target(self):
        state = new_state()
        mover = state.place_crystal([1], 17)
        blocker = state.place_crystal([2], 19)
        moves = send_to_segment(state, mover, 19)
        assert mover.segment == 19
        assert blocker.segment == 21
        assert moves == [("SMD", (1, 19)), ("SMD", (1, 20)),
                        ("SMD", (1, 17)), ("SMD", (1, 18))]

    def test_push_chain_overflow(self):
        state = new_state()
        mover = state.place_crystal([1], 28)
        state.place_crystal([2], 30)
        state.place_crystal([3], 32)
        with pytest.raises(TrapOverflow):
            send_to_segment(state, mover, 30)

    def test_send_upward_mirrors(self):
        state = new_state()
        mover = state.place_crystal([1], 21)
        blocker = state.place_crystal([2], 19)
        send_to_segment(state, mover, 19)
        assert mover.segment == 19
        assert blocker.segment == 17

    def test_crystal_replaced_by_merge_rejected(self):
        state = new_state()
        above = state.place_crystal([1], 18)
        state.place_crystal([2], 20)
        state.merge_at_liz()
        with pytest.raises(ValueError):
            send_to_segment(state, above, 10)
        assert sorted(state.seg_crystal) == [19]


class TestIonPermutation:
    def _two_pairs(self):
        state = new_state()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3, 4], 21)
        return state

    def test_full_exchange_costs_six(self):
        state = self._two_pairs()
        commands = ion_permutation(state, 1, 3, do_gate=False)
        assert len(ops_of(commands, ("S",))) == 3
        assert len(ops_of(commands, ("M",))) == 3
        assert ion_sets(state) == [(1, 4), (2, 3)]
        # upper home keeps its old partner on top; traveler rests on top of
        # the lower home (normative trace order)
        crystals = sorted(state.seg_crystal.values(), key=lambda c: c.segment)
        assert crystals[0].ions == [2, 3]
        assert crystals[1].ions == [1, 4]

    def test_top_ion_triggers_orientation_rotation(self):
        state = self._two_pairs()
        commands = ion_permutation(state, 1, 3, do_gate=False)
        # ion 1 was on top of [1,2] and ion 3 on top of [3,4]: one initial
        # orientation rotation plus the mid-exchange rotation
        assert ops_of(commands, ("RC",)) == ["RC", "RC"]

    def test_two_singletons(self):
        state = new_state()
        state.place_crystal([1], 19)
        state.place_crystal([3], 21)
        commands = ion_permutation(state, 1, 3, do_gate=True, gate_index=0)
        assert ops_of(commands, ("S", "M", "RC", "DG")) == ["M", "RC", "DG", "S"]
        crystals = sorted(state.seg_crystal.values(), key=lambda c: c.segment)
        assert [c.ions for c in crystals] == [[3], [1]]

    def test_pair_above_singleton(self):
        state = new_state()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        commands = ion_permutation(state, 2, 3, do_gate=False)
        assert ops_of(commands, ("S", "M")) == ["S", "M", "S", "M"]
        assert ion_sets(state) == [(1, 3), (2,)]
        pair = next(c for c in state.seg_crystal.values() if len(c.ions) == 2)
        assert pair.ions == [1, 3]

    def test_precondition_same_crystal(self):
        state = new_state()
        state.place_crystal([1, 2], 19)
        with pytest.raises(ValueError):
            ion_permutation(state, 1, 2, do_gate=False)

    def test_precondition_orientation(self):
        state = self._two_pairs()
        with pytest.raises(ValueError):
            ion_permutation(state, 3, 1, do_gate=False)

    def test_precondition_adjacency(self):
        state = new_state()
        state.place_crystal([1, 2], 15)
        state.place_crystal([3, 4], 19)
        state.place_crystal([5, 6], 23)
        with pytest.raises(ValueError):
            ion_permutation(state, 1, 5, do_gate=False)

    def test_exchange_fixes_all_other_ions(self):
        state = new_state()
        state.place_crystal([1, 2], 17)
        state.place_crystal([3, 4], 19)
        state.place_crystal([5, 6], 21)
        before = {c: set(cr.ions) for c, cr in
                  ((cr.segment, cr) for cr in state.seg_crystal.values())}
        ion_permutation(state, 4, 5, do_gate=False)
        assert ion_sets(state) == [(1, 2), (3, 5), (4, 6)]
        assert before  # membership of {1,2} untouched


class TestSchedule:
    def test_gate_on_liz_crystal_costs_nothing(self):
        circ = build_circuit(2, [("cz", (0, 1), ())])
        state = new_state()
        state.place_crystal([1, 2], 19)
        result = schedule(circ, state)
        assert result.cost == 0
        assert result.per_gate_costs == [0]
        ops = [op for op, _ in result.sequence.raw]
        assert ops.count("DG") == 1
        assert not any(op in ("S", "M", "SMU", "SMD") for op in ops)

    def test_distant_crystal_travels_without_cost(self):
        circ = build_circuit(2, [("cz", (0, 1), ())])
        state = new_state()
        state.place_crystal([1, 2], 10)
        result = schedule(circ, state)
        assert result.cost == 0
        moves = [cmd for cmd in result.sequence.raw if cmd[0] in ("SMU", "SMD")]
        assert moves == [("SMD", (1, s)) for s in range(10, 19)]
        assert [op for op, _ in result.sequence.raw].count("DG") == 1

    def test_adjacent_pair_exchange_costs_six(self):
        circ = build_circuit(4, [("cz", (0, 2), ())])
        state = new_state()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3, 4], 21)
        result = schedule(circ, state)
        assert result.cost == 6
        assert ops_of(result.sequence.raw, ("S", "M", "DG")) == ["S", "S", "M", "DG", "S", "M", "M"]
        report = replay(result.sequence)
        assert report.ok and report.s_count == 3 and report.m_count == 3

    def test_one_qubit_gate(self):
        circ = build_circuit(3, [("h", (2,), ())])
        state = new_state()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        result = schedule(circ, state)
        assert result.cost == 0
        assert replay(result.sequence).final_state.crystal_at(19).ions == [3]

    def test_lower_operand_designated_traveler_when_above(self):
        # gate lists the lower crystal's ion first: designation must flip
        circ = build_circuit(4, [("cz", (2, 0), ())])
        state = new_state()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3, 4], 21)
        result = schedule(circ, state)
        assert result.cost == 6
        assert ion_sets(replay(result.sequence).final_state) == [(1, 4), (2, 3)]

    def test_multi_hop_exchange(self):
        # operands two crystals apart: one ferry hop plus the gate exchange
        circ = build_circuit(6, [("cz", (0, 5), ())])
        state = new_state()
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
        state = new_state(TrapConfig(n_segments=48, liz=24))
        place_in_the_model(state, order_inputs_randomly(circ, 4), circ)
        result = schedule(circ, state)
        dgs = [params[0] for op, params in result.sequence.raw if op == "DG"]
        assert dgs == list(range(25))
        assert sum(result.per_gate_costs) == result.cost

    def test_overflow_names_gate_and_span(self):
        circ = build_circuit(6, [("cz", (0, 1), ()), ("cz", (0, 5), ())])
        state = new_state(TrapConfig(n_segments=12, liz=6))
        place_in_the_model(state, order_as_is(circ), circ)
        with pytest.raises(TrapOverflow, match=r"^gate 1: .*occupied "
                           r"segments \d+-\d+ of 12\)$") as err:
            schedule(circ, state)
        assert isinstance(err.value.__cause__, TrapOverflow)

    def test_schedule_rejects_wrong_ion_set(self):
        circ = build_circuit(4, [("cz", (0, 1), ())])
        state = new_state()
        state.place_crystal([1, 2], 19)
        with pytest.raises(ValueError):
            schedule(circ, state)

    def test_determinism_byte_for_byte(self):
        rng = random.Random(5)
        pairs = [tuple(rng.sample(range(8), 2)) for _ in range(40)]
        circ = build_circuit(8, [("cz", p, ()) for p in pairs])
        texts = []
        for _ in range(2):
            state = new_state(TrapConfig(n_segments=48, liz=24))
            place_in_the_model(state, order_inputs_randomly(circ, 9), circ)
            texts.append(serialize(schedule(circ, state).sequence))
        assert texts[0] == texts[1]

    def test_replay_soundness_random_circuits(self):
        rng = random.Random(2)
        for trial in range(6):
            n = rng.randrange(4, 10)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(30)]
            circ = build_circuit(n, [("cz", p, ()) for p in pairs])
            state = new_state(TrapConfig(n_segments=64, liz=32))
            place_in_the_model(state, order_inputs_randomly(circ, trial), circ)
            result = schedule(circ, state)
            report = replay(result.sequence)
            assert report.ok
            assert report.s_count + report.m_count == result.cost
            assert report.final_state.check_spacing() == []
