"""Trap model: configuration, placement, transport and LIZ operations."""
import random

import pytest

from ionshuttle.trap import (Blocked, CapacityExceeded, DuplicateIon,
                             EmptySegment, InvalidConfig, MissingOperand,
                             NotInLiz, OutOfBounds, ResultTooLarge,
                             SpacingViolation, TrapConfig, TrapState,
                             WrongSize, new_state)


def test_default_config_matches_reference_trap():
    state = new_state()
    assert state.config.n_segments == 32
    assert state.config.liz == 19
    assert not state.seg_crystal
    assert state.history == [("START", ())]


def test_config_rejects_tiny_trap():
    with pytest.raises(InvalidConfig):
        new_state(TrapConfig(n_segments=4))


def test_config_rejects_liz_out_of_range():
    with pytest.raises(InvalidConfig):
        new_state(TrapConfig(n_segments=32, liz=33))
    with pytest.raises(InvalidConfig):
        new_state(TrapConfig(liz=0))


def test_config_rejects_unsupported_limits():
    with pytest.raises(TypeError):
        TrapConfig(max_ions_per_crystal=3)
    with pytest.raises(TypeError):
        TrapConfig(min_crystal_spacing=1)
    with pytest.raises(TypeError):
        TrapConfig(min_crystal_spacing=3)


class TestPlacement:
    def test_place_pair_in_empty_trap(self):
        state = new_state()
        cid = state.place_crystal([1, 2], 19)
        assert state.crystals[cid].ions == [1, 2]
        assert state.seg_crystal == {19: cid}
        assert state.history[1:] == [("AIC", (1, 19)), ("AIC", (2, 19))]

    def test_adjacent_placement_violates_spacing(self):
        state = new_state()
        state.place_crystal([1, 2], 19)
        with pytest.raises(SpacingViolation):
            state.place_crystal([3], 20)

    def test_duplicate_ion_rejected(self):
        state = new_state()
        state.place_crystal([1], 10)
        with pytest.raises(DuplicateIon):
            state.place_crystal([1], 14)
        with pytest.raises(DuplicateIon):
            state.place_crystal([2, 2], 14)

    def test_three_ion_crystal_rejected(self):
        state = new_state()
        with pytest.raises(CapacityExceeded):
            state.place_crystal([1, 2, 3], 10)

    def test_place_ion_extends_singleton(self):
        state = new_state()
        cid = state.place_ion(1, 10)
        assert state.place_ion(2, 10) == cid
        assert state.crystals[cid].ions == [1, 2]
        with pytest.raises(CapacityExceeded):
            state.place_ion(3, 10)

    def test_placement_after_scheduling_blocked(self):
        state = new_state()
        state.place_crystal([1], 10)
        state.move_crystal_step(10, "down")
        with pytest.raises(Blocked):
            state.place_crystal([2], 20)


class TestTransport:
    def test_single_step_up(self):
        state = new_state()
        state.place_crystal([1], 10)
        assert state.move_crystal_step(10, "up") == 9
        assert state.history[-1] == ("SMU", (1, 10))

    def test_step_off_the_end(self):
        state = new_state()
        state.place_crystal([1], 1)
        with pytest.raises(OutOfBounds):
            state.move_crystal_step(1, "up")

    def test_step_into_spacing_conflict(self):
        state = new_state()
        state.place_crystal([1], 10)
        state.place_crystal([2], 13)
        assert state.move_crystal_step(13, "up") == 12
        with pytest.raises(SpacingViolation):
            state.move_crystal_step(12, "up")

    def test_move_of_empty_segment(self):
        state = new_state()
        with pytest.raises(EmptySegment):
            state.move_crystal_step(10, "down")

    def test_move_onto_well_blocked(self):
        state = new_state()
        state.place_crystal([1], 10)
        state.add_well(11)
        with pytest.raises(Blocked):
            state.move_crystal_step(10, "down")


class TestSplitMerge:
    def test_split_semantics(self):
        state = new_state()
        state.place_crystal([4, 7], 19)
        above, below = state.split_at_liz()
        assert state.crystals[above].ions == [4]
        assert state.crystals[above].segment == 18
        assert state.crystals[below].ions == [7]
        assert state.crystals[below].segment == 20
        assert 19 not in state.seg_crystal
        assert state.history[-1] == ("S", ())
        assert state.s_count == 1

    def test_split_needs_two_ions(self):
        state = new_state()
        state.place_crystal([4], 19)
        with pytest.raises(WrongSize):
            state.split_at_liz()

    def test_split_empty_liz(self):
        state = new_state()
        with pytest.raises(NotInLiz):
            state.split_at_liz()

    def test_split_blocked_by_neighbor_at_staging(self):
        # no legal op reaches "crystal at liz+1 while the LIZ is occupied",
        # so force the state directly to check the guard
        state = new_state(TrapConfig())
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        c = state.crystal_at(21)
        del state.seg_crystal[21]
        c.segment = 20
        state.seg_crystal[20] = c.id
        with pytest.raises(Blocked):
            state.split_at_liz()

    def test_split_blocked_by_neighbor_two_out(self):
        # a crystal at liz+2 would end up adjacent to the product at liz+1
        state = new_state()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        with pytest.raises(Blocked):
            state.split_at_liz()

    def test_merge_semantics(self):
        state = new_state()
        state.place_crystal([4], 18)
        state.place_crystal([7], 20)
        cid = state.merge_at_liz()
        assert state.crystals[cid].ions == [4, 7]
        assert state.crystals[cid].segment == 19
        assert state.history[-1] == ("M", ())
        assert state.m_count == 1

    def test_merge_missing_operand(self):
        state = new_state()
        state.place_crystal([4], 18)
        with pytest.raises(MissingOperand):
            state.merge_at_liz()

    def test_merge_result_too_large(self):
        state = new_state()
        state.place_crystal([4, 5], 18)
        state.place_crystal([7], 20)
        with pytest.raises(ResultTooLarge):
            state.merge_at_liz()

    def test_split_merge_round_trip_preserves_order(self):
        state = new_state()
        state.place_crystal([4, 7], 19)
        state.split_at_liz()
        cid = state.merge_at_liz()
        assert state.crystals[cid].ions == [4, 7]

    def test_fresh_ids_strictly_increase(self):
        state = new_state()
        first = state.place_crystal([4, 7], 19)
        seen = [first]
        for _ in range(4):
            above, below = state.split_at_liz()
            merged = state.merge_at_liz()
            seen.extend([above, below, merged])
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


class TestRotation:
    def test_rotation_reverses_pair(self):
        state = new_state()
        state.place_crystal([4, 7], 19)
        state.rotate_at_liz()
        assert state.crystal_at(19).ions == [7, 4]
        state.rotate_at_liz()
        assert state.crystal_at(19).ions == [4, 7]

    def test_rotation_of_singleton_is_noop(self):
        state = new_state()
        state.place_crystal([4], 19)
        state.rotate_at_liz()
        assert state.crystal_at(19).ions == [4]
        assert state.history[-1] == ("RC", (19,))

    def test_rotation_of_empty_liz(self):
        state = new_state()
        with pytest.raises(EmptySegment):
            state.rotate_at_liz()


class TestSpacing:
    def test_spaced_crystals_pass(self):
        state = new_state()
        for ion, seg in ((1, 17), (2, 19), (3, 21)):
            state.place_crystal([ion], seg)
        assert state.check_spacing() == []

    def test_adjacent_crystals_flagged(self):
        state = new_state()
        state.place_crystal([1], 18)
        state.place_crystal([2], 20)
        # poke a violation directly: the model never creates one itself
        c = state.crystal_at(20)
        del state.seg_crystal[20]
        c.segment = 19
        state.seg_crystal[19] = c.id
        assert state.check_spacing() == [(18, 19)]

    def test_empty_trap_passes(self):
        assert new_state().check_spacing() == []


def test_ion_conservation_and_spacing_under_random_ops():
    """Drive the primitives with a seeded fuzz loop: the ion-id multiset is
    invariant and every post-state is spacing-clean."""
    rng = random.Random(7)
    state = new_state()
    state.place_crystal([1, 2], 19)
    state.place_crystal([3, 4], 23)
    state.place_crystal([5], 26)
    ions = sorted(state.ion_crystal)
    for _ in range(400):
        op = rng.choice(("move", "split", "merge", "rotate"))
        try:
            if op == "move":
                seg = rng.choice(list(state.seg_crystal))
                state.move_crystal_step(seg, rng.choice(("up", "down")))
            elif op == "split":
                state.split_at_liz()
            elif op == "merge":
                state.merge_at_liz()
            else:
                state.rotate_at_liz()
        except Exception:
            pass
        assert sorted(state.ion_crystal) == ions
        assert state.check_spacing() == []
        for cid, crystal in state.crystals.items():
            assert state.seg_crystal[crystal.segment] == cid
            for ion in crystal.ions:
                assert state.ion_crystal[ion] == cid
