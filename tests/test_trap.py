"""Trap model: configuration, placement, transport and LIZ operations."""
import random

import pytest

from ionshuttle.trap import (CapacityExceeded, InvalidConfig, TrapConfig,
                             TrapError, TrapState)


def test_default_config_matches_reference_trap():
    state = TrapState()
    assert state.config.n_segments == 32
    assert state.config.liz == 19
    assert not state.seg_crystal


def test_config_rejects_tiny_trap():
    with pytest.raises(InvalidConfig):
        TrapState(TrapConfig(n_segments=4))
    with pytest.raises(InvalidConfig, match="need at least 5 segments, got 4"):
        TrapConfig(n_segments=4)


def test_config_rejects_liz_out_of_range():
    with pytest.raises(InvalidConfig):
        TrapState(TrapConfig(n_segments=32, liz=33))
    with pytest.raises(InvalidConfig):
        TrapState(TrapConfig(liz=0))
    # split and merge need a segment on each side of the LIZ
    with pytest.raises(InvalidConfig):
        TrapState(TrapConfig(liz=1))
    with pytest.raises(InvalidConfig):
        TrapState(TrapConfig(liz=32))


def test_config_rejects_unsupported_limits():
    with pytest.raises(TypeError):
        TrapConfig(max_ions_per_crystal=3)
    with pytest.raises(TypeError):
        TrapConfig(min_crystal_spacing=1)
    with pytest.raises(TypeError):
        TrapConfig(min_crystal_spacing=3)


class TestPlacement:
    def test_place_pair_in_empty_trap(self):
        state = TrapState()
        state.place_crystal([1, 2], 19)
        assert state.seg_crystal == {19: [1, 2]}

    def test_adjacent_placement_violates_spacing(self):
        state = TrapState()
        state.place_crystal([1, 2], 19)
        with pytest.raises(TrapError, match="segment 20 too close to occupied segment 19"):
            state.place_crystal([3], 20)

    def test_occupied_segment_rejected(self):
        state = TrapState()
        state.place_crystal([1], 19)
        with pytest.raises(TrapError, match="segment 19 already occupied"):
            state.place_crystal([2], 19)

    def test_duplicate_ion_rejected(self):
        state = TrapState()
        state.place_crystal([1], 10)
        with pytest.raises(TrapError, match="ion 1 already placed"):
            state.place_crystal([1], 14)
        with pytest.raises(TrapError, match=r"duplicate ion in \[2, 2\]"):
            state.place_crystal([2, 2], 14)

    def test_three_ion_crystal_rejected(self):
        state = TrapState()
        with pytest.raises(CapacityExceeded):
            state.place_crystal([1, 2, 3], 10)

    def test_place_ion_extends_singleton(self):
        state = TrapState()
        state.place_ion(1, 10)
        state.place_ion(2, 10)
        assert state.seg_crystal == {10: [1, 2]}
        with pytest.raises(CapacityExceeded):
            state.place_ion(3, 10)


class TestTransport:
    def test_single_step_up(self):
        state = TrapState()
        state.place_crystal([1], 10)
        assert state.move_crystal_step(10, -1) == 9

    def test_step_off_the_end(self):
        state = TrapState()
        state.place_crystal([1], 1)
        with pytest.raises(TrapError, match="move from segment 1 leaves the trap"):
            state.move_crystal_step(1, -1)

    def test_step_into_spacing_conflict(self):
        state = TrapState()
        state.place_crystal([1], 10)
        state.place_crystal([2], 13)
        assert state.move_crystal_step(13, -1) == 12
        with pytest.raises(TrapError, match="moving to segment 11 violates spacing"):
            state.move_crystal_step(12, -1)

    def test_move_of_empty_segment(self):
        state = TrapState()
        with pytest.raises(TrapError, match="no crystal at segment 10"):
            state.move_crystal_step(10, 1)

    def test_move_onto_well_blocked(self):
        state = TrapState()
        state.place_crystal([1], 10)
        state.add_well(11)
        with pytest.raises(TrapError, match="segment 11 holds an empty well"):
            state.move_crystal_step(10, 1)


class TestSplitMerge:
    def test_split_semantics(self):
        state = TrapState()
        state.place_crystal([4, 7], 19)
        state.split_at_liz()
        assert state.seg_crystal == {18: [4], 20: [7]}
        assert 19 not in state.seg_crystal

    def test_split_needs_two_ions(self):
        state = TrapState()
        state.place_crystal([4], 19)
        with pytest.raises(TrapError, match="split needs a 2-ion crystal, got 1"):
            state.split_at_liz()

    def test_split_empty_liz(self):
        state = TrapState()
        with pytest.raises(TrapError, match="no crystal in the LIZ to split"):
            state.split_at_liz()

    def test_split_blocked_by_neighbor_at_staging(self):
        # no legal op reaches "crystal at liz+1 while the LIZ is occupied",
        # so force the state directly to check the guard
        state = TrapState(TrapConfig())
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        state.seg_crystal[20] = state.seg_crystal.pop(21)
        with pytest.raises(TrapError,
                           match="split product at 20 would violate spacing with 20"):
            state.split_at_liz()

    def test_split_blocked_by_neighbor_two_out(self):
        # a crystal at liz+2 would end up adjacent to the product at liz+1
        state = TrapState()
        state.place_crystal([1, 2], 19)
        state.place_crystal([3], 21)
        with pytest.raises(TrapError,
                           match="split product at 20 would violate spacing with 21"):
            state.split_at_liz()

    def test_merge_semantics(self):
        state = TrapState()
        state.place_crystal([4], 18)
        state.place_crystal([7], 20)
        state.merge_at_liz()
        assert state.seg_crystal == {19: [4, 7]}

    def test_merge_missing_operand(self):
        state = TrapState()
        state.place_crystal([4], 18)
        with pytest.raises(TrapError,
                           match="merge needs crystals at both segments beside the LIZ"):
            state.merge_at_liz()

    def test_merge_into_occupied_liz(self):
        # no program reaches this (the spacing rule never lets the LIZ and
        # both its neighbours be occupied at once), so poke it in directly
        state = TrapState()
        state.place_crystal([4], 18)
        state.place_crystal([7], 20)
        state.seg_crystal[19] = [5]
        with pytest.raises(TrapError, match="LIZ occupied"):
            state.merge_at_liz()
        assert [ions for _, ions in sorted(state.seg_crystal.items())] == [[4], [5], [7]]

    def test_merge_result_too_large(self):
        state = TrapState()
        state.place_crystal([4, 5], 18)
        state.place_crystal([7], 20)
        with pytest.raises(TrapError, match="merge would create a 3-ion crystal"):
            state.merge_at_liz()

    def test_split_merge_round_trip_preserves_order(self):
        state = TrapState()
        state.place_crystal([4, 7], 19)
        state.split_at_liz()
        state.merge_at_liz()
        assert state.seg_crystal == {19: [4, 7]}

    def test_split_and_merge_share_no_list(self):
        # the trap keeps no list a caller gave it, and no two segments
        # ever hold the same list object
        ions = [4, 7]
        state = TrapState()
        state.place_crystal(ions, 19)
        assert state.seg_crystal[19] is not ions
        for _ in range(4):
            state.split_at_liz()
            assert state.seg_crystal[18] is not state.seg_crystal[20]
            state.merge_at_liz()
            assert state.seg_crystal == {19: [4, 7]}


class TestRotation:
    def test_rotation_reverses_pair(self):
        state = TrapState()
        state.place_crystal([4, 7], 19)
        state.rotate_at_liz()
        assert state.seg_crystal[19] == [7, 4]
        state.rotate_at_liz()
        assert state.seg_crystal[19] == [4, 7]

    def test_rotation_of_singleton_is_noop(self):
        state = TrapState()
        state.place_crystal([4], 19)
        state.rotate_at_liz()
        assert state.seg_crystal[19] == [4]

    def test_rotation_of_empty_liz(self):
        state = TrapState()
        with pytest.raises(TrapError, match="no crystal in the LIZ to rotate"):
            state.rotate_at_liz()


class TestSpacing:
    def test_spaced_crystals_pass(self):
        state = TrapState()
        for ion, seg in ((1, 17), (2, 19), (3, 21)):
            state.place_crystal([ion], seg)
        assert state.check_spacing() == []

    def test_adjacent_crystals_flagged(self):
        state = TrapState()
        state.place_crystal([1], 18)
        state.place_crystal([2], 20)
        # poke a violation directly: the model never creates one itself
        state.seg_crystal[19] = state.seg_crystal.pop(20)
        assert state.check_spacing() == [(18, 19)]

    def test_empty_trap_passes(self):
        assert TrapState().check_spacing() == []


def test_ion_conservation_and_spacing_under_random_ops():
    """Drive the primitives with a seeded fuzz loop: the ion-id multiset is
    invariant, every post-state is spacing-clean and no two segments share
    one ion list."""
    rng = random.Random(7)
    state = TrapState()
    state.place_crystal([1, 2], 19)
    state.place_crystal([3, 4], 23)
    state.place_crystal([5], 26)
    ions = [1, 2, 3, 4, 5]
    for _ in range(400):
        op = rng.choice(("move", "split", "merge", "rotate"))
        try:
            if op == "move":
                seg = rng.choice(list(state.seg_crystal))
                state.move_crystal_step(seg, rng.choice((-1, 1)))
            elif op == "split":
                state.split_at_liz()
            elif op == "merge":
                state.merge_at_liz()
            else:
                state.rotate_at_liz()
        except Exception:
            pass
        assert state.check_spacing() == []
        crystals = list(state.seg_crystal.values())
        assert sorted(ion for c in crystals for ion in c) == ions
        assert len({id(c) for c in crystals}) == len(crystals)
