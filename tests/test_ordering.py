"""Initial ordering heuristics and trap placement."""
import hashlib
import math
import random
from collections import Counter

import pytest

from ionshuttle.benchmarks import gen_qft, gen_toffoli
from ionshuttle.ordering import (Ordering, increase_pairwise_order, order_as_is,
                                 order_inputs_randomly, place_in_the_model,
                                 reverse_ordering)
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import schedule
from ionshuttle.trap import CapacityExceeded, TrapConfig, TrapState


def circuit_on_ions(n, pairs):
    """Two-qubit circuit given in 1-based ion ids."""
    return build_circuit(n, [("cz", (a - 1, b - 1), ()) for a, b in pairs])


class TestOrderAsIs:
    def test_odd_register(self):
        assert order_as_is(circuit_on_ions(5, [])).crystal_list == ((1, 2), (3, 4), (5,))

    def test_single_ion(self):
        assert order_as_is(circuit_on_ions(1, [])).crystal_list == ((1,),)

    def test_even_register(self):
        assert order_as_is(circuit_on_ions(4, [])).crystal_list == ((1, 2), (3, 4))


class TestOrderInputsRandomly:
    def test_two_ions_both_orders_appear(self):
        seen = {order_inputs_randomly(circuit_on_ions(2, []), s).crystal_list
                for s in range(32)}
        assert seen == {((1, 2),), ((2, 1),)}

    def test_deterministic_per_seed(self):
        circ = circuit_on_ions(9, [])
        assert (order_inputs_randomly(circ, 123).crystal_list
                == order_inputs_randomly(circ, 123).crystal_list)

    def test_uniform_over_permutations(self):
        # 10^4 seeds over the 720 permutations of six ions: every cell count
        # within a 5-sigma binomial band of the uniform expectation, and the
        # chi-square statistic within 5 sigma of its df=719 expectation
        circ = circuit_on_ions(6, [])
        counts = Counter(order_inputs_randomly(circ, s).ions() for s in range(10_000))
        expected = 10_000 / 720
        sigma = math.sqrt(10_000 * (1 / 720) * (719 / 720))
        assert max(counts.values()) <= expected + 5 * sigma
        chi2 = sum((counts.get(p, 0) - expected) ** 2 / expected
                   for p in set(counts) | set()) + (720 - len(counts)) * expected
        assert chi2 < 719 + 5 * math.sqrt(2 * 719)

    def test_partition_property(self):
        for n in (3, 6, 11):
            ordering = order_inputs_randomly(circuit_on_ions(n, []), 5)
            assert sorted(ordering.ions()) == list(range(1, n + 1))
            assert all(1 <= len(g) <= 2 for g in ordering.crystal_list)


class TestIncreasePairwiseOrder:
    def test_cogated_pairs_then_adjacency(self):
        circ = circuit_on_ions(4, [(1, 2), (3, 4), (2, 3)])
        assert increase_pairwise_order(circ).crystal_list == ((1, 2), (3, 4))

    def test_leftover_appended(self):
        circ = circuit_on_ions(3, [(1, 2)])
        assert increase_pairwise_order(circ).crystal_list == ((1, 2), (3,))

    def test_no_two_qubit_gates(self):
        circ = build_circuit(4, [("h", (0,), ())])
        assert increase_pairwise_order(circ).crystal_list == ((1, 2), (3, 4))

    def test_place_closest_prefers_near_end(self):
        # pass 1: (1,2),(3,4),(5,6); gate (2,3) chains first two; gate (6,1)
        # then places (5,6) at the end closest to (1,2): the top
        circ = circuit_on_ions(6, [(1, 2), (3, 4), (5, 6), (2, 3), (6, 1)])
        assert increase_pairwise_order(circ).crystal_list == ((5, 6), (1, 2), (3, 4))

    def test_pass1_pairs_cogated_unplaced_ions(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(4, 12)
            pairs = []
            for _ in range(rng.randrange(1, 14)):
                a, b = rng.sample(range(1, n + 1), 2)
                pairs.append((a, b))
            circ = circuit_on_ions(n, pairs)
            ordering = increase_pairwise_order(circ)
            assert sorted(ordering.ions()) == list(range(1, n + 1))
            home = {ion: i for i, g in enumerate(ordering.crystal_list) for ion in g}
            placed = set()
            for a, b in pairs:
                if a not in placed and b not in placed:
                    assert home[a] == home[b]
                placed.update((a, b))

    def test_matches_oai_on_neighbor_pair_circuits(self):
        # circuits whose gates first touch pairs (2k-1, 2k) make IPO == OAI
        for n in (4, 6, 8):
            pairs = [(k, k + 1) for k in range(1, n, 2)]
            pairs += [(2, 3)] if n > 2 else []
            circ = circuit_on_ions(n, pairs)
            assert (increase_pairwise_order(circ).crystal_list
                    == order_as_is(circ).crystal_list)


def test_reverse_ordering():
    circ = circuit_on_ions(5, [(1, 2)])
    ordering = order_as_is(circ)
    rev = reverse_ordering(ordering)
    assert rev.crystal_list == ((5,), (4, 3), (2, 1))
    assert reverse_ordering(rev).crystal_list == ordering.crystal_list


class TestPlacement:
    def test_anchor_first_gate_crystal_in_liz(self):
        circ = circuit_on_ions(4, [(1, 2)])
        state = TrapState(TrapConfig())
        place_in_the_model(state, order_as_is(circ), circ)
        assert state.seg_crystal[19] == [1, 2]
        assert state.seg_crystal[21] == [3, 4]

    def test_anchor_second_crystal(self):
        circ = circuit_on_ions(4, [(3, 4)])
        state = TrapState(TrapConfig())
        place_in_the_model(state, order_as_is(circ), circ)
        assert state.seg_crystal[17] == [1, 2]
        assert state.seg_crystal[19] == [3, 4]

    def test_block_shifts_inward_when_pinned_outside(self):
        # anchor on the last of 8 crystals pins the first below segment 1
        circ = circuit_on_ions(16, [(15, 16)])
        state = TrapState(TrapConfig())
        place_in_the_model(state, order_as_is(circ), circ)
        segments = state.occupied_segments()
        assert segments[0] >= 1 and segments[-1] <= 32
        assert segments == list(range(segments[0], segments[0] + 16, 2))

    def test_capacity_exceeded(self):
        circ = circuit_on_ions(40, [])
        state = TrapState(TrapConfig())
        with pytest.raises(CapacityExceeded):
            place_in_the_model(state, order_as_is(circ), circ)

    def test_aic_prologue_one_per_ion(self):
        circ = circuit_on_ions(5, [(1, 2)])
        state = TrapState(TrapConfig())
        place_in_the_model(state, order_as_is(circ), circ)
        raw = schedule(circ, state).sequence.raw
        aics = [cmd for cmd in raw if cmd[0] == "AIC"]
        assert [p[0] for _, p in aics] == [1, 2, 3, 4, 5]
        assert raw[0] == ("START", ())

    def test_rejects_non_empty_trap(self):
        circ = circuit_on_ions(4, [])
        state = TrapState(TrapConfig())
        state.place_crystal([1], 5)
        with pytest.raises(ValueError, match="needs an empty trap"):
            place_in_the_model(state, order_as_is(circ), circ)

    def test_rejects_non_partition(self):
        circ = circuit_on_ions(4, [])
        state = TrapState(TrapConfig())
        bad = order_as_is(circuit_on_ions(6, []))
        with pytest.raises(ValueError, match="^layout must split"):
            place_in_the_model(state, bad, circ)

    def test_rejects_a_three_ion_crystal(self):
        circ = circuit_on_ions(3, [])
        state = TrapState(TrapConfig())
        with pytest.raises(ValueError, match="^layout must split"):
            place_in_the_model(state, Ordering(((1, 2, 3),)), circ)
        assert state.seg_crystal == {}


def _ipo_corpus():
    """QFT and Toffoli at every size up to 40, plus seeded random circuits
    of 0-3n gates that mix one- and two-qubit gates, for n = 0..40."""
    for n in range(2, 41):
        yield f"qft{n}", gen_qft(n)
    for n in range(4, 41, 2):
        yield f"toffoli{n}", gen_toffoli(n)
    for n in range(41):
        for seed in range(3):
            rng = random.Random(1000 * n + seed)
            specs = []
            for _ in range(rng.randrange(3 * n + 1)):
                if n >= 2 and rng.random() < 2 / 3:
                    specs.append(("cz", tuple(rng.sample(range(n), 2)), ()))
                else:
                    specs.append(("h", (rng.randrange(n),), ()))
            yield f"random{n}_{seed}", build_circuit(n, specs)


def test_ipo_layout_pin():
    # the sha256 of every IPO layout of the corpus; a change to it changes
    # the layouts IPO picks, not just the code that picks them
    corpus = list(_ipo_corpus())
    assert len(corpus) == 181
    text = "\n".join(f"{name} {increase_pairwise_order(c).crystal_list}"
                     for name, c in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == "d217080bb5ca8b86f0f0eb6f47a0284772b2c08fb228b6d0aa019b73c8734156"
