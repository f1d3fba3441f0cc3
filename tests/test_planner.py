"""The chain planner against its physical lowering.

``plan`` sees only the crystal chain; ``schedule`` lowers the same steps
into commands from a placed trap, which it leaves untouched.  Whenever the
lowering succeeds, the two must agree on the split+merge cost (also as
replayed from the emitted program) and on the final chain, read off the
replayed trap in segment order.
"""
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ionshuttle.benchmarks import (bench_config, compile_ordering, gen_qft,
                                   gen_random_circuit, gen_toffoli,
                                   make_ordering)
from ionshuttle.commands import replay
from ionshuttle.ordering import Ordering
from ionshuttle.qasm import Circuit, Gate, build_circuit
from ionshuttle.scheduler import (_plan_gate, _position_move, cheapest_layout,
                                  crystal_chain, plan, plan_cost, schedule)
from ionshuttle.trap import TrapConfig, TrapOverflow, TrapState

EXAMPLES = 300
OUTCOMES: Counter = Counter()


def circuit_and_layout(draw):
    """A circuit with one- and two-qubit gates and a random layout of one-
    and two-ion crystals."""
    n = draw(st.integers(2, 10))
    specs = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 4)) == 0:
            specs.append(("h", (draw(st.integers(0, n - 1)),), ()))
        else:
            a, b = draw(st.permutations(range(n)))[:2]
            specs.append(("cz", (a, b), ()))
    return build_circuit(n, specs), crystals(draw, n)


def crystals(draw, n):
    """A random layout of ions 1..n in one- and two-ion crystals."""
    ions = draw(st.permutations(range(1, n + 1)))
    groups, i = [], 0
    while i < n:
        size = 1 if i == n - 1 else draw(st.sampled_from((1, 2, 2)))
        groups.append(tuple(ions[i:i + size]))
        i += size
    return tuple(groups)


@st.composite
def cases(draw):
    """A circuit and layout, and a trap that holds the layout, with its LIZ
    drawn near either end in two cases out of three."""
    circuit, groups = circuit_and_layout(draw)
    n_segments = draw(st.integers(max(6, 2 * len(groups) + 1),
                                  4 * circuit.n_qubits + 16))
    # the LIZ stays off the end segments, where a split has no room on one side
    near = draw(st.integers(2, 5))
    liz = draw(st.sampled_from((near, n_segments + 1 - near,
                                draw(st.integers(2, n_segments - 1)))))
    return (circuit, Ordering(groups),
            TrapConfig(n_segments=n_segments, liz=liz))


@settings(max_examples=EXAMPLES)
@given(cases())
def _planner_matches_lowering(case):
    circuit, ordering, config = case
    cost, chain = plan(circuit, ordering.crystal_list)
    try:
        result = compile_ordering(circuit, ordering, config)
    except TrapOverflow:
        OUTCOMES["overflow"] += 1
        return
    report = replay(result.sequence, config)
    assert report.ok, report.violations[:3]
    assert cost == result.cost == report.s_count + report.m_count
    assert chain == crystal_chain(report.final_state)
    OUTCOMES["compiled"] += 1


def test_planner_matches_lowering():
    OUTCOMES.clear()
    _planner_matches_lowering()
    # both outcomes happen often: a LIZ near an end overflows most drawn
    # circuits, so the floor on checked programs keeps the property from
    # holding only vacuously
    assert OUTCOMES["compiled"] + OUTCOMES["overflow"] >= EXAMPLES
    assert OUTCOMES["compiled"] >= EXAMPLES // 4, OUTCOMES
    assert OUTCOMES["overflow"] >= EXAMPLES // 10, OUTCOMES


@st.composite
def placed_cases(draw):
    """A circuit and layout placed by hand: crystals at random gaps of 2 to
    5 segments, in a trap with a random LIZ off the end segments."""
    circuit, groups = circuit_and_layout(draw)
    segments = [draw(st.integers(1, 4))]
    for _ in groups[1:]:
        segments.append(segments[-1] + draw(st.integers(2, 5)))
    n_segments = draw(st.integers(max(5, segments[-1]), segments[-1] + 24))
    state = TrapState(TrapConfig(n_segments=n_segments,
                                 liz=draw(st.integers(2, n_segments - 1))))
    for ions, segment in zip(groups, segments):
        state.place_crystal(list(ions), segment)
    return circuit, groups, state


def snapshot(state):
    """Everything a TrapState holds, each ion list by identity and by its
    contents (holding the list keeps its id from being reused)."""
    return ({s: (ions, id(ions), list(ions)) for s, ions in state.seg_crystal.items()},
            set(state.wells))


@settings(max_examples=EXAMPLES)
@given(placed_cases())
def _schedule_reads_placed_state(case):
    circuit, groups, state = case
    before = snapshot(state)
    cost, chain = plan(circuit, groups)
    try:
        result = schedule(circuit, state)
    except TrapOverflow:
        OUTCOMES["overflow"] += 1
    else:
        report = replay(result.sequence, state.config)
        assert report.ok, report.violations[:3]
        assert cost == result.cost == report.s_count + report.m_count
        assert chain == crystal_chain(report.final_state)
        OUTCOMES["compiled"] += 1
    assert snapshot(state) == before


def test_schedule_reads_placed_state():
    OUTCOMES.clear()
    _schedule_reads_placed_state()
    assert OUTCOMES["compiled"] + OUTCOMES["overflow"] >= EXAMPLES
    assert OUTCOMES["compiled"] >= EXAMPLES // 4, OUTCOMES
    assert OUTCOMES["overflow"] >= EXAMPLES // 10, OUTCOMES


@pytest.mark.parametrize("circuit", [gen_qft(12), gen_toffoli(10),
                                     gen_random_circuit(9, 300, 4)],
                         ids=["qft12", "toffoli10", "random9"])
@pytest.mark.parametrize("method", ["oai", "oir", "ipo"])
def test_plan_cost_matches_compile(circuit, method):
    ordering = make_ordering(circuit, method, 3 if method == "oir" else None)
    result = compile_ordering(circuit, ordering, bench_config(circuit.n_qubits))
    assert plan_cost(circuit, ordering.crystal_list) == result.cost


def test_step_costs():
    # pair-pair 6, pair-singleton 4, singleton-singleton 2
    circuit = build_circuit(4, [("cz", (0, 2), ())])
    assert plan_cost(circuit, ((1, 2), (3, 4))) == 6
    assert plan_cost(circuit, ((1, 2), (3,), (4,))) == 4
    assert plan_cost(circuit, ((1,), (3,), (2, 4))) == 2


def test_plan_final_chain():
    # the traveler rests at the near end of each crystal it enters; each
    # partner takes the far end of the crystal the traveler left
    circuit = build_circuit(6, [("cz", (0, 5), ())])
    cost, chain = plan(circuit, ((1, 2), (3, 4), (5, 6)))
    assert cost == 12
    assert chain == [[2, 3], [4, 6], [1, 5]]


def test_plan_rejects_a_layout_of_other_ions():
    circuit = build_circuit(3, [("cz", (0, 1), ())])
    with pytest.raises(ValueError):
        plan(circuit, ((1, 2),))
    with pytest.raises(ValueError):
        plan(circuit, ((1, 2, 3),))
    with pytest.raises(ValueError):
        plan(circuit, ((1, 1), (2, 3)))


@st.composite
def ranking_cases(draw):
    """A circuit and 1 to 12 layouts of its ions, in any order: fresh ones,
    and copies, mirror images and one-crystal flips of earlier ones.  A flip
    often reaches its original's chain at the same cost, once an ion leaves
    the flipped crystal."""
    circuit, first = circuit_and_layout(draw)
    layouts = [first]
    for _ in range(draw(st.integers(0, 11))):
        kind = draw(st.sampled_from(("new", "copy", "mirror", "flip")))
        if kind == "new":
            layouts.append(crystals(draw, circuit.n_qubits))
            continue
        earlier = draw(st.sampled_from(layouts))
        if kind == "mirror":
            earlier = tuple(g[::-1] for g in earlier[::-1])
        elif kind == "flip":
            k = draw(st.integers(0, len(earlier) - 1))
            earlier = earlier[:k] + (earlier[k][::-1],) + earlier[k + 1:]
        layouts.append(earlier)
    return circuit, draw(st.permutations(layouts))


def planned_prefixes(circuit, layout):
    """The planned ``(cost, chain)`` after each prefix of the gates."""
    prefixes = []
    for t in range(len(circuit.gates) + 1):
        cost, chain = plan(Circuit(circuit.n_qubits, circuit.gates[:t]), layout)
        prefixes.append((cost, tuple(map(tuple, chain))))
    return prefixes


@settings(max_examples=EXAMPLES)
@given(ranking_cases())
def _cheapest_layout_matches_plan_cost(case):
    circuit, layouts = case
    cost, index = min((plan_cost(circuit, layout), i) for i, layout in enumerate(layouts))
    assert cheapest_layout(circuit, layouts) == (index, cost)
    # a tie: two layouts that start as different chains reach the same
    # chain at the same cost after some gates, so the ranking merges them
    starts = {}
    for layout in layouts:
        prefixes = planned_prefixes(circuit, layout)
        for t, reached in enumerate(prefixes):
            starts.setdefault((t, reached), set()).add(prefixes[0])
    if any(len(s) > 1 for s in starts.values()):
        OUTCOMES["tie"] += 1


def test_cheapest_layout_matches_plan_cost():
    OUTCOMES.clear()
    _cheapest_layout_matches_plan_cost()
    # about 87 of the 300 examples merge two layouts at equal cost; the
    # floor keeps the tie-break from being tested only vacuously
    assert OUTCOMES["tie"] >= EXAMPLES // 5, OUTCOMES


def test_cheapest_layout_keeps_the_earliest_of_equal_costs():
    # layout 2 takes over layout 0's chain after the first gate (4 against
    # 8), so that entry now holds index 2; after the second gate all three
    # share one chain, layouts 1 and 2 at 12, and index 1 must win
    circuit = build_circuit(4, [("cz", (1, 3), ()), ("cz", (0, 1), ()),
                                ("cz", (2, 3), ())])
    layouts = [((2,), (1, 3), (4,)), ((2,), (3, 1), (4,)), ((1,), (2, 3), (4,))]
    assert [plan_cost(circuit, layout) for layout in layouts] == [20, 16, 16]
    assert cheapest_layout(circuit, layouts) == (1, 16)


def test_cheapest_layout_keys_chains_by_crystal_sizes():
    # one flat ion order in two crystal patterns: the gate's ions share a
    # crystal only in the second, so a chain keyed by its ion order alone
    # would rank the second layout as the first
    circuit = build_circuit(3, [("cz", (1, 2), ())])
    layouts = [((1, 2), (3,)), ((1,), (2, 3))]
    assert [plan_cost(circuit, layout) for layout in layouts] == [4, 0]
    assert cheapest_layout(circuit, layouts) == (1, 0)


@st.composite
def gate_moves(draw):
    """Crystal sizes of 1 and 2 holding at least two ions, a random
    labelling of the ions 1..n in them, and two distinct operands."""
    sizes = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=8)
                 .filter(lambda sizes: sum(sizes) >= 2))
    ions = draw(st.permutations(range(1, sum(sizes) + 1)))
    a, b = draw(st.permutations(ions))[:2]
    return tuple(sizes), tuple(ions), a, b


def regroup(flat, sizes):
    """The chain of crystals of ``sizes`` holding the flat ion order."""
    labels = iter(flat)
    return [[next(labels) for _ in range(size)] for size in sizes]


@settings(max_examples=EXAMPLES)
@given(gate_moves())
def test_position_move_matches_plan_gate(case):
    sizes, flat, a, b = case
    reorder, cost = _position_move(sizes, flat.index(a), flat.index(b))
    chain = regroup(flat, sizes)
    where = {ion: i for i, ions in enumerate(chain) for ion in ions}
    planned = _plan_gate(chain, where, Gate(0, "cz", (a - 1, b - 1)))[1]
    assert (regroup(reorder(flat), sizes), cost) == (chain, planned)


@pytest.mark.parametrize("bad", [((1, 2),), ((1, 2, 3),), ((1, 1), (2, 3))])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_cheapest_layout_rejects_what_plan_rejects(bad, position):
    circuit = build_circuit(3, [("cz", (0, 1), ())])
    layouts = [((1, 2), (3,)), ((3,), (2, 1))]
    layouts.insert(position, bad)
    with pytest.raises(ValueError) as planned:
        plan(circuit, bad)
    with pytest.raises(ValueError, match=f"^{planned.value}$"):
        cheapest_layout(circuit, layouts)


def test_cheapest_layout_rejects_an_empty_list():
    with pytest.raises(ValueError, match="^no layout to rank$"):
        cheapest_layout(build_circuit(3, []), [])
