"""Initial qubit-to-position assignment heuristics and trap placement.

Three strategies produce the top-to-bottom crystal layout before any
shuttling: order-as-is (ions paired left to right), order-inputs-randomly
(a seeded uniform shuffle, paired), and increase-pairwise-order, a two-pass
greedy that first groups ions gated together into crystals and then chains
crystals so consecutive gate partners sit next to each other.

Ion ids are 1-based and encode qubit ``q`` as ion ``q + 1``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .qasm import Circuit
from .trap import CapacityExceeded, TrapState


@dataclass(frozen=True)
class Ordering:
    """Top-to-bottom layout: each group is one crystal's ion order."""

    crystal_list: tuple[tuple[int, ...], ...]
    method: str
    seed: int | None = None

    def ions(self) -> tuple[int, ...]:
        return tuple(ion for group in self.crystal_list for ion in group)


def _chunk_pairs(ions: list[int], method: str, seed: int | None = None) -> Ordering:
    groups = tuple(tuple(ions[i:i + 2]) for i in range(0, len(ions), 2))
    return Ordering(groups, method, seed)


def _gate_ions(circuit: Circuit) -> list[tuple[int, int]]:
    return [(g.operands[0] + 1, g.operands[1] + 1) for g in circuit.gates
            if len(g.operands) == 2]


def order_as_is(circuit: Circuit) -> Ordering:
    """Pair ions left to right: [{1,2},{3,4},...]."""
    return _chunk_pairs(list(range(1, circuit.n_qubits + 1)), "oai")


def order_inputs_randomly(circuit: Circuit, seed: int) -> Ordering:
    """Uniformly random ion layout (Fisher-Yates shuffle of the seeded
    generator), paired into crystals; deterministic per seed."""
    ions = list(range(1, circuit.n_qubits + 1))
    random.Random(seed).shuffle(ions)
    return _chunk_pairs(ions, "oir", seed)


def increase_pairwise_order(circuit: Circuit) -> Ordering:
    """Two-pass greedy layout.

    Pass 1 scans the gate list and pairs two-qubit-gate partners that are
    both still unplaced into a crystal; leftovers are paired in ascending
    ion order.  Pass 2 scans the gates again and drains crystals into the
    final list: when a gate spans two crystals and at least one is still
    undrained, the pair is appended adjacently (both undrained) or the
    undrained one is placed at the end of the list nearest its partner.
    Remaining crystals are appended at the bottom, preserving pass-1 order.
    """
    n = circuit.n_qubits
    gates = _gate_ions(circuit)

    # pass 1: group co-gated ions into crystals
    unplaced = set(range(1, n + 1))
    crystals: list[tuple[int, ...]] = []
    ion_home: dict[int, int] = {}
    for u, v in gates:
        if u in unplaced and v in unplaced:
            ion_home[u] = ion_home[v] = len(crystals)
            crystals.append((u, v))
            unplaced.discard(u)
            unplaced.discard(v)
    leftovers = sorted(unplaced)
    for i in range(0, len(leftovers), 2):
        group = tuple(leftovers[i:i + 2])
        for ion in group:
            ion_home[ion] = len(crystals)
        crystals.append(group)

    # pass 2: chain crystals so gate partners end up adjacent
    in_v = [True] * len(crystals)
    chained: list[int] = []

    def place_closest(ref: int, new: int) -> None:
        # put `new` at whichever end of the chain is nearer to `ref`;
        # ties (and an empty chain) go to the top end
        if not chained:
            chained.insert(0, new)
            return
        i = chained.index(ref)
        if i <= len(chained) - 1 - i:
            chained.insert(0, new)
        else:
            chained.append(new)

    for u, v in gates:
        cu, cv = ion_home[u], ion_home[v]
        if cu == cv or not (in_v[cu] or in_v[cv]):
            continue
        if in_v[cu] and in_v[cv]:
            chained.extend((cu, cv))
            in_v[cu] = in_v[cv] = False
        elif in_v[cu]:
            place_closest(cv, cu)
            in_v[cu] = False
        else:
            place_closest(cu, cv)
            in_v[cv] = False
    for idx, still in enumerate(in_v):
        if still:
            chained.append(idx)
    return Ordering(tuple(crystals[i] for i in chained), "ipo")


def reverse_ordering(ordering: Ordering) -> Ordering:
    """Mirror the layout end to end (the cost-equivalent twin)."""
    groups = tuple(tuple(reversed(g)) for g in reversed(ordering.crystal_list))
    return Ordering(groups, ordering.method, ordering.seed)


def place_in_the_model(state: TrapState, ordering: Ordering, circuit: Circuit) -> None:
    """Realize an ordering as initial crystals in an empty trap.

    Crystals sit at consecutive segments separated by the minimum spacing,
    offset so the crystal holding the first gate's first operand lands in
    the LIZ (gateless circuits anchor the first crystal there).  If the
    anchored block sticks out of the trap it is shifted minimally inward.
    """
    if state.crystals:
        raise ValueError("placement needs an empty trap")
    flat = sorted(ordering.ions())
    if flat != list(range(1, circuit.n_qubits + 1)):
        raise ValueError("ordering does not partition the circuit's ions")

    cfg = state.config
    groups = ordering.crystal_list
    stride = 2
    span = (len(groups) - 1) * stride
    if span + 1 > cfg.n_segments:
        raise CapacityExceeded(
            f"{len(groups)} crystals at stride {stride} exceed {cfg.n_segments} segments")

    anchor = 0
    if circuit.gates:
        first_ion = circuit.gates[0].operands[0] + 1
        anchor = next(i for i, g in enumerate(groups) if first_ion in g)
    base = cfg.liz - anchor * stride
    base = max(base, 1)
    base = min(base, cfg.n_segments - span)
    for i, group in enumerate(groups):
        state.place_crystal(list(group), base + i * stride)
