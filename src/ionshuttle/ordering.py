"""Initial qubit-to-position assignment heuristics and trap placement.

Three strategies produce the top-to-bottom crystal layout before any
shuttling: order-as-is (ions paired left to right), order-inputs-randomly
(a seeded uniform shuffle, paired), and increase-pairwise-order, a two-pass
greedy that first groups ions gated together into crystals and then chains
crystals so consecutive gate partners sit next to each other.

Ion ids are 1-based and encode qubit ``q`` as ion ``q + 1``.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .qasm import Circuit
from .trap import CapacityExceeded, TrapConfig, TrapState

STRIDE = 2  # segments from one placed crystal to the next


@dataclass(frozen=True)
class Ordering:
    """Top-to-bottom layout: each group is one crystal's ion order."""

    crystal_list: tuple[tuple[int, ...], ...]

    def ions(self) -> tuple[int, ...]:
        return tuple(ion for group in self.crystal_list for ion in group)


def paired(ions: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A crystal list of ``ions`` paired left to right, the last one alone
    when their count is odd."""
    return tuple(ions[i:i + 2] for i in range(0, len(ions), 2))


def _gate_ions(circuit: Circuit) -> list[tuple[int, int]]:
    return [(g.operands[0] + 1, g.operands[1] + 1) for g in circuit.gates
            if len(g.operands) == 2]


def order_as_is(circuit: Circuit) -> Ordering:
    """Pair ions left to right: [{1,2},{3,4},...]."""
    return Ordering(paired(tuple(range(1, circuit.n_qubits + 1))))


def order_inputs_randomly(circuit: Circuit, seed: int) -> Ordering:
    """Uniformly random ion layout (Fisher-Yates shuffle of the seeded
    generator), paired into crystals; deterministic per seed."""
    ions = list(range(1, circuit.n_qubits + 1))
    random.Random(seed).shuffle(ions)
    return Ordering(paired(tuple(ions)))


def increase_pairwise_order(circuit: Circuit) -> Ordering:
    """Two-pass greedy layout.

    Pass 1 scans the gate list and pairs two-qubit-gate partners that are
    both still unplaced into a crystal; leftovers are paired in ascending
    ion order.  Pass 2 scans the gates again and chains crystals into the
    final list: when a gate spans two crystals and at least one is still
    unchained, the pair is appended adjacently (both unchained) or the
    unchained one is placed at the end of the chain nearer its partner,
    ties going to the top.  Crystals still unchained are appended at the
    bottom, preserving pass-1 order.
    """
    gates = _gate_ions(circuit)

    # pass 1: group co-gated ions into crystals
    crystals: list[tuple[int, ...]] = []
    home: dict[int, int] = {}
    for u, v in gates:
        if u not in home and v not in home:
            home[u] = home[v] = len(crystals)
            crystals.append((u, v))
    leftovers = [ion for ion in range(1, circuit.n_qubits + 1) if ion not in home]
    for i in range(0, len(leftovers), 2):
        group = tuple(leftovers[i:i + 2])
        for ion in group:
            home[ion] = len(crystals)
        crystals.append(group)

    # pass 2: chain crystals so gate partners end up adjacent
    chained: list[int] = []
    for u, v in gates:
        cu, cv = home[u], home[v]
        if cu == cv or (cu in chained and cv in chained):
            continue
        if cu not in chained and cv not in chained:
            chained.extend((cu, cv))
            continue
        new, ref = (cu, cv) if cv in chained else (cv, cu)
        i = chained.index(ref)
        chained.insert(0 if i <= len(chained) - 1 - i else len(chained), new)
    chained += [c for c in range(len(crystals)) if c not in chained]
    return Ordering(tuple(crystals[i] for i in chained))


def reverse_ordering(ordering: Ordering) -> Ordering:
    """Mirror the layout end to end (the cost-equivalent twin)."""
    groups = tuple(tuple(reversed(g)) for g in reversed(ordering.crystal_list))
    return Ordering(groups)


def check_capacity(n_crystals: int, config: TrapConfig) -> None:
    """Raise CapacityExceeded unless ``n_crystals`` placed at ``STRIDE``
    fit the trap."""
    if (n_crystals - 1) * STRIDE + 1 > config.n_segments:
        raise CapacityExceeded(f"{n_crystals} crystals at stride {STRIDE} "
                               f"exceed {config.n_segments} segments")


def check_register(n_qubits: int, config: TrapConfig) -> None:
    """Raise CapacityExceeded unless ``n_qubits`` fit the trap in one crystal
    per two ions, rounded up, as every heuristic lays them out."""
    check_capacity((n_qubits + 1) // 2, config)


def check_layout(circuit: Circuit, crystal_list) -> None:
    """Raise ``ValueError`` unless the top-to-bottom ``crystal_list``
    splits exactly the circuit's ions into crystals of one or two."""
    flat = sorted(itertools.chain.from_iterable(crystal_list))
    if (flat != list(range(1, circuit.n_qubits + 1))
            or not set(map(len, crystal_list)) <= {1, 2}):
        raise ValueError("layout must split the circuit's ions into crystals "
                         "of one or two")


def place_in_the_model(state: TrapState, ordering: Ordering, circuit: Circuit) -> None:
    """Realize an ordering as initial crystals in an empty trap.

    Crystals sit at consecutive segments separated by the minimum spacing,
    offset so the crystal holding the first gate's first operand lands in
    the LIZ (gateless circuits anchor the first crystal there).  If the
    anchored block sticks out of the trap it is shifted minimally inward.
    """
    if state.seg_crystal:
        raise ValueError("placement needs an empty trap")
    groups = ordering.crystal_list
    check_layout(circuit, groups)
    cfg = state.config
    check_capacity(len(groups), cfg)
    span = (len(groups) - 1) * STRIDE

    anchor = 0
    if circuit.gates:
        first_ion = circuit.gates[0].operands[0] + 1
        anchor = next(i for i, g in enumerate(groups) if first_ion in g)
    base = cfg.liz - anchor * STRIDE
    base = max(base, 1)
    base = min(base, cfg.n_segments - span)
    for i, group in enumerate(groups):
        state.place_crystal(list(group), base + i * STRIDE)
