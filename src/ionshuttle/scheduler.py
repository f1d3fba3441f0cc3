"""Shuttling-sequence generation: a logical planner and its physical lowering.

The planner sees only the crystal chain: the crystals from the top of the
trap to the bottom, each an ordered list of its one or two ions.  Gates are
planned in circuit order.  A gate whose ions share a crystal (or a one-qubit
gate) needs no exchange.  Otherwise the gate's first-listed operand travels
toward its partner one crystal at a time: each step ``(i, ion, partner, d,
runs_gate)`` exchanges ``ion`` in chain crystal ``i`` with ``partner`` in
crystal ``i + d`` (+1 down, -1 up).  The partner is the ion facing the
traveler, or the gate's other operand in the last step, which runs the
gate.  ``partner`` ends at the ``+d`` end of the traveler's old crystal,
and the traveler at the ``-d`` end of the partner's.  Crystals never pass
each other or change size, so a step costs 2 split+merge plus 2 for each
two-ion crystal among the two (3 splits and 3 merges between two pairs);
the planner prices each step, and ``plan_cost`` a layout, without a trap.

``rank_flat`` is the one ranking core.  It reads a stream of flat ion
tuples, the ion order from the top of the chain to the bottom, whose
crystals share one size pattern, and ranks them in one pass over the gates.
The first two-qubit gate takes each tuple as it arrives and merges it
straight into a dict keyed by the chain it reaches, so the stream is never
held.  Each key holds the cost planned so far and the index of the first
tuple that reached it.  Two tuples that reach one chain at the same gate
pay the same for every later gate, so the entry keeps the smaller ``(cost,
index)`` of the two, and the result is the lexicographic minimum over the
stream, the first cheapest in stream order.  Tuples collapse onto a few
chains within a few gates.  ``cheapest_layout`` checks a list of layouts,
groups them by crystal sizes and ranks each group through ``rank_flat``;
the exhaustive oracle (``benchmarks.brute_force_best_ordering``) streams
its generated permutations into it unchecked.

A gate is planned once per distinct move, not once per chain.  A step
reads the crystal sizes and where the gate's two ions sit; every other ion
only rides along.  So on every chain of one size pattern, a gate whose
operands sit at flat positions ``pa`` and ``pb`` is one reordering of
positions at one split+merge cost.  ``_position_move`` plans it once with
``_plan_gate`` on a chain of position labels, and ``rank_flat``, whose
stream shares one size pattern, keeps it under ``(pa, pb)`` as an
``itemgetter`` and the cost, and applies the ``itemgetter`` to every flat
chain it meets there.  Sizes never change, so layouts of different size
patterns never merge and are ranked apart; a 6-qubit oracle call plans at
most 30 moves.  This is exact only while a step reads nothing but the
sizes, its operands' positions and the gate's position in the circuit.
Whatever else a policy reads must join the keys: a lookahead over the next
gates reads where their operands sit, so those positions join the move
key, and any state a step carries from one gate to the next joins both the
merge key and the move key.

The lowering (``schedule``) copies each of the placed trap's ion lists
once into its own ``Crystal`` record, with the segment, and never writes
the trap: it keeps its own chain of records (a split replaces one entry
with two, a merge two with one), its own command list and its own
split+merge count.  Every planned step becomes one fixed choreography,
written once for both sides of the exchange: a side is a crystal, its
traveler and the direction toward the other side, ``d`` for crystal ``i``
and ``-d`` for crystal ``i + d``.  Each side orients its crystal so the
traveler faces the other side and splits it if it holds two ions; the two
travelers meet at the LIZ, rotate (so the ions part in exchanged
directions), run the gate when the step asks for it and split; then each
side's partner meets the product that now holds the other side's ion.
``_meet`` is the one merge: it stages two crystals at liz-d and liz+d and
merges them.  A gate without steps brings its crystal to the LIZ and runs
there.

Each step is lowered once per distinct state and call: ``_step`` keys a
memo in the ``_Lowering`` by the segment of every chain crystal, ``i``,
``d``, whether the step runs the gate and whether each side must rotate
first.  Commands name segments and gate indices, never ions, and crystal
sizes are fixed for the whole call, so these fix every command a step
emits, where each crystal ends and which position of the two exchanged
crystals each of their ions ends at.  A miss runs ``_exchange`` and stores
its commands, the offset of its ``DG`` (``_exchange`` returns where it
emitted it), the new segments, the two new crystals as positions into the
old two, top first, and the split+merge count; a hit replays them with
this gate's own ``DG``.  A step that overflows is never stored, so a hit
cannot overflow.  This is exact only while the key holds all the lowering
reads: anything a step reads or carries beyond it, such as a meeting point
off the LIZ, a train of crystals moved in lockstep or a side on which
wells are held, joins the key.

Crystals never pass each other, so a transport's only possible blocker is
the mover's chain neighbour ahead; ``_send`` pushes it through an explicit
stack one spacing beyond the mover's destination, does not restore it, and
alone checks that every move stays in the trap.  Split, merge, rotation and
gate execution are bracketed by add/remove-empty-well commands at the two
segments beyond the staging sites whenever those hold no crystal.
``schedule`` is the one entry point into the lowering; it plans the gates
with ``_planned``, as ``plan`` does, and checks each gate's split+merge
count against its plan.  Nothing here runs the executor: ``commands.replay``
checks what it emits.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .commands import DIRECTION, CommandSequence, RawCommand
from .ordering import check_layout
from .qasm import Circuit, Gate
from .trap import TrapOverflow, TrapState


@dataclass
class ScheduleResult:
    sequence: CommandSequence
    cost: int
    per_gate_costs: list[int]


# -- planner -------------------------------------------------------------------


def _plan_gate(chain: list[list[int]], where: dict[int, int], gate: Gate
               ) -> tuple[list[tuple[int, int, int, int, bool]], int]:
    """The exchange steps ``(i, ion, partner, d, runs_gate)`` of one gate,
    ``i`` indexing the crystal the traveler leaves, and their split+merge
    cost; applied to ``chain`` and ``where`` (ion -> chain index) as planned.

    The traveler is the gate's first-listed operand, not the upper one:
    that keeps the whole schedule mirror-covariant, so a layout and its
    end-to-end reversal always cost the same."""
    if len(gate.operands) == 1:
        return [], 0
    a, b = gate.operands[0] + 1, gate.operands[1] + 1
    i, j = where[a], where[b]
    d = 1 if i < j else -1
    steps, cost = [], 0
    while i != j:
        k = i + d
        home, dest = chain[i], chain[k]
        partner = b if k == j else dest[0 if d > 0 else -1]
        steps.append((i, a, partner, d, k == j))
        cost += 2 + 2 * ((len(home) == 2) + (len(dest) == 2))  # sizes never change
        home.remove(a)
        dest.remove(partner)
        # each now holds at most one ion, so index d is its +d end, -d its -d end
        home.insert(d, partner)
        dest.insert(-d, a)
        where[a], where[partner] = k, i
        i = k
    return steps, cost


def _planned(circuit: Circuit, chain: list[list[int]]) -> list[tuple[list, int]]:
    """Check the layout ``chain``, then plan every gate on it in circuit
    order; return each gate's ``(steps, cost)``.  ``chain`` ends as the
    final chain."""
    check_layout(circuit, chain)
    where = {ion: i for i, ions in enumerate(chain) for ion in ions}
    return [_plan_gate(chain, where, gate) for gate in circuit.gates]


def plan(circuit: Circuit, crystal_list) -> tuple[int, list[list[int]]]:
    """Plan ``circuit`` on the top-to-bottom layout ``crystal_list``; return
    the split+merge cost and the final chain."""
    chain = [list(ions) for ions in crystal_list]
    return sum(map(itemgetter(1), _planned(circuit, chain))), chain


def plan_cost(circuit: Circuit, crystal_list) -> int:
    """The split+merge cost ``schedule`` reaches from this layout."""
    return plan(circuit, crystal_list)[0]


def _position_move(sizes: tuple[int, ...], pa: int, pb: int
                   ) -> tuple[itemgetter, int]:
    """One gate as a move of positions: for a chain of crystals of
    ``sizes`` whose flat ion order holds the gate's first operand at
    position ``pa`` and its second at ``pb``, the ``itemgetter`` that
    reorders a flat ion tuple into the planned chain's, and the gate's
    split+merge cost.  ``_plan_gate`` plans it once on ions labelled by
    position (label p + 1 at position p, so the positions are the gate's
    qubits)."""
    labels = iter(range(1, sum(sizes) + 1))
    chain = [[next(labels) for _ in range(size)] for size in sizes]
    where = {label: i for i, ions in enumerate(chain) for label in ions}
    cost = _plan_gate(chain, where, Gate(0, "cz", (pa, pb)))[1]
    return itemgetter(*(label - 1 for ions in chain for label in ions)), cost


def rank_flat(circuit: Circuit, sizes: tuple[int, ...], flats) -> tuple[int, int]:
    """The index and planned cost of the cheapest flat ion tuple in the
    stream ``flats``, the first in stream order among equals.  Each tuple
    is a valid layout in crystals of ``sizes``; the stream is read once,
    lazily, and not checked.  With no two-qubit gate every tuple costs 0;
    an empty stream is a ``ValueError``.  The module docstring says how
    chains merge and move, and why that is exact."""
    # (flat ion order, (cost so far, index of the first tuple that reached it))
    reached = zip(flats, zip(itertools.repeat(0), itertools.count()))
    moves: dict[tuple[int, int], tuple[itemgetter, int]] = {}
    # the other gates never change a chain
    for gate in circuit.two_qubit_gates():
        a, b = gate.operands[0] + 1, gate.operands[1] + 1
        merged: dict[tuple, tuple[int, int]] = {}
        for flat, (cost, i) in reached:
            at = flat.index(a), flat.index(b)
            move = moves.get(at)
            if move is None:
                move = moves[at] = _position_move(sizes, *at)
            reorder, step = move
            flat = reorder(flat)
            ranked = (cost + step, i)
            old = merged.get(flat)
            if old is None or ranked < old:
                merged[flat] = ranked
        reached = merged.items()
    best = min((ranked for _, ranked in reached), default=None)
    if best is None:
        raise ValueError("no layout to rank")
    cost, i = best
    return i, cost


def cheapest_layout(circuit: Circuit, crystal_lists) -> tuple[int, int]:
    """The index and planned cost of the cheapest layout in
    ``crystal_lists``, the first in list order among equals: the same as
    ``min((plan_cost(circuit, L), i) for i, L in enumerate(crystal_lists))``
    with the pair swapped.

    Every layout is checked with ``check_layout`` first.  The layouts are
    then grouped by their crystal sizes, since sizes never change and
    layouts of different size patterns never meet, and each group's flat
    ion tuples are ranked by ``rank_flat``."""
    groups: dict[tuple, tuple[list, list]] = {}  # sizes -> (flats, indices)
    for i, layout in enumerate(crystal_lists):
        check_layout(circuit, layout)
        flats, indices = groups.setdefault(tuple(map(len, layout)), ([], []))
        flats.append(tuple(itertools.chain.from_iterable(layout)))
        indices.append(i)
    if not groups:
        raise ValueError("no layout to rank")
    best = []
    for sizes, (flats, indices) in groups.items():
        j, cost = rank_flat(circuit, sizes, flats)
        best.append((cost, indices[j]))
    cost, i = min(best)
    return i, cost


def crystal_chain(state: TrapState) -> list[list[int]]:
    """The trap's crystals in segment order, each as its ion order."""
    seg_map = state.seg_crystal
    return [list(seg_map[s]) for s in sorted(seg_map)]


# -- lowering --------------------------------------------------------------------


class Crystal:
    """The lowering's record of one crystal: its ions, top first, and the
    segment it has reached."""

    __slots__ = ("ions", "segment")

    def __init__(self, ions: list[int], segment: int):
        self.ions = ions
        self.segment = segment


class _Lowering:
    """The lowering's top-to-bottom ``chain`` of crystals, the commands it
    emitted (``out``), their split+merge ``cost`` and the ``memo`` of the
    steps it lowered, for one ``schedule`` call."""

    def __init__(self, state: TrapState):
        cfg = state.config
        self.liz = liz = cfg.liz
        self.n_segments = n = cfg.n_segments
        seg_map = state.seg_crystal
        self.chain = [Crystal(list(seg_map[s]), s) for s in sorted(seg_map)]
        self.out: list[RawCommand] = []
        self.cost = 0
        # one command per origin segment for each single-step move
        self.steps = {d: [(op, (1, s)) for s in range(n + 1)]
                      for op, d in DIRECTION.items()}
        # the well-bracket commands for the fixed sites beside the LIZ
        self.well_cmds = tuple((s, ("AEC", (s,)), ("REC", (s,)))
                               for s in (liz - 2, liz + 2) if 1 <= s <= n)
        # the one rotation, always at the LIZ
        self.rotate = ("RC", (liz,))
        self.memo: dict[tuple, tuple] = {}

    def _send(self, crystal: Crystal, target: int) -> None:
        """Move a crystal to ``target``, stopping one spacing (2 segments)
        short of the one possible blocker, the chain neighbour ahead, which
        an explicit stack then pushes one spacing beyond the target.  Any
        target off the trap, the mover's or a blocker's, is a ``TrapOverflow``.
        The check runs once per distinct step state of a call: a step
        replayed from the memo does not move through here again."""
        chain, n = self.chain, self.n_segments
        # explicit push stack of (chain index, target): resolving a blocker
        # suspends the mover's frame
        stack = [(chain.index(crystal), target)]
        while stack:
            i, target = stack[-1]
            crystal = chain[i]
            seg = crystal.segment
            if seg == target:
                stack.pop()
                continue
            if not 1 <= target <= n:
                raise TrapOverflow(f"push chain from segment {seg} leaves the trap")
            d = 1 if target > seg else -1
            j = i + d
            stop = target
            if 0 <= j < len(chain) and (chain[j].segment - 2 * d - target) * d < 0:
                stop = chain[j].segment - 2 * d
            self.out.extend(self.steps[d][seg:stop:d])
            crystal.segment = stop
            if stop != target:
                stack.append((j, target + 2 * d))

    # -- LIZ operations with the empty-well bracket --------------------------

    def _at_liz(self, cmd: RawCommand, lo: int, hi: int) -> int:
        """Emit a LIZ command between balancing wells added beside the
        staging sites that hold no crystal, and return its index in ``out``.
        ``lo``..``hi`` index the crystals at or beside the LIZ, so only their
        outer chain neighbours can sit on a well site."""
        chain, out = self.chain, self.out
        recs = []
        for s, aec, rec in self.well_cmds:
            j = lo - 1 if s < self.liz else hi + 1
            if not (0 <= j < len(chain) and chain[j].segment == s):
                out.append(aec)
                recs.append(rec)
        out.append(cmd)
        at = len(out) - 1
        out.extend(recs)
        return at

    def _run(self, crystal: Crystal, cmd: RawCommand) -> int:
        """Bring a crystal to the LIZ and rotate it or run a gate on it;
        return the command's index in ``out``."""
        self._send(crystal, self.liz)
        k = self.chain.index(crystal)
        at = self._at_liz(cmd, k, k)
        if cmd[0] == "RC":
            crystal.ions.reverse()
        return at

    def _split(self, crystal: Crystal, d: int) -> tuple[Crystal, Crystal]:
        """Bring a two-ion crystal to the LIZ and split it, first pushing away
        a neighbour at liz-2 / liz+2 (``_send`` leaves none nearer), which
        would crowd the products at liz-1 / liz+1; return (product on side
        -d, product on side +d), where side +1 is below the LIZ."""
        liz, chain = self.liz, self.chain
        self._send(crystal, liz)
        k = chain.index(crystal)
        for side in (-1, 1):
            j = k + side
            if 0 <= j < len(chain) and chain[j].segment == liz + 2 * side:
                self._send(chain[j], liz + 3 * side)
        self._at_liz(("S", ()), k, k)
        above = Crystal(crystal.ions[:1], liz - 1)
        below = Crystal(crystal.ions[1:], liz + 1)
        chain[k:k + 1] = [above, below]
        self.cost += 1
        return (above, below) if d > 0 else (below, above)

    def _meet(self, a: Crystal, b: Crystal, d: int) -> Crystal:
        """Stage ``a`` at liz-d, then its chain neighbour ``b`` at liz+d, and
        merge them, top ions first: every merge of an exchange."""
        liz, chain = self.liz, self.chain
        self._send(a, liz - d)
        self._send(b, liz + d)
        k = chain.index(a) - (d < 0)  # the upper of the two
        self._at_liz(("M", ()), k, k + 1)
        merged = Crystal(chain[k].ions + chain[k + 1].ions, liz)
        chain[k:k + 2] = [merged]
        self.cost += 1
        return merged

    # -- exchange ------------------------------------------------------------

    def _exchange(self, i: int, ion_a: int, ion_b: int, d: int,
                  gate: int | None) -> int | None:
        """Exchange ion_a of chain crystal ``i`` with ion_b of crystal ``i + d``
        (+1: below, -1: above), running gate ``gate`` on the temporary
        merged crystal unless it is None.  ion_a ends in ion_b's crystal and
        ion_b in ion_a's.  Return the index in ``out`` of the gate's ``DG``,
        None without a gate.

        A side is a crystal, its traveler and the direction toward the other
        side.  Each phase runs once per side, side a's first: orient so the
        traveler faces the other side; split a pair, its partner staying on
        the far side; after the travelers' ``_meet``, rotation, gate and
        split, ``_meet`` the partner, staged at liz-e for direction e, with
        the product that holds the other side's ion."""
        chain, rotate = self.chain, self.rotate
        sides = ((chain[i], ion_a, d), (chain[i + d], ion_b, -d))
        for crystal, ion, e in sides:  # orient: ions[e > 0] faces the other side
            if len(crystal.ions) == 2 and crystal.ions[e > 0] != ion:
                self._run(crystal, rotate)
        # each side's (partner or None, traveler)
        parts = [self._split(crystal, e) if len(crystal.ions) == 2 else (None, crystal)
                 for crystal, _, e in sides]
        merged = self._meet(parts[0][1], parts[1][1], d)  # ion_a on the -d side
        self._run(merged, rotate)  # swap them, so they part exchanged
        dg = None if gate is None else self._run(merged, ("DG", (gate,)))
        # ion_b's product parts to the -d side and ion_a's to +d, each toward
        # the partner on its side; side b's partner sits one spacing beyond
        # its product, so staging it first only pushes the product ahead
        for (partner, _), product, e in zip(parts, self._split(merged, d), (d, -d)):
            if partner is not None:
                self._meet(partner, product, e)
        return dg

    def _step(self, i: int, ion_a: int, ion_b: int, d: int, gate: int | None) -> None:
        """``_exchange`` through the memo: a step whose key was lowered
        before in this call replays that lowering, its commands with this
        gate's ``DG``, its segments, its re-picked ions and its cost.  The
        module docstring gives the key and why a replay is exact."""
        chain, out = self.chain, self.out
        a, b = chain[i], chain[i + d]
        key = (tuple([c.segment for c in chain]), i, d, gate is not None,
               len(a.ions) == 2 and a.ions[d > 0] != ion_a,
               len(b.ions) == 2 and b.ions[d < 0] != ion_b)
        lo = min(i, i + d)
        ions = chain[lo].ions + chain[lo + 1].ions  # the two crystals' ions, top first
        start = len(out)
        hit = self.memo.get(key)
        if hit is None:
            cost = self.cost
            dg = self._exchange(i, ion_a, ion_b, d, gate)
            self.memo[key] = (
                out[start:], None if dg is None else dg - start,
                [c.segment for c in chain],
                ([ions.index(ion) for ion in chain[lo].ions],
                 [ions.index(ion) for ion in chain[lo + 1].ions]),
                self.cost - cost)
            return
        emitted, dg, segments, picks, cost = hit
        out.extend(emitted)
        if dg is not None:
            out[start + dg] = ("DG", (gate,))
        # the two exchanged crystals anew; the loop below sets every segment
        chain[lo:lo + 2] = [Crystal([ions[p] for p in pick], 0) for pick in picks]
        for crystal, segment in zip(chain, segments):
            crystal.segment = segment
        self.cost += cost

    def run_gate(self, gate: Gate, steps) -> None:
        """Lower one gate's planned steps; a gate without steps runs on its
        first operand's crystal, brought to the LIZ."""
        if not steps:
            ion = gate.operands[0] + 1
            self._run(next(c for c in self.chain if ion in c.ions),
                      ("DG", (gate.index,)))
        for i, ion, partner, d, runs_gate in steps:
            self._step(i, ion, partner, d, gate.index if runs_gate else None)


def schedule(circuit: Circuit, state: TrapState) -> ScheduleResult:
    """Generate the full shuttling program for ``circuit`` from a placed trap;
    the one entry point into the lowering.

    ``state`` is only read: the program opens with START and one AIC per
    ion in segment order, then lowers every gate at the LIZ exactly once,
    in circuit order.  The reported cost is the number of split and merge
    commands emitted; a gate that emits other than its planned count raises
    ``RuntimeError``, so it equals ``plan_cost`` of the placed chain.  A
    ``TrapOverflow`` names the gate and the occupied span of the trap when
    it happened.
    """
    plans = _planned(circuit, crystal_chain(state))
    if state.check_spacing():
        raise ValueError("initial state violates crystal spacing")
    low = _Lowering(state)
    low.out.append(("START", ()))
    low.out.extend(("AIC", (ion, c.segment)) for c in low.chain for ion in c.ions)
    per_gate: list[int] = []
    for gate, (steps, planned) in zip(circuit.gates, plans):
        before = low.cost
        try:
            low.run_gate(gate, steps)
        except TrapOverflow as e:
            raise TrapOverflow(
                f"gate {gate.index}: {e} (occupied segments {low.chain[0].segment}-"
                f"{low.chain[-1].segment} of {low.n_segments})") from e
        lowered = low.cost - before
        if lowered != planned:
            raise RuntimeError(f"gate {gate.index}: lowered cost {lowered}, planned {planned}")
        per_gate.append(lowered)
    sequence = CommandSequence(low.n_segments, low.liz, low.out)
    return ScheduleResult(sequence, low.cost, per_gate)
