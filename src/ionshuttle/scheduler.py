"""Shuttling-sequence generation: a logical planner and its physical lowering.

The planner sees only the crystal chain: the crystals from the top of the
trap to the bottom, each an ordered list of its one or two ions.  Gates are
planned in circuit order.  A gate whose ions share a crystal (or a one-qubit
gate) needs no exchange.  Otherwise the gate's first-listed operand travels
toward its partner one crystal at a time: each step ``(ion, partner, d,
runs_gate)`` exchanges ``ion`` with ``partner`` in the next crystal in
direction ``d`` (+1 down, -1 up).  The partner is the ion facing the
traveler, or the gate's other operand in the last step, which runs the
gate.  ``partner`` ends at the ``+d`` end of the traveler's old crystal,
and the traveler at the ``-d`` end of the partner's.  Crystals
never pass each other or change size, so a step costs 2 split+merge plus 2
for each two-ion crystal among the two (3 splits and 3 merges between two
pairs), and ``plan_cost`` gives a layout's cost without touching a trap.

The lowering (``schedule``) reads the chain off a placed trap, in segment
order, and turns every planned step into the fixed split/merge
choreography: orient both crystals so the two ions face each other, split
each two-ion crystal, stage the two travelers beside the LIZ, merge, rotate
(so the ions part in exchanged directions), run the gate when the step asks
for it, split, and re-merge the leftover partners into their home crystals.
A gate without steps brings its crystal to the LIZ and runs there.

Crystals blocking a transport are pushed recursively one spacing beyond the
mover's destination and are not restored afterwards.  Split, merge,
rotation and gate execution are bracketed by add/remove-empty-well commands
at the two segments beyond the staging sites whenever those hold no
crystal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .commands import CommandSequence
from .qasm import Circuit, Gate
from .trap import Crystal, TrapOverflow, TrapState


@dataclass
class ScheduleResult:
    sequence: CommandSequence
    cost: int
    per_gate_costs: list[int]
    final_state: TrapState


# -- planner -------------------------------------------------------------------


def _plan_gate(chain: list[list[int]], where: dict[int, int],
               gate: Gate) -> list[tuple[int, int, int, bool]]:
    """The exchange steps of one gate, applied to ``chain`` and to
    ``where`` (ion -> chain index) as they are planned.

    The traveler is the gate's first-listed operand, not the upper one:
    that keeps the whole schedule mirror-covariant, so a layout and its
    end-to-end reversal always cost the same."""
    if len(gate.operands) == 1:
        return []
    a, b = gate.operands[0] + 1, gate.operands[1] + 1
    i, j = where[a], where[b]
    d = 1 if i < j else -1
    steps = []
    while i != j:
        k = i + d
        home, dest = chain[i], chain[k]
        partner = b if k == j else dest[0 if d > 0 else -1]
        steps.append((a, partner, d, k == j))
        home.remove(a)
        dest.remove(partner)
        if d > 0:
            home.append(partner)
            dest.insert(0, a)
        else:
            home.insert(0, partner)
            dest.append(a)
        where[a], where[partner] = k, i
        i = k
    return steps


def plan(circuit: Circuit, crystal_list) -> tuple[int, list[list[int]]]:
    """Plan ``circuit`` on the top-to-bottom layout ``crystal_list``; return
    the split+merge cost and the final chain."""
    chain = [list(ions) for ions in crystal_list]
    flat = sorted(ion for ions in chain for ion in ions)
    if (flat != list(range(1, circuit.n_qubits + 1))
            or any(not 1 <= len(ions) <= 2 for ions in chain)):
        raise ValueError("layout must split the circuit's ions into crystals "
                         "of one or two")
    where = {ion: i for i, ions in enumerate(chain) for ion in ions}
    pair = [len(ions) == 2 for ions in chain]   # fixed: exchanges keep sizes
    cost = 0
    for gate in circuit.gates:
        # a step's partner moves once, into the slot the traveler left
        for _, partner, d, _ in _plan_gate(chain, where, gate):
            home = where[partner]
            cost += 2 + 2 * (pair[home] + pair[home + d])
    return cost, chain


def plan_cost(circuit: Circuit, crystal_list) -> int:
    """The split+merge cost ``schedule`` reaches from this layout."""
    return plan(circuit, crystal_list)[0]


def crystal_chain(state: TrapState) -> list[list[int]]:
    """The trap's crystals in segment order, each as its ion order."""
    seg_map = state.seg_crystal
    return [list(seg_map[s].ions) for s in sorted(seg_map)]


# -- lowering --------------------------------------------------------------------


class _Scheduler:
    def __init__(self, state: TrapState):
        self.state = state
        cfg = state.config
        self.liz = cfg.liz
        self.n_segments = cfg.n_segments
        # precomputed well-bracket commands for the fixed sites beside the LIZ
        self.well_cmds = tuple(
            (s, ("AEC", (s,)), ("REC", (s,)))
            for s in (cfg.liz - 2, cfg.liz + 2) if 1 <= s <= cfg.n_segments)

    # -- transport ---------------------------------------------------------

    def _send(self, crystal: Crystal, target: int) -> None:
        """Move a crystal to ``target``, recursively pushing blockers one
        spacing (2 segments) beyond the target, in the direction of travel.

        Steps are applied inline: the blocker scan already proves the next
        segment safe, so re-validating through move_crystal_step would only
        repeat it (replay still validates every emitted move independently).
        """
        if not 1 <= target <= self.n_segments:
            raise TrapOverflow(f"transport target {target} outside trap")
        state = self.state
        seg_map = state.seg_crystal
        history = state.history
        record = state.record
        nseg = self.n_segments
        moved = False
        # explicit push stack: resolving a blocker suspends the mover's frame
        stack = [(crystal, target)]
        while stack:
            crystal, target = stack[-1]
            seg = crystal.segment
            if seg == target:
                stack.pop()
                continue
            d = 1 if target > seg else -1
            op = "SMD" if d > 0 else "SMU"
            push_to = target + 2 * d
            blocked = False
            while seg != target:
                nxt = seg + d
                # the next step is legal unless a crystal sits at nxt or beyond it
                blocker = nxt if nxt in seg_map else (
                    nxt + d if nxt + d in seg_map else 0)
                if blocker:
                    if not 1 <= push_to <= nseg:
                        raise TrapOverflow(
                            f"push chain from segment {blocker} leaves the trap")
                    stack.append((seg_map[blocker], push_to))
                    blocked = True
                    break
                del seg_map[seg]
                seg_map[nxt] = crystal
                crystal.segment = nxt
                moved = True
                if record:
                    history.append((op, (1, seg)))
                seg = nxt
            if not blocked:
                stack.pop()
        if moved:
            state.scheduling_started = True

    def _bring_to_liz(self, crystal: Crystal) -> None:
        if crystal.segment != self.liz:
            self._send(crystal, self.liz)

    def _clear_split_zone(self) -> None:
        """Push away crystals that would sit too close to the split products
        at liz-1 / liz+1 (the splittee itself excepted)."""
        seg_map = self.state.seg_crystal
        for side in (-1, 1):
            stage = self.liz + side
            beyond = stage + side
            push_to = beyond + side
            while stage in seg_map or beyond in seg_map:
                if not 1 <= push_to <= self.n_segments:
                    raise TrapOverflow(f"no room beside the LIZ at segment {push_to}")
                self._send(seg_map[stage if stage in seg_map else beyond], push_to)

    # -- LIZ operations with the empty-well bracket --------------------------

    def _at_liz(self, primitive, *args):
        """Run a LIZ primitive between balancing wells added beside the
        staging sites that hold no crystal, and return its result.  The
        wells' preconditions hold by construction, so the well set and
        history are updated directly."""
        state = self.state
        seg_map = state.seg_crystal
        active = tuple(w for w in self.well_cmds if w[0] not in seg_map)
        record = state.record
        wells = state.wells
        history = state.history
        for s, aec, _ in active:
            wells.add(s)
            if record:
                history.append(aec)
        out = primitive(*args)
        for s, _, rec in active:
            wells.discard(s)
            if record:
                history.append(rec)
        return out

    def _split(self, d: int) -> tuple[Crystal, Crystal]:
        """Split the LIZ crystal; return (product on side -d, product on
        side +d), where side +1 is below the LIZ."""
        self._clear_split_zone()
        above, below = self._at_liz(self.state.split_at_liz)
        return (above, below) if d > 0 else (below, above)

    def _rotate_crystal(self, crystal: Crystal) -> None:
        self._bring_to_liz(crystal)
        self._at_liz(self.state.rotate_at_liz)

    # -- exchange ------------------------------------------------------------

    def _exchange(self, ion_a: int, ion_b: int, d: int, do_gate: bool,
                  gate_index: int) -> None:
        """Exchange ion_a with ion_b from the adjacent crystal in direction
        ``d`` (+1: below, -1: above), running the gate on the temporary
        merged crystal when requested.  ion_a ends in ion_b's crystal and
        ion_b in ion_a's; the choreography (and so the cost) is the same
        either way, with every direction and intra-crystal end flipped."""
        state = self.state
        liz = self.liz
        c1 = state.crystal_of(ion_a)
        c4 = state.crystal_of(ion_b)
        # orient so the travelers face each other (no-ops for singletons)
        back = 0 if d > 0 else -1
        if len(c1.ions) == 2 and c1.ions[back] == ion_a:
            self._rotate_crystal(c1)
        if len(c4.ions) == 2 and c4.ions[-1 - back] == ion_b:
            self._rotate_crystal(c4)

        c1_pair = len(c1.ions) == 2
        c4_pair = len(c4.ions) == 2
        if c1_pair:
            self._bring_to_liz(c1)
            partner_a, traveler_a = self._split(d)
        else:
            traveler_a = c1
        if c4_pair:
            self._bring_to_liz(c4)
            partner_b, traveler_b = self._split(-d)
        else:
            traveler_b = c4

        self._send(traveler_a, liz - d)
        self._send(traveler_b, liz + d)
        self._at_liz(state.merge_at_liz)   # ion_a on the -d side of ion_b
        self._at_liz(state.rotate_at_liz)  # swap them, so they part exchanged
        if do_gate:
            self._at_liz(state.record_gate, gate_index)
        out_b, out_a = self._split(d)      # ion_a on the +d side

        if c1_pair:
            self._send(partner_a, liz - d)
            self._send(out_b, liz + d)
            self._at_liz(state.merge_at_liz)  # ion_a's old home, now holding ion_b
        if c4_pair:
            self._send(out_a, liz - d)
            self._send(partner_b, liz + d)
            self._at_liz(state.merge_at_liz)  # ion_b's old home, now holding ion_a

    def run_gate(self, gate: Gate, steps) -> None:
        """Lower one gate's planned steps; a gate without steps runs on its
        first operand's crystal, brought to the LIZ."""
        if not steps:
            self._bring_to_liz(self.state.ion_crystal[gate.operands[0] + 1])
            self._at_liz(self.state.record_gate, gate.index)
        for ion, partner, d, runs_gate in steps:
            self._exchange(ion, partner, d, runs_gate, gate.index)


def send_to_segment(state: TrapState, crystal: Crystal, target: int) -> None:
    """Transport one crystal to ``target``, pushing blockers out of the way
    (each single-segment step is emitted as its own move command)."""
    if state.seg_crystal.get(crystal.segment) is not crystal:
        raise ValueError("crystal is not in the trap (split or merged away?)")
    _Scheduler(state)._send(crystal, target)


def ion_permutation(state: TrapState, ion_a: int, ion_b: int, do_gate: bool,
                    gate_index: int = 0) -> None:
    """Exchange two ions between adjacent crystals (ion_a's crystal above)."""
    ca = state.crystal_of(ion_a)
    cb = state.crystal_of(ion_b)
    if ca is cb:
        raise ValueError("ions already share a crystal")
    if ca.segment > cb.segment:
        raise ValueError("ion_a must sit in the upper crystal")
    if any(ca.segment < s < cb.segment for s in state.seg_crystal):
        raise ValueError("crystals are not adjacent in the trap order")
    _Scheduler(state)._exchange(ion_a, ion_b, 1, do_gate, gate_index)


def schedule(circuit: Circuit, state: TrapState) -> ScheduleResult:
    """Generate the full shuttling program for ``circuit`` from a placed trap.

    Every gate is executed exactly once at the LIZ, in circuit order; the
    reported cost is the number of split and merge commands emitted, which
    equals ``plan_cost`` of the placed chain.  A ``TrapOverflow`` names the
    gate and the occupied span of the trap when it happened.
    """
    expected = set(range(1, circuit.n_qubits + 1))
    if set(state.ion_crystal) != expected:
        raise ValueError("trap does not hold exactly the circuit's ions")
    if state.check_spacing():
        raise ValueError("initial state violates crystal spacing")
    sch = _Scheduler(state)
    chain = crystal_chain(state)
    where = {ion: i for i, ions in enumerate(chain) for ion in ions}
    per_gate: list[int] = []
    for gate in circuit.gates:
        before = state.s_count + state.m_count
        try:
            sch.run_gate(gate, _plan_gate(chain, where, gate))
        except TrapOverflow as e:
            occupied = state.occupied_segments()
            raise TrapOverflow(
                f"gate {gate.index}: {e} (occupied segments "
                f"{occupied[0]}-{occupied[-1]} of {state.config.n_segments})") from e
        per_gate.append(state.s_count + state.m_count - before)
    sequence = CommandSequence(state.config.n_segments, state.config.liz,
                               list(state.history))
    return ScheduleResult(sequence, state.s_count + state.m_count, per_gate, state)
