"""Greedy shuttling-sequence generation.

Gates are processed in circuit order.  A gate whose ions share a crystal
only needs that crystal brought to the LIZ.  When the ions sit in different
crystals, the gate's first-listed operand is exchanged toward its partner
(up or down the trap) through the intervening crystals, one neighbor at a
time, until it reaches the crystal adjacent to its partner; the final
exchange executes the gate while both ions share the temporary merged
crystal.

Each exchange follows the fixed split/merge choreography: orient both
crystals so the traveling ions face each other, split each two-ion crystal,
stage the two travelers beside the LIZ, merge, rotate (so the ions part in
exchanged directions), optionally run the gate, split, and re-merge the
leftover partners into their home crystals.  A full exchange between two
two-ion crystals therefore costs exactly 3 splits and 3 merges.

Crystals blocking a transport are pushed recursively one spacing beyond the
mover's destination and are not restored afterwards.  Split, merge,
rotation and gate execution are bracketed by add/remove-empty-well commands
at the two segments beyond the staging sites whenever those hold no
crystal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .commands import CommandSequence
from .qasm import Circuit
from .trap import TrapOverflow, TrapState


@dataclass
class ScheduleResult:
    sequence: CommandSequence
    cost: int
    per_gate_costs: list[int]
    final_state: TrapState


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

    def _send(self, cid: int, target: int) -> None:
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
        crystals = state.crystals
        nseg = self.n_segments
        moved = False
        # explicit push stack: resolving a blocker suspends the mover's frame
        stack = [(cid, target)]
        while stack:
            cid, target = stack[-1]
            crystal = crystals[cid]
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
                seg_map[nxt] = cid
                crystal.segment = nxt
                moved = True
                if record:
                    history.append((op, (1, seg)))
                seg = nxt
            if not blocked:
                stack.pop()
        if moved:
            state.scheduling_started = True

    def _bring_to_liz(self, cid: int) -> None:
        if self.state.crystals[cid].segment != self.liz:
            self._send(cid, self.liz)

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

    def _wells_on(self) -> tuple:
        """Add balancing wells beside the staging sites when no crystal is
        already there; preconditions hold by construction, so the well set
        and history are updated directly."""
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
        return active

    def _wells_off(self, active: tuple) -> None:
        state = self.state
        record = state.record
        wells = state.wells
        history = state.history
        for s, _, rec in active:
            wells.discard(s)
            if record:
                history.append(rec)

    def _split(self, d: int) -> tuple[int, int]:
        """Split the LIZ crystal; return (product on side -d, product on
        side +d), where side +1 is below the LIZ."""
        self._clear_split_zone()
        spots = self._wells_on()
        above, below = self.state.split_at_liz()
        self._wells_off(spots)
        return (above, below) if d > 0 else (below, above)

    def _merge(self) -> int:
        spots = self._wells_on()
        out = self.state.merge_at_liz()
        self._wells_off(spots)
        return out

    def _rotate_liz(self) -> None:
        spots = self._wells_on()
        self.state.rotate_at_liz()
        self._wells_off(spots)

    def _dg(self, gate_index: int) -> None:
        spots = self._wells_on()
        self.state.record_gate(gate_index)
        self._wells_off(spots)

    def _rotate_crystal(self, cid: int) -> None:
        self._bring_to_liz(cid)
        self._rotate_liz()

    # -- exchange ------------------------------------------------------------

    def _neighbour(self, cid: int, d: int) -> int | None:
        """The nearest crystal below (d = +1) or above (d = -1) ``cid``."""
        seg_map = self.state.seg_crystal
        end = self.n_segments + 1 if d > 0 else 0
        for s in range(self.state.crystals[cid].segment + d, end, d):
            if s in seg_map:
                return seg_map[s]
        return None

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
            self._rotate_crystal(c1.id)
        if len(c4.ions) == 2 and c4.ions[-1 - back] == ion_b:
            self._rotate_crystal(c4.id)

        c1_pair = len(c1.ions) == 2
        c4_pair = len(c4.ions) == 2
        if c1_pair:
            self._bring_to_liz(c1.id)
            partner_a, traveler_a = self._split(d)
        else:
            traveler_a = c1.id
        if c4_pair:
            self._bring_to_liz(c4.id)
            partner_b, traveler_b = self._split(-d)
        else:
            traveler_b = c4.id

        self._send(traveler_a, liz - d)
        self._send(traveler_b, liz + d)
        self._merge()                      # ion_a on the -d side of ion_b
        self._rotate_liz()                 # swap them, so they part exchanged
        if do_gate:
            self._dg(gate_index)
        out_b, out_a = self._split(d)      # ion_a on the +d side

        if c1_pair:
            self._send(partner_a, liz - d)
            self._send(out_b, liz + d)
            self._merge()                  # ion_a's old home, now holding ion_b
        if c4_pair:
            self._send(out_a, liz - d)
            self._send(partner_b, liz + d)
            self._merge()                  # ion_b's old home, now holding ion_a

    # -- top-level gate loop ---------------------------------------------------

    def run_gate(self, gate) -> None:
        state = self.state
        if len(gate.operands) == 1:
            cid = state.ion_crystal[gate.operands[0] + 1]
            self._bring_to_liz(cid)
            self._dg(gate.index)
            return
        a, b = (q + 1 for q in gate.operands)
        if state.ion_crystal[a] == state.ion_crystal[b]:
            self._bring_to_liz(state.ion_crystal[a])
            self._dg(gate.index)
            return
        # The gate's first-listed operand travels toward its partner; the
        # ferried-through crystal gives up the ion facing the traveler.
        # Picking the traveler by gate order (not trap position) keeps the
        # whole schedule mirror-covariant, so a layout and its end-to-end
        # reversal always cost the same.
        while True:
            ca = state.ion_crystal[a]
            cb = state.ion_crystal[b]
            d = 1 if state.crystals[ca].segment < state.crystals[cb].segment else -1
            nxt = self._neighbour(ca, d)
            assert nxt is not None, "partner crystal vanished"
            if nxt == cb:
                self._exchange(a, b, d, True, gate.index)
                return
            facing = state.crystals[nxt].ions[0 if d > 0 else -1]
            self._exchange(a, facing, d, False, gate.index)


def send_to_segment(state: TrapState, crystal_id: int, target: int) -> None:
    """Transport one crystal to ``target``, pushing blockers out of the way
    (each single-segment step is emitted as its own move command)."""
    _Scheduler(state)._send(crystal_id, target)


def ion_permutation(state: TrapState, ion_a: int, ion_b: int, do_gate: bool,
                    gate_index: int = 0) -> None:
    """Exchange two ions between adjacent crystals (ion_a's crystal above)."""
    ca = state.crystal_of(ion_a)
    cb = state.crystal_of(ion_b)
    if ca.id == cb.id:
        raise ValueError("ions already share a crystal")
    if ca.segment > cb.segment:
        raise ValueError("ion_a must sit in the upper crystal")
    sch = _Scheduler(state)
    if sch._neighbour(ca.id, 1) != cb.id:
        raise ValueError("crystals are not adjacent in the trap order")
    sch._exchange(ion_a, ion_b, 1, do_gate, gate_index)


def schedule(circuit: Circuit, state: TrapState) -> ScheduleResult:
    """Generate the full shuttling program for ``circuit`` from a placed trap.

    Every gate is executed exactly once at the LIZ, in circuit order; the
    reported cost is the number of split and merge commands emitted.
    """
    expected = set(range(1, circuit.n_qubits + 1))
    if set(state.ion_crystal) != expected:
        raise ValueError("trap does not hold exactly the circuit's ions")
    if state.check_spacing():
        raise ValueError("initial state violates crystal spacing")
    sch = _Scheduler(state)
    per_gate: list[int] = []
    for gate in circuit.gates:
        before = state.s_count + state.m_count
        sch.run_gate(gate)
        per_gate.append(state.s_count + state.m_count - before)
    sequence = CommandSequence(state.config.n_segments, state.config.liz,
                               list(state.history))
    return ScheduleResult(sequence, state.s_count + state.m_count, per_gate, state)
