"""Segmented linear trap: state model and constraint-checked primitives.

The trap is a 1-indexed array of segments.  A segment is empty, holds one
ion crystal (an ordered group of one or two ions), or holds an empty
potential well used to balance fields near the laser interaction zone
(LIZ).  There is one LIZ, and split, merge and rotation happen only
there, so it needs a segment on each side.  Crystals must stay at least 2
segments apart at all times; the spacing is fixed at 2, so every spacing
check looks only at the segments next to a crystal.

The state is plain data: each occupied segment maps to its crystal's ion
list, top first, and no two segments share a list.  A split or merge puts
new lists in place of the old ones; a rotation reverses its list in place.
The primitives return nothing, except that a transport step returns the
segment it reached.

This is the executor's model and holds the trap alone; program order and
the split/merge tally belong to ``commands._execute``.  ``commands.apply``
maps each opcode onto one primitive here, and placement builds the initial
trap with ``place_crystal``.  Every primitive validates before it mutates;
a transport step takes its direction as ``d`` (+1 down, -1 up).
"""
from __future__ import annotations

from dataclasses import dataclass


class TrapError(Exception):
    """A trap constraint violation; the message names the constraint.

    Raised as is wherever no caller needs to tell one violation from
    another.  The subclasses below are the cases that callers do tell
    apart: each has its own CLI exit code, and ``schedule`` catches
    ``TrapOverflow`` to name the gate.
    """


class InvalidConfig(TrapError):
    """A trap shape the model does not support."""


class CapacityExceeded(TrapError):
    """More ions than a crystal holds, or more crystals than the trap."""


class TrapOverflow(TrapError):
    """A transport push chain ran past the end of the trap."""


@dataclass(frozen=True)
class TrapConfig:
    """Trap shape (defaults match the reference hardware).  Crystals hold
    at most two ions and stay 2 segments apart; both limits are fixed."""

    n_segments: int = 32
    liz: int = 19

    def validate(self) -> None:
        if self.n_segments < 5:
            raise InvalidConfig(f"need at least 5 segments, got {self.n_segments}")
        if not 2 <= self.liz <= self.n_segments - 1:
            # split and merge stage crystals on both sides of the LIZ
            raise InvalidConfig(
                f"LIZ segment {self.liz} outside 2..{self.n_segments - 1}")


class TrapState:
    """Mutable single-owner trap state.

    ``seg_crystal`` maps each occupied segment to its crystal's ions, top
    first, and is the one registry of crystals and ions; ``wells`` holds
    the segments with an (ion-free) potential well.
    """

    def __init__(self, config: TrapConfig | None = None):
        config = config or TrapConfig()
        config.validate()
        self.config = config
        self.seg_crystal: dict[int, list[int]] = {}
        self.wells: set[int] = set()

    # -- helpers -----------------------------------------------------------

    def occupied_segments(self) -> list[int]:
        return sorted(self.seg_crystal)

    def check_spacing(self) -> list[tuple[int, int]]:
        """All pairs of occupied segments closer than the minimum spacing."""
        occ = self.occupied_segments()
        return [(a, b) for a, b in zip(occ, occ[1:]) if b - a < 2]

    # -- initial placement (AIC) -------------------------------------------

    def place_ion(self, ion: int, segment: int) -> None:
        """Add one ion at ``segment``, extending a 1-ion crystal already
        there."""
        if ion < 1:
            raise TrapError(f"ion id {ion} is below 1")
        if any(ion in ions for ions in self.seg_crystal.values()):
            raise TrapError(f"ion {ion} already placed")
        if not 1 <= segment <= self.config.n_segments:
            raise TrapError(f"segment {segment} outside trap")
        ions = self.seg_crystal.get(segment)
        if ions is not None:
            if len(ions) >= 2:
                raise CapacityExceeded(f"crystal at segment {segment} is full")
            ions.append(ion)
        else:
            for s in (segment - 1, segment + 1):
                if s in self.seg_crystal:
                    raise TrapError(
                        f"segment {segment} too close to occupied segment {s}")
            self.seg_crystal[segment] = [ion]

    def place_crystal(self, ions: list[int], segment: int) -> None:
        """Place a whole crystal (validated as a unit) before scheduling."""
        if not ions or len(ions) > 2:
            raise CapacityExceeded(f"crystal of {len(ions)} ions not supported")
        if len(set(ions)) != len(ions):
            raise TrapError(f"duplicate ion in {ions}")
        if segment in self.seg_crystal:
            raise TrapError(f"segment {segment} already occupied")
        for ion in ions:
            self.place_ion(ion, segment)

    # -- transport ----------------------------------------------------------

    def move_crystal_step(self, segment: int, d: int) -> int:
        """Move the crystal at ``segment`` one segment in direction ``d``
        (+1 down, -1 up); return its new segment."""
        dest = segment + d
        seg_map = self.seg_crystal
        ions = seg_map.get(segment)
        if ions is None:
            raise TrapError(f"no crystal at segment {segment}")
        if not 1 <= dest <= self.config.n_segments:
            raise TrapError(f"move from segment {segment} leaves the trap")
        if dest in self.wells:
            raise TrapError(f"segment {dest} holds an empty well")
        if dest in seg_map or dest + d in seg_map:
            raise TrapError(
                f"moving to segment {dest} violates spacing near it")
        del seg_map[segment]
        seg_map[dest] = ions
        return dest

    # -- LIZ operations ------------------------------------------------------

    def split_at_liz(self) -> None:
        """Split the 2-ion LIZ crystal; top ion lands at liz-1, bottom at
        liz+1, each as a new crystal."""
        liz = self.config.liz
        seg_map = self.seg_crystal
        ions = seg_map.get(liz)
        if ions is None:
            raise TrapError("no crystal in the LIZ to split")
        if len(ions) != 2:
            raise TrapError(f"split needs a 2-ion crystal, got {len(ions)}")
        for stage in (liz - 1, liz + 1):
            if stage in self.wells:
                raise TrapError(f"segment {stage} holds an empty well")
            for s in (stage - 1, stage, stage + 1):
                if s != liz and s in seg_map:
                    raise TrapError(
                        f"split product at {stage} would violate spacing with {s}")
        top, bottom = ions
        del seg_map[liz]
        seg_map[liz - 1] = [top]
        seg_map[liz + 1] = [bottom]

    def merge_at_liz(self) -> None:
        """Merge the crystals at liz-1 and liz+1 into a new crystal at the
        LIZ, ordered top operand first."""
        liz = self.config.liz
        seg_map = self.seg_crystal
        above = seg_map.get(liz - 1)
        below = seg_map.get(liz + 1)
        if above is None or below is None:
            raise TrapError("merge needs crystals at both segments beside the LIZ")
        if liz in seg_map:
            raise TrapError("LIZ occupied, cannot merge into it")
        if liz in self.wells:
            raise TrapError("LIZ holds an empty well")
        total = len(above) + len(below)
        if total > 2:
            raise TrapError(f"merge would create a {total}-ion crystal")
        del seg_map[liz - 1]
        del seg_map[liz + 1]
        seg_map[liz] = above + below

    def rotate_at_liz(self) -> None:
        """Physically reverse the ion order of the LIZ crystal (a no-op for
        a single ion)."""
        ions = self.seg_crystal.get(self.config.liz)
        if ions is None:
            raise TrapError("no crystal in the LIZ to rotate")
        ions.reverse()

    # -- empty wells and gate markers ---------------------------------------

    def add_well(self, segment: int) -> None:
        if not 1 <= segment <= self.config.n_segments:
            raise TrapError(f"segment {segment} outside trap")
        if segment in self.seg_crystal:
            raise TrapError(f"segment {segment} occupied by a crystal")
        if segment in self.wells:
            raise TrapError(f"segment {segment} already holds a well")
        self.wells.add(segment)

    def remove_well(self, segment: int) -> None:
        if segment not in self.wells:
            raise TrapError(f"no empty well at segment {segment}")
        self.wells.discard(segment)

    def record_gate(self, gate_index: int) -> None:
        """Record gate execution on the LIZ crystal (no state change)."""
        if gate_index < 0:
            raise TrapError(f"gate index {gate_index} is negative")
        if self.config.liz not in self.seg_crystal:
            raise TrapError("gate executed with no crystal in the LIZ")
