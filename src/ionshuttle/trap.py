"""Segmented linear trap: state model and constraint-checked primitives.

The trap is a 1-indexed array of segments.  A segment is empty, holds one
ion crystal (an ordered group of one or two ions), or holds an empty
potential well used to balance fields near the laser interaction zone
(LIZ).  There is one LIZ, and split, merge and rotation happen only
there.  Crystals must stay at least 2 segments apart at all times; the
spacing is fixed at 2, so every spacing check looks only at the segments
next to a crystal.

Every mutating operation validates its constraints before touching state
and, when recording is enabled, appends the matching shuttling command to
``history`` as a raw ``(opcode, params)`` tuple.
"""
from __future__ import annotations

from dataclasses import dataclass


class TrapError(Exception):
    """Base class for trap constraint violations."""


class InvalidConfig(TrapError):
    pass


class SpacingViolation(TrapError):
    pass


class CapacityExceeded(TrapError):
    pass


class DuplicateIon(TrapError):
    pass


class OutOfBounds(TrapError):
    pass


class EmptySegment(TrapError):
    pass


class NotInLiz(TrapError):
    pass


class WrongSize(TrapError):
    pass


class Blocked(TrapError):
    pass


class MissingOperand(TrapError):
    pass


class ResultTooLarge(TrapError):
    pass


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
        if not 1 <= self.liz <= self.n_segments:
            raise InvalidConfig(f"LIZ segment {self.liz} outside 1..{self.n_segments}")


class Crystal:
    """An ordered group of ions in one potential well; ions[0] is the top."""

    __slots__ = ("id", "ions", "segment")

    def __init__(self, cid: int, ions: list[int], segment: int):
        self.id = cid
        self.ions = ions
        self.segment = segment

    def __repr__(self) -> str:
        return f"Crystal(id={self.id}, ions={self.ions}, segment={self.segment})"


class TrapState:
    """Mutable single-owner trap state.

    ``seg_crystal`` maps occupied segment -> crystal id, ``wells`` holds the
    segments with an (ion-free) potential well, ``ion_crystal`` maps ion id
    -> owning crystal id.  Crystal ids are minted fresh on every placement,
    split and merge, strictly increasing.
    """

    def __init__(self, config: TrapConfig | None = None, record: bool = True):
        config = config or TrapConfig()
        config.validate()
        self.config = config
        self.seg_crystal: dict[int, int] = {}
        self.wells: set[int] = set()
        self.crystals: dict[int, Crystal] = {}
        self.ion_crystal: dict[int, int] = {}
        self.scheduling_started = False
        self.record = record
        self.s_count = 0
        self.m_count = 0
        self._next_id = 1
        self.history: list[tuple[str, tuple[int, ...]]] = [("START", ())] if record else []

    # -- helpers -----------------------------------------------------------

    def _emit(self, op: str, params: tuple[int, ...]) -> None:
        if self.record:
            self.history.append((op, params))

    def _fresh_id(self) -> int:
        cid = self._next_id
        self._next_id += 1
        return cid

    def crystal_at(self, segment: int) -> Crystal | None:
        cid = self.seg_crystal.get(segment)
        return self.crystals[cid] if cid is not None else None

    def crystal_of(self, ion: int) -> Crystal:
        try:
            return self.crystals[self.ion_crystal[ion]]
        except KeyError:
            raise EmptySegment(f"ion {ion} is not in the trap") from None

    def occupied_segments(self) -> list[int]:
        return sorted(self.seg_crystal)

    def _conflict(self, dest: int, exclude: int | None = None) -> int | None:
        """Return an occupied segment that would violate spacing for a
        crystal resting at ``dest`` (including ``dest`` itself), or None."""
        for s in (dest - 1, dest, dest + 1):
            if s == exclude:
                continue
            if s in self.seg_crystal:
                return s
        return None

    def check_spacing(self) -> list[tuple[int, int]]:
        """All pairs of occupied segments closer than the minimum spacing."""
        occ = self.occupied_segments()
        return [(a, b) for a, b in zip(occ, occ[1:]) if b - a < 2]

    # -- initial placement (AIC) -------------------------------------------

    def place_ion(self, ion: int, segment: int) -> int:
        """Add one ion at ``segment``, extending a 1-ion crystal already
        there.  Only legal before shuttling starts."""
        if self.scheduling_started:
            raise Blocked("initial placement after shuttling started")
        if ion in self.ion_crystal:
            raise DuplicateIon(f"ion {ion} already placed")
        if not 1 <= segment <= self.config.n_segments:
            raise OutOfBounds(f"segment {segment} outside trap")
        crystal = self.crystal_at(segment)
        if crystal is not None:
            if len(crystal.ions) >= 2:
                raise CapacityExceeded(f"crystal at segment {segment} is full")
            crystal.ions.append(ion)
            self.ion_crystal[ion] = crystal.id
        else:
            bad = self._conflict(segment, exclude=segment)
            if bad is not None:
                raise SpacingViolation(
                    f"segment {segment} too close to occupied segment {bad}")
            cid = self._fresh_id()
            self.crystals[cid] = Crystal(cid, [ion], segment)
            self.seg_crystal[segment] = cid
            self.ion_crystal[ion] = cid
        self._emit("AIC", (ion, segment))
        return self.seg_crystal[segment]

    def place_crystal(self, ions: list[int], segment: int) -> int:
        """Place a whole crystal (validated as a unit) before scheduling."""
        if not ions or len(ions) > 2:
            raise CapacityExceeded(f"crystal of {len(ions)} ions not supported")
        if len(set(ions)) != len(ions):
            raise DuplicateIon(f"duplicate ion in {ions}")
        if segment in self.seg_crystal:
            raise SpacingViolation(f"segment {segment} already occupied")
        cid = 0
        for ion in ions:
            cid = self.place_ion(ion, segment)
        return cid

    # -- transport ----------------------------------------------------------

    def move_crystal_step(self, segment: int, direction: str) -> int:
        """Move the crystal at ``segment`` one segment up or down."""
        if direction == "up":
            dest = segment - 1
        elif direction == "down":
            dest = segment + 1
        else:
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        seg_map = self.seg_crystal
        cid = seg_map.get(segment)
        if cid is None:
            raise EmptySegment(f"no crystal at segment {segment}")
        if not 1 <= dest <= self.config.n_segments:
            raise OutOfBounds(f"move from segment {segment} leaves the trap")
        if dest in self.wells:
            raise Blocked(f"segment {dest} holds an empty well")
        if dest in seg_map or dest + dest - segment in seg_map:
            raise SpacingViolation(
                f"moving to segment {dest} violates spacing near it")
        del seg_map[segment]
        seg_map[dest] = cid
        self.crystals[cid].segment = dest
        self.scheduling_started = True
        if self.record:
            self.history.append(("SMU" if direction == "up" else "SMD", (1, segment)))
        return dest

    # -- LIZ operations ------------------------------------------------------

    def split_at_liz(self) -> tuple[int, int]:
        """Split the 2-ion LIZ crystal; top ion lands at liz-1, bottom at
        liz+1, both as fresh crystals.  Returns (above id, below id)."""
        liz = self.config.liz
        seg_map = self.seg_crystal
        cid = seg_map.get(liz)
        if cid is None:
            raise NotInLiz("no crystal in the LIZ to split")
        crystal = self.crystals[cid]
        if len(crystal.ions) != 2:
            raise WrongSize(f"split needs a 2-ion crystal, got {len(crystal.ions)}")
        if liz - 1 < 1 or liz + 1 > self.config.n_segments:
            raise OutOfBounds("split products would leave the trap")
        for stage in (liz - 1, liz + 1):
            if stage in self.wells:
                raise Blocked(f"segment {stage} holds an empty well")
            for s in (stage - 1, stage, stage + 1):
                if s != liz and s in seg_map:
                    raise Blocked(
                        f"split product at {stage} would violate spacing with {s}")
        top, bottom = crystal.ions
        del seg_map[liz]
        del self.crystals[cid]
        above = self._next_id
        below = above + 1
        self._next_id = above + 2
        self.crystals[above] = Crystal(above, [top], liz - 1)
        self.crystals[below] = Crystal(below, [bottom], liz + 1)
        seg_map[liz - 1] = above
        seg_map[liz + 1] = below
        self.ion_crystal[top] = above
        self.ion_crystal[bottom] = below
        self.scheduling_started = True
        self.s_count += 1
        if self.record:
            self.history.append(("S", ()))
        return above, below

    def merge_at_liz(self) -> int:
        """Merge the crystals at liz-1 and liz+1 into a fresh crystal at the
        LIZ, ordered top operand first."""
        liz = self.config.liz
        above = self.crystal_at(liz - 1)
        below = self.crystal_at(liz + 1)
        if above is None or below is None:
            raise MissingOperand("merge needs crystals at both segments beside the LIZ")
        if liz in self.seg_crystal:
            raise Blocked("LIZ occupied, cannot merge into it")
        if liz in self.wells:
            raise Blocked("LIZ holds an empty well")
        total = len(above.ions) + len(below.ions)
        if total > 2:
            raise ResultTooLarge(f"merge would create a {total}-ion crystal")
        ions = above.ions + below.ions
        del self.seg_crystal[liz - 1]
        del self.seg_crystal[liz + 1]
        del self.crystals[above.id]
        del self.crystals[below.id]
        cid = self._next_id
        self._next_id = cid + 1
        self.crystals[cid] = Crystal(cid, ions, liz)
        self.seg_crystal[liz] = cid
        for ion in ions:
            self.ion_crystal[ion] = cid
        self.scheduling_started = True
        self.m_count += 1
        if self.record:
            self.history.append(("M", ()))
        return cid

    def rotate_at_liz(self) -> None:
        """Physically reverse the ion order of the LIZ crystal (a no-op for
        a single ion)."""
        crystal = self.crystal_at(self.config.liz)
        if crystal is None:
            raise EmptySegment("no crystal in the LIZ to rotate")
        crystal.ions.reverse()
        self.scheduling_started = True
        if self.record:
            self.history.append(("RC", (self.config.liz,)))

    # -- empty wells and gate markers ---------------------------------------

    def add_well(self, segment: int) -> None:
        if not 1 <= segment <= self.config.n_segments:
            raise OutOfBounds(f"segment {segment} outside trap")
        if segment in self.seg_crystal:
            raise Blocked(f"segment {segment} occupied by a crystal")
        if segment in self.wells:
            raise Blocked(f"segment {segment} already holds a well")
        self.wells.add(segment)
        self.scheduling_started = True
        if self.record:
            self.history.append(("AEC", (segment,)))

    def remove_well(self, segment: int) -> None:
        if segment not in self.wells:
            raise EmptySegment(f"no empty well at segment {segment}")
        self.wells.discard(segment)
        if self.record:
            self.history.append(("REC", (segment,)))

    def record_gate(self, gate_index: int) -> None:
        """Record gate execution on the LIZ crystal (no state change)."""
        if self.config.liz not in self.seg_crystal:
            raise NotInLiz("gate executed with no crystal in the LIZ")
        self.scheduling_started = True
        if self.record:
            self.history.append(("DG", (gate_index,)))


def new_state(config: TrapConfig | None = None) -> TrapState:
    """Fresh empty trap for the given (validated) configuration."""
    return TrapState(config)
