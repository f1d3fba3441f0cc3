"""Shuttling command ISA: representation, text format, replay and trace.

A program is an ordered list of commands drawn from the fixed opcode set
(START, AIC, AEC, REC, SMU, SMD, RC, M, S, DG).  The canonical interchange
format is one command per line::

    <seq> <OPCODE> <nparams> <params...>

with a ``# segments=<S> liz=<L>`` header echoing the trap shape.  For SMU
and SMD the count field doubles as the number of moved segments; for every
other opcode it is the plain parameter count.  DG carries the circuit gate
index as a traceability extension of the otherwise parameterless gate
placeholder.

``apply`` is the one executor: it is the only code that maps an opcode
to the ``TrapState`` primitives, and it raises a ``TrapError`` for any
command the constraint set forbids.  ``replay`` and the trace renderers
both run a program through it on a fresh trap.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .trap import NotInLiz, TrapConfig, TrapState, TrapError

RawCommand = tuple[str, tuple[int, ...]]

# opcode -> parameter count (None: SMU/SMD variable form)
OPCODE_ARITY: dict[str, int | None] = {
    "START": 0,
    "AIC": 2,
    "AEC": 1,
    "REC": 1,
    "SMU": None,
    "SMD": None,
    "RC": 1,
    "M": 0,
    "S": 0,
    "DG": 1,
}

STATE_CHANGING = ("AIC", "SMU", "SMD", "RC", "M", "S")

_HEADER_RE = re.compile(r"#\s*segments=(\d+)\s+liz=(\d+)")


class FormatError(Exception):
    """Malformed sequence text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ReplayError(Exception):
    """Strict-mode replay abort; carries the offending sequence number."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"command {seq}: {message}")
        self.seq = seq


@dataclass
class CommandSequence:
    """An ordered command list plus the trap shape it targets."""

    n_segments: int = 32
    liz: int = 19
    raw: list[RawCommand] = field(default_factory=list)

    def opcode_counts(self) -> dict[str, int]:
        counts = {op: 0 for op in OPCODE_ARITY}
        for op, _ in self.raw:
            counts[op] += 1
        return counts

    def config(self) -> TrapConfig:
        return TrapConfig(n_segments=self.n_segments, liz=self.liz)

    def __len__(self) -> int:
        return len(self.raw)


def cost(sequence: CommandSequence) -> int:
    """Split/merge count: the schedule cost metric."""
    return sum(1 for op, _ in sequence.raw if op == "S" or op == "M")


def serialize(sequence: CommandSequence) -> str:
    out = [f"# segments={sequence.n_segments} liz={sequence.liz}"]
    for i, (op, params) in enumerate(sequence.raw):
        if op in ("SMU", "SMD"):
            tail = params  # params[0] is already the segment count
        else:
            tail = (len(params), *params)
        out.append(" ".join(str(x) for x in (i + 1, op, *tail)))
    return "\n".join(out) + "\n"


def parse_sequence(text: str) -> CommandSequence:
    """Inverse of :func:`serialize`; raises FormatError with line numbers."""
    n_segments, liz = TrapConfig.n_segments, TrapConfig.liz
    raw: list[RawCommand] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _HEADER_RE.match(stripped)
            if m:
                n_segments, liz = int(m.group(1)), int(m.group(2))
            continue
        tokens = stripped.split()
        if len(tokens) < 3:
            raise FormatError("expected '<seq> <OPCODE> <nparams> ...'", lineno)
        try:
            seq = int(tokens[0])
        except ValueError:
            raise FormatError(f"bad sequence number {tokens[0]!r}", lineno) from None
        if seq != len(raw) + 1:
            raise FormatError(
                f"out-of-order sequence number {seq} (expected {len(raw) + 1})", lineno)
        op = tokens[1]
        arity = OPCODE_ARITY.get(op)
        if op not in OPCODE_ARITY:
            raise FormatError(f"unknown opcode {op!r}", lineno)
        try:
            nums = [int(t) for t in tokens[2:]]
        except ValueError:
            raise FormatError("parameters must be integers", lineno) from None
        count, rest = nums[0], nums[1:]
        if len(rest) != count:
            raise FormatError(
                f"{op} declares {count} parameters but carries {len(rest)}", lineno)
        if arity is None:  # SMU / SMD
            if count < 1:
                raise FormatError(f"{op} needs at least one segment", lineno)
            params = tuple(nums)
        else:
            if count != arity:
                raise FormatError(f"{op} takes {arity} parameters, got {count}", lineno)
            params = tuple(rest)
        raw.append((op, params))
    return CommandSequence(n_segments, liz, raw)


@dataclass
class ReplayReport:
    final_state: TrapState
    s_count: int
    m_count: int
    violations: list[tuple[int, str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def apply(state: TrapState, op: str, params: tuple[int, ...]) -> None:
    """Execute one command on ``state``, raising TrapError if it is illegal.

    A failing command leaves the state as it was, with one exception: an
    RC that names a segment other than the LIZ still reverses the crystal
    there before it is rejected.  START changes nothing; where it may
    stand is a rule of the program (see :func:`replay`).
    """
    if op == "SMU" or op == "SMD":
        direction = "up" if op == "SMU" else "down"
        if params[0] == 1:  # the single-crystal step, by far the commonest
            state.move_crystal_step(params[1], direction)
            return
        # parallel form: move the leading crystal first, and undo the steps
        # already taken if a later one fails
        started = state.scheduling_started
        moved: list[int] = []
        try:
            for s in sorted(params[1:], reverse=(op == "SMD")):
                moved.append(state.move_crystal_step(s, direction))
        except TrapError:
            back = "down" if op == "SMU" else "up"
            for s in reversed(moved):
                state.move_crystal_step(s, back)
            state.scheduling_started = started
            raise
    elif op == "AEC":
        state.add_well(params[0])
    elif op == "REC":
        state.remove_well(params[0])
    elif op == "S":
        state.split_at_liz()
    elif op == "M":
        state.merge_at_liz()
    elif op == "RC":
        seg = params[0]
        if seg != state.config.liz:
            crystal = state.crystal_at(seg)
            if crystal is not None:
                crystal.ions.reverse()
            raise NotInLiz(f"rotation outside LIZ (segment {seg})")
        state.rotate_at_liz()
    elif op == "DG":
        state.record_gate(params[0])
    elif op == "AIC":
        state.place_ion(params[0], params[1])


def _execute(sequence: CommandSequence, state: TrapState, bad, after=None) -> None:
    """Run the program on ``state``: the START rule, then :func:`apply` on
    every command.  Each violation goes to ``bad(seq, message)``; ``after``,
    if given, is called as ``after(seq, op, params)`` once each command ran.
    """
    raw = sequence.raw
    if raw and raw[0][0] != "START":
        bad(1, "sequence does not begin with START")
    for seq, (op, params) in enumerate(raw, 1):
        if op == "START":
            if seq > 1:
                bad(seq, "START not at the beginning")
        else:
            try:
                apply(state, op, params)
            except TrapError as e:
                bad(seq, str(e))
        if after is not None:
            after(seq, op, params)


def _reject(seq: int, message: str) -> None:
    raise ReplayError(seq, message)


def replay(sequence: CommandSequence, config: TrapConfig | None = None,
           strict: bool = False) -> ReplayReport:
    """Re-execute the program on a fresh trap, validating every command.

    A program begins with START and holds no other.  Lenient mode records
    one violation per failing command and skips that command (a missing
    START is reported against command 1, which still runs; an RC outside
    the LIZ still reverses its crystal, see :func:`apply`).  Strict mode
    raises ReplayError at the first violation.
    """
    state = TrapState(config or sequence.config(), record=False)
    violations: list[tuple[int, str]] = []
    _execute(sequence, state, _reject if strict else
             lambda seq, message: violations.append((seq, message)))
    return ReplayReport(state, state.s_count, state.m_count, violations)


# -- trace rendering ---------------------------------------------------------

_ION_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _ion_char(ion: int) -> str:
    return _ION_CHARS[ion] if 0 < ion < len(_ION_CHARS) else "+"


@dataclass
class _TraceRow:
    first_seq: int
    last_seq: int
    occupants: dict[int, tuple[int, ...]]
    wells: frozenset[int]
    gates: list[int]

    @property
    def label(self) -> str:
        """The row's command-number range, ``first-last`` or one number."""
        if self.last_seq > self.first_seq:
            return f"{self.first_seq}-{self.last_seq}"
        return str(self.first_seq)


def _trace_rows(sequence: CommandSequence,
                config: TrapConfig | None = None) -> tuple[TrapConfig, list[_TraceRow]]:
    """Replay yielding one snapshot per state-changing command.

    Non-visible commands (START, AEC, REC, DG) fold into the sequence-number
    range of the next visible row; gate indices carried by folded DGs are
    attached to that row.  Trailing non-visible commands extend the last row.
    Raises ReplayError at the first command strict replay would reject.
    """
    cfg = config or sequence.config()
    state = TrapState(cfg, record=False)
    rows: list[_TraceRow] = []
    pending_first: int | None = None
    pending_gates: list[int] = []

    def snapshot(seq: int, op: str, params: tuple[int, ...]) -> None:
        nonlocal pending_first, pending_gates
        if op == "DG":
            pending_gates.append(params[0])
        if op in STATE_CHANGING:
            occupants = {c.segment: tuple(c.ions) for c in state.crystals.values()}
            rows.append(_TraceRow(
                pending_first if pending_first is not None else seq,
                seq, occupants, frozenset(state.wells), pending_gates))
            pending_first, pending_gates = None, []
        elif pending_first is None:
            pending_first = seq

    _execute(sequence, state, _reject, snapshot)
    if rows and (pending_first is not None or pending_gates):
        rows[-1].last_seq = len(sequence.raw)
        rows[-1].gates.extend(pending_gates)
    return cfg, rows


def render_trace(sequence: CommandSequence, config: TrapConfig | None = None) -> str:
    """Text grid of the replayed program: one row per state-changing command,
    one two-character cell per segment (top/bottom ion, ``--`` empty well)."""
    cfg, rows = _trace_rows(sequence, config)
    width = max((len(r.label) for r in rows), default=1)
    lines = [f"# segments={cfg.n_segments} liz={cfg.liz}"]
    lines.append(" " * (width + 2 + 3 * (cfg.liz - 1)) + "vv")
    for row in rows:
        cells = []
        for seg in range(1, cfg.n_segments + 1):
            ions = row.occupants.get(seg)
            if ions is not None:
                cells.append(_ion_char(ions[0]) + (_ion_char(ions[1]) if len(ions) > 1 else "."))
            elif seg in row.wells:
                cells.append("--")
            else:
                cells.append("..")
        note = "  DG " + ",".join(f"g{g}" for g in row.gates) if row.gates else ""
        lines.append(f"{row.label:>{width}}  " + " ".join(cells) + note)
    return "\n".join(lines) + "\n"


def render_trace_svg(sequence: CommandSequence, config: TrapConfig | None = None) -> str:
    """Self-contained SVG version of the trace grid (ions as colored dots)."""
    cfg, rows = _trace_rows(sequence, config)
    cell, margin_x, margin_y = 16, 56, 28
    width = margin_x + cfg.n_segments * cell + 8
    height = margin_y + max(len(rows), 1) * cell + 8

    def x_of(seg: int) -> float:
        return margin_x + (seg - 0.5) * cell

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">',
        f'<rect x="{margin_x + (cfg.liz - 1) * cell}" y="{margin_y - 12}" '
        f'width="{cell}" height="{height - margin_y + 4}" fill="#e8f4e8"/>',
        f'<text x="{x_of(cfg.liz)}" y="{margin_y - 16}" text-anchor="middle">LIZ</text>',
    ]
    for seg in range(1, cfg.n_segments + 1, max(1, cfg.n_segments // 8)):
        parts.append(f'<text x="{x_of(seg)}" y="{margin_y - 2}" '
                     f'text-anchor="middle" fill="#888">{seg}</text>')
    for r, row in enumerate(rows):
        y = margin_y + (r + 0.5) * cell
        label = row.label + " DG" if row.gates else row.label
        parts.append(f'<text x="4" y="{y + 3}" fill="#444">{label}</text>')
        for seg in row.wells:
            parts.append(f'<rect x="{x_of(seg) - 5}" y="{y - 5}" width="10" height="10" '
                         f'fill="none" stroke="#aaa"/>')
        for seg, ions in sorted(row.occupants.items()):
            offsets = (0.0,) if len(ions) == 1 else (-3.0, 3.0)
            for ion, dy in zip(ions, offsets):
                hue = (ion * 47) % 360
                parts.append(f'<circle cx="{x_of(seg)}" cy="{y + dy}" r="3.4" '
                             f'fill="hsl({hue},70%,45%)"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
