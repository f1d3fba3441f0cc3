"""Shuttling command ISA: representation, text format, replay and trace.

A program is an ordered list of commands drawn from the fixed opcode set
(START, AIC, AEC, REC, SMU, SMD, RC, M, S, DG).  The canonical interchange
format is one command per line::

    <seq> <OPCODE> <nparams> <params...>

with a ``# segments=<S> liz=<L>`` header echoing the trap shape.  For SMU
and SMD the count field doubles as the number of moved segments; for every
other opcode it is the plain parameter count.  DG carries the circuit gate
index as a traceability extension of the otherwise parameterless gate
placeholder.  Every integer (sequence number, parameter and header value)
is plain ASCII, ``-?[0-9]+``.  There is at most one header, before the
first command, and a line starting ``# segments=`` must be exactly that
header; other ``#`` lines are comments and may stand anywhere.

A long program repeats a few distinct commands, so the text codec works
per distinct command.  ``serialize`` gives each one a line template,
``"%d <tail>\\n"``, once per call, and writes each piece of lines as one
``%``-format of its templates, joined, with the piece's line numbers; the
per-line work runs in C.  A ``%`` in a tail is escaped as ``%%``, because
``serialize`` does not validate opcodes.  ``parse_sequence`` checks every
line's sequence number but validates each distinct line tail (the text
after the number) once per call, so equal commands in a parsed program are
one shared tuple.

The codec also works a bounded number of lines at a time, so that a long
program's text costs about its own size in memory, not a list of line
strings several times that.  ``serialize_pieces`` yields the text as the
header and then one piece per ``_SERIALIZE_PIECE`` commands, and
``serialize`` joins them.  ``parse_sequence`` splits the text into lines
one piece of about ``_PARSE_PIECE`` characters at a time.  A piece boundary
falls only right after a ``"\\n"``, which always ends a line, alone or as
the end of a ``"\\r\\n"``; so splitting each piece gives the lines, and
line numbers, of splitting the whole text.

``apply`` is the one executor: it is the only code that maps an opcode
to the ``TrapState`` primitives, and it raises a ``TrapError`` for any
command the constraint set forbids.  ``_execute`` runs a program, or a
range of it, through it, owns the rules of program order and tallies
splits and merges; replay and the trace renderers share it, each on a
fresh trap.  ``verify_steps`` checks a lowered program as strict replay
does, but runs each repeated lowering step through ``_execute`` only once
per trap shape and applies what that run did wherever the step recurs.

The trace is drawn in one pass: ``_trace`` runs a strict replay through
``_execute``'s ``after`` hook and keeps one text row, two bytes per
segment.  A move carries each moved crystal's cell to its destination and
blanks its origin, AEC writes ``--`` and REC ``..``; only S, M and RC
(``liz-1..liz+1``) and AIC (its segment) read the trap back.  The carry is
exact because the hook runs only after a command strict replay accepted:
each mover left a crystal's segment for an empty one, crystals stay two
segments apart, so no carry lands on another's origin and their order does
not matter, and a segment never holds a crystal and a well at once (AEC
needs a free segment, no crystal enters a well, and AIC runs before any
AEC).  Each row goes out as bytes when its state-changing command has run;
the labels, their width and the last row, which runs to the program's end,
follow from the opcodes alone.  The SVG draws each row from the live trap
in the same pass; ``render_traces`` gives both from one replay.
"""
from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import chain

from .trap import TrapConfig, TrapState, TrapError

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
DIRECTION = {"SMU": -1, "SMD": 1}  # move opcode -> step, +1 toward higher segments

_HEADER_START_RE = re.compile(r"#\s*segments=")  # a line that must be a header
_HEADER_RE = re.compile(r"#\s*segments=(\S+)\s+liz=(\S+)")
_INT_RE = re.compile(r"-?[0-9]+")  # every integer in sequence text
_SERIALIZE_PIECE = 4096  # commands that serialize_pieces formats into one piece
_PARSE_PIECE = 65536  # characters that parse_sequence splits into lines at a time


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

    n_segments: int = TrapConfig.n_segments
    liz: int = TrapConfig.liz
    raw: list[RawCommand] = field(default_factory=list)

    def opcode_counts(self) -> dict[str, int]:
        """Each opcode of the set and how often it occurs; an opcode outside
        the set is a ``TrapError``, as in ``apply``."""
        counts = {op: 0 for op in OPCODE_ARITY}
        try:
            for op, _ in self.raw:
                counts[op] += 1
        except KeyError as e:
            raise TrapError(f"unknown opcode {e.args[0]!r}") from None
        return counts

    def config(self) -> TrapConfig:
        return TrapConfig(n_segments=self.n_segments, liz=self.liz)

    def __len__(self) -> int:
        return len(self.raw)


def cost(sequence: CommandSequence) -> int:
    """Split/merge count: the schedule cost metric."""
    return sum(1 for op, _ in sequence.raw if op == "S" or op == "M")


class _LineTemplates(dict):
    """Each distinct command's line template, made on its first lookup."""

    def __missing__(self, command: RawCommand) -> str:
        op, params = command
        # for a move params[0] is already the segment count
        count = () if op in DIRECTION else (len(params),)
        tail = " ".join(map(str, (op, *count, *params))).replace("%", "%%")
        self[command] = line = f"%d {tail}\n"
        return line


def serialize_pieces(sequence: CommandSequence) -> Iterator[str]:
    """:func:`serialize`'s text as consecutive pieces of whole lines: the
    header, then each run of ``_SERIALIZE_PIECE`` commands.

    Each distinct command gets one line template per call, and each piece
    is one ``%``-format of its commands' joined templates with their line
    numbers, so no per-line string is built.  ``serialize`` does not
    validate opcodes, so a ``%`` in a command's text is escaped as ``%%``."""
    yield f"# segments={sequence.n_segments} liz={sequence.liz}\n"
    raw = sequence.raw
    template = _LineTemplates().__getitem__
    for start in range(0, len(raw), _SERIALIZE_PIECE):
        piece = raw[start:start + _SERIALIZE_PIECE]
        numbers = tuple(range(start + 1, start + 1 + len(piece)))
        yield "".join(map(template, piece)) % numbers


def serialize(sequence: CommandSequence) -> str:
    return "".join(serialize_pieces(sequence))


def _integer(token: str) -> int:
    """``token``'s value; ValueError unless it is written ``-?[0-9]+`` (or
    has more digits than ``int`` converts)."""
    if not _INT_RE.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _header(line: str, lineno: int) -> tuple[int, int]:
    """The segment count and LIZ of a ``# segments=<S> liz=<L>`` line."""
    m = _HEADER_RE.fullmatch(line)
    if m is not None:
        try:
            return _integer(m[1]), _integer(m[2])
        except ValueError:
            pass
    raise FormatError("bad header, expected '# segments=<S> liz=<L>'", lineno)


def _command(tokens: list[str], lineno: int) -> RawCommand:
    """Validate the opcode and parameter tokens of one command line."""
    op = tokens[0]
    if op not in OPCODE_ARITY:
        raise FormatError(f"unknown opcode {op!r}", lineno)
    arity = OPCODE_ARITY[op]
    try:
        count, *rest = map(_integer, tokens[1:])
    except ValueError:
        raise FormatError("parameters must be integers", lineno) from None
    if len(rest) != count:
        raise FormatError(
            f"{op} declares {count} parameters but carries {len(rest)}", lineno)
    if arity is None:  # SMU / SMD
        if count < 1:
            raise FormatError(f"{op} needs at least one segment", lineno)
        return op, (count, *rest)
    if count != arity:
        raise FormatError(f"{op} takes {arity} parameters, got {count}", lineno)
    return op, tuple(rest)


def _text_pieces(text: str) -> Iterator[str]:
    """``text`` as consecutive slices that each end just after the first
    ``"\\n"`` at or past ``_PARSE_PIECE`` characters, or at the text's end."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _PARSE_PIECE - 1) + 1 or end
        yield text[start:stop]
        start = stop


def parse_sequence(text: str) -> CommandSequence:
    """Inverse of :func:`serialize`; raises FormatError with line numbers.

    Every line's sequence number is checked.  A line whose number is written
    exactly as :func:`serialize` writes it is ``<seq> <tail>``, so once the
    number is right its outcome depends on the tail alone: the tail is
    validated by :func:`_command` the first time it is seen, and later lines
    with the same tail reuse that command.  Equal commands are one tuple.
    """
    n_segments, liz = TrapConfig.n_segments, TrapConfig.liz
    header = 0  # the header's line, once read
    raw: list[RawCommand] = []
    tails: dict[str, RawCommand] = {}
    interned: dict[RawCommand, RawCommand] = {}
    lines = chain.from_iterable(map(str.splitlines, _text_pieces(text)))
    for lineno, line in enumerate(lines, start=1):
        seq_text, _, tail = line.partition(" ")
        canonical = seq_text == str(len(raw) + 1)
        if canonical:
            command = tails.get(tail)
            if command is not None:
                raw.append(command)
                continue
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if _HEADER_START_RE.match(stripped):
                if raw:
                    raise FormatError("header after the first command", lineno)
                if header:
                    raise FormatError(f"repeated header (first on line {header})", lineno)
                n_segments, liz = _header(stripped, lineno)
                header = lineno
            continue
        tokens = stripped.split()
        if len(tokens) < 3:
            raise FormatError("expected '<seq> <OPCODE> <nparams> ...'", lineno)
        try:
            seq = _integer(tokens[0])
        except ValueError:
            raise FormatError(f"bad sequence number {tokens[0]!r}", lineno) from None
        if seq != len(raw) + 1:
            raise FormatError(
                f"out-of-order sequence number {seq} (expected {len(raw) + 1})", lineno)
        command = _command(tokens[1:], lineno)
        command = interned.setdefault(command, command)
        if canonical:
            tails[tail] = command
        raw.append(command)
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
    there before it is rejected.  START changes nothing; where it and AIC
    may stand is a rule of the program (see :func:`_execute`).  An opcode
    outside the set is a TrapError.
    """
    d = DIRECTION.get(op)
    if d is not None:
        if params[0] == 1:  # the single-crystal step, by far the commonest
            state.move_crystal_step(params[1], d)
            return
        # parallel form: move the leading crystal first, and undo the steps
        # already taken if a later one fails
        moved: list[int] = []
        try:
            for s in sorted(params[1:], reverse=d > 0):
                moved.append(state.move_crystal_step(s, d))
        except TrapError:
            for s in reversed(moved):
                state.move_crystal_step(s, -d)
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
            ions = state.seg_crystal.get(seg)
            if ions is not None:
                ions.reverse()
            raise TrapError(f"rotation outside LIZ (segment {seg})")
        state.rotate_at_liz()
    elif op == "DG":
        state.record_gate(params[0])
    elif op == "AIC":
        state.place_ion(params[0], params[1])
    elif op != "START":
        raise TrapError(f"unknown opcode {op!r}")


def _execute(sequence: CommandSequence, state: TrapState, bad,
             after=None, start: int = 0, stop: int | None = None) -> tuple[int, int]:
    """Run the program, or its commands ``raw[start:stop]``, on ``state``;
    return the numbers of S and M that ran.

    Here live the rules of program order: START first and only there, and
    AIC only before any other command ran; :func:`apply` runs the rest.  A
    run that begins past the first command takes shuttling as started, so
    an AIC in it is a violation.  Each violation goes to ``bad(seq,
    message)``; ``after``, if given, is called as ``after(seq, op, params)``
    once each command ran.
    """
    raw = sequence.raw
    if not start and raw and raw[0][0] != "START":
        bad(1, "sequence does not begin with START")
    started = start > 0
    splits = merges = 0
    run = raw if not start and stop is None else raw[start:stop]
    for seq, (op, params) in enumerate(run, start + 1):
        if op == "START":
            if seq > 1:
                bad(seq, "START not at the beginning")
        elif op == "AIC" and started:
            bad(seq, "initial placement after shuttling started")
        else:
            try:
                apply(state, op, params)
            except TrapError as e:
                bad(seq, str(e))
            else:
                started = op != "AIC"  # an AIC runs only before the start
                if op == "S":
                    splits += 1
                elif op == "M":
                    merges += 1
        if after is not None:
            after(seq, op, params)
    return splits, merges


def _reject(seq: int, message: str) -> None:
    raise ReplayError(seq, message)


def replay(sequence: CommandSequence, config: TrapConfig | None = None,
           strict: bool = False) -> ReplayReport:
    """Re-execute the program on a fresh trap, validating every command.

    :func:`_execute` applies the rules and counts the splits and merges.
    Lenient mode records one violation per failing command and skips that
    command (a missing START is reported against command 1, which still
    runs; an RC outside the LIZ still reverses its crystal, see
    :func:`apply`).  Strict mode raises ReplayError at the first violation.
    """
    state = TrapState(config or sequence.config())
    violations: list[tuple[int, str]] = []
    splits, merges = _execute(sequence, state, _reject if strict else
                              lambda seq, message: violations.append((seq, message)))
    return ReplayReport(state, splits, merges, violations)


def verify_steps(sequence: CommandSequence, steps,
                 config: TrapConfig | None = None) -> ReplayReport:
    """Strict :func:`replay` of a lowered program, running each repeated
    step on the executor once per trap shape.  It gives strict replay's
    verdict on every program and record list: a clean program's final trap
    and S and M counts, or its first violation's ``ReplayError``.

    ``steps`` are ``ScheduleResult.steps``: each step's ``(start, stop,
    entry, dg)``.  A step whose entry occurs once, and every command outside
    the steps, runs through :func:`_execute`, as does a step whose entry
    recurs the first time it is met in a shape.  The shape is read off this
    trap: its occupied segments with their crystal sizes, and its wells.
    That run stores where the step's commands stand, its S and M counts and
    where each ion ends, as positions into the step's flat ion order.  A
    later step with the same shape and entry is not run when its commands
    equal the stored ones, apart from the ``DG`` at ``dg``, which must be a
    ``DG`` with an index of at least 0: the stored ion map and counts are
    applied.

    This is exact because, apart from AIC, :func:`apply` accepts or rejects
    a command from the shape and the command alone, and the ions only ride
    along; a stored run counts shuttling as started, so it holds no AIC.  A
    step whose record does not fit the program in order, or starts inside
    the opening run of START and AIC, where AIC is still legal, runs with
    the commands around it.
    """
    state = TrapState(config or sequence.config())
    raw = sequence.raw
    repeats = Counter(entry for _, _, entry, _ in steps)
    store: dict[tuple, tuple] = {}  # (shape, entry) -> the stored run
    # past raw[first], the first command but START and AIC, AIC is illegal
    first = next((i for i, (op, _) in enumerate(raw) if op not in ("START", "AIC")),
                 len(raw))
    splits = merges = 0
    done = 0  # every command before it has run
    for start, stop, entry, dg in steps:
        if repeats[entry] < 2 or not max(done, first) <= start < stop <= len(raw):
            continue
        if done < start:
            s, m = _execute(sequence, state, _reject, None, done, start)
            splits, merges = splits + s, merges + m
        seg_crystal = state.seg_crystal
        segments = sorted(seg_crystal)
        crystals = [seg_crystal[seg] for seg in segments]
        key = (tuple(segments), tuple(map(len, crystals)), frozenset(state.wells),
               entry)
        flat = [ion for ions in crystals for ion in ions]
        stored = store.get(key)
        if stored is not None and stored[1] == stop - start:
            # the stored run ran raw[origin:origin + size]
            origin, size, gate_at, s, m, ends, wells = stored
            run, commands = raw[start:stop], raw[origin:origin + size]
            if gate_at is not None:
                gate = run[gate_at]
                if gate[0] == "DG" and gate[1][0] >= 0:
                    commands[gate_at] = gate  # else the stored gate differs from it
            if run == commands:
                state.seg_crystal = {seg: [flat[p] for p in at] for seg, at in ends}
                state.wells = set(wells)
                splits, merges, done = splits + s, merges + m, stop
                continue
        s, m = _execute(sequence, state, _reject, None, start, stop)
        splits, merges, done = splits + s, merges + m, stop
        if stored is None and (dg is None or 0 <= dg < stop - start
                               and raw[start + dg][0] == "DG"):
            position = {ion: p for p, ion in enumerate(flat)}
            seg_crystal = state.seg_crystal
            store[key] = (start, stop - start, dg, s, m,
                          [(seg, [position[ion] for ion in seg_crystal[seg]])
                           for seg in sorted(seg_crystal)],
                          frozenset(state.wells))
    if done < len(raw):
        s, m = _execute(sequence, state, _reject, None, done)
        splits, merges = splits + s, merges + m
    return ReplayReport(state, splits, merges, [])


# -- trace rendering ---------------------------------------------------------

_ION_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _ion_char(ion: int) -> str:
    return _ION_CHARS[ion] if 0 < ion < len(_ION_CHARS) else "+"


def _cell(ions: list[int] | None, well: bool) -> bytes:
    """A segment's two text characters: top and bottom ion, ``--`` an empty
    well, ``..`` nothing."""
    if ions:
        return (_ion_char(ions[0]) + (_ion_char(ions[1]) if len(ions) > 1 else ".")).encode()
    return b"--" if well else b".."


def _label(first: int, last: int) -> bytes:
    """A row's command-number range, ``first-last`` or one number."""
    return b"%d-%d" % (first, last) if last > first else b"%d" % first


def _last(raw: list[RawCommand], seq: int, draws: bool) -> int:
    """The last command at or before ``seq`` that draws a row (``draws``) or
    draws none; 0 if there is none."""
    while seq and (raw[seq - 1][0] in STATE_CHANGING) != draws:
        seq -= 1
    return seq


def _row_shape(raw: list[RawCommand]) -> tuple[int, int]:
    """The last row's command (0: no row) and the widest row label, read off
    the opcodes near the end.  A label's width grows with its numbers, so
    the widest is the last row's, which runs to the program's end, or that
    of the last earlier row holding a command that draws none."""
    last = _last(raw, len(raw), True)
    if not last:
        return 0, 1
    width = len(_label(_last(raw, last - 1, True) + 1, len(raw)))
    quiet = _last(raw, last - 1, False)
    if quiet:  # every command after it draws a row, so its row ends right after it
        width = max(width, len(_label(_last(raw, quiet, True) + 1, quiet + 1)))
    return last, width


def _trace(sequence: CommandSequence, config: TrapConfig | None,
           svg: bool) -> tuple[str, str | None]:
    """The text grid, and the SVG if ``svg``, drawn in one strict replay; a
    ReplayError ends it, so nothing is drawn for a bad program."""
    cfg = config or sequence.config()
    raw = sequence.raw
    last_row, width = _row_shape(raw)
    state = TrapState(cfg)
    seg_crystal, wells = state.seg_crystal, state.wells
    around_liz = (cfg.liz - 1, cfg.liz, cfg.liz + 1)
    text = bytearray(f"# segments={cfg.n_segments} liz={cfg.liz}\n"
                     f"{' ' * (width + 2 + 3 * (cfg.liz - 1))}vv\n".encode())
    body = bytearray(b" ".join([b".."] * cfg.n_segments))  # segment s at 3s - 3
    gates: list[int] = []  # of the row being reached
    first = 1  # the row's first command
    if svg:
        rows = sum(op in STATE_CHANGING for op, _ in raw)
        parts, svg_row = _svg(cfg, rows, seg_crystal, wells)

    def record(seq: int, op: str, params: tuple[int, ...]) -> None:
        nonlocal first, text
        d = DIRECTION.get(op)
        if d is not None:  # each crystal carries its cell
            if params[0] == 1:  # the single-crystal step, by far the commonest
                at = 3 * params[1] - 3
                body[at + 3 * d:at + 3 * d + 2] = body[at:at + 2]
                body[at:at + 2] = b".."
            else:
                for s in params[1:]:
                    at = 3 * s - 3
                    body[at + 3 * d:at + 3 * d + 2] = body[at:at + 2]
                    body[at:at + 2] = b".."
        elif op == "AEC" or op == "REC":  # a well's segment holds no crystal
            body[3 * params[0] - 3:3 * params[0] - 1] = b"--" if op == "AEC" else b".."
            return
        elif op == "DG":
            gates.append(params[0])
            return
        elif op == "START":
            return
        else:  # S, M and RC change liz-1..liz+1, AIC (ion, segment) its segment
            for s in around_liz if op != "AIC" else params[1:]:
                body[3 * s - 3:3 * s - 1] = _cell(seg_crystal.get(s), s in wells)
        if seq == last_row:  # the last row runs to the program's end
            gates.extend(p[0] for o, p in raw[seq:] if o == "DG")
            seq = len(raw)
        label = _label(first, seq)
        first = seq + 1
        if svg:
            svg_row(label.decode() + (" DG" if gates else ""))
        if gates:
            text += b"%*b  %b  DG %b\n" % (width, label, body,
                                          ",".join(f"g{g}" for g in gates).encode())
            gates.clear()
        else:
            text += b"%*b  %b\n" % (width, label, body)

    _execute(sequence, state, _reject, record)
    if not svg:
        return text.decode(), None
    parts.append("</svg>")
    return text.decode(), "\n".join(parts) + "\n"


def _svg(cfg: TrapConfig, rows: int, seg_crystal: dict[int, list[int]],
         wells: set[int]) -> tuple[list[str], Callable[[str], None]]:
    """The SVG's opening parts, and a function that draws the next row,
    given its label, from the live trap: a box per well and a dot per ion."""
    cell, margin_x, margin_y = 16, 56, 28
    width = margin_x + cfg.n_segments * cell + 8
    height = margin_y + max(rows, 1) * cell + 8

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
    ys = (margin_y + (r + 0.5) * cell for r in range(rows))

    def row(label: str) -> None:
        y = next(ys)
        parts.append(f'<text x="4" y="{y + 3}" fill="#444">{label}</text>')
        for seg in sorted(wells):  # no well holds a crystal, so the dots are drawn over them
            parts.append(f'<rect x="{x_of(seg) - 5}" y="{y - 5}" width="10" height="10" '
                         f'fill="none" stroke="#aaa"/>')
        for seg, ions in sorted(seg_crystal.items()):
            for ion, dy in zip(ions, (0.0,) if len(ions) == 1 else (-3.0, 3.0)):
                parts.append(f'<circle cx="{x_of(seg)}" cy="{y + dy}" r="3.4" '
                             f'fill="hsl({ion * 47 % 360},70%,45%)"/>')

    return parts, row


def render_trace(sequence: CommandSequence, config: TrapConfig | None = None) -> str:
    """Text grid of the replayed program: one row per state-changing command,
    one two-character cell per segment (top/bottom ion, ``--`` empty well)."""
    return _trace(sequence, config, False)[0]


def render_trace_svg(sequence: CommandSequence, config: TrapConfig | None = None) -> str:
    """Self-contained SVG version of the trace grid (ions as colored dots)."""
    return _trace(sequence, config, True)[1]


def render_traces(sequence: CommandSequence,
                  config: TrapConfig | None = None) -> tuple[str, str]:
    """:func:`render_trace` and :func:`render_trace_svg` from one replay."""
    return _trace(sequence, config, True)
