"""OpenQASM 2.0 subset frontend.

Hand-written tokenizer and recursive-descent parser covering the subset the
scheduler needs: the version header, ``include "qelib1.inc";``, ``qreg``
declarations (multiple registers are flattened in declaration order) and
gate statements with indexed qubit arguments.  ``creg``, ``measure`` and
``barrier`` parse, with their arguments checked against the declared
registers, but are dropped with a warning since they never move an ion.
Angle parameters are evaluated (numbers, ``pi``, ``+ - * /``, parentheses
nested at most ``MAX_PAREN_DEPTH`` deep) and carried opaquely; a value that
is not finite is a syntax error.  Numbers are written in ASCII digits, and
register sizes and qubit indices are integers that ``int`` converts; a
register holds at most ``sys.maxsize`` qubits.  Gate semantics are never
interpreted.

Tokens are plain strings from one ``findall``; a token's kind follows from
its first character.  Line and column are worked out only for an error or a
warning, from one ``finditer`` pass over the text that gives every token's
offset.  Each distinct gate statement, keyed by its tokens through its
``;``, is parsed once per call, and a repeat adds the stored gates again.
That is exact: a gate statement holds no ``;`` before its end, its gates
depend only on its tokens, on ``decompose`` and on the registers it names,
registers are never redeclared or resized, and a statement that raises is
never stored.  Declarations, ``measure`` and ``barrier`` are always parsed,
since they declare registers or log a warning at their own position.
"""
from __future__ import annotations

import logging
import math
import re
import string
import sys
from dataclasses import dataclass

log = logging.getLogger(__name__)

# parenthesis nesting in an angle expression; each level costs the parser a
# few stack frames, so this keeps deep input well inside the recursion limit
MAX_PAREN_DEPTH = 100


class QasmError(Exception):
    """Input outside the supported subset: bad syntax, an unsupported gate
    or an undeclared register or index.  Carries the 1-based source
    position; the message names what failed."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Gate:
    """One circuit operation: opaque kind, 1 or 2 qubit operands."""

    index: int
    kind: str
    operands: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def two_qubit_gates(self) -> tuple[Gate, ...]:
        return tuple(g for g in self.gates if len(g.operands) == 2)


def build_circuit(n_qubits: int, specs) -> Circuit:
    """Assemble a Circuit from (kind, operands, params) triples, validating
    operand ranges and numbering gates in order."""
    gates = []
    for kind, operands, params in specs:
        operands = tuple(operands)
        if len(operands) not in (1, 2):
            raise ValueError(f"gate {kind} has {len(operands)} operands")
        if len(operands) == 2 and operands[0] == operands[1]:
            raise ValueError(f"gate {kind} repeats operand {operands[0]}")
        for q in operands:
            if not 0 <= q < n_qubits:
                raise ValueError(f"operand {q} outside 0..{n_qubits - 1}")
        gates.append(Gate(len(gates), kind, operands, tuple(params)))
    return Circuit(n_qubits, tuple(gates))


# -- tokenizer ----------------------------------------------------------------

# the kinds ID, NUMBER, STRING, ARROW and SYM in this order, then \S: any
# other character is a token of its own, which _Parser rejects before parsing
_TOKEN_RE = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_]*
      | (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?
      | "[^"\n]*"
      | ->
      | [;,()\[\]{}=+\-*/]
      | \S
    """,
    re.VERBOSE,
)
# the one-character tokens that belong to a kind
_ONE_CHARACTER = frozenset(string.ascii_letters + string.digits + "_;,()[]{}=+-*/")


def _kind(token: str) -> str:
    """The kind of a token that passed the bad-character check, from its
    first character."""
    first = token[0]
    if first.isalpha() or first == "_":
        return "ID"
    if first.isdigit() or first == ".":
        return "NUMBER"
    if first == '"':
        return "STRING"
    return "ARROW" if token == "->" else "SYM"


# -- parser -------------------------------------------------------------------

# statements that declare registers or log a warning, so never memoised
_ALWAYS_PARSED = frozenset(("include", "qreg", "creg", "measure", "barrier"))


class _Parser:
    def __init__(self, text: str, decompose: bool):
        # blanking comments keeps every token's offset and line
        self.text = re.sub(r"//[^\n]*", lambda m: " " * len(m.group()), text)
        self.tokens: list[str] = _TOKEN_RE.findall(self.text)
        self.offsets: list[int] | None = None  # found once a position is needed
        self.pos = 0
        self.decompose = decompose
        # register name -> the flat indices of its qubits (bits for a creg)
        self.registers: dict[str, range] = {}
        self.cregs: dict[str, range] = {}
        self.n_qubits = 0
        self.depth = 0  # open parentheses in the current expression
        self.specs: list[tuple[str, tuple[int, ...], tuple[float, ...]]] = []
        bad = [tok for tok in set(self.tokens).difference(_ONE_CHARACTER) if len(tok) == 1]
        if bad:
            at = min(map(self.tokens.index, bad))
            raise self._error(f"unexpected character {self.tokens[at]!r}", at)

    def _where(self, at: int) -> tuple[int, int]:
        """The 1-based line and column of token ``at``, or of the last token
        when ``at`` is past it."""
        if not self.tokens:
            return 1, 1
        if self.offsets is None:
            self.offsets = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        offset = self.offsets[min(at, len(self.tokens) - 1)]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return self.text.count("\n", 0, offset) + 1, offset - line_start + 1

    def _error(self, message: str, at: int) -> QasmError:
        return QasmError(message, *self._where(at))

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, kind: str, value: str | None = None) -> str:
        at = self.pos
        if at == len(self.tokens):
            raise self._error("unexpected end of input", at)
        tok = self.tokens[at]
        # a token equal to ``value`` is of ``kind``
        if tok != value and _kind(tok) != kind:
            raise self._error(f"expected {kind}, got {tok!r}", at)
        if value is not None and tok != value:
            raise self._error(f"expected {value!r}, got {tok!r}", at)
        self.pos = at + 1
        return tok

    def _integer(self) -> int:
        """Read a NUMBER token that must be a plain integer ``int`` converts."""
        at = self.pos
        tok = self._next("NUMBER")
        if not tok.isdecimal():
            raise self._error(f"expected an integer, got {tok!r}", at)
        try:
            return int(tok)
        except ValueError:  # more digits than int converts
            raise self._error(f"integer of {len(tok)} digits is too long", at) from None

    def _argument(self, table: dict[str, range], kind: str) -> tuple[int, int | None]:
        """Read ``name`` or ``name[i]`` naming a ``kind`` register of
        ``table``; return the name's token index and the flat index, None
        for a whole register."""
        at = self.pos
        name = self._next("ID")
        if name not in table:
            raise self._error(f"unknown {kind} register {name!r}", at)
        if self._peek() != "[":
            return at, None
        self.pos += 1
        idx_at = self.pos
        idx = self._integer()
        self._next("SYM", "]")
        register = table[name]
        if idx >= len(register):
            raise self._error(f"{name}[{idx}] out of range (size {len(register)})", idx_at)
        return at, register[idx]

    def _qubit_arguments(self) -> list[tuple[int, int | None]]:
        """A comma-separated list of quantum register arguments."""
        args = [self._argument(self.registers, "quantum")]
        while self._peek() == ",":
            self.pos += 1
            args.append(self._argument(self.registers, "quantum"))
        return args

    def parse(self) -> Circuit:
        self._header()
        tokens, specs = self.tokens, self.specs
        # a gate statement's tokens through its ';' -> the specs it added:
        # its result depends only on them, on decompose and on the registers
        # it names, which are never redeclared or resized
        parsed: dict[tuple[str, ...], list] = {}
        while self.pos < len(tokens):
            start = self.pos
            if tokens[start] in _ALWAYS_PARSED:
                self._statement()
                continue
            try:
                end = tokens.index(";", start) + 1
            except ValueError:  # no statement can end: parsing it fails
                end = len(tokens)
            key = tuple(tokens[start:end])
            stored = parsed.get(key)
            if stored is None:
                first = len(specs)
                self._statement()  # a statement that raises is never stored
                parsed[key] = specs[first:]
            else:
                specs += stored
                self.pos = end
        return build_circuit(self.n_qubits, specs)

    def _header(self) -> None:
        if self._next("ID") != "OPENQASM":
            raise self._error("missing OPENQASM 2.0 header", self.pos - 1)
        version = self._next("NUMBER")
        if version != "2.0":
            raise self._error(f"unsupported version {version}", self.pos - 1)
        self._next("SYM", ";")

    def _statement(self) -> None:
        at = self.pos
        tok = self._next("ID")
        if tok == "include":
            target = self._next("STRING")
            if target != '"qelib1.inc"':
                raise self._error(f"unsupported include {target}", at + 1)
            self._next("SYM", ";")
        elif tok in ("qreg", "creg"):
            name = self._next("ID")
            self._next("SYM", "[")
            size_at = self.pos
            size = self._integer()
            if size > sys.maxsize:  # a longer range has no len()
                raise self._error(f"register size over {sys.maxsize}", size_at)
            self._next("SYM", "]")
            self._next("SYM", ";")
            if name in self.registers or name in self.cregs:
                raise self._error(f"register {name!r} redeclared", at + 1)
            if tok == "qreg":
                self.registers[name] = range(self.n_qubits, self.n_qubits + size)
                self.n_qubits += size
            else:
                self.cregs[name] = range(size)
                log.warning("%d:%d: creg %s ignored (no effect on shuttling)",
                            *self._where(at), name)
        elif tok == "measure":
            qreg_at, q = self._argument(self.registers, "quantum")
            self._next("ARROW")
            creg_at, c = self._argument(self.cregs, "classical")
            if (q is None) != (c is None):
                raise self._error("measure needs both arguments indexed or "
                                  "both whole registers", creg_at)
            qreg, creg = self.tokens[qreg_at], self.tokens[creg_at]
            if q is None and len(self.registers[qreg]) != len(self.cregs[creg]):
                raise self._error(f"measure of register {qreg!r} into "
                                  f"{creg!r} of another size", creg_at)
            self._next("SYM", ";")
            log.warning("%d:%d: measure ignored (no effect on shuttling)",
                        *self._where(at))
        elif tok == "barrier":
            self._qubit_arguments()
            self._next("SYM", ";")
            log.warning("%d:%d: barrier ignored (no effect on shuttling)",
                        *self._where(at))
        elif tok in ("gate", "opaque", "if", "reset"):
            raise self._error(f"unsupported construct {tok!r}", at)
        else:
            self._gate_statement(at)

    def _gate_statement(self, at: int) -> None:
        """The gate statement whose name is token ``at``, read up to it."""
        name = self.tokens[at]
        params: tuple[float, ...] = ()
        if self._peek() == "(":
            self.pos += 1
            params = self._expr_list()
            self._next("SYM", ")")
        operands = []
        for arg, q in self._qubit_arguments():
            if q is None:
                raise self._error("whole-register arguments are not supported", arg)
            operands.append(q)
        self._next("SYM", ";")
        if len(set(operands)) != len(operands):
            raise self._error(f"gate {name} repeats an operand", at)
        if len(operands) <= 2:
            self.specs.append((name, tuple(operands), params))
        elif name == "ccx" and self.decompose:
            inner = decompose_gate(Gate(0, "ccx", tuple(operands)))
            self.specs.extend((g.kind, g.operands, g.params) for g in inner)
        else:
            raise self._error(
                f"{name} acts on {len(operands)} qubits (max 2; "
                "ccx is supported with decomposition enabled)", at)

    # expression grammar: expr := term (('+'|'-') term)*
    #                     term := factor (('*'|'/') factor)*
    #                     factor := '-'* (NUMBER | 'pi' | '(' expr ')')
    def _expr_list(self) -> tuple[float, ...]:
        values = [self._finite_expr()]
        while self._peek() == ",":
            self.pos += 1
            values.append(self._finite_expr())
        return tuple(values)

    def _finite_expr(self) -> float:
        """An expression whose value must be finite (``to_qasm`` could not
        print an infinity or NaN back as QASM)."""
        at = self.pos
        value = self._expr()
        if not math.isfinite(value):
            raise self._error(f"expression value {value} is not finite", at)
        return value

    def _expr(self) -> float:
        value = self._term()
        while (op := self._peek()) in ("+", "-"):
            self.pos += 1
            if op == "+":
                value += self._term()
            else:
                value -= self._term()
        return value

    def _term(self) -> float:
        value = self._factor()
        while (op := self._peek()) in ("*", "/"):
            self.pos += 1
            at = self.pos
            factor = self._factor()
            if op == "*":
                value *= factor
            elif factor == 0:
                raise self._error("division by zero", at)
            else:
                value /= factor
        return value

    def _factor(self) -> float:
        negate = False
        while (tok := self._peek()) == "-":
            self.pos += 1
            negate = not negate
        at = self.pos
        if tok is None:
            raise self._error("unexpected end of expression", at)
        if tok == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise self._error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", at)
            self.pos += 1
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            self._next("SYM", ")")
        elif _kind(tok) == "NUMBER":
            self.pos += 1
            value = float(tok)
        elif tok == "pi":
            self.pos += 1
            value = math.pi
        else:
            raise self._error(f"bad expression token {tok!r}", at)
        return -value if negate else value


def parse_qasm(text: str, decompose: bool = False) -> Circuit:
    """Parse OpenQASM 2.0 source into a Circuit.

    With ``decompose`` set, ``ccx`` statements expand to the standard
    two-qubit pattern (:func:`decompose_gate`); any other gate on more than
    two qubits is rejected.
    """
    return _Parser(text, decompose).parse()


def to_qasm(circuit: Circuit) -> str:
    """Pretty-print a Circuit back to OpenQASM 2.0 (parse round-trips)."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    for g in circuit.gates:
        args = ",".join(f"q[{q}]" for q in g.operands)
        if g.params:
            lines.append(f"{g.kind}({','.join(repr(p) for p in g.params)}) {args};")
        else:
            lines.append(f"{g.kind} {args};")
    return "\n".join(lines) + "\n"


def decompose_gate(gate: Gate) -> tuple[Gate, ...]:
    """Expand a Toffoli into two-qubit and single-qubit gates.

    Standard construction: the two-qubit interactions are cx(b,t), cx(a,t),
    cx(b,t), cx(a,t) and one controlled-phase on (a,b) that fuses the usual
    trailing cx(a,b)/T/cx(a,b) block into a single native phase gate.  The
    result is unitarily exact.
    """
    if gate.kind != "ccx":
        raise ValueError(f"can only decompose ccx, got {gate.kind!r}")
    if len(gate.operands) != 3 or len(set(gate.operands)) != 3:
        raise ValueError(f"ccx needs three distinct qubits, got {gate.operands}")
    a, b, t = gate.operands
    quarter = math.pi / 2
    specs = [
        ("h", (t,), ()),
        ("cx", (b, t), ()),
        ("tdg", (t,), ()),
        ("cx", (a, t), ()),
        ("t", (t,), ()),
        ("cx", (b, t), ()),
        ("tdg", (t,), ()),
        ("cx", (a, t), ()),
        ("t", (b,), ()),
        ("t", (t,), ()),
        ("h", (t,), ()),
        ("cp", (a, b), (quarter,)),
        ("tdg", (b,), ()),
    ]
    return tuple(Gate(i, kind, ops, params) for i, (kind, ops, params) in enumerate(specs))
