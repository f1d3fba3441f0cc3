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
"""
from __future__ import annotations

import logging
import math
import re
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

_TOKEN_RE = re.compile(
    r"""(?P<ID>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<NUMBER>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<STRING>"[^"\n]*")
      | (?P<ARROW>->)
      | (?P<SYM>[;,()\[\]+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    text = re.sub(r"//[^\n]*", lambda m: " " * len(m.group()), text)
    tokens = []
    line, line_start = 1, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise QasmError(f"unexpected character {ch!r}", line, i - line_start + 1)
        tokens.append(_Token(m.lastgroup, m.group(), line, i - line_start + 1))
        i = m.end()
    return tokens


# -- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, decompose: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.decompose = decompose
        # register name -> the flat indices of its qubits (bits for a creg)
        self.registers: dict[str, range] = {}
        self.cregs: dict[str, range] = {}
        self.n_qubits = 0
        self.depth = 0  # open parentheses in the current expression
        self.specs: list[tuple[str, tuple[int, ...], tuple[float, ...]]] = []

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, kind: str | None = None, value: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.col)
        if kind is not None and tok.kind != kind:
            raise QasmError(f"expected {kind}, got {tok.value!r}", tok.line, tok.col)
        if value is not None and tok.value != value:
            raise QasmError(f"expected {value!r}, got {tok.value!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def _integer(self) -> int:
        """Read a NUMBER token that must be a plain integer ``int`` converts."""
        tok = self._next("NUMBER")
        if not tok.value.isdecimal():
            raise QasmError(f"expected an integer, got {tok.value!r}",
                            tok.line, tok.col)
        try:
            return int(tok.value)
        except ValueError:  # more digits than int converts
            raise QasmError(f"integer of {len(tok.value)} digits is too long",
                            tok.line, tok.col) from None

    def _argument(self, table: dict[str, range], kind: str) -> tuple[_Token, int | None]:
        """Read ``name`` or ``name[i]`` naming a ``kind`` register of
        ``table``; return the name token and the flat index, None for a
        whole register."""
        name = self._next("ID")
        if name.value not in table:
            raise QasmError(f"unknown {kind} register {name.value!r}",
                            name.line, name.col)
        if not (self._peek() and self._peek().value == "["):
            return name, None
        self._next("SYM", "[")
        idx_tok = self._peek()
        idx = self._integer()
        self._next("SYM", "]")
        register = table[name.value]
        if idx >= len(register):
            raise QasmError(
                f"{name.value}[{idx}] out of range (size {len(register)})",
                idx_tok.line, idx_tok.col)
        return name, register[idx]

    def _qubit_arguments(self) -> list[tuple[_Token, int | None]]:
        """A comma-separated list of quantum register arguments."""
        args = [self._argument(self.registers, "quantum")]
        while self._peek() and self._peek().value == ",":
            self._next("SYM", ",")
            args.append(self._argument(self.registers, "quantum"))
        return args

    def parse(self) -> Circuit:
        self._header()
        while self._peek() is not None:
            self._statement()
        return build_circuit(self.n_qubits, self.specs)

    def _header(self) -> None:
        tok = self._next("ID")
        if tok.value != "OPENQASM":
            raise QasmError("missing OPENQASM 2.0 header", tok.line, tok.col)
        version = self._next("NUMBER")
        if version.value != "2.0":
            raise QasmError(f"unsupported version {version.value}",
                            version.line, version.col)
        self._next("SYM", ";")

    def _statement(self) -> None:
        tok = self._next("ID")
        if tok.value == "include":
            target = self._next("STRING")
            if target.value != '"qelib1.inc"':
                raise QasmError(f"unsupported include {target.value}",
                                target.line, target.col)
            self._next("SYM", ";")
        elif tok.value in ("qreg", "creg"):
            name = self._next("ID")
            self._next("SYM", "[")
            size_tok = self._peek()
            size = self._integer()
            if size > sys.maxsize:  # a longer range has no len()
                raise QasmError(f"register size over {sys.maxsize}",
                                size_tok.line, size_tok.col)
            self._next("SYM", "]")
            self._next("SYM", ";")
            if name.value in self.registers or name.value in self.cregs:
                raise QasmError(f"register {name.value!r} redeclared",
                                name.line, name.col)
            if tok.value == "qreg":
                self.registers[name.value] = range(self.n_qubits, self.n_qubits + size)
                self.n_qubits += size
            else:
                self.cregs[name.value] = range(size)
                log.warning("%d:%d: creg %s ignored (no effect on shuttling)",
                            tok.line, tok.col, name.value)
        elif tok.value == "measure":
            qreg, q = self._argument(self.registers, "quantum")
            self._next("ARROW")
            creg, c = self._argument(self.cregs, "classical")
            if (q is None) != (c is None):
                raise QasmError("measure needs both arguments indexed or "
                                "both whole registers", creg.line, creg.col)
            if q is None and len(self.registers[qreg.value]) != len(self.cregs[creg.value]):
                raise QasmError(f"measure of register {qreg.value!r} into "
                                f"{creg.value!r} of another size",
                                creg.line, creg.col)
            self._next("SYM", ";")
            log.warning("%d:%d: measure ignored (no effect on shuttling)",
                        tok.line, tok.col)
        elif tok.value == "barrier":
            self._qubit_arguments()
            self._next("SYM", ";")
            log.warning("%d:%d: barrier ignored (no effect on shuttling)",
                        tok.line, tok.col)
        elif tok.value in ("gate", "opaque", "if", "reset"):
            raise QasmError(f"unsupported construct {tok.value!r}",
                            tok.line, tok.col)
        else:
            self._gate_statement(tok)

    def _gate_statement(self, name: _Token) -> None:
        params: tuple[float, ...] = ()
        if self._peek() and self._peek().value == "(":
            self._next("SYM", "(")
            params = self._expr_list()
            self._next("SYM", ")")
        operands = []
        for arg, q in self._qubit_arguments():
            if q is None:
                raise QasmError("whole-register arguments are not supported",
                                arg.line, arg.col)
            operands.append(q)
        self._next("SYM", ";")
        if len(set(operands)) != len(operands):
            raise QasmError(f"gate {name.value} repeats an operand",
                            name.line, name.col)
        if len(operands) <= 2:
            self.specs.append((name.value, tuple(operands), params))
        elif name.value == "ccx" and self.decompose:
            inner = decompose_gate(Gate(0, "ccx", tuple(operands)))
            self.specs.extend((g.kind, g.operands, g.params) for g in inner)
        else:
            raise QasmError(
                f"{name.value} acts on {len(operands)} qubits (max 2; "
                "ccx is supported with decomposition enabled)",
                name.line, name.col)

    # expression grammar: expr := term (('+'|'-') term)*
    #                     term := factor (('*'|'/') factor)*
    #                     factor := '-'* (NUMBER | 'pi' | '(' expr ')')
    def _expr_list(self) -> tuple[float, ...]:
        values = [self._finite_expr()]
        while self._peek() and self._peek().value == ",":
            self._next("SYM", ",")
            values.append(self._finite_expr())
        return tuple(values)

    def _finite_expr(self) -> float:
        """An expression whose value must be finite (``to_qasm`` could not
        print an infinity or NaN back as QASM)."""
        tok = self._peek()
        value = self._expr()
        if not math.isfinite(value):
            raise QasmError(f"expression value {value} is not finite",
                            tok.line, tok.col)
        return value

    def _expr(self) -> float:
        value = self._term()
        while self._peek() and self._peek().value in "+-":
            if self._next().value == "+":
                value += self._term()
            else:
                value -= self._term()
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() and self._peek().value in "*/":
            op = self._next().value
            tok = self._peek()
            factor = self._factor()
            if op == "*":
                value *= factor
            elif factor == 0:
                raise QasmError("division by zero", tok.line, tok.col)
            else:
                value /= factor
        return value

    def _factor(self) -> float:
        negate = False
        while (tok := self._peek()) is not None and tok.value == "-":
            self._next()
            negate = not negate
        if tok is None:
            last = self.tokens[-1]
            raise QasmError("unexpected end of expression", last.line, last.col)
        if tok.value == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise QasmError(
                    f"parentheses nested deeper than {MAX_PAREN_DEPTH}", tok.line, tok.col)
            self._next()
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            self._next("SYM", ")")
        elif tok.kind == "NUMBER":
            self._next()
            value = float(tok.value)
        elif tok.kind == "ID" and tok.value == "pi":
            self._next()
            value = math.pi
        else:
            raise QasmError(f"bad expression token {tok.value!r}", tok.line, tok.col)
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
