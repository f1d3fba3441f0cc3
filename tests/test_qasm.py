"""QASM frontend: parsing, validation, round-trip and ccx decomposition."""
import contextlib
import io
import logging
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionshuttle.benchmarks import gen_random_circuit
from ionshuttle.cli import main
from ionshuttle.qasm import (MAX_PAREN_DEPTH, Circuit, Gate, QasmError, _Parser,
                             build_circuit, decompose_gate, parse_qasm, to_qasm)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_single_statement():
    circ = parse_qasm(HEADER + "qreg q[2];\ncx q[0],q[1];\n")
    assert circ.n_qubits == 2
    assert [(g.kind, g.operands) for g in circ.gates] == [("cx", (0, 1))]


def test_empty_gate_list():
    circ = parse_qasm(HEADER + "qreg q[3];\n")
    assert circ.n_qubits == 3
    assert circ.gates == ()


def test_gates_in_source_order():
    circ = parse_qasm(HEADER + "qreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n")
    assert [(g.kind, g.operands) for g in circ.gates] == [
        ("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2))]
    assert [g.index for g in circ.gates] == [0, 1, 2]


def test_ccx_rejected_without_decomposition():
    with pytest.raises(QasmError, match=r"^4:1: ccx acts on 3 qubits \(max 2; ccx is "
                       r"supported with decomposition enabled\)$"):
        parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")


def test_ccx_expands_with_decomposition():
    circ = parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n", decompose=True)
    pairs = [g.operands for g in circ.gates if len(g.operands) == 2]
    assert pairs == [(1, 2), (0, 2), (1, 2), (0, 2), (0, 1)]


def test_four_qubit_gate_always_rejected():
    with pytest.raises(QasmError, match=r"^4:1: cswap acts on 4 qubits \(max 2;"):
        parse_qasm(HEADER + "qreg q[4];\ncswap q[0],q[1],q[2],q[3];\n", decompose=True)


def test_out_of_range_operand():
    with pytest.raises(QasmError, match=r"^4:5: q\[7\] out of range \(size 3\)$") as err:
        parse_qasm(HEADER + "qreg q[3];\nh q[7];\n")
    assert err.value.line == 4


def test_unknown_register():
    with pytest.raises(QasmError, match="^4:3: unknown quantum register 'r'$"):
        parse_qasm(HEADER + "qreg q[3];\nh r[0];\n")


def test_missing_header():
    with pytest.raises(QasmError, match="^1:1: missing OPENQASM 2.0 header$"):
        parse_qasm("qreg q[2];\n")


def test_syntax_error_carries_position():
    with pytest.raises(QasmError, match="^4:9: expected SYM, got 'q'$") as err:
        parse_qasm(HEADER + "qreg q[2];\ncx q[0] q[1];\n")
    assert err.value.line == 4


def test_repeated_operand_rejected():
    with pytest.raises(QasmError, match="^4:1: gate cx repeats an operand$"):
        parse_qasm(HEADER + "qreg q[2];\ncx q[0],q[0];\n")


def test_multiple_qregs_flatten_in_order():
    circ = parse_qasm(HEADER + "qreg a[2];\nqreg b[2];\ncx a[1],b[0];\n")
    assert circ.n_qubits == 4
    assert circ.gates[0].operands == (1, 2)


def test_measure_barrier_creg_ignored_with_warning(caplog):
    src = (HEADER + "qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q[0],q[1];\n"
           "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\nbarrier q;\nmeasure q -> c;\n")
    with caplog.at_level(logging.WARNING, logger="ionshuttle.qasm"):
        circ = parse_qasm(src)
    assert [(g.kind, g.operands) for g in circ.gates] == [("h", (0,))]
    assert sum("measure" in r.message for r in caplog.records) == 3
    assert sum("barrier" in r.message for r in caplog.records) == 2
    assert sum("creg" in r.message for r in caplog.records) == 1


def test_measure_and_barrier_arguments_are_checked():
    # each names an undeclared register or an index outside one
    for stmt, col, message in (
            ("measure zz[99] -> nope[7];", 9, "unknown quantum register 'zz'"),
            ("measure q[0] -> nope[7];", 17, "unknown classical register 'nope'"),
            ("measure c[0] -> c[1];", 9, "unknown quantum register 'c'"),
            ("measure q[0] -> q[1];", 17, "unknown classical register 'q'"),
            ("measure q[2] -> c[0];", 11, r"q\[2\] out of range \(size 2\)"),
            ("measure q[1] -> c[2];", 19, r"c\[2\] out of range \(size 2\)"),
            ("measure q -> nope;", 14, "unknown classical register 'nope'"),
            ("barrier foo[3], bar;", 9, "unknown quantum register 'foo'"),
            ("barrier q[0], bar;", 15, "unknown quantum register 'bar'"),
            ("barrier q, c;", 12, "unknown quantum register 'c'"),
            ("barrier q[5];", 11, r"q\[5\] out of range")):
        with pytest.raises(QasmError, match=message) as err:
            parse_qasm(HEADER + "qreg q[2];\ncreg c[2];\n" + stmt + "\n")
        assert (err.value.line, err.value.col) == (5, col)


@pytest.mark.parametrize("src,where,message", [
    ("OPENQASM 3.0;\n", (1, 10), "unsupported version 3.0"),
    ('OPENQASM 2.0;\ninclude "other.inc";\n', (2, 9), "unsupported include"),
    (HEADER + "qreg q[2];\ncreg q[1];\n", (4, 6), "register 'q' redeclared"),
    (HEADER + "qreg q[2];\ncz q,q[1];\n", (4, 4), "whole-register arguments"),
    (HEADER + "qreg q[2];\nrz(q) q[0];\n", (4, 4), "bad expression token 'q'"),
    (HEADER + "qreg q[2];\ncx q[0],", (4, 8), "unexpected end of input"),
    (HEADER + "qreg q[2);\n", (3, 9), "expected ']', got '\\)'"),
    (HEADER + "qreg q[2];\ncreg c[3];\nmeasure q -> c;\n", (5, 14),
     "measure of register 'q' into 'c' of another size"),
    (HEADER + "qreg q[2];\ncreg c[3];\nmeasure q[0] -> c;\n", (5, 17),
     "measure needs both arguments indexed or both whole registers"),
    (HEADER + "qreg q[2];\ncreg c[2];\nmeasure q -> c[0];\n", (5, 14),
     "measure needs both arguments indexed"),
], ids=["version", "include", "redeclared", "whole-register-gate",
        "expression-token", "end-of-input", "bracket", "measure-sizes",
        "measure-qubit-into-register", "measure-register-into-bit"])
def test_syntax_errors_carry_their_position(src, where, message):
    with pytest.raises(QasmError, match=message) as err:
        parse_qasm(src)
    assert (err.value.line, err.value.col) == where


def test_angle_expressions():
    circ = parse_qasm(HEADER + "qreg q[2];\nrz(pi/2) q[0];\ncp(-pi/4) q[0],q[1];\n"
                      "rx(0.5e-1) q[1];\nrz(2*(pi+1)) q[0];\n")
    params = [g.params for g in circ.gates]
    assert params[0] == (math.pi / 2,)
    assert params[1] == (-math.pi / 4,)
    assert params[2] == (0.05,)
    assert params[3] == (2 * (math.pi + 1),)


def test_division_by_zero_is_a_syntax_error():
    # the error points at the divisor, also when it is a whole expression
    for expr, col in (("1/0", 6), ("pi/(2-2)", 7), ("2*pi/-0.0", 9)):
        with pytest.raises(QasmError, match="division by zero") as err:
            parse_qasm(HEADER + f"qreg q[1];\nrz({expr}) q[0];\n")
        assert (err.value.line, err.value.col) == (4, col)


def test_expression_cut_short_carries_position():
    with pytest.raises(QasmError, match="^4:6: unexpected end of "
                       "expression$") as err:
        parse_qasm(HEADER + "qreg q[1];\nrz(pi*")
    assert (err.value.line, err.value.col) == (4, 6)


def test_non_finite_angle_is_a_syntax_error():
    # to_qasm could not print such a value back; the error points at the
    # expression's first token, also in a later parameter
    for params, col in (("1e999", 4), ("1e308*10", 4), ("1e999-1e999", 4),
                        ("0.5, -(1e999)", 9)):
        with pytest.raises(QasmError, match="not finite") as err:
            parse_qasm(HEADER + f"qreg q[1];\nu2({params}) q[0];\n")
        assert (err.value.line, err.value.col) == (4, col)


def test_sizes_and_indices_must_be_integers():
    for body, col in (("qreg q[2.5];\n", 8), ("qreg q[2];\ncz q[1e0],q[1];\n", 6),
                      ("qreg q[2];\ncreg c[1e1];\n", 8),
                      ("qreg q[2];\ncreg c[2];\nmeasure q[0.5] -> c[0];\n", 11),
                      ("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[.0];\n", 19)):
        with pytest.raises(QasmError, match="expected an integer") as err:
            parse_qasm(HEADER + body)
        assert (err.value.line, err.value.col) == (HEADER.count("\n") + body.count("\n"), col)


@pytest.mark.parametrize("body, where, message", [
    ("qreg q[\uff13];\n", (3, 8), "unexpected character '\uff13'"),
    ("qreg q[3];\ncz q[0],q[\u0661];\n", (4, 11), "unexpected character '\u0661'"),
    ("qreg q[1];\nrz(\uff11) q[0];\n", (4, 4), "unexpected character '\uff11'"),
    ("qreg q[2];\ncz q[0],q[" + "1" * 5000 + "];\n", (4, 11),
     "integer of 5000 digits is too long"),
    ("qreg q[" + "9" * 5000 + "];\n", (3, 8), "integer of 5000 digits is too long"),
    (f"qreg q[{sys.maxsize + 1}];\n", (3, 8), f"register size over {sys.maxsize}"),
], ids=["wide-size", "arabic-indic-index", "wide-angle", "long-index", "long-size",
        "size-without-len"])
def test_numbers_are_ascii_and_bounded(body, where, message):
    with pytest.raises(QasmError, match=message) as err:
        parse_qasm(HEADER + body)
    assert (err.value.line, err.value.col) == where


def test_long_unary_minus_chain():
    circ = parse_qasm(HEADER + "qreg q[1];\nrz(" + "-" * 3001 + "pi) q[0];\n")
    assert circ.gates[0].params == (-math.pi,)


def test_paren_nesting_is_capped():
    nested = "(" * MAX_PAREN_DEPTH + "pi" + ")" * MAX_PAREN_DEPTH
    assert parse_qasm(HEADER + f"qreg q[1];\nrz({nested}) q[0];\n").gates[0].params == (math.pi,)
    # the error points at the first parenthesis past the cap
    for depth in (MAX_PAREN_DEPTH + 1, 600):
        nested = "(" * depth + "1" + ")" * depth
        with pytest.raises(QasmError, match="nested deeper") as err:
            parse_qasm(HEADER + f"qreg q[1];\nrz({nested}) q[0];\n")
        assert (err.value.line, err.value.col) == (4, 4 + MAX_PAREN_DEPTH)


def test_comments_and_whitespace():
    circ = parse_qasm("// leading comment\nOPENQASM 2.0;\nqreg q[2]; // regs\n"
                      "cx  q[0] , q[1] ;\n")
    assert len(circ.gates) == 1


def test_unsupported_constructs_rejected():
    for stmt, message in (("gate foo a { h a; }", "^5:1: unsupported construct 'gate'$"),
                          ("if (c==1) x q[0];", "^5:1: unsupported construct 'if'$"),
                          ("opaque bar q;", "^5:1: unsupported construct 'opaque'$")):
        with pytest.raises(QasmError, match=message):
            parse_qasm(HEADER + "qreg q[2];\ncreg c[1];\n" + stmt + "\n")


def test_roundtrip_print_parse():
    src = (HEADER + "qreg q[4];\nh q[0];\ncx q[0],q[1];\nrz(pi/8) q[2];\n"
           "cp(1.25) q[2],q[3];\ncx q[1],q[3];\n")
    circ = parse_qasm(src)
    again = parse_qasm(to_qasm(circ))
    assert again == circ
    assert to_qasm(again) == to_qasm(circ)


def test_build_circuit_validates():
    with pytest.raises(ValueError):
        build_circuit(2, [("cx", (0, 2), ())])
    with pytest.raises(ValueError):
        build_circuit(2, [("cx", (1, 1), ())])
    with pytest.raises(ValueError):
        build_circuit(3, [("ccx", (0, 1, 2), ())])


# -- long files and repeated statements -----------------------------------------

RANDOM12 = to_qasm(gen_random_circuit(12, 1000, 5))


def test_each_distinct_gate_statement_is_parsed_once(monkeypatch):
    calls = []
    real = _Parser._gate_statement

    def counting(self, at):
        calls.append(at)
        return real(self, at)

    monkeypatch.setattr(_Parser, "_gate_statement", counting)
    assert parse_qasm(RANDOM12) == gen_random_circuit(12, 1000, 5)
    assert len(set(RANDOM12.splitlines()[3:])) == 132
    assert len(calls) == 132


def test_a_repeated_statement_keeps_its_operands_after_a_later_qreg():
    circ = parse_qasm(HEADER + "qreg a[2];\ncx a[0],a[1];\nqreg b[2];\ncx a[0],a[1];\n"
                      "cx b[0],a[1];\ncx a[0],a[1];\ncx b[0],a[1];\n")
    assert circ.n_qubits == 4
    assert [(g.index, g.operands) for g in circ.gates] == [
        (0, (0, 1)), (1, (0, 1)), (2, (2, 1)), (3, (0, 1)), (4, (2, 1))]


def test_repeated_measure_and_barrier_each_warn_at_their_own_position(caplog):
    src = (HEADER + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nh q[0];\n"
           "  measure q[0] -> c[0];\nbarrier q;\nh q[0]; barrier q;\n")
    with caplog.at_level(logging.WARNING, logger="ionshuttle.qasm"):
        circ = parse_qasm(src)
    assert [g.operands for g in circ.gates] == [(0,), (0,)]
    assert [r.getMessage() for r in caplog.records] == [
        "4:1: creg c ignored (no effect on shuttling)",
        "5:1: measure ignored (no effect on shuttling)",
        "7:3: measure ignored (no effect on shuttling)",
        "8:1: barrier ignored (no effect on shuttling)",
        "9:9: barrier ignored (no effect on shuttling)"]


def _damaged(*edits):
    """RANDOM12 with each (line from the end, column, old, new) edit made;
    columns are 1-based."""
    lines = RANDOM12.split("\n")
    for back, col, old, new in edits:
        line = lines[-1 - back]
        assert line[col - 1:col - 1 + len(old)] == old, (line, old)
        lines[-1 - back] = line[:col - 1] + new + line[col - 1 + len(old):]
    return "\n".join(lines)


@pytest.mark.parametrize("edits, where, message", [
    ([(1, 11, "10]", "12]")], (1003, 11), r"q\[12\] out of range \(size 12\)"),
    ([(1, 3, " ", "@"), (2, 4, "q", "#q")], (1002, 4), "unexpected character '#'"),
    ([(2, 13, ";", "")], (1003, 1), "expected SYM, got 'cz'"),
    ([(1, 14, ";", "")], (1003, 13), "unexpected end of input"),
], ids=["index-out-of-range", "two-bad-characters", "missing-semicolon",
        "missing-last-semicolon"])
def test_positions_deep_in_a_long_file(edits, where, message):
    lines = RANDOM12.split("\n")
    assert len(lines) == 1004 and lines[-2:] == ["cz q[0],q[10];", ""]
    with pytest.raises(QasmError, match=f"^{where[0]}:{where[1]}: {message}$") as err:
        parse_qasm(_damaged(*edits))
    assert (err.value.line, err.value.col) == where


# -- decomposition oracle -------------------------------------------------------

def _u(kind: str, params):
    if kind == "h":
        return np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    if kind == "t":
        return np.diag([1, np.exp(1j * math.pi / 4)])
    if kind == "tdg":
        return np.diag([1, np.exp(-1j * math.pi / 4)])
    if kind == "cx":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    if kind == "cp":
        return np.diag([1, 1, 1, np.exp(1j * params[0])])
    raise AssertionError(kind)


def _embed(mat, qubits, n):
    """Expand a 1- or 2-qubit unitary to n qubits (qubit 0 = most significant)."""
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        src = 0
        for q in qubits:
            src = (src << 1) | bits[q]
        for tgt in range(mat.shape[0]):
            amp = mat[tgt, src]
            if amp == 0:
                continue
            out_bits = list(bits)
            for pos, q in enumerate(reversed(qubits)):
                out_bits[q] = (tgt >> pos) & 1
            for q in rest:
                out_bits[q] = bits[q]
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def _circuit_unitary(gates, n):
    u = np.eye(2 ** n, dtype=complex)
    for g in gates:
        u = _embed(_u(g.kind, g.params), list(g.operands), n) @ u
    return u


def test_decomposition_is_unitarily_exact():
    gates = decompose_gate(Gate(0, "ccx", (0, 1, 2)))
    got = _circuit_unitary(gates, 3)
    want = np.eye(8, dtype=complex)
    want[[6, 7], [6, 7]] = 0
    want[6, 7] = want[7, 6] = 1
    assert np.allclose(got, want, atol=1e-12)


def test_decomposition_relabels():
    gates = decompose_gate(Gate(0, "ccx", (4, 2, 7)))
    pairs = [g.operands for g in gates if len(g.operands) == 2]
    assert pairs == [(2, 7), (4, 7), (2, 7), (4, 7), (4, 2)]
    assert all(set(g.operands) <= {4, 2, 7} for g in gates)


def test_decomposition_rejects_repeated_qubits():
    with pytest.raises(ValueError):
        decompose_gate(Gate(0, "ccx", (0, 0, 1)))


def test_decomposition_rejects_other_kinds():
    with pytest.raises(ValueError):
        decompose_gate(Gate(0, "cswap", (0, 1, 2)))


# -- the front end on edited programs -------------------------------------------

FUZZ_EXAMPLES = 300
FUZZ_OUTCOMES: Counter = Counter()
FUZZ_ERRORS = ("unexpected character", "digits is too long", "nested deeper",
               "measure", "register")
PIECE_RE = re.compile(r'"[^"]*"|[A-Za-z_]\w*|[0-9.]+(?:e[-+]?[0-9]+)?|->|\s+|.')
ODD_DIGITS = (str.maketrans("0123456789", "０１２３４５６７８９"),
              str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
INSERTS = (";", ",", "[", "]", "(", ")", "->", "q", "pi", "-", "/", "0", "7", "2.5",
           "cz", "measure", "barrier", "creg", "qreg", '"qelib1.inc"', "\n")
STATEMENTS = ("creg c[2];", "creg c[3];", "measure q[0] -> c[1];", "measure q -> c;",
              "measure q[0] -> c;", "measure q -> c[0];", "measure zz[0] -> c[0];",
              "measure q[99] -> c[0];", "measure q[0] c[0];", "barrier q;",
              "barrier q[0],q[1];", "barrier q[99];", "barrier c[0];", "barrier;",
              "ccx q[0],q[1],q[2];")


@st.composite
def edited_programs(draw):
    """``to_qasm`` of a small circuit, then up to four edits of its pieces
    (tokens and the white space between them)."""
    n = draw(st.integers(1, 6))
    specs = []
    for _ in range(draw(st.integers(0, 8))):
        if n > 1 and draw(st.booleans()):
            specs.append((draw(st.sampled_from(("cz", "cx", "cp"))),
                          draw(st.permutations(range(n)))[:2], ()))
        else:
            specs.append(("rz", (draw(st.integers(0, n - 1)),),
                          (draw(st.floats(-10, 10)),)))
    pieces = PIECE_RE.findall(to_qasm(build_circuit(n, specs)))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(("delete", "duplicate", "insert", "statement",
                                     "digits", "long", "deep")))
        numbers = [i for i, piece in enumerate(pieces) if piece[:1].isdigit()] or [0]
        angles = [i for i in numbers if pieces[i - 1] in ("(", ",", "-")]
        if edit in ("digits", "long"):  # these rewrite a number, if one is left
            k = draw(st.sampled_from(numbers))
        elif edit == "deep":
            k = draw(st.sampled_from(angles or numbers))
        else:
            k = draw(st.integers(0, len(pieces) - 1))
        if edit == "delete":
            del pieces[k]
        elif edit == "duplicate":
            pieces.insert(k, pieces[k])
        elif edit == "insert":
            pieces.insert(k, draw(st.sampled_from(INSERTS)))
        elif edit == "statement":
            pieces.insert(k, "\n" + draw(st.sampled_from(STATEMENTS)) + "\n")
        elif edit == "digits":
            pieces[k] = pieces[k].translate(draw(st.sampled_from(ODD_DIGITS)))
        elif edit == "long":
            pieces[k] = draw(st.sampled_from(("1" * 5000, "9" * 4000, "0" * 5000 + "1")))
        else:
            depth = draw(st.integers(MAX_PAREN_DEPTH - 2, MAX_PAREN_DEPTH + 2))
            pieces[k] = "(" * depth + pieces[k] + ")" * depth
    return "".join(pieces), draw(st.booleans())


def test_front_end_on_edited_programs(tmp_path):
    source = tmp_path / "edited.qasm"
    FUZZ_OUTCOMES.clear()

    @settings(max_examples=FUZZ_EXAMPLES)
    @given(edited_programs())
    def run(program):
        text, decompose = program
        try:
            parse_qasm(text, decompose=decompose)
        except QasmError as e:
            assert 1 <= e.line <= text.count("\n") + 1 and e.col >= 1, (text, e)
            expected = {2}
            FUZZ_OUTCOMES["rejected"] += 1
            FUZZ_OUTCOMES[next((k for k in FUZZ_ERRORS if k in str(e)), "other")] += 1
        else:
            expected = {0, 3, 4}  # ok, capacity or overflow
            FUZZ_OUTCOMES["parsed"] += 1
        source.write_text(text, encoding="utf-8")
        argv = ["compile", "-i", str(source)] + ["--decompose"] * decompose
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in expected, (text, code)
        FUZZ_OUTCOMES[f"exit {code}"] += 1

    run()
    # floors keep both outcomes from holding only vacuously
    assert FUZZ_OUTCOMES["parsed"] >= FUZZ_EXAMPLES // 5, FUZZ_OUTCOMES
    assert FUZZ_OUTCOMES["rejected"] >= FUZZ_EXAMPLES // 4, FUZZ_OUTCOMES
    assert FUZZ_OUTCOMES["exit 0"] >= FUZZ_EXAMPLES // 5, FUZZ_OUTCOMES
    for kind in FUZZ_ERRORS:
        assert FUZZ_OUTCOMES[kind] >= 3, (kind, FUZZ_OUTCOMES)
