"""CLI subcommands: thin adapters with stable exit codes and outputs."""
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ionshuttle
from ionshuttle import benchmarks, cli, commands
from ionshuttle.cli import main
from ionshuttle.commands import (parse_sequence, render_trace, render_trace_svg, replay,
                                 serialize)
from ionshuttle.ordering import increase_pairwise_order
from ionshuttle.qasm import to_qasm
from ionshuttle.benchmarks import compile_ordering, gen_qft, gen_random_circuit
from ionshuttle.trap import TrapConfig

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
README = Path(__file__).resolve().parents[1] / "README.md"
QFT4_SEQ = Path(__file__).parent / "golden" / "qft4_oai.seq"


@pytest.fixture
def qft8_file(tmp_path):
    path = tmp_path / "qft8.qasm"
    path.write_text(to_qasm(gen_qft(8)))
    return path


def test_compile_output_replays_cleanly(tmp_path, qft8_file, capsys):
    out = tmp_path / "out.seq"
    assert main(["compile", "-i", str(qft8_file), "--ordering", "ipo",
                 "-o", str(out)]) == 0
    report = replay(parse_sequence(out.read_text()))
    assert report.ok
    stdout = capsys.readouterr().out
    assert "cost (split+merge):" in stdout
    assert "circuit fit:" in stdout


def test_compile_deterministic(tmp_path, qft8_file, capsys):
    outs = []
    for name in ("a.seq", "b.seq"):
        out = tmp_path / name
        assert main(["compile", "-i", str(qft8_file), "--ordering", "oir",
                     "--seed", "7", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_compile_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text(HEADER + "qreg q[2];\ncx q[0] q[1];\n")
    assert main(["compile", "-i", str(bad)]) == 2


def test_a_byte_order_mark_is_not_part_of_the_input(tmp_path, capsys):
    # some editors start a UTF-8 file with U+FEFF; compile and validate read
    # past it and give what they give for the same file without it
    runs = []
    for bom in (b"", "\ufeff".encode()):
        src, out = tmp_path / f"in{len(bom)}.qasm", tmp_path / f"out{len(bom)}.seq"
        src.write_bytes(bom + to_qasm(gen_qft(4)).encode())
        assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
        compiled = capsys.readouterr().out.replace(str(out), "OUT")
        program = tmp_path / f"program{len(bom)}.seq"
        program.write_bytes(bom + out.read_bytes())
        assert main(["validate", "-i", str(program)]) == 0
        runs.append((compiled, out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert "wrote OUT" in runs[0][0]


def test_compile_capacity_exit_code(tmp_path):
    big = tmp_path / "big.qasm"
    big.write_text(HEADER + "qreg q[40];\ncx q[0],q[1];\n")
    assert main(["compile", "-i", str(big)]) == 3


def test_compile_register_size_beyond_len_exit_code(tmp_path):
    src = tmp_path / "huge.qasm"
    src.write_text(HEADER + f"qreg q[{sys.maxsize}];\ncz q[0],q[1];\n")
    assert main(["compile", "-i", str(src)]) == 3
    src.write_text(HEADER + f"qreg q[{sys.maxsize + 1}];\ncz q[0],q[1];\n")
    assert main(["compile", "-i", str(src)]) == 2


def test_compile_missing_file_exit_code():
    assert main(["compile", "-i", "/nonexistent/in.qasm"]) == 5


def test_compile_ccx_needs_decompose_flag(tmp_path):
    src = tmp_path / "toff.qasm"
    src.write_text(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\n")
    assert main(["compile", "-i", str(src)]) == 2
    assert main(["compile", "-i", str(src), "--decompose"]) == 0


def test_validate_clean_and_violating(tmp_path, qft8_file, capsys):
    out = tmp_path / "out.seq"
    main(["compile", "-i", str(qft8_file), "-o", str(out)])
    assert main(["validate", "-i", str(out)]) == 0

    bad = tmp_path / "bad.seq"
    bad.write_text("1 START 0\n2 AIC 2 1 5\n3 RC 1 5\n")
    capsys.readouterr()
    assert main(["validate", "-i", str(bad)]) == 1
    assert "rotation outside LIZ" in capsys.readouterr().out


def test_validate_format_error_exit_code(tmp_path):
    trunc = tmp_path / "trunc.seq"
    trunc.write_text("1 START 0\n2 AIC 2 4\n")
    assert main(["validate", "-i", str(trunc)]) == 2


@pytest.mark.parametrize("text, where", [
    ("1 START 0\n2 AIC 2 \uff11 1_0\n+3 DG 1 0\n", "line 2: parameters must be integers"),
    ("1 START 0\n+2 DG 1 0\n", "line 2: bad sequence number '+2'"),
    ("1 START 0\n# segments=64 liz=32\n", "line 2: header after the first command"),
    ("# segments=32 liz=19\n# segments=64 liz=32\n1 START 0\n",
     "line 2: repeated header (first on line 1)"),
], ids=["odd-integers", "plus-sequence", "late-header", "second-header"])
def test_validate_and_trace_reject_text_serialize_never_writes(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.seq"
    bad.write_text(text)
    for command in ("validate", "trace"):
        assert main([command, "-i", str(bad)]) == 2
        assert where in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    "# segments=\uff13\uff12 liz=19", "# segments=" + "9" * 5000 + " liz=19",
    "# segments=32 liz=19 junk"], ids=["wide-digits", "long-count", "trailing-text"])
def test_validate_and_trace_reject_a_bad_header(tmp_path, capsys, header):
    bad = tmp_path / "bad.seq"
    bad.write_text(header + "\n1 START 0\n")
    for command in ("validate", "trace"):
        assert main([command, "-i", str(bad)]) == 2
        assert "line 1: bad header" in capsys.readouterr().err


def test_trace_grid_shape(tmp_path, qft8_file, capsys):
    out = tmp_path / "out.seq"
    main(["compile", "-i", str(qft8_file), "-o", str(out)])
    capsys.readouterr()
    assert main(["trace", "-i", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    seq = parse_sequence(out.read_text())
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    changing = sum(1 for op, _ in seq.raw
                   if op in ("AIC", "SMU", "SMD", "RC", "M", "S"))
    assert len(rows) == changing


def test_trace_svg_written(tmp_path, qft8_file):
    out = tmp_path / "out.seq"
    svg = tmp_path / "out.svg"
    main(["compile", "-i", str(qft8_file), "-o", str(out)])
    assert main(["trace", "-i", str(out), "-o", str(tmp_path / "grid.txt"),
                 "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_trace_with_svg_replays_once(tmp_path, qft8_file, monkeypatch):
    out, grid, svg = tmp_path / "out.seq", tmp_path / "grid.txt", tmp_path / "out.svg"
    main(["compile", "-i", str(qft8_file), "--ordering", "oai", "-o", str(out)])
    sequence = parse_sequence(out.read_text())
    runs = []
    execute = commands._execute

    def counted(*args):
        runs.append(args)
        return execute(*args)

    monkeypatch.setattr(commands, "_execute", counted)
    assert main(["trace", "-i", str(out), "-o", str(grid), "--svg", str(svg)]) == 0
    assert len(runs) == 1
    assert grid.read_text() == render_trace(sequence)
    assert svg.read_text() == render_trace_svg(sequence)


def test_trace_violating_program_names_command(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("1 START 0\n2 SMD 1 10\n")
    assert main(["trace", "-i", str(bad)]) == 1
    assert "command 2:" in capsys.readouterr().err


def test_validate_strict_reports_first_violation(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("1 START 0\n2 AIC 2 1 5\n3 RC 1 5\n")
    assert main(["validate", "-i", str(bad), "--strict"]) == 1
    assert "command 3: rotation outside LIZ" in capsys.readouterr().err


def test_validate_rejects_meaningless_ids(tmp_path, capsys):
    bad = tmp_path / "ids.seq"
    bad.write_text("1 START 0\n2 AIC 2 0 19\n3 AIC 2 -4 19\n4 DG 1 -7\n")
    assert main(["validate", "-i", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ion id 0" in out and "ion id -4" in out
    assert main(["validate", "-i", str(bad), "--strict"]) == 1
    assert "command 2: ion id 0 is below 1" in capsys.readouterr().err
    assert main(["trace", "-i", str(bad)]) == 1
    assert "command 2:" in capsys.readouterr().err


def test_compile_bad_expression_exit_code(tmp_path, capsys):
    for body, where in (("rz(1/0) q[0];\n", "4:6: division by zero"),
                        ("rz(1+", "4:5: unexpected end of expression")):
        src = tmp_path / "expr.qasm"
        src.write_text(HEADER + "qreg q[2];\n" + body)
        assert main(["compile", "-i", str(src)]) == 2
        assert where in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "rz(1e999) q[0];\n", "rz(1e308*10) q[0];\n", "rz(1e999-1e999) q[0];\n",
    "cz q[1e0],q[1];\n", "rz(" + "(" * 600 + "1" + ")" * 600 + ") q[0];\n"],
    ids=["inf", "overflow", "nan", "float-index", "deep-parens"])
def test_compile_bad_number_exit_code(tmp_path, capsys, body):
    # each ends in a positioned syntax error, not a traceback or exit 0
    src = tmp_path / "num.qasm"
    src.write_text(HEADER + "qreg q[2];\n" + body)
    assert main(["compile", "-i", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: 4:")


def test_compile_long_minus_chain(tmp_path):
    src = tmp_path / "minus.qasm"
    src.write_text(HEADER + "qreg q[2];\nrz(" + "-" * 3000 + "1) q[0];\n")
    assert main(["compile", "-i", str(src)]) == 0


def test_compile_fractional_register_size_exit_code(tmp_path, capsys):
    src = tmp_path / "size.qasm"
    src.write_text(HEADER + "qreg q[2.5];\n")
    assert main(["compile", "-i", str(src)]) == 2
    assert "3:8: expected an integer" in capsys.readouterr().err


def test_partial_trap_flags_start_from_the_header(tmp_path, qft8_file, capsys):
    # a flag that restates the header changes nothing; a missing one is
    # taken from the header, not from the 32/19 default trap
    out = tmp_path / "wide.seq"
    assert main(["compile", "-i", str(qft8_file), "-o", str(out),
                 "--segments", "48", "--liz", "24"]) == 0
    for flags in (["--liz", "24"], ["--segments", "48"]):
        capsys.readouterr()
        assert main(["validate", "-i", str(out)] + flags) == 0
        assert "violations: 0" in capsys.readouterr().out
        assert main(["validate", "-i", str(out), "--strict"] + flags) == 0
        assert main(["trace", "-i", str(out), "-o", str(tmp_path / "g.txt")] + flags) == 0
    assert (tmp_path / "g.txt").read_text().startswith("# segments=48 liz=24\n")
    # a flag that differs from the header still applies
    assert main(["validate", "-i", str(out), "--liz", "20"]) == 1


def test_compile_measure_and_barrier_arguments_exit_code(tmp_path, capsys):
    for stmt, where in (("measure zz[99] -> nope[7];", "4:9: unknown quantum register 'zz'"),
                        ("barrier foo[3], bar;", "4:9: unknown quantum register 'foo'")):
        src = tmp_path / "args.qasm"
        src.write_text(HEADER + "qreg q[2];\n" + stmt + "\n")
        assert main(["compile", "-i", str(src)]) == 2
        assert where in capsys.readouterr().err


def test_compile_measure_shape_mismatch_exit_code(tmp_path, capsys):
    for stmt, where in (("measure q -> c;", "5:14: measure of register 'q' into 'c'"),
                        ("measure q[0] -> c;", "5:17: measure needs both")):
        src = tmp_path / "measure.qasm"
        src.write_text(HEADER + "qreg q[2];\ncreg c[3];\n" + stmt + "\n")
        assert main(["compile", "-i", str(src)]) == 2
        assert where in capsys.readouterr().err


def test_compile_checks_capacity_before_the_layout(tmp_path, monkeypatch, capsys):
    # 40 qubits make 20 crystals, 39 segments at stride 2: more than 32
    def no_layout(*args):
        raise AssertionError("layout built before the capacity check")

    monkeypatch.setattr("ionshuttle.cli.make_ordering", no_layout)
    src = tmp_path / "wide.qasm"
    src.write_text(HEADER + "qreg q[40];\ncz q[0],q[39];\n")
    assert main(["compile", "-i", str(src)]) == 3
    assert "20 crystals at stride 2 exceed 32 segments" in capsys.readouterr().err


def test_compile_verifies_before_it_writes(tmp_path, monkeypatch, capsys):
    # a program that fails verification is a compiler bug, not an input
    # error: no exit code maps it, and no file is written.  The h leaves the
    # one-ion crystal (3,) in the LIZ, so a split appended after it is illegal
    src, out = tmp_path / "h.qasm", tmp_path / "out.seq"
    src.write_text(HEADER + "qreg q[3];\nh q[2];\n")
    real = benchmarks.schedule

    def illegal_split(circuit, state):
        result = real(circuit, state)
        result.sequence.raw.append(("S", ()))
        return result

    monkeypatch.setattr(benchmarks, "schedule", illegal_split)
    with pytest.raises(RuntimeError, match="replay violations.*split needs a 2-ion crystal"):
        main(["compile", "-i", str(src), "--ordering", "oai", "-o", str(out)])
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_compile_trace_matches_the_trace_command(tmp_path, qft8_file, capsys):
    out, grid = tmp_path / "out.seq", tmp_path / "grid.txt"
    assert main(["compile", "-i", str(qft8_file), "-o", str(out),
                 "--trace", str(grid)]) == 0
    assert f"wrote {grid}" in capsys.readouterr().out
    assert main(["trace", "-i", str(out)]) == 0
    assert capsys.readouterr().out == grid.read_text()


def test_compile_output_of_many_pieces_is_the_serialized_program(tmp_path, capsys):
    circuit = gen_random_circuit(6, 150, 1)
    src, out = tmp_path / "random6.qasm", tmp_path / "out.seq"
    src.write_text(to_qasm(circuit))
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    sequence = compile_ordering(circuit, increase_pairwise_order(circuit),
                                TrapConfig()).sequence
    assert len(sequence) > 3 * commands._SERIALIZE_PIECE
    assert out.read_bytes() == serialize(sequence).encode()
    assert f"commands: {len(sequence)} (" in capsys.readouterr().out


def test_invalid_trap_override_exit_code(tmp_path):
    seq = tmp_path / "ok.seq"
    seq.write_text("1 START 0\n")
    assert main(["validate", "-i", str(seq), "--segments", "3"]) == 3
    assert main(["trace", "-i", str(seq), "--segments", "3"]) == 3


def test_trap_flags_override_an_unsupported_header(tmp_path, capsys):
    seq = tmp_path / "tiny.seq"
    seq.write_text("# segments=3 liz=19\n1 START 0\n")
    for command in ("validate", "trace"):
        assert main([command, "-i", str(seq), "--segments", "32", "--liz", "19"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["validate", "-i", str(seq)]) == 3
    assert "need at least 5 segments, got 3" in capsys.readouterr().err


def test_trace_empty_sequence_header_only(tmp_path, capsys):
    empty = tmp_path / "empty.seq"
    empty.write_text("# segments=32 liz=19\n")
    assert main(["trace", "-i", str(empty)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1  # ruler only


def test_bench_csv_reproducible(tmp_path, capsys):
    args = ["bench", "--suite", "random", "--qubits", "6", "--gates", "30",
            "--trials", "4", "--seed", "3"]
    csvs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        assert main(args + ["--csv", str(path)]) == 0
        csvs.append(path.read_text())
    assert csvs[0] == csvs[1]
    assert csvs[0].splitlines()[0] == "suite,n,method,trial,seed,cost,gates,fit"
    out = capsys.readouterr().out
    assert "min=" in out and "mean=" in out and "max=" in out


BENCH_PINS = [
    (["--suite", "random", "--qubits", "6,8", "--gates", "30", "--trials", "3",
      "--seed", "3", "--methods", "oai,oir,oir"],
     "random n=6 oai: trials=1 min=210 mean=210.0 max=210\n"
     "random n=6 oir: trials=3 min=150 mean=190.0 max=216\n"
     "random n=6 oir: trials=3 min=150 mean=190.0 max=216\n"
     "random n=8 oai: trials=1 min=276 mean=276.0 max=276\n"
     "random n=8 oir: trials=3 min=228 mean=242.0 max=258\n"
     "random n=8 oir: trials=3 min=228 mean=242.0 max=258\n",
     "random,6,oai,0,,210,30,7.000000\n"
     "random,6,oir,0,3,150,30,5.000000\n"
     "random,6,oir,1,4,204,30,6.800000\n"
     "random,6,oir,2,5,216,30,7.200000\n"
     "random,6,oir,0,3,150,30,5.000000\n"
     "random,6,oir,1,4,204,30,6.800000\n"
     "random,6,oir,2,5,216,30,7.200000\n"
     "random,8,oai,0,,276,30,9.200000\n"
     "random,8,oir,0,3,240,30,8.000000\n"
     "random,8,oir,1,4,228,30,7.600000\n"
     "random,8,oir,2,5,258,30,8.600000\n"
     "random,8,oir,0,3,240,30,8.000000\n"
     "random,8,oir,1,4,228,30,7.600000\n"
     "random,8,oir,2,5,258,30,8.600000\n"),
    (["--suite", "qft", "--qubits", "4,6", "--trials", "1",
      "--methods", "oai,oir,ipo"],
     "qft n=4 oai: trials=1 min=12 mean=12.0 max=12\n"
     "qft n=4 oir: trials=1 min=36 mean=36.0 max=36\n"
     "qft n=4 ipo: trials=1 min=12 mean=12.0 max=12\n"
     "qft n=6 oai: trials=1 min=36 mean=36.0 max=36\n"
     "qft n=6 oir: trials=1 min=120 mean=120.0 max=120\n"
     "qft n=6 ipo: trials=1 min=60 mean=60.0 max=60\n",
     "qft,4,oai,0,,12,6,2.000000\n"
     "qft,4,oir,0,0,36,6,6.000000\n"
     "qft,4,ipo,0,,12,6,2.000000\n"
     "qft,6,oai,0,,36,15,2.400000\n"
     "qft,6,oir,0,0,120,15,8.000000\n"
     "qft,6,ipo,0,,60,15,4.000000\n"),
]


@pytest.mark.parametrize("flags,rows,records", BENCH_PINS)
def test_bench_output_pinned(tmp_path, capsys, flags, rows, records):
    # one printed row per (size, method) pass, even when a method repeats
    path = tmp_path / "out.csv"
    assert main(["bench"] + flags + ["--csv", str(path)]) == 0
    assert capsys.readouterr().out == rows + f"wrote {path}\n"
    assert path.read_text() == "suite,n,method,trial,seed,cost,gates,fit\n" + records


def test_bench_rows_statistics(tmp_path, capsys):
    assert main(["bench", "--suite", "qft", "--qubits", "4,6",
                 "--methods", "oai,ipo"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "qft" in ln]
    assert len(lines) == 4


def test_compile_trap_override(tmp_path, qft8_file):
    out = tmp_path / "out.seq"
    assert main(["compile", "-i", str(qft8_file), "-o", str(out),
                 "--segments", "64", "--liz", "32"]) == 0
    seq = parse_sequence(out.read_text())
    assert seq.n_segments == 64 and seq.liz == 32
    assert replay(seq).ok


def test_compile_invalid_trap_override(qft8_file):
    assert main(["compile", "-i", str(qft8_file), "--liz", "99"]) == 3


@pytest.mark.parametrize("liz", ["1", "20"])
def test_compile_liz_on_end_segment_exit_code(tmp_path, capsys, liz):
    # split and merge need a segment on each side of the LIZ
    src = tmp_path / "four.qasm"
    src.write_text(HEADER + "qreg q[4];\ncz q[0],q[2];\n")
    assert main(["compile", "-i", str(src), "--ordering", "oai",
                 "--segments", "20", "--liz", liz]) == 3
    assert "LIZ segment" in capsys.readouterr().err


def test_compile_default_trap_above_eight_qubits(tmp_path):
    src = tmp_path / "ten.qasm"
    src.write_text(HEADER + "qreg q[10];\ncx q[0],q[9];\n")
    out = tmp_path / "out.seq"
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    assert out.read_text().startswith("# segments=32 liz=19\n")


def test_bench_invalid_trap_override_exit_code():
    assert main(["bench", "--suite", "qft", "--qubits", "4",
                 "--segments", "3"]) == 3


def test_bench_capacity_exit_code():
    assert main(["bench", "--suite", "qft", "--qubits", "40",
                 "--segments", "32"]) == 3


def test_bench_capacity_exit_code_on_the_paper_trap(capsys):
    assert main(["bench", "--suite", "qft", "--qubits", "40",
                 "--segments", "32", "--liz", "19"]) == 3
    assert "20 crystals at stride 2 exceed 32 segments" in capsys.readouterr().err


def test_bench_checks_capacity_before_the_circuit(monkeypatch, capsys):
    # a QFT has n(n-1)/2 gates: building one that cannot fit wastes n^2 work
    def no_circuit(*args):
        raise AssertionError("suite circuit built before the capacity check")

    monkeypatch.setattr("ionshuttle.benchmarks._suite_circuit", no_circuit)
    assert main(["bench", "--suite", "qft", "--qubits", "1000",
                 "--segments", "32", "--liz", "19"]) == 3
    assert "500 crystals at stride 2 exceed 32 segments" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--segments", "32", "--liz", "19"], "20 crystals at stride 2 exceed 32 segments"),
    (["--segments", "40"], "LIZ segment 80 outside 2..39"),
], ids=["capacity", "liz"])
def test_bench_checks_every_trap_before_the_first_compile(monkeypatch, capsys, flags,
                                                          message):
    # the first size fits its trap and the last does not: no sweep may start
    calls = []
    monkeypatch.setattr("ionshuttle.benchmarks._suite_circuit",
                        lambda *args, **kw: calls.append(args) or [])
    assert main(["bench", "--suite", "random", "--qubits", "8,40",
                 "--trials", "20"] + flags) == 3
    out, err = capsys.readouterr()
    assert (out, err, calls) == ("", f"error: {message}\n", [])


@pytest.mark.parametrize("methods,name", [("oir,xyz", "xyz"), ("oai,", "")],
                         ids=["unknown", "empty"])
def test_bench_checks_every_method_before_the_first_compile(monkeypatch, capsys,
                                                            methods, name):
    def no_compile(*args, **kw):
        raise AssertionError("compiled before the method check")

    monkeypatch.setattr("ionshuttle.benchmarks.compile_ordering", no_compile)
    monkeypatch.setattr("ionshuttle.benchmarks.oir_costs", no_compile)
    assert main(["bench", "--suite", "random", "--qubits", "12,20",
                 "--methods", methods, "--trials", "10"]) == 1
    assert capsys.readouterr() == ("", f"error: unknown ordering method {name!r}\n")


@pytest.mark.parametrize("flags,code,message", [
    (["--qubits", "8,40", "--trials", "0", "--methods", "oir,xyz",
      "--segments", "32", "--liz", "19"], 3, "20 crystals at stride 2 exceed 32 segments"),
    (["--qubits", "8,40", "--trials", "0", "--methods", "oir,xyz",
      "--segments", "40"], 3, "LIZ segment 80 outside 2..39"),
    (["--qubits", "8", "--trials", "0", "--methods", "xyz"], 1,
     "trials must be at least 1, got 0"),
], ids=["capacity", "liz", "trials"])
def test_bench_reports_the_first_of_several_faults(capsys, flags, code, message):
    # every trap shape, then every capacity, then --trials, then --methods
    assert main(["bench", "--suite", "random"] + flags) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bench_workers_below_one_exit_code(monkeypatch, capsys, workers):
    # refused before the first suite circuit, not run serially
    monkeypatch.setattr("ionshuttle.benchmarks._suite_circuit", None)
    assert main(["bench", "--suite", "random", "--qubits", "4",
                 "--workers", workers]) == 1
    assert capsys.readouterr() == (
        "", f"error: workers must be at least 1, got {workers}\n")


def test_bench_one_qubit_exit_code(capsys):
    assert main(["bench", "--suite", "qft", "--qubits", "1"]) == 1
    assert "at least 2 qubits" in capsys.readouterr().err


def test_bench_partial_trap_flags_start_from_the_size_trap(capsys):
    # at 16 qubits the bench trap is 64/32: a missing flag comes from it,
    # not from the 32/19 default trap
    for partial, full in ((["--liz", "30"], ["--segments", "64", "--liz", "30"]),
                          (["--segments", "70"], ["--segments", "70", "--liz", "32"])):
        rows = []
        for flags in (partial, full):
            assert main(["bench", "--suite", "qft", "--qubits", "16"] + flags) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]


def test_bench_toffoli_suite(capsys):
    assert main(["bench", "--suite", "toffoli", "--qubits", "4,6",
                 "--methods", "oai,ipo"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "toffoli n=4 oai", "toffoli n=4 ipo", "toffoli n=6 oai", "toffoli n=6 ipo"]
    assert main(["bench", "--suite", "toffoli", "--qubits", "5"]) == 1
    assert "do not split into" in capsys.readouterr().err


def test_bench_bad_qubit_list_exit_code():
    assert main(["bench", "--suite", "qft", "--qubits", "4,x"]) == 1


@pytest.mark.parametrize("qubits", ["", ",", ",,"])
def test_bench_empty_qubit_list_exit_code(capsys, qubits):
    assert main(["bench", "--suite", "qft", "--qubits", qubits]) == 1
    assert capsys.readouterr() == (
        "", f"error: --qubits names no qubit count: {qubits!r}\n")


def test_bench_negative_gates_exit_code(monkeypatch, capsys):
    # refused while building the circuit, before any compile
    monkeypatch.setattr("ionshuttle.benchmarks.compile_ordering", None)
    assert main(["bench", "--suite", "random", "--qubits", "4",
                 "--gates", "-3"]) == 1
    assert capsys.readouterr() == (
        "", "error: random circuits need a gate count of at least 0, got -3\n")


@pytest.mark.parametrize("suite", ["qft", "toffoli"])
def test_bench_gates_of_a_fixed_suite_exit_code(monkeypatch, capsys, suite):
    # a QFT or Toffoli circuit has no gate count to set: refused, not ignored
    monkeypatch.setattr("ionshuttle.benchmarks._suite_circuit", None)
    assert main(["bench", "--suite", suite, "--qubits", "4", "--gates", "5"]) == 1
    assert capsys.readouterr() == (
        "", f"error: --gates applies only to --suite random, not {suite}\n")


def test_bench_zero_trials_exit_code(capsys):
    assert main(["bench", "--suite", "random", "--qubits", "4",
                 "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err


def test_bench_zero_gates_exit_code(capsys):
    assert main(["bench", "--suite", "random", "--qubits", "4",
                 "--gates", "0"]) == 1
    assert "two-qubit gate" in capsys.readouterr().err


def test_compile_overflow_names_gate(tmp_path, capsys):
    src = tmp_path / "six.qasm"
    src.write_text(HEADER + "qreg q[6];\ncz q[0],q[1];\ncz q[0],q[5];\n")
    assert main(["compile", "-i", str(src), "--ordering", "oai",
                 "--segments", "12", "--liz", "6"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: gate 1: ") and "occupied segments" in err


def test_every_error_type_has_an_exit_code():
    # a type is kept only while some caller tells it apart from its base
    defined = set()
    for info in pkgutil.iter_modules(ionshuttle.__path__):
        module = importlib.import_module(f"ionshuttle.{info.name}")
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__}
    assert {t.__name__ for t in defined} == {
        "TrapError", "InvalidConfig", "CapacityExceeded", "TrapOverflow",
        "QasmError", "FormatError", "ReplayError"}
    for t in defined:
        assert any(issubclass(t, types) for types, _ in cli.EXIT_CODES), t
        assert getattr(ionshuttle, t.__name__) is t  # a library caller imports it


def test_error_without_exit_code_propagates(monkeypatch):
    def broken(text):
        raise KeyError("no such opcode")

    monkeypatch.setattr("ionshuttle.cli.parse_sequence", broken)
    with pytest.raises(KeyError, match="no such opcode"):
        main(["validate", "-i", str(QFT4_SEQ)])


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # each "$ ..." block, run in order: a later one reads an earlier one's file
    prompt = "$ PYTHONPATH=src python -m ionshuttle "
    text = README.read_text()
    examples = re.findall(r"^```\n" + re.escape(prompt) + r"([^\n]*)\n(.*?)^```$", text,
                          re.MULTILINE | re.DOTALL)
    assert len(examples) == text.count(prompt) >= 4
    tests_dir = Path(__file__).resolve().parent
    monkeypatch.chdir(tmp_path)
    for command, expected in examples:
        argv = [str(tests_dir / arg.removeprefix("tests/")) if arg.startswith("tests/")
                else arg for arg in command.split()]
        assert main(argv) == 0, command
        assert capsys.readouterr().out == expected, command


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "ionshuttle", "validate", "-i", str(QFT4_SEQ)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "violations: 0" in proc.stdout
