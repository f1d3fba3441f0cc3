"""CLI subcommands: thin adapters with stable exit codes and outputs."""
import pytest

from ionshuttle.cli import main
from ionshuttle.commands import parse_sequence, replay
from ionshuttle.qasm import to_qasm
from ionshuttle.benchmarks import gen_qft

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


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


def test_compile_capacity_exit_code(tmp_path):
    big = tmp_path / "big.qasm"
    big.write_text(HEADER + "qreg q[40];\ncx q[0],q[1];\n")
    assert main(["compile", "-i", str(big)]) == 3


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


def test_invalid_trap_override_exit_code(tmp_path):
    seq = tmp_path / "ok.seq"
    seq.write_text("1 START 0\n")
    assert main(["validate", "-i", str(seq), "--segments", "3"]) == 3
    assert main(["trace", "-i", str(seq), "--segments", "3"]) == 3


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


def test_bench_bad_qubit_list_exit_code():
    assert main(["bench", "--suite", "qft", "--qubits", "4,x"]) == 1


def test_bench_zero_trials_exit_code(capsys):
    assert main(["bench", "--suite", "random", "--qubits", "4",
                 "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err
