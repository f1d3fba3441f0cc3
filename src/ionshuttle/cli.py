"""Command-line entry point: compile, validate, trace and bench.

Thin adapters over the library; identical parameters give identical results
(and byte-identical output files).  All randomness flows through --seed.

Exit codes: 0 ok, 1 generic failure / validation violations, 2 parse or
format error, 3 capacity or configuration error, 4 trap overflow, 5 I/O.
``EXIT_CODES`` is the one place that maps an error to its exit code;
``main`` applies it to whatever a subcommand raises.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import astuple

from .benchmarks import (ORDERING_METHODS, bench_config, circuit_fit,
                         compile_ordering, make_ordering, run_sweep, to_csv)
from .commands import (FormatError, ReplayError, cost, parse_sequence,
                       render_trace, render_traces, replay, serialize_pieces)
from .ordering import check_register
from .qasm import QasmError, parse_qasm
from .trap import (CapacityExceeded, InvalidConfig, TrapConfig, TrapError,
                   TrapOverflow)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_OVERFLOW = 4
EXIT_IO = 5

# First match wins: a subclass must come before its base (TrapOverflow and
# CapacityExceeded before TrapError).  Anything else is a bug and re-raises.
EXIT_CODES = (
    ((OSError,), EXIT_IO),
    ((QasmError, FormatError), EXIT_PARSE),
    ((CapacityExceeded, InvalidConfig), EXIT_CAPACITY),
    ((TrapOverflow,), EXIT_OVERFLOW),
    ((ReplayError, TrapError, ValueError), EXIT_ERROR),
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _trap_config(args, n_segments: int, liz: int) -> TrapConfig:
    """The trap of ``n_segments`` and ``liz``, each replaced by its flag if
    given.  It takes integers, not a TrapConfig, so that a flag can mend a
    program header's unsupported shape."""
    return TrapConfig(n_segments if args.segments is None else args.segments,
                      liz if args.liz is None else args.liz)


def cmd_compile(args) -> int:
    circuit = parse_qasm(_read(args.input), decompose=args.decompose)
    config = _trap_config(args, TrapConfig.n_segments, TrapConfig.liz)
    # before the layout, whose size grows with the declared register
    check_register(circuit.n_qubits, config)
    ordering = make_ordering(circuit, args.ordering, args.seed)  # only oir reads it
    # a program that fails verification is a compiler bug: its RuntimeError
    # re-raises, and nothing is written
    result = compile_ordering(circuit, ordering, config, verify=True)

    sequence = result.sequence
    counts = sequence.opcode_counts()
    n2q = len(circuit.two_qubit_gates())
    print(f"qubits: {circuit.n_qubits}")
    print(f"gates: {len(circuit.gates)} (two-qubit: {n2q})")
    print(f"ordering: {args.ordering}")
    print(f"layout: {' '.join('[' + ' '.join(map(str, g)) + ']' for g in ordering.crystal_list)}")
    print(f"commands: {len(sequence)} ("
          + " ".join(f"{op}:{counts[op]}" for op in
                     ("AIC", "AEC", "REC", "SMU", "SMD", "RC", "S", "M", "DG"))
          + ")")
    print(f"cost (split+merge): {result.cost}")
    if n2q:
        print(f"circuit fit: {circuit_fit(result.cost, n2q):.6f}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(serialize_pieces(sequence))  # never the whole text at once
        print(f"wrote {args.output}")
    if args.trace:
        _write(args.trace, render_trace(sequence, config))
        print(f"wrote {args.trace}")
    return EXIT_OK


def cmd_validate(args) -> int:
    sequence = parse_sequence(_read(args.input))
    config = _trap_config(args, sequence.n_segments, sequence.liz)
    report = replay(sequence, config, strict=args.strict)
    for seq, message in report.violations:
        print(f"command {seq}: {message}")
    print(f"commands: {len(sequence)}  splits: {report.s_count}  "
          f"merges: {report.m_count}  cost: {cost(sequence)}  "
          f"violations: {len(report.violations)}")
    return EXIT_OK if report.ok else EXIT_ERROR


def cmd_trace(args) -> int:
    sequence = parse_sequence(_read(args.input))
    config = _trap_config(args, sequence.n_segments, sequence.liz)
    if args.svg:  # both from one replay
        grid, svg = render_traces(sequence, config)
    else:
        grid, svg = render_trace(sequence, config), None
    if args.output:
        _write(args.output, grid)
    else:
        print(grid, end="")
    if svg is not None:
        _write(args.svg, svg)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.gates is not None and args.suite != "random":
        raise ValueError(f"--gates applies only to --suite random, not {args.suite}")
    n_list = [int(x) for x in args.qubits.split(",") if x]
    if not n_list:
        raise ValueError(f"--qubits names no qubit count: {args.qubits!r}")
    records = run_sweep(args.suite, n_list, method_list=tuple(args.methods.split(",")),
                        trials=args.trials, seed=args.seed,
                        n_gates=1000 if args.gates is None else args.gates,
                        config=lambda n: _trap_config(args, *astuple(bench_config(n))),
                        workers=args.workers)
    passes = []  # one per (size, method) pass; each pass starts at trial 0
    for r in records:
        if r.trial == 0:
            passes.append([])
        passes[-1].append(r)
    for run in passes:
        costs = [r.cost for r in run]
        print(f"{run[0].suite} n={run[0].n} {run[0].method}: trials={len(costs)} "
              f"min={min(costs)} mean={statistics.fmean(costs):.1f} max={max(costs)}")
    if args.csv:
        _write(args.csv, to_csv(records))
        print(f"wrote {args.csv}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionshuttle",
        description="Compile quantum circuits to ion-shuttling schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    def trap_flags(p):
        p.add_argument("--segments", type=int, default=None,
                       help="trap segment count (default: compile 32; validate "
                            "and trace the sequence header's; bench each size's "
                            "own trap, 32 up to 8 qubits and 4n above)")
        p.add_argument("--liz", type=int, default=None,
                       help="laser interaction zone segment (default: compile "
                            "19; validate and trace the sequence header's; bench "
                            "each size's own trap, 19 up to 8 qubits and 2n above)")

    p = sub.add_parser("compile", help="compile OpenQASM 2.0 to a shuttling sequence")
    p.add_argument("-i", "--input", required=True, help="OpenQASM 2.0 file")
    p.add_argument("-o", "--output", default=None, help="sequence output path")
    p.add_argument("--ordering", choices=ORDERING_METHODS, default="ipo")
    p.add_argument("--seed", type=int, default=0, help="seed for --ordering oir")
    p.add_argument("--decompose", action="store_true",
                   help="expand ccx gates into two-qubit gates")
    p.add_argument("--trace", default=None, help="also write a text trace grid")
    trap_flags(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("validate", help="replay a sequence file against the constraints")
    p.add_argument("-i", "--input", required=True, help="sequence file")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first violation")
    trap_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="render a sequence as a text grid / SVG")
    p.add_argument("-i", "--input", required=True, help="sequence file")
    p.add_argument("-o", "--output", default=None, help="text grid output (default stdout)")
    p.add_argument("--svg", default=None, help="SVG output path")
    trap_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("bench", help="run ordering sweeps and export CSV")
    p.add_argument("--suite", choices=("random", "qft", "toffoli"), required=True)
    p.add_argument("--qubits", required=True, help="comma-separated qubit counts")
    p.add_argument("--gates", type=int, default=None,
                   help="gate count of --suite random (default 1000)")
    p.add_argument("--trials", type=int, default=1, help="randomized-ordering trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="oai,oir,ipo")
    p.add_argument("--csv", default=None, help="per-compile CSV output path")
    p.add_argument("--workers", type=int, default=1, help="trial processes, at most one per CPU")
    trap_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        for types, code in EXIT_CODES:
            if isinstance(e, types):
                print(f"error: {e}", file=sys.stderr)
                return code
        raise
