"""Byte-identity pins: the compiler must keep reproducing these outputs.

The goldens are compared byte for byte; larger compiles and traces are
pinned by the sha256 of their text.  A change that alters any of them
changes the emitted programs, not just the code that emits them.
"""
import hashlib
from pathlib import Path

import pytest

from ionshuttle.benchmarks import (bench_config, compile_ordering, gen_qft,
                                   gen_random_circuit, gen_toffoli)
from ionshuttle.commands import (CommandSequence, parse_sequence, render_trace,
                                 render_trace_svg, serialize)
from ionshuttle.ordering import (increase_pairwise_order, order_as_is,
                                 order_inputs_randomly)
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import schedule
from ionshuttle.trap import TrapConfig, TrapState

GOLDEN_DIR = Path(__file__).parent / "golden"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def test_golden_qft4_oai():
    circuit = gen_qft(4)
    result = compile_ordering(circuit, order_as_is(circuit), TrapConfig())
    assert serialize(result.sequence) == golden("qft4_oai.seq")


def test_golden_exchange():
    circuit = build_circuit(4, [("cz", (0, 2), ())])
    state = TrapState()
    state.place_crystal([1, 2], 19)
    state.place_crystal([3, 4], 21)
    assert serialize(schedule(circuit, state).sequence) == golden("exchange.seq")


def test_golden_chain3_ipo():
    circuit = build_circuit(3, [("cz", (0, 1), ()), ("cz", (0, 1), ()),
                                ("cz", (1, 2), ())])
    result = compile_ordering(circuit, increase_pairwise_order(circuit),
                              TrapConfig())
    assert serialize(result.sequence) == golden("chain3_ipo.seq")


LARGE = [
    ("random12_oir5", lambda: gen_random_circuit(12, 1000, 5),
     lambda c: order_inputs_randomly(c, 5),
     "df8b3046ee07e4908698c4801c5c2e561044b6e7566133a6e6f004d6fddfa1ec", 13176),
    ("qft24_ipo", lambda: gen_qft(24), increase_pairwise_order,
     "dd2b1bce41f88d69fe3549b5c665b4341d53624cda48cceafaec43077cc04d1e", 4608),
    ("toffoli16_oai", lambda: gen_toffoli(16), order_as_is,
     "6b68ca865b236ed697d817d9fa57cbcbc90baee4a8d98971b5060ca422fabfd5", 606),
]


@pytest.mark.parametrize("make_circuit,layout,digest,sm",
                         [case[1:] for case in LARGE],
                         ids=[case[0] for case in LARGE])
def test_large_compile_hash(make_circuit, layout, digest, sm):
    circuit = make_circuit()
    result = compile_ordering(circuit, layout(circuit),
                              bench_config(circuit.n_qubits))
    assert result.cost == sm
    assert sha256(serialize(result.sequence)) == digest


def test_trace_hash_toffoli16():
    circuit = gen_toffoli(16)
    result = compile_ordering(circuit, order_as_is(circuit), bench_config(16))
    assert (sha256(render_trace(result.sequence))
            == "f5707e011d1b3a672b6025eb491ace4decb143e3d88a02c79f7d4c596a4bff3a")


def test_trace_svg_hash_toffoli16():
    # by its sorted lines: the order of a row's elements is free, the elements are not
    circuit = gen_toffoli(16)
    result = compile_ordering(circuit, order_as_is(circuit), bench_config(16))
    lines = sorted(render_trace_svg(result.sequence).splitlines())
    assert (sha256("\n".join(lines))
            == "931a4d4f127ee9ceaaba87511a187c7533e150734065bdef6c2507d1eb965464")


def test_trace_hash_qft32_ipo_wide_trap():
    # the first 10,000 commands on 128 segments, as the benchmark traces them
    circuit = gen_qft(32)
    config = bench_config(32)
    result = compile_ordering(circuit, increase_pairwise_order(circuit), config)
    head = CommandSequence(config.n_segments, config.liz, result.sequence.raw[:10_000])
    assert (sha256(render_trace(head))
            == "86d31b0a486c5805505e8f699e8b7521e586ac9cb6d8a2fb9e4ce16f45409606")


def test_trace_hash_qft4_golden():
    sequence = parse_sequence(golden("qft4_oai.seq"))
    assert (sha256(render_trace(sequence))
            == "d04d0f766c98977ac4fadac02b601f950d571638f3942e2b66abb17e1c975313")
