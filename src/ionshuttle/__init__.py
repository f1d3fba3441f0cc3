"""Ion-shuttling compiler for a linear segmented trap.

Turns OpenQASM 2.0 circuits into validated shuttling command schedules:
parse, choose an initial ion layout, greedily route every gate through the
laser interaction zone, and emit the command program with replay-based
validation, cost accounting and trace rendering.
"""
from .benchmarks import (CompileRecord, brute_force_best_ordering,
                         circuit_fit, compile_ordering, gen_qft,
                         gen_random_circuit, gen_toffoli, run_sweep,
                         theoretical_limit, to_csv)
from .commands import (CommandSequence, FormatError, ReplayError, ReplayReport,
                       cost, parse_sequence, render_trace, render_trace_svg,
                       replay, serialize)
from .ordering import (Ordering, increase_pairwise_order, order_as_is,
                       order_inputs_randomly, place_in_the_model,
                       reverse_ordering)
from .qasm import (Circuit, Gate, QasmError, build_circuit, decompose_gate,
                   parse_qasm, to_qasm)
from .scheduler import ScheduleResult, schedule
from .trap import (CapacityExceeded, InvalidConfig, TrapConfig, TrapError,
                   TrapOverflow, TrapState)

__version__ = "0.1.0"
