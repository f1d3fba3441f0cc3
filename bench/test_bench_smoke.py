"""Smoke test: every workload at a tiny size, untraced and traced."""
import pytest

import run

TINY = {
    "random12": {"n": 6, "gates": 40, "oir_layouts": 1, "trace_commands": 200,
                 "oracle_n": 4, "oracle_gates": 6, "oracle_circuits": 1,
                 "sweeps": 1, "sweep_trials": 1, "reps": 1},
    "structured": {"qft": (10,), "toffoli": (10,), "trace_commands": 500,
                   "paper": (12, 14), "oracle_n": 4, "sweep_n": 10,
                   "sweeps": 1, "sweep_trials": 2, "reps": 2},
    "search": {"oracle_n": 4, "oracle_gates": 8, "oracle_circuits": 2,
               "sweep_n": 10, "sweeps": 2, "sweep_trials": 2, "reps": 2},
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_tiny(workload, trace, tmp_path, capsys):
    result = run.run_workload(workload, 3, 0.0, trace, TINY[workload], str(tmp_path))
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    if not trace:
        for name in ("setup_s", "compile_ms.p50", "validate_ms.p50", "trace_ms.p50",
                     "oracle_s", "sweep_s", "gates_per_s", "commands", "moves"):
            assert result["metrics"][name]["value"] > 0, name
    if workload == "structured":
        out = capsys.readouterr().out
        assert "paper-trap overflows: 4" in out
