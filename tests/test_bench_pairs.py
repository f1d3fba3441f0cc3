"""tools/bench_pairs.py on made-up runs: its summary, and how it reads a
finished or failed run; nothing is run."""
import importlib.util
import json
import subprocess
from collections import Counter
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "oracle_s", "better": "lower", "bound": 0.25},
           {"name": "gates_per_s", "better": "higher", "bound": 0.25},
           {"name": "commands", "better": "lower", "bound": 0.1}]


def result(oracle_s, gates_per_s, commands=100, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"oracle_s": {"value": oracle_s, "unit": "s"},
                        "gates_per_s": {"value": gates_per_s, "unit": "1/s"},
                        "commands": {"value": commands, "unit": "count"}}}


def pairs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def test_a_clear_gain_and_an_unchanged_count():
    parent = [result(8.0 + 0.1 * i, 100.0 + i) for i in range(10)]
    change = [result(4.0 + 0.1 * i, 100.0 + i) for i in range(10)]
    summary = bench_pairs.summarize(pairs(parent, change), METRICS)
    oracle = summary["metrics"]["oracle_s"]
    assert oracle["verdict"] == "gain"
    assert (oracle["wins"], oracle["losses"], oracle["ties"]) == (10, 0, 0)
    assert oracle["parent"] == {"q1": pytest.approx(8.225), "median": pytest.approx(8.45),
                                "q3": pytest.approx(8.675)}
    assert oracle["ratio"] == pytest.approx(4.45 / 8.45)
    assert summary["metrics"]["gates_per_s"]["verdict"] == "within bound"
    assert summary["metrics"]["gates_per_s"]["ties"] == 10
    assert summary["metrics"]["commands"]["verdict"] == "within bound"
    assert summary["parent"] == summary["change"] == {
        "attempted": 100, "failed": 0, "all_correct": True}


def test_eight_wins_of_ten_are_no_gain():
    parent = [result(8.0, 100.0) for _ in range(10)]
    change = [result(4.0 if i < 8 else 9.0, 100.0) for i in range(10)]
    oracle = bench_pairs.summarize(pairs(parent, change), METRICS)["metrics"]["oracle_s"]
    assert (oracle["wins"], oracle["verdict"]) == (8, "within bound")


def test_nine_pairs_are_too_few_for_a_gain():
    parent = [result(8.0, 100.0) for _ in range(9)]
    change = [result(4.0, 100.0) for _ in range(9)]
    oracle = bench_pairs.summarize(pairs(parent, change), METRICS)["metrics"]["oracle_s"]
    assert (oracle["wins"], oracle["verdict"]) == (9, "within bound")


def test_worse_beyond_bound_in_either_direction():
    parent = [result(8.0, 100.0, 100) for _ in range(4)]
    change = [result(10.5, 70.0, 111) for _ in range(4)]
    metrics = bench_pairs.summarize(pairs(parent, change), METRICS)["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "oracle_s": "worse beyond bound", "gates_per_s": "worse beyond bound",
        "commands": "worse beyond bound"}
    assert metrics["gates_per_s"]["losses"] == 4


def test_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles are 5 apart against a bound of 2 on 8
    parent = [result(v, 100.0) for v in (4.0, 6.0, 10.0, 12.0)]
    change = [result(v, 100.0) for v in (5.0, 7.0, 10.5, 12.5)]
    oracle = bench_pairs.summarize(pairs(parent, change), METRICS)["metrics"]["oracle_s"]
    assert oracle["verdict"] == "unresolved"
    # unless every change run reads better than every parent run; a median
    # 4.1 better is still within the parent's spread of 5, so no gain
    change = [result(3.9, 100.0) for _ in range(4)]
    oracle = bench_pairs.summarize(pairs(parent, change), METRICS)["metrics"]["oracle_s"]
    assert oracle["verdict"] == "within bound"


def test_failures_are_counted_per_side():
    summary = bench_pairs.summarize(
        pairs([result(8.0, 100.0)] * 2, [result(8.0, 100.0, failed=3), result(8.0, 100.0)]),
        METRICS)
    assert summary["parent"] == {"attempted": 20, "failed": 0, "all_correct": True}
    assert summary["change"] == {"attempted": 20, "failed": 3, "all_correct": False}


def test_one_pair_has_degenerate_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_failed_run_names_itself_and_exits_1(monkeypatch, capsys):
    stderr = "".join(f"line {i}\n" for i in range(30))

    def failed(args, **kw):
        assert kw["cwd"] == "../parent" and "--seed" in args
        return subprocess.CompletedProcess(args, 3, stdout="", stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", failed)
    with pytest.raises(SystemExit) as done:
        bench_pairs.run_once("../parent", ["python3", "bench/run.py"], "search", 1741, 30)
    assert done.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("benchmark failed in ../parent: workload search, seed 1741, exit 3\n"
                   + "".join(f"  line {i}\n" for i in range(10, 30)))


@pytest.mark.parametrize("stdout,shown", [("", "''"), ("progress\nTraceback lost\n",
                                                       "'Traceback lost'")],
                         ids=["no output", "not json"])
def test_a_run_without_a_result_names_itself_and_exits_1(monkeypatch, capsys, stdout, shown):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda args, **kw:
                        subprocess.CompletedProcess(args, 0, stdout=stdout, stderr=""))
    with pytest.raises(SystemExit) as done:
        bench_pairs.run_once("../change", ["python3", "bench/run.py"], "search", 1741, 30)
    assert done.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("benchmark printed no JSON result in ../change: workload search, "
                   f"seed 1741; last line: {shown}\n")


def test_a_clean_run_returns_its_last_line(monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda args, **kw:
                        subprocess.CompletedProcess(args, 0, stdout='progress\n{"ok": 1}\n'))
    assert bench_pairs.run_once(".", ["python3", "bench/run.py"], "search", 1, 30) == {"ok": 1}


def test_main_adds_three_traced_runs_per_side_and_workload(monkeypatch, tmp_path, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "bench/run.py"], "run_seconds": 30, "end_to_end": METRICS}))
    calls = []
    traced = Counter()  # of each side and workload

    def run(args, **kw):
        if args[0] == "git":
            return subprocess.CompletedProcess(args, 0, stdout="abc123\n")
        seed, trace = int(args[args.index("--seed") + 1]), args[args.index("--trace") + 1]
        workload = args[args.index("--workload") + 1]
        calls.append((kw["cwd"], workload, seed, trace))
        side = 1.0 if kw["cwd"] == "../parent" else 0.5
        if trace == "1":
            k = (1.0, 5.0, 2.0)[traced[kw["cwd"], workload]]  # median 2
            traced[kw["cwd"], workload] += 1
            line = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
                "benchmarks.self_ms": {"value": 4.0 * side * k, "unit": "ms"},
                "benchmarks.oracle_layout_us": {"value": 12.0 * side * k, "unit": "us"},
                # 9 and 10 times k: each median within the other's quartiles
                "scheduler.self_ms": {"value": (11.0 - 2.0 * side) * k, "unit": "ms"}}}
        else:
            line = result(8.0 * side + 0.01 * (seed - 2001), 100.0)
        return subprocess.CompletedProcess(args, 0, stdout="# table\n" + json.dumps(line) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "../parent", "--change", str(change),
                             "--workload", "search", "--workload", "structured",
                             "--pairs", "2", "--seed", "2001", "--out", str(out)]) == 0
    # two alternating pairs, then three alternating traced runs per side on
    # the first seed
    parent, chg = "../parent", str(change)
    for workload in ("search", "structured"):
        assert [c for c in calls if c[1] == workload] == [
            (parent, workload, 2001, "0"), (chg, workload, 2001, "0"),
            (chg, workload, 2002, "0"), (parent, workload, 2002, "0"),
            (parent, workload, 2001, "1"), (chg, workload, 2001, "1"),
            (chg, workload, 2001, "1"), (parent, workload, 2001, "1"),
            (parent, workload, 2001, "1"), (chg, workload, 2001, "1")]
    report = json.loads(out.read_text())
    for workload in ("search", "structured"):
        assert report["workloads"][workload]["per_layer"] == {
            "parent": {"benchmarks.self_ms": 8.0, "benchmarks.oracle_layout_us": 24.0,
                       "scheduler.self_ms": 18.0},
            "change": {"benchmarks.self_ms": 4.0, "benchmarks.oracle_layout_us": 12.0,
                       "scheduler.self_ms": 20.0}}
        # factors 1, 5 and 2: quartiles 1.5 and 3.5 times the side's scale
        assert report["workloads"][workload]["per_layer_quartiles"] == {
            "parent": {"benchmarks.self_ms": {"q1": 6.0, "q3": 14.0},
                       "benchmarks.oracle_layout_us": {"q1": 18.0, "q3": 42.0},
                       "scheduler.self_ms": {"q1": 13.5, "q3": 31.5}},
            "change": {"benchmarks.self_ms": {"q1": 3.0, "q3": 7.0},
                       "benchmarks.oracle_layout_us": {"q1": 9.0, "q3": 21.0},
                       "scheduler.self_ms": {"q1": 15.0, "q3": 35.0}}}
    assert report["workloads"]["search"]["metrics"]["oracle_s"]["wins"] == 2
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ("search benchmarks.oracle_layout_us parent 24 change 12 traced median of 3, "
            "seed 2001".split()) in printed
    assert ("search scheduler.self_ms parent 18 change 20 traced median of 3, seed 2001 "
            "noise: each median within the other's q1-q3".split()) in printed
