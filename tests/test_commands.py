"""Command ISA: wire format, replay validation, cost and trace rendering."""
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ionshuttle.benchmarks import compile_ordering
from ionshuttle.commands import (CommandSequence, FormatError, ReplayError,
                                 cost, parse_sequence, render_trace,
                                 render_trace_svg, replay, serialize)
from ionshuttle.ordering import Ordering
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import schedule
from ionshuttle.trap import TrapConfig, TrapOverflow, new_state


def exchange_sequence():
    circ = build_circuit(4, [("cz", (0, 2), ())])
    state = new_state()
    state.place_crystal([1, 2], 19)
    state.place_crystal([3, 4], 21)
    return schedule(circ, state).sequence


class TestSerialize:
    def test_start_line(self):
        seq = CommandSequence(raw=[("START", ())])
        assert serialize(seq).splitlines()[1] == "1 START 0"

    def test_aic_line(self):
        seq = CommandSequence(raw=[("START", ()), ("AIC", (2, 19))])
        assert serialize(seq).splitlines()[2] == "2 AIC 2 2 19"

    def test_multi_segment_move_line(self):
        seq = CommandSequence(raw=[("SMD", (2, 19, 21))])
        assert serialize(seq).splitlines()[1] == "1 SMD 2 19 21"

    def test_header_and_terminator(self):
        text = serialize(CommandSequence(n_segments=48, liz=24, raw=[]))
        assert text == "# segments=48 liz=24\n"

    def test_gate_marker_carries_index(self):
        seq = CommandSequence(raw=[("DG", (5,))])
        assert serialize(seq).splitlines()[1] == "1 DG 1 5"


class TestParse:
    def test_round_trip_identity(self):
        seq = exchange_sequence()
        parsed = parse_sequence(serialize(seq))
        assert parsed.raw == seq.raw
        assert (parsed.n_segments, parsed.liz) == (seq.n_segments, seq.liz)
        assert serialize(parsed) == serialize(seq)

    def test_start_with_params_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_sequence("1 START 1 5\n")
        assert err.value.line == 1

    def test_out_of_order_seq_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_sequence("1 START 0\n3 S 0\n")
        assert err.value.line == 2

    def test_truncated_line_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_sequence("1 START 0\n2 AIC 2 4\n")
        assert err.value.line == 2

    def test_line_with_fewer_than_three_tokens_rejected(self):
        with pytest.raises(FormatError, match="expected '<seq> <OPCODE> <nparams>") as err:
            parse_sequence("1 START 0\n2 S\n")
        assert err.value.line == 2

    def test_non_integer_sequence_number_rejected(self):
        with pytest.raises(FormatError, match="bad sequence number 'x'") as err:
            parse_sequence("# segments=32 liz=19\nx START 0\n")
        assert err.value.line == 2

    def test_unknown_opcode_rejected(self):
        with pytest.raises(FormatError):
            parse_sequence("1 FROB 0\n")

    def test_non_integer_params_rejected(self):
        with pytest.raises(FormatError):
            parse_sequence("1 AIC 2 a 19\n")

    def test_move_needs_a_segment(self):
        with pytest.raises(FormatError):
            parse_sequence("1 SMU 0\n")

    def test_header_read_back(self):
        seq = parse_sequence("# segments=64 liz=32\n1 START 0\n")
        assert seq.n_segments == 64 and seq.liz == 32

    def test_comments_and_blanks_skipped(self):
        seq = parse_sequence("# a note\n\n1 START 0\n# mid comment\n2 S 0\n")
        assert [op for op, _ in seq.raw] == ["START", "S"]


class TestReplay:
    def test_scheduler_output_is_clean(self):
        seq = exchange_sequence()
        report = replay(seq)
        assert report.ok
        assert report.s_count == 3 and report.m_count == 3

    def test_rotation_outside_liz_flagged(self):
        text = ("1 START 0\n2 AIC 2 1 5\n3 AIC 2 2 5\n4 RC 1 5\n")
        report = replay(parse_sequence(text))
        assert any("rotation outside LIZ" in msg for _, msg in report.violations)
        # lenient replay still applies the physical rotation
        assert report.final_state.crystal_at(5).ions == [2, 1]

    def test_strict_mode_raises_with_seq(self):
        text = "1 START 0\n2 AIC 2 1 5\n3 RC 1 5\n"
        with pytest.raises(ReplayError) as err:
            replay(parse_sequence(text), strict=True)
        assert err.value.seq == 3

    def test_aic_after_shuttling_flagged(self):
        text = ("1 START 0\n2 AIC 2 1 10\n3 SMD 1 10\n4 AIC 2 2 20\n")
        report = replay(parse_sequence(text))
        assert any("placement after shuttling" in msg for _, msg in report.violations)

    def test_placement_after_scheduling_blocked(self):
        # the rule is one of program order: the AIC would be legal on the
        # trap the program left, and the shuttling before it ran
        text = "1 START 0\n2 AIC 2 1 10\n3 SMD 1 10\n4 AIC 2 2 20\n"
        with pytest.raises(ReplayError) as err:
            replay(parse_sequence(text), strict=True)
        assert str(err.value) == "command 4: initial placement after shuttling started"
        with pytest.raises(ReplayError) as err:
            render_trace(parse_sequence(text))
        assert err.value.seq == 4

    def test_missing_start_flagged(self):
        report = replay(parse_sequence("1 AIC 2 1 10\n"))
        assert any("begin with START" in msg for _, msg in report.violations)

    def test_spacing_violating_move_flagged(self):
        text = ("1 START 0\n2 AIC 2 1 10\n3 AIC 2 2 12\n4 SMU 1 12\n")
        report = replay(parse_sequence(text))
        assert any("spacing" in msg for _, msg in report.violations)

    def test_split_merge_counts_reported(self):
        text = ("1 START 0\n2 AIC 2 1 19\n3 AIC 2 2 19\n4 S 0\n5 M 0\n")
        report = replay(parse_sequence(text))
        assert report.ok
        assert report.s_count == 1 and report.m_count == 1

    def test_merge_into_a_well_in_the_liz_flagged(self):
        text = "1 START 0\n2 AIC 2 1 18\n3 AIC 2 2 20\n4 AEC 1 19\n5 M 0\n"
        report = replay(parse_sequence(text))
        assert report.violations == [(5, "LIZ holds an empty well")]
        assert report.m_count == 0
        assert sorted(report.final_state.seg_crystal) == [18, 20]

    def test_placement_and_well_outside_the_trap_flagged(self):
        text = "1 START 0\n2 AIC 2 1 0\n3 AIC 2 2 33\n4 AEC 1 0\n5 AEC 1 33\n"
        report = replay(parse_sequence(text))
        assert report.violations == [(2, "segment 0 outside trap"),
                                     (3, "segment 33 outside trap"),
                                     (4, "segment 0 outside trap"),
                                     (5, "segment 33 outside trap")]
        assert not report.final_state.seg_crystal and not report.final_state.wells

    def test_parallel_move_form(self):
        text = ("1 START 0\n2 AIC 2 1 10\n3 AIC 2 2 12\n4 SMU 2 10 12\n")
        report = replay(parse_sequence(text))
        assert report.ok
        assert sorted(report.final_state.seg_crystal) == [9, 11]

    def test_gate_with_empty_liz_flagged(self):
        text = "1 START 0\n2 AIC 2 1 10\n3 DG 1 0\n"
        report = replay(parse_sequence(text))
        assert any("no crystal in the LIZ" in msg for _, msg in report.violations)

    def test_missing_start_flagged_before_a_move(self):
        report = replay(parse_sequence("1 SMD 1 10\n"))
        messages = [msg for _, msg in report.violations]
        assert any("begin with START" in msg for msg in messages)
        assert any("no crystal at segment 10" in msg for msg in messages)

    def test_strict_mode_rejects_missing_start_first(self):
        with pytest.raises(ReplayError) as err:
            replay(parse_sequence("1 AIC 2 1 10\n2 START 0\n"), strict=True)
        assert err.value.seq == 1

    def test_second_start_flagged(self):
        report = replay(parse_sequence("1 START 0\n2 START 0\n"))
        assert report.violations == [(2, "START not at the beginning")]

    def test_failing_parallel_move_changes_nothing(self):
        text = "1 START 0\n2 AIC 2 1 10\n3 SMU 2 10 20\n4 AIC 2 2 14\n"
        report = replay(parse_sequence(text))
        # one violation for the move; the placement after it is still legal
        assert [seq for seq, _ in report.violations] == [3]
        assert sorted(report.final_state.seg_crystal) == [10, 14]

    def test_meaningless_ids_flagged(self):
        # ion ids start at 1 and gate indices at 0; ion 1 fills the LIZ so
        # the DG fails on its index alone
        text = ("1 START 0\n2 AIC 2 0 19\n3 AIC 2 -4 19\n4 AIC 2 1 19\n"
                "5 DG 1 -7\n")
        report = replay(parse_sequence(text))
        assert [seq for seq, _ in report.violations] == [2, 3, 5]
        assert "ion id 0" in report.violations[0][1]
        assert "gate index -7" in report.violations[2][1]
        assert [c.ions for c in report.final_state.seg_crystal.values()] == [[1]]
        with pytest.raises(ReplayError) as err:
            replay(parse_sequence(text), strict=True)
        assert str(err.value) == "command 2: ion id 0 is below 1"


class TestCost:
    def test_no_split_merge(self):
        assert cost(CommandSequence(raw=[("START", ()), ("DG", (0,))])) == 0

    def test_exchange_costs_six(self):
        assert cost(exchange_sequence()) == 6

    def test_concatenation_additivity(self):
        a = exchange_sequence()
        b = exchange_sequence()
        joined = CommandSequence(a.n_segments, a.liz, a.raw + b.raw)
        assert cost(joined) == cost(a) + cost(b)


class TestTrace:
    def test_single_row_for_single_placement(self):
        seq = parse_sequence("1 START 0\n2 AIC 2 1 19\n")
        grid = render_trace(seq)
        rows = [ln for ln in grid.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 1

    def test_row_count_matches_state_changing_commands(self):
        seq = exchange_sequence()
        changing = sum(1 for op, _ in seq.raw
                       if op in ("AIC", "SMU", "SMD", "RC", "M", "S"))
        grid = render_trace(seq)
        rows = [ln for ln in grid.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == changing

    def test_grid_width_equals_segment_count(self):
        seq = exchange_sequence()
        grid = render_trace(seq)
        rows = [ln for ln in grid.splitlines() if not ln.startswith("#")][1:]
        for row in rows:
            cells = row.split("  DG")[0].split()[1:]
            assert len(cells) == seq.n_segments

    def test_gate_annotation_present(self):
        grid = render_trace(exchange_sequence())
        assert "DG g0" in grid

    def test_rejects_gate_with_empty_liz(self):
        seq = parse_sequence("1 START 0\n2 AIC 2 1 10\n3 DG 1 0\n")
        with pytest.raises(ReplayError) as err:
            render_trace(seq)
        assert err.value.seq == 3

    def test_rejects_missing_start(self):
        with pytest.raises(ReplayError) as err:
            render_trace(parse_sequence("1 AIC 2 1 19\n"))
        assert err.value.seq == 1

    def test_error_names_the_command(self):
        with pytest.raises(ReplayError) as err:
            render_trace(parse_sequence("1 START 0\n2 SMD 1 10\n"))
        assert err.value.seq == 2
        assert str(err.value) == "command 2: no crystal at segment 10"

    def test_rejects_meaningless_ids(self):
        for text, seq in (("1 START 0\n2 AIC 2 -4 19\n", 2),
                          ("1 START 0\n2 AIC 2 1 19\n3 DG 1 -7\n", 3)):
            with pytest.raises(ReplayError) as err:
                render_trace(parse_sequence(text))
            assert err.value.seq == seq

    def test_svg_renders(self):
        svg = render_trace_svg(exchange_sequence())
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "circle" in svg


# -- the program runner on random programs -------------------------------------

RUNNER_TRAP = TrapConfig(n_segments=12, liz=6)
RUNNER_EXAMPLES = 300
RUNNER_OUTCOMES: Counter = Counter()
MISSING_START = "sequence does not begin with START"
LATE_PLACEMENT = "initial placement after shuttling started"


def random_command(draw):
    n = RUNNER_TRAP.n_segments
    op = draw(st.sampled_from(("START", "AIC", "AEC", "REC", "SMU", "SMD",
                               "RC", "M", "S", "DG")))
    if op == "AIC":
        return op, (draw(st.integers(0, 6)), draw(st.integers(1, n)))
    if op in ("AEC", "REC"):
        return op, (draw(st.integers(1, n)),)
    if op in ("SMU", "SMD"):
        return op, (1, draw(st.integers(1, n)))
    if op == "RC":
        return op, (draw(st.integers(RUNNER_TRAP.liz - 1, RUNNER_TRAP.liz + 1)),)
    if op == "DG":
        return op, (draw(st.integers(-1, 2)),)
    return op, ()


@st.composite
def runner_programs(draw):
    """A compiled program for a small circuit (legal, with splits and
    merges), then up to four edits: insert a random command or an AIC,
    delete a command, or move one parameter by one."""
    n = draw(st.integers(2, 4))
    specs = [("cz", tuple(draw(st.permutations(range(n)))[:2]), ())
             for _ in range(draw(st.integers(0, 3)))]
    ions = draw(st.permutations(range(1, n + 1)))
    groups, i = [], 0
    while i < n:
        size = 1 if i == n - 1 else draw(st.integers(1, 2))
        groups.append(tuple(ions[i:i + size]))
        i += size
    try:
        raw = list(compile_ordering(build_circuit(n, specs), Ordering(tuple(groups)),
                                    RUNNER_TRAP).sequence.raw)
    except TrapOverflow:
        raw = [("START", ())]
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(raw) - 1)) if raw else 0
        edit = draw(st.sampled_from(("insert", "place", "delete", "nudge")))
        if edit == "place":
            raw.insert(k, ("AIC", (draw(st.integers(1, n + 1)),
                                   draw(st.integers(1, RUNNER_TRAP.n_segments)))))
        elif edit == "insert" or not raw:
            raw.insert(k, random_command(draw))
        elif edit == "delete":
            del raw[k]
        elif raw[k][1]:
            op, params = raw[k]
            i = draw(st.integers(op in ("SMU", "SMD"), len(params) - 1))
            params = params[:i] + (params[i] + draw(st.sampled_from((-1, 1))),) + params[i + 1:]
            raw[k] = (op, params)
    return raw


@settings(max_examples=RUNNER_EXAMPLES)
@given(runner_programs())
def _runner_rules(raw):
    sequence = CommandSequence(RUNNER_TRAP.n_segments, RUNNER_TRAP.liz, raw)
    report = replay(sequence)
    first = report.violations[0] if report.violations else None
    # strict replay and the trace stop at the first lenient violation
    try:
        replay(sequence, strict=True)
    except ReplayError as e:
        assert first is not None and str(e) == f"command {first[0]}: {first[1]}"
    else:
        assert first is None
    try:
        render_trace(sequence)
    except ReplayError as e:
        assert first is not None and e.seq == first[0]
    else:
        assert first is None
    # the tally counts the splits and merges that ran
    ran_sm = report.s_count + report.m_count
    assert ran_sm <= cost(sequence)
    if report.ok:
        assert ran_sm == cost(sequence)
    # an AIC after any other command that ran is a late placement, and only
    # such an AIC is one
    own: dict[int, list[str]] = {}
    for seq, message in report.violations:
        if message != MISSING_START:   # command 1 still runs without START
            own.setdefault(seq, []).append(message)
    started = False
    for seq, (op, _) in enumerate(raw, 1):
        late = LATE_PLACEMENT in own.get(seq, [])
        assert late == (op == "AIC" and started), (seq, own.get(seq))
        if late:
            assert own[seq] == [LATE_PLACEMENT]
            RUNNER_OUTCOMES["late placement"] += 1
        started = started or (op not in ("START", "AIC") and seq not in own)
    RUNNER_OUTCOMES["clean" if report.ok else "violating"] += 1
    RUNNER_OUTCOMES["split or merge ran"] += ran_sm > 0


def test_runner_rules_on_random_programs():
    RUNNER_OUTCOMES.clear()
    _runner_rules()
    # floors keep each rule from holding only vacuously
    assert RUNNER_OUTCOMES["clean"] + RUNNER_OUTCOMES["violating"] >= RUNNER_EXAMPLES
    assert RUNNER_OUTCOMES["clean"] >= RUNNER_EXAMPLES // 10, RUNNER_OUTCOMES
    assert RUNNER_OUTCOMES["violating"] >= RUNNER_EXAMPLES // 4, RUNNER_OUTCOMES
    assert RUNNER_OUTCOMES["split or merge ran"] >= RUNNER_EXAMPLES // 4, RUNNER_OUTCOMES
    assert RUNNER_OUTCOMES["late placement"] >= RUNNER_EXAMPLES // 10, RUNNER_OUTCOMES
