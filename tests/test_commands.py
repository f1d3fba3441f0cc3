"""Command ISA: wire format, replay validation, cost and trace rendering."""
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ionshuttle.benchmarks import bench_config, compile_ordering, gen_qft, gen_random_circuit
from ionshuttle import commands
from ionshuttle.commands import (CommandSequence, FormatError, ReplayError,
                                 _execute, _reject, cost, parse_sequence,
                                 render_trace, render_trace_svg, render_traces,
                                 replay, serialize, serialize_pieces, verify_steps)
from ionshuttle.ordering import (Ordering, increase_pairwise_order,
                                 order_as_is, order_inputs_randomly)
from ionshuttle.qasm import build_circuit
from ionshuttle.scheduler import schedule
from ionshuttle.trap import TrapConfig, TrapError, TrapOverflow, TrapState


def exchange_sequence():
    circ = build_circuit(4, [("cz", (0, 2), ())])
    state = TrapState()
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

    @pytest.mark.parametrize("text, line, message", [
        ("1 START 0\n2 AIC 2 \uff11 1_0\n+3 DG 1 0\n", 2, "parameters must be integers"),
        ("1 START 0\n2 AIC 2 1 10\n+3 DG 1 0\n", 3, "bad sequence number '+3'"),
        ("1 START 0\n2 AIC 2 1 1_0\n", 2, "parameters must be integers"),
        ("1 START 0\n2 DG 1 +0\n", 2, "parameters must be integers"),
        ("1 START 0\n2 DG \u0661 0\n", 2, "parameters must be integers"),
        ("1 START 0\n\uff12 S 0\n", 2, "bad sequence number '\uff12'"),
        ("1_0 START 0\n", 1, "bad sequence number '1_0'"),
        ("1 START 0\n2 DG 1 " + "9" * 5000 + "\n", 2, "parameters must be integers"),
        ("9" * 5000 + " START 0\n", 1, "bad sequence number '999"),
    ], ids=["fullwidth-and-underscore", "plus-sequence", "underscore", "plus",
            "arabic-indic", "fullwidth-sequence", "underscore-sequence", "too-long",
            "too-long-sequence"])
    def test_integers_are_plain_ascii(self, text, line, message):
        with pytest.raises(FormatError, match=re.escape(message)) as err:
            parse_sequence(text)
        assert err.value.line == line

    def test_header_after_the_first_command_rejected(self):
        with pytest.raises(FormatError, match="header after the first command") as err:
            parse_sequence("1 START 0\n# segments=64 liz=32\n2 S 0\n")
        assert err.value.line == 2

    def test_repeated_header_rejected(self):
        with pytest.raises(FormatError, match=r"repeated header \(first on line 2\)") as err:
            parse_sequence("# a note\n# segments=64 liz=32\n#segments=48 liz=24\n1 START 0\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("header", [
        "# segments=３２ liz=19", "# segments=32 liz=１９", "# segments=32 liz=19x",
        "# segments=32 liz=19 junk", "# segments=32 liz=", "# segments= 32 liz=19",
        "#segments=32", "# segments=+32 liz=19", "# segments=3_2 liz=19",
        "# segments=" + "9" * 5000 + " liz=19", "# segments=32 liz=" + "1" * 5000],
        ids=["wide-segments", "wide-liz", "letter", "trailing-text", "empty-liz",
             "spaced-count", "no-liz", "plus", "underscore", "long-segments",
             "long-liz"])
    def test_header_must_be_exactly_a_header(self, header):
        with pytest.raises(FormatError, match="bad header") as err:
            parse_sequence(f"# a note\n{header}\n1 START 0\n")
        assert err.value.line == 2


class TestInterning:
    """Equal commands are one shared tuple, so a long program holds only
    its few distinct commands."""

    @staticmethod
    def program():
        circ = gen_random_circuit(6, 60, 1)
        return compile_ordering(circ, increase_pairwise_order(circ),
                                bench_config(6)).sequence

    def test_lowering_shares_equal_commands(self):
        # the second program repeats most exchange steps, whose commands
        # the lowering replays from its memo: the replayed tuples are the
        # stored ones, so they stay shared too
        circ = gen_random_circuit(12, 200, 5)
        replayed = compile_ordering(circ, order_inputs_randomly(circ, 5),
                                    bench_config(12)).sequence
        for program in (self.program(), replayed):
            raw = program.raw
            assert len({id(c) for c in raw}) == len(set(raw))
            rotations = [c for c in raw if c[0] == "RC"]
            assert len(rotations) > 1 and len({id(c) for c in rotations}) == 1

    def test_parsed_program_shares_equal_commands(self):
        raw = parse_sequence(serialize(self.program())).raw
        assert len({id(c) for c in raw}) == len(set(raw)) < len(raw) // 10
        # equal commands written with different spacing are shared too
        raw = parse_sequence("1 START 0\n2 S 0\n3 S  0\n4 S\t0\n5 S 0 \n").raw
        assert len({id(c) for c in raw[1:]}) == 1


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
        assert report.final_state.seg_crystal[5] == [2, 1]

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

    def test_unknown_opcode_flagged(self):
        # a CommandSequence built in code skips the parser's opcode check;
        # the executor rejects the opcode itself, and the commands around it
        # still run
        seq = CommandSequence(32, 19, [("START", ()), ("AIC", (1, 19)), ("XYZ", (3,)),
                                       ("DG", (0,))])
        report = replay(seq)
        assert report.violations == [(3, "unknown opcode 'XYZ'")]
        assert report.final_state.seg_crystal == {19: [1]}
        with pytest.raises(ReplayError) as err:
            replay(seq, strict=True)
        assert err.value.seq == 3
        assert str(err.value) == "command 3: unknown opcode 'XYZ'"

    def test_unknown_opcode_not_counted(self):
        seq = CommandSequence(32, 19, [("START", ()), ("XYZ", (3,))])
        with pytest.raises(TrapError, match="^unknown opcode 'XYZ'$"):
            seq.opcode_counts()

    def test_meaningless_ids_flagged(self):
        # ion ids start at 1 and gate indices at 0; ion 1 fills the LIZ so
        # the DG fails on its index alone
        text = ("1 START 0\n2 AIC 2 0 19\n3 AIC 2 -4 19\n4 AIC 2 1 19\n"
                "5 DG 1 -7\n")
        report = replay(parse_sequence(text))
        assert [seq for seq, _ in report.violations] == [2, 3, 5]
        assert "ion id 0" in report.violations[0][1]
        assert "gate index -7" in report.violations[2][1]
        assert list(report.final_state.seg_crystal.values()) == [[1]]
        with pytest.raises(ReplayError) as err:
            replay(parse_sequence(text), strict=True)
        assert str(err.value) == "command 2: ion id 0 is below 1"


def checked(check, raw, config=None):
    """``check``'s S and M counts and final trap on the program ``raw``, or
    the message of the ``ReplayError`` it raised."""
    try:
        report = check(CommandSequence(raw=raw), config)
    except ReplayError as e:
        return str(e)
    state = report.final_state
    return report.s_count, report.m_count, state.seg_crystal, state.wells


def strict_replay(sequence, config):
    return replay(sequence, config, strict=True)


class TestVerifySteps:
    """``verify_steps`` on hand-built programs and step records: a stored
    step stands in for a run only where the run would go as stored."""

    # a pair at 18 and a lone ion at 22 on the default trap (LIZ 19)
    PREFIX = [("START", ()), ("AIC", (1, 18)), ("AIC", (2, 18)), ("AIC", (3, 22))]
    # the pair steps into the LIZ, splits, merges again and steps back
    STEP = [("SMD", (1, 18)), ("S", ()), ("M", ()), ("SMU", (1, 19))]
    # the pair's lower ion joins the lone one: 18 [1] and 22 [2 3], so the
    # same segments hold crystals of the other sizes
    REGROUP = ([("SMD", (1, 18)), ("S", ()), ("SMU", (1, 18)), ("SMU", (1, 17)),
                ("SMU", (1, 20)), ("SMU", (1, 19)), ("SMU", (1, 22)), ("SMU", (1, 21)),
                ("M", ())]
               + [("SMD", (1, s)) for s in (19, 20, 21, 16, 17)])

    def outcomes(self, raw, steps):
        """Strict replay's outcome and the verifier's on ``raw``."""
        return (checked(strict_replay, raw),
                checked(lambda seq, cfg: verify_steps(seq, steps, cfg), raw))

    def twice(self, first, between, second, dg=None):
        """The prefix, ``first``, ``between`` and ``second``, with ``first``
        and ``second`` recorded as one memo entry, and the records."""
        raw = self.PREFIX + first + between + second
        start = len(self.PREFIX)
        again = start + len(first) + len(between)
        return raw, [(start, start + len(first), 0, dg),
                     (again, again + len(second), 0, dg)]

    def test_a_step_met_again_in_its_shape_is_not_run(self, monkeypatch):
        raw, steps = self.twice(self.STEP, [], self.STEP)
        runs = Counter()
        apply = commands.apply

        def counted(state, op, params):
            runs[op] += 1
            apply(state, op, params)

        monkeypatch.setattr(commands, "apply", counted)
        clean, verified = self.outcomes(raw, steps)
        assert verified == clean == (2, 2, {18: [1, 2], 22: [3]}, set())
        # replay ran every command, the verifier the second step not at all
        assert runs == {"AIC": 6, "SMD": 3, "S": 3, "M": 3, "SMU": 3}

    def test_an_entry_met_once_runs_as_a_gap(self):
        raw, steps = self.twice(self.STEP, [], self.STEP)
        steps[1] = (*steps[1][:2], 1, None)
        assert self.outcomes(raw, steps)[1] == self.outcomes(raw, [])[0]

    def test_no_records_replay_the_whole_program(self):
        raw = self.PREFIX + self.STEP + [("S", ())]
        clean, verified = self.outcomes(raw, [])
        assert verified == clean == "command 9: no crystal in the LIZ to split"

    def test_crystal_sizes_are_part_of_the_shape(self):
        raw, steps = self.twice(self.STEP, self.REGROUP, self.STEP)
        clean, verified = self.outcomes(raw, steps)
        assert verified == clean == "command 24: split needs a 2-ion crystal, got 1"

    def test_wells_are_part_of_the_shape(self):
        raw, steps = self.twice(self.STEP, [("AEC", (20,))], self.STEP)
        clean, verified = self.outcomes(raw, steps)
        assert verified == clean == "command 11: segment 20 holds an empty well"

    def test_a_stored_step_needs_equal_commands(self):
        swapped = [self.STEP[0], self.STEP[2], self.STEP[1], self.STEP[3]]
        raw, steps = self.twice(self.STEP, [], swapped)
        clean, verified = self.outcomes(raw, steps)
        assert verified == clean == ("command 10: merge needs crystals at both "
                                     "segments beside the LIZ")
        raw, steps = self.twice(self.STEP, [], self.STEP[:3])
        assert self.outcomes(raw, steps)[1] == (2, 2, {19: [1, 2], 22: [3]}, set())

    @pytest.mark.parametrize("gate,outcome", [
        (("DG", (5,)), (0, 0, {18: [1, 2], 22: [3]}, set())),
        (("DG", (-1,)), "command 9: gate index -1 is negative"),
        # a legal rotation in the gate's place: the pair comes back reversed
        (("RC", (19,)), (0, 0, {18: [2, 1], 22: [3]}, set())),
    ], ids=["gate", "negative_index", "rotation"])
    def test_a_stored_step_takes_only_a_gate_at_its_gate(self, gate, outcome):
        step = [("SMD", (1, 18)), ("DG", (0,)), ("SMU", (1, 19))]
        raw, steps = self.twice(step, [], [step[0], gate, step[2]], dg=1)
        clean, verified = self.outcomes(raw, steps)
        assert verified == clean == outcome

    def test_records_out_of_order_run_as_gaps(self):
        raw, steps = self.twice(self.STEP, [], self.STEP)
        clean = self.outcomes(raw, [])[0]
        for records in (steps[::-1], [(0, 8, 0, None)] * 2, [(4, 8, 0, 9)] * 2,
                        [(4, 8, 0, None), (6, 10, 0, None)], [(8, 13, 0, None)] * 2):
            assert self.outcomes(raw, records)[1] == clean
        # the last record ends before its entry's gate offset
        step = [("SMD", (1, 18)), ("DG", (0,)), ("SMU", (1, 19))]
        raw = self.PREFIX + step + step
        assert (self.outcomes(raw, [(4, 7, 0, 1), (9, 10, 0, 1)])[1]
                == self.outcomes(raw, [])[0])


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


# -- the text codec against a plain line-at-a-time reference -------------------

REF_INT = re.compile(r"-?[0-9]+")
REF_HEADER_START = re.compile(r"#\s*segments=")
REF_HEADER = re.compile(r"#\s*segments=(-?[0-9]+)\s+liz=(-?[0-9]+)")
REF_ARITY = {"START": 0, "AIC": 2, "AEC": 1, "REC": 1, "SMU": None, "SMD": None,
             "RC": 1, "M": 0, "S": 0, "DG": 1}


def reference_serialize(sequence):
    """Each line formatted on its own."""
    out = [f"# segments={sequence.n_segments} liz={sequence.liz}"]
    for i, (op, params) in enumerate(sequence.raw):
        tail = params if op in ("SMU", "SMD") else (len(params), *params)
        out.append(" ".join(str(x) for x in (i + 1, op, *tail)))
    return "\n".join(out) + "\n"


def reference_integer(token):
    if not REF_INT.fullmatch(token):
        raise ValueError(token)
    return int(token)


def reference_parse(text):
    """Each line tokenised and validated on its own: ASCII integers, and at
    most one header, before the first command, which is the whole line."""
    n_segments, liz = TrapConfig.n_segments, TrapConfig.liz
    header = 0
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if REF_HEADER_START.match(stripped):
                if raw:
                    raise FormatError("header after the first command", lineno)
                if header:
                    raise FormatError(f"repeated header (first on line {header})", lineno)
                m = REF_HEADER.fullmatch(stripped)
                try:
                    n_segments, liz = reference_integer(m[1]), reference_integer(m[2])
                except (TypeError, ValueError):  # no match, or past int's digit limit
                    raise FormatError("bad header, expected '# segments=<S> liz=<L>'",
                                      lineno) from None
                header = lineno
            continue
        tokens = stripped.split()
        if len(tokens) < 3:
            raise FormatError("expected '<seq> <OPCODE> <nparams> ...'", lineno)
        try:
            seq = reference_integer(tokens[0])
        except ValueError:
            raise FormatError(f"bad sequence number {tokens[0]!r}", lineno) from None
        if seq != len(raw) + 1:
            raise FormatError(
                f"out-of-order sequence number {seq} (expected {len(raw) + 1})", lineno)
        op = tokens[1]
        if op not in REF_ARITY:
            raise FormatError(f"unknown opcode {op!r}", lineno)
        try:
            nums = [reference_integer(t) for t in tokens[2:]]
        except ValueError:
            raise FormatError("parameters must be integers", lineno) from None
        count, rest = nums[0], nums[1:]
        if len(rest) != count:
            raise FormatError(
                f"{op} declares {count} parameters but carries {len(rest)}", lineno)
        if REF_ARITY[op] is None:
            if count < 1:
                raise FormatError(f"{op} needs at least one segment", lineno)
            raw.append((op, tuple(nums)))
        else:
            if count != REF_ARITY[op]:
                raise FormatError(f"{op} takes {REF_ARITY[op]} parameters, got {count}",
                                  lineno)
            raw.append((op, tuple(rest)))
    return CommandSequence(n_segments, liz, raw)


CODEC_EXAMPLES = 400
CODEC_OUTCOMES: Counter = Counter()
FORMAT_ERRORS = ("expected '<seq>", "bad sequence number", "out-of-order",
                 "unknown opcode", "parameters must be integers", "declares",
                 "takes", "needs at least one segment", "repeated header",
                 "header after the first command", "bad header")
ODD_DIGITS = str.maketrans("0123456789", "０１２３４５６７８９")


def odd_integer(draw, token):
    """``token`` rewritten as something ``int`` may or may not accept."""
    kind = draw(st.sampled_from(("plus", "underscore", "wide", "minus", "zero",
                                 "letter", "long", "number")))
    if kind == "plus":
        return "+" + token
    if kind == "underscore":
        return token[:1] + "_" + (token[1:] or "0")
    if kind == "wide":
        return token.translate(ODD_DIGITS)
    if kind == "minus":
        return "-" + token
    if kind == "zero":
        return "0" + token
    if kind == "letter":
        return token + "x"
    if kind == "long":   # past the interpreter's digit limit for int()
        return token * 5000
    return str(draw(st.integers(-3, 40)))


@st.composite
def codec_texts(draw):
    """A serialized compile, with or without its header, then up to six line
    edits, and CRLF or LF ends."""
    lines = reference_serialize(CommandSequence(RUNNER_TRAP.n_segments, RUNNER_TRAP.liz,
                                                draw(runner_programs()))).splitlines()
    if draw(st.booleans()):
        del lines[0]
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split(" ")
        edit = draw(st.sampled_from(("space", "integer", "repeat", "retail", "truncate",
                                     "arity", "count", "opcode", "header", "comment",
                                     "indent", "delete")))
        if edit == "space":
            i = draw(st.integers(0, len(tokens) - 1))
            sep = draw(st.sampled_from(("\t", "  ", " \t", " ")))
            lines[k] = " ".join(tokens[:i]) + sep + " ".join(tokens[i:])
        elif edit == "integer":
            i = draw(st.sampled_from([i for i in range(len(tokens)) if i != 1] or [0]))
            tokens[i] = odd_integer(draw, tokens[i])
            lines[k] = " ".join(tokens)
        elif edit == "repeat":    # a line again, under a wrong sequence number
            lines.insert(k, lines[draw(st.integers(0, len(lines) - 1))])
        elif edit == "retail":    # another line's tail under this line's number
            other = lines[draw(st.integers(0, len(lines) - 1))].partition(" ")[2]
            lines[k] = tokens[0] + " " + other
        elif edit == "truncate":
            lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
        elif edit == "arity":
            lines[k] = " ".join(tokens[:-1] if draw(st.booleans()) else tokens + ["7"])
        elif edit == "count":   # an opcode and a count its parameters match
            op = draw(st.sampled_from(("SMU", "SMD", "AIC", "DG", "S")))
            c = draw(st.integers(0, 3))
            lines[k] = " ".join(tokens[:1] + [op, str(c)] + (tokens[3:] + ["1"] * 3)[:c])
        elif edit == "opcode" and len(tokens) > 1:
            tokens[1] = draw(st.sampled_from(("FROB", "smd", "S1", "DG", "SMU", "RC",
                                              "START", "")))
            lines[k] = " ".join(tokens)
        elif edit == "header":
            seg = draw(st.integers(8, 40))
            lines.insert(k, draw(st.sampled_from(("# segments={} liz={}",
                                                  "#segments={}\tliz={}",
                                                  "  # segments={}  liz={} tail")))
                         .format(seg, draw(st.integers(2, seg - 1))))
        elif edit == "comment":
            lines.insert(k, draw(st.sampled_from(("# note", "#", "", "   ", "\t#x"))))
        elif edit == "indent":
            lines[k] = draw(st.sampled_from((" ", "\t", "  "))) + lines[k]
        elif edit == "delete":
            del lines[k]
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end * draw(st.booleans())


def codec_outcome(parse, text):
    try:
        sequence = parse(text)
    except Exception as e:  # any outcome, a crash too, must match the reference
        return ("raised", type(e), str(e), getattr(e, "line", None)), None
    return ("parsed", sequence.n_segments, sequence.liz, sequence.raw), sequence


@settings(max_examples=CODEC_EXAMPLES)
@given(codec_texts())
def _codec_matches_reference(text):
    expected, _ = codec_outcome(reference_parse, text)
    got, sequence = codec_outcome(parse_sequence, text)
    assert got == expected, text
    if sequence is None:
        CODEC_OUTCOMES["rejected"] += 1
        CODEC_OUTCOMES[next((k for k in FORMAT_ERRORS if k in got[2]), got[2])] += 1
        return
    CODEC_OUTCOMES["parsed"] += 1
    CODEC_OUTCOMES["parsed with odd spacing"] += any(
        "\t" in ln or "  " in ln or ln.startswith(" ") for ln in text.splitlines())
    assert serialize(sequence) == reference_serialize(sequence)
    raw = sequence.raw
    assert len({id(c) for c in raw}) == len(set(raw))


def check_codec_property():
    CODEC_OUTCOMES.clear()
    _codec_matches_reference()
    # floors keep the comparison from holding only vacuously
    assert CODEC_OUTCOMES["parsed"] >= CODEC_EXAMPLES // 5, CODEC_OUTCOMES
    assert CODEC_OUTCOMES["rejected"] >= CODEC_EXAMPLES // 4, CODEC_OUTCOMES
    assert CODEC_OUTCOMES["parsed with odd spacing"] >= CODEC_EXAMPLES // 20, CODEC_OUTCOMES
    for kind in FORMAT_ERRORS:
        assert CODEC_OUTCOMES[kind] >= 3, (kind, CODEC_OUTCOMES)


def test_codec_matches_line_at_a_time_reference():
    check_codec_property()


@pytest.mark.parametrize("serialize_piece, parse_piece", [(1, 1), (2, 3), (3, 8)])
def test_codec_matches_reference_at_tiny_piece_sizes(monkeypatch, serialize_piece,
                                                     parse_piece):
    """With pieces of a few commands and a few characters, every CRLF,
    blank, comment, header and bad line sits at or next to a boundary."""
    monkeypatch.setattr(commands, "_SERIALIZE_PIECE", serialize_piece)
    monkeypatch.setattr(commands, "_PARSE_PIECE", parse_piece)
    check_codec_property()


PIECE_COMMANDS = [("START", ()), ("AIC", (1, 5)), ("AEC", (6,)), ("SMD", (1, 5)),
                  ("SMU", (2, 6, 9)), ("REC", (6,)), ("S", ()), ("RC", (19,)),
                  ("DG", (3,)), ("M", ())]


@pytest.mark.parametrize("piece", [None, 3])
def test_serialize_at_piece_boundaries(monkeypatch, piece):
    if piece is not None:
        monkeypatch.setattr(commands, "_SERIALIZE_PIECE", piece)
    n = commands._SERIALIZE_PIECE
    for length in (0, 1, n - 1, n, n + 1, 2 * n + 1):
        raw = [PIECE_COMMANDS[i % len(PIECE_COMMANDS)] for i in range(length)]
        sequence = CommandSequence(40, 21, raw)
        pieces = list(serialize_pieces(sequence))
        assert len(pieces) == 1 + -(-length // n), length
        assert all(p.endswith("\n") for p in pieces)
        assert serialize(sequence) == "".join(pieces) == reference_serialize(sequence)
        assert parse_sequence(serialize(sequence)).raw == raw


def test_parse_pieces_split_only_after_a_newline():
    circuit = gen_random_circuit(8, 100, 3)
    sequence = compile_ordering(circuit, increase_pairwise_order(circuit),
                                bench_config(8)).sequence
    text = serialize(sequence).replace("\n", "\r\n")
    pieces = list(commands._text_pieces(text))
    assert len(pieces) > 2 and "".join(pieces) == text
    for piece in pieces[:-1]:
        assert piece.endswith("\r\n") and len(piece) >= commands._PARSE_PIECE
    assert parse_sequence(text) == reference_parse(text)
    # an error past the first piece keeps its line number
    lines = text.splitlines(keepends=True)
    lines[-3] = lines[-3].split(" ")[0] + " FROB 0\r\n"
    with pytest.raises(FormatError, match="unknown opcode 'FROB'") as err:
        parse_sequence("".join(lines))
    assert err.value.line == len(lines) - 2


def traced_peak(f, arg):
    """The bytes ``f(arg)`` allocates at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        f(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codec_memory_stays_near_the_text_size():
    """The codec holds a bounded number of lines at a time: no list of one
    string per line (a test of memory, not of time)."""
    circuit = gen_random_circuit(12, 300, 5)
    sequence = compile_ordering(circuit, increase_pairwise_order(circuit),
                                bench_config(12)).sequence
    text = serialize(sequence)
    assert len(sequence) > 60_000 and len(text) > 900_000
    assert traced_peak(serialize, sequence) <= 3 * len(text)
    assert traced_peak(parse_sequence, text) <= 2 * len(text)


@pytest.mark.parametrize("circuit, layout", [
    (gen_random_circuit(12, 200, 5), lambda c: order_inputs_randomly(c, 5)),
    (gen_qft(16), order_as_is),
], ids=["random12_200_oir5", "qft16_oai"])
def test_trace_memory_stays_near_the_text_size(circuit, layout):
    """A whole-program trace writes each row as it is reached: no row list
    or per-row change dict (a test of memory, not of time)."""
    sequence = compile_ordering(circuit, layout(circuit),
                                bench_config(circuit.n_qubits)).sequence
    size = len(render_trace(sequence))
    assert size > 800_000
    assert traced_peak(render_trace, sequence) < 4 * size


# -- the trace against a per-row snapshot reference -----------------------------

def reference_trace(sequence):
    """The text grid and the SVG drawn from a full snapshot per row: after
    each state-changing command, every crystal and every well is read back
    and every cell written afresh."""
    cfg = sequence.config()
    state = TrapState(cfg)
    rows = []   # [first, last, occupants, wells, gates]
    gates = []

    def snapshot(seq, op, params):
        if op == "DG":
            gates.append(params[0])
        elif op in ("AIC", "SMU", "SMD", "RC", "M", "S"):
            occupants = {s: tuple(ions) for s, ions in state.seg_crystal.items()}
            rows.append([rows[-1][1] + 1 if rows else 1, seq, occupants,
                         set(state.wells), gates[:]])
            gates.clear()

    _execute(sequence, state, _reject, snapshot)
    if rows:
        rows[-1][1] = len(sequence.raw)
        rows[-1][4] += gates

    def char(ion):
        return "0123456789abcdefghijklmnopqrstuvwxyz"[ion] if 0 < ion < 36 else "+"

    labels = [f"{first}-{last}" if last > first else str(first)
              for first, last, *_ in rows]
    width = max(map(len, labels), default=1)
    lines = [f"# segments={cfg.n_segments} liz={cfg.liz}",
             " " * (width + 2 + 3 * (cfg.liz - 1)) + "vv"]
    for label, (_, _, occupants, wells, row_gates) in zip(labels, rows):
        cells = []
        for seg in range(1, cfg.n_segments + 1):
            ions = occupants.get(seg)
            if ions:
                cells.append(char(ions[0]) + (char(ions[1]) if len(ions) > 1 else "."))
            else:
                cells.append("--" if seg in wells else "..")
        note = "  DG " + ",".join(f"g{g}" for g in row_gates) if row_gates else ""
        lines.append(label.rjust(width) + "  " + " ".join(cells) + note)

    # the SVG: 16-pixel cells right of a 56-pixel label margin, under a
    # 28-pixel header; a box per well, a dot per ion (two stacked per crystal)
    height = 28 + max(len(rows), 1) * 16 + 8
    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{56 + 16 * cfg.n_segments + 8}" '
           f'height="{height}" font-family="monospace" font-size="10">',
           f'<rect x="{56 + 16 * (cfg.liz - 1)}" y="16" width="16" '
           f'height="{height - 24}" fill="#e8f4e8"/>',
           f'<text x="{56 + 16 * (cfg.liz - 0.5)}" y="12" text-anchor="middle">LIZ</text>',
           "</svg>"]
    for seg in range(1, cfg.n_segments + 1, max(1, cfg.n_segments // 8)):
        svg.append(f'<text x="{56 + 16 * (seg - 0.5)}" y="26" text-anchor="middle" '
                   f'fill="#888">{seg}</text>')
    for r, (label, (_, _, occupants, wells, row_gates)) in enumerate(zip(labels, rows)):
        y = 28 + 16 * (r + 0.5)
        svg.append(f'<text x="4" y="{y + 3}" fill="#444">'
                   f'{label + " DG" if row_gates else label}</text>')
        for seg in wells:
            svg.append(f'<rect x="{56 + 16 * (seg - 0.5) - 5}" y="{y - 5}" width="10" '
                       f'height="10" fill="none" stroke="#aaa"/>')
        for seg, ions in occupants.items():
            for ion, dy in zip(ions, (0.0,) if len(ions) == 1 else (-3.0, 3.0)):
                svg.append(f'<circle cx="{56 + 16 * (seg - 0.5)}" cy="{y + dy}" r="3.4" '
                           f'fill="hsl({ion * 47 % 360},70%,45%)"/>')
    return "\n".join(lines) + "\n", svg


TRACE_EXAMPLES = 400
TRACE_OUTCOMES: Counter = Counter()


@st.composite
def trace_programs(draw):
    """A runner program, then: parallel SMU/SMD of 2-3 segments after its
    placement, each drawn on the crystals there at its place (the end-most
    ones, which all move unless a well or the trap's end blocks them, or
    any), perhaps followed by its inverse; ion ids shifted to 35 and up
    (cells ``z`` and ``+``); trailing DGs and AEC/REC pairs."""
    n = RUNNER_TRAP.n_segments
    raw = draw(runner_programs())
    placed = max((i for i, (op, _) in enumerate(raw) if op == "AIC"), default=0) + 1
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(min(placed, len(raw)), len(raw)))  # after the placement
        occupied = replay(CommandSequence(n, RUNNER_TRAP.liz, raw[:k])
                          ).final_state.occupied_segments()
        count = draw(st.integers(2, 3))
        d = draw(st.sampled_from((-1, 1)))
        if draw(st.booleans()):
            segments = occupied[-count:] if d > 0 else occupied[:count]
        else:
            segments = draw(st.permutations(occupied))[:count]
        segments += draw(st.lists(st.integers(1, n), min_size=count - len(segments),
                                  max_size=count - len(segments)))
        forward = ("SMD" if d > 0 else "SMU", (count, *segments))
        back = ("SMU" if d > 0 else "SMD", (count, *(s + d for s in segments)))
        raw[k:k] = [forward, back][:draw(st.integers(1, 2))]
    if draw(st.booleans()):
        raw = [("AIC", (params[0] + 34, params[1])) if op == "AIC" else (op, params)
               for op, params in raw]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            raw.append(("DG", (draw(st.integers(0, 3)),)))
        else:
            seg = draw(st.integers(1, n))
            raw += [("AEC", (seg,)), ("REC", (seg,))]
    return raw


@settings(max_examples=TRACE_EXAMPLES)
@given(trace_programs())
def _trace_matches_reference(raw):
    sequence = CommandSequence(RUNNER_TRAP.n_segments, RUNNER_TRAP.liz, raw)
    try:
        reference_trace(sequence)
    except ReplayError as e:
        for render in (render_trace, render_traces):
            with pytest.raises(ReplayError) as err:
                render(sequence)
            assert err.value.seq == e.seq
        TRACE_OUTCOMES["rejected"] += 1
        # the commands before the rejected one ran: a program the trace draws
        sequence = CommandSequence(sequence.n_segments, sequence.liz, raw[:e.seq - 1])
    expected, expected_svg = reference_trace(sequence)
    assert render_trace(sequence) == expected
    # the SVG's elements, each one line, in any order
    assert sorted(render_trace_svg(sequence).splitlines()) == sorted(expected_svg)
    text, svg = render_traces(sequence)
    assert text == expected
    assert sorted(svg.splitlines()) == sorted(expected_svg)
    rows = expected.splitlines()[2:]
    TRACE_OUTCOMES["well visible"] += any(" --" in row for row in rows)
    TRACE_OUTCOMES["ion cell +"] += any(" +" in row for row in rows)
    TRACE_OUTCOMES["parallel move ran"] += any(
        op in ("SMU", "SMD") and params[0] > 1 for op, params in sequence.raw)


def test_trace_matches_per_row_snapshot_reference():
    TRACE_OUTCOMES.clear()
    _trace_matches_reference()
    # floors keep the comparison from holding only vacuously
    assert TRACE_OUTCOMES["parallel move ran"] >= 30, TRACE_OUTCOMES
    assert TRACE_OUTCOMES["well visible"] >= 30, TRACE_OUTCOMES
    assert TRACE_OUTCOMES["rejected"] >= 60, TRACE_OUTCOMES
    assert TRACE_OUTCOMES["ion cell +"] >= 10, TRACE_OUTCOMES


def build(*commands):
    """A program on the default trap from ``(op, params...)`` tuples."""
    return CommandSequence(raw=[(op, tuple(params)) for op, *params in commands])


@pytest.mark.parametrize("sequence", [
    # no row at all, in more than nine commands
    build(("START",), *[(op, 5) for _ in range(5) for op in ("AEC", "REC")]),
    # an earlier row (9-10) is wider than the last (12)
    build(("START",), ("AIC", 1, 10), *[("SMD", 1, s) for s in range(10, 16)],
          ("AEC", 30), ("SMD", 1, 16), ("SMD", 1, 17), ("SMD", 1, 18)),
    # a trailing well and gate extend the last row's range and gates, not
    # its cells
    build(("START",), ("AIC", 1, 19), ("AIC", 2, 19), ("DG", 0), ("AEC", 30),
          ("DG", 1)),
], ids=["no_row", "wide_inner_row", "trailing_well"])
def test_trace_shape_follows_the_opcodes(sequence):
    """The label width and the last row, known before the first row is
    drawn, are those of a trace drawn from a snapshot per row."""
    expected, expected_svg = reference_trace(sequence)
    assert render_trace(sequence) == expected
    text, svg = render_traces(sequence)
    assert text == expected
    assert sorted(svg.splitlines()) == sorted(expected_svg)
