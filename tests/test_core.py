"""Domain types: state views, tool-call counting, linearization, serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from leap.agents import parse_react_sequence
from leap.core import (
    Action,
    AdvantageReport,
    Claim,
    Label,
    Step,
    Tool,
    Trajectory,
    Verdict,
    VerificationStrategy,
    count_tool_calls,
    linearize_steps,
    linearize_target,
    load_claims,
    load_trajectories,
    parse_verdict_label,
    read_lines,
    render_action,
    render_step,
    serialize,
    write_claims,
    write_trajectories,
)
from leap.errors import IncompleteTrajectoryError, SchemaError, StorageError

from conftest import SCANNER_TEXT, make_claim, make_strategy


def make_steps():
    return (
        Step("look it up", Action(Tool.WEB_SEARCH, ("kangaroo family",)), "[1] Kangaroo"),
        Step("compute", Action(Tool.CALCULATOR, ("2+2",)), "4"),
        Step("done", Action(Tool.GET_ANSWER, ("Hallucination",)), "Hallucination"),
    )


def make_trajectory(steps=None, verdict=Verdict(Label.HALLUCINATION), claim_id="claim-001"):
    steps = make_steps() if steps is None else steps
    return Trajectory.build(claim_id, make_strategy(), steps, verdict)


class TestCountToolCalls:
    def test_empty(self):
        assert count_tool_calls(make_trajectory(steps=(), verdict=None)) == 0

    def test_terminal_step_not_counted(self):
        assert count_tool_calls(make_trajectory()) == 2

    def test_terminal_only(self):
        steps = (Step("t", Action(Tool.GET_ANSWER, ("Hallucination",)), "Hallucination"),)
        assert count_tool_calls(make_trajectory(steps=steps)) == 0

    @given(
        st.lists(st.sampled_from(list(Tool)), max_size=8),
        st.lists(st.sampled_from(list(Tool)), max_size=8),
    )
    def test_additive_over_concatenation(self, tools_a, tools_b):
        def steps_of(tools):
            return tuple(Step("t", Action(t, ()), "o") for t in tools)

        t_a = make_trajectory(steps=steps_of(tools_a), verdict=None)
        t_b = make_trajectory(steps=steps_of(tools_b), verdict=None)
        t_ab = make_trajectory(steps=steps_of(tools_a) + steps_of(tools_b), verdict=None)
        assert count_tool_calls(t_ab) == count_tool_calls(t_a) + count_tool_calls(t_b)


# Thought texts whose lines never open with a reserved prefix; the round-trip
# guarantee is scoped to exactly these.
def plain_thoughts():
    line = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
        max_size=30,
    ).filter(lambda s: not s.startswith(("Thought:", "Action:")) and not s[:1].isspace())
    return st.lists(line, min_size=1, max_size=3).map("\n".join)


def arg_values():
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
    return st.one_of(text, st.integers(min_value=-(10**9), max_value=10**9))


def random_steps(terminal=True):
    tool = st.sampled_from([t for t in Tool if t is not Tool.GET_ANSWER])
    step = st.builds(
        lambda th, t, args: Step(th, Action(t, tuple(args))),
        plain_thoughts(),
        tool,
        st.lists(arg_values(), max_size=3),
    )
    body = st.lists(step, min_size=0, max_size=4)
    if not terminal:
        return body
    last = st.builds(
        lambda th: Step(th, Action(Tool.GET_ANSWER, ("Hallucination", "evidence"))),
        plain_thoughts(),
    )
    return st.tuples(body, last).map(lambda pair: [*pair[0], pair[1]])


class TestLinearize:
    def test_single_step_surface_form(self):
        steps = (Step("check family", Action(Tool.WEB_SEARCH, ("kangaroo family",))),)
        assert linearize_steps(steps) == 'Thought: check family\nAction: web_search("kangaroo family")\n'

    def test_requires_verdict(self):
        with pytest.raises(IncompleteTrajectoryError, match="no verdict"):
            linearize_target(make_trajectory(verdict=None))

    def test_zero_steps_with_verdict_is_invalid(self):
        trajectory = make_trajectory(steps=())
        with pytest.raises(IncompleteTrajectoryError, match="get_answer"):
            linearize_target(trajectory)

    def test_observations_not_included(self):
        text = linearize_target(make_trajectory())
        assert "Observation" not in text
        assert "[1] Kangaroo" not in text

    @settings(max_examples=100)
    @given(random_steps())
    def test_roundtrip_recovers_thoughts_and_actions(self, steps):
        trajectory = make_trajectory(steps=steps)
        pairs = parse_react_sequence(linearize_target(trajectory))
        assert pairs == [(s.thought, s.action) for s in steps]

    @settings(max_examples=500)
    @given(st.one_of(SCANNER_TEXT, st.text(max_size=40)), st.lists(arg_values(), max_size=2))
    def test_pattern_escapes_thoughts_as_the_line_loop(self, thought, args):
        step = Step(thought, Action(Tool.WEB_SEARCH, tuple(args)))
        assert render_step(step) == _loop_render_step(step)


_RESERVED_PREFIXES = ("Thought:", "Action:")


def _loop_escape_thought(thought: str) -> str:
    """The thought escaping as a loop over lines, the form it had before it used ``re``."""
    lines = thought.split("\n")
    out = [lines[0]]
    for cont in lines[1:]:
        if cont.startswith(_RESERVED_PREFIXES):
            cont = " " + cont
        out.append(cont)
    return "\n".join(out)


def _loop_render_step(step: Step) -> str:
    return f"Thought: {_loop_escape_thought(step.thought)}\nAction: {render_action(step.action)}\n"


class TestVerdictText:
    @pytest.mark.parametrize(
        "text,label",
        [
            ("Hallucination", Label.HALLUCINATION),
            ("  hallucination ", Label.HALLUCINATION),
            ("Not Hallucination", Label.NOT_HALLUCINATION),
            ("NOT  HALLUCINATION", Label.NOT_HALLUCINATION),
            ("NotHallucination", Label.NOT_HALLUCINATION),
        ],
    )
    def test_accepted_spellings(self, text, label):
        assert parse_verdict_label(text) is label

    @pytest.mark.parametrize("text", ["yes", "maybe", "", "not sure"])
    def test_everything_else_fails(self, text):
        with pytest.raises(SchemaError):
            parse_verdict_label(text)


class TestAdvantageReport:
    def test_recompute_enforced_at_construction(self):
        with pytest.raises(SchemaError, match="recompute"):
            AdvantageReport(
                r_terminal=1.0, gamma=0.9, v_next=0.5, v_curr=0.2, lam=0.1, n_tools=3,
                advantage=0.123,
            )

    def test_trajectory_checks_tool_count(self):
        report = AdvantageReport(
            r_terminal=1.0, gamma=1.0, v_next=0.0, v_curr=0.0, lam=0.0, n_tools=7,
            advantage=1.0,
        )
        with pytest.raises(SchemaError, match="n_tools"):
            make_trajectory(verdict=Verdict(Label.HALLUCINATION)).__class__.build(
                "claim-001", make_strategy(), make_steps(), Verdict(Label.HALLUCINATION), report
            )


class TestSerialization:
    def test_claim_roundtrip(self):
        claim = make_claim(7)
        assert Claim.from_dict(json.loads(serialize(claim))) == claim

    def test_claim_without_gold(self):
        claim = make_claim(7, gold=None)
        line = serialize(claim)
        assert "gold_label" not in line
        assert Claim.from_dict(json.loads(line)) == claim

    def test_missing_field_named(self):
        with pytest.raises(SchemaError, match="response"):
            Claim.from_dict(json.loads('{"id": "c", "query": "q"}'))

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="extra"):
            Claim.from_dict(json.loads('{"id": "c", "query": "q", "response": "r", "extra": 1}'))

    def test_nested_field_path_in_error(self):
        trajectory = make_trajectory()
        obj = json.loads(serialize(trajectory))
        obj["steps"][1]["action"]["tool"] = "nonsense"
        with pytest.raises(SchemaError, match=r"steps\[1\]\.action\.tool"):
            Trajectory.from_dict(obj)

    def test_trajectory_roundtrip_with_all_fields(self):
        report = AdvantageReport(
            r_terminal=1.0, gamma=0.9, v_next=0.5, v_curr=0.2, lam=0.1, n_tools=2,
            advantage=1.0 + 0.9 * 0.5 - 0.2 - 0.1 * 2,
        )
        trajectory = Trajectory.build(
            "claim-001",
            make_strategy(revision_of="abc123"),
            make_steps(),
            Verdict(Label.HALLUCINATION, evidence="because"),
            report,
        )
        assert Trajectory.from_dict(json.loads(serialize(trajectory))) == trajectory

    def test_canonical_form_is_byte_stable(self):
        a, b = make_trajectory(), make_trajectory()
        assert a == b
        assert serialize(a) == serialize(b)

    @settings(max_examples=50)
    @given(random_steps())
    def test_generated_trajectories_roundtrip(self, steps):
        trajectory = make_trajectory(steps=steps)
        again = Trajectory.from_dict(json.loads(serialize(trajectory)))
        assert again == trajectory
        assert serialize(again) == serialize(trajectory)

    def test_golden_file_rewrites_byte_identically(self, tmp_path):
        claims = [make_claim(i, gold=Label.HALLUCINATION if i % 2 else None) for i in range(1000)]
        path = tmp_path / "claims.jsonl"
        write_claims(path, claims)
        first = path.read_bytes()
        loaded = load_claims(path)
        assert loaded == claims
        write_claims(path, loaded)
        assert path.read_bytes() == first

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_text('{"id": "a", "query": "q", "response": "r"}\n{"id": "b"\n')
        with pytest.raises(SchemaError, match="line 2"):
            load_claims(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        claim = make_claim(1)
        write_claims(path, [claim, claim])
        with pytest.raises(SchemaError, match="duplicate"):
            load_claims(path)


# Separators that str.splitlines() breaks at but JSON strings may hold raw.
LINE_SEPARATORS = ["\u2028", "\u2029", "\u0085"]


class TestReadLines:
    @pytest.mark.parametrize("sep", LINE_SEPARATORS)
    def test_claim_and_trajectory_text_may_hold_line_separators(self, tmp_path, sep):
        claim = Claim(id=f"c{sep}1", query=f"is{sep}it?", response=f"yes{sep}no")
        write_claims(tmp_path / "claims.jsonl", [claim, make_claim(2)])
        assert load_claims(tmp_path / "claims.jsonl") == [claim, make_claim(2)]
        steps = (Step(f"look{sep}up", Action(Tool.GET_ANSWER, ("Hallucination",)), "H"),)
        trajectory = make_trajectory(steps=steps)
        write_trajectories(tmp_path / "t.jsonl", [trajectory, make_trajectory()])
        assert load_trajectories(tmp_path / "t.jsonl") == [trajectory, make_trajectory()]

    def test_crlf_lines_load(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_bytes(b"".join(serialize(make_claim(i)).encode() + b"\r\n" for i in range(3)))
        assert load_claims(path) == [make_claim(i) for i in range(3)]

    def test_blank_lines_are_skipped_and_numbers_kept(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a\n\n  \nb")
        assert list(read_lines(path)) == [(1, "a\n"), (4, "b")]

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "claims.jsonl"
        path.write_bytes(serialize(make_claim(1)).encode() + b'\n{"id": "\xff"}\n')
        with pytest.raises(SchemaError, match=r"^line 2: not UTF-8$"):
            load_claims(path)

    def test_missing_file_is_a_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="cannot read"):
            load_trajectories(tmp_path / "absent.jsonl")


class TestInvariants:
    def test_claim_requires_nonblank_text(self):
        with pytest.raises(SchemaError, match="query"):
            Claim(id="x", query="   ", response="r")
        with pytest.raises(SchemaError, match=r"^claim response must be non-empty \(field: response\)$"):
            Claim(id="x", query="q", response="\n\t")

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"v_next": float("nan")}, r"^v_next must be finite \(field: v_next\)$"),
            ({"lam": float("inf")}, r"^lam must be finite \(field: lam\)$"),
            ({"n_tools": -1}, r"^n_tools must be non-negative \(field: n_tools\)$"),
        ],
    )
    def test_advantage_report_terms_are_checked(self, change, message):
        terms = dict(r_terminal=1.0, gamma=0.9, v_next=0.5, v_curr=0.2, lam=0.1, n_tools=1)
        terms.update(change)
        with pytest.raises(SchemaError, match=message):
            AdvantageReport(**terms, advantage=1.0)

    def test_strategy_requires_plan(self):
        with pytest.raises(SchemaError, match="plan"):
            VerificationStrategy(problem_type="t", high_level_strategy="s", plan=())

    def test_action_rejects_bool_and_float_args(self):
        with pytest.raises(SchemaError):
            Action(Tool.WORD_COUNT, (True, "text"))
        with pytest.raises(SchemaError):
            Action(Tool.CALCULATOR, (1.5,))

    def test_content_addressed_ids_dedupe(self):
        assert make_trajectory().id == make_trajectory().id
        other = make_trajectory(claim_id="claim-002")
        assert other.id != make_trajectory().id
