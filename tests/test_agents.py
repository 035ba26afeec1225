"""Agent output grammars, reprompt policy, and advantage arithmetic."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from leap.agents import (
    Actor,
    Critic,
    Decoding,
    Planner,
    PreemptiveScore,
    Reflector,
    _parse_args,
    advantage,
    parse_react,
    parse_react_sequence,
    parse_reflection_text,
    parse_strategy_text,
)
from leap.backend import HashingEmbedder
from leap.core import (
    Action,
    Label,
    Step,
    Tool,
    Trajectory,
    Verdict,
    VerificationStrategy,
    advantage_value,
    linearize_steps,
    render_action,
    strategy_id,
)
from leap.errors import AgentFormatError, ReactParseError, SchemaError
from leap.memory import ValueSample
from leap.prompts import format_claim_block, format_history, format_state, format_strategy

from conftest import FakeChat, make_claim, make_strategy, reflection_reply, strategy_reply

LEARN = Decoding(temperature=1.0, top_p=1.0)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


class TestParseReact:
    def test_basic_turn(self):
        thought, action = parse_react('Thought: t\nAction: get_answer("Not Hallucination")')
        assert thought == "t"
        assert action == Action(Tool.GET_ANSWER, ("Not Hallucination",))

    def test_missing_thought(self):
        with pytest.raises(ReactParseError, match="missing Thought"):
            parse_react('Action: calculator("2+2")')

    def test_missing_action(self):
        with pytest.raises(ReactParseError, match="missing Action"):
            parse_react("Thought: only thinking")

    def test_two_action_lines(self):
        text = 'Thought: t\nAction: calculator("1")\nAction: calculator("2")'
        with pytest.raises(ReactParseError, match="multiple Action"):
            parse_react(text)

    def test_unknown_tool(self):
        with pytest.raises(ReactParseError, match="unknown tool"):
            parse_react('Thought: t\nAction: telepathy("q")')

    def test_trailing_text_after_action_ignored(self):
        thought, action = parse_react(
            'Thought: t\nAction: split_text("a. b")\nI hope that helps!'
        )
        assert action.tool is Tool.SPLIT_TEXT

    def test_preamble_before_thought_ignored(self):
        thought, action = parse_react(
            'Sure, here is my step.\nThought: t\nAction: calculator("1")'
        )
        assert thought == "t"

    def test_multiline_thought(self):
        thought, _ = parse_react('Thought: first\nsecond line\nAction: calculator("1")')
        assert thought == "first\nsecond line"

    def test_integer_and_string_args(self):
        _, action = parse_react('Thought: t\nAction: word_count(5, "one two")')
        assert action == Action(Tool.WORD_COUNT, (5, "one two"))

    def test_empty_args(self):
        _, action = parse_react("Thought: t\nAction: split_text()")
        assert action.args == ()

    def test_escaped_quotes_and_backslashes(self):
        _, action = parse_react('Thought: t\nAction: web_search("say \\"hi\\" \\\\ bye")')
        assert action.args == ('say "hi" \\ bye',)

    def test_string_containing_parens_and_commas(self):
        _, action = parse_react('Thought: t\nAction: web_search("f(x), g(y)")')
        assert action.args == ("f(x), g(y)",)

    @pytest.mark.parametrize(
        "args_text",
        ["bare", "1.5", '"unterminated', '"a" "b"', '"a",', ',"a"'],
    )
    def test_malformed_args(self, args_text):
        with pytest.raises(ReactParseError):
            parse_react(f"Thought: t\nAction: web_search({args_text})")

    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    def test_rendered_string_args_always_parse_back(self, value):
        action = Action(Tool.WEB_SEARCH, (value,))
        _, parsed = parse_react(f"Thought: t\nAction: {render_action(action)}")
        assert parsed == action

    def test_sequence_parses_multiple_turns(self):
        text = (
            'Thought: a\nAction: calculator("1")\n'
            'Thought: b\nAction: get_answer("Hallucination")\n'
        )
        pairs = parse_react_sequence(text)
        assert [p[0] for p in pairs] == ["a", "b"]

    def test_sequence_rejects_action_before_any_thought(self):
        with pytest.raises(ReactParseError, match="missing Thought"):
            parse_react_sequence('Action: calculator("1")\nThought: t\nAction: calculator("2")')


_STRATEGY = "TYPE: t\nSTRATEGY: s\nPLAN:\n1. go"


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_react, 'Thought: t\nAction: calculator "2+2"', "malformed Action line: 'Action: calculator \"2+2\"'"),
        (parse_react_sequence, "no turns here\n", "missing Thought line"),
        (parse_strategy_text, "TYPE:  \nSTRATEGY: s\nPLAN:\n1. go", "TYPE section is empty"),
        (
            parse_reflection_text,
            f"DIAGNOSIS:\nPRINCIPLES:\n1. p\nREVISED_STRATEGY:\n{_STRATEGY}",
            "DIAGNOSIS section is empty",
        ),
        (
            parse_reflection_text,
            f"DIAGNOSIS: d\nPRINCIPLES:\nbe careful\nREVISED_STRATEGY:\n{_STRATEGY}",
            "PRINCIPLES section has no numbered items",
        ),
    ],
)
def test_grammar_rejections_name_the_fault(parse, text, message):
    with pytest.raises(ReactParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


# The hand-written argument scanner that the token pattern replaced, verbatim:
# the oracle for the differential property below.
_INT_RE = re.compile(r"-?\d+")


def _hand_parse_args(text: str) -> tuple[str | int, ...]:
    args: list[str | int] = []
    i, n = 0, len(text)
    while i < n and text[i].isspace():
        i += 1
    if i == n:
        return ()
    while True:
        if i < n and text[i] == '"':
            end = _closing_quote(text, i)
            if end is None:
                raise ReactParseError("unterminated string argument")
            token = text[i : end + 1]
            try:
                args.append(json.loads(token))
            except json.JSONDecodeError as exc:
                raise ReactParseError(f"malformed string argument {token!r}") from exc
            i = end + 1
        else:
            match = _INT_RE.match(text, i)
            if match is None:
                raise ReactParseError(f"malformed argument near {text[i:i + 20]!r}")
            i = match.end()
            if i < n and text[i] == ".":
                raise ReactParseError("arguments must be quoted strings or bare integers")
            args.append(int(match.group(0)))
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            return tuple(args)
        if text[i] != ",":
            raise ReactParseError(f"expected ',' between arguments, found {text[i]!r}")
        i += 1
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            raise ReactParseError("trailing comma in arguments")


def _closing_quote(text: str, start: int) -> int | None:
    i = start + 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            return i
        i += 1
    return None


def _outcome(parse, text):
    """The typed values parsed, or the error message."""
    try:
        return [(type(v), v) for v in parse(text)]
    except ReactParseError as exc:
        return str(exc)


# Argument text built mostly from the grammar's own characters, so that the
# strings, escapes, integers, points and separators it draws meet often.
_ARGS_TEXT = st.one_of(
    st.text(st.sampled_from('"\\,.-0123456789٣ \t\u00a0\nabnu/'), max_size=24),
    st.lists(
        st.one_of(
            st.text(max_size=6).map(json.dumps),
            st.integers(-(10**6), 10**6).map(str),
            st.sampled_from([",", " , ", ".", '"', "\\", "\\\n", "\\u12", "x", ""]),
        ),
        max_size=6,
    ).map("".join),
    st.text(max_size=24),
)


class TestArgumentScanner:
    @settings(max_examples=500)
    @given(_ARGS_TEXT)
    def test_token_pattern_matches_the_hand_scanner(self, text):
        assert _outcome(_parse_args, text) == _outcome(_hand_parse_args, text)

    @pytest.mark.parametrize(
        "text,outcome",
        [
            ("", ()),
            (" \t", ()),
            ('"a", 7 ,-3', ("a", 7, -3)),
            ('"\\u00e9\\"q\\""', ('é"q"',)),
            ("١٢", (12,)),  # decimal digits of any script, as int() reads them
            ("1,", "trailing comma in arguments"),
            ('"a\\"', "unterminated string argument"),
            ('"a\\\nb"', "malformed string argument '\"a\\\\\\nb\"'"),  # an escaped newline
            ('"a\\q"', "malformed string argument '\"a\\\\q\"'"),
            ("--1", "malformed argument near '--1'"),
            ("12.5", "arguments must be quoted strings or bare integers"),
            ('"a" "b"', "expected ',' between arguments, found '\"'"),
        ],
    )
    def test_values_and_messages(self, text, outcome):
        if isinstance(outcome, tuple):
            assert _parse_args(text) == outcome
        else:
            with pytest.raises(ReactParseError) as excinfo:
                _parse_args(text)
            assert str(excinfo.value) == outcome


# One line of text, without edge whitespace: the field shape the grammar keeps.
_LINE = (
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1)
    .map(str.strip)
    .filter(bool)
)


class TestStrategyGrammar:
    def test_spec_example(self):
        reply = "TYPE: factual\nSTRATEGY: verify family\nPLAN:\n1. search species\n2. check family"
        strategy = parse_strategy_text(reply)
        assert strategy.problem_type == "factual"
        assert strategy.high_level_strategy == "verify family"
        assert strategy.plan == ("search species", "check family")

    def test_missing_plan_section(self):
        with pytest.raises(ReactParseError, match="PLAN"):
            parse_strategy_text("TYPE: t\nSTRATEGY: s")

    def test_plan_needs_numbered_steps(self):
        with pytest.raises(ReactParseError, match="numbered"):
            parse_strategy_text("TYPE: t\nSTRATEGY: s\nPLAN:\njust prose")

    def test_multiline_strategy_section(self):
        reply = "TYPE: t\nSTRATEGY: first line\nsecond line\nPLAN:\n1. go"
        assert parse_strategy_text(reply).high_level_strategy == "first line\nsecond line"

    @given(_LINE, _LINE, st.lists(_LINE, min_size=1, max_size=4))
    def test_rendered_strategy_parses_back(self, problem_type, approach, plan):
        # The test fakes render their replies with format_strategy, so they
        # cannot drift from the parser.
        strategy = VerificationStrategy(problem_type, approach, tuple(plan))
        assert parse_strategy_text(format_strategy(strategy)) == strategy


class TestPlanner:
    def test_parses_structured_reply(self):
        chat = FakeChat([strategy_reply(plan=("search species", "check family"))])
        planner = Planner(chat, _template("planner"))
        strategy = planner.plan(make_claim(1), [], LEARN)
        assert len(strategy.plan) == 2
        assert strategy.revision_of is None
        assert len(chat.requests) == 1

    def test_cold_start_renders_no_prior_reflections(self):
        chat = FakeChat([strategy_reply()])
        Planner(chat, _template("planner")).plan(make_claim(1), [], LEARN)
        assert "No prior reflections." in chat.prompts[0]

    def test_reprompt_then_success(self):
        chat = FakeChat(["not a strategy", strategy_reply()])
        strategy = Planner(chat, _template("planner")).plan(make_claim(1), [], LEARN)
        assert strategy.plan
        assert len(chat.requests) == 2
        # the reprompt carries the bad reply and a reminder
        retry = chat.requests[1]
        assert retry.messages[-2].content == "not a strategy"
        assert "format" in retry.messages[-1].content

    def test_second_failure_is_planner_error(self):
        chat = FakeChat(["junk", "more junk"])
        with pytest.raises(AgentFormatError, match="planner"):
            Planner(chat, _template("planner")).plan(make_claim(1), [], LEARN)
        assert len(chat.requests) == 2

    def test_revision_linkage(self):
        chat = FakeChat([strategy_reply()])
        strategy = Planner(chat, _template("planner")).plan(
            make_claim(1), [], LEARN, revision_of="abc"
        )
        assert strategy.revision_of == "abc"

    def test_call_ledger_shows_one_completion_per_attempt(self):
        from leap.backend import ScriptedProvider, ScriptEntry

        provider = ScriptedProvider([ScriptEntry(reply=strategy_reply())])
        Planner(provider, _template("planner")).plan(make_claim(1), [], LEARN)
        assert len(provider.calls) == 1

        provider = ScriptedProvider(
            [ScriptEntry(reply="garbled"), ScriptEntry(reply=strategy_reply())]
        )
        Planner(provider, _template("planner")).plan(make_claim(1), [], LEARN)
        assert len(provider.calls) == 2  # one reprompt, never more


class TestActor:
    def act(self, chat, steps=(), max_steps=10):
        return Actor(chat, _template("actor")).act(
            make_claim(1), steps, make_strategy(), [], [], max_steps, LEARN
        )

    def test_parses_single_turn(self):
        chat = FakeChat(['Thought: need the family\nAction: web_search("kangaroo family")'])
        thought, action = self.act(chat)
        assert thought == "need the family"
        assert action == Action(Tool.WEB_SEARCH, ("kangaroo family",))

    def test_two_actions_reprompts_then_fails(self):
        bad = 'Thought: t\nAction: calculator("1")\nAction: calculator("2")'
        chat = FakeChat([bad, bad])
        with pytest.raises(AgentFormatError, match="actor"):
            self.act(chat)
        assert len(chat.requests) == 2

    def test_final_step_is_forced_terminal_without_model_call(self):
        chat = FakeChat([])
        steps = tuple(
            Step("t", Action(Tool.WEB_SEARCH, ("q",)), "o") for _ in range(9)
        )
        thought, action = self.act(chat, steps=steps, max_steps=10)
        assert action.tool is Tool.GET_ANSWER
        assert action.args == ("Hallucination", "MAX_STEPS")
        assert chat.requests == []

    def test_exceeding_cap_is_a_precondition_error(self):
        steps = tuple(Step("t", Action(Tool.WEB_SEARCH, ("q",)), "o") for _ in range(10))
        with pytest.raises(ValueError, match="max_steps"):
            self.act(FakeChat([]), steps=steps, max_steps=10)

    def test_history_renders_each_step_as_the_sft_target_does(self):
        steps = [
            Step("first\nThought: not a new turn\nAction: nor this", Action(Tool.WEB_SEARCH, ("q",)), "o"),
            Step("last", Action(Tool.GET_ANSWER, ("Hallucination",))),
        ]
        history = format_history(steps)
        assert history == (
            'Thought: first\n Thought: not a new turn\n Action: nor this\nAction: web_search("q")\n'
            "Observation: o\n"
            'Thought: last\nAction: get_answer("Hallucination")\nObservation: (pending)'
        )
        assert history.replace("Observation: o\n", "").removesuffix("Observation: (pending)") == (
            linearize_steps(steps)
        )


class TestCritic:
    def estimate(self, replies, samples=()):
        chat = FakeChat(replies)
        critic = Critic(chat, _template("critic"))
        state_text = format_state(make_claim(1), ())
        return critic.estimate_value(state_text, list(samples), LEARN), chat

    def test_parses_number(self):
        estimate, chat = self.estimate(["0.7"])
        assert estimate == 0.7
        assert len(chat.requests) == 1

    def test_clamps_into_unit_interval(self):
        assert self.estimate(["1.5"])[0] == 1.0
        assert self.estimate(["-7"])[0] == -1.0

    def test_non_numeric_reprompts_then_fails(self):
        with pytest.raises(AgentFormatError, match="critic"):
            self.estimate(["high", "still high"])

    def test_nan_is_rejected(self):
        with pytest.raises(AgentFormatError):
            self.estimate(["nan", "inf"])

    def test_examples_rendered_for_in_context_fitting(self):
        sample = ValueSample(
            id="v1",
            state_summary="some earlier state",
            value=0.25,
            embedding=HashingEmbedder(4).embed("x"),
        )
        _, chat = self.estimate(["0.1"], samples=[sample])
        assert "some earlier state" in chat.prompts[0]

    def test_preemptive_score_includes_strategy(self):
        chat = FakeChat(["0.3"])
        critic = Critic(chat, _template("critic"))
        strategy = make_strategy()
        score = critic.preemptive_score(make_claim(1), strategy, [], 0.0, LEARN)
        assert score.approved is True
        assert score.strategy_ref == strategy_id(strategy)
        assert "Proposed strategy" in chat.prompts[0]


class TestApproval:
    def test_above_threshold(self):
        assert PreemptiveScore.of("s", 0.3, 0.0).approved is True

    def test_below_threshold(self):
        assert PreemptiveScore.of("s", -0.1, 0.0).approved is False

    def test_exact_equality_is_approved(self):
        # the comparison is >=, so a score equal to the threshold passes
        assert PreemptiveScore.of("s", 0.0, 0.0).approved is True
        assert PreemptiveScore.of("s", -0.25, -0.25).approved is True

    def test_stored_flag_must_match(self):
        with pytest.raises(SchemaError):
            PreemptiveScore(strategy_ref="s", score=0.5, threshold=0.0, approved=False)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def test_boundary_property(self, score, threshold):
        assert PreemptiveScore.of("s", score, threshold).approved == (score >= threshold)


class TestAdvantage:
    def trajectory(self, n_tools):
        steps = [Step("t", Action(Tool.WEB_SEARCH, ("q",)), "o") for _ in range(n_tools)]
        steps.append(Step("t", Action(Tool.GET_ANSWER, ("Hallucination",)), "Hallucination"))
        return Trajectory.build("c", make_strategy(), steps, Verdict(Label.HALLUCINATION))

    def test_direct_substitution(self):
        report = advantage(
            self.trajectory(3), r_terminal=1.0, gamma=0.9, lam=0.1, v_curr=0.2, v_next=0.5
        )
        assert report.advantage == pytest.approx(0.95, abs=1e-12)
        assert report.n_tools == 3

    def test_zero_case(self):
        report = advantage(
            self.trajectory(4), r_terminal=0.0, gamma=0.7, lam=0.0, v_curr=0.0, v_next=0.0
        )
        assert report.advantage == 0.0

    def test_lambda_sweep_constant_decrement(self):
        lam = 0.125  # binary-exact so the decrement is bitwise constant
        values = [
            advantage(self.trajectory(n), 0.0, 1.0, lam, 0.0, 0.0).advantage for n in range(6)
        ]
        diffs = {values[i] - values[i + 1] for i in range(5)}
        assert diffs == {lam}

    def test_lambda_sweep_decimal_within_tolerance(self):
        lam = 0.1
        values = [
            advantage(self.trajectory(n), 0.5, 0.9, lam, 0.1, 0.2).advantage for n in range(6)
        ]
        for i in range(5):
            assert values[i] - values[i + 1] == pytest.approx(lam, abs=1e-12)

    def test_report_recomputes_bitwise(self):
        report = advantage(self.trajectory(2), 1.0, 0.5, 0.3, -0.4, 0.9)
        assert report.recompute() == report.advantage
        assert report.advantage == advantage_value(1.0, 0.5, 0.9, -0.4, 0.3, 2)


class TestReflector:
    def reflector(self, replies):
        return Reflector(FakeChat(replies), _template("reflector"))

    def claim_emb(self):
        return HashingEmbedder(16, seed=0).embed(format_claim_block(make_claim(1)))

    def failed_trajectory(self):
        steps = (
            Step("t", Action(Tool.WEB_SEARCH, ("q",)), "SEARCH_ERROR: no fixture"),
            Step("t", Action(Tool.GET_ANSWER, ("Hallucination",)), "Hallucination"),
        )
        return Trajectory.build("c", make_strategy(), steps, Verdict(Label.HALLUCINATION))

    def test_parses_structured_reflection(self):
        record = self.reflector([reflection_reply()]).reflect_failure(
            make_claim(1), self.claim_emb(), self.failed_trajectory(), LEARN
        )
        assert record.embedding == self.claim_emb()
        assert len(record.principles) == 2
        assert record.revised_strategy.plan
        assert record.key_text == format_claim_block(make_claim(1))

    def test_missing_revised_strategy_fails_after_reprompt(self):
        bad = "DIAGNOSIS: d\nPRINCIPLES:\n1. p"
        with pytest.raises(AgentFormatError, match="reflector"):
            self.reflector([bad, bad]).reflect_failure(
                make_claim(1), self.claim_emb(), self.failed_trajectory(), LEARN
            )

    def test_correction_mode_names_the_score(self):
        reflector = self.reflector([reflection_reply()])
        score = PreemptiveScore.of("ref", -0.2, 0.0)
        reflector.reflect_strategy(make_claim(1), self.claim_emb(), make_strategy(), score, LEARN)
        prompt = reflector.chat.prompts[0]
        assert "rejected before execution" in prompt
        assert "-0.2" in prompt


def _template(name):
    from leap.prompts import load_templates

    return load_templates()[name]
