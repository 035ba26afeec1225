"""Toolbox behavior and the dispatch contract: failures become observations."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import leap
from leap import tools
from leap.backend import HashingEmbedder, cosine
from leap.core import Action, Tool
from leap.errors import RetryExhaustedError, SchemaError, ToolConfigError, ToolError
from leap.prompts import load_templates
from leap.tools import (
    SIGNATURES,
    FixtureSearch,
    HttpSearch,
    Toolbox,
    split_text,
    word_count,
)

from conftest import FakeChat, StubEmbedder, refused_url, stub_http_server


def basic_toolbox(**kwargs):
    defaults = dict(
        search=FixtureSearch({"kangaroo family": "[1] Kangaroo — Macropodidae ..."}),
        embedder=HashingEmbedder(dim=64, seed=0),
        code_executor=["/bin/sh", "-c"],
    )
    defaults.update(kwargs)
    return Toolbox(**defaults)


class TestSignatures:
    def test_table_has_exactly_seven_tools(self):
        assert len(SIGNATURES) == 7
        names = {sig.name for sig in SIGNATURES.values()}
        assert names == {
            "web_search",
            "calculator",
            "code_interpreter",
            "word_count",
            "match",
            "split_text",
            "get_answer",
        }

    def test_kinds_split_verification_and_system(self):
        kinds = {sig.name: sig.kind for sig in SIGNATURES.values()}
        assert kinds["split_text"] == "system"
        assert kinds["get_answer"] == "system"
        assert all(
            kinds[name] == "verification"
            for name in ("web_search", "calculator", "code_interpreter", "word_count", "match")
        )

    def test_parameter_shapes(self):
        assert SIGNATURES[Tool.WORD_COUNT].params == (("length", "int"), ("text", "str"))
        assert SIGNATURES[Tool.WEB_SEARCH].params == (("query", "str"),)
        assert SIGNATURES[Tool.GET_ANSWER].min_args == 1
        assert SIGNATURES[Tool.GET_ANSWER].max_args == 2


class TestWordCount:
    @pytest.mark.parametrize(
        "length,text,expected",
        [
            (5, "one two three", (3, False)),
            (3, "one two three", (3, True)),  # at-least semantics on the boundary
            (1, "", (0, False)),
            (2, "  padded   words  ", (2, True)),
        ],
    )
    def test_cases(self, length, text, expected):
        assert word_count(length, text) == expected

    @given(st.integers(min_value=0, max_value=50), st.text(max_size=80))
    def test_count_independent_of_length(self, length, text):
        assert word_count(length, text)[0] == word_count(0, text)[0]


class TestSplitText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("A. B? C!", ["A.", "B?", "C!"]),
            ("Dr. No", ["Dr.", "No"]),  # deliberately naive about abbreviations
            ("", []),
            ("no terminator", ["no terminator"]),
            ("a.b is a domain. right?", ["a.b is a domain.", "right?"]),
            ("Stop! Now.", ["Stop!", "Now."]),
        ],
    )
    def test_cases(self, text, expected):
        assert split_text(text) == expected

    @given(st.text(max_size=100))
    def test_non_whitespace_characters_preserved(self, text):
        joined = "".join(split_text(text))
        assert "".join(joined.split()) == "".join(text.split())


class TestMatch:
    def test_identity_sentence_matches(self):
        toolbox = basic_toolbox()
        assert toolbox.match("kangaroos hop", "kangaroos hop") is True

    def test_orthogonal_vectors_do_not_match(self):
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
        toolbox = Toolbox(embedder=StubEmbedder(table, 2), match_threshold=0.5)
        assert toolbox.match("a", "b") is False

    def test_pinned_trigram_case_at_half_threshold(self):
        # cosine("kangaroos hop", "kangaroo hopping") under the seeded
        # trigram embedder is about 0.64, comfortably above 0.5.
        embedder = HashingEmbedder(dim=64, seed=0)
        similarity = cosine(embedder.embed("kangaroos hop"), embedder.embed("kangaroo hopping"))
        assert similarity == pytest.approx(0.6396, abs=1e-3)
        toolbox = basic_toolbox(match_threshold=0.5)
        assert toolbox.match("kangaroos hop", "kangaroo hopping") is True

    def test_llm_mode_parses_yes_no(self):
        templates = load_templates()
        toolbox = Toolbox(
            chat=FakeChat(["yes", "no"]),
            match_template=templates["match"],
            match_mode="llm",
        )
        assert toolbox.match("s", "c") is True
        assert toolbox.match("s", "c") is False

    def test_llm_mode_rejects_other_replies(self):
        templates = load_templates()
        toolbox = Toolbox(
            chat=FakeChat(["possibly"]),
            match_template=templates["match"],
            match_mode="llm",
        )
        result = toolbox.dispatch(Action(Tool.MATCH, ("s", "c")))
        assert result.success is False
        assert "TOOL_ERROR" in result.observation_text


class TestWebSearch:
    def test_fixture_lookup(self):
        toolbox = basic_toolbox()
        assert toolbox.web_search("kangaroo family") == "[1] Kangaroo — Macropodidae ..."

    def test_unmatched_fixture_becomes_observation(self):
        toolbox = basic_toolbox()
        result = toolbox.dispatch(Action(Tool.WEB_SEARCH, ("unknown",)))
        assert result.success is False
        assert result.observation_text == "SEARCH_ERROR: no fixture"

    def test_fixture_file_round_trip(self, tmp_path):
        path = tmp_path / "search.jsonl"
        path.write_text('{"query": "q1", "result": "r1"}\n\n{"query": "q2", "result": "r2"}\n')
        provider = FixtureSearch.from_file(path)
        assert (provider.search("q1", 3), provider.search("q2", 3)) == ("r1", "r2")

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"query": "q"}', r"missing field \(field: result\)"),
            ('{"query": "q", "result": "r", "k": 1}', r"unknown field \(field: k\)"),
            ('{"query": "q", "result": ["r"]}', r"expected a string \(field: result\)"),
            ('{"query": 1, "result": "r"}', r"expected a string \(field: query\)"),
            ('["q", "r"]', "expected an object"),
            ("{", "invalid JSON"),
        ],
    )
    def test_fixture_file_records_are_checked(self, tmp_path, line, message):
        path = tmp_path / "search.jsonl"
        path.write_text('{"query": "q0", "result": "r0"}\n' + line + "\n")
        with pytest.raises(SchemaError, match="line 2: " + message):
            FixtureSearch.from_file(path)

    def test_http_provider_formats_top_k(self):
        payload = {
            "results": [
                {"title": f"T{i}", "snippet": f"S{i}"} for i in range(5)
            ]
        }
        with stub_http_server([(200, payload)]) as (url, _):
            provider = HttpSearch(url=url + "/search")
            text = provider.search("anything", 3)
        assert text == "[1] T0 — S0\n[2] T1 — S1\n[3] T2 — S2"

    def test_http_provider_error_becomes_search_error(self):
        with stub_http_server([(500, {})]) as (url, _):
            toolbox = basic_toolbox(search=HttpSearch(url=url + "/search"))
            result = toolbox.dispatch(Action(Tool.WEB_SEARCH, ("q",)))
        assert result.success is False
        assert result.observation_text.startswith("SEARCH_ERROR:")

    def test_http_provider_refused_connection_becomes_search_error(self):
        toolbox = basic_toolbox(search=HttpSearch(url=refused_url() + "/search"))
        result = toolbox.dispatch(Action(Tool.WEB_SEARCH, ("q",)))
        assert result.success is False
        assert result.observation_text.startswith("SEARCH_ERROR:")

    @pytest.mark.parametrize(
        "payload",
        [
            {"results": {"title": "T"}},  # results not a list
            {"results": "T — S"},
            {"results": [1, 2]},  # items not objects
            {"results": [["T", "S"]]},
            {"results": [{"title": 1, "snippet": "S"}]},  # fields not strings
            {"results": [{"title": "T", "snippet": None}]},
        ],
    )
    def test_http_provider_rejects_malformed_responses(self, payload):
        with stub_http_server([(200, payload)]) as (url, _):
            toolbox = basic_toolbox(search=HttpSearch(url=url + "/search"))
            result = toolbox.dispatch(Action(Tool.WEB_SEARCH, ("q",)))
        assert result.success is False
        assert result.observation_text.startswith("SEARCH_ERROR: malformed response")


@pytest.mark.skipif(
    "LEAP_LIVE_SEARCH_URL" not in __import__("os").environ,
    reason="live search smoke test runs only with LEAP_LIVE_SEARCH_URL set",
)
def test_live_search_smoke():
    import os

    provider = HttpSearch(url=os.environ["LEAP_LIVE_SEARCH_URL"])
    assert provider.search("capital of France", 3)


class TestCodeInterpreter:
    def test_exit_zero_is_true(self):
        toolbox = basic_toolbox()
        assert toolbox.code_interpreter("exit 0") == (True, "true")

    def test_sandbox_slots_serialize_executions(self):
        import threading

        toolbox = basic_toolbox(code_parallelism=1)
        threads = [
            threading.Thread(target=toolbox.code_interpreter, args=("sleep 0.05",))
            for _ in range(3)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # one slot: the three sleeps cannot overlap
        assert time.perf_counter() - started >= 0.15

    def test_parallelism_must_be_positive(self):
        with pytest.raises(ToolConfigError):
            basic_toolbox(code_parallelism=0)

    def test_exit_nonzero_is_false(self):
        toolbox = basic_toolbox()
        assert toolbox.code_interpreter("exit 1") == (False, "false")

    def test_timeout_kills_within_the_window(self):
        toolbox = basic_toolbox(code_timeout_ms=100)
        started = time.perf_counter()
        result, observation = toolbox.code_interpreter("while :; do :; done")
        elapsed = time.perf_counter() - started
        assert result is False
        assert observation == "TIMEOUT"
        assert abs(elapsed - 0.1) <= 0.1

    def test_missing_executor_fails_at_construction(self):
        with pytest.raises(ToolConfigError, match="not found"):
            Toolbox(code_executor=["definitely-not-a-real-binary"])

    def test_unconfigured_executor_fails_only_when_called(self):
        toolbox = Toolbox()
        with pytest.raises(ToolError, match="code_interpreter is not configured"):
            toolbox.code_interpreter("exit 0")

    def test_child_sees_no_caller_environment(self, monkeypatch):
        monkeypatch.setenv("LEAP_API_KEY", "secret")
        toolbox = basic_toolbox()
        assert toolbox.code_interpreter('test -z "$LEAP_API_KEY"') == (True, "true")
        assert toolbox.code_interpreter('test "$LEAP_API_KEY" = secret') == (False, "false")

    def test_child_runs_in_a_fresh_directory_removed_afterwards(self, tmp_path):
        record = tmp_path / "cwd.txt"
        toolbox = basic_toolbox()
        assert toolbox.code_interpreter(f"pwd > '{record}' && touch left-behind") == (True, "true")
        child_cwd = record.read_text().strip()
        assert child_cwd != os.getcwd()
        assert not os.path.exists(child_cwd)

    def test_child_output_is_discarded(self):
        # Measured in a fresh process, whose peak RSS the test runner's own
        # history cannot mask: 32 MB on each stream must not reach this side.
        script = (
            "import resource\n"
            "from leap.tools import Toolbox\n"
            "toolbox = Toolbox(code_executor=['/bin/sh', '-c'], code_timeout_ms=60000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "ok = toolbox.code_interpreter("
            "'head -c 33554432 /dev/zero; head -c 33554432 /dev/zero >&2')\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(ok[0], after - before)\n"
        )
        src = os.path.dirname(os.path.dirname(leap.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        ok, grown_kb = done.stdout.split()
        assert ok == "True"
        assert int(grown_kb) < 8 * 1024  # ru_maxrss is in KiB on Linux

    def test_a_write_past_the_file_size_limit_fails(self, monkeypatch):
        monkeypatch.setattr(tools, "CODE_FILE_SIZE", 1 << 20, raising=False)
        toolbox = basic_toolbox()
        assert toolbox.code_interpreter("head -c 2097152 /dev/zero > big") == (False, "false")
        assert toolbox.code_interpreter("head -c 524288 /dev/zero > small") == (True, "true")

    def test_child_runs_under_cpu_and_address_space_limits(self):
        # The shell reports the address space in KiB; the CPU limit is the timeout in whole seconds.
        toolbox = basic_toolbox(code_timeout_ms=2500)
        limits = f'test "$(ulimit -t)" = 3 && test "$(ulimit -v)" = {tools.CODE_ADDRESS_SPACE // 1024}'
        assert toolbox.code_interpreter(limits) == (True, "true")

    def test_executor_path_is_resolved_once(self):
        assert Toolbox(code_executor=["sh", "-c"]).code_executor[0] == shutil.which("sh")


class TestDispatch:
    def test_calculator_success(self):
        result = basic_toolbox().dispatch(Action(Tool.CALCULATOR, ("2+2",)))
        assert (result.observation_text, result.success) == ("4", True)
        assert result.latency_ms >= 0.0

    def test_calculator_error_becomes_observation(self):
        result = basic_toolbox().dispatch(Action(Tool.CALCULATOR, ("1/0",)))
        assert result.success is False
        assert result.observation_text.startswith("TOOL_ERROR:")

    def test_arity_error_names_expectation(self):
        result = basic_toolbox().dispatch(Action(Tool.WEB_SEARCH, ()))
        assert result.success is False
        assert result.observation_text == "TOOL_ERROR: web_search expects 1 argument"

    def test_type_error_names_parameter(self):
        result = basic_toolbox().dispatch(Action(Tool.WORD_COUNT, ("five", "text")))
        assert result.success is False
        assert "argument 0 (length) must be an integer" in result.observation_text

    def test_word_count_observation(self):
        result = basic_toolbox().dispatch(Action(Tool.WORD_COUNT, (3, "one two three")))
        assert result.observation_text == "count=3, meets=true"

    def test_split_text_observation_is_json(self):
        result = basic_toolbox().dispatch(Action(Tool.SPLIT_TEXT, ("A. B?",)))
        assert result.observation_text == '["A.","B?"]'

    def test_get_answer_carries_verdict(self):
        result = basic_toolbox().dispatch(
            Action(Tool.GET_ANSWER, ("Hallucination", "evidence..."))
        )
        assert result.success is True
        assert result.observation_text == "Hallucination | evidence..."

    def test_get_answer_single_argument(self):
        result = basic_toolbox().dispatch(Action(Tool.GET_ANSWER, ("Not Hallucination",)))
        assert result.success is True
        assert result.observation_text == "NotHallucination"

    def test_get_answer_bad_label_is_observation(self):
        result = basic_toolbox().dispatch(Action(Tool.GET_ANSWER, ("dunno",)))
        assert result.success is False
        assert "TOOL_ERROR" in result.observation_text

    def test_get_answer_arity(self):
        result = basic_toolbox().dispatch(Action(Tool.GET_ANSWER, ()))
        assert result.observation_text == "TOOL_ERROR: get_answer expects 1 or 2 arguments"

    def test_dispatch_never_raises_for_tool_failures(self):
        toolbox = basic_toolbox()
        for action in (
            Action(Tool.CALCULATOR, ("((",)),
            Action(Tool.WEB_SEARCH, ("missing",)),
            Action(Tool.MATCH, ("", "")),
            Action(Tool.WORD_COUNT, (1,)),
        ):
            result = toolbox.dispatch(action)
            assert result.success is False
            assert result.observation_text

    @pytest.mark.parametrize(
        "action,observation",
        [
            (Action(Tool.CODE_INTERPRETER, ("exit 0\0",)), "TOOL_ERROR: embedded null byte"),
            (Action(Tool.CODE_INTERPRETER, ("#" * 200 * 1024,)), "TOOL_ERROR: [Errno 7]"),
        ],
    )
    def test_executor_failures_become_observations(self, action, observation):
        result = basic_toolbox().dispatch(action)
        assert result.success is False
        assert result.observation_text.startswith(observation)

    @pytest.mark.parametrize(
        "toolbox,action",
        [
            (Toolbox(), Action(Tool.WEB_SEARCH, ("q",))),
            (Toolbox(), Action(Tool.MATCH, ("s", "c"))),
            (Toolbox(match_mode="llm"), Action(Tool.MATCH, ("s", "c"))),
            (Toolbox(), Action(Tool.CODE_INTERPRETER, ("exit 0",))),
        ],
    )
    def test_unconfigured_tools_become_observations(self, toolbox, action):
        result = toolbox.dispatch(action)
        assert result.success is False
        assert result.observation_text.startswith(
            f"TOOL_ERROR: {action.tool.value} is not configured ("
        )

    def test_failing_match_judge_becomes_observation(self, templates):
        chat = RaisingChat(RetryExhaustedError("gave up after 4 attempts"))
        toolbox = Toolbox(chat=chat, match_template=templates["match"], match_mode="llm")
        result = toolbox.dispatch(Action(Tool.MATCH, ("s", "c")))
        assert (result.observation_text, result.success) == (
            "TOOL_ERROR: gave up after 4 attempts",
            False,
        )

    def test_interrupt_still_propagates(self, templates):
        chat = RaisingChat(KeyboardInterrupt())
        toolbox = Toolbox(chat=chat, match_template=templates["match"], match_mode="llm")
        with pytest.raises(KeyboardInterrupt):
            toolbox.dispatch(Action(Tool.MATCH, ("s", "c")))


class RaisingChat:
    """Chat provider whose every call raises the given exception."""

    def __init__(self, exc):
        self.exc = exc

    def complete(self, request):
        raise self.exc


# Configured with an executor that ignores its argument, and with nothing at all.
_PROPERTY_TOOLBOXES = (basic_toolbox(code_executor=["true"]), Toolbox())


@settings(max_examples=300, deadline=None)
@given(
    toolbox=st.sampled_from(_PROPERTY_TOOLBOXES),
    tool=st.sampled_from(list(Tool)),
    args=st.lists(st.one_of(st.text(), st.integers()), max_size=3),
)
def test_dispatch_never_raises(toolbox, tool, args):
    result = toolbox.dispatch(Action(tool, tuple(args)))
    assert isinstance(result.observation_text, str) and isinstance(result.success, bool)
