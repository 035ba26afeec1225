"""The verification toolbox and the action dispatcher.

Seven tools: web_search, calculator, code_interpreter, word_count, and match
for verification; split_text and get_answer for system operations. Dispatch
converts an Action into a ToolResult and never lets a tool failure escape the
trajectory loop: any exception a tool raises becomes an observation the actor
can reason about, and so does a call to a tool the toolbox was built without,
so every action yields an observation. Only an unusable configuration raises,
when the toolbox is built.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from . import calculator as _calculator
from .backend import ChatMessage, ChatRequest, cosine
from .core import (
    Action,
    Tool,
    _check_keys,
    _loads_line,
    answer_verdict,
    canonical_json,
    read_lines,
    wire_value,
)
from .errors import ToolConfigError, ToolError

__all__ = [
    "ToolSignature",
    "ToolResult",
    "SIGNATURES",
    "word_count",
    "split_text",
    "SearchProvider",
    "FixtureSearch",
    "HttpSearch",
    "Toolbox",
]


@dataclass(frozen=True)
class ToolSignature:
    """Declared shape of one tool: parameter names and types."""

    name: str
    params: tuple[tuple[str, str], ...]
    kind: str  # "verification" | "system"
    min_args: int
    max_args: int


def _sig(name: str, params: list[tuple[str, str]], kind: str, min_args: int | None = None) -> ToolSignature:
    return ToolSignature(
        name=name,
        params=tuple(params),
        kind=kind,
        min_args=len(params) if min_args is None else min_args,
        max_args=len(params),
    )


SIGNATURES: dict[Tool, ToolSignature] = {
    Tool.WEB_SEARCH: _sig("web_search", [("query", "str")], "verification"),
    Tool.CALCULATOR: _sig("calculator", [("formula", "str")], "verification"),
    Tool.CODE_INTERPRETER: _sig("code_interpreter", [("code", "str")], "verification"),
    Tool.WORD_COUNT: _sig("word_count", [("length", "int"), ("text", "str")], "verification"),
    Tool.MATCH: _sig("match", [("sentence", "str"), ("context", "str")], "verification"),
    Tool.SPLIT_TEXT: _sig("split_text", [("text", "str")], "system"),
    # The table's bare get_answer() must still carry a verdict somewhere; the
    # verdict and optional evidence travel as action arguments here.
    Tool.GET_ANSWER: _sig("get_answer", [("verdict", "str"), ("evidence", "str")], "system", min_args=1),
}


@dataclass(frozen=True)
class ToolResult:
    """Outcome of one dispatched action."""

    observation_text: str
    success: bool
    latency_ms: float = 0.0


def word_count(length: int, text: str) -> tuple[int, bool]:
    """Count whitespace-separated words and check an at-least length requirement."""
    count = len(text.split())
    return count, count >= length


_SENTENCE_ENDS = ".!?"


def split_text(text: str) -> list[str]:
    """Split text into sentences on '.', '!', '?' followed by whitespace or end.

    Delimiters stay on their sentence; segments are trimmed and empty ones
    dropped. Deliberately naive about abbreviations ("Dr. No" splits).
    """
    sentences: list[str] = []
    start = 0
    for i, ch in enumerate(text):
        if ch in _SENTENCE_ENDS and (i + 1 == len(text) or text[i + 1].isspace()):
            segment = text[start : i + 1].strip()
            if segment:
                sentences.append(segment)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


class SearchProvider(Protocol):
    def search(self, query: str, k: int) -> str: ...


class FixtureSearch:
    """Search provider answering from a fixed query-to-result map."""

    def __init__(self, fixtures: dict[str, str]):
        self._fixtures = dict(fixtures)

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureSearch":
        fixtures = {}
        for i, line in read_lines(path):
            obj = _loads_line(line, i)
            _check_keys(obj, {"query", "result"}, set(), "", i)
            query = wire_value(str, obj["query"], "query", i)
            fixtures[query] = wire_value(str, obj["result"], "result", i)
        return cls(fixtures)

    def search(self, query: str, k: int) -> str:
        if query not in self._fixtures:
            raise ToolError("SEARCH_ERROR: no fixture")
        return self._fixtures[query]


@dataclass
class HttpSearch:
    """Generic JSON search endpoint: GET url?{query_param}=... and read fields.

    `requests` is imported when an instance is built (with an injected
    session, at its first request), so offline and scripted runs never load
    an HTTP client.
    """

    url: str
    query_param: str = "q"
    results_field: str = "results"
    title_field: str = "title"
    snippet_field: str = "snippet"
    timeout_s: float = 15.0
    session: Any = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.session is None:
            import requests

            self.session = requests.Session()

    def search(self, query: str, k: int) -> str:
        import requests

        try:
            response = self.session.get(
                self.url, params={self.query_param: query}, timeout=self.timeout_s
            )
        except requests.RequestException as exc:
            raise ToolError(f"SEARCH_ERROR: {exc}") from exc
        if response.status_code != 200:
            raise ToolError(f"SEARCH_ERROR: status {response.status_code}")
        fields = (self.title_field, self.snippet_field)
        try:
            results = response.json()[self.results_field]
            items = [[item.get(f, "") for f in fields] for item in results[:k]]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ToolError(f"SEARCH_ERROR: malformed response ({exc!r})") from exc
        if not isinstance(results, list) or not all(isinstance(t, str) for it in items for t in it):
            raise ToolError("SEARCH_ERROR: malformed response")
        lines = [f"[{i}] {' — '.join(item)}" for i, item in enumerate(items, start=1)]
        if not lines:
            raise ToolError("SEARCH_ERROR: no results")
        return "\n".join(lines)


def _format_real(value: float) -> str:
    if value.is_integer():
        return str(int(value))
    return repr(value)


# Limits on a code_interpreter child, set by a wrapper that then execs the
# executor (``preexec_fn`` is unsafe in a threaded process). Its CPU limit is
# code_timeout_ms rounded up to whole seconds; a lower limit already in force stays.
CODE_ADDRESS_SPACE = 1 << 30  # bytes of virtual memory
CODE_FILE_SIZE = 16 << 20  # bytes in any one file it writes

_LIMITED_EXEC = """\
import os, resource, sys
for name, value in zip(("RLIMIT_CPU", "RLIMIT_AS", "RLIMIT_FSIZE"), map(int, sys.argv[1:4])):
    kind = getattr(resource, name)
    value = min([value, *(n for n in resource.getrlimit(kind) if n != resource.RLIM_INFINITY)])
    resource.setrlimit(kind, (value, value))
os.execvp(sys.argv[4], sys.argv[4:])
"""


class Toolbox:
    """Bound tool implementations plus the action dispatcher.

    Stateless per call and safe for concurrent use; code execution is
    serialized by the external executor itself (one slot).
    """

    def __init__(
        self,
        search: SearchProvider | None = None,
        embedder: Any = None,
        chat: Any = None,
        match_template: Any = None,
        search_k: int = 3,
        match_threshold: float = 0.80,
        match_mode: str = "embedding",
        code_executor: list[str] | None = None,
        code_timeout_ms: int = 5000,
        code_parallelism: int = 1,
    ):
        if match_mode not in ("embedding", "llm"):
            raise ToolConfigError(f"unknown match mode: {match_mode!r}")
        if code_executor is not None:
            if not code_executor:
                raise ToolConfigError("code executor command is empty")
            program = shutil.which(code_executor[0])
            if program is None:
                raise ToolConfigError(f"code executor not found: {code_executor[0]!r}")
            code_executor = [program, *code_executor[1:]]
        if code_parallelism < 1:
            raise ToolConfigError("code_parallelism must be at least 1")
        self.search_provider = search
        self.embedder = embedder
        self.chat = chat
        self.match_template = match_template
        self.search_k = search_k
        self.match_threshold = match_threshold
        self.match_mode = match_mode
        self.code_executor = code_executor
        self.code_timeout_ms = code_timeout_ms
        self._code_slots = threading.BoundedSemaphore(code_parallelism)

    # --- individual tools -------------------------------------------------

    def match(self, sentence: str, context: str) -> bool:
        """True when the sentence is semantically supported by the context."""
        if not sentence or not context:
            raise ToolError("TOOL_ERROR: match requires non-empty sentence and context")
        if self.match_mode == "llm":
            return self._match_llm(sentence, context)
        if self.embedder is None:
            raise ToolError("TOOL_ERROR: match is not configured (no embedder)")
        similarity = cosine(self.embedder.embed(sentence), self.embedder.embed(context))
        return similarity >= self.match_threshold

    def _match_llm(self, sentence: str, context: str) -> bool:
        if self.chat is None or self.match_template is None:
            raise ToolError("TOOL_ERROR: match is not configured (no chat provider or template)")
        prompt = self.match_template.render(sentence=sentence, context=context)
        reply = self.chat.complete(
            ChatRequest(system_prompt="", messages=(ChatMessage("user", prompt),), temperature=0.0)
        )
        answer = reply.strip().lower()
        if answer not in ("yes", "no"):
            raise ToolError(f"TOOL_ERROR: match judge replied {reply.strip()!r}, expected yes/no")
        return answer == "yes"

    def web_search(self, query: str) -> str:
        if not query:
            raise ToolError("TOOL_ERROR: web_search requires a non-empty query")
        if self.search_provider is None:
            raise ToolError("TOOL_ERROR: web_search is not configured (no search provider)")
        return self.search_provider.search(query, self.search_k)

    def code_interpreter(self, code: str) -> tuple[bool, str]:
        """Run a snippet through the external executor; True iff it exits 0.

        The child gets only a default PATH as its environment and a fresh
        temporary directory, removed afterwards, as its working directory. Its
        output is discarded, so a chatty snippet cannot grow this process, and
        it runs under CPU, address-space and file-size limits.
        Executions contend for a bounded number of sandbox slots (one by
        default), so concurrent claims cannot stack up subprocesses.
        """
        if self.code_executor is None:
            raise ToolError("TOOL_ERROR: code_interpreter is not configured (no code executor)")
        cpu_s = math.ceil(self.code_timeout_ms / 1000)
        limits = [str(n) for n in (cpu_s, CODE_ADDRESS_SPACE, CODE_FILE_SIZE)]
        with self._code_slots, tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as cwd:
            try:
                completed = subprocess.run(
                    [sys.executable, "-I", "-c", _LIMITED_EXEC, *limits, *self.code_executor, code],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    timeout=self.code_timeout_ms / 1000.0,
                    cwd=cwd,
                    env={"PATH": os.defpath},
                )
            except subprocess.TimeoutExpired:
                return False, "TIMEOUT"
        ok = completed.returncode == 0
        return ok, "true" if ok else "false"

    # --- dispatch ----------------------------------------------------------

    def dispatch(self, action: Action) -> ToolResult:
        """Route an action to its tool, turning any failure into an observation.

        A ToolError's text is the observation as it is; any other exception
        is reported as ``TOOL_ERROR: <message>``.
        """
        started = time.perf_counter()
        try:
            observation, success = self._invoke(action)
        except ToolError as exc:
            observation, success = str(exc), False
        except Exception as exc:
            observation, success = f"TOOL_ERROR: {exc}", False
        latency_ms = (time.perf_counter() - started) * 1000.0
        return ToolResult(observation_text=observation, success=success, latency_ms=latency_ms)

    def _invoke(self, action: Action) -> tuple[str, bool]:
        _check_call(action)
        tool = action.tool
        if tool is Tool.GET_ANSWER:
            verdict = answer_verdict(action)
            if verdict.evidence is None:
                return verdict.label.value, True
            return f"{verdict.label.value} | {verdict.evidence}", True
        if tool is Tool.CALCULATOR:
            return _format_real(_calculator.evaluate(str(action.args[0]))), True
        if tool is Tool.WORD_COUNT:
            count, meets = word_count(int(action.args[0]), str(action.args[1]))
            return f"count={count}, meets={'true' if meets else 'false'}", True
        if tool is Tool.SPLIT_TEXT:
            return canonical_json(split_text(str(action.args[0]))), True
        if tool is Tool.MATCH:
            return ("true" if self.match(str(action.args[0]), str(action.args[1])) else "false"), True
        if tool is Tool.WEB_SEARCH:
            return self.web_search(str(action.args[0])), True
        if tool is Tool.CODE_INTERPRETER:
            result, observation = self.code_interpreter(str(action.args[0]))
            return observation, observation != "TIMEOUT"
        raise ToolError(f"TOOL_ERROR: unknown tool {tool.value}")  # pragma: no cover


def _check_call(action: Action) -> None:
    sig = SIGNATURES[action.tool]
    n = len(action.args)
    if not sig.min_args <= n <= sig.max_args:
        if sig.min_args == sig.max_args:
            expected = f"{sig.min_args} argument" + ("s" if sig.min_args != 1 else "")
        else:
            expected = f"{sig.min_args} or {sig.max_args} arguments"
        raise ToolError(f"TOOL_ERROR: {sig.name} expects {expected}")
    for i, (arg, (param, kind)) in enumerate(zip(action.args, sig.params)):
        if kind == "int" and (isinstance(arg, bool) or not isinstance(arg, int)):
            raise ToolError(f"TOOL_ERROR: {sig.name} argument {i} ({param}) must be an integer")
        if kind == "str" and not isinstance(arg, str):
            raise ToolError(f"TOOL_ERROR: {sig.name} argument {i} ({param}) must be a string")
