"""The four LLM-backed agents and the strict parsers for their outputs.

Planner, actor, critic, and reflector share one calling convention: render a
template, request one completion, parse it. A reply that fails its grammar
earns exactly one reprompt with a format reminder; a second failure raises an
agent-format error. All agents are stateless between calls, so one instance
serves any number of claims concurrently.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from .backend import ChatMessage, ChatRequest, ChatProvider
from .core import (
    Action,
    AdvantageReport,
    Claim,
    Embedding,
    Label,
    Record,
    Step,
    Tool,
    TOOL_BY_NAME,
    Trajectory,
    VerificationStrategy,
    advantage_value,
    count_tool_calls,
    record_id,
    strategy_id,
)
from .errors import AgentFormatError, ReactParseError, SchemaError
from .memory import ReflectionRecord, ValueSample
from .prompts import (
    PromptTemplate,
    format_claim_block,
    format_history,
    format_precedents,
    format_reflections,
    format_strategy,
    format_value_examples,
)

__all__ = [
    "Decoding",
    "PreemptiveScore",
    "parse_react",
    "parse_react_sequence",
    "parse_strategy_text",
    "Planner",
    "Actor",
    "Critic",
    "Reflector",
    "advantage",
]


@dataclass(frozen=True)
class Decoding:
    """Sampling settings for one family of agent calls."""

    temperature: float
    top_p: float = 1.0
    max_tokens: int = 1024


@dataclass(frozen=True)
class PreemptiveScore(Record):
    """Pre-execution assessment of a strategy against the correction threshold."""

    strategy_ref: str
    score: float
    threshold: float
    approved: bool

    def __post_init__(self) -> None:
        if self.approved != (self.score >= self.threshold):
            raise SchemaError("approved must equal (score >= threshold)")

    @classmethod
    def of(cls, strategy_ref: str, score: float, threshold: float) -> "PreemptiveScore":
        return cls(
            strategy_ref=strategy_ref,
            score=score,
            threshold=threshold,
            approved=score >= threshold,
        )


# --- ReAct surface grammar ----------------------------------------------------

_ACTION_LINE_RE = re.compile(r"^Action:\s*([a-z_]+)\((.*)\)\s*$")
# One argument, a JSON string literal or a bare integer (a point after it is an
# error), then a comma or the end. Each part is optional, so that _parse_args
# can name what is missing.
_ARG_RE = re.compile(
    r'\s*(?:(?P<string>"[^"\\]*(?:\\.[^"\\]*)*")|(?P<int>-?\d+)(?P<point>\.)?)?\s*(?P<sep>,|\Z)?',
    re.DOTALL,
)


def parse_react(text: str) -> tuple[str, Action]:
    """Parse one (thought, action) turn.

    The first line starting with "Thought:" opens the thought; lines up to
    the action line continue it. Exactly one "Action:" line is allowed, with
    double-quoted string and bare integer arguments. Lines after the action
    are ignored.
    """
    lines = text.split("\n")
    action_indices = [i for i, line in enumerate(lines) if line.startswith("Action:")]
    if not action_indices:
        raise ReactParseError("missing Action line")
    if len(action_indices) > 1:
        raise ReactParseError("multiple Action lines; exactly one action per turn")
    action_index = action_indices[0]

    thought_index = None
    for i in range(action_index):
        if lines[i].startswith("Thought:"):
            thought_index = i
            break
    if thought_index is None:
        raise ReactParseError("missing Thought line")

    first = re.match(r"^Thought:\s*(.*)$", lines[thought_index]).group(1)
    thought = "\n".join([first, *lines[thought_index + 1 : action_index]])

    match = _ACTION_LINE_RE.match(lines[action_index])
    if match is None:
        raise ReactParseError(f"malformed Action line: {lines[action_index]!r}")
    tool_name, args_text = match.group(1), match.group(2)
    if tool_name not in TOOL_BY_NAME:
        raise ReactParseError(f"unknown tool: {tool_name!r}")
    return thought, Action(tool=TOOL_BY_NAME[tool_name], args=_parse_args(args_text))


def _parse_args(text: str) -> tuple[str | int, ...]:
    args: list[str | int] = []
    pos = 0
    while True:
        match = _ARG_RE.match(text, pos)
        string, integer = match["string"], match["int"]
        if string is None and integer is None:
            rest = text[pos:].lstrip()
            if not rest:
                if pos == 0:
                    return ()
                raise ReactParseError("trailing comma in arguments")
            if rest[0] == '"':
                raise ReactParseError("unterminated string argument")
            raise ReactParseError(f"malformed argument near {rest[:20]!r}")
        if string is not None:
            try:
                args.append(json.loads(string))
            except json.JSONDecodeError as exc:
                raise ReactParseError(f"malformed string argument {string!r}") from exc
        elif match["point"]:
            raise ReactParseError("arguments must be quoted strings or bare integers")
        else:
            args.append(int(integer))
        if match["sep"] is None:
            raise ReactParseError(f"expected ',' between arguments, found {text[match.end()]!r}")
        if not match["sep"]:
            return tuple(args)
        pos = match.end()


def parse_react_sequence(text: str) -> list[tuple[str, Action]]:
    """Parse a full linearized trace into its ordered (thought, action) pairs."""
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if line.startswith("Thought:")]
    if not starts:
        raise ReactParseError("missing Thought line")
    for i in range(starts[0]):
        if lines[i].startswith("Action:"):
            raise ReactParseError("missing Thought line")
    pairs = []
    boundaries = [*starts, len(lines)]
    for a, b in zip(boundaries, boundaries[1:]):
        pairs.append(parse_react("\n".join(lines[a:b])))
    return pairs


# --- structured output grammars -------------------------------------------------


def parse_strategy_text(text: str, revision_of: str | None = None) -> VerificationStrategy:
    """Parse TYPE / STRATEGY / PLAN sections with numbered plan steps."""
    lines = text.split("\n")
    type_idx, strat_idx, plan_idx = _section_starts(lines, "TYPE:", "STRATEGY:", "PLAN:")
    problem_type = _section_text(lines, type_idx, type_idx + 1)
    high_level = _section_text(lines, strat_idx, plan_idx)
    plan = _numbered_items(lines[plan_idx + 1 :])
    if not plan:
        raise ReactParseError("PLAN section has no numbered steps")
    if not problem_type:
        raise ReactParseError("TYPE section is empty")
    return VerificationStrategy(
        problem_type=problem_type,
        high_level_strategy=high_level,
        plan=tuple(plan),
        revision_of=revision_of,
    )


def parse_reflection_text(text: str) -> tuple[str, tuple[str, ...], VerificationStrategy]:
    """Parse DIAGNOSIS / PRINCIPLES / REVISED_STRATEGY sections."""
    lines = text.split("\n")
    diag_idx, prin_idx, revised_idx = _section_starts(
        lines, "DIAGNOSIS:", "PRINCIPLES:", "REVISED_STRATEGY:"
    )
    diagnosis = _section_text(lines, diag_idx, prin_idx)
    if not diagnosis:
        raise ReactParseError("DIAGNOSIS section is empty")
    principles = _numbered_items(lines[prin_idx + 1 : revised_idx])
    if not principles:
        raise ReactParseError("PRINCIPLES section has no numbered items")
    strategy = parse_strategy_text("\n".join(lines[revised_idx + 1 :]))
    return diagnosis, tuple(principles), strategy


def _section_starts(lines: list[str], *markers: str) -> list[int]:
    """The first line opening each section; a section missing or out of order raises."""
    starts: list[int] = []
    for marker in markers:
        index = next((i for i, line in enumerate(lines) if line.startswith(marker)), None)
        if index is None or (starts and index < starts[-1]):
            raise ReactParseError(f"missing {marker.removesuffix(':')} section")
        starts.append(index)
    return starts


def _section_text(lines: list[str], start: int, end: int) -> str:
    """The rest of a section's marker line and the lines before ``end``, each trimmed."""
    first = lines[start].partition(":")[2]
    return "\n".join(line.strip() for line in [first, *lines[start + 1 : end]]).strip()


_NUMBERED_RE = re.compile(r"^\s*\d+[.)]\s*(.*\S)\s*$")


def _numbered_items(lines: list[str]) -> list[str]:
    items = []
    for line in lines:
        match = _NUMBERED_RE.match(line)
        if match:
            items.append(match.group(1))
        elif line.strip():
            break
    return items


def _parse_value_text(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError as exc:
        raise ReactParseError(f"expected a single number, got {text.strip()!r}") from exc
    if not math.isfinite(value):
        raise ReactParseError(f"expected a finite number, got {text.strip()!r}")
    return value


# --- the agents ------------------------------------------------------------------


class _Agent:
    """An agent's chat provider and template, and its one way to ask for a reply."""

    name: str
    # The format reminder sent with the one reprompt.
    reminder: str

    def __init__(self, chat: ChatProvider, template: PromptTemplate):
        self.chat = chat
        self.template = template

    def _ask(self, parse: Callable[[str], Any], decoding: Decoding, **bindings: str) -> Any:
        """One completion, one optional reprompt, then an agent-format error."""
        request = ChatRequest(
            system_prompt="",
            messages=(ChatMessage("user", self.template.render(**bindings)),),
            temperature=decoding.temperature,
            top_p=decoding.top_p,
            max_tokens=decoding.max_tokens,
        )
        reply = self.chat.complete(request)
        try:
            return parse(reply)
        except ReactParseError:
            pass
        retry = replace(
            request,
            messages=(
                *request.messages,
                ChatMessage("assistant", reply),
                ChatMessage("user", self.reminder),
            ),
        )
        reply = self.chat.complete(retry)
        try:
            return parse(reply)
        except ReactParseError as exc:
            raise AgentFormatError(self.name, str(exc)) from exc


class Planner(_Agent):
    """Designs a verification strategy for a claim, informed by reflections."""

    name = "planner"
    reminder = (
        "Your previous reply did not follow the required format. Answer again using "
        "exactly the TYPE / STRATEGY / PLAN sections with numbered plan steps."
    )

    def plan(
        self,
        claim: Claim,
        reflections: Sequence[ReflectionRecord],
        decoding: Decoding,
        revision_of: str | None = None,
    ) -> VerificationStrategy:
        return self._ask(
            lambda text: parse_strategy_text(text, revision_of=revision_of),
            decoding,
            claim=format_claim_block(claim),
            reflections=format_reflections(reflections),
        )


class Actor(_Agent):
    """Chooses the next (thought, action) pair while executing a strategy."""

    name = "actor"
    reminder = (
        "Your previous reply did not follow the required format. Answer again with "
        'exactly one "Thought:" line followed by exactly one "Action:" line.'
    )
    # Conservative: an episode that runs out of budget flags the claim rather
    # than quietly clearing it.
    forced_verdict = Label.HALLUCINATION

    def act(
        self,
        claim: Claim,
        steps: Sequence[Step],
        strategy: VerificationStrategy,
        precedents_pos: Sequence,
        precedents_neg: Sequence,
        max_steps: int,
        decoding: Decoding,
    ) -> tuple[str, Action]:
        if len(steps) >= max_steps:
            raise ValueError(f"state already has {len(steps)} steps, max_steps={max_steps}")
        if len(steps) == max_steps - 1:
            return (
                "Step limit reached; recording a terminal verdict.",
                Action(tool=Tool.GET_ANSWER, args=(self.forced_verdict.value, "MAX_STEPS")),
            )
        return self._ask(
            parse_react,
            decoding,
            claim=format_claim_block(claim),
            strategy=format_strategy(strategy),
            history=format_history(steps),
            precedents_pos=format_precedents(precedents_pos),
            precedents_neg=format_precedents(precedents_neg),
        )


class Critic(_Agent):
    """Estimates state values and pre-scores strategies against a threshold."""

    name = "critic"
    reminder = (
        "Your previous reply was not a number. Reply with a single number between "
        "-1.0 and 1.0 and nothing else."
    )

    def estimate_value(
        self, state_text: str, value_samples: Sequence[ValueSample], decoding: Decoding
    ) -> float:
        """Value a state given as its ``format_state`` rendering, clamped to [-1, 1]."""
        return min(1.0, max(-1.0, self._value(state_text, value_samples, decoding)))

    def preemptive_score(
        self,
        claim: Claim,
        strategy: VerificationStrategy,
        value_samples: Sequence[ValueSample],
        threshold: float,
        decoding: Decoding,
    ) -> PreemptiveScore:
        state_text = (
            f"{format_claim_block(claim)}\n\n"
            f"Proposed strategy (not yet executed):\n{format_strategy(strategy)}"
        )
        raw = self._value(state_text, value_samples, decoding)
        return PreemptiveScore.of(strategy_id(strategy), raw, threshold)

    def _value(
        self, state_text: str, value_samples: Sequence[ValueSample], decoding: Decoding
    ) -> float:
        examples = format_value_examples(value_samples)
        return self._ask(_parse_value_text, decoding, state=state_text, examples=examples)


class Reflector(_Agent):
    """Turns failures into reflection records that feed back into planning."""

    name = "reflector"
    reminder = (
        "Your previous reply did not follow the required format. Answer again using "
        "exactly the DIAGNOSIS / PRINCIPLES / REVISED_STRATEGY sections."
    )

    def reflect_failure(
        self, claim: Claim, claim_emb: Embedding, trajectory: Trajectory, decoding: Decoding
    ) -> ReflectionRecord:
        """Learning mode: analyze a completed trajectory with negative advantage."""
        failure_lines = [
            "Strategy that was executed:",
            format_strategy(trajectory.strategy),
            "",
            "Trajectory:",
            format_history(trajectory.steps),
        ]
        if trajectory.verdict is not None:
            failure_lines.append(f"Verdict reached: {trajectory.verdict.label.value}")
        if trajectory.advantage is not None:
            failure_lines.append(f"Advantage assessed: {trajectory.advantage.advantage:+.4f}")
        return self._reflect(claim, claim_emb, "\n".join(failure_lines), decoding)

    def reflect_strategy(
        self,
        claim: Claim,
        claim_emb: Embedding,
        strategy: VerificationStrategy,
        score: PreemptiveScore,
        decoding: Decoding,
    ) -> ReflectionRecord:
        """Correction mode: analyze a strategy the critic rejected before execution."""
        failure = (
            f"Proposed strategy was rejected before execution "
            f"(predicted advantage {score.score:+.4f}, threshold {score.threshold:+.4f}):\n"
            f"{format_strategy(strategy)}"
        )
        return self._reflect(claim, claim_emb, failure, decoding)

    def _reflect(
        self, claim: Claim, claim_emb: Embedding, failure: str, decoding: Decoding
    ) -> ReflectionRecord:
        """A reflection keyed by the claim's embedding, which the caller already holds."""
        key_text = format_claim_block(claim)
        diagnosis, principles, revised = self._ask(
            parse_reflection_text, decoding, claim=key_text, failure=failure
        )
        return ReflectionRecord(
            id=record_id("reflection", key_text, diagnosis, list(principles), revised.to_dict()),
            key_text=key_text,
            diagnosis=diagnosis,
            principles=principles,
            revised_strategy=revised,
            embedding=claim_emb,
        )


def advantage(
    trajectory: Trajectory,
    r_terminal: float,
    gamma: float,
    lam: float,
    v_curr: float,
    v_next: float,
) -> AdvantageReport:
    """Assemble the advantage report for a completed trajectory."""
    n_tools = count_tool_calls(trajectory)
    return AdvantageReport(
        r_terminal=r_terminal,
        gamma=gamma,
        v_next=v_next,
        v_curr=v_curr,
        lam=lam,
        n_tools=n_tools,
        advantage=advantage_value(r_terminal, gamma, v_next, v_curr, lam, n_tools),
    )
