"""Domain types for tool-augmented claim verification.

Defines the immutable values shared by every other module: claims, verdicts,
verification strategies, ReAct steps and trajectories, advantage reports, and
the canonical line-delimited JSON codecs for them. All types are frozen
dataclasses; once constructed they are safe to share across worker threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import IncompleteTrajectoryError, SchemaError, StorageError

__all__ = [
    "Label",
    "Tool",
    "Claim",
    "Verdict",
    "VerificationStrategy",
    "Action",
    "Step",
    "AdvantageReport",
    "Trajectory",
    "StateView",
    "parse_verdict_label",
    "state_at",
    "count_tool_calls",
    "advantage_value",
    "strategy_id",
    "trajectory_id",
    "render_action",
    "render_step",
    "linearize_steps",
    "linearize_target",
    "canonical_json",
    "serialize",
    "deserialize_claim",
    "deserialize_trajectory",
    "load_claims",
    "write_claims",
    "load_trajectories",
    "write_trajectories",
]


class Label(Enum):
    """The two possible detection outcomes for a claim."""

    HALLUCINATION = "Hallucination"
    NOT_HALLUCINATION = "NotHallucination"


class Tool(Enum):
    """Names of the seven tools available to the execution agent."""

    WEB_SEARCH = "web_search"
    CALCULATOR = "calculator"
    CODE_INTERPRETER = "code_interpreter"
    WORD_COUNT = "word_count"
    MATCH = "match"
    SPLIT_TEXT = "split_text"
    GET_ANSWER = "get_answer"


TOOL_BY_NAME = {t.value: t for t in Tool}

_VERDICT_TEXTS = {
    "hallucination": Label.HALLUCINATION,
    "not hallucination": Label.NOT_HALLUCINATION,
    "nothallucination": Label.NOT_HALLUCINATION,
}


def parse_verdict_label(text: str) -> Label:
    """Map model verdict text to a label.

    Accepts "Hallucination" / "Not Hallucination" (case-insensitive,
    surrounding and internal whitespace collapsed). Anything else raises;
    there is no fallback label.
    """
    normalized = " ".join(text.split()).lower()
    label = _VERDICT_TEXTS.get(normalized)
    if label is None:
        raise SchemaError(f"unrecognized verdict text: {text!r}")
    return label


@dataclass(frozen=True)
class Claim:
    """A (query, response) pair whose response's factuality is under test."""

    id: str
    query: str
    response: str
    gold_label: Label | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise SchemaError("claim id must be non-empty", field="id")
        if not self.query.strip():
            raise SchemaError("claim query must be non-empty", field="query")
        if not self.response.strip():
            raise SchemaError("claim response must be non-empty", field="response")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"id": self.id, "query": self.query, "response": self.response}
        if self.gold_label is not None:
            out["gold_label"] = self.gold_label.value
        return out

    @classmethod
    def from_dict(cls, obj: Any, *, line: int | None = None) -> "Claim":
        _check_keys(obj, {"id", "query", "response"}, {"gold_label"}, "", line)
        gold = obj.get("gold_label")
        if gold is not None:
            gold = _label_from_wire(gold, "gold_label", line)
        return cls(
            id=_field_str(obj, "id", "", line),
            query=_field_str(obj, "query", "", line),
            response=_field_str(obj, "response", "", line),
            gold_label=gold,
        )


@dataclass(frozen=True)
class Verdict:
    """Final detection result, with optional supporting evidence."""

    label: Label
    evidence: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"label": self.label.value}
        if self.evidence is not None:
            out["evidence"] = self.evidence
        return out

    @classmethod
    def from_dict(cls, obj: Any, path: str, *, line: int | None = None) -> "Verdict":
        _check_keys(obj, {"label"}, {"evidence"}, path, line)
        return cls(
            label=_label_from_wire(obj["label"], _join(path, "label"), line),
            evidence=_field_opt_str(obj, "evidence", path, line),
        )


@dataclass(frozen=True)
class VerificationStrategy:
    """Planner output: problem type, high-level approach, and ordered plan."""

    problem_type: str
    high_level_strategy: str
    plan: tuple[str, ...]
    revision_of: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", tuple(self.plan))
        if not self.plan:
            raise SchemaError("strategy plan must have at least one step", field="plan")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "problem_type": self.problem_type,
            "high_level_strategy": self.high_level_strategy,
            "plan": list(self.plan),
        }
        if self.revision_of is not None:
            out["revision_of"] = self.revision_of
        return out

    @classmethod
    def from_dict(cls, obj: Any, path: str = "", *, line: int | None = None) -> "VerificationStrategy":
        _check_keys(obj, {"problem_type", "high_level_strategy", "plan"}, {"revision_of"}, path, line)
        plan = obj["plan"]
        if not isinstance(plan, list) or not all(isinstance(p, str) for p in plan):
            raise SchemaError("plan must be a list of strings", line=line, field=_join(path, "plan"))
        return cls(
            problem_type=_field_str(obj, "problem_type", path, line),
            high_level_strategy=_field_str(obj, "high_level_strategy", path, line),
            plan=tuple(plan),
            revision_of=_field_opt_str(obj, "revision_of", path, line),
        )


@dataclass(frozen=True)
class Action:
    """One tool invocation: the tool name plus its ordered argument list."""

    tool: Tool
    args: tuple[str | int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        for i, arg in enumerate(self.args):
            if isinstance(arg, bool) or not isinstance(arg, (str, int)):
                raise SchemaError(
                    f"action argument {i} must be a string or integer, got {type(arg).__name__}",
                    field="args",
                )

    def to_dict(self) -> dict[str, Any]:
        return {"tool": self.tool.value, "args": list(self.args)}

    @classmethod
    def from_dict(cls, obj: Any, path: str, *, line: int | None = None) -> "Action":
        _check_keys(obj, {"tool", "args"}, set(), path, line)
        name = obj["tool"]
        if name not in TOOL_BY_NAME:
            raise SchemaError(f"unknown tool: {name!r}", line=line, field=_join(path, "tool"))
        args = obj["args"]
        if not isinstance(args, list):
            raise SchemaError("args must be a list", line=line, field=_join(path, "args"))
        for i, arg in enumerate(args):
            if isinstance(arg, bool) or not isinstance(arg, (str, int)):
                raise SchemaError(
                    "argument must be a string or integer",
                    line=line,
                    field=_join(path, f"args[{i}]"),
                )
        return cls(tool=TOOL_BY_NAME[name], args=tuple(args))


@dataclass(frozen=True)
class Step:
    """One ReAct turn: a thought, the action taken, and its observation.

    The observation is absent only on a terminal step whose result has not
    been recorded yet; once recorded it never changes.
    """

    thought: str
    action: Action
    observation: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"thought": self.thought, "action": self.action.to_dict()}
        if self.observation is not None:
            out["observation"] = self.observation
        return out

    @classmethod
    def from_dict(cls, obj: Any, path: str, *, line: int | None = None) -> "Step":
        _check_keys(obj, {"thought", "action"}, {"observation"}, path, line)
        return cls(
            thought=_field_str(obj, "thought", path, line),
            action=Action.from_dict(obj["action"], _join(path, "action"), line=line),
            observation=_field_opt_str(obj, "observation", path, line),
        )


def advantage_value(
    r_terminal: float, gamma: float, v_next: float, v_curr: float, lam: float, n_tools: int
) -> float:
    """Advantage of a strategy given its outcome.

    Terminal reward plus the discounted value of the successor state, minus
    the current state value and a per-tool-call penalty. Evaluated with a
    fixed operation order so stored reports recompute bit-for-bit.
    """
    return r_terminal + gamma * v_next - v_curr - lam * n_tools


@dataclass(frozen=True)
class AdvantageReport:
    """All terms of an advantage computation, stored so it can be recomputed."""

    r_terminal: float
    gamma: float
    v_next: float
    v_curr: float
    lam: float
    n_tools: int
    advantage: float

    def __post_init__(self) -> None:
        for name in ("r_terminal", "gamma", "v_next", "v_curr", "lam", "advantage"):
            if not math.isfinite(getattr(self, name)):
                raise SchemaError(f"{name} must be finite", field=name)
        if self.n_tools < 0:
            raise SchemaError("n_tools must be non-negative", field="n_tools")
        if self.advantage != self.recompute():
            raise SchemaError("advantage does not recompute from its stored terms", field="advantage")

    def recompute(self) -> float:
        return advantage_value(
            self.r_terminal, self.gamma, self.v_next, self.v_curr, self.lam, self.n_tools
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "r_terminal": self.r_terminal,
            "gamma": self.gamma,
            "v_next": self.v_next,
            "v_curr": self.v_curr,
            "lambda": self.lam,
            "n_tools": self.n_tools,
            "advantage": self.advantage,
        }

    @classmethod
    def from_dict(cls, obj: Any, path: str, *, line: int | None = None) -> "AdvantageReport":
        required = {"r_terminal", "gamma", "v_next", "v_curr", "lambda", "n_tools", "advantage"}
        _check_keys(obj, required, set(), path, line)
        n_tools = obj["n_tools"]
        if isinstance(n_tools, bool) or not isinstance(n_tools, int):
            raise SchemaError("n_tools must be an integer", line=line, field=_join(path, "n_tools"))
        return cls(
            r_terminal=_field_float(obj, "r_terminal", path, line),
            gamma=_field_float(obj, "gamma", path, line),
            v_next=_field_float(obj, "v_next", path, line),
            v_curr=_field_float(obj, "v_curr", path, line),
            lam=_field_float(obj, "lambda", path, line),
            n_tools=n_tools,
            advantage=_field_float(obj, "advantage", path, line),
        )


@dataclass(frozen=True)
class Trajectory:
    """A completed or in-flight verification run for one claim.

    The id is content-addressed over (claim_id, strategy, steps) so reruns of
    the same episode deduplicate. The verdict and advantage report are not
    part of the hash.
    """

    id: str
    claim_id: str
    strategy: VerificationStrategy
    steps: tuple[Step, ...]
    verdict: Verdict | None = None
    advantage: AdvantageReport | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.advantage is not None:
            n = count_tool_calls(self)
            if self.advantage.n_tools != n:
                raise SchemaError(
                    f"advantage report counts {self.advantage.n_tools} tool calls, steps contain {n}",
                    field="advantage.n_tools",
                )

    @classmethod
    def build(
        cls,
        claim_id: str,
        strategy: VerificationStrategy,
        steps: Iterable[Step],
        verdict: Verdict | None = None,
        advantage: AdvantageReport | None = None,
    ) -> "Trajectory":
        """Construct a trajectory, deriving its content-addressed id."""
        steps = tuple(steps)
        return cls(
            id=trajectory_id(claim_id, strategy, steps),
            claim_id=claim_id,
            strategy=strategy,
            steps=steps,
            verdict=verdict,
            advantage=advantage,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "claim_id": self.claim_id,
            "strategy": self.strategy.to_dict(),
            "steps": [s.to_dict() for s in self.steps],
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_dict()
        if self.advantage is not None:
            out["advantage"] = self.advantage.to_dict()
        return out

    @classmethod
    def from_dict(cls, obj: Any, *, line: int | None = None) -> "Trajectory":
        _check_keys(obj, {"id", "claim_id", "strategy", "steps"}, {"verdict", "advantage"}, "", line)
        raw_steps = obj["steps"]
        if not isinstance(raw_steps, list):
            raise SchemaError("steps must be a list", line=line, field="steps")
        steps = tuple(
            Step.from_dict(s, f"steps[{i}]", line=line) for i, s in enumerate(raw_steps)
        )
        verdict = obj.get("verdict")
        advantage = obj.get("advantage")
        return cls(
            id=_field_str(obj, "id", "", line),
            claim_id=_field_str(obj, "claim_id", "", line),
            strategy=VerificationStrategy.from_dict(obj["strategy"], "strategy", line=line),
            steps=steps,
            verdict=None if verdict is None else Verdict.from_dict(verdict, "verdict", line=line),
            advantage=None
            if advantage is None
            else AdvantageReport.from_dict(advantage, "advantage", line=line),
        )


@dataclass(frozen=True)
class StateView:
    """The claim plus a prefix of steps: everything an agent may condition on."""

    claim: Claim
    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


def state_at(claim: Claim, trajectory: Trajectory, n: int) -> StateView:
    """State after the first ``n`` steps of a trajectory.

    ``state_at(claim, t, 0)`` is the initial state: the claim alone. The
    claim is passed explicitly because trajectories store only the claim id.
    """
    if not 0 <= n <= len(trajectory.steps):
        raise IndexError(
            f"state index {n} out of range for trajectory with {len(trajectory.steps)} steps"
        )
    return StateView(claim=claim, steps=trajectory.steps[:n])


def count_tool_calls(trajectory: Trajectory) -> int:
    """Number of steps that invoke a real tool (the terminal answer step is free)."""
    return sum(1 for s in trajectory.steps if s.action.tool is not Tool.GET_ANSWER)


def strategy_id(strategy: VerificationStrategy) -> str:
    """Short content hash identifying a strategy within an episode."""
    payload = canonical_json(["strategy", strategy.to_dict()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def trajectory_id(claim_id: str, strategy: VerificationStrategy, steps: Iterable[Step]) -> str:
    payload = canonical_json(
        ["trajectory", claim_id, strategy.to_dict(), [s.to_dict() for s in steps]]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# --- ReAct surface rendering ------------------------------------------------

_RESERVED_PREFIXES = ("Thought:", "Action:")


def render_action(action: Action) -> str:
    """Render an action in the surface grammar: ``tool("arg", 3)``."""
    parts = []
    for arg in action.args:
        if isinstance(arg, int):
            parts.append(str(arg))
        else:
            parts.append(json.dumps(arg, ensure_ascii=False))
    return f"{action.tool.value}({', '.join(parts)})"


def _escape_thought(thought: str) -> str:
    # Continuation lines starting with a reserved prefix would be re-parsed
    # as new turns; indenting them one space keeps the grammar line-oriented.
    lines = thought.split("\n")
    out = [lines[0]]
    for cont in lines[1:]:
        if cont.startswith(_RESERVED_PREFIXES):
            cont = " " + cont
        out.append(cont)
    return "\n".join(out)


def render_step(step: Step) -> str:
    """Render one (thought, action) pair; observations never appear."""
    return f"Thought: {_escape_thought(step.thought)}\nAction: {render_action(step.action)}\n"


def linearize_steps(steps: Iterable[Step]) -> str:
    return "".join(render_step(s) for s in steps)


def linearize_target(trajectory: Trajectory) -> str:
    """Training target for a finished trajectory: all thought/action pairs.

    The output parses back to the identical (thought, action) sequence for
    thoughts free of reserved line prefixes. Observations are excluded.
    """
    if trajectory.verdict is None:
        raise IncompleteTrajectoryError(f"trajectory {trajectory.id} has no verdict")
    if not trajectory.steps or trajectory.steps[-1].action.tool is not Tool.GET_ANSWER:
        raise IncompleteTrajectoryError(
            f"trajectory {trajectory.id} has a verdict but no terminal get_answer step"
        )
    return linearize_steps(trajectory.steps)


# --- canonical line-delimited serialization ----------------------------------


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: compact separators, keys in schema order, UTF-8."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def serialize(value: Any) -> str:
    """One canonical record line (no trailing newline) for any core type."""
    return canonical_json(value.to_dict())


def _loads_line(line: str, line_no: int | None) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from exc


def deserialize_claim(line: str, *, line_no: int | None = None) -> Claim:
    return Claim.from_dict(_loads_line(line, line_no), line=line_no)


def deserialize_trajectory(line: str, *, line_no: int | None = None) -> Trajectory:
    return Trajectory.from_dict(_loads_line(line, line_no), line=line_no)


def read_record_lines(path: str | Path, parse: Callable[[str, int], Any]) -> list[Any]:
    """Read a line-delimited record file, attributing errors to line numbers."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        records.append(parse(line, i))
    return records


def write_record_lines(path: str | Path, lines: Iterable[str]) -> int:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            n = 0
            for line in lines:
                fh.write(line + "\n")
                n += 1
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc
    return n


def load_claims(path: str | Path) -> list[Claim]:
    """Load a native claim file, enforcing id uniqueness."""
    claims = read_record_lines(path, lambda line, i: deserialize_claim(line, line_no=i))
    seen: set[str] = set()
    for claim in claims:
        if claim.id in seen:
            raise SchemaError(f"duplicate claim id: {claim.id!r}", field="id")
        seen.add(claim.id)
    return claims


def write_claims(path: str | Path, claims: Iterable[Claim]) -> int:
    return write_record_lines(path, (serialize(c) for c in claims))


def load_trajectories(path: str | Path) -> list[Trajectory]:
    return read_record_lines(path, lambda line, i: deserialize_trajectory(line, line_no=i))


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> int:
    return write_record_lines(path, (serialize(t) for t in trajectories))


# --- schema plumbing ----------------------------------------------------------


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(
    obj: Any, required: set[str], optional: set[str] | None, path: str, line: int | None
) -> None:
    """Require an object holding the required keys; optional=None allows any other key."""
    if not isinstance(obj, dict):
        raise SchemaError(
            f"expected an object, got {type(obj).__name__}", line=line, field=path or None
        )
    for key in obj:
        if optional is not None and key not in required and key not in optional:
            raise SchemaError("unknown field", line=line, field=_join(path, key))
    for key in sorted(required):
        if key not in obj:
            raise SchemaError("missing field", line=line, field=_join(path, key))


def _field_str(obj: dict, key: str, path: str, line: int | None) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError("expected a string", line=line, field=_join(path, key))
    return value


def _field_opt_str(obj: dict, key: str, path: str, line: int | None) -> str | None:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise SchemaError("expected a string", line=line, field=_join(path, key))
    return value


def _field_float(obj: dict, key: str, path: str, line: int | None) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", line=line, field=_join(path, key))
    return float(value)


def _label_from_wire(value: Any, field: str, line: int | None) -> Label:
    if value == Label.HALLUCINATION.value:
        return Label.HALLUCINATION
    if value == Label.NOT_HALLUCINATION.value:
        return Label.NOT_HALLUCINATION
    raise SchemaError(f"label must be one of {[l.value for l in Label]}", line=line, field=field)
