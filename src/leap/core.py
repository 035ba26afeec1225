"""Domain types for tool-augmented claim verification.

Defines the immutable values shared by every other module: claims, verdicts,
verification strategies, ReAct steps and trajectories, advantage reports,
embeddings, and the one codec that gives every record its line-delimited
JSON form. All types are frozen dataclasses; once constructed they are safe
to share across worker threads.

The wire rule. A ``Record``'s wire form is derived from its dataclass: one
key per field, in field order, named after the field unless ``WIRE_KEYS``
renames it (``lam`` is written ``lambda``). A ``None`` value is left out.
Enums are written as their value, tuples as lists and nested records as
objects. An ``Embedding`` has no text form: the codec passes the instance
through both ways, and a memory store's file holds its row index in a
matrix file instead (see ``memory``). On input, a field without a default
is required and a field with a default is optional, unknown keys are
rejected, and ``wire_value`` checks each value against the field's
annotation; the config sections are records too. Errors carry the line
number and the field path, e.g. ``steps[1].action.tool``.

Each record type's decoder is generated on first use, as ``dataclasses``
generates ``__init__``: it checks the key set and each field's common form
inline and calls a nested record's decoder directly. Any other key set or
value goes to the checks ``wire_value`` makes, field by field in order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from types import NoneType
from typing import IO, Any, Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .errors import IncompleteTrajectoryError, SchemaError, StorageError

__all__ = [
    "Label",
    "Tool",
    "WIRE_KEYS",
    "Record",
    "Embedding",
    "wire_value",
    "Claim",
    "Verdict",
    "VerificationStrategy",
    "Action",
    "Step",
    "AdvantageReport",
    "Trajectory",
    "parse_verdict_label",
    "answer_verdict",
    "count_tool_calls",
    "advantage_value",
    "record_id",
    "strategy_id",
    "trajectory_id",
    "render_action",
    "render_step",
    "linearize_steps",
    "linearize_target",
    "canonical_json",
    "serialize",
    "read_lines",
    "read_records",
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
    """Map get_answer's verdict text to a label.

    Accepts "Hallucination" / "Not Hallucination" (case-insensitive,
    surrounding and internal whitespace collapsed). Anything else raises;
    there is no fallback label.
    """
    normalized = " ".join(text.split()).lower()
    label = _VERDICT_TEXTS.get(normalized)
    if label is None:
        raise SchemaError("get_answer verdict must be 'Hallucination' or 'Not Hallucination'")
    return label


# --- the record codec ----------------------------------------------------------

# Field names whose wire key differs; records and config sections share it.
WIRE_KEYS = {"lam": "lambda"}


class Record:
    """Base of the dataclass records whose wire form the module docstring defines."""

    def to_dict(self) -> dict[str, Any]:
        return _codec(type(self)).encode(self)

    @classmethod
    def from_dict(cls, obj: Any, path: str = "", *, line: int | None = None) -> Any:
        return _codec(cls).decode(obj, path, line)


@dataclass(frozen=True)
class Embedding:
    """A fixed-length vector of finite reals, held as a read-only float64 array.

    No code ever writes to the array, so an embedding's values never change.
    It is the embedding's own copy, or, for a record loaded from a store, a
    row of the store file's read-only matrix (``rows_of``). Either way it is
    the record's float64 truth: a store keeps only a float32 filter row of
    it, which an insert may reuse without touching any embedding.
    """

    vector: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        # Each entry is converted once and checked once.
        try:
            vector = np.array(self.vector, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"embedding entries must be numbers: {exc}") from None
        if vector.shape != (self.dim,):
            raise SchemaError(f"embedding has {vector.size} entries, declared dim {self.dim}")
        if not np.isfinite(vector).all():
            raise SchemaError("embedding entries must be finite")
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.vector, other.vector)

    def __hash__(self) -> int:
        return hash(tuple(self.vector.tolist()))

    @classmethod
    def of(cls, values: Iterable[float]) -> "Embedding":
        try:
            vector = np.fromiter(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"embedding entries must be numbers: {exc}") from None
        return cls(vector=vector, dim=vector.size)

    @classmethod
    def rows_of(cls, matrix: np.ndarray) -> list["Embedding"]:
        """One embedding per row of a 2-D float64 matrix, each a view of its row, not a copy.

        The caller hands the matrix over, and checks that every entry is finite
        before any of the embeddings is used: the matrix is made read-only
        here, and nothing may write to it again.
        """
        matrix.flags.writeable = False
        embeddings = []
        for row in matrix:
            embedding = object.__new__(cls)
            object.__setattr__(embedding, "vector", row)
            object.__setattr__(embedding, "dim", row.size)
            embeddings.append(embedding)
        return embeddings


class _Codec:
    """The encoder and decoder of one record type, built once from its fields."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        # (field name, wire key), in field order
        self.keys = [(f.name, WIRE_KEYS.get(f.name, f.name)) for f in fields(cls)]

    def encode(self, record: Any) -> dict[str, Any]:
        out = {}
        for name, key in self.keys:
            value = getattr(record, name)
            if value is not None:
                out[key] = value if type(value) in _PLAIN else _wire(value)
        return out

    @cached_property
    def decode(self) -> Callable[[Any, str, int | None], Any]:
        """The function (obj, path, line) that decodes this type, generated on first use.

        It checks the key set and then each field in order, its value's
        common form inline. Any other key set goes to ``_check_keys`` and any
        other value to the field's ``_checker``, which converts it or raises.
        """
        hints, required, optional = get_type_hints(self.cls), set(), set()
        env = {"cls": self.cls, "SchemaError": SchemaError, "_check_keys": _check_keys, "_join": _join}
        body, args = ["kwargs = {}"], []
        for i, (f, (name, key)) in enumerate(zip(fields(self.cls), self.keys)):
            v, where, hint = f"v{i}", f"_join(path, {key!r})", hints[name]
            env[f"check{i}"] = _checker(hint)
            test, value = _inline(hint, v, where, env)
            read = [f"{v} = obj[{key!r}]", f"{v} = {value} if {test} else check{i}({v}, {where}, line)"]
            if f.default is MISSING and f.default_factory is MISSING:
                required.add(key)
                body += read
                args.append(f"{name}={v}")
            else:  # left to the dataclass's default when absent
                optional.add(key)
                body += [f"if {key!r} in obj:", *(f"    {s}" for s in read), f"    kwargs[{name!r}] = {v}"]
        env.update(required=required, optional=optional, allowed=required | optional)
        source = "\n    ".join([
            "def decode(obj, path, line):",
            "if type(obj) is not dict or not required <= obj.keys() <= allowed:",
            "    _check_keys(obj, required, optional, path, line)",
            *body,
            "try:",
            f"    return cls({''.join(a + ', ' for a in args)}**kwargs)",
            "except SchemaError as exc:  # the record's own invariants",
            "    raise exc.located(line, path) from None",
        ])
        exec(source, env)
        return env["decode"]


# One codec per record type, built on first use.
_codec = cache(_Codec)


def wire_value(hint: Any, value: Any, field: str, line: int | None) -> Any:
    """Check a decoded JSON value against a field annotation and convert it.

    A bool is never a number, an int is widened for a float field, an enum
    is given by its value, a tuple by a list and a record by an object.
    """
    return _checker(hint)(value, field, line)


@cache
def _checker(hint: Any) -> Callable[[Any, str, int | None], Any]:
    """A function (value, field, line) that decodes a value of the annotated type.

    A value of another type raises SchemaError naming the field.
    """
    expected = f"expected {_describe(hint)}"

    def bad(field: str, line: int | None) -> Any:
        raise SchemaError(expected, line=line, field=field)

    if hint is float:
        return lambda v, field, line: float(v) if _is_number(v) else bad(field, line)
    if hint is int:
        return lambda v, field, line: v if _is_number(v) and isinstance(v, int) else bad(field, line)
    if hint in (str, bool, dict, Embedding):
        return lambda v, field, line: v if isinstance(v, hint) else bad(field, line)
    if isinstance(hint, type) and issubclass(hint, Enum):  # every enum here has string values
        members = hint._value2member_map_
        return lambda v, field, line: (
            members[v] if isinstance(v, str) and v in members else bad(field, line)
        )
    if isinstance(hint, type) and issubclass(hint, Record):
        return lambda v, field, line: hint.from_dict(v, field, line=line)
    if get_origin(hint) is tuple:  # tuple[X, ...]
        item = _checker(get_args(hint)[0])
        return lambda v, field, line: (
            tuple(item(x, f"{field}[{i}]", line) for i, x in enumerate(v))
            if isinstance(v, list)
            else bad(field, line)
        )
    # A union such as X | None or str | int.
    alternatives = [_checker(a) for a in get_args(hint) if a is not NoneType]
    nullable = NoneType in get_args(hint)

    def union(v: Any, field: str, line: int | None) -> Any:
        if v is None and nullable:
            return None
        if len(alternatives) == 1:  # X | None: keep the error of a nested record
            return alternatives[0](v, field, line)
        for check in alternatives:
            try:
                return check(v, field, line)
            except SchemaError:
                pass
        return bad(field, line)

    return union


# The JSON types a value can have as it is, and how messages name them.
_PLAIN = {str: "a string", int: "an integer", float: "a number", bool: "a boolean", dict: "an object"}


def _inline(hint: Any, v: str, where: str, env: dict[str, Any]) -> tuple[str, str]:
    """The test for the common form of a value ``v`` of the annotated type, and its decoding.

    A value the test fails goes to the field's checker, as does every value
    of a type with no common form here, whose test is ``False``.
    """
    if get_origin(hint) is tuple:
        if get_args(hint)[0] is str:
            return f"type({v}) is list and all(type(x) is str for x in {v})", f"tuple({v})"
        return "False", v
    if isinstance(hint, type) and issubclass(hint, Enum):
        env[f"members_{v}"] = hint._value2member_map_
        return f"type({v}) is str and {v} in members_{v}", f"members_{v}[{v}]"
    for a in (hint, *get_args(hint)):
        if a in _PLAIN or a is Embedding:  # a type the field takes as it is
            env[f"type_{v}"] = a
            return f"type({v}) is type_{v}", v
        if isinstance(a, type) and issubclass(a, Record) and hint in (a, a | None):
            env[f"decode_{v}"] = _codec(a).decode
            return f"{v} is not None", f"decode_{v}({v}, {where}, line)"
    return "False", v


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _describe(hint: Any) -> str:
    if hint in _PLAIN:
        return _PLAIN[hint]
    if hint is Embedding:
        return "an Embedding"
    if isinstance(hint, type) and issubclass(hint, Enum):
        return f"one of {[m.value for m in hint]}"
    if isinstance(hint, type) and issubclass(hint, Record):
        return "an object"
    if get_origin(hint) is tuple:
        return "a list"
    # A union; the message leaves out null, which only optional fields accept.
    return " or ".join(_describe(a) for a in get_args(hint) if a is not NoneType)


def _wire(value: Any) -> Any:
    """The wire form of a field value."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [v if type(v) in _PLAIN else _wire(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


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
    if optional is not None:
        for key in obj:
            if key not in required and key not in optional:
                raise SchemaError("unknown field", line=line, field=_join(path, key))
    if not required <= obj.keys():
        raise SchemaError("missing field", line=line, field=_join(path, min(required - obj.keys())))


@dataclass(frozen=True)
class Claim(Record):
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


@dataclass(frozen=True)
class Verdict(Record):
    """Final detection result, with optional supporting evidence."""

    label: Label
    evidence: str | None = None


@dataclass(frozen=True)
class VerificationStrategy(Record):
    """Planner output: problem type, high-level approach, and ordered plan."""

    problem_type: str
    high_level_strategy: str
    plan: tuple[str, ...]
    revision_of: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", tuple(self.plan))
        if not self.plan:
            raise SchemaError("strategy plan must have at least one step", field="plan")


@dataclass(frozen=True)
class Action(Record):
    """One tool invocation: the tool name plus its ordered argument list."""

    tool: Tool
    args: tuple[str | int, ...]

    def __post_init__(self) -> None:
        args = wire_value(tuple[str | int, ...], list(self.args), "args", None)
        object.__setattr__(self, "args", args)


@dataclass(frozen=True)
class Step(Record):
    """One ReAct turn: a thought, the action taken, and its observation.

    The observation is absent only on a terminal step whose result has not
    been recorded yet; once recorded it never changes.
    """

    thought: str
    action: Action
    observation: str | None = None


def answer_verdict(action: Action) -> Verdict:
    """The verdict a get_answer action states: its label, then optional evidence."""
    evidence = str(action.args[1]) if len(action.args) > 1 else None
    return Verdict(label=parse_verdict_label(str(action.args[0])), evidence=evidence)


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
class AdvantageReport(Record):
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


@dataclass(frozen=True)
class Trajectory(Record):
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


def count_tool_calls(trajectory: Trajectory) -> int:
    """Number of steps that invoke a real tool (the terminal answer step is free)."""
    return sum(1 for s in trajectory.steps if s.action.tool is not Tool.GET_ANSWER)


def record_id(*parts: Any) -> str:
    """Short content hash of the parts, so identical content gets the same id on rerun."""
    return hashlib.sha256(canonical_json(list(parts)).encode("utf-8")).hexdigest()[:16]


def strategy_id(strategy: VerificationStrategy) -> str:
    """Short content hash identifying a strategy within an episode."""
    return record_id("strategy", strategy.to_dict())


def trajectory_id(claim_id: str, strategy: VerificationStrategy, steps: Iterable[Step]) -> str:
    return record_id("trajectory", claim_id, strategy.to_dict(), [s.to_dict() for s in steps])


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
    return _encode(obj)


# What ``json.dumps(obj, ensure_ascii=False, separators=(",", ":"))`` calls, built once.
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def serialize(value: Any) -> str:
    """One canonical record line (no trailing newline) for any core type."""
    return canonical_json(value.to_dict())


def _loads_line(line: str, line_no: int | None) -> Any:
    """The JSON value of a line, parsed as ``json.loads`` parses it.

    A line that holds one value and at most a final newline is parsed by the
    scanner that ``json.JSONDecoder.raw_decode`` calls, without that method's
    frame; any other goes through ``json.loads``, for the wording of its errors.
    """
    try:
        value, end = _scan_once(line, 0)
        if end == len(line) or line[end:] == "\n":
            return value
    except (StopIteration, json.JSONDecodeError):  # no value at 0, or a malformed one
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=line_no) from exc


_scan_once = json.JSONDecoder().scan_once


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each non-blank line of a UTF-8 file.

    The file is read a line at a time, and a line ends only at ``\n``, never
    at the other separators JSON strings may hold raw. The file is closed
    even when the caller stops early.
    """
    try:
        # A byte that is not UTF-8 decodes to a lone surrogate, found on its own line.
        with Path(path).open(encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            for i, line in enumerate(fh, start=1):
                if not line.isascii() and _ESCAPED_BYTE.search(line):
                    raise SchemaError("not UTF-8", line=i)
                if not line.isspace():
                    yield i, line
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_records(path: str | Path, cls: type) -> list[Any]:
    """Decode every line of a file as one record of type ``cls``."""
    return [cls.from_dict(_loads_line(line, i), line=i) for i, line in read_lines(path)]


@contextmanager
def atomic_file(path: str | Path, binary: bool = False) -> Iterator[IO[Any]]:
    """A file to write in place of ``path``: readers see the old file or the whole new one.

    The writes go to a temporary file beside ``path``, which replaces it when
    the block ends without an exception; otherwise ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def write_record_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write one record per line, atomically (``atomic_file``)."""
    n = 0
    with atomic_file(path) as fh:
        for line in lines:
            fh.write(line + "\n")
            n += 1
    return n


def load_claims(path: str | Path) -> list[Claim]:
    """Load a native claim file, enforcing id uniqueness."""
    return _check_unique_ids(read_records(path, Claim))


def _check_unique_ids(claims: list[Claim]) -> list[Claim]:
    seen: set[str] = set()
    for claim in claims:
        if claim.id in seen:
            raise SchemaError(f"duplicate claim id: {claim.id!r}", field="id")
        seen.add(claim.id)
    return claims


def write_claims(path: str | Path, claims: Iterable[Claim]) -> int:
    return write_record_lines(path, (serialize(c) for c in claims))


def load_trajectories(path: str | Path) -> list[Trajectory]:
    return read_records(path, Trajectory)


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> int:
    return write_record_lines(path, (serialize(t) for t in trajectories))
