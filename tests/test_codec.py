"""The shared record codec: derived encoders and decoders and ``wire_value``."""

from __future__ import annotations

import importlib
import json
from dataclasses import MISSING, fields
from enum import Enum
from functools import cache
from types import NoneType
from typing import Any, Callable, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

from leap.backend import ScriptEntry
from leap.config import Config
from leap.core import (
    _PLAIN,
    WIRE_KEYS,
    AdvantageReport,
    Claim,
    Embedding,
    Label,
    Record,
    Tool,
    Trajectory,
    Verdict,
    _describe,
    _is_number,
    _join,
    _loads_line,
    serialize,
    wire_value,
)
from leap.errors import SchemaError
from leap.evaluation import EvalReport
from leap.loops import VerdictRecord
from leap.memory import PrecedentRecord, ReflectionRecord, ValueSample

from test_wire import GOLDEN, REJECTIONS, ROUND_TRIPS


def test_every_record_type_has_rejection_cases():
    for module in ("agents", "backend", "evaluation", "loops", "memory"):
        importlib.import_module(f"leap.{module}")
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(REJECTIONS)


@pytest.mark.parametrize("name", ["claims.jsonl", "trajectories.jsonl", "script.jsonl"])
def test_codec_writes_the_golden_lines(name):
    load, _ = ROUND_TRIPS[name]
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert "".join(serialize(r) + "\n" for r in load(GOLDEN / name)) == text


@pytest.mark.parametrize(
    "hint,value,expected",
    [
        (float, 2, 2.0),
        (float, 0.5, 0.5),
        (int, 3, 3),
        (bool, False, False),
        (str | None, None, None),
        (str | int, 7, 7),
        (Label, "NotHallucination", Label.NOT_HALLUCINATION),
        (tuple[str, ...], ["a", "b"], ("a", "b")),
        (Embedding, Embedding((1.0, 0.5)), Embedding((1.0, 0.5))),  # passed through
        (Verdict | None, {"label": "Hallucination"}, Verdict(Label.HALLUCINATION)),
    ],
)
def test_wire_value_accepts_and_converts(hint, value, expected):
    decoded = wire_value(hint, value, "f", None)
    assert decoded == expected and type(decoded) is type(expected)


@pytest.mark.parametrize(
    "hint,value,message",
    [
        (float, True, r"expected a number \(field: f\)"),
        (int, 1.0, r"expected an integer \(field: f\)"),
        (int, None, r"expected an integer \(field: f\)"),
        (str | int, [1], r"expected a string or an integer \(field: f\)"),
        (Label, "hallucination", r"expected one of \['Hallucination', 'NotHallucination'\] \(field: f\)"),
        (Tool, {}, r"expected one of \[.*\] \(field: f\)"),
        (tuple[str | int, ...], ["a", False], r"expected a string or an integer \(field: f\[1\]\)"),
        (tuple[str, ...], "ab", r"expected a list \(field: f\)"),
        (Verdict | None, {"label": "x"}, r"\(field: f\.label\)"),
        # An embedding has no text form: a store puts it in place of its row index.
        (Embedding, [0.5, 1.0], r"expected an Embedding \(field: f\)"),
        (Embedding, "AAAAAAAA8D8AAAAAAADgPw==", r"expected an Embedding \(field: f\)"),
        (Embedding, 0, r"expected an Embedding \(field: f\)"),
        (Embedding, None, r"expected an Embedding \(field: f\)"),
    ],
)
def test_wire_value_rejects(hint, value, message):
    with pytest.raises(SchemaError, match=message):
        wire_value(hint, value, "f", 4)


def test_lam_is_written_as_lambda_and_none_is_left_out():
    report = AdvantageReport(r_terminal=1.0, gamma=1.0, v_next=0.0, v_curr=0.0, lam=0.5, n_tools=0, advantage=1.0)
    assert list(report.to_dict()) == ["r_terminal", "gamma", "v_next", "v_curr", "lambda", "n_tools", "advantage"]
    assert Verdict(Label.HALLUCINATION).to_dict() == {"label": "Hallucination"}
    assert AdvantageReport.from_dict(report.to_dict()) == report


# --- the generated decoders against the field-by-field decoder they replaced --
#
# ``_ReferenceCodec``, ``_reference_checker`` and ``_reference_check_keys`` are
# the codec's decoder as it was before decoders were generated, kept verbatim
# except that a nested record decodes through the reference codec too.


class _ReferenceCodec:
    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        self.cls = cls
        # (field name, wire key, the JSON type taken as it is, checker)
        self.fields: list[tuple[str, str, type | None, Callable]] = []
        self.required: set[str] = set()
        self.optional: set[str] = set()
        for f in fields(cls):
            key, hint = WIRE_KEYS.get(f.name, f.name), hints[f.name]
            self.fields.append((f.name, key, _plain_type(hint), _reference_checker(hint)))
            has_default = f.default is not MISSING or f.default_factory is not MISSING
            (self.optional if has_default else self.required).add(key)

    def decode(self, obj: Any, path: str, line: int | None) -> Any:
        _reference_check_keys(obj, self.required, self.optional, path, line)
        kwargs = {}
        for name, key, plain, check in self.fields:
            if key in obj:
                value = obj[key]
                kwargs[name] = value if type(value) is plain else check(value, _join(path, key), line)
        try:
            return self.cls(**kwargs)
        except SchemaError as exc:  # the record's own invariants
            raise exc.located(line, path) from None


_reference_codec = cache(_ReferenceCodec)


@cache
def _reference_checker(hint: Any) -> Callable[[Any, str, int | None], Any]:
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
        return lambda v, field, line: _reference_codec(hint).decode(v, field, line)
    if get_origin(hint) is tuple:  # tuple[X, ...]
        item = _reference_checker(get_args(hint)[0])
        return lambda v, field, line: (
            tuple(item(x, f"{field}[{i}]", line) for i, x in enumerate(v))
            if isinstance(v, list)
            else bad(field, line)
        )
    # A union such as X | None or str | int.
    alternatives = [_reference_checker(a) for a in get_args(hint) if a is not NoneType]
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


def _plain_type(hint: Any) -> type | None:
    """The JSON type whose values a field takes without conversion, if any."""
    if get_origin(hint) is tuple:
        return None
    return next((a for a in (hint, *get_args(hint)) if a in _PLAIN), None)


def _reference_check_keys(
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


# Every record line of the golden files, with the record type that reads it. A
# store record's ``embedding`` is an Embedding, as the store hands it to the codec.
_GOLDEN_TYPES = {
    "claims.jsonl": Claim,
    "config.jsonl": Config,
    "trajectories.jsonl": Trajectory,
    "reflections.jsonl": ReflectionRecord,
    "precedents.jsonl": PrecedentRecord,
    "values.jsonl": ValueSample,
    "script.jsonl": ScriptEntry,
    "report.jsonl": EvalReport,
    "verdicts.jsonl": VerdictRecord,
}
_GOLDEN_LINES = [
    (cls, i, line)
    for name, cls in _GOLDEN_TYPES.items()
    for i, line in enumerate((GOLDEN / name).read_text(encoding="utf-8").splitlines(), start=1)
    if not (i == 1 and name in ("reflections.jsonl", "precedents.jsonl", "values.jsonl"))
]
# The golden configuration names no search provider; this line does.
_GOLDEN_LINES.append(
    (Config, 1, '{"tools":{"search_provider":{"kind":"http","url":"http://x","title_field":"t"}}}')
)
_EMBEDDING = Embedding.of([0.5, -1.0])
_SWAPS = [None, True, False, 0, 1, -2, 0.5, float("nan"), float("inf"), "", "x", "Hallucination",
          "web_search", [], ["x"], [1, "x"], [{}], {}, {"label": "Hallucination"}, _EMBEDDING]


def _wire_object(line: str) -> Any:
    obj = json.loads(line)
    if "embedding" in obj:
        obj["embedding"] = _EMBEDDING
    return obj


def _copy(obj: Any) -> Any:
    """A copy of a wire object, so no mutation or decoder reaches a shared value."""
    if isinstance(obj, dict):
        return {k: _copy(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_copy(v) for v in obj]
    return obj


def _slots(value: Any) -> list[tuple[Any, Any]]:
    """(container, key) for every value nested in ``value``, however deep."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    return [slot for key, v in items for slot in [(value, key), *_slots(v)]]


@st.composite
def _mutated_wire_objects(draw) -> tuple[type, int, Any]:
    """A golden record line's object with up to three keys deleted, added or given another value."""
    cls, line_no, text = draw(st.sampled_from(_GOLDEN_LINES))
    obj = _wire_object(text)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["delete", "add", "swap", "swap", "swap", "swap the object"]))
        slots = _slots(obj)
        if op == "swap the object":
            obj = _copy(draw(st.sampled_from(_SWAPS)))
        elif op == "add":
            dicts = [v for v in (obj, *(c[k] for c, k in slots)) if isinstance(v, dict)]
            if dicts:
                draw(st.sampled_from(dicts))[draw(st.sampled_from(["extra", "lam", "Id"]))] = 1
        else:
            targets = [(c, k) for c, k in slots if op == "swap" or isinstance(c, dict)]
            if targets:
                container, key = draw(st.sampled_from(targets))
                if op == "delete":
                    del container[key]
                else:
                    container[key] = _copy(draw(st.sampled_from(_SWAPS)))
    return cls, line_no, obj


def _outcome(decode: Callable[[], Any]) -> tuple[str, Any]:
    try:
        record = decode()
    except Exception as exc:  # noqa: BLE001 - the type and text are what is compared
        return type(exc).__name__, str(exc)
    return "returns", (record, repr(record))  # repr tells 1 from 1.0


_VALUE = _wire_object((GOLDEN / "values.jsonl").read_text(encoding="utf-8").splitlines()[1])
_PRECEDENT = _wire_object((GOLDEN / "precedents.jsonl").read_text(encoding="utf-8").splitlines()[1])


@settings(max_examples=400, deadline=None)
@given(_mutated_wire_objects())
@example((ValueSample, 2, {**_VALUE, "value": 1}))
@example((PrecedentRecord, 2, {**_PRECEDENT, "advantage": True}))
def test_generated_decoder_agrees_with_the_field_by_field_decoder(case):
    cls, line_no, obj = case
    want = _outcome(lambda: _reference_codec(cls).decode(_copy(obj), "", line_no))
    assert _outcome(lambda: cls.from_dict(_copy(obj), line=line_no)) == want


def _assert_tuples_and_hashable(record: Any) -> None:
    """Every sequence field of the record, and of each record nested in it, holds a tuple."""
    hints = get_type_hints(type(record))
    for f in fields(record):
        value = getattr(record, f.name)
        if get_origin(hints[f.name]) is tuple:
            assert type(value) is tuple, f.name
        for item in value if type(value) is tuple else (value,):
            if isinstance(item, Record):
                _assert_tuples_and_hashable(item)
    if type(record) is not ScriptEntry:
        hash(record)


def test_every_record_type_but_a_script_entry_is_frozen():
    mutable = {cls for cls in Record.__subclasses__() if not cls.__dataclass_params__.frozen}
    assert mutable == {ScriptEntry}


@pytest.mark.parametrize("cls,line_no,text", _GOLDEN_LINES, ids=lambda v: getattr(v, "__name__", None))
def test_golden_records_hold_tuples_and_are_hashable(cls, line_no, text):
    _assert_tuples_and_hashable(cls.from_dict(_wire_object(text), line=line_no))


@settings(max_examples=300, deadline=None)
@given(_mutated_wire_objects())
def test_decoded_records_hold_tuples_and_are_hashable(case):
    cls, line_no, obj = case
    try:
        record = cls.from_dict(obj, line=line_no)
    except SchemaError:
        return
    _assert_tuples_and_hashable(record)


def test_an_int_for_a_float_field_is_widened_and_a_bool_is_not_a_number():
    assert type(ValueSample.from_dict({**_VALUE, "value": 1}).value) is float
    with pytest.raises(SchemaError, match=r"^line 3: expected a number \(field: advantage\)$"):
        PrecedentRecord.from_dict({**_PRECEDENT, "advantage": True}, line=3)


# --- parsing one line ----------------------------------------------------------


@pytest.mark.parametrize(
    "line",
    [
        '{"a": 1}\n',
        '{"a": 1}',
        '\t  {"a": 1}\n',
        '{"a": 1}   \n',
        '{"a": 1}\r\n',
        "{} {}\n",
        "{}x",
        "NaN\n",
        '[1, "x", null]\n',
        "7",
        '"\u00fc"\n',
        "\ufeff{}\n",
        "",
        "{\n",
        '{"a": ' * 200 + "1" + "}" * 200 + "\n",
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=lambda line: repr(line[:12]),
)
def test_loads_line_parses_as_json_loads_does(line):
    try:
        want = ("returns", repr(json.loads(line)))
    except json.JSONDecodeError as exc:
        want = ("raises", f"line 7: invalid JSON: {exc.msg}")
    except RecursionError as exc:
        want = ("RecursionError", str(exc))
    try:
        got = ("returns", repr(_loads_line(line, 7)))
    except SchemaError as exc:
        got = ("raises", str(exc))
    except RecursionError as exc:
        got = ("RecursionError", str(exc))
    assert got == want


def test_trailing_data_keeps_json_wording():
    with pytest.raises(SchemaError, match="^line 2: invalid JSON: Extra data$"):
        _loads_line("{} {}\n", 2)
