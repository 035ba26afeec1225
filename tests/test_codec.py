"""The shared record codec: derived encoders and decoders and ``wire_value``."""

from __future__ import annotations

import importlib

import pytest

from leap.core import (
    AdvantageReport,
    Embedding,
    Label,
    Record,
    Tool,
    Verdict,
    serialize,
    wire_value,
)
from leap.errors import SchemaError

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
        (Embedding, Embedding((1.0, 0.5), 2), Embedding((1.0, 0.5), 2)),  # passed through
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
