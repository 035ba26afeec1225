"""The record wire format, pinned by golden files.

The files under ``golden/`` were written by the hand-written encoders that
preceded the shared record codec. The three store files have since moved
their embeddings, bit for bit, out of the record lines into a ``.npy``
matrix beside each file, where a record's ``embedding`` is its row.
``config.jsonl`` is the effective default configuration on one line.
Loading each file and writing it back must reproduce it byte for byte, its
matrix included, and every record type must reject a malformed line with
its line number and the path of the offending field.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from leap.backend import load_script
from leap.config import Config, effective_dict
from leap.core import (
    canonical_json,
    load_claims,
    load_trajectories,
    read_records,
    serialize,
    write_claims,
    write_record_lines,
    write_trajectories,
)
from leap.errors import SchemaError
from leap.evaluation import parse_report, render_report
from leap.loops import VerdictRecord
from leap.memory import MemoryStore

GOLDEN = Path(__file__).resolve().parent / "golden"


def _write_script(entries, path):
    # The wire rule spelled out: fields in order, None left out.
    lines = (canonical_json({k: v for k, v in asdict(e).items() if v is not None}) for e in entries)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_report(report, path):
    path.write_text(render_report(report, "machine") + "\n", encoding="utf-8")


def _load_verdicts(path):
    return read_records(path, VerdictRecord)


def _write_configs(configs, path):
    write_record_lines(path, (canonical_json(effective_dict(c)) for c in configs))


# file name -> (load, write)
ROUND_TRIPS = {
    "claims.jsonl": (load_claims, lambda claims, path: write_claims(path, claims)),
    "config.jsonl": (lambda path: read_records(path, Config), _write_configs),
    "trajectories.jsonl": (load_trajectories, lambda ts, path: write_trajectories(path, ts)),
    "reflections.jsonl": (MemoryStore.load, lambda store, path: store.persist(path)),
    "precedents.jsonl": (MemoryStore.load, lambda store, path: store.persist(path)),
    "values.jsonl": (MemoryStore.load, lambda store, path: store.persist(path)),
    "script.jsonl": (load_script, _write_script),
    "report.jsonl": (lambda path: parse_report(Path(path).read_text(encoding="utf-8")), _write_report),
    "verdicts.jsonl": (_load_verdicts, lambda rs, path: write_record_lines(path, map(serialize, rs))),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_golden_file_round_trips_byte_for_byte(tmp_path, name):
    load, write = ROUND_TRIPS[name]
    out = tmp_path / name
    write(load(GOLDEN / name), out)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        p.name: p.read_bytes() for p in GOLDEN.glob(f"{out.stem}.*")
    }


def test_golden_trajectories_cover_every_optional_field_and_none():
    full, bare = load_trajectories(GOLDEN / "trajectories.jsonl")
    assert full.strategy.revision_of and full.verdict.evidence and full.advantage
    assert all(step.observation is not None for step in full.steps)
    assert (bare.strategy.revision_of, bare.verdict, bare.advantage) == (None, None, None)
    assert bare.steps[0].observation is None


def _set(path):
    """Mutation that sets the value at a dotted/indexed path."""

    def mutate(obj, value):
        keys = re.findall(r"[^.\[\]]+", path)
        for key in keys[:-1]:
            obj = obj[int(key)] if isinstance(obj, list) else obj[key]
        last = keys[-1]
        if isinstance(obj, list):
            obj[int(last)] = value
        elif value is _DELETE:
            del obj[last]
        else:
            obj[last] = value

    return mutate


_DELETE = object()

# record type -> cases of (golden file, line to mutate, path, new value,
# expected message, expected field path regex). Cases with a message that
# names an invariant fail inside the record's own checks, after decoding.
REJECTIONS = {
    "Claim": [
        ("claims.jsonl", 1, "response", _DELETE, "missing field", "response"),
        ("claims.jsonl", 1, "extra", 1, "unknown field", "extra"),
        ("claims.jsonl", 1, "id", True, "", "id"),
        ("claims.jsonl", 1, "gold_label", ["Hallucination"], "", "gold_label"),
        ("claims.jsonl", 2, "id", "", "claim id must be non-empty", "id"),
    ],
    "Trajectory": [
        ("trajectories.jsonl", 1, "claim_id", _DELETE, "missing field", "claim_id"),
        ("trajectories.jsonl", 1, "extra", 1, "unknown field", "extra"),
        ("trajectories.jsonl", 1, "steps", {}, "", "steps"),
        ("trajectories.jsonl", 1, "strategy", "a strategy", "", "strategy"),
    ],
    "VerificationStrategy": [
        ("trajectories.jsonl", 1, "strategy.plan", _DELETE, "missing field", r"strategy\.plan"),
        ("trajectories.jsonl", 1, "strategy.extra", 1, "unknown field", r"strategy\.extra"),
        ("trajectories.jsonl", 1, "strategy.high_level_strategy", 1.5, "", r"strategy\.high_level_strategy"),
        ("trajectories.jsonl", 1, "strategy.plan[1]", True, "", r"strategy\.plan(\[1\])?"),
    ],
    "Step": [
        ("trajectories.jsonl", 1, "steps[0].thought", _DELETE, "missing field", r"steps\[0\]\.thought"),
        ("trajectories.jsonl", 1, "steps[0].extra", 1, "unknown field", r"steps\[0\]\.extra"),
        ("trajectories.jsonl", 1, "steps[2].observation", 1, "", r"steps\[2\]\.observation"),
        ("trajectories.jsonl", 1, "steps[0].action", "web_search", "", r"steps\[0\]\.action"),
    ],
    "Action": [
        ("trajectories.jsonl", 1, "steps[0].action.args", _DELETE, "missing field", r"steps\[0\]\.action\.args"),
        ("trajectories.jsonl", 1, "steps[0].action.extra", 1, "unknown field", r"steps\[0\]\.action\.extra"),
        ("trajectories.jsonl", 1, "steps[1].action.args[0]", True, "", r"steps\[1\]\.action\.args\[0\]"),
        ("trajectories.jsonl", 1, "steps[1].action.tool", ["word_count"], "", r"steps\[1\]\.action\.tool"),
    ],
    "Verdict": [
        ("trajectories.jsonl", 1, "verdict.label", _DELETE, "missing field", r"verdict\.label"),
        ("trajectories.jsonl", 1, "verdict.extra", 1, "unknown field", r"verdict\.extra"),
        ("trajectories.jsonl", 1, "verdict.label", True, "", r"verdict\.label"),
        ("trajectories.jsonl", 1, "verdict", ["Hallucination"], "", "verdict"),
    ],
    "AdvantageReport": [
        ("trajectories.jsonl", 1, "advantage.lambda", _DELETE, "missing field", r"advantage\.lambda"),
        ("trajectories.jsonl", 1, "advantage.lam", 0.1, "unknown field", r"advantage\.lam"),
        ("trajectories.jsonl", 1, "advantage.gamma", True, "", r"advantage\.gamma"),
        ("trajectories.jsonl", 1, "advantage.n_tools", 3.0, "", r"advantage\.n_tools"),
        ("trajectories.jsonl", 1, "advantage.advantage", 9.0, "advantage does not recompute", r"advantage\.advantage"),
    ],
    "ReflectionRecord": [
        ("reflections.jsonl", 2, "embedding", _DELETE, "missing field", "embedding"),
        ("reflections.jsonl", 2, "extra", 1, "unknown field", "extra"),
        ("reflections.jsonl", 2, "embedding", "0", "expected row 0 of reflections.npy", "embedding"),
        ("reflections.jsonl", 2, "revised_strategy.plan", "step", "", r"revised_strategy\.plan"),
        ("reflections.jsonl", 3, "revised_strategy.plan", [], "strategy plan must have at least one step", r"revised_strategy\.plan"),
        ("reflections.jsonl", 4, "principles", [], "reflection needs at least one principle", "principles"),
    ],
    "PrecedentRecord": [
        ("precedents.jsonl", 2, "advantage", _DELETE, "missing field", "advantage"),
        ("precedents.jsonl", 2, "extra", 1, "unknown field", "extra"),
        ("precedents.jsonl", 2, "advantage", True, "", "advantage"),
        ("precedents.jsonl", 2, "strategy.problem_type", 1, "", r"strategy\.problem_type"),
        ("precedents.jsonl", 3, "embedding", [0.5], "expected row 1 of precedents.npy", "embedding"),  # the first form
        ("precedents.jsonl", 3, "embedding", "AAAAAAAA4D8=", "expected row 1 of precedents.npy", "embedding"),  # the second
        ("precedents.jsonl", 3, "embedding", 3, "expected row 1 of precedents.npy", "embedding"),  # out of range
    ],
    "ValueSample": [
        ("values.jsonl", 2, "value", _DELETE, "missing field", "value"),
        ("values.jsonl", 2, "extra", 1, "unknown field", "extra"),
        ("values.jsonl", 2, "value", False, "", "value"),
        ("values.jsonl", 2, "value", float("nan"), "value must be finite", "value"),
        ("values.jsonl", 3, "value", float("-inf"), "value must be finite", "value"),
        ("values.jsonl", 2, "embedding", {"0": 1.0}, "", "embedding"),
        ("values.jsonl", 2, "embedding", 0.0, "expected row 0 of values.npy", "embedding"),
        ("values.jsonl", 2, "embedding", False, "expected row 0 of values.npy", "embedding"),
        ("values.jsonl", 3, "embedding", 0, "expected row 1 of values.npy", "embedding"),  # another record's row
    ],
    "ScriptEntry": [
        ("script.jsonl", 1, "reply", _DELETE, "missing field", "reply"),
        ("script.jsonl", 1, "extra", 1, "unknown field", "extra"),
        ("script.jsonl", 1, "key", True, "", "key"),
        ("script.jsonl", 1, "claim_key", ["q"], "", "claim_key"),
    ],
    "Confusion": [
        ("report.jsonl", 1, "confusion.tp", _DELETE, "missing field", r"confusion\.tp"),
        ("report.jsonl", 1, "confusion.extra", 1, "unknown field", r"confusion\.extra"),
        ("report.jsonl", 1, "confusion.fp", True, "", r"confusion\.fp"),
        ("report.jsonl", 1, "confusion.tn", "1", "", r"confusion\.tn"),
    ],
    "PerClaim": [
        ("report.jsonl", 1, "per_claim[1].gold", _DELETE, "missing field", r"per_claim\[1\]\.gold"),
        ("report.jsonl", 1, "per_claim[0].extra", 1, "unknown field", r"per_claim\[0\]\.extra"),
        ("report.jsonl", 1, "per_claim[0].n_steps", True, "", r"per_claim\[0\]\.n_steps"),
        ("report.jsonl", 1, "per_claim[2].corrected", 0, "", r"per_claim\[2\]\.corrected"),
        ("report.jsonl", 1, "per_claim[0].predicted", "Yes", "", r"per_claim\[0\]\.predicted"),
    ],
    "EvalReport": [
        ("report.jsonl", 1, "n", _DELETE, "missing field", "n"),
        ("report.jsonl", 1, "extra", 1, "unknown field", "extra"),
        ("report.jsonl", 1, "dataset", 1, "", "dataset"),
        ("report.jsonl", 1, "per_claim", {}, "", "per_claim"),
        ("report.jsonl", 1, "positive_class", _DELETE, "missing field", "positive_class"),
        ("report.jsonl", 1, "positive_class", "NotHallucination", "expected 'Hallucination'", "positive_class"),
    ],
    "VerdictRecord": [
        ("verdicts.jsonl", 1, "n_steps", _DELETE, "missing field", "n_steps"),
        ("verdicts.jsonl", 1, "extra", 1, "unknown field", "extra"),
        ("verdicts.jsonl", 1, "corrected", "no", "", "corrected"),
        ("verdicts.jsonl", 2, "scores", {}, "", "scores"),
        ("verdicts.jsonl", 3, "verdict.label", "Maybe", "", r"verdict\.label"),
    ],
    "PreemptiveScore": [
        ("verdicts.jsonl", 2, "scores[1].approved", _DELETE, "missing field", r"scores\[1\]\.approved"),
        ("verdicts.jsonl", 1, "scores[0].extra", 1, "unknown field", r"scores\[0\]\.extra"),
        ("verdicts.jsonl", 2, "scores[0].score", "low", "", r"scores\[0\]\.score"),
        ("verdicts.jsonl", 2, "scores[0].approved", True, "approved must equal", r"scores\[0\]"),
    ],
    "Config": [
        ("config.jsonl", 1, "decodng", {}, "unknown field", "decodng"),
        ("config.jsonl", 1, "backend", [], "expected an object", "backend"),
        ("config.jsonl", 1, "paths", None, "expected an object", "paths"),
    ],
    "BackendConfig": [
        ("config.jsonl", 1, "backend.extra", 1, "unknown field", r"backend\.extra"),
        ("config.jsonl", 1, "backend.embed_dim", True, "", r"backend\.embed_dim"),
        ("config.jsonl", 1, "backend.embed_dim", 0, "embed_dim must be at least 1", r"backend\.embed_dim"),
    ],
    "DecodingConfig": [
        ("config.jsonl", 1, "decoding.extra", 1, "unknown field", r"decoding\.extra"),
        ("config.jsonl", 1, "decoding.max_tokens", 1.0, "", r"decoding\.max_tokens"),
        ("config.jsonl", 1, "decoding.top_p_learn", 0.0, "top_p_learn must be in", r"decoding\.top_p_learn"),
    ],
    "LearningConfig": [
        ("config.jsonl", 1, "learning.gama", 1.0, "unknown field", r"learning\.gama"),
        ("config.jsonl", 1, "learning.lam", 0.1, "unknown field", r"learning\.lam"),
        ("config.jsonl", 1, "learning.memory_cap", True, "", r"learning\.memory_cap"),
        ("config.jsonl", 1, "learning.lambda", -0.1, "lambda must be non-negative", r"learning\.lambda"),
        ("config.jsonl", 1, "learning.concurrency", 0, "concurrency must be at least 1", r"learning\.concurrency"),
    ],
    "CorrectionConfig": [
        ("config.jsonl", 1, "correction.extra", 1, "unknown field", r"correction\.extra"),
        ("config.jsonl", 1, "correction.theta_corr", "0", "", r"correction\.theta_corr"),
    ],
    "SearchProviderConfig": [
        ("config.jsonl", 1, "tools.search_provider", {"url": "http://x"}, "missing field", r"tools\.search_provider\.kind"),
        ("config.jsonl", 1, "tools.search_provider", {"kind": "http", "url": "http://x", "query_parm": "q"}, "unknown field", r"tools\.search_provider\.query_parm"),
        ("config.jsonl", 1, "tools.search_provider", {"kind": "http", "url": "http://x", "title_field": 7}, "", r"tools\.search_provider\.title_field"),
        ("config.jsonl", 1, "tools.search_provider", {"kind": "dns"}, "kind must be", r"tools\.search_provider\.kind"),
        ("config.jsonl", 1, "tools.search_provider", {"kind": "fixture", "url": "http://x"}, "fixture provider needs a path", r"tools\.search_provider\.path"),
    ],
    "ToolsConfig": [
        ("config.jsonl", 1, "tools.extra", 1, "unknown field", r"tools\.extra"),
        ("config.jsonl", 1, "tools.code_executor", "python3 -c", "", r"tools\.code_executor"),
        ("config.jsonl", 1, "tools.code_executor", ["python3", 1], "", r"tools\.code_executor\[1\]"),
        ("config.jsonl", 1, "tools.match_mode", "regex", "match_mode must be", r"tools\.match_mode"),
    ],
    "PathsConfig": [
        ("config.jsonl", 1, "paths.extra", 1, "unknown field", r"paths\.extra"),
        ("config.jsonl", 1, "paths.prompts_dir", 7, "", r"paths\.prompts_dir"),
    ],
}

_CASES = [(kind, *case) for kind, cases in REJECTIONS.items() for case in cases]


@pytest.mark.parametrize(
    "kind,name,line_no,path,value,message,field",
    _CASES,
    ids=[f"{c[0]}:{c[3]}={'DEL' if c[4] is _DELETE else repr(c[4])}" for c in _CASES],
)
def test_malformed_record_is_rejected_with_its_field_path(
    tmp_path, kind, name, line_no, path, value, message, field
):
    lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[line_no - 1])
    _set(path)(obj, value)
    lines[line_no - 1] = json.dumps(obj, ensure_ascii=False)
    target = tmp_path / name
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for matrix in GOLDEN.glob(f"{target.stem}.npy"):  # a store's matrix, left as it is
        (tmp_path / matrix.name).write_bytes(matrix.read_bytes())
    # A report is a single line parsed without a line number.
    where = "" if name == "report.jsonl" else f"line {line_no}: "
    load, _ = ROUND_TRIPS[name]
    with pytest.raises(SchemaError, match=f"^{where}{message}.*\\(field: {field}\\)$"):
        load(target)
