"""Output checks: every claim's result against what its script implies.

Each check returns the ids of the claims whose output is wrong, plus a list of
messages. A problem that belongs to no single claim (a store of the wrong
size) fails every claim of the batch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from scenario import GAMMA, LAM, THETA_CORR

STORES = ("reflections", "precedents", "values")


def sha256_files(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def sizes(memories) -> dict[str, int]:
    return {name: len(getattr(memories, name)) for name in STORES}


def check_learning(truth: list[dict], out_dir: Path, memories, before: dict[str, int], cap: int):
    bad: set[str] = set()
    messages: list[str] = []
    lines = (out_dir / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()
    trajectories = {t["claim_id"]: t for t in map(json.loads, lines)}
    inserts = {name: 0 for name in STORES}
    for expected in truth:
        cid = expected["id"]
        t = trajectories.get(cid)
        if t is None:
            bad.add(cid)
            messages.append(f"{cid}: no trajectory")
            continue
        inserts["precedents"] += 1
        inserts["values"] += expected["n_tools"] + 2  # states s_0 .. s_N
        inserts["reflections"] += int(expected["reflected"])
        adv = t.get("advantage") or {}
        problems = []
        if t.get("verdict", {}).get("label") != expected["verdict"]:
            problems.append(f"verdict {t.get('verdict')} != scripted {expected['verdict']}")
        if len(t["steps"]) != expected["n_tools"] + 1:
            problems.append(f"{len(t['steps'])} steps, scripted {expected['n_tools'] + 1}")
        terms = {"r_terminal": expected["r_terminal"], "gamma": GAMMA, "v_next": expected["v_next"],
                 "v_curr": expected["v_curr"], "lambda": LAM, "n_tools": expected["n_tools"]}
        for key, value in terms.items():
            if adv.get(key) != value:
                problems.append(f"advantage.{key} {adv.get(key)!r} != {value!r}")
        if not problems:
            # Same operation order as the paper's formula, so equality is exact.
            recomputed = adv["r_terminal"] + adv["gamma"] * adv["v_next"] - adv["v_curr"] - adv["lambda"] * adv["n_tools"]
            if adv["advantage"] != recomputed:
                problems.append(f"advantage {adv['advantage']!r} does not recompute ({recomputed!r})")
            elif (adv["advantage"] < 0) != expected["reflected"]:
                problems.append(f"advantage {adv['advantage']!r} has the wrong sign")
        if problems:
            bad.add(cid)
            messages.append(f"{cid}: " + "; ".join(problems))
    after = sizes(memories)
    predicted = {name: min(cap, before[name] + inserts[name]) for name in STORES}
    if after != predicted:
        bad.update(e["id"] for e in truth)
        messages.append(f"store sizes {after} != predicted {predicted}")
    return bad, messages


def check_detection(truth: list[dict], results, memories, before: dict[str, int]):
    bad: set[str] = set()
    messages: list[str] = []
    by_id = {r.claim_id: r for r in results}
    for expected in truth:
        cid = expected["id"]
        r = by_id.get(cid)
        if r is None:
            bad.add(cid)
            messages.append(f"{cid}: no result")
            continue
        problems = []
        if r.verdict.label.value != expected["verdict"]:
            problems.append(f"verdict {r.verdict.label.value} != scripted {expected['verdict']}")
        first = r.scores[0].score
        if first != expected["score"]:
            problems.append(f"score {first!r} != scripted {expected['score']!r}")
        if r.corrected != (first < THETA_CORR) or r.corrected != expected["corrected"]:
            problems.append(f"corrected={r.corrected} with score {first!r}")
        if len(r.trajectory.steps) != expected["n_tools"] + 1:
            problems.append(f"{len(r.trajectory.steps)} steps, scripted {expected['n_tools'] + 1}")
        if problems:
            bad.add(cid)
            messages.append(f"{cid}: " + "; ".join(problems))
    after = sizes(memories)
    if after != before:
        bad.update(e["id"] for e in truth)
        messages.append(f"read-only detection changed store sizes {before} -> {after}")
    return bad, messages
