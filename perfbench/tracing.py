"""Spans around the public calls into each layer, and the per-layer report.

The tracer wraps methods on the runtime's own objects from outside the
program: nothing under ``src/`` knows it is traced. A span records its name,
start, end, parent span, claim id and one datum (rows scanned, eviction,
dispatch success, reflection kind). Spans stay in memory until the run ends.
A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

# span fields
NAME, START, END, PARENT, CLAIM, INFO = range(6)

AGENTS = ("planner", "actor", "critic", "reflector")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, claim, info) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if claim is None and parent is not None:
            claim = self.spans[parent][CLAIM]
        span = [name, 0.0, 0.0, parent, claim, info]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def wrap(self, name: str, fn, before=None, after=None, claim_of=None):
        """``fn`` recording one span per call.

        ``before(args)`` gives the span's datum, ``after(datum, result)`` may
        replace it, and ``claim_of(args)`` names the claim a top-level call
        works on (nested spans inherit it).
        """

        def traced(*args, **kwargs):
            index = self._open(
                name,
                claim_of(args) if claim_of else None,
                before(args) if before else None,
            )
            span = self.spans[index]
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack().pop()
            if after is not None:
                span[INFO] = after(span[INFO], result)
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A finished child span of the current one (injected model waits)."""
        index = self._open(name, None, None)
        self.spans[index][START] = start
        self.spans[index][END] = end
        self._stack().pop()

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, claim, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "claim": claim, "info": info}) + "\n")


def instrument(tracer: Tracer, runtime, memories, chat, embedder, mode: str) -> None:
    """Wrap the public calls of one runtime's objects with spans."""
    w = tracer.wrap
    runtime.planner.plan = w("agents.planner", runtime.planner.plan)
    runtime.actor.act = w("agents.actor", runtime.actor.act)
    runtime.critic.estimate_value = w("agents.critic", runtime.critic.estimate_value)
    runtime.critic.preemptive_score = w("agents.critic", runtime.critic.preemptive_score)
    runtime.reflector.reflect_failure = w(
        "agents.reflector", runtime.reflector.reflect_failure, before=lambda a: "failure")
    runtime.reflector.reflect_strategy = w(
        "agents.reflector", runtime.reflector.reflect_strategy, before=lambda a: "strategy")
    chat.complete = w("backend.complete", chat.complete)
    embedder.embed = w("backend.embed", embedder.embed)
    for wrapper, name in ((chat, "backend.complete.wait"), (embedder, "backend.embed.wait")):
        if hasattr(wrapper, "on_wait"):
            wrapper.on_wait = lambda s, e, name=name: tracer.record(name, s, e)
    for store in (memories.reflections, memories.precedents, memories.values):
        store.retrieve_top_k = w(
            "memory.retrieve", store.retrieve_top_k, before=lambda a, s=store: len(s))
        store.insert = w(
            "memory.insert", store.insert,
            before=lambda a, s=store: int(s.cap is not None and len(s) >= s.cap))
    runtime.toolbox.dispatch = w(
        "tools.dispatch", runtime.toolbox.dispatch, after=lambda d, r: bool(r.success))
    if mode == "learn":
        runtime.run_learning_episode = w(
            "loops.claim", runtime.run_learning_episode, claim_of=lambda a: a[0].id)
        runtime.run_learning = w("loops.batch", runtime.run_learning)
    else:
        runtime.detect = w("loops.claim", runtime.detect, claim_of=lambda a: a[0].id)
        runtime.run_detection = w("loops.batch", runtime.run_detection)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str, int]]:
    """Per-layer figures as name -> (value, unit, sample count)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)

    def duration(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def self_time(i: int) -> float:
        return duration(i) - _covered([(spans[c][START], spans[c][END]) for c in children[i]])

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)
    claims = by_name["loops.claim"]
    n = len(claims)
    if n == 0:
        raise ValueError("traced run completed no claims")
    out: dict[str, tuple[float, str, int]] = {}

    def per_claim_calls(metric: str, name: str) -> None:
        out[metric] = (len(by_name[name]) / n, "count", n)

    def per_claim_ms(metric: str, indices, fn=self_time) -> None:
        out[metric] = (sum(fn(i) for i in indices) * 1e3 / n, "ms", n)

    retrieves = by_name["memory.retrieve"]
    per_claim_calls("memory.retrieve.calls_per_claim", "memory.retrieve")
    per_claim_ms("memory.retrieve.self_ms_per_claim", retrieves)
    out["memory.retrieve.p50_us"] = (
        statistics.median(duration(i) for i in retrieves) * 1e6 if retrieves else 0.0,
        "us", len(retrieves))
    out["memory.retrieve.rows_scanned_per_claim"] = (
        sum(spans[i][INFO] for i in retrieves) / n, "count", n)
    inserts = by_name["memory.insert"]
    per_claim_calls("memory.insert.calls_per_claim", "memory.insert")
    per_claim_ms("memory.insert.self_ms_per_claim", inserts)
    out["memory.evictions_per_claim"] = (sum(spans[i][INFO] for i in inserts) / n, "count", n)

    for call in ("embed", "complete"):
        name = f"backend.{call}"
        per_claim_calls(f"{name}.calls_per_claim", name)
        per_claim_ms(f"{name}.self_ms_per_claim", by_name[name])
        per_claim_ms(f"{name}.wait_ms_per_claim", by_name[f"{name}.wait"], duration)

    agent_spans = []
    for agent in AGENTS:
        per_claim_calls(f"agents.{agent}.calls_per_claim", f"agents.{agent}")
        agent_spans += by_name[f"agents.{agent}"]
    model_calls = [
        sum(1 for c in children[i] if spans[c][NAME] == "backend.complete") for i in agent_spans
    ]
    asked = sum(1 for k in model_calls if k >= 1)
    out["agents.reprompt_ratio"] = (
        sum(1 for k in model_calls if k >= 2) / asked if asked else 0.0, "ratio", asked)
    per_claim_ms("agents.self_ms_per_claim", agent_spans)

    dispatches = by_name["tools.dispatch"]
    per_claim_calls("tools.dispatch.calls_per_claim", "tools.dispatch")
    per_claim_ms("tools.dispatch.self_ms_per_claim", dispatches)
    out["tools.dispatch.failed_ratio"] = (
        sum(1 for i in dispatches if not spans[i][INFO]) / len(dispatches) if dispatches else 0.0,
        "ratio", len(dispatches))

    # Claims run on pool threads when concurrency > 1, so they are not child
    # spans of the batch call; a batch covers the claims inside its window.
    batches = by_name["loops.batch"]
    batch_self = [
        duration(b) - _covered([
            (spans[c][START], spans[c][END]) for c in claims
            if spans[b][START] <= spans[c][START] and spans[c][END] <= spans[b][END]
        ])
        for b in batches
    ]
    out["loops.self_ms_per_claim"] = (
        (sum(self_time(i) for i in claims) + sum(batch_self)) * 1e3 / n, "ms", n)
    out["loops.effective_concurrency"] = (
        sum(duration(i) for i in claims) / sum(duration(i) for i in batches), "ratio", len(batches))
    reflections = [spans[i][INFO] for i in by_name["agents.reflector"]]
    out["loops.reflected_ratio"] = (reflections.count("failure") / n, "ratio", n)
    out["loops.corrected_ratio"] = (reflections.count("strategy") / n, "ratio", n)
    return out
