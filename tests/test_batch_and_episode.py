"""Batch fan-out on failure and interrupt, and the work done once per episode."""

from __future__ import annotations

import json
import signal
import threading
import time
from collections import Counter

import pytest

import leap.agents
import leap.loops
from leap.backend import ScriptedProvider, ScriptEntry
from leap.core import load_trajectories
from leap.errors import AgentFormatError
from leap.memory import Memories
from leap.prompts import format_claim_block

from conftest import (
    DIM,
    FakeChat,
    detection_entries,
    episode_entries,
    make_claim,
    make_runtime,
    wave_entries,
)


def test_strict_failure_keeps_queued_claims_from_starting(tmp_path):
    claims = [make_claim(i) for i in range(8)]
    runtime = make_runtime(FakeChat([]), concurrency=2)
    started = []
    second_started = threading.Event()

    def episode(claim, memories):
        started.append(claim.id)
        if claim is claims[0]:
            second_started.wait(5)
            raise AgentFormatError("planner", "scripted failure")
        second_started.set()
        time.sleep(0.2)  # still running when the first claim fails
        return None

    runtime.run_learning_episode = episode
    with pytest.raises(AgentFormatError):
        runtime.run_learning(claims, Memories.fresh(DIM), tmp_path, strict=True)
    assert sorted(started) == [claims[0].id, claims[1].id]


class _InterruptOn:
    """Chat provider that raises KeyboardInterrupt on any request about one claim."""

    def __init__(self, inner, claim):
        self.inner = inner
        self.claim = claim

    def complete(self, request):
        if self.claim.query in request.text():
            raise KeyboardInterrupt
        return self.inner.complete(request)


def test_interrupted_detection_writes_the_finished_verdicts(tmp_path):
    claims = [make_claim(i, gold=None) for i in range(5)]
    entries = [e for claim in claims[:2] for e in detection_entries(claim)]
    chat = _InterruptOn(ScriptedProvider([ScriptEntry(**e) for e in entries]), claims[2])
    runtime = make_runtime(chat)
    out = tmp_path / "verdicts.jsonl"
    with pytest.raises(KeyboardInterrupt):
        runtime.run_detection(claims, Memories.fresh(DIM), out_path=out)
    written = [json.loads(line)["claim_id"] for line in out.read_text().splitlines()]
    assert written == [claims[0].id, claims[1].id]


def _scripted(claims):
    return ScriptedProvider([ScriptEntry(**e) for e in wave_entries(claims)])


def test_interrupted_wave_learning_stores_exactly_the_listed_episodes(tmp_path):
    claims = [make_claim(i) for i in range(6)]
    runtime = make_runtime(_InterruptOn(_scripted(claims), claims[3]), concurrency=2)
    memories = Memories.fresh(DIM)
    with pytest.raises(KeyboardInterrupt):
        runtime.run_learning(claims, memories, tmp_path)
    listed = load_trajectories(tmp_path / "trajectories.jsonl")
    # Claim 2 shares its wave with claim 3 and finishes, so it commits.
    assert [t.claim_id for t in listed] == [c.id for c in claims[:3]]
    by_id = {c.id: c for c in claims}
    assert [p.claim_text for p in memories.precedents.records()] == [
        format_claim_block(by_id[t.claim_id]) for t in listed
    ]
    assert len(memories.values) == sum(len(t.steps) + 1 for t in listed)
    assert len(memories.reflections) == sum(t.advantage.advantage < 0 for t in listed) == 1


def test_ctrl_c_at_the_wave_barrier_still_joins_the_helpers(tmp_path):
    claims = [make_claim(i) for i in range(4)]
    runtime = make_runtime(_scripted(claims), concurrency=2)
    episode = runtime.run_learning_episode
    helper_started, at_barrier = threading.Event(), threading.Event()
    helper_finished = []

    def interrupting_episode(claim, memories):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper:
            helper_started.set()
        else:
            assert helper_started.wait(5)  # so the calling thread takes one claim only
        trajectory = episode(claim, memories)
        if not on_helper:
            at_barrier.set()
            return trajectory
        assert at_barrier.wait(5)
        time.sleep(0.05)  # the calling thread now waits at the barrier
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.05)  # and the helper is still running when Ctrl-C lands
        helper_finished.append(claim.id)
        return trajectory

    runtime.run_learning_episode = interrupting_episode
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        runtime.run_learning(claims, Memories.fresh(DIM), tmp_path)
    assert set(threading.enumerate()) == before
    assert len(helper_finished) == 1
    # The first wave finished and committed; the second never started.
    listed = [t.claim_id for t in load_trajectories(tmp_path / "trajectories.jsonl")]
    assert listed == [claims[0].id, claims[1].id]


def test_no_wave_helper_outlives_its_batch(tmp_path):
    claims = [make_claim(i) for i in range(5)]
    before = set(threading.enumerate())
    learn = make_runtime(_scripted(claims), concurrency=2)
    assert learn.run_learning(claims, Memories.fresh(DIM), tmp_path / "learn").completed == 5
    assert set(threading.enumerate()) == before
    failing = make_runtime(FakeChat(["junk"] * 20), concurrency=2)
    with pytest.raises(AgentFormatError):
        failing.run_learning(claims, Memories.fresh(DIM), tmp_path / "strict", strict=True)
    assert set(threading.enumerate()) == before
    unlabeled = [make_claim(i, gold=None) for i in range(5)]
    entries = [ScriptEntry(**e) for claim in unlabeled for e in detection_entries(claim)]
    for online_memory in (False, True):
        detect = make_runtime(ScriptedProvider(entries), concurrency=2)
        results, failures = detect.run_detection(
            unlabeled, Memories.fresh(DIM), online_memory=online_memory
        )
        assert (len(results), failures) == (5, [])
        assert set(threading.enumerate()) == before


def test_episode_renders_each_state_once_and_embeds_the_claim_once(monkeypatch):
    claim = make_claim(1)
    replies = [
        e["reply"]
        for e in episode_entries(
            claim,
            step_actions=('calculator("2+2")', 'word_count(3, "a b c")'),
            values=(0.2, 0.5, 0.1, 0.3),
        )
    ]
    runtime = make_runtime(FakeChat(replies))
    rendered = []
    real_format_state = leap.loops.format_state

    def counting_format_state(c, steps):
        rendered.append(len(steps))
        return real_format_state(c, steps)

    for module in (leap.loops, leap.agents):
        monkeypatch.setattr(module, "format_state", counting_format_state, raising=False)
    embedded = _count_embeds(runtime)
    trajectory = runtime.run_learning_episode(claim, Memories.fresh(DIM))
    assert len(trajectory.steps) == 3
    assert rendered == [0, 1, 2, 3]
    assert embedded[format_claim_block(claim)] == 1
    assert sum(embedded.values()) == 4  # the claim, which is also s_0, then s_1 .. s_3


def test_reflecting_episode_embeds_the_claim_once():
    claim = make_claim(2)
    entries = episode_entries(claim, verdict="Not Hallucination", reflection=True)
    runtime = make_runtime(FakeChat([e["reply"] for e in entries]))
    embedded = _count_embeds(runtime)
    memories = Memories.fresh(DIM)
    trajectory = runtime.run_learning_episode(claim, memories)
    assert trajectory.advantage.advantage < 0
    assert embedded[format_claim_block(claim)] == 1
    [reflection], [precedent] = memories.reflections.records(), memories.precedents.records()
    assert reflection.embedding == precedent.embedding


def test_correcting_detection_embeds_the_claim_once():
    claim = make_claim(3, gold=None)
    entries = detection_entries(claim, score=-0.5, corrected=True)
    runtime = make_runtime(FakeChat([e["reply"] for e in entries]))
    embedded = _count_embeds(runtime)
    result = runtime.detect(claim, Memories.fresh(DIM))
    assert result.correction is not None
    assert embedded[format_claim_block(claim)] == 1
    assert result.correction.embedding == runtime.embedder.embed(format_claim_block(claim))


def test_detection_queries_the_values_with_the_claims_own_s0_sample():
    claim = make_claim(4)
    memories = Memories.fresh(DIM)
    learn = make_runtime(FakeChat([e["reply"] for e in episode_entries(claim)]))
    learn.run_learning_episode(claim, memories)
    s0 = memories.values.records()[0]
    queries = []
    retrieve = memories.values.retrieve_top_k
    memories.values.retrieve_top_k = lambda query, k: queries.append(query) or retrieve(query, k)
    detect = make_runtime(FakeChat([e["reply"] for e in detection_entries(claim)]))
    detect.detect(claim, memories)
    assert s0.state_summary == format_claim_block(claim)
    assert queries == [s0.embedding]


def _count_embeds(runtime):
    """Count the runtime's embed calls per text."""
    embedded = Counter()
    real_embed = runtime.embedder.embed

    def counting_embed(text):
        embedded[text] += 1
        return real_embed(text)

    runtime.embedder.embed = counting_embed
    return embedded
