"""Learning and detection loops: memory deltas, curation, export, branches."""

from __future__ import annotations

import logging
import random
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leap.backend import HashingEmbedder, ScriptedProvider, ScriptEntry
from leap.core import (
    Action,
    AdvantageReport,
    Label,
    Step,
    Tool,
    Trajectory,
    Verdict,
    advantage_value,
    linearize_target,
)
from leap.errors import CurationError, SchemaError
from leap.loops import ExpertDataset, ExpertRecord, curate, export_sft, terminal_reward
from leap.memory import Memories, PrecedentRecord
from leap.prompts import format_claim_block

from conftest import (
    DIM,
    FakeChat,
    actor_reply,
    detection_entries,
    episode_entries,
    make_claim,
    make_runtime,
    make_strategy,
    reflection_reply,
    strategy_reply,
    wave_entries,
)


class SleepyChat:
    """Chat provider that sleeps 0-2 ms before each reply, the delay seeded by
    the run's seed and the request, so thread scheduling varies run to run."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.seed = seed

    def complete(self, request):
        time.sleep(random.Random(f"{self.seed}:{request.text()}").uniform(0.0, 0.002))
        return self.inner.complete(request)


class RecordingChat:
    """Chat provider that records the text of every request it forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.texts = []

    def complete(self, request):
        self.texts.append(request.text())
        return self.inner.complete(request)


def fresh_memories(cap=None):
    return Memories.fresh(DIM, cap=cap)


def episode_replies(**kwargs):
    """Flat reply list for FakeChat, in the order the episode consumes them."""
    claim = kwargs.pop("claim", make_claim(1))
    return [e["reply"] for e in episode_entries(claim, **kwargs)]


class TestTerminalReward:
    def test_match(self):
        assert terminal_reward(Label.HALLUCINATION, Label.HALLUCINATION) == 1.0

    def test_mismatch(self):
        assert terminal_reward(Label.HALLUCINATION, Label.NOT_HALLUCINATION) == -1.0

    def test_symmetric_under_swap(self):
        for a in Label:
            for b in Label:
                assert terminal_reward(a, b) == terminal_reward(b, a)

    def test_missing_gold(self):
        with pytest.raises(SchemaError, match="gold"):
            terminal_reward(Label.HALLUCINATION, None)


class TestLearningEpisode:
    def run_one(self, claim, memories, replies, **runtime_kwargs):
        runtime = make_runtime(FakeChat(replies), **runtime_kwargs)
        return runtime.run_learning_episode(claim, memories)

    def test_positive_advantage_updates_actor_and_critic_memories_only(self):
        claim = make_claim(1, gold=Label.HALLUCINATION)
        memories = fresh_memories()
        # one-step episode, verdict matches gold: A = 1 + 0.5 - 0.2 = +1.3
        trajectory = self.run_one(
            claim, memories, episode_replies(claim=claim, verdict="Hallucination", values=(0.2, 0.5))
        )
        assert trajectory.advantage.advantage == pytest.approx(1.3)
        assert len(memories.precedents) == 1
        assert len(memories.values) == len(trajectory.steps) + 1
        assert len(memories.reflections) == 0

    def test_negative_advantage_adds_exactly_one_reflection(self):
        claim = make_claim(2, gold=Label.NOT_HALLUCINATION)
        memories = fresh_memories()
        trajectory = self.run_one(
            claim,
            memories,
            episode_replies(
                claim=claim, verdict="Hallucination", values=(0.5, 0.2), reflection=True
            ),
        )
        assert trajectory.advantage.advantage < 0
        assert len(memories.reflections) == 1
        assert len(memories.precedents) == 1
        assert len(memories.values) == len(trajectory.steps) + 1

    def test_zero_advantage_skips_reflection_but_lands_in_negatives(self):
        claim = make_claim(3, gold=Label.HALLUCINATION)
        memories = fresh_memories()
        # R_T=+1, gamma=1, v1=0.0, v0=1.0, no tool calls: A is exactly 0.0
        trajectory = self.run_one(
            claim, memories, episode_replies(claim=claim, verdict="Hallucination", values=(1.0, 0.0))
        )
        assert trajectory.advantage.advantage == 0.0
        assert len(memories.reflections) == 0
        query = trajectory and memories.precedents.records()[0].embedding
        negatives = memories.precedents.retrieve_top_k(query, 5, positive=False)
        assert [r.claim_text for r in negatives] == [format_claim_block(claim)]

    def test_multi_step_episode_counts_states_and_tools(self):
        claim = make_claim(4, gold=Label.HALLUCINATION)
        memories = fresh_memories()
        trajectory = self.run_one(
            claim,
            memories,
            episode_replies(
                claim=claim,
                step_actions=('web_search("query-004 facts")', 'calculator("2+2")'),
                verdict="Hallucination",
                values=(0.1, 0.2, 0.3, 0.4),
            ),
            search_fixtures={"query-004 facts": "[1] result"},
        )
        assert len(trajectory.steps) == 3
        assert trajectory.advantage.n_tools == 2
        assert trajectory.steps[0].observation == "[1] result"
        assert trajectory.steps[1].observation == "4"
        assert len(memories.values) == 4
        # v_curr = V(s_0), v_next = V(s_1)
        assert trajectory.advantage.v_curr == 0.1
        assert trajectory.advantage.v_next == 0.2
        assert trajectory.advantage.advantage == pytest.approx(
            advantage_value(1.0, 1.0, 0.2, 0.1, 0.1, 2)
        )

    def test_failed_tool_becomes_observation_and_episode_continues(self):
        claim = make_claim(5, gold=Label.HALLUCINATION)
        trajectory = self.run_one(
            claim,
            fresh_memories(),
            episode_replies(
                claim=claim,
                step_actions=('web_search("nothing known")',),
                values=(0.1, 0.1, 0.1),
            ),
        )
        assert trajectory.steps[0].observation == "SEARCH_ERROR: no fixture"
        assert trajectory.verdict is not None

    def test_invalid_get_answer_label_keeps_looping(self):
        claim = make_claim(6, gold=Label.HALLUCINATION)
        replies = [
            strategy_reply(),
            actor_reply("conclude", 'get_answer("probably wrong")'),
            actor_reply("fix the label", 'get_answer("Hallucination", "done")'),
            "0.1",
            "0.1",
            "0.1",
        ]
        trajectory = self.run_one(claim, fresh_memories(), replies)
        assert len(trajectory.steps) == 2
        assert trajectory.steps[0].observation.startswith("TOOL_ERROR")
        assert trajectory.verdict.label is Label.HALLUCINATION

    def test_max_steps_forces_conservative_terminal(self):
        claim = make_claim(7, gold=Label.NOT_HALLUCINATION)
        replies = [
            strategy_reply(),
            actor_reply("s1", 'calculator("1+1")'),
            actor_reply("s2", 'calculator("2+2")'),
            # forced terminal consumes no reply; then 4 values for s_0..s_3
            "0.1",
            "0.1",
            "0.1",
            "0.1",
            reflection_reply(),
        ]
        trajectory = self.run_one(claim, fresh_memories(), replies, max_steps=3)
        assert len(trajectory.steps) == 3
        last = trajectory.steps[-1]
        assert last.action == Action(Tool.GET_ANSWER, ("Hallucination", "MAX_STEPS"))
        assert trajectory.verdict == Verdict(Label.HALLUCINATION, "MAX_STEPS")

    def test_learning_requires_gold_label(self):
        claim = make_claim(8, gold=None)
        with pytest.raises(SchemaError, match="gold"):
            self.run_one(claim, fresh_memories(), [])


class TestRunLearning:
    def claims(self, n, gold=Label.HALLUCINATION):
        return [make_claim(i, gold=gold) for i in range(n)]

    def script(self, claims):
        entries = []
        for claim in claims:
            entries.extend(
                episode_entries(claim=claim, verdict="Hallucination", values=(0.2, 0.5))
            )
        return [ScriptEntry(**e) for e in entries]

    def test_empty_dataset(self, tmp_path):
        runtime = make_runtime(FakeChat([]))
        with pytest.raises(SchemaError, match="empty dataset"):
            runtime.run_learning([], fresh_memories(), tmp_path)

    def test_rerun_is_byte_identical(self, tmp_path):
        claims = self.claims(4)
        outputs = []
        for run in ("a", "b"):
            provider = ScriptedProvider(self.script(claims))
            runtime = make_runtime(provider, concurrency=1)
            memories = fresh_memories()
            out = tmp_path / run
            report = runtime.run_learning(claims, memories, out)
            assert report.completed == 4 and report.failed == 0
            memories.persist(out / "memory")
            outputs.append(
                {
                    "trajectories": (out / "trajectories.jsonl").read_bytes(),
                    "reflections": (out / "memory" / "reflections.jsonl").read_bytes(),
                    "precedents": (out / "memory" / "precedents.jsonl").read_bytes(),
                    "values": (out / "memory" / "values.jsonl").read_bytes(),
                }
            )
        assert outputs[0] == outputs[1]

    def learn_bytes(self, out, claims, concurrency, chat=lambda provider: provider):
        """trajectories.jsonl and the six store files of one learning run, by name.

        Replies are keyed by claim, so no byte depends on what a claim
        retrieved; the store files show the order the records landed in.
        """
        provider = ScriptedProvider([ScriptEntry(**e) for e in wave_entries(claims)])
        runtime = make_runtime(chat(provider), concurrency=concurrency)
        memories = fresh_memories(cap=10)  # the values store evicts
        report = runtime.run_learning(claims, memories, out)
        assert report.completed == len(claims)
        memories.persist(out / "memory")
        files = [out / "trajectories.jsonl", *sorted((out / "memory").iterdir())]
        return {path.name: path.read_bytes() for path in files}

    def test_wave_output_is_byte_identical_at_every_concurrency(self, tmp_path):
        claims = self.claims(7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            runs = [self.learn_bytes(tmp_path / str(c), claims, c) for c in (1, 2, 3, 4)]
        finally:
            sys.setswitchinterval(interval)
        assert len(runs[0]) == 7
        assert all(run == runs[0] for run in runs[1:])

    @settings(max_examples=30, deadline=None)
    @given(
        concurrency=st.integers(1, 5),
        n_claims=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wave_output_never_depends_on_concurrency_or_timing(
        self, concurrency, n_claims, seed
    ):
        claims = self.claims(n_claims)
        with tempfile.TemporaryDirectory() as tmp:
            serial = self.learn_bytes(Path(tmp) / "serial", claims, 1)
            waves = self.learn_bytes(
                Path(tmp) / "waves", claims, concurrency, lambda p: SleepyChat(p, seed)
            )
        assert waves == serial

    def test_wave_claims_read_the_stores_as_earlier_waves_left_them(self, tmp_path):
        claims = self.claims(2)
        entries = episode_entries(claims[0], verdict="Not Hallucination", values=(0.1, 0.2))
        entries.append(
            {"claim_key": claims[0].query, "reply": reflection_reply(diagnosis="claim zero erred")}
        )
        entries += episode_entries(claims[1], values=(0.1, 0.2))
        quoted = {}
        for concurrency in (1, 2):
            chat = RecordingChat(ScriptedProvider([ScriptEntry(**e) for e in entries]))
            runtime = make_runtime(chat, concurrency=concurrency)
            episode, first_done = runtime.run_learning_episode, threading.Event()

            def ordered_episode(claim, memories):
                # Claim 1 starts only once claim 0 has finished, in either run.
                if claim is claims[1]:
                    assert first_done.wait(5)
                trajectory = episode(claim, memories)
                first_done.set()
                return trajectory

            runtime.run_learning_episode = ordered_episode
            report = runtime.run_learning(claims, fresh_memories(), tmp_path / str(concurrency))
            assert (report.completed, report.reflected) == (2, 1)
            planner = next(text for text in chat.texts if claims[1].query in text)
            quoted[concurrency] = "claim zero erred" in planner
        # At concurrency 2 both claims are one wave, so claim 0's reflection
        # lands only after claim 1 has planned.
        assert quoted == {1: True, 2: False}

    def test_failed_episode_is_recorded_and_skipped(self, tmp_path):
        claims = self.claims(3)
        entries = []
        entries.extend(episode_entries(claim=claims[0], values=(0.2, 0.5)))
        # claim 1: two malformed planner replies -> episode fails
        entries.append({"claim_key": claims[1].query, "reply": "not a strategy"})
        entries.append({"claim_key": claims[1].query, "reply": "still not"})
        entries.extend(episode_entries(claim=claims[2], values=(0.2, 0.5)))
        provider = ScriptedProvider([ScriptEntry(**e) for e in entries])
        runtime = make_runtime(provider, concurrency=1)
        report = runtime.run_learning(claims, fresh_memories(), tmp_path)
        assert (report.completed, report.failed) == (2, 1)
        failures = (tmp_path / "failures.jsonl").read_text()
        assert claims[1].id in failures

    def test_strict_mode_raises(self, tmp_path):
        claims = self.claims(1)
        provider = ScriptedProvider(
            [
                ScriptEntry(reply="junk", claim_key=claims[0].query),
                ScriptEntry(reply="junk", claim_key=claims[0].query),
            ]
        )
        runtime = make_runtime(provider, concurrency=1)
        with pytest.raises(Exception):
            runtime.run_learning(claims, fresh_memories(), tmp_path, strict=True)

    def test_interrupt_drains_with_partial_manifest(self, tmp_path):
        import json

        claims = self.claims(3)

        class InterruptingChat:
            def __init__(self, replies):
                self.replies = list(replies)

            def complete(self, request):
                if not self.replies:
                    raise KeyboardInterrupt
                return self.replies.pop(0)

        replies = [e["reply"] for e in episode_entries(claim=claims[0], values=(0.2, 0.5))]
        runtime = make_runtime(InterruptingChat(replies), concurrency=1)
        with pytest.raises(KeyboardInterrupt):
            runtime.run_learning(claims, fresh_memories(), tmp_path)
        assert len((tmp_path / "trajectories.jsonl").read_text().splitlines()) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["counts"]["completed"] == 1


class TestDetect:
    def test_approved_strategy_executes_unrevised(self):
        claim = make_claim(1, gold=None)
        replies = [e["reply"] for e in detection_entries(claim, score=0.4)]
        runtime = make_runtime(FakeChat(replies))
        result = runtime.detect(claim, fresh_memories())
        assert result.corrected is False
        assert result.scores[0].approved is True
        assert len(result.scores) == 1
        assert result.trajectory.strategy.revision_of is None
        assert result.verdict.label is Label.NOT_HALLUCINATION

    def test_rejected_strategy_is_reflected_and_revised_once(self):
        claim = make_claim(2, gold=None)
        replies = [
            e["reply"]
            for e in detection_entries(claim, score=-0.2, corrected=True, rescore=0.6)
        ]
        runtime = make_runtime(FakeChat(replies))
        result = runtime.detect(claim, fresh_memories())
        assert result.corrected is True
        assert result.correction is not None
        assert len(result.scores) == 2
        assert result.scores[0].approved is False
        assert result.scores[1].approved is True
        initial_ref = result.scores[0].strategy_ref
        assert result.trajectory.strategy.revision_of == initial_ref

    def test_revision_executes_even_if_rescored_low(self):
        claim = make_claim(3, gold=None)
        replies = [
            e["reply"]
            for e in detection_entries(claim, score=-0.5, corrected=True, rescore=-0.4)
        ]
        runtime = make_runtime(FakeChat(replies))
        result = runtime.detect(claim, fresh_memories())
        assert result.corrected is True
        assert result.scores[1].approved is False
        assert result.verdict is not None

    def test_memories_read_only_by_default(self):
        claim = make_claim(4, gold=None)
        memories = fresh_memories()
        replies = [e["reply"] for e in detection_entries(claim, score=-0.2, corrected=True)]
        make_runtime(FakeChat(replies)).detect(claim, memories)
        assert len(memories.reflections) == 0

    def test_zero_advantage_precedent_reaches_actor_only_as_negative(self):
        claim = make_claim(6, gold=None)
        memories = fresh_memories()
        embedding = HashingEmbedder(DIM, seed=0).embed("an earlier claim")
        for i, adv in enumerate([0.5, 0.0, -0.0, 5e-324, -0.2]):
            memories.precedents.insert(
                PrecedentRecord(
                    id=f"p{i}", claim_text="an earlier claim", strategy=make_strategy(),
                    advantage=adv, embedding=embedding,
                )
            )
        replies = [e["reply"] for e in detection_entries(claim, score=0.4)]
        runtime = make_runtime(FakeChat(replies), k_precedents_pos=5, k_precedents_neg=5)
        seen = []
        act = runtime.actor.act

        def spy(claim, steps, strategy, pos, neg, *rest):
            seen.append(([r.id for r in pos], [r.id for r in neg]))
            return act(claim, steps, strategy, pos, neg, *rest)

        runtime.actor.act = spy
        runtime.detect(claim, memories)
        assert seen == [(["p0", "p3"], ["p1", "p2", "p4"])]

    def test_online_memory_keeps_corrections(self):
        claim = make_claim(5, gold=None)
        memories = fresh_memories()
        replies = [e["reply"] for e in detection_entries(claim, score=-0.2, corrected=True)]
        make_runtime(FakeChat(replies)).detect(claim, memories, online_memory=True)
        assert len(memories.reflections) == 1

    def test_empty_batch(self):
        with pytest.raises(SchemaError, match="^empty dataset$"):
            make_runtime(FakeChat([])).run_detection([], fresh_memories())

    def test_batch_records_failures_and_continues(self, tmp_path):
        claims = [make_claim(i, gold=None) for i in range(3)]
        entries = []
        entries.extend(detection_entries(claims[0], score=0.4))
        entries.append({"claim_key": claims[1].query, "reply": "junk"})
        entries.append({"claim_key": claims[1].query, "reply": "junk"})
        entries.extend(detection_entries(claims[2], score=0.4))
        provider = ScriptedProvider([ScriptEntry(**e) for e in entries])
        runtime = make_runtime(provider, concurrency=1)
        out = tmp_path / "verdicts.jsonl"
        results, failures = runtime.run_detection(claims, fresh_memories(), out_path=out)
        assert len(results) == 2
        assert [f[0] for f in failures] == [claims[1].id]
        assert len(out.read_text().splitlines()) == 2


def finished_trajectory(claim, advantage_sign, correct, n=0):
    steps = [Step("t", Action(Tool.WEB_SEARCH, (f"q{i}",)), "o") for i in range(n)]
    gold = claim.gold_label
    label = gold if correct else (
        Label.HALLUCINATION if gold is Label.NOT_HALLUCINATION else Label.NOT_HALLUCINATION
    )
    steps.append(Step("t", Action(Tool.GET_ANSWER, (label.value,)), label.value))
    report = None
    if advantage_sign is not None:
        report = AdvantageReport(
            r_terminal=advantage_sign,
            gamma=0.0,
            v_next=0.0,
            v_curr=0.0,
            lam=0.0,
            n_tools=n,
            advantage=advantage_value(advantage_sign, 0.0, 0.0, 0.0, 0.0, n),
        )
    return Trajectory.build(claim.id, make_strategy(), steps, Verdict(label), report)


class TestCurate:
    def test_keeps_only_positive_and_correct(self):
        claims = {c.id: c for c in (make_claim(i) for i in range(3))}
        trajectories = [
            finished_trajectory(claims["claim-000"], +0.5, correct=True),
            finished_trajectory(claims["claim-001"], +0.5, correct=False),
            finished_trajectory(claims["claim-002"], -0.2, correct=True),
        ]
        dataset = curate(trajectories, claims)
        assert len(dataset) == 1
        assert dataset.records[0].claim.id == "claim-000"

    def test_zero_advantage_dropped(self):
        claim = make_claim(1)
        dataset = curate([finished_trajectory(claim, 0.0, correct=True)], {claim.id: claim})
        assert len(dataset) == 0

    def test_all_dropped_warns_but_succeeds(self, caplog):
        claim = make_claim(1)
        with caplog.at_level(logging.WARNING):
            dataset = curate([finished_trajectory(claim, -1.0, correct=True)], {claim.id: claim})
        assert len(dataset) == 0
        assert any("kept no trajectories" in r.message for r in caplog.records)

    def test_missing_advantage_names_the_trajectory(self):
        claim = make_claim(1)
        trajectory = finished_trajectory(claim, None, correct=True)
        with pytest.raises(CurationError, match=trajectory.id):
            curate([trajectory], {claim.id: claim})

    def test_missing_verdict_names_the_trajectory(self):
        claim = make_claim(1)
        trajectory = replace(finished_trajectory(claim, 0.5, correct=True), verdict=None)
        with pytest.raises(CurationError, match=f"^trajectory {trajectory.id} has no verdict$"):
            curate([trajectory], {claim.id: claim})

    def test_claim_without_gold_label(self):
        claim = make_claim(1)
        trajectory = finished_trajectory(claim, 0.5, correct=True)
        unlabeled = replace(claim, gold_label=None)
        with pytest.raises(CurationError, match=f"^claim {claim.id} has no gold label$"):
            curate([trajectory], {claim.id: unlabeled})

    def test_unknown_claim(self):
        claim = make_claim(1)
        with pytest.raises(CurationError, match="unknown claim"):
            curate([finished_trajectory(claim, 0.5, correct=True)], {})

    def test_duplicate_ids_collapse(self):
        claim = make_claim(1)
        t = finished_trajectory(claim, 0.5, correct=True)
        dataset = curate([t, t], {claim.id: claim})
        assert len(dataset) == 1

    def test_dataset_invariants_enforced(self):
        claim = make_claim(1)
        with pytest.raises(SchemaError):
            ExpertDataset(
                records=(
                    ExpertRecord(
                        claim=claim,
                        target="Thought: t\nAction: get_answer(\"Hallucination\")\n",
                        advantage=-1.0,
                        verdict=Label.HALLUCINATION,
                        gold=Label.HALLUCINATION,
                    ),
                )
            )

    def test_dataset_rejects_a_wrong_verdict(self):
        claim = make_claim(1)
        record = ExpertRecord(
            claim=claim,
            target="Thought: t\nAction: get_answer(\"Not Hallucination\")\n",
            advantage=0.5,
            verdict=Label.NOT_HALLUCINATION,
            gold=Label.HALLUCINATION,
        )
        with pytest.raises(SchemaError, match=f"^expert record for claim {claim.id} has a wrong verdict$"):
            ExpertDataset(records=(record,))


class TestExportSft:
    def dataset(self, count=3):
        records = []
        for i in range(count):
            claim = make_claim(i)
            trajectory = finished_trajectory(claim, 0.5, correct=True, n=1)
            records.append(
                ExpertRecord(
                    claim=claim,
                    target=linearize_target(trajectory),
                    advantage=0.5,
                    verdict=claim.gold_label,
                    gold=claim.gold_label,
                )
            )
        return ExpertDataset(records=tuple(records))

    def test_count_equals_lines_and_completions_reparse(self, tmp_path):
        import json

        from leap.agents import parse_react_sequence

        path = tmp_path / "sft.jsonl"
        count = export_sft(self.dataset(), path)
        lines = path.read_text().splitlines()
        assert count == 3 == len(lines)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"prompt", "completion", "meta"}
            assert record["prompt"].startswith("Query: ")
            pairs = parse_react_sequence(record["completion"])
            assert pairs[-1][1].tool is Tool.GET_ANSWER
            assert set(record["meta"]) == {"advantage", "claim_id"}

    def test_roundtrip_reads_identical(self, tmp_path):
        import json

        path = tmp_path / "sft.jsonl"
        export_sft(self.dataset(), path)
        first = [json.loads(l) for l in path.read_text().splitlines()]
        export_sft(self.dataset(), path)
        second = [json.loads(l) for l in path.read_text().splitlines()]
        assert first == second

    def test_empty_target_is_an_export_error(self, tmp_path):
        claim = make_claim(1)
        record = ExpertRecord(
            claim=claim, target="", advantage=0.5, verdict=claim.gold_label, gold=claim.gold_label
        )
        with pytest.raises(SchemaError, match="empty target"):
            export_sft(ExpertDataset(records=(record,)), tmp_path / "sft.jsonl")
