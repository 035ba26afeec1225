"""Orchestration: the learning loop, detection with proactive correction,
trajectory curation, and SFT export.

A learning episode runs retrieve-plan-execute-evaluate, reflects when the
advantage is strictly negative, and updates the memories: the precedent and
the per-state value samples always, the reflection when there is one.
Detection pre-scores the planned strategy and allows exactly one
reflection-driven revision before execution. A batch runs its claims in
waves: every claim of a wave reads the stores as the earlier waves left them,
and the inserts of the wave's finished claims land in dataset order when it
ends, so output never depends on thread scheduling.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .agents import (
    Actor,
    Critic,
    Decoding,
    Planner,
    PreemptiveScore,
    Reflector,
    advantage,
)
from .backend import ChatProvider, Embedder
from .core import (
    Claim,
    Embedding,
    Label,
    Record,
    Step,
    Tool,
    Trajectory,
    Verdict,
    answer_verdict,
    canonical_json,
    linearize_target,
    record_id,
    serialize,
    strategy_id,
    write_record_lines,
    write_trajectories,
)
from .config import DecodingConfig, LearningConfig
from .errors import CurationError, SchemaError
from .memory import Memories, PrecedentRecord, ReflectionRecord, ValueSample
from .prompts import format_claim_block, format_state
from .tools import Toolbox

logger = logging.getLogger(__name__)

__all__ = [
    "ExpertRecord",
    "ExpertDataset",
    "RunReport",
    "VerdictRecord",
    "DetectionResult",
    "Runtime",
    "terminal_reward",
    "curate",
    "export_sft",
]


def terminal_reward(verdict: Label, gold: Label | None) -> float:
    """+1 when the verdict matches the gold label, -1 otherwise."""
    if gold is None:
        raise SchemaError("terminal reward requires a gold label")
    return 1.0 if verdict is gold else -1.0


@dataclass(frozen=True)
class ExpertRecord:
    """One curated training example: a claim and its linearized trace."""

    claim: Claim
    target: str
    advantage: float
    verdict: Label
    gold: Label


@dataclass(frozen=True)
class ExpertDataset:
    """Curated records; every member is correct and has positive advantage."""

    records: tuple[ExpertRecord, ...]

    def __post_init__(self) -> None:
        for record in self.records:
            if record.advantage <= 0:
                raise SchemaError(
                    f"expert record for claim {record.claim.id} has advantage {record.advantage}"
                )
            if record.verdict is not record.gold:
                raise SchemaError(
                    f"expert record for claim {record.claim.id} has a wrong verdict"
                )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RunReport:
    completed: int
    failed: int
    reflected: int
    mean_advantage: float | None


@dataclass(frozen=True)
class VerdictRecord(Record):
    """One line of ``verdicts.jsonl``: a detection's outcome and its audit trail."""

    claim_id: str
    verdict: Verdict
    corrected: bool
    scores: tuple[PreemptiveScore, ...]
    trajectory_id: str
    n_steps: int


@dataclass(frozen=True)
class DetectionResult:
    """Verdict plus everything worth auditing about how it was reached."""

    claim_id: str
    verdict: Verdict
    trajectory: Trajectory
    scores: tuple[PreemptiveScore, ...]
    correction: ReflectionRecord | None

    @property
    def corrected(self) -> bool:
        return self.correction is not None

    def record(self) -> VerdictRecord:
        return VerdictRecord(
            claim_id=self.claim_id,
            verdict=self.verdict,
            corrected=self.corrected,
            scores=self.scores,
            trajectory_id=self.trajectory.id,
            n_steps=len(self.trajectory.steps),
        )


class Runtime:
    """Wires the agents, toolbox, and memories into the two loops."""

    def __init__(
        self,
        chat: ChatProvider,
        embedder: Embedder,
        toolbox: Toolbox,
        templates: dict,
        config: LearningConfig,
        theta_corr: float = 0.0,
        decoding: DecodingConfig = DecodingConfig(),
    ):
        self.embedder = embedder
        self.toolbox = toolbox
        self.config = config
        self.theta_corr = theta_corr
        self.decoding_learn = Decoding(
            decoding.temperature_learn, decoding.top_p_learn, decoding.max_tokens
        )
        self.decoding_eval = Decoding(decoding.temperature_eval, 1.0, decoding.max_tokens)
        self.planner = Planner(chat, templates["planner"])
        self.actor = Actor(chat, templates["actor"])
        self.critic = Critic(chat, templates["critic"])
        self.reflector = Reflector(chat, templates["reflector"])

    # --- shared execution loop -------------------------------------------

    def _execute(
        self, claim: Claim, claim_emb: Embedding, strategy, memories: Memories, decoding: Decoding
    ) -> tuple[list[Step], Verdict]:
        pos = memories.precedents.retrieve_top_k(
            claim_emb, self.config.k_precedents_pos, positive=True
        )
        neg = memories.precedents.retrieve_top_k(
            claim_emb, self.config.k_precedents_neg, positive=False
        )
        steps: list[Step] = []
        while True:
            thought, action = self.actor.act(
                claim, steps, strategy, pos, neg, self.config.max_steps, decoding
            )
            result = self.toolbox.dispatch(action)
            steps.append(Step(thought=thought, action=action, observation=result.observation_text))
            if action.tool is Tool.GET_ANSWER and result.success:
                return steps, answer_verdict(action)

    def _fan_out(
        self, claims: Sequence[Claim], memories: Memories, run: Callable[[Claim, Memories], Any],
        what: str, wave: int, strict: bool = False,
    ) -> tuple[list[Any], list[tuple[str, str]], bool]:
        """Run the claims in waves of ``wave``: the calling thread and up to
        ``concurrency - 1`` helper threads take a wave's claims in dataset order.
        Returns the finished results and the (claim id, message) failures, in
        dataset order, and whether a KeyboardInterrupt stopped the batch. Any
        Exception fails only its own claim unless strict; an exception that
        ends the batch keeps queued claims from starting."""
        results: list[Any] = [None] * len(claims)
        errors: list[str | None] = [None] * len(claims)
        inserts: dict[int, list] = {}  # the staged inserts of each finished claim
        fatal: list[BaseException] = []

        def work(queue: deque[int], done: threading.Event) -> None:
            try:
                while True:
                    i = queue.popleft()  # IndexError once the wave is taken
                    view, pending = memories.staged()
                    try:
                        results[i] = run(claims[i], view)
                        inserts[i] = pending
                    except BaseException as exc:
                        if strict or not isinstance(exc, Exception):
                            queue.clear()
                            fatal.append(exc)
                        else:
                            logger.warning("%s failed for claim %s: %s", what, claims[i].id, exc)
                            errors[i] = str(exc)
            except IndexError:
                pass
            finally:
                done.set()

        interrupted = False
        try:
            for start in range(0, len(claims), wave):
                queue = deque(range(start, min(start + wave, len(claims))))
                done = [threading.Event() for _ in range(min(self.config.concurrency, len(queue)))]
                helpers = [threading.Thread(target=work, args=(queue, d)) for d in done[1:]]
                for thread in helpers:
                    thread.start()
                # The barrier waits on events; Ctrl-C in Thread.join can mark live threads stopped.
                try:
                    work(queue, done[0])
                    for event in done:
                        event.wait()
                finally:  # after a Ctrl-C, the helpers finish their claims
                    queue.clear()
                    for thread in helpers:
                        thread.join()
                    for i in range(start, start + wave):
                        for store, record in inserts.pop(i, ()):
                            store.insert(record)
                if fatal:
                    raise fatal[0]
        except KeyboardInterrupt:
            interrupted = True
        completed = [r for r in results if r is not None]
        return completed, [(c.id, e) for c, e in zip(claims, errors) if e is not None], interrupted

    # --- learning ----------------------------------------------------------

    def run_learning_episode(self, claim: Claim, memories: Memories) -> Trajectory:
        """One pass of the learning loop for one claim.

        Plan from retrieved reflections, execute to a verdict, have the
        critic value every state, attach the advantage, then update the
        stores. Reflection happens only for strictly negative advantage.
        """
        if claim.gold_label is None:
            raise SchemaError(f"claim {claim.id} has no gold label; learning requires one")
        decoding = self.decoding_learn
        key_text = format_claim_block(claim)
        claim_emb = self.embedder.embed(key_text)
        reflections = memories.reflections.retrieve_top_k(claim_emb, self.config.k_reflections)
        strategy = self.planner.plan(claim, reflections, decoding)
        steps, verdict = self._execute(claim, claim_emb, strategy, memories, decoding)

        # Value every state s_0 .. s_N; the advantage reads V(s_0) and V(s_1).
        # s_0 is the claim alone, so its summary is the key text and its
        # embedding the claim's, the one detection queries the values with.
        estimates = []
        for n in range(len(steps) + 1):
            summary = format_state(claim, steps[:n])
            emb = self.embedder.embed(summary) if n else claim_emb
            samples = memories.values.retrieve_top_k(emb, self.config.k_reflections)
            estimate = self.critic.estimate_value(summary, samples, decoding)
            estimates.append((summary, emb, estimate))

        r_t = terminal_reward(verdict.label, claim.gold_label)
        trajectory = Trajectory.build(claim.id, strategy, steps, verdict)
        report = advantage(
            trajectory,
            r_terminal=r_t,
            gamma=self.config.gamma,
            lam=self.config.lam,
            v_curr=estimates[0][2],
            v_next=estimates[1][2],
        )
        # The id does not cover the advantage report, so attaching it keeps the id.
        trajectory = replace(trajectory, advantage=report)
        reflection = None
        if report.advantage < 0:
            reflection = self.reflector.reflect_failure(claim, claim_emb, trajectory, decoding)

        memories.precedents.insert(
            PrecedentRecord(
                id=record_id("precedent", key_text, strategy.to_dict(), report.advantage),
                claim_text=key_text,
                strategy=strategy,
                advantage=report.advantage,
                embedding=claim_emb,
            )
        )
        for summary, emb, value in estimates:
            memories.values.insert(
                ValueSample(
                    id=record_id("value", summary, value),
                    state_summary=summary,
                    value=value,
                    embedding=emb,
                )
            )
        if reflection is not None:
            memories.reflections.insert(reflection)
        return trajectory

    def run_learning(
        self,
        claims: Sequence[Claim],
        memories: Memories,
        out_dir: str | Path,
        strict: bool = False,
        config_hash: str = "",
    ) -> RunReport:
        """Run the learning loop over a dataset and write its artifacts.

        Writes trajectories.jsonl (dataset order), failures.jsonl, and a
        manifest. A failed episode is recorded and skipped unless strict.
        """
        if not claims:
            raise SchemaError("empty dataset")
        out_dir = Path(out_dir)
        started = time.perf_counter()
        completed, failures, interrupted = self._fan_out(
            claims, memories, self.run_learning_episode, "episode", self.config.concurrency, strict
        )
        # An interrupted batch still writes what finished, with a partial manifest.
        write_trajectories(out_dir / "trajectories.jsonl", completed)
        write_record_lines(
            out_dir / "failures.jsonl",
            (canonical_json({"claim_id": cid, "error": msg}) for cid, msg in failures),
        )
        advantages = [t.advantage.advantage for t in completed if t.advantage is not None]
        report = RunReport(
            completed=len(completed),
            failed=len(failures),
            reflected=sum(1 for a in advantages if a < 0),
            mean_advantage=sum(advantages) / len(advantages) if advantages else None,
        )
        manifest = {
            "config_hash": config_hash,
            "counts": asdict(report),
            "interrupted": interrupted,
            "duration_ms": (time.perf_counter() - started) * 1000.0,
        }
        write_record_lines(out_dir / "manifest.json", [canonical_json(manifest)])
        if interrupted:
            raise KeyboardInterrupt
        return report

    # --- detection -----------------------------------------------------------

    def detect(
        self, claim: Claim, memories: Memories, online_memory: bool = False
    ) -> DetectionResult:
        """Detect with proactive correction: plan, pre-score, revise at most once.

        Memories are read-only here unless online_memory is set, in which
        case correction reflections are kept for later claims.
        """
        decoding = self.decoding_eval
        claim_emb = self.embedder.embed(format_claim_block(claim))
        reflections = memories.reflections.retrieve_top_k(claim_emb, self.config.k_reflections)
        strategy = self.planner.plan(claim, reflections, decoding)
        samples = memories.values.retrieve_top_k(claim_emb, self.config.k_reflections)

        first = self.critic.preemptive_score(claim, strategy, samples, self.theta_corr, decoding)
        scores = [first]
        correction = None
        final = strategy
        if not first.approved:
            correction = self.reflector.reflect_strategy(
                claim, claim_emb, strategy, first, decoding
            )
            if online_memory:
                memories.reflections.insert(correction)
            final = self.planner.plan(
                claim, [correction], decoding, revision_of=strategy_id(strategy)
            )
            # The revision is executed regardless of its re-score; the
            # re-score is still recorded for the audit trail.
            scores.append(
                self.critic.preemptive_score(claim, final, samples, self.theta_corr, decoding)
            )

        steps, verdict = self._execute(claim, claim_emb, final, memories, decoding)
        trajectory = Trajectory.build(claim.id, final, steps, verdict)
        return DetectionResult(
            claim_id=claim.id,
            verdict=verdict,
            trajectory=trajectory,
            scores=tuple(scores),
            correction=correction,
        )

    def run_detection(
        self,
        claims: Sequence[Claim],
        memories: Memories,
        out_path: str | Path | None = None,
        online_memory: bool = False,
    ) -> tuple[list[DetectionResult], list[tuple[str, str]]]:
        """Detect over a batch; failures are recorded and the batch continues."""
        if not claims:
            raise SchemaError("empty dataset")
        # Read-only detection is one wave: no claim waits for a straggler.
        wave = self.config.concurrency if online_memory else len(claims)
        completed, failures, interrupted = self._fan_out(
            claims, memories, partial(self.detect, online_memory=online_memory), "detection", wave
        )
        # An interrupted batch still writes the verdicts that finished.
        if out_path is not None:
            write_record_lines(out_path, (serialize(r.record()) for r in completed))
        if interrupted:
            raise KeyboardInterrupt
        return completed, failures


def curate(trajectories: Iterable[Trajectory], claims: dict[str, Claim]) -> ExpertDataset:
    """Filter finished trajectories down to the expert training set.

    Keeps those with strictly positive advantage whose verdict matches the
    gold label; duplicates (same content-addressed id) collapse to the first.
    """
    kept: list[ExpertRecord] = []
    seen: set[str] = set()
    for trajectory in trajectories:
        if trajectory.id in seen:
            continue
        seen.add(trajectory.id)
        if trajectory.advantage is None:
            raise CurationError(f"trajectory {trajectory.id} has no advantage report")
        if trajectory.verdict is None:
            raise CurationError(f"trajectory {trajectory.id} has no verdict")
        claim = claims.get(trajectory.claim_id)
        if claim is None:
            raise CurationError(
                f"trajectory {trajectory.id} references unknown claim {trajectory.claim_id}"
            )
        if claim.gold_label is None:
            raise CurationError(f"claim {claim.id} has no gold label")
        if trajectory.advantage.advantage > 0 and trajectory.verdict.label is claim.gold_label:
            kept.append(
                ExpertRecord(
                    claim=claim,
                    target=linearize_target(trajectory),
                    advantage=trajectory.advantage.advantage,
                    verdict=trajectory.verdict.label,
                    gold=claim.gold_label,
                )
            )
    if not kept:
        logger.warning("curation kept no trajectories")
    return ExpertDataset(records=tuple(kept))


def export_sft(dataset: ExpertDataset, path: str | Path) -> int:
    """Write prompt/completion training records; returns the record count.

    The prompt is the claim rendered exactly as the actor sees it, so
    training inputs match inference inputs.
    """
    lines = []
    for record in dataset.records:
        if not record.target:
            raise SchemaError(f"record for claim {record.claim.id} has an empty target")
        lines.append(
            canonical_json(
                {
                    "prompt": format_claim_block(record.claim),
                    "completion": record.target,
                    "meta": {"advantage": record.advantage, "claim_id": record.claim.id},
                }
            )
        )
    return write_record_lines(path, lines)
