"""Workload definitions and the seeded input generator.

Every input the program sees is generated here from a workload name and a
seed: the claim file, the per-claim reply scripts of the model stand-in, the
search fixtures, the preloaded memory stores and the expected outcome of every
claim (``truth.json``), which the output checks compare against.

Run as a script it writes one workload's inputs into a directory; the
benchmark does this in a child process so that generation costs neither set-up
time nor peak memory of the measured process:

    python3 perfbench/scenario.py --workload learn-fresh64 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

THETA_CORR = 0.0
GAMMA = 1.0
LAM = 0.1
EMBED_SEED = 0
TOKEN_PATTERN = r"ref:[0-9a-f]{12}"
# Every workload runs on DEFAULT_SEED unless told otherwise; a claimed gain is
# confirmed on CONFIRM_SEED, which was not used while the change was written.
DEFAULT_SEED = 1
CONFIRM_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "learn" | "detect"
    dim: int
    cap: int
    preload: bool  # stores start full at the cap, loaded from disk
    concurrency: int
    batch: int  # claims per batch call; every repetition runs the same batch
    chat_latency_s: float
    embed_latency_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn-cap1536", "learn", 1536, 1400, True, 1, 18, 0.0, 0.0),
        Workload("learn-fresh64", "learn", 64, 200, False, 1, 150, 0.0, 0.0),
        Workload("detect-lat64", "detect", 64, 1400, True, 2, 30, 0.050, 0.010),
    )
}

_WORDS = (
    "river mountain capital museum treaty census orbit harbor glacier sonnet "
    "engine charter valley island bridge festival archive senate province canal "
    "tower dynasty crater summit library garrison meridian estuary plateau "
    "observatory cathedral railway reservoir peninsula lighthouse monastery "
    "vineyard quarry fortress pavilion aqueduct basilica citadel delta lagoon"
).split()

_TOOLS = ("calculator", "word_count", "split_text", "match", "web_search")

# Every this-many-th tool step divides by zero, so dispatch's failure path
# (an error observation, not an exception) runs on a fixed share of calls.
FAILING_TOOL_EVERY = 16
# Every this-many-th actor reply is malformed, so the reprompt path runs.
MALFORMED_ACTOR_EVERY = 10


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    return " ".join(words).capitalize() + "."


def _text(rng: random.Random, n_chars: int) -> str:
    parts: list[str] = []
    length = 0
    while length < n_chars:
        s = _sentence(rng, rng.randint(4, 10))
        parts.append(s)
        length += len(s) + 1
    return " ".join(parts)[:n_chars].rstrip() or "Archive."


def _q(text: str) -> str:
    return json.dumps(text, ensure_ascii=False)


# --- scripted replies, following the scenario shapes of the test suite -------


def strategy_reply(problem_type="factual", strategy="verify the key fact", plan=("search the subject",)):
    lines = [f"TYPE: {problem_type}", f"STRATEGY: {strategy}", "PLAN:"]
    lines.extend(f"{i}. {step}" for i, step in enumerate(plan, start=1))
    return "\n".join(lines)


def reflection_reply(
    diagnosis="the plan verified the wrong aspect",
    principles=("target the discriminating detail", "verify each sub-claim separately"),
    plan=("search the specific element of the claim",),
):
    lines = [f"DIAGNOSIS: {diagnosis}", "PRINCIPLES:"]
    lines.extend(f"{i}. {p}" for i, p in enumerate(principles, start=1))
    lines.append("REVISED_STRATEGY:")
    lines.append(strategy_reply(problem_type="refined", strategy="revised approach", plan=plan))
    return "\n".join(lines)


def actor_reply(thought: str, action_text: str) -> str:
    return f"Thought: {thought}\nAction: {action_text}"


# How the actor writes each gold label in get_answer.
_SAID = {"Hallucination": "Hallucination", "NotHallucination": "Not Hallucination"}

MALFORMED_ACTOR_REPLY = "Thought: I should look this up first\nI will search for the subject next."


class _Generator:
    def __init__(self, workload: Workload, seed: int):
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.actor_turns = 0
        self.tool_steps = 0
        self.tool_offset = self.rng.randrange(len(_TOOLS))
        self.search: dict[str, str] = {}

    def claim(self, i: int) -> dict:
        rng = self.rng
        # Lengths follow a golden-ratio sequence over 100..600 chars, so every
        # seed's batch has the same spread of lengths and only texts differ.
        total = 100 + int(500 * ((i * 0.6180339887498949 + 0.5) % 1.0))
        token = "ref:" + "".join(rng.choice("0123456789abcdef") for _ in range(12))
        head = f"[{token}] Is it true that "
        q_len = max(len(head) + 20, total * 3 // 10)
        query = head + _text(rng, q_len - len(head)).lower()
        response = _text(rng, max(20, total - len(query)))
        gold = "Hallucination" if i % 2 == 0 else "NotHallucination"
        return {"id": f"claim-{i:05d}", "query": query, "response": response,
                "gold_label": gold, "token": token}

    def tool_action(self, claim: dict) -> str:
        rng = self.rng
        self.tool_steps += 1
        if self.tool_steps % FAILING_TOOL_EVERY == 0:
            return f'calculator("{rng.randint(1, 99)} / 0")'
        tool = _TOOLS[(self.tool_steps + self.tool_offset) % len(_TOOLS)]
        sentences = claim["response"].split(". ")
        if tool == "calculator":
            a, b, c = rng.randint(1, 999), rng.randint(1, 99), rng.randint(2, 9)
            return f'calculator("({a} + {b}) * {c} - {a} / {c}")'
        if tool == "word_count":
            return f"word_count({rng.randint(5, 60)}, {_q(claim['response'])})"
        if tool == "split_text":
            return f"split_text({_q(claim['response'])})"
        query = " ".join(claim["query"].split()[5:11]) or "archive"
        if query not in self.search:
            self.search[query] = _text(rng, rng.randint(120, 300))
        if tool == "web_search":
            return f"web_search({_q(query)})"
        return f"match({_q(rng.choice(sentences))}, {_q(self.search[query])})"

    def actor_turn(self, thought: str, action: str) -> list[str]:
        self.actor_turns += 1
        replies = []
        if self.actor_turns % MALFORMED_ACTOR_EVERY == 0:
            replies.append(MALFORMED_ACTOR_REPLY)
        replies.append(actor_reply(thought, action))
        return replies

    def plan(self) -> tuple[str, ...]:
        return tuple(_sentence(self.rng, 5).rstrip(".").lower() for _ in range(self.rng.randint(1, 3)))

    def learn_episode(self, index: int, claim: dict) -> tuple[list[str], dict]:
        """Replies for one learning episode; one claim in three is answered wrongly."""
        rng = self.rng
        n_tools = index // 3 % 3
        wrong = index % 3 == 2
        gold = claim["gold_label"]
        verdict = gold if not wrong else ("NotHallucination" if gold == "Hallucination" else "Hallucination")
        replies = [strategy_reply(plan=self.plan())]
        for k in range(n_tools):
            replies += self.actor_turn(f"working on step {k + 1}", self.tool_action(claim))
        replies += self.actor_turn(
            "enough evidence gathered", f'get_answer("{_SAID[verdict]}", "based on the evidence")')
        # v(s_0) in [-0.3, 0.3] and v(s_1) in [0, 0.6] keep the advantage's sign
        # equal to the terminal reward's for up to two tool calls.
        values = [round(rng.uniform(-0.3, 0.3), 2), round(rng.uniform(0.0, 0.6), 2)]
        values += [round(rng.uniform(-1.0, 1.0), 2) for _ in range(n_tools)]
        replies += [repr(v) for v in values]
        if wrong:
            replies.append(reflection_reply(plan=self.plan()))
        truth = {"id": claim["id"], "verdict": verdict, "n_tools": n_tools,
                 "v_curr": values[0], "v_next": values[1],
                 "r_terminal": -1.0 if wrong else 1.0, "reflected": wrong}
        return replies, truth

    def detect_episode(self, index: int, claim: dict) -> tuple[list[str], dict]:
        """Replies for one detection; half the claims score below theta_corr."""
        rng = self.rng
        n_tools = index // 4 % 3
        corrected = index % 4 in (1, 2)
        score = round(rng.uniform(-0.8, -0.05), 2) if corrected else round(rng.uniform(0.05, 0.8), 2)
        replies = [strategy_reply(plan=self.plan()), repr(score)]
        if corrected:
            revised = self.plan()
            replies.append(reflection_reply(plan=revised))
            replies.append(strategy_reply(problem_type="refined", plan=revised))
            replies.append(repr(round(rng.uniform(0.05, 0.8), 2)))
        for k in range(n_tools):
            replies += self.actor_turn(f"working on step {k + 1}", self.tool_action(claim))
        verdict = claim["gold_label"]
        replies += self.actor_turn("concluding", f'get_answer("{_SAID[verdict]}", "supported by evidence")')
        truth = {"id": claim["id"], "verdict": verdict, "n_tools": n_tools,
                 "score": score, "corrected": corrected}
        return replies, truth

    def past_texts(self, i: int) -> tuple[str, str]:
        """Key text and state summary of a synthetic earlier claim (no routing token)."""
        rng = self.rng
        query = f"[past-{i:05d}] Is it true that " + _text(rng, rng.randint(40, 160)).lower()
        response = _text(rng, rng.randint(60, 400))
        key = f"{query}\n{response}"
        summary = f"Query: {query}\nResponse: {response}"
        if rng.random() < 0.5:
            summary += f"\n\nSteps so far:\nThought: checking\nAction: web_search({_q(query[:40])})\nObservation: {_text(rng, 120)}"
        return key, summary


def _preloaded_memories(gen: _Generator, w: Workload):
    from leap.backend import HashingEmbedder
    from leap.core import VerificationStrategy
    from leap.memory import Memories, PrecedentRecord, ReflectionRecord, ValueSample, record_id

    embedder = HashingEmbedder(w.dim, seed=EMBED_SEED)
    memories = Memories.fresh(w.dim, w.cap)
    rng = gen.rng
    for i in range(w.cap):
        key, summary = gen.past_texts(i)
        key_emb = embedder.embed(key)
        strategy = VerificationStrategy(
            problem_type=rng.choice(("factual", "numeric", "temporal")),
            high_level_strategy=_sentence(rng, 8),
            plan=gen.plan(),
        )
        adv = round(rng.uniform(-1.2, 1.3), 4)
        memories.precedents.insert(PrecedentRecord(
            id=record_id("precedent", key, strategy.to_dict(), adv),
            claim_text=key, strategy=strategy, advantage=adv, embedding=key_emb))
        value = round(rng.uniform(-1.0, 1.0), 2)
        memories.values.insert(ValueSample(
            id=record_id("value", summary, value),
            state_summary=summary, value=value, embedding=embedder.embed(summary)))
        revised = VerificationStrategy(problem_type="refined", high_level_strategy="revised approach",
                                       plan=gen.plan())
        principles = (_sentence(rng, 6), _sentence(rng, 6))
        diagnosis = _sentence(rng, 9)
        memories.reflections.insert(ReflectionRecord(
            id=record_id("reflection", key, diagnosis, list(principles), revised.to_dict()),
            key_text=key, diagnosis=diagnosis, principles=principles,
            revised_strategy=revised, embedding=key_emb))
    return memories


def generate(workload: Workload, seed: int, out: Path) -> None:
    """Write claims.jsonl, script.jsonl, search.jsonl, truth.json and stores/."""
    out.mkdir(parents=True, exist_ok=True)
    gen = _Generator(workload, seed)
    claims, script, truth = [], [], []
    for i in range(workload.batch):
        claim = gen.claim(i)
        build = gen.learn_episode if workload.mode == "learn" else gen.detect_episode
        replies, expected = build(i, claim)
        claims.append(claim)
        truth.append(expected)
        script += [{"claim_key": claim["token"], "reply": r} for r in replies]
    with (out / "claims.jsonl").open("w", encoding="utf-8") as fh:
        for c in claims:
            fh.write(json.dumps({k: c[k] for k in ("id", "query", "response", "gold_label")}) + "\n")
    with (out / "script.jsonl").open("w", encoding="utf-8") as fh:
        for entry in script:
            fh.write(json.dumps(entry) + "\n")
    with (out / "search.jsonl").open("w", encoding="utf-8") as fh:
        for query, result in sorted(gen.search.items()):
            fh.write(json.dumps({"query": query, "result": result}) + "\n")
    (out / "truth.json").write_text(json.dumps({"claims": truth}), encoding="utf-8")
    if workload.preload:
        _preloaded_memories(gen, workload).persist(out / "stores")
    else:
        (out / "stores").mkdir(exist_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding the leap package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    generate(WORKLOADS[args.workload], args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
