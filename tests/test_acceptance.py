"""Acceptance criteria: one test per criterion, each printing a pass line.

Everything runs offline against the scripted chat provider and the
deterministic embedder. Each test enforces its own wall-clock budget.
"""

from __future__ import annotations

import json
import random
import string
import time
from contextlib import contextmanager


from leap.agents import advantage, parse_react_sequence
from leap.backend import Embedding, euclidean
from leap.cli import main
from leap.core import (
    Action,
    AdvantageReport,
    Claim,
    Label,
    Step,
    Tool,
    Trajectory,
    Verdict,
    advantage_value,
    linearize_steps,
    load_trajectories,
    write_claims,
)
from leap.evaluation import Confusion, EvalReport, compute_metrics, render_report
from leap.loops import ExpertDataset, ExpertRecord, curate, export_sft
from leap.memory import Memories, MemoryStore, ValueSample

from conftest import (
    DIM,
    FakeChat,
    detection_entries,
    episode_entries,
    expression_cases,
    make_claim,
    make_runtime,
    make_strategy,
    write_script,
)


@contextmanager
def budget(name: str, seconds: float):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {seconds}s)")


def test_criterion_1_advantage_arithmetic():
    with budget("1 advantage-arithmetic", 1.0):
        rng = random.Random(101)
        for _ in range(10_000):
            r_t = rng.uniform(-2, 2)
            gamma = rng.uniform(0, 1)
            v_next = rng.uniform(-1, 1)
            v_curr = rng.uniform(-1, 1)
            lam = rng.uniform(0, 1)
            n_tools = rng.randrange(0, 11)
            stored = advantage_value(r_t, gamma, v_next, v_curr, lam, n_tools)
            report = AdvantageReport(
                r_terminal=r_t, gamma=gamma, v_next=v_next, v_curr=v_curr, lam=lam,
                n_tools=n_tools, advantage=stored,
            )
            assert report.recompute() == stored  # bit-for-bit

        # Constant decrement per extra tool call; lambda chosen binary-exact
        # so the differences are bitwise equal, plus a decimal lambda at 1e-12.
        def sweep(lam):
            steps = lambda n: [
                *(Step("t", Action(Tool.WEB_SEARCH, ("q",)), "o") for _ in range(n)),
                Step("t", Action(Tool.GET_ANSWER, ("Hallucination",)), "Hallucination"),
            ]
            return [
                advantage(
                    Trajectory.build("c", make_strategy(), steps(n), Verdict(Label.HALLUCINATION)),
                    r_terminal=0.5, gamma=1.0, lam=lam, v_curr=0.1, v_next=0.2,
                ).advantage
                for n in range(6)
            ]

        exact = sweep(0.125)
        assert {exact[i] - exact[i + 1] for i in range(5)} == {0.125}
        decimal = sweep(0.1)
        for i in range(5):
            assert abs((decimal[i] - decimal[i + 1]) - 0.1) < 1e-12


def test_criterion_2_retrieval_oracle():
    with budget("2 retrieval-oracle", 10.0):
        rng = random.Random(202)
        dim = 8

        def embedding():
            return Embedding.of(rng.uniform(-1, 1) for _ in range(dim))

        for size in (1, 10, 200, 5000):
            store = MemoryStore("value", dim, cap=None)
            records = [
                ValueSample(id=f"r{i:05d}", state_summary=f"s{i}", value=0.0, embedding=embedding())
                for i in range(size)
            ]
            for record in records:
                store.insert(record)
            for _ in range(50):
                query = embedding()
                got = [r.id for r in store.retrieve_top_k(query, 5)]
                ranked = sorted(
                    enumerate(records),
                    key=lambda pair: (euclidean(pair[1].embedding, query), pair[0]),
                )
                expected = [r.id for _, r in ranked[:5]]
                assert got == expected, f"size={size}"


def test_criterion_3_learning_memory_deltas():
    with budget("3 algorithm-1-memory-deltas", 5.0):
        # 20 claims with controlled advantage signs: matching verdicts give
        # A = +1.3, wrong verdicts give A = -1.3, and (v0=1, v1=0) with a
        # correct verdict and no tool calls gives A = 0.0 exactly.
        specs = []
        for i in range(20):
            kind = ("pos", "neg", "zero")[i % 3]
            specs.append((make_claim(i, gold=Label.HALLUCINATION), kind))

        replies = []
        for claim, kind in specs:
            step_actions = ('calculator("1+1")',) if kind == "pos" else ()
            n_states = len(step_actions) + 2
            if kind == "pos":
                values, verdict, reflect = (0.2,) * (n_states - 1) + (0.5,), "Hallucination", False
            elif kind == "neg":
                values, verdict, reflect = (0.5, 0.2), "Not Hallucination", True
            else:
                values, verdict, reflect = (1.0, 0.0), "Hallucination", False
            replies.extend(
                e["reply"]
                for e in episode_entries(
                    claim=claim, step_actions=step_actions, verdict=verdict,
                    values=values, reflection=reflect,
                )
            )

        runtime = make_runtime(FakeChat(replies))
        memories = Memories.fresh(DIM, cap=None)
        for claim, kind in specs:
            before = (len(memories.precedents), len(memories.values), len(memories.reflections))
            trajectory = runtime.run_learning_episode(claim, memories)
            after = (len(memories.precedents), len(memories.values), len(memories.reflections))
            n_states = len(trajectory.steps) + 1
            assert after[0] - before[0] == 1, "|dM_A| must be 1"
            assert after[1] - before[1] == n_states, "|dM_C| must be states(tau)"
            expected_reflections = 1 if trajectory.advantage.advantage < 0 else 0
            assert after[2] - before[2] == expected_reflections, "|dM_P| iff A<0"
            if kind == "zero":
                assert trajectory.advantage.advantage == 0.0


def test_criterion_4_correction_branch_coverage():
    with budget("4 algorithm-2-branches", 2.0):
        theta = 0.0
        epsilon = 0.125
        outcomes = []
        for score in (theta - epsilon, theta, theta + epsilon):
            claim = make_claim(1, gold=None)
            corrected = score < theta
            replies = [
                e["reply"]
                for e in detection_entries(claim, score=score, corrected=corrected, rescore=0.5)
            ]
            runtime = make_runtime(FakeChat(replies))
            result = runtime.detect(claim, Memories.fresh(DIM))
            reflections = 1 if result.correction is not None else 0
            outcomes.append(reflections)
            if reflections:
                assert result.trajectory.strategy.revision_of == result.scores[0].strategy_ref
            else:
                assert result.trajectory.strategy.revision_of is None
        assert outcomes == [1, 0, 0]


def test_criterion_5_curation_filter():
    with budget("5 curation-filter", 2.0):
        rng = random.Random(505)
        claims = {}
        trajectories = []
        expected_ids = set()
        for i in range(200):
            claim = make_claim(i, gold=Label.HALLUCINATION)
            claims[claim.id] = claim
            advantage_choice = rng.choice((0.5, 0.0, -0.2))
            correct = rng.random() < 0.5
            label = Label.HALLUCINATION if correct else Label.NOT_HALLUCINATION
            steps = (Step("t", Action(Tool.GET_ANSWER, (label.value,)), label.value),)
            report = AdvantageReport(
                r_terminal=advantage_choice, gamma=0.0, v_next=0.0, v_curr=0.0, lam=0.0,
                n_tools=0, advantage=advantage_value(advantage_choice, 0.0, 0.0, 0.0, 0.0, 0),
            )
            trajectory = Trajectory.build(claim.id, make_strategy(), steps, Verdict(label), report)
            trajectories.append(trajectory)
            if advantage_choice > 0 and correct:
                expected_ids.add(trajectory.id)
        dataset = curate(trajectories, claims)
        kept_targets = {r.claim.id for r in dataset.records}
        expected_claims = {t.claim_id for t in trajectories if t.id in expected_ids}
        assert kept_targets == expected_claims
        assert all(r.advantage > 0 and r.verdict is r.gold for r in dataset.records)
        assert len(dataset) == len(expected_ids)


_THOUGHT_ALPHABET = string.ascii_letters + string.digits + " ,.!?'"


def _random_thought(rng):
    lines = []
    for _ in range(rng.randrange(1, 3)):
        line = "".join(rng.choice(_THOUGHT_ALPHABET) for _ in range(rng.randrange(1, 30)))
        lines.append(line.strip() or "x")
    return "\n".join(lines)


def _random_arg(rng):
    if rng.random() < 0.3:
        return rng.randrange(-1000, 1000)
    alphabet = _THOUGHT_ALPHABET + '"\\\n\t(),'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))


def test_criterion_6_sft_export_fidelity(tmp_path):
    with budget("6 sft-export-fidelity", 5.0):
        rng = random.Random(606)
        tools = [t for t in Tool if t is not Tool.GET_ANSWER]
        records = []
        for i in range(500):
            claim = make_claim(i, gold=Label.HALLUCINATION)
            steps = [
                Step(_random_thought(rng), Action(rng.choice(tools),
                     tuple(_random_arg(rng) for _ in range(rng.randrange(0, 3)))), "o")
                for _ in range(rng.randrange(0, 4))
            ]
            steps.append(
                Step(_random_thought(rng), Action(Tool.GET_ANSWER, ("Hallucination", "ev")), "x")
            )
            trajectory = Trajectory.build(
                claim.id, make_strategy(), steps, Verdict(Label.HALLUCINATION)
            )
            records.append(
                ExpertRecord(
                    claim=claim,
                    target=linearize_steps(trajectory.steps),
                    advantage=0.5,
                    verdict=Label.HALLUCINATION,
                    gold=Label.HALLUCINATION,
                )
            )
        path = tmp_path / "sft.jsonl"
        count = export_sft(ExpertDataset(records=tuple(records)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert count == 500 == len(lines)
        for line, record in zip(lines, records):
            completion = json.loads(line)["completion"]
            pairs = parse_react_sequence(completion)
            rebuilt = linearize_steps(Step(t, a, None) for t, a in pairs)
            assert rebuilt == completion  # render(parse(x)) == x
            assert pairs[-1][1].tool is Tool.GET_ANSWER


def test_criterion_7_metrics_and_formatting():
    with budget("7 metrics", 1.0):
        H, N = Label.HALLUCINATION, Label.NOT_HALLUCINATION
        cases = [
            # (pairs, accuracy, precision, recall, f1)
            ([(H, H)] * 2 + [(N, H)] + [(H, N)] + [(N, N)] * 6, 0.8, 2 / 3, 2 / 3, 2 / 3),
            ([(H, H), (N, N)], 1.0, 1.0, 1.0, 1.0),
            ([(H, N), (N, N)], 0.5, 0.0, 0.0, 0.0),  # zero-denominator rules
            ([(N, H), (N, N)], 0.5, 0.0, 0.0, 0.0),
        ]
        for pairs, acc, p, r, f1 in cases:
            metrics = compute_metrics(pairs)
            assert abs(metrics.accuracy - acc) < 1e-12
            assert abs(metrics.precision - p) < 1e-12
            assert abs(metrics.recall - r) < 1e-12
            assert abs(metrics.f1 - f1) < 1e-12
        report = EvalReport(
            dataset="halueval", n=10000, accuracy=0.7419, f1=0.75,
            confusion=Confusion(tp=3000, fp=1000, tn=4419, fn=1581),
        )
        assert "74.19 / 75.00" in render_report(report, "text_table")


def test_criterion_8_calculator_oracle():
    with budget("8 calculator-oracle", 2.0):
        from leap.calculator import evaluate

        for formula, expected in expression_cases(seed=808, count=500):
            got = evaluate(formula)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), formula
        units = [
            ("2+3*4", 14.0),
            ("(2+3)*4", 20.0),
            ("-(2^3)^2", -64.0),
            ("2^3^2", 512.0),
            ("-2^2", -4.0),
            ("10-4-3", 3.0),
            ("12/4/3", 1.0),
            ("-7%3", -1.0),
        ]
        for formula, expected in units:
            assert evaluate(formula) == expected


def test_criterion_9_end_to_end_determinism(tmp_path, monkeypatch):
    check_criterion_9(tmp_path, monkeypatch, concurrency=1)


def test_criterion_9_end_to_end_determinism_at_concurrency_4(tmp_path, monkeypatch):
    # Claims run in waves of four whose inserts land in dataset order, so the
    # bytes may not depend on thread scheduling.
    check_criterion_9(tmp_path, monkeypatch, concurrency=4)


def check_criterion_9(tmp_path, monkeypatch, concurrency):
    with budget("9 determinism", 30.0):
        claims = [make_claim(i, gold=Label.HALLUCINATION if i % 2 else Label.NOT_HALLUCINATION)
                  for i in range(10)]
        claims_path = tmp_path / "claims.jsonl"
        write_claims(claims_path, claims)

        learn_entries, detect_entries_all = [], []
        for claim in claims:
            matching = "Hallucination" if claim.gold_label is Label.HALLUCINATION else "Not Hallucination"
            learn_entries.extend(
                episode_entries(
                    claim=claim,
                    step_actions=(f'web_search("{claim.query}")',),
                    verdict=matching,
                    values=(0.1, 0.2, 0.6),
                )
            )
            detect_entries_all.extend(
                detection_entries(claim, score=0.4, verdict=matching)
            )
        learn_script = write_script(tmp_path / "learn-script.jsonl", learn_entries)
        detect_script = write_script(tmp_path / "detect-script.jsonl", detect_entries_all)

        search_path = tmp_path / "search.jsonl"
        with search_path.open("w") as fh:
            for claim in claims:
                fh.write(json.dumps({"query": claim.query, "result": f"[1] Entry — {claim.id}"}) + "\n")

        def run(tag: str) -> dict[str, bytes]:
            root = tmp_path / tag
            root.mkdir()
            config = {
                "backend": {"embed_dim": 16},
                "learning": {"concurrency": concurrency, "seed": 12},
                "tools": {"search_provider": {"kind": "fixture", "path": str(search_path)}},
                "paths": {"memory_dir": str(root / "memory"), "out_dir": str(root / "out")},
            }
            config_path = root / "config.json"
            config_path.write_text(json.dumps(config))
            out = root / "out"

            monkeypatch.setenv("LEAP_BACKEND", f"scripted:{learn_script}")
            assert main(["learn", "--config", str(config_path), "--dataset", str(claims_path),
                         "--out", str(out)]) == 0
            assert main(["export-sft", "--trajectories", str(out / "trajectories.jsonl"),
                         "--claims", str(claims_path), "--out", str(root / "sft.jsonl")]) == 0
            monkeypatch.setenv("LEAP_BACKEND", f"scripted:{detect_script}")
            assert main(["detect", "--config", str(config_path), "--claims", str(claims_path),
                         "--out", str(root / "verdicts.jsonl")]) == 0
            assert main(["eval", "--config", str(config_path), "--dataset", str(claims_path),
                         "--n", "5", "--report-format", "machine",
                         "--out", str(root / "report.json")]) == 0

            return {
                "trajectories": (out / "trajectories.jsonl").read_bytes(),
                "reflections": (root / "memory" / "reflections.jsonl").read_bytes(),
                "precedents": (root / "memory" / "precedents.jsonl").read_bytes(),
                "values": (root / "memory" / "values.jsonl").read_bytes(),
                **{f"{name}.npy": (root / "memory" / f"{name}.npy").read_bytes()
                   for name in ("reflections", "precedents", "values")},
                "sft": (root / "sft.jsonl").read_bytes(),
                "verdicts": (root / "verdicts.jsonl").read_bytes(),
                "report": (root / "report.json").read_bytes(),
            }

        first, second = run("run-a"), run("run-b")
        assert first == second
        trajectories = load_trajectories(tmp_path / "run-a" / "out" / "trajectories.jsonl")
        assert len(trajectories) == 10
        assert len(first["verdicts"].decode().splitlines()) == 10
        report = json.loads(first["report"])
        assert report["n"] == 5  # every sampled claim produced a verdict


def test_criterion_10_correction_scenario_shape():
    with budget("10 correction-scenario", 2.0):
        claim = Claim(
            id="legal-001",
            query="Did the defendant commit solicitation, conspiracy, and attempted murder?",
            response="Yes; the accidental death during the burglary constitutes attempted murder.",
            gold_label=None,
        )
        search_snippet = (
            "[1] Attempted murder — requires specific intent to kill plus a direct step; "
            "accidental killings do not qualify."
        )
        replies = [
            e["reply"]
            for e in detection_entries(
                claim,
                plan=("verify the overall claim in one search",),
                score=-0.4,
                corrected=True,
                revised_plan=(
                    "verify the legal elements of attempted murder",
                    "check whether an accidental death can satisfy intent",
                ),
                rescore=0.6,
                step_actions=('web_search("attempted murder legal elements")',),
                verdict="Hallucination",
                evidence="attempted murder requires intent; an accidental death cannot qualify",
            )
        ]
        runtime = make_runtime(
            FakeChat(replies),
            search_fixtures={"attempted murder legal elements": search_snippet},
        )
        result = runtime.detect(claim, Memories.fresh(DIM))

        # plan -> rejection
        assert result.scores[0].approved is False
        # -> reflection (exactly one)
        assert result.correction is not None
        assert result.correction.principles
        # -> revised plan, linked to the rejected one
        final = result.trajectory.strategy
        assert final.revision_of == result.scores[0].strategy_ref
        assert final.plan[0] == "verify the legal elements of attempted murder"
        # -> targeted search with the fixture evidence
        first_step = result.trajectory.steps[0]
        assert first_step.action == Action(Tool.WEB_SEARCH, ("attempted murder legal elements",))
        assert first_step.observation == search_snippet
        # -> Hallucination verdict from the terminal step
        last_step = result.trajectory.steps[-1]
        assert last_step.action.tool is Tool.GET_ANSWER
        assert result.verdict.label is Label.HALLUCINATION
        assert "intent" in result.verdict.evidence
