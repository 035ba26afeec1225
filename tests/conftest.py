"""Shared fixtures: fake providers, scripted scenarios, and oracle generators."""

from __future__ import annotations

import json
import math
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import strategies as st

from leap.backend import ChatRequest, HashingEmbedder
from leap.core import Claim, Label, VerificationStrategy
from leap.loops import LearningConfig, Runtime
from leap.prompts import format_strategy, load_templates
from leap.tools import FixtureSearch, Toolbox


class FakeChat:
    """Chat provider returning queued replies and recording every request."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> str:
        self.requests.append(request)
        if not self.replies:
            raise AssertionError("FakeChat ran out of replies")
        return self.replies.pop(0)

    @property
    def prompts(self) -> list[str]:
        return [r.messages[-1].content for r in self.requests]


class StubEmbedder:
    """Embedder with hand-assigned vectors, for geometry-controlled tests."""

    def __init__(self, table, dim):
        self.table = table
        self.dim = dim

    def embed(self, text):
        from leap.backend import Embedding

        return Embedding.of(self.table[text])


def make_claim(i: int, gold: Label | None = Label.HALLUCINATION) -> Claim:
    return Claim(
        id=f"claim-{i:03d}",
        query=f"query-{i:03d} is the statement about subject {i} accurate?",
        response=f"response text for subject {i}",
        gold_label=gold,
    )


# Text for the properties of the two scanners (sentence splitting and thought
# escaping): sentence ends, the reserved line prefixes and every class of
# whitespace ``str.isspace`` accepts, mixed with arbitrary characters.
SCANNER_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            [".", "!", "?", "Thought:", "Action:", "\nThought:", "\nAction:", "\nAction", " ",
             "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
             "\u2028", "\u3000"]
        ),
        st.text(max_size=3),
    ),
    max_size=24,
).map("".join)


def make_strategy(plan=("search the subject",), revision_of=None) -> VerificationStrategy:
    return VerificationStrategy(
        problem_type="factual",
        high_level_strategy="verify the claim with external evidence",
        plan=tuple(plan),
        revision_of=revision_of,
    )


# --- scripted scenario builders ------------------------------------------------


def strategy_reply(problem_type="factual", strategy="verify the key fact", plan=("search the subject",)):
    return format_strategy(VerificationStrategy(problem_type, strategy, tuple(plan)))


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


def episode_entries(
    claim: Claim,
    *,
    plan=("search the subject",),
    step_actions=(),
    verdict="Hallucination",
    evidence="based on the evidence",
    values=(0.2, 0.5),
    reflection=False,
):
    """Scripted replies for one learning episode, keyed to the claim's query.

    values covers states s_0 .. s_N, so it needs len(step_actions) + 2 entries.
    """
    assert len(values) == len(step_actions) + 2, "one value per state s_0..s_N"
    replies = [strategy_reply(plan=plan)]
    for i, action_text in enumerate(step_actions, start=1):
        replies.append(actor_reply(f"working on step {i}", action_text))
    replies.append(actor_reply("enough evidence gathered", f'get_answer("{verdict}", "{evidence}")'))
    replies.extend(repr(float(v)) for v in values)
    if reflection:
        replies.append(reflection_reply())
    return [{"claim_key": claim.query, "reply": r} for r in replies]


def detection_entries(
    claim: Claim,
    *,
    plan=("search the subject",),
    score=0.4,
    corrected=False,
    revised_plan=("search the decisive detail",),
    rescore=0.5,
    step_actions=(),
    verdict="Not Hallucination",
    evidence="supported by evidence",
):
    """Scripted replies for one detection pass (set corrected when score < theta)."""
    replies = [strategy_reply(plan=plan), repr(float(score))]
    if corrected:
        replies.append(reflection_reply(plan=revised_plan))
        replies.append(strategy_reply(problem_type="refined", plan=revised_plan))
        replies.append(repr(float(rescore)))
    for i, action_text in enumerate(step_actions, start=1):
        replies.append(actor_reply(f"working on step {i}", action_text))
    replies.append(actor_reply("concluding", f'get_answer("{verdict}", "{evidence}")'))
    return [{"claim_key": claim.query, "reply": r} for r in replies]


def wave_entries(claims):
    """Scripted episodes that take 0-2 tool steps; every third claim, from the
    second on, gives a wrong verdict and so reflects."""
    entries = []
    for i, claim in enumerate(claims):
        actions = ('calculator("2+2")', 'word_count(3, "a b c")')[: i % 3]
        wrong = i % 3 == 1
        entries += episode_entries(
            claim,
            step_actions=actions,
            verdict="Not Hallucination" if wrong else "Hallucination",
            values=tuple(0.1 * (k + 1) for k in range(len(actions) + 2)),
            reflection=wrong,
        )
    return entries


def write_script(path: Path, entries) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    return path


DIM = 16


def make_runtime(chat, *, dim=DIM, search_fixtures=None, **config_overrides) -> Runtime:
    embedder = HashingEmbedder(dim, seed=0)
    templates = load_templates()
    toolbox = Toolbox(
        search=FixtureSearch(search_fixtures or {}),
        embedder=embedder,
        chat=chat,
        match_template=templates["match"],
        code_executor=["python3", "-c"],
    )
    config = LearningConfig(**{"concurrency": 1, **config_overrides})
    return Runtime(
        chat=chat,
        embedder=embedder,
        toolbox=toolbox,
        templates=templates,
        config=config,
        theta_corr=0.0,
    )


# --- expression-tree oracle for the calculator ----------------------------------


def gen_expression_tree(rng, depth: int):
    """Random arithmetic expression tree; leaves are non-negative literals."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ("num", float(rng.randrange(0, 100)))
        return ("num", round(rng.uniform(0.0, 50.0), 2))
    op = rng.choice(("+", "-", "*", "/", "%", "^", "neg"))
    if op == "neg":
        return ("neg", gen_expression_tree(rng, depth - 1))
    if op == "^":
        # Integer exponents keep powers real-valued and bounded.
        return ("^", gen_expression_tree(rng, depth - 1), ("num", float(rng.randrange(0, 4))))
    return (op, gen_expression_tree(rng, depth - 1), gen_expression_tree(rng, depth - 1))


def reference_eval(tree) -> float:
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "neg":
        return -reference_eval(tree[1])
    op, left, right = tree
    a, b = reference_eval(left), reference_eval(right)
    if op == "+":
        value = a + b
    elif op == "-":
        value = a - b
    elif op == "*":
        value = a * b
    elif op == "/":
        if b == 0.0:
            raise ZeroDivisionError
        value = a / b
    elif op == "%":
        if b == 0.0:
            raise ZeroDivisionError
        value = math.fmod(a, b)
    else:
        value = math.pow(a, b)
    if not math.isfinite(value):
        raise OverflowError
    return value


def render_tree(tree) -> str:
    kind = tree[0]
    if kind == "num":
        value = tree[1]
        return str(int(value)) if value.is_integer() else str(value)
    if kind == "neg":
        return f"(-{render_tree(tree[1])})"
    op, left, right = tree
    return f"({render_tree(left)} {op} {render_tree(right)})"


def expression_cases(seed: int, count: int, max_depth: int = 6):
    """(formula, expected) pairs whose reference evaluation is well-defined."""
    import random

    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        tree = gen_expression_tree(rng, rng.randrange(1, max_depth + 1))
        try:
            expected = reference_eval(tree)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        cases.append((render_tree(tree), expected))
    return cases


# --- local HTTP stub --------------------------------------------------------------


@contextmanager
def stub_http_server(script):
    """Serve scripted (status, payload) responses; records request bodies.

    script entries are (status, payload_dict); the final entry repeats if
    more requests arrive.
    """
    responses = list(script)
    record = {"requests": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            record["requests"].append(
                {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
            )
            status, payload = responses[0] if len(responses) == 1 else responses.pop(0)
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self.do_POST()

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # shutdown() waits for serve_forever to notice it, up to one poll interval
    # (0.5 s by default).
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", record
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def refused_url():
    """A URL on a local port that was bound, read and closed, so a connection
    to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture
def templates():
    return load_templates()
