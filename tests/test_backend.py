"""Providers: scripted chat, hashing embedder, and the HTTP client."""

from __future__ import annotations

import hashlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leap.backend

from leap.backend import (
    ChatMessage,
    ChatRequest,
    Embedding,
    HashingEmbedder,
    HttpBackend,
    ScriptedProvider,
    ScriptEntry,
    cosine,
    euclidean,
    load_script,
    request_digest,
)
from leap.core import canonical_json
from leap.errors import (
    ProviderError,
    RetryExhaustedError,
    SchemaError,
    UnmatchedFixtureError,
)

from conftest import refused_url, stub_http_server


def req(content="hello", temperature=1.0, system=""):
    return ChatRequest(
        system_prompt=system,
        messages=(ChatMessage("user", content),),
        temperature=temperature,
    )


class TestChatRequest:
    def test_requires_messages(self):
        with pytest.raises(SchemaError):
            ChatRequest(system_prompt="", messages=(), temperature=1.0)

    @pytest.mark.parametrize("temperature", [-0.1, 2.1])
    def test_temperature_range(self, temperature):
        with pytest.raises(SchemaError):
            req(temperature=temperature)

    @pytest.mark.parametrize("top_p", [0.0, 1.5])
    def test_top_p_range(self, top_p):
        with pytest.raises(SchemaError):
            ChatRequest(
                system_prompt="", messages=(ChatMessage("user", "x"),), temperature=1.0, top_p=top_p
            )

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_max_tokens_must_be_positive(self, max_tokens):
        with pytest.raises(SchemaError, match="^max_tokens must be positive$"):
            ChatRequest(
                system_prompt="", messages=(ChatMessage("user", "x"),), temperature=1.0,
                max_tokens=max_tokens,
            )

    def test_rejects_unknown_role(self):
        with pytest.raises(SchemaError):
            ChatMessage("system", "x")


class TestScriptedProvider:
    def test_digest_keyed_lookup(self):
        request = req("plan this")
        provider = ScriptedProvider([ScriptEntry(reply="PLAN: ...", key=request_digest(request))])
        assert provider.complete(request) == "PLAN: ..."

    def test_unmatched_error_lists_digest(self):
        provider = ScriptedProvider([])
        request = req("nothing matches")
        with pytest.raises(UnmatchedFixtureError, match=request_digest(request)):
            provider.complete(request)

    def test_ordinal_entries_answer_in_order(self):
        provider = ScriptedProvider([ScriptEntry(reply="first"), ScriptEntry(reply="second")])
        assert provider.complete(req("a")) == "first"
        assert provider.complete(req("b")) == "second"
        with pytest.raises(UnmatchedFixtureError):
            provider.complete(req("c"))

    def test_claim_key_routes_by_substring(self):
        provider = ScriptedProvider(
            [
                ScriptEntry(reply="for claim B", claim_key="claim-B"),
                ScriptEntry(reply="for claim A, first", claim_key="claim-A"),
                ScriptEntry(reply="for claim A, second", claim_key="claim-A"),
            ]
        )
        assert provider.complete(req("about claim-A today")) == "for claim A, first"
        assert provider.complete(req("about claim-B today")) == "for claim B"
        assert provider.complete(req("about claim-A again")) == "for claim A, second"

    def test_claim_key_prefers_the_earliest_occurrence(self):
        # prompts quote other claims in retrieved-exemplar sections below the
        # active claim, so the earliest match decides the route
        provider = ScriptedProvider(
            [
                ScriptEntry(reply="for claim B", claim_key="claim-B"),
                ScriptEntry(reply="for claim A", claim_key="claim-A"),
            ]
        )
        text = "Query: claim-A\n\nPrecedent 1:\nClaim: claim-B"
        assert provider.complete(req(text)) == "for claim A"
        assert provider.complete(req("now about claim-B")) == "for claim B"

    def test_same_request_sequence_same_replies(self):
        entries = [ScriptEntry(reply="one"), ScriptEntry(reply="two")]
        runs = []
        for _ in range(2):
            provider = ScriptedProvider(entries)
            runs.append([provider.complete(req("a")), provider.complete(req("b"))])
        assert runs[0] == runs[1]

    def test_digest_match_is_idempotent(self):
        request = req("same")
        provider = ScriptedProvider([ScriptEntry(reply="pinned", key=request_digest(request))])
        assert provider.complete(request) == "pinned"
        assert provider.complete(request) == "pinned"

    def test_call_ledger_records_every_completion(self):
        provider = ScriptedProvider([ScriptEntry(reply="one"), ScriptEntry(reply="two")])
        provider.complete(req("a"))
        provider.complete(req("b"))
        assert [c["reply"] for c in provider.calls] == ["one", "two"]
        assert all(c["mode"] == "ordinal" for c in provider.calls)

    def test_complete_does_not_mutate_request(self):
        request = req("immutable")
        provider = ScriptedProvider([ScriptEntry(reply="r")])
        provider.complete(request)
        assert request == req("immutable")

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"reply": "r", "extra": 1}', r"unknown field \(field: extra\)"),
            ('{"key": "k"}', r"missing field \(field: reply\)"),
            ('{"reply": 3}', r"expected a string \(field: reply\)"),
            ('{"reply": "r", "claim_key": 5}', r"expected a string \(field: claim_key\)"),
            ('{"reply": "r", "key": ["k"]}', r"expected a string \(field: key\)"),
            ('{"reply": ', "invalid JSON"),
        ],
    )
    def test_script_records_are_checked(self, tmp_path, line, message):
        path = tmp_path / "script.jsonl"
        path.write_text('{"reply": "ok"}\n' + line + "\n")
        with pytest.raises(SchemaError, match="line 2: " + message):
            load_script(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_replies_may_hold_line_separators(self, tmp_path, sep):
        path = tmp_path / "script.jsonl"
        reply = f"Thought: first{sep}second\nAction: get_answer(\"Hallucination\")"
        path.write_text(
            canonical_json({"reply": reply}) + "\n" + canonical_json({"reply": "ok"}) + "\n",
            encoding="utf-8",
        )
        assert load_script(path) == [ScriptEntry(reply=reply), ScriptEntry(reply="ok")]


class ReferenceProvider:
    """The scripted provider before its entry index, kept verbatim as the
    reference: every call scans every entry."""

    def __init__(self, entries):
        self._entries = list(entries)
        self._consumed = [False] * len(self._entries)
        self._lock = threading.Lock()
        self.calls: list[dict[str, str]] = []

    def complete(self, request: ChatRequest) -> str:
        digest = request_digest(request)
        text = request.text()
        with self._lock:
            index = self._find(digest, text)
            if index is None:
                raise UnmatchedFixtureError(f"no script entry matches request digest {digest}")
            entry = self._entries[index]
            if entry.key is None:
                self._consumed[index] = True
            mode = "key" if entry.key else ("claim_key" if entry.claim_key else "ordinal")
            self.calls.append({"digest": digest, "mode": mode, "reply": entry.reply})
            return entry.reply

    def _find(self, digest: str, text: str) -> int | None:
        for i, entry in enumerate(self._entries):
            if entry.key == digest:
                return i
        best: tuple[int, int] | None = None
        for i, entry in enumerate(self._entries):
            if self._consumed[i] or entry.claim_key is None:
                continue
            position = text.find(entry.claim_key)
            if position >= 0 and (best is None or position < best[0]):
                best = (position, i)
        if best is not None:
            return best[1]
        for i, entry in enumerate(self._entries):
            if self._consumed[i] or entry.key is not None or entry.claim_key is not None:
                continue
            return i
        return None


# Claim keys that overlap, are prefixes of one another, or are empty; request
# texts over the same letters, so keys often occur at the same position.
_CLAIM_KEY = st.sampled_from(["", "a", "ab", "abc", "b", "ba", "bc", "c", "ca"])


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(st.text(alphabet="abc", max_size=6), min_size=1, max_size=12),
    specs=st.lists(
        st.tuples(
            st.one_of(st.none(), st.just(""), st.integers(0, 11)),  # key: none, empty, or a request's digest
            st.one_of(st.none(), _CLAIM_KEY),
        ),
        max_size=14,
    ),
)
def test_scripted_provider_answers_as_the_reference(texts, specs):
    chat_requests = [req(text) for text in texts]
    entries = [
        ScriptEntry(
            reply=f"reply {i}",
            key=request_digest(chat_requests[key % len(chat_requests)]) if isinstance(key, int) else key,
            claim_key=claim_key,
        )
        for i, (key, claim_key) in enumerate(specs)
    ]
    provider, reference = ScriptedProvider(entries), ReferenceProvider(entries)
    for request in chat_requests + chat_requests:  # the second pass meets consumed entries
        try:
            want = reference.complete(request)
        except UnmatchedFixtureError as exc:
            with pytest.raises(UnmatchedFixtureError, match=f"^{exc}$"):
                provider.complete(request)
        else:
            assert provider.complete(request) == want
    assert provider.calls == reference.calls


class ReferenceEmbedder:
    """The hashing embedder before its trigram memo, kept verbatim as the
    reference: one keyed blake2b per trigram, summed in Python floats."""

    def __init__(self, dim: int, seed: int = 0):
        if dim <= 0:
            raise SchemaError("embedder dim must be positive")
        self.dim = dim
        self._key = seed.to_bytes(8, "little", signed=True)

    def embed(self, text: str) -> Embedding:
        if not text:
            raise SchemaError("cannot embed empty text")
        counts = [0.0] * self.dim
        grams = [text[i : i + 3] for i in range(len(text) - 2)] or [text]
        for gram in grams:
            digest = hashlib.blake2b(gram.encode("utf-8"), key=self._key, digest_size=8).digest()
            value = int.from_bytes(digest, "big")
            bucket = value % self.dim
            sign = 1.0 if value & (1 << 63) else -1.0
            counts[bucket] += sign
        norm = math.sqrt(sum(c * c for c in counts))
        if norm == 0.0:
            counts[0] = 1.0
            norm = 1.0
        return Embedding.of(c / norm for c in counts)


def assert_same_bits(got: Embedding, want: Embedding) -> None:
    assert got.dim == want.dim
    assert got.vector.view(np.uint64).tolist() == want.vector.view(np.uint64).tolist()


GOLDEN_EMBEDDINGS = Path(__file__).resolve().parent / "golden" / "embeddings.npy"
GOLDEN_CASES = [(dim, seed) for dim in (1, 64, 1536) for seed in (0, 7)]
GOLDEN_TEXTS = [
    "x",  # one character: the whole text is the one gram
    "ok",  # two characters, likewise
    "\U0001d50f\U0001d508\U0001d504\U0001d513 \U0001f998 hops \U0010fffd",  # outside the BMP
    "acea",  # its two trigrams cancel at dim 1 (both seeds) and dim 64 (seed 0)
    "".join(f"Claim {i}: the kangaroo is endemic to Australia. " for i in range(50))[:2048],
]


def golden_vectors() -> np.ndarray:
    """Every (dim, seed) case's vector of every golden text, end to end, in that order.

    ``tests/golden/embeddings.npy`` holds this array as written by the
    embedder before its trigram memo (``ReferenceEmbedder``)."""
    return np.concatenate(
        [HashingEmbedder(dim, seed).embed(text).vector for dim, seed in GOLDEN_CASES for text in GOLDEN_TEXTS]
    )


class TestHashingEmbedder:
    def test_deterministic(self):
        embedder = HashingEmbedder(dim=32, seed=3)
        assert embedder.embed("abc") == embedder.embed("abc")
        assert embedder.embed("abc") == HashingEmbedder(dim=32, seed=3).embed("abc")

    def test_configured_dimension_and_unit_norm(self):
        vector = HashingEmbedder(dim=24, seed=0).embed("some text").vector
        assert len(vector) == 24
        assert sum(v * v for v in vector) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dimension_must_be_positive(self, dim):
        with pytest.raises(SchemaError, match="^embedder dim must be positive$"):
            HashingEmbedder(dim)

    def test_empty_text_rejected(self):
        with pytest.raises(SchemaError, match="^cannot embed empty text$"):
            HashingEmbedder(dim=8).embed("")

    def test_shared_trigrams_pull_texts_together(self):
        embedder = HashingEmbedder(dim=64, seed=0)
        kangaroo = embedder.embed("kangaroo")
        near = euclidean(kangaroo, embedder.embed("kangaroos"))
        far = euclidean(kangaroo, embedder.embed("coffee"))
        assert near < far

    def test_seed_changes_geometry(self):
        a = HashingEmbedder(dim=32, seed=0).embed("abc")
        b = HashingEmbedder(dim=32, seed=1).embed("abc")
        assert a != b

    def test_vectors_equal_the_golden_file_bit_for_bit(self):
        golden = np.load(GOLDEN_EMBEDDINGS)
        assert golden.dtype == np.dtype("<f8")
        assert golden_vectors().tobytes() == golden.tobytes()

    def test_golden_texts_reach_the_zero_norm_rule(self):
        for dim, seed in [(1, 0), (1, 7), (64, 0)]:
            vector = HashingEmbedder(dim, seed).embed("acea").vector
            assert vector.tolist() == [1.0] + [0.0] * (dim - 1)

    def test_lone_surrogate_fails_as_before_and_leaves_the_memo_clean(self):
        embedder, reference = HashingEmbedder(64, seed=0), ReferenceEmbedder(64, seed=0)
        with pytest.raises(UnicodeEncodeError) as got:
            embedder.embed("ab\ud800cd")
        with pytest.raises(UnicodeEncodeError) as want:
            reference.embed("ab\ud800cd")
        assert (got.value.args, str(got.value)) == (want.value.args, str(want.value))
        for text in ("abcd", "abab cdcd", "ab\u00e9cd"):
            assert_same_bits(embedder.embed(text), reference.embed(text))

    @pytest.mark.parametrize("cap", [None, 8])
    def test_threads_sharing_one_embedder_get_single_threaded_bits(self, monkeypatch, cap):
        # Overlapping texts, each thread in its own order, so misses race.
        # Two threads missing the same trigram both compute its code and
        # store the same value, which is harmless.
        if cap is not None:
            monkeypatch.setattr(leap.backend, "_MEMO_CAP", cap)
        texts = [f"claim {i % 13} about kangaroo {i % 7} and {i}" for i in range(120)]
        shared, results, sizes = HashingEmbedder(64, seed=5), {}, []
        barrier = threading.Barrier(4)

        def work(t):
            barrier.wait()
            order = texts[t * 30 :] + texts[: t * 30]
            results[t] = {}
            for text in order:
                results[t][text] = shared.embed(text)
                sizes.append(len(shared._codes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        fresh = HashingEmbedder(64, seed=5)
        expected = {text: fresh.embed(text) for text in texts}
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            for text in texts:
                assert_same_bits(got[text], expected[text])
        assert cap is None or max(sizes) <= cap

    def test_memo_clears_at_its_cap_and_keeps_the_bits(self, monkeypatch):
        monkeypatch.setattr(leap.backend, "_MEMO_CAP", 8)
        embedder, reference = HashingEmbedder(64, seed=0), ReferenceEmbedder(64, seed=0)
        sizes = []
        # Growing prefixes, twice, then a text whose own trigrams overflow the cap.
        for text in [GOLDEN_TEXTS[4][:n] for n in range(1, 30)] * 2 + ["abcdefghijklmnop"]:
            assert_same_bits(embedder.embed(text), reference.embed(text))
            sizes.append(len(embedder._codes))
        assert max(sizes) == 8 and min(sizes[2:]) < 8  # filled, then cleared and refilled


# Texts of one or two characters (one gram, the whole text), texts over a
# small alphabet with characters outside the BMP (repeated trigrams), and
# any text.
_TEXT = st.one_of(
    st.text(min_size=1, max_size=2),
    st.text(alphabet="ab \u00e9\U0001f998\U0010fffd", min_size=1, max_size=40),
    st.text(min_size=1, max_size=300),
)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 64, 1536]),
    seed=st.integers(-(2**63), 2**63 - 1),
    texts=st.lists(_TEXT, min_size=1, max_size=6),
)
def test_embed_equals_the_reference_bit_for_bit(dim, seed, texts):
    embedder, reference = HashingEmbedder(dim, seed), ReferenceEmbedder(dim, seed)
    for text in texts + texts[::-1]:  # the second pass hits the memo
        assert_same_bits(embedder.embed(text), reference.embed(text))


class TestDistances:
    def test_euclidean_hand_cases(self):
        a = Embedding.of([0.0, 0.0])
        b = Embedding.of([3.0, 4.0])
        assert euclidean(a, b) == 5.0
        assert euclidean(b, a) == 5.0
        assert euclidean(b, b) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(SchemaError):
            euclidean(Embedding.of([1.0]), Embedding.of([1.0, 2.0]))
        with pytest.raises(SchemaError, match="^dimension mismatch: 1 vs 2$"):
            cosine(Embedding.of([1.0]), Embedding.of([1.0, 2.0]))

    def test_cosine_identity_and_orthogonal(self):
        a = Embedding.of([1.0, 0.0])
        b = Embedding.of([0.0, 2.0])
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, b) == 0.0
        assert cosine(a, Embedding.of([0.0, 0.0])) == cosine(Embedding.of([0.0, 0.0]), a) == 0.0

    def test_embedding_validates_entries(self):
        with pytest.raises(SchemaError):
            Embedding.of([float("nan")])
        for vector in (1.0, [[1.0, 2.0]], np.zeros((2, 0))):
            with pytest.raises(SchemaError, match="^embedding must be a 1-D vector, got shape "):
                Embedding(vector)

    def test_embedding_rejects_entries_that_are_not_numbers(self):
        for values in (["x"], [[1.0, 2.0]], [{}]):
            with pytest.raises(SchemaError, match="entries must be numbers"):
                Embedding.of(values)
        for vector in (["x"], [{}], [[1.0], [2.0, 3.0]]):
            with pytest.raises(SchemaError, match="^embedding entries must be numbers: "):
                Embedding(vector)

    def test_dim_is_the_vector_length(self):
        assert Embedding((0.5, 1.0, 2.0)).dim == 3
        assert Embedding.of([]).dim == 0

    def test_equal_embeddings_hash_alike(self):
        a, b = Embedding.of([0.0, 1.5]), Embedding((-0.0, 1.5))
        assert a == b and hash(a) == hash(b)
        assert a != Embedding.of([0.0, 1.25]) and a != (0.0, 1.5)
        assert len({a, b, Embedding.of([1.0])}) == 2


class TestHttpBackend:
    def chat_payload(self, content="hi there"):
        return {"choices": [{"message": {"role": "assistant", "content": content}}]}

    def test_success_after_two_transient_failures(self):
        script = [(500, {"err": 1}), (500, {"err": 2}), (200, self.chat_payload("ok"))]
        with stub_http_server(script) as (url, record):
            backend = HttpBackend(base_url=url, model="m", retries=3, backoff_s=0.001)
            assert backend.complete(req("x")) == "ok"
        assert len(record["requests"]) == 3

    def test_non_retryable_status_carries_status_and_body(self):
        with stub_http_server([(400, {"error": "bad request"})]) as (url, _):
            backend = HttpBackend(base_url=url, model="m", retries=2, backoff_s=0.001)
            with pytest.raises(ProviderError) as excinfo:
                backend.complete(req("x"))
        assert excinfo.value.status == 400
        assert "bad request" in excinfo.value.body
        assert not isinstance(excinfo.value, RetryExhaustedError)

    def test_retry_exhaustion(self):
        with stub_http_server([(503, {})]) as (url, record):
            backend = HttpBackend(base_url=url, model="m", retries=2, backoff_s=0.001)
            with pytest.raises(RetryExhaustedError):
                backend.complete(req("x"))
        assert len(record["requests"]) == 3  # first try + 2 retries

    def test_refused_connection_is_a_transport_error(self):
        backend = HttpBackend(base_url=refused_url(), model="m", retries=1, backoff_s=0.001)
        with pytest.raises(RetryExhaustedError, match="after 2 attempts .transport error: "):
            backend.complete(req("x"))

    def test_golden_request_body(self):
        with stub_http_server([(200, self.chat_payload())]) as (url, record):
            backend = HttpBackend(base_url=url, model="test-model", api_key="secret")
            request = ChatRequest(
                system_prompt="be brief",
                messages=(ChatMessage("user", "q1"), ChatMessage("assistant", "a1"),
                          ChatMessage("user", "q2")),
                temperature=1.0,
                top_p=0.9,
                max_tokens=64,
            )
            backend.complete(request)
        expected = (
            '{"model":"test-model","messages":[{"role":"system","content":"be brief"},'
            '{"role":"user","content":"q1"},{"role":"assistant","content":"a1"},'
            '{"role":"user","content":"q2"}],"temperature":1.0,"top_p":0.9,"max_tokens":64}'
        )
        sent = record["requests"][0]
        assert sent["body"] == expected.encode("utf-8")
        assert sent["path"] == "/chat/completions"
        assert sent["auth"] == "Bearer secret"

    def test_embeddings_endpoint(self):
        payload = {"data": [{"embedding": [0.1, 0.2, 0.3]}]}
        with stub_http_server([(200, payload)]) as (url, record):
            backend = HttpBackend(base_url=url, model="m", embed_model="e", embed_dim=3)
            embedding = backend.embed("abc")
        assert embedding.vector.tolist() == [0.1, 0.2, 0.3]
        sent = record["requests"][0]
        assert sent["path"] == "/embeddings"
        assert json.loads(sent["body"]) == {"model": "e", "input": "abc"}

    def test_embedding_dim_mismatch(self):
        payload = {"data": [{"embedding": [0.1, 0.2]}]}
        with stub_http_server([(200, payload)]) as (url, _):
            backend = HttpBackend(base_url=url, model="m", embed_model="e", embed_dim=3)
            with pytest.raises(ProviderError, match="dim"):
                backend.embed("abc")

    def test_empty_text_is_not_sent(self):
        backend = HttpBackend(base_url=refused_url(), model="m", embed_model="e", retries=0)
        with pytest.raises(SchemaError, match="^cannot embed empty text$"):
            backend.embed("")

    def test_malformed_embedding_response(self):
        with stub_http_server([(200, {"data": []})]) as (url, _):
            backend = HttpBackend(base_url=url, model="m", embed_model="e")
            with pytest.raises(ProviderError, match=r"^malformed embedding response: IndexError"):
                backend.embed("abc")

    def test_body_that_is_not_json(self):
        class Response:
            status_code, text = 200, "<html>busy</html>"

            def json(self):
                return json.loads(self.text)

        class Session:
            def post(self, *args, **kwargs):
                return Response()

        backend = HttpBackend(base_url="http://unused", model="m", session=Session())
        with pytest.raises(ProviderError, match="^provider returned invalid JSON: Expecting value"):
            backend.complete(req("x"))

    def test_malformed_chat_response(self):
        with stub_http_server([(200, {"choices": []})]) as (url, _):
            backend = HttpBackend(base_url=url, model="m")
            with pytest.raises(ProviderError, match="malformed"):
                backend.complete(req("x"))

    @pytest.mark.parametrize("content", [None, 7, ["hi"]])
    def test_chat_content_that_is_not_a_string(self, content):
        with stub_http_server([(200, self.chat_payload(content))]) as (url, _):
            backend = HttpBackend(base_url=url, model="m")
            with pytest.raises(ProviderError, match="not a string"):
                backend.complete(req("x"))
