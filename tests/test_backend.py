"""Providers: scripted chat, hashing embedder, and the HTTP client."""

from __future__ import annotations

import json

import pytest

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

from conftest import stub_http_server


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


class TestHashingEmbedder:
    def test_deterministic(self):
        embedder = HashingEmbedder(dim=32, seed=3)
        assert embedder.embed("abc") == embedder.embed("abc")
        assert embedder.embed("abc") == HashingEmbedder(dim=32, seed=3).embed("abc")

    def test_configured_dimension_and_unit_norm(self):
        vector = HashingEmbedder(dim=24, seed=0).embed("some text").vector
        assert len(vector) == 24
        assert sum(v * v for v in vector) == pytest.approx(1.0)

    def test_empty_text_rejected(self):
        with pytest.raises(SchemaError):
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

    def test_cosine_identity_and_orthogonal(self):
        a = Embedding.of([1.0, 0.0])
        b = Embedding.of([0.0, 2.0])
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, b) == 0.0

    def test_embedding_validates_entries(self):
        with pytest.raises(SchemaError):
            Embedding.of([float("nan")])
        with pytest.raises(SchemaError):
            Embedding(vector=(1.0, 2.0), dim=3)

    def test_embedding_rejects_entries_that_are_not_numbers(self):
        for values in (["x"], [[1.0, 2.0]], [{}]):
            with pytest.raises(SchemaError, match="entries must be numbers"):
                Embedding.of(values)

    def test_equal_embeddings_hash_alike(self):
        a, b = Embedding.of([0.0, 1.5]), Embedding((-0.0, 1.5), 2)
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

    def test_malformed_chat_response(self):
        with stub_http_server([(200, {"choices": []})]) as (url, _):
            backend = HttpBackend(base_url=url, model="m")
            with pytest.raises(ProviderError, match="malformed"):
                backend.complete(req("x"))
