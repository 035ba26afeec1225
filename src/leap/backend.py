"""Chat-completion and text-embedding providers.

Two chat providers share one interface: an HTTP client speaking the standard
chat-completions wire format, and a deterministic scripted provider that
answers from a fixture file so every agent behavior can be tested offline.
Embeddings likewise come either from the HTTP endpoint or from a seeded
feature-hashing embedder with reproducible geometry.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Protocol

import numpy as np

from .core import Embedding, Record, canonical_json, read_records
from .errors import (
    ProviderError,
    RetryExhaustedError,
    SchemaError,
    UnmatchedFixtureError,
)

__all__ = [
    "ChatMessage",
    "ChatRequest",
    "Embedding",
    "ChatProvider",
    "Embedder",
    "request_digest",
    "ScriptedProvider",
    "ScriptEntry",
    "load_script",
    "HashingEmbedder",
    "HttpBackend",
    "euclidean",
    "cosine",
]


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "user" | "assistant"
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("user", "assistant"):
            raise SchemaError(f"message role must be user or assistant, got {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request; immutable so providers cannot mutate it."""

    system_prompt: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    top_p: float = 1.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.messages:
            raise SchemaError("chat request needs at least one message")
        if not 0.0 <= self.temperature <= 2.0:
            raise SchemaError(f"temperature {self.temperature} outside [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise SchemaError(f"top_p {self.top_p} outside (0, 1]")
        if self.max_tokens <= 0:
            raise SchemaError("max_tokens must be positive")

    def text(self) -> str:
        """All textual content of the request, used for substring routing."""
        return "\n".join([self.system_prompt, *(m.content for m in self.messages)])


def euclidean(a: Embedding, b: Embedding) -> float:
    """Euclidean distance between two embeddings of equal dimension."""
    if a.dim != b.dim:
        raise SchemaError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a.vector.tolist(), b.vector.tolist())))


def cosine(a: Embedding, b: Embedding) -> float:
    """Cosine similarity; zero vectors compare as 0.0."""
    if a.dim != b.dim:
        raise SchemaError(f"dimension mismatch: {a.dim} vs {b.dim}")
    # Python floats summed left to right, so results match the pinned cases bit for bit.
    u, v = a.vector.tolist(), b.vector.tolist()
    dot = sum(x * y for x, y in zip(u, v))
    na = math.sqrt(sum(x * x for x in u))
    nb = math.sqrt(sum(y * y for y in v))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class ChatProvider(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


class Embedder(Protocol):
    def embed(self, text: str) -> Embedding: ...


def request_digest(request: ChatRequest) -> str:
    """SHA-256 key for a request: system prompt, messages, and temperature."""
    payload = canonical_json(
        [
            "chat",
            request.system_prompt,
            [[m.role, m.content] for m in request.messages],
            request.temperature,
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ScriptEntry(Record):
    """One scripted reply.

    Matched by exact request digest when ``key`` is set, by substring routing
    when ``claim_key`` is set (the entry answers the next request whose text
    contains the substring), or consumed in file order when neither is set.
    """

    reply: str
    key: str | None = None
    claim_key: str | None = None


def load_script(path: str | Path) -> list[ScriptEntry]:
    return read_records(path, ScriptEntry)


class ScriptedProvider:
    """Deterministic chat provider answering from a fixed script.

    Lookup order per request: exact digest match, then claim-keyed entries,
    then the next plain ordinal entry. Anything unmatched is an error, never
    a fallback. Every call is appended to ``calls`` for test assertions.

    Claim-keyed routing picks the unconsumed entry whose substring occurs
    EARLIEST in the request text (file order breaks ties). Prompts render the
    claim under processing first and retrieved exemplars below it, so the
    earliest match is the right claim even when memory contents quote other
    claims verbatim.
    """

    def __init__(self, entries: Iterable[ScriptEntry]):
        self._entries = list(entries)
        # The first entry of each digest; the unconsumed entries of each claim
        # key and the unconsumed plain entries, each in file order.
        self._by_digest: dict[str, int] = {}
        self._by_claim: dict[str, deque[int]] = {}
        self._ordinal: deque[int] = deque()
        for i, entry in enumerate(self._entries):
            if entry.key is not None:
                self._by_digest.setdefault(entry.key, i)
            if entry.claim_key is not None:
                self._by_claim.setdefault(entry.claim_key, deque()).append(i)
            elif entry.key is None:
                self._ordinal.append(i)
        self._lock = threading.Lock()
        self.calls: list[dict[str, str]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedProvider":
        return cls(load_script(path))

    def complete(self, request: ChatRequest) -> str:
        digest = request_digest(request)
        text = request.text()
        with self._lock:
            index = self._find(digest, text)
            if index is None:
                raise UnmatchedFixtureError(f"no script entry matches request digest {digest}")
            entry = self._entries[index]
            # An entry with a digest key is never consumed; any other is the
            # head of its queue.
            if entry.key is None and entry.claim_key is None:
                self._ordinal.popleft()
            elif entry.key is None:
                queue = self._by_claim[entry.claim_key]
                queue.popleft()
                if not queue:
                    del self._by_claim[entry.claim_key]
            mode = "key" if entry.key else ("claim_key" if entry.claim_key else "ordinal")
            self.calls.append({"digest": digest, "mode": mode, "reply": entry.reply})
            return entry.reply

    def _find(self, digest: str, text: str) -> int | None:
        index = self._by_digest.get(digest)
        if index is not None:
            return index
        best: tuple[int, int] | None = None
        for claim_key, queue in self._by_claim.items():
            position = text.find(claim_key)
            if position >= 0 and (best is None or (position, queue[0]) < best):
                best = (position, queue[0])
        if best is not None:
            return best[1]
        return self._ordinal[0] if self._ordinal else None


# An embedder's trigram memo starts afresh at this many entries (about 120
# bytes each, so under 8 MB).
_MEMO_CAP = 1 << 16


class _TrigramCodes(dict):
    """trigram -> bucket * 2 + sign bit, computed on a miss. Threads may share
    it: racing misses compute and store the same code, which is harmless."""

    def __init__(self, dim: int, key: bytes):
        super().__init__()
        self.dim = dim
        self.key = key
        self._lock = threading.Lock()

    def __missing__(self, gram: str) -> int:
        digest = hashlib.blake2b(gram.encode("utf-8"), key=self.key, digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        code = value % self.dim * 2 + (value >> 63)
        with self._lock:  # so racing misses cannot overshoot the cap
            if len(self) >= _MEMO_CAP:
                self.clear()
            self[gram] = code
        return code


class HashingEmbedder:
    """Seeded character-trigram feature hashing into a fixed dimension.

    Each trigram is hashed with a keyed blake2b; the digest picks a bucket
    and a sign. Vectors are L2-normalized, so shared trigrams pull texts
    together under Euclidean distance. Fully deterministic for a given
    (dim, seed), across processes and platforms.

    Each instance memoizes the bucket and sign of every trigram it has seen,
    up to 2**16 of them before it starts afresh, so one embedder should be
    reused. The counts are integers, so the vector has the same bits as
    summing the signs one by one, for any text under 2**26 trigrams (the sum
    of squares stays below 2**53).
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim <= 0:
            raise SchemaError("embedder dim must be positive")
        self.dim = dim
        self._codes = _TrigramCodes(dim, seed.to_bytes(8, "little", signed=True))

    def embed(self, text: str) -> Embedding:
        if not text:
            raise SchemaError("cannot embed empty text")
        grams = [text[i : i + 3] for i in range(len(text) - 2)] or [text]
        codes = np.fromiter(map(self._codes.__getitem__, grams), dtype=np.int64, count=len(grams))
        counts = np.bincount(codes >> 1, weights=(codes & 1) * 2.0 - 1.0, minlength=self.dim)
        norm = math.sqrt(counts @ counts)
        if norm == 0.0:
            counts[0] = 1.0
            norm = 1.0
        return Embedding(vector=counts / norm)


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}


@dataclass
class HttpBackend:
    """HTTP client for chat completions and embeddings.

    Speaks the industry-standard wire shape: POST {base_url}/chat/completions
    and POST {base_url}/embeddings, bearer-token auth. Transient failures
    (connection errors, 5xx, 429) are retried with exponential backoff.
    `requests` is imported when an instance is built (with an injected
    session, at its first request), so offline and scripted runs never load
    an HTTP client.
    """

    base_url: str
    model: str
    embed_model: str = ""
    embed_dim: int = 0
    api_key: str | None = None
    retries: int = 3
    backoff_s: float = 0.25
    timeout_s: float = 60.0
    session: Any = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.base_url = self.base_url.rstrip("/")
        if self.session is None:
            import requests

            self.session = requests.Session()

    def complete(self, request: ChatRequest) -> str:
        body = self.chat_body(request)
        payload = self._post("/chat/completions", body)
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed chat response: {exc!r}") from exc
        if not isinstance(content, str):
            raise ProviderError(f"malformed chat response: content is {content!r}, not a string")
        return content

    def embed(self, text: str) -> Embedding:
        if not text:
            raise SchemaError("cannot embed empty text")
        body = canonical_json({"model": self.embed_model, "input": text}).encode("utf-8")
        payload = self._post("/embeddings", body)
        try:
            vector = payload["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response: {exc!r}") from exc
        embedding = Embedding.of(vector)
        if self.embed_dim and embedding.dim != self.embed_dim:
            raise ProviderError(
                f"provider returned dim {embedding.dim}, configured dim {self.embed_dim}"
            )
        return embedding

    def chat_body(self, request: ChatRequest) -> bytes:
        """Serialized request body; key order and separators are fixed."""
        messages = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        messages.extend({"role": m.role, "content": m.content} for m in request.messages)
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
        }
        return canonical_json(body).encode("utf-8")

    def _post(self, route: str, body: bytes) -> Any:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = self.base_url + route
        last_reason = "no attempt made"
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                response = self.session.post(url, data=body, headers=headers, timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_reason = f"transport error: {exc}"
                continue
            if response.status_code in _RETRYABLE_STATUSES:
                last_reason = f"status {response.status_code}"
                continue
            if response.status_code != 200:
                raise ProviderError(
                    f"provider returned status {response.status_code}: {response.text[:200]}",
                    status=response.status_code,
                    body=response.text[:200],
                )
            try:
                return response.json()
            except ValueError as exc:
                raise ProviderError(f"provider returned invalid JSON: {exc}") from exc
        raise RetryExhaustedError(
            f"gave up on {url} after {self.retries + 1} attempts ({last_reason})"
        )
