"""Embedding-keyed experience stores for the learning loop.

Three stores share one mechanism: planner reflections, actor precedents, and
critic value samples. Retrieval is exact brute-force nearest-neighbor under
Euclidean distance, the flat-index design of FAISS ``IndexFlatL2``: at the
scales this runtime operates at (around 10^3 records, capped by default near
the point where retrieval quality degrades) exact search is cheap and lets
tests check results against an exhaustive oracle.

Layout. Each store keeps its records in a list and their embeddings in one
contiguous float64 matrix, row ``i`` for record ``i``, so a query is one
vectorised distance pass. The matrix doubles as records arrive, never past
the cap; once the store is full, each insert overwrites the oldest record's
row, a ring buffer, so eviction moves nothing. Records keep their own
read-only vectors, so an evicted record handed out earlier stays intact.

The file form does not depend on the layout: a header line, then one record
per line in insertion order, each embedding written as the base64 text of its
little-endian float64 entries. Loading reads the file through
``core.read_lines``, a line at a time, so a store's text is never held whole.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core import (
    Embedding,
    Record,
    VerificationStrategy,
    _check_keys,
    _loads_line,
    canonical_json,
    read_lines,
    record_id,
    wire_value,
    write_record_lines,
)
from .errors import SchemaError

__all__ = [
    "ReflectionRecord",
    "PrecedentRecord",
    "ValueSample",
    "MemoryStore",
    "Memories",
    "record_id",  # re-exported from core
]

DEFAULT_CAP = 1400

# Rows a store's matrix starts with; it doubles as records arrive.
_FIRST_ROWS = 64

# The header line of a persisted store, field by field.
_HEADER = {"dim": int, "cap": int | None, "count": int, "kind": str}


@dataclass(frozen=True)
class ReflectionRecord(Record):
    """A stored failure analysis: diagnosis, principles, and a revised strategy.

    ``key_text`` is the failed claim's block as the agents see it
    (``format_claim_block``), so the record lives in claim space and ranks
    against new claims by distance.
    """

    id: str
    key_text: str
    diagnosis: str
    principles: tuple[str, ...]
    revised_strategy: VerificationStrategy
    embedding: Embedding

    def __post_init__(self) -> None:
        object.__setattr__(self, "principles", tuple(self.principles))
        if not self.principles:
            raise SchemaError("reflection needs at least one principle", field="principles")


@dataclass(frozen=True)
class PrecedentRecord(Record):
    """A (claim, strategy, advantage) tuple from a finished episode."""

    id: str
    claim_text: str
    strategy: VerificationStrategy
    advantage: float
    embedding: Embedding


@dataclass(frozen=True)
class ValueSample(Record):
    """A (state summary, estimated value) pair for in-context value fitting."""

    id: str
    state_summary: str
    value: float
    embedding: Embedding


# Store kind -> the record type it holds. The kind's plural names both the
# ``Memories`` field and the store's file.
_KINDS: dict[str, Any] = {
    "reflection": ReflectionRecord,
    "precedent": PrecedentRecord,
    "value": ValueSample,
}


class MemoryStore:
    """Record store with exact top-k retrieval and FIFO eviction.

    ``kind`` names the record type held ("reflection", "precedent", or
    "value"). With a cap configured, inserting past it evicts the oldest
    record. Row ``i`` of the matrix holds the embedding of ``_records[i]``;
    once the store is full, the oldest record sits at ``_head``. Inserts and
    snapshot reads (the distance pass included) are serialized by a lock, so
    retrieval never observes a half-inserted record or a row being reused.
    """

    def __init__(self, kind: str, dim: int, cap: int | None = DEFAULT_CAP):
        if kind not in _KINDS:
            raise SchemaError(f"unknown store kind: {kind!r}", field="kind")
        if dim <= 0:
            raise SchemaError("store dim must be positive", field="dim")
        if cap is not None and cap < 1:
            raise SchemaError("store cap must be positive or None", field="cap")
        self.kind = kind
        self.dim = dim
        self.cap = cap
        self._records: list[Any] = []
        self._matrix = np.empty((0, dim))
        self._head = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: Any) -> str:
        """Add a record, evicting the oldest one if the cap is exceeded."""
        expected = _KINDS[self.kind]
        if not isinstance(record, expected):
            raise SchemaError(
                f"{self.kind} store cannot hold {type(record).__name__}", field="record"
            )
        if record.embedding.dim != self.dim:
            raise SchemaError(
                f"record embedding dim {record.embedding.dim} does not match store dim {self.dim}",
                field="embedding",
            )
        with self._lock:
            row = len(self._records)
            if row == self.cap:  # full: the oldest record's row is reused
                row = self._head
                self._records[row] = record
                self._head = (row + 1) % self.cap
            else:
                if row == len(self._matrix):
                    self._grow()
                self._records.append(record)
            self._matrix[row] = record.embedding.vector
        return record.id

    def _grow(self) -> None:
        """Double the matrix's rows, never past the cap."""
        rows = max(_FIRST_ROWS, 2 * len(self._matrix))
        if self.cap is not None:
            rows = min(rows, self.cap)
        matrix = np.empty((rows, self.dim))
        matrix[: len(self._matrix)] = self._matrix
        self._matrix = matrix

    def records(self) -> list[Any]:
        """Snapshot of the store contents in insertion order."""
        with self._lock:
            return self._in_order()

    def _in_order(self) -> list[Any]:
        # The caller holds the lock.
        return self._records[self._head :] + self._records[: self._head]

    def retrieve_top_k(
        self,
        query: Embedding,
        k: int,
        predicate: Callable[[Any], bool] | None = None,
    ) -> list[Any]:
        """The k records nearest to the query by Euclidean distance.

        Results are sorted ascending by distance; ties break toward older
        records. Exact exhaustive search, no approximation: one distance
        pass over the live rows, then the predicate on the snapshot.
        """
        if k < 1:
            raise SchemaError("k must be at least 1")
        if query.dim != self.dim:
            raise SchemaError(f"query dim {query.dim} does not match store dim {self.dim}")
        with self._lock:
            head, records = self._head, self._in_order()
            distances = np.sqrt(((self._matrix[: len(records)] - query.vector) ** 2).sum(axis=1))
        # Rows are in ring order; rotate them into insertion order, so that a
        # stable sort breaks ties toward older records.
        distances = np.roll(distances, -head)
        if predicate is None:
            return [records[i] for i in np.argsort(distances, kind="stable")[:k]]
        keep = np.array([i for i, r in enumerate(records) if predicate(r)], dtype=np.intp)
        order = np.argsort(distances[keep], kind="stable")[:k]
        return [records[i] for i in keep[order]]

    def persist(self, path: str | Path) -> None:
        """Write the store to a file atomically: one header line, then one record per line."""
        records = self.records()
        header = {"dim": self.dim, "cap": self.cap, "count": len(records), "kind": self.kind}
        write_record_lines(
            path,
            itertools.chain(
                [canonical_json(header)], (canonical_json(r.to_dict()) for r in records)
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "MemoryStore":
        """Read a persisted store a line at a time, checking every line."""
        with closing(read_lines(path)) as lines:
            first = next(lines, None)
            if first is None:
                raise SchemaError("store file is empty (missing header)", line=1)
            at, text = first  # the header
            header = _loads_line(text, at)
            _check_keys(header, set(_HEADER), set(), "", at)
            decoded = {key: wire_value(hint, header[key], key, at) for key, hint in _HEADER.items()}
            try:
                store = cls(decoded["kind"], decoded["dim"], decoded["cap"])
            except SchemaError as exc:
                raise exc.located(at, "") from None
            record_type = _KINDS[store.kind]
            for i, line in lines:
                record = record_type.from_dict(_loads_line(line, i), line=i)
                try:
                    store.insert(record)
                except SchemaError as exc:
                    raise exc.located(i, "") from None
        if len(store) != decoded["count"]:
            raise SchemaError(
                f"header declares {decoded['count']} records, file holds {len(store)}",
                line=at,
                field="count",
            )
        return store


@dataclass
class Memories:
    """The three stores the agents read and the learning loop writes."""

    reflections: MemoryStore
    precedents: MemoryStore
    values: MemoryStore

    @classmethod
    def fresh(cls, dim: int, cap: int | None = DEFAULT_CAP) -> "Memories":
        return cls(**{f"{kind}s": MemoryStore(kind, dim, cap) for kind in _KINDS})

    def persist(self, directory: str | Path) -> None:
        directory = Path(directory)
        for kind in _KINDS:
            getattr(self, f"{kind}s").persist(directory / f"{kind}s.jsonl")

    @classmethod
    def load(cls, directory: str | Path) -> "Memories":
        directory = Path(directory)
        stores = {}
        for kind in _KINDS:
            store = MemoryStore.load(directory / f"{kind}s.jsonl")
            if store.kind != kind:
                raise SchemaError(f"{kind}s.jsonl holds kind {store.kind!r}, expected {kind!r}")
            stores[f"{kind}s"] = store
        return cls(**stores)

    @classmethod
    def load_or_fresh(
        cls, directory: str | Path, dim: int, cap: int | None = DEFAULT_CAP
    ) -> "Memories":
        """The stores saved in ``directory``, whose dim must be ``dim``, else fresh stores."""
        directory = Path(directory)
        if not (directory / "reflections.jsonl").exists():
            return cls.fresh(dim, cap)
        memories = cls.load(directory)
        for store in (memories.reflections, memories.precedents, memories.values):
            if store.dim != dim:
                raise SchemaError(f"{store.kind}s.jsonl has dim {store.dim}, the embedder has dim {dim}")
        return memories
