"""Embedding-keyed experience stores for the learning loop.

Three stores share one mechanism: planner reflections, actor precedents, and
critic value samples. Retrieval is exact brute-force nearest-neighbor under
Euclidean distance; at the scales this runtime operates at (around 10^3
records, capped by default near the point where retrieval quality degrades)
exact search is cheap and lets tests check results against an exhaustive
oracle. Stores allow many concurrent readers and one writer.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core import Embedding, Record, VerificationStrategy, _check_keys, _loads_line, canonical_json
from .errors import SchemaError, StorageError

__all__ = [
    "ReflectionRecord",
    "PrecedentRecord",
    "ValueSample",
    "MemoryStore",
    "Memories",
    "record_id",
]

DEFAULT_CAP = 1400


def record_id(*parts: Any) -> str:
    """Content-addressed record id so identical inserts deduplicate on rerun."""
    return hashlib.sha256(canonical_json(list(parts)).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ReflectionRecord(Record):
    """A stored failure analysis: diagnosis, principles, and a revised strategy.

    ``key_text`` is the failed claim's query+response concatenation, so the
    record lives in claim space and ranks against new claims by distance.
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


_RECORD_TYPES: dict[str, Any] = {
    "reflection": ReflectionRecord,
    "precedent": PrecedentRecord,
    "value": ValueSample,
}


class MemoryStore:
    """Append-only record store with exact top-k retrieval and FIFO eviction.

    ``kind`` names the record type held ("reflection", "precedent", or
    "value"). With a cap configured, inserting past it evicts the oldest
    record. Retrieval never observes a half-inserted record: inserts and
    snapshot reads are serialized by a lock.
    """

    def __init__(self, kind: str, dim: int, cap: int | None = DEFAULT_CAP):
        if kind not in _RECORD_TYPES:
            raise SchemaError(f"unknown store kind: {kind!r}")
        if dim <= 0:
            raise SchemaError("store dim must be positive")
        if cap is not None and cap < 1:
            raise SchemaError("store cap must be positive or None")
        self.kind = kind
        self.dim = dim
        self.cap = cap
        self._records: list[Any] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: Any) -> str:
        """Add a record, evicting the oldest one if the cap is exceeded."""
        expected = _RECORD_TYPES[self.kind]
        if not isinstance(record, expected):
            raise SchemaError(
                f"{self.kind} store cannot hold {type(record).__name__}", field="record"
            )
        if record.embedding.dim != self.dim:
            raise SchemaError(
                f"record embedding dim {record.embedding.dim} does not match store dim {self.dim}"
            )
        with self._lock:
            self._records.append(record)
            if self.cap is not None and len(self._records) > self.cap:
                self._records.pop(0)
        return record.id

    def records(self) -> list[Any]:
        """Snapshot of the store contents in insertion order."""
        with self._lock:
            return list(self._records)

    def retrieve_top_k(
        self,
        query: Embedding,
        k: int,
        predicate: Callable[[Any], bool] | None = None,
    ) -> list[Any]:
        """The k records nearest to the query by Euclidean distance.

        Results are sorted ascending by distance; ties break toward older
        records. Exact exhaustive search, no approximation.
        """
        if k < 1:
            raise SchemaError("k must be at least 1")
        if query.dim != self.dim:
            raise SchemaError(f"query dim {query.dim} does not match store dim {self.dim}")
        candidates = self.records()
        if predicate is not None:
            candidates = [r for r in candidates if predicate(r)]
        if not candidates:
            return []
        matrix = np.array([r.embedding.vector for r in candidates], dtype=np.float64)
        q = np.array(query.vector, dtype=np.float64)
        distances = np.sqrt(((matrix - q) ** 2).sum(axis=1))
        order = np.argsort(distances, kind="stable")
        return [candidates[i] for i in order[:k]]

    def persist(self, path: str | Path) -> None:
        """Write the store to a file: one header line, then one record per line."""
        path = Path(path)
        header = canonical_json(
            {"dim": self.dim, "cap": self.cap, "count": len(self._records), "kind": self.kind}
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                for record in self.records():
                    fh.write(canonical_json(record.to_dict()) + "\n")
        except OSError as exc:
            raise StorageError(f"cannot persist store to {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "MemoryStore":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise StorageError(f"cannot load store from {path}: {exc}") from exc
        lines = text.splitlines()
        if not lines:
            raise SchemaError("store file is empty (missing header)", line=1)
        header = _loads_line(lines[0], 1)
        _check_keys(header, {"dim", "cap", "count", "kind"}, set(), "", 1)
        kind = header["kind"]
        if kind not in _RECORD_TYPES:
            raise SchemaError(f"unknown store kind: {kind!r}", line=1, field="kind")
        store = cls(kind=kind, dim=header["dim"], cap=header["cap"])
        record_type = _RECORD_TYPES[kind]
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            record = record_type.from_dict(_loads_line(line, i), line=i)
            store.insert(record)
        if len(store) != header["count"]:
            raise SchemaError(
                f"header declares {header['count']} records, file holds {len(store)}",
                line=1,
                field="count",
            )
        return store


_STORE_FILES = {
    "reflections": "reflection",
    "precedents": "precedent",
    "values": "value",
}


@dataclass
class Memories:
    """The three stores the agents read and the learning loop writes."""

    reflections: MemoryStore
    precedents: MemoryStore
    values: MemoryStore

    @classmethod
    def fresh(cls, dim: int, cap: int | None = DEFAULT_CAP) -> "Memories":
        return cls(
            reflections=MemoryStore("reflection", dim, cap),
            precedents=MemoryStore("precedent", dim, cap),
            values=MemoryStore("value", dim, cap),
        )

    def persist(self, directory: str | Path) -> None:
        directory = Path(directory)
        for name in _STORE_FILES:
            getattr(self, name).persist(directory / f"{name}.jsonl")

    @classmethod
    def load(cls, directory: str | Path) -> "Memories":
        directory = Path(directory)
        stores = {}
        for name, kind in _STORE_FILES.items():
            store = MemoryStore.load(directory / f"{name}.jsonl")
            if store.kind != kind:
                raise SchemaError(f"{name}.jsonl holds kind {store.kind!r}, expected {kind!r}")
            stores[name] = store
        return cls(**stores)

    @classmethod
    def load_or_fresh(
        cls, directory: str | Path, dim: int, cap: int | None = DEFAULT_CAP
    ) -> "Memories":
        directory = Path(directory)
        if (directory / "reflections.jsonl").exists():
            return cls.load(directory)
        return cls.fresh(dim, cap)
