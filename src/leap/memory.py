"""Embedding-keyed experience stores for the learning loop.

Three stores share one mechanism: planner reflections, actor precedents, and
critic value samples. Retrieval is exact brute-force nearest-neighbor under
Euclidean distance, the flat-index design of FAISS ``IndexFlatL2``: at the
scales this runtime operates at (around 10^3 records, capped by default near
the point where retrieval quality degrades) exact search is cheap and lets
tests check results against an exhaustive oracle.

Layout. Each store keeps its records in a list, their embeddings in one
contiguous float64 matrix, row ``i`` for record ``i``, and each row's squared
norm beside it. The matrix doubles as records arrive, never past the cap; once
the store is full, each insert overwrites the oldest record's row, a ring
buffer, so eviction moves nothing. Records keep read-only vectors apart from
that matrix, so an evicted record handed out earlier stays intact.

Search. A query is filtered in one matrix-vector product: the squared
distance ``‖m‖² − 2 m·q + ‖q‖²`` of every row, from the cached norms, with a
proven bound on its rounding error. Only the rows that bound cannot rule out
of the top k are then re-ranked by the exact expression
``sqrt(sum((m − q)²))``, so every result, distance ties included, is the one
an exhaustive exact pass gives.

Files (store format v2). A store persisted at ``values.jsonl`` is a pair:
that file holds a header line, then one record per line, oldest first, whose
``embedding`` is its row index; ``values.npy`` beside it holds the
embeddings as one little-endian float64 ``(count, dim)`` matrix in insertion
order, in NumPy's own format (NEP 1). Both files are written in full; then
the matrix replaces its old copy, then the lines do. The header holds the
matrix's sha256, so a torn or mismatched pair fails at load. Loading checks
the matrix once (its shape, digest and finiteness), gives each record a
read-only view of its row and fills the store's matrix with one copy. The
record lines are read through ``core.read_lines``, a line at a time. Stores
of format v1, with their embeddings inline, are not read.
"""

from __future__ import annotations

import hashlib
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
    atomic_file,
    canonical_json,
    read_lines,
    record_id,
    wire_value,
)
from .errors import SchemaError, StorageError

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

# The filter's bound on a squared distance's rounding error is
# ``4 (d + 3) (eps S + tiny)``, with ``S = 2 (‖m‖² + ‖q‖²) ≥ (‖m‖ + ‖q‖)²``
# and ``tiny`` the least subnormal. The filtered value and the exact one
# together err by at most about ``(d + 2) eps (‖m‖ + ‖q‖)²``, plus ``3 d``
# half-subnormals where products underflow (Higham, Accuracy and Stability of
# Numerical Algorithms, §2.1 and §3.1). The factor 4 leaves a gap of at least
# ``(d + 3) (eps S + tiny)`` beyond both, so a row the filter drops has an
# exact squared distance at least 4 eps above the k-th: its square root is
# strictly greater, and it cannot even tie with a kept row.
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

# The header line of a persisted store, field by field.
_HEADER = {"dim": int, "cap": int | None, "count": int, "kind": str, "matrix_sha256": str}


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
    ``_sqnorms[i]`` is that row's squared norm. Once the store is full, the
    oldest record sits at ``_head``. Inserts and snapshot reads (the
    matrix-vector filter included) are serialized by a lock, so retrieval
    never observes a half-inserted record or a row being reused.
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
        self._sqnorms = np.empty(0)
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
            vector = record.embedding.vector
            self._matrix[row] = vector
            self._sqnorms[row] = vector.dot(vector)
        return record.id

    def _grow(self) -> None:
        """Double the matrix's rows, never past the cap."""
        rows = max(_FIRST_ROWS, 2 * len(self._matrix))
        if self.cap is not None:
            rows = min(rows, self.cap)
        matrix, sqnorms = np.empty((rows, self.dim)), np.empty(rows)
        matrix[: len(self._matrix)] = self._matrix
        sqnorms[: len(self._sqnorms)] = self._sqnorms
        self._matrix, self._sqnorms = matrix, sqnorms

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
        records. Exact search: the predicate selects from a snapshot, a
        matrix-vector filter with a proven error bound keeps every row that
        could be among the k nearest, and those few are re-ranked by the
        exact distance. If a filtered value or its bound is not finite
        (embeddings near 1e154 overflow), every selected row is re-ranked.
        """
        if k < 1:
            raise SchemaError("k must be at least 1")
        if query.dim != self.dim:
            raise SchemaError(f"query dim {query.dim} does not match store dim {self.dim}")
        q, c = query.vector, 4 * (self.dim + 3)
        # A value that overflows shows as a bound that is not finite.
        with self._lock, np.errstate(over="ignore", invalid="ignore"):
            head, records = self._head, self._in_order()
            sqnorms, qq = self._sqnorms[: len(records)], q.dot(q)
            approx = sqnorms - 2.0 * self._matrix[: len(records)].dot(q) + qq
            bound = (2 * c * _EPS) * sqnorms + c * (2 * _EPS * qq + _TINY)
            lower, upper = approx - bound, approx + bound
        if predicate is None:
            keep = np.arange(len(records))
        else:
            keep = np.array([i for i, r in enumerate(records) if predicate(r)], dtype=np.intp)
        if not len(keep):
            return []
        # Rows are in ring order; row (i + head) % n holds the i-th oldest record.
        rows = (keep + head) % len(records)
        lower, upper = lower[rows], upper[rows]
        # An upper bound is finite only where its value and bound are.
        if len(keep) > k and np.isfinite(upper).all():
            keep = keep[lower <= np.partition(upper, k - 1)[k - 1]]
        # A record's own vector equals its row, and stays put once the lock is
        # released. Candidates are in insertion order, so a stable sort breaks
        # ties toward older records.
        candidates = np.array([records[i].embedding.vector for i in keep])
        distances = np.sqrt(((candidates - q) ** 2).sum(axis=1))
        return [records[i] for i in keep[np.argsort(distances, kind="stable")[:k]]]

    def persist(self, path: str | Path) -> None:
        """Write the store to ``path`` and its matrix beside it, each file atomically.

        Both files are written in full before either replaces its old copy;
        the matrix goes first, as the record lines name it by its digest.
        """
        path, records = Path(path), self.records()
        header = {"dim": self.dim, "cap": self.cap, "count": len(records), "kind": self.kind}
        digest = hashlib.sha256()
        with atomic_file(path) as text, atomic_file(_matrix_path(path), binary=True) as data:
            # A record's own vector equals its row in insertion order and never
            # changes, so the rows are written from the records, with no copy
            # of the matrix and no lock held.
            np.lib.format.write_array_header_1_0(
                data, {"descr": "<f8", "fortran_order": False, "shape": (len(records), self.dim)}
            )
            for record in records:
                row = record.embedding.vector.astype("<f8", copy=False)
                digest.update(row)
                data.write(row)
            header["matrix_sha256"] = digest.hexdigest()
            text.write(canonical_json(header) + "\n")
            for row, record in enumerate(records):
                line = record.to_dict()
                line["embedding"] = row
                text.write(canonical_json(line) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MemoryStore":
        """Read a persisted store and its matrix, checking every line and the pair."""
        path = Path(path)
        with closing(read_lines(path)) as lines:
            first = next(lines, None)
            if first is None:
                raise SchemaError("store file is empty (missing header)", line=1)
            at, text = first  # the header
            header = _loads_line(text, at)
            if isinstance(header, dict) and header.keys() == _HEADER.keys() - {"matrix_sha256"}:
                raise SchemaError(
                    f"{path.name} has no matrix: it is a v1 store, with its embeddings inline;"
                    " only v2 stores, with a .npy matrix beside them, are read",
                    line=at,
                    field="matrix_sha256",
                )
            _check_keys(header, set(_HEADER), set(), "", at)
            decoded = {key: wire_value(hint, header[key], key, at) for key, hint in _HEADER.items()}
            count = decoded["count"]
            try:
                store = cls(decoded["kind"], decoded["dim"], decoded["cap"])
                if store.cap is not None and count > store.cap:
                    raise SchemaError(f"count {count} exceeds the cap", field="count")
            except SchemaError as exc:
                raise exc.located(at, "") from None
            matrix = _load_matrix(path, count, store.dim, decoded["matrix_sha256"])
            embeddings = Embedding.rows_of(matrix)
            record_type = _KINDS[store.kind]
            for row, (i, line) in enumerate(lines):
                if row == count:
                    raise SchemaError(
                        f"header declares {count} records, file holds more", line=at, field="count"
                    )
                obj = _loads_line(line, i)
                if isinstance(obj, dict) and "embedding" in obj:
                    # The codec takes the Embedding in place of its checked row index.
                    if type(obj["embedding"]) is not int or obj["embedding"] != row:
                        name = _matrix_path(path).name
                        raise SchemaError(f"expected row {row} of {name}", line=i, field="embedding")
                    obj["embedding"] = embeddings[row]
                store._records.append(record_type.from_dict(obj, line=i))
        if len(store) != count:
            raise SchemaError(
                f"header declares {count} records, file holds {len(store)}", line=at, field="count"
            )
        store._matrix = np.array(matrix)
        store._sqnorms = np.einsum("ij,ij->i", matrix, matrix)
        return store


def _matrix_path(path: Path) -> Path:
    """The ``.npy`` file that holds the matrix of the store file at ``path``."""
    return path.with_suffix(".npy")


def _load_matrix(store_path: Path, count: int, dim: int, sha256: str) -> np.ndarray:
    """The checked ``(count, dim)`` matrix of finite float64s beside a store file."""
    path = _matrix_path(store_path)
    try:
        with path.open("rb") as fh:
            matrix = np.load(fh, allow_pickle=False)
            trailing = fh.read(1)
    except FileNotFoundError:
        raise SchemaError(f"{path.name} is missing", field="matrix_sha256") from None
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError) as exc:
        raise SchemaError(
            f"{path.name} is not a .npy matrix: {exc}", field="matrix_sha256"
        ) from None
    if (
        not isinstance(matrix, np.ndarray)
        or matrix.dtype != np.dtype("<f8")
        or not matrix.flags.c_contiguous
        or trailing
    ):
        raise SchemaError(
            f"{path.name} does not hold just little-endian float64s in C order",
            field="matrix_sha256",
        )
    if matrix.shape != (count, dim):
        raise SchemaError(
            f"{path.name} holds a matrix of shape {matrix.shape},"
            f" the header declares ({count}, {dim})",
            field="count" if matrix.shape[1:] == (dim,) else "dim",
        )
    if hashlib.sha256(matrix).hexdigest() != sha256:
        raise SchemaError(
            f"{path.name} does not match the digest in {store_path.name}", field="matrix_sha256"
        )
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise SchemaError(f"row {row} of {path.name} is not finite", field="embedding")
    return matrix


class _StagedStore:
    """One claim's view of a store: reads go through, inserts queue for the commit."""

    def __init__(self, store: MemoryStore, pending: list[tuple[MemoryStore, Any]]):
        self.store, self._pending = store, pending

    def retrieve_top_k(self, *args: Any, **kwargs: Any) -> list[Any]:
        return self.store.retrieve_top_k(*args, **kwargs)

    def insert(self, record: Any) -> str:
        self._pending.append((self.store, record))
        return record.id


@dataclass
class Memories:
    """The three stores the agents read and the learning loop writes."""

    reflections: MemoryStore
    precedents: MemoryStore
    values: MemoryStore

    def staged(self) -> tuple["Memories", list[tuple[MemoryStore, Any]]]:
        """A view that reads these stores and queues its inserts in the list."""
        pending: list[tuple[MemoryStore, Any]] = []
        return Memories(*(_StagedStore(s, pending) for s in vars(self).values())), pending

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
        """The stores saved in ``directory``, whose dim must be ``dim``, else fresh stores.

        Saved stores take ``cap``; one holding more records keeps the newest,
        as if they had been inserted under that cap.
        """
        directory = Path(directory)
        if not (directory / "reflections.jsonl").exists():
            return cls.fresh(dim, cap)
        stores = {}
        for name, store in vars(cls.load(directory)).items():
            if store.dim != dim:
                raise SchemaError(f"{store.kind}s.jsonl has dim {store.dim}, the embedder has dim {dim}")
            if store.cap != cap:
                records, store = store.records(), MemoryStore(store.kind, dim, cap)
                for record in records:
                    store.insert(record)
            stores[name] = store
        return cls(**stores)
