"""Embedding-keyed experience stores for the learning loop.

Three stores share one mechanism: planner reflections, actor precedents, and
critic value samples. Retrieval is exact brute-force nearest-neighbor under
Euclidean distance, the flat-index design of FAISS ``IndexFlatL2``: at the
scales this runtime operates at (around 10^3 records, capped by default near
the point where retrieval quality degrades) exact search is cheap and lets
tests check results against an exhaustive oracle.

Layout. Each store keeps its records in a list and, row ``i`` for record
``i``, columns beside it: a float32 filter matrix whose row is the record's
float64 vector rounded to nearest, the float64 squared norm of that vector
with its share of the filter's error bound, and whether the record is a
precedent with an advantage above 0. The columns double as records arrive, never past the cap; once the store is full,
each insert overwrites the oldest record's row, a ring buffer, so eviction
moves nothing. The float64 vectors themselves are only the records' own,
read-only, so an evicted record handed out earlier stays intact.

Search. A query is filtered in one float32 matrix-vector product: the squared
distance ``‖m‖² − 2 m·q + ‖q‖²`` of every row, from the cached norms, with a
proven bound on its rounding error. Only the rows that bound cannot rule out
of the top k are then re-ranked by the exact expression
``sqrt(sum((m − q)²))`` over the records' float64 vectors, so every result,
distance ties included, is the one an exhaustive exact pass gives. Rows and
queries too large for float32 skip the filter and are always re-ranked.
Precedents are split by the sign of their advantage through the boolean
column, with no call per record.

Files (store format v2). A store persisted at ``values.jsonl`` is a pair:
that file holds a header line, then one record per line, oldest first, whose
``embedding`` is its row index; ``values.npy`` beside it holds the
embeddings as one little-endian float64 ``(count, dim)`` matrix in insertion
order, in NumPy's own format (NEP 1). Both files are written in full; then
the matrix replaces its old copy, then the lines do. The header holds the
matrix's sha256, so a torn or mismatched pair fails at load. Loading checks
the matrix once (its shape, digest and finiteness), gives each record a
read-only view of its row and rounds the matrix once into the store's float32
filter. The digest is computed on a helper thread while the record lines
decode, and finiteness is read off the rows' squared norms; errors keep their
order all the same: the header, the matrix's form and shape, its digest, a
row that is not finite, then the lines. The record lines are read through
``core.read_lines``, a line at a time. Stores of format v1, with their
embeddings inline, are not read.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .core import (
    Embedding,
    Record,
    VerificationStrategy,
    _check_keys,
    _codec,
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

# Rows a store's columns start with; they double as records arrive.
_FIRST_ROWS = 64

# The filter's error bound. Notation: u = 2^-24 is float32's unit roundoff,
# λ = 2^-126 its least normal, d the dim, m a row, q the query, and
# S = 2 (‖m‖² + ‖q‖²), so that S ≥ (‖m‖ + ‖q‖)² ≥ ‖m − q‖² and
# Σ|m_i q_i| ≤ ‖m‖ ‖q‖ ≤ S/4. The filter computes a = s − 2 p + t: s and t are
# the float64 squared norms of m and q, and p is the float32 dot product of
# m̂ = fl32(m) and q̂ = fl32(q). The re-rank computes e = fl64(Σ (m_i − q_i)²).
# In the safe range, ‖m‖² and ‖q‖² at most 2^100 and d at most 2^17, every
# entry is at most 2^50 and every product and partial sum at most 2^101, so
# nothing overflows float32 and d u ≤ 2^-7 (Higham, Accuracy and Stability of
# Numerical Algorithms, §2.1 and §3.1):
# 1. Rounding to float32: m̂_i = m_i (1 + δ) + η with |δ| ≤ u and |η| ≤ λ, the
#    η also covering a kernel that flushes subnormals to zero. So
#    |m̂_i q̂_i − m_i q_i| ≤ (2u + u²)|m_i q_i| + (1 + u) λ (|m_i| + |q_i|) + λ²,
#    and, as λ|x| ≤ u x² + λ²/(4u) and λ/u = 2^-102,
#    2 |m̂·q̂ − m·q| ≤ 3 u S + d λ.
# 2. Float32 accumulation in any order, with or without fused multiply-adds:
#    |p − m̂·q̂| ≤ γ_d Σ|m̂_i q̂_i| + 2 d λ (1 + γ_d), γ_d = d u / (1 − d u), one λ
#    for each product or sum that underflows. So 2 |p − m̂·q̂| ≤ 0.51 d u S + 4.1 d λ.
# 3. Float64: s and t each err by γ_d in 2^-53 relative to ‖m‖² and ‖q‖², e by
#    γ_(d+2) relative to ‖m − q‖², a's two operations by 2^-52 relative to S,
#    plus 3 d half-subnormals of float64 where products underflow: at most
#    (2 d + 6) 2^-53 S + d λ ≤ u S + d λ.
# Together |a − e| ≤ (0.51 d + 4) u S + 6.1 d λ ≤ B = (d + 7) (u S + 8 λ).
# The filter keeps a row unless a − 4B exceeds T, the k-th least a + 4B. A
# dropped row j then has, against each of k kept rows i,
# e_j ≥ a_j − B_j > T + 3 B_j ≥ a_i + 4 B_i + 3 B_j ≥ e_i + 3 B_j ≥ e_i + 20 u e_j,
# so e_i < (1 − 2^-20) e_j: the square roots differ by far more than their
# roundings, and j is neither among the k nearest nor tied with them. The
# rounding of S (from s and t), 4B and a ± 4B, at most d 2^-52 relative, is
# lost in that slack.
# Rows outside the safe range, and every row of a query outside it, skip the
# filter: they are always re-ranked. Their filter rows hold zeros.
_U = 2.0**-24
_LAMBDA = float(np.finfo(np.float32).tiny)
_SAFE_SQNORM = 2.0**100
_SAFE_DIM = 2**17

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

    def __post_init__(self) -> None:
        # A finite advantage is either above 0 or at most 0, as the store's column splits them.
        if not math.isfinite(self.advantage):
            raise SchemaError("advantage must be finite", field="advantage")


@dataclass(frozen=True)
class ValueSample(Record):
    """A (state summary, estimated value) pair for in-context value fitting."""

    id: str
    state_summary: str
    value: float
    embedding: Embedding

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise SchemaError("value must be finite", field="value")


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
    record. Row ``i`` of the columns belongs to ``_records[i]``: ``_filter[i]``
    is its vector rounded to float32, ``_sqnorms[i]`` the float64 squared
    norm of its vector, ``_radii[i]`` that norm's share of the filter's error
    bound, and ``_positive[i]`` whether it is a precedent with an advantage
    above 0. A row outside the filter's safe range has a zero filter row and
    norm and an infinite radius, so no query rules it out. Once the store is
    full, the oldest record sits at ``_head``. The records' float64 vectors
    are the truth that the re-rank and ``persist`` read; the store holds no
    copy of them. Inserts and snapshot reads (the matrix-vector filter
    included) are serialized by a lock, so retrieval never observes a
    half-inserted record or a row being reused.
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
        self._filter = np.empty((0, dim), dtype=np.float32)
        self._sqnorms = np.empty(0)
        self._radii = np.empty(0)
        self._c = 4 * (dim + 7)  # the filter's bound is c (u S + 8 λ)
        self._positive = np.empty(0, dtype=bool)
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
        vector = record.embedding.vector
        with np.errstate(over="ignore"):  # an overflow to inf puts the row outside
            sqnorm = vector.dot(vector)
        inside = sqnorm <= _SAFE_SQNORM
        with self._lock:
            row = len(self._records)
            if row == self.cap:  # full: the oldest record's row is reused
                row = self._head
                self._records[row] = record
                self._head = (row + 1) % self.cap
            else:
                if row == len(self._filter):
                    self._grow()
                self._records.append(record)
            # Inside the safe range every entry is at most 2^50: the cast cannot overflow.
            self._filter[row] = vector if inside else 0.0
            self._sqnorms[row] = sqnorm if inside else 0.0
            self._radii[row] = 2 * self._c * _U * sqnorm if inside else np.inf
            self._positive[row] = self.kind == "precedent" and record.advantage > 0
        return record.id

    def _grow(self) -> None:
        """Double the columns' rows, never past the cap."""
        rows = max(_FIRST_ROWS, 2 * len(self._filter))
        if self.cap is not None:
            rows = min(rows, self.cap)
        columns = []
        for old in (self._filter, self._sqnorms, self._radii, self._positive):
            new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
            new[: len(old)] = old
            columns.append(new)
        self._filter, self._sqnorms, self._radii, self._positive = columns

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
        *,
        positive: bool | None = None,
    ) -> list[Any]:
        """The k records nearest to the query by Euclidean distance.

        Results are sorted ascending by distance; ties break toward older
        records. ``positive`` selects precedents through the store's column:
        True those with an advantage above 0, False the rest. Exact search:
        the selection is made on a snapshot, a float32 matrix-vector filter
        with a proven error bound keeps every row that could be among the k
        nearest, and those few are re-ranked by the exact distance. Rows
        outside the filter's safe range (and every row, for a query outside
        it) are always re-ranked.
        """
        if k < 1:
            raise SchemaError("k must be at least 1")
        if query.dim != self.dim:
            raise SchemaError(f"query dim {query.dim} does not match store dim {self.dim}")
        if positive is not None and self.kind != "precedent":
            raise SchemaError(f"a {self.kind} store has no advantages to select by")
        q = query.vector
        with np.errstate(over="ignore"):  # an overflow to inf skips the filter
            qq = q.dot(q)
        filtered = qq <= _SAFE_SQNORM and self.dim <= _SAFE_DIM
        with self._lock:
            head, records = self._head, self._in_order()
            n = len(records)
            selected = None if positive is None else self._positive[:n] == positive
            if filtered:
                # The dot product is float32 (the cast cannot overflow in the
                # safe range); a = s − 2p + t is formed in float64.
                approx = self._sqnorms[:n] - 2.0 * self._filter[:n].dot(q.astype(np.float32)) + qq
                bound = self._radii[:n] + self._c * (2 * _U * qq + 8 * _LAMBDA)
                lower, upper = approx - bound, approx + bound
        # Rows are in ring order; row (i + head) % n holds the i-th oldest record.
        if selected is None:
            keep = np.arange(n)
        else:
            keep = np.flatnonzero(np.roll(selected, -head))
        if not len(keep):
            return []
        if filtered and len(keep) > k:
            rows = (keep + head) % n
            lower, upper = lower[rows], upper[rows]
            keep = keep[lower <= np.partition(upper, k - 1)[k - 1]]
        # Candidates are in insertion order, so a stable sort breaks ties
        # toward older records, infinite distances included.
        candidates = np.array([records[i].embedding.vector for i in keep])
        with np.errstate(over="ignore"):
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
            # The records' own vectors are the truth and never change, so the
            # rows are written from them, in insertion order, with no lock held.
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
            matrix = _load_matrix(path, count, store.dim)
            # hashlib releases the GIL, so a helper thread hashes the matrix while
            # this one decodes the lines; the helper allocates nothing the store keeps.
            digest: list[str] = []
            hasher = threading.Thread(target=lambda: digest.append(hashlib.sha256(matrix).hexdigest()))
            hasher.start()
            try:
                # Only rows outside the safe range overflow, and they are zeroed, as in insert.
                with np.errstate(over="ignore"):
                    sqnorms = np.einsum("ij,ij->i", matrix, matrix)
                try:
                    store._records = _decode_records(lines, path, at, matrix, _KINDS[store.kind])
                except Exception:
                    # A fault in the matrix is reported before one in the lines.
                    hasher.join()
                    _check_matrix(path, matrix, sqnorms, digest, decoded["matrix_sha256"])
                    raise
            finally:
                hasher.join()
        _check_matrix(path, matrix, sqnorms, digest, decoded["matrix_sha256"])
        if len(store) != count:
            raise SchemaError(
                f"header declares {count} records, file holds {len(store)}", line=at, field="count"
            )
        with np.errstate(over="ignore"):
            store._filter = matrix.astype(np.float32)
        outside = ~(sqnorms <= _SAFE_SQNORM)
        store._filter[outside], sqnorms[outside] = 0.0, 0.0
        store._sqnorms = sqnorms
        store._radii = np.where(outside, np.inf, 2 * store._c * _U * sqnorms)
        store._positive = np.array(
            [store.kind == "precedent" and r.advantage > 0 for r in store._records], dtype=bool
        )
        return store


def _decode_records(
    lines: Iterator[tuple[int, str]], path: Path, at: int, matrix: np.ndarray, record_type: Any
) -> list[Any]:
    """The records of the lines after a store's header (line ``at``), one per row of ``matrix``."""
    embeddings, count = Embedding.rows_of(matrix), len(matrix)
    decode, records = _codec(record_type).decode, []
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
        records.append(decode(obj, "", i))
    return records


def _matrix_path(path: Path) -> Path:
    """The ``.npy`` file that holds the matrix of the store file at ``path``."""
    return path.with_suffix(".npy")


def _load_matrix(store_path: Path, count: int, dim: int) -> np.ndarray:
    """The ``(count, dim)`` float64 matrix beside a store file, its form and shape checked."""
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
    return matrix


def _check_matrix(
    store_path: Path, matrix: np.ndarray, sqnorms: np.ndarray, digest: list[str], sha256: str
) -> None:
    """Check a loaded matrix against the header's digest, then its rows for finiteness.

    ``digest`` holds the hex digest the helper thread computed; a hash that
    failed there (its traceback printed by ``threading.excepthook``) left it
    empty, and fails as a mismatch. ``sqnorms`` holds the rows' squared norms:
    a finite one has only finite entries, so only the other rows are checked
    in full.
    """
    path = _matrix_path(store_path)
    if digest != [sha256]:
        raise SchemaError(
            f"{path.name} does not match the digest in {store_path.name}", field="matrix_sha256"
        )
    for row in np.flatnonzero(~np.isfinite(sqnorms)).tolist():
        if not np.isfinite(matrix[row]).all():
            raise SchemaError(f"row {row} of {path.name} is not finite", field="embedding")


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

        Stores are fresh only when none of their six files is there; some of
        them fail in ``load``, which names a missing one. Saved stores take
        ``cap``; one holding more records keeps the newest, as if they had
        been inserted under that cap.
        """
        directory = Path(directory)
        names = os.listdir(directory) if directory.is_dir() else []
        if {f"{kind}s{suffix}" for kind in _KINDS for suffix in (".jsonl", ".npy")}.isdisjoint(names):
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
