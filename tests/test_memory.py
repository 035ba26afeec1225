"""Memory stores: retrieval against a brute-force oracle, eviction, persistence."""

from __future__ import annotations

import random

import pytest

from leap.backend import Embedding, euclidean
from leap.errors import SchemaError, StorageError
from leap.memory import (
    Memories,
    MemoryStore,
    PrecedentRecord,
    ReflectionRecord,
    ValueSample,
    record_id,
)

from conftest import make_strategy

DIM = 8


def vec(rng):
    return Embedding.of(rng.uniform(-1, 1) for _ in range(DIM))


def value_sample(i, embedding, value=0.5):
    return ValueSample(
        id=f"v{i:05d}", state_summary=f"state {i}", value=value, embedding=embedding
    )


def precedent(i, advantage, embedding=None):
    return PrecedentRecord(
        id=f"p{i:05d}",
        claim_text=f"claim {i}",
        strategy=make_strategy(),
        advantage=advantage,
        embedding=embedding or Embedding.of([0.0] * DIM),
    )


def brute_force_top_k(records, query, k):
    ranked = sorted(
        enumerate(records), key=lambda pair: (euclidean(pair[1].embedding, query), pair[0])
    )
    return [r for _, r in ranked[:k]]


class TestInsert:
    def test_insert_into_empty_store(self):
        store = MemoryStore("value", DIM)
        store.insert(value_sample(0, Embedding.of([0.0] * DIM)))
        assert len(store) == 1

    def test_dim_mismatch_is_schema_error(self):
        store = MemoryStore("value", 16)
        with pytest.raises(SchemaError, match="dim 8 does not match store dim 16"):
            store.insert(value_sample(0, Embedding.of([0.0] * 8)))

    def test_wrong_record_kind(self):
        store = MemoryStore("reflection", DIM)
        with pytest.raises(SchemaError, match="cannot hold"):
            store.insert(value_sample(0, Embedding.of([0.0] * DIM)))

    def test_fifo_eviction_at_cap(self):
        store = MemoryStore("value", DIM, cap=1400)
        for i in range(1401):
            store.insert(value_sample(i, Embedding.of([float(i % 7)] * DIM)))
        assert len(store) == 1400
        ids = {r.id for r in store.records()}
        assert "v00000" not in ids
        assert "v00001" in ids and "v01400" in ids

    def test_without_cap_size_tracks_inserts(self):
        store = MemoryStore("value", DIM, cap=None)
        for i in range(50):
            store.insert(value_sample(i, Embedding.of([0.1] * DIM)))
        assert len(store) == 50

    def test_insert_is_retrievable_immediately(self):
        store = MemoryStore("value", DIM)
        record = value_sample(0, Embedding.of([1.0] + [0.0] * (DIM - 1)))
        store.insert(record)
        assert store.retrieve_top_k(record.embedding, 1) == [record]


class TestRetrieve:
    def test_empty_store(self):
        store = MemoryStore("value", DIM)
        assert store.retrieve_top_k(Embedding.of([0.0] * DIM), 5) == []

    def test_single_record_for_any_k(self):
        store = MemoryStore("value", DIM)
        record = value_sample(0, Embedding.of([0.5] * DIM))
        store.insert(record)
        for k in (1, 3, 100):
            assert store.retrieve_top_k(Embedding.of([0.0] * DIM), k) == [record]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(42)
        store = MemoryStore("value", DIM, cap=None)
        records = [value_sample(i, vec(rng)) for i in range(200)]
        for record in records:
            store.insert(record)
        for _ in range(20):
            query = vec(rng)
            got = store.retrieve_top_k(query, 5)
            expected = brute_force_top_k(records, query, 5)
            assert [r.id for r in got] == [r.id for r in expected]

    def test_ties_break_toward_older_records(self):
        store = MemoryStore("value", DIM, cap=None)
        shared = Embedding.of([0.3] * DIM)
        for i in range(5):
            store.insert(value_sample(i, shared))
        got = store.retrieve_top_k(Embedding.of([0.0] * DIM), 3)
        assert [r.id for r in got] == ["v00000", "v00001", "v00002"]

    def test_predicate_filters_before_ranking(self):
        store = MemoryStore("precedent", DIM, cap=None)
        store.insert(precedent(0, advantage=1.0))
        store.insert(precedent(1, advantage=-0.5))
        store.insert(precedent(2, advantage=0.0))
        query = Embedding.of([0.0] * DIM)
        pos = store.retrieve_top_k(query, 5, lambda r: r.advantage > 0)
        neg = store.retrieve_top_k(query, 5, lambda r: r.advantage <= 0)
        assert [r.id for r in pos] == ["p00000"]
        assert [r.id for r in neg] == ["p00001", "p00002"]

    def test_query_dim_checked(self):
        store = MemoryStore("value", DIM)
        with pytest.raises(SchemaError, match="query dim"):
            store.retrieve_top_k(Embedding.of([0.0] * (DIM + 1)), 1)

    def test_k_must_be_positive(self):
        store = MemoryStore("value", DIM)
        with pytest.raises(SchemaError):
            store.retrieve_top_k(Embedding.of([0.0] * DIM), 0)


class TestPersistence:
    def test_roundtrip_preserves_retrieval(self, tmp_path):
        rng = random.Random(7)
        store = MemoryStore("value", DIM, cap=None)
        for i in range(50):
            store.insert(value_sample(i, vec(rng), value=rng.uniform(-1, 1)))
        path = tmp_path / "values.jsonl"
        store.persist(path)
        loaded = MemoryStore.load(path)
        assert loaded.dim == store.dim and loaded.cap == store.cap
        for _ in range(10):
            query = vec(rng)
            assert [r.id for r in loaded.retrieve_top_k(query, 7)] == [
                r.id for r in store.retrieve_top_k(query, 7)
            ]

    def test_missing_file_is_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            MemoryStore.load(tmp_path / "absent.jsonl")

    def test_truncated_line_names_line_number(self, tmp_path):
        store = MemoryStore("value", DIM)
        store.insert(value_sample(0, Embedding.of([0.0] * DIM)))
        path = tmp_path / "values.jsonl"
        store.persist(path)
        text = path.read_text()
        path.write_text(text[:-20])
        with pytest.raises(SchemaError, match="line 2"):
            MemoryStore.load(path)

    def test_header_count_mismatch(self, tmp_path):
        store = MemoryStore("value", DIM)
        store.insert(value_sample(0, Embedding.of([0.0] * DIM)))
        path = tmp_path / "values.jsonl"
        store.persist(path)
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace("v00000", "v00001"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="count"):
            MemoryStore.load(path)

    def test_memories_bundle_roundtrip(self, tmp_path):
        memories = Memories.fresh(DIM, cap=10)
        memories.values.insert(value_sample(0, Embedding.of([0.2] * DIM)))
        memories.precedents.insert(precedent(0, 0.5))
        memories.reflections.insert(
            ReflectionRecord(
                id=record_id("r", 0),
                key_text="q\nr",
                diagnosis="missed the point",
                principles=("be precise",),
                revised_strategy=make_strategy(),
                embedding=Embedding.of([0.1] * DIM),
            )
        )
        memories.persist(tmp_path)
        loaded = Memories.load(tmp_path)
        assert len(loaded.values) == 1
        assert len(loaded.precedents) == 1
        assert len(loaded.reflections) == 1
        assert loaded.reflections.records()[0].principles == ("be precise",)


class TestRecordInvariants:
    def test_reflection_needs_principles(self):
        with pytest.raises(SchemaError, match="principle"):
            ReflectionRecord(
                id="r1",
                key_text="k",
                diagnosis="d",
                principles=(),
                revised_strategy=make_strategy(),
                embedding=Embedding.of([0.0] * DIM),
            )

    def test_record_ids_are_content_addressed(self):
        assert record_id("a", 1) == record_id("a", 1)
        assert record_id("a", 1) != record_id("a", 2)
