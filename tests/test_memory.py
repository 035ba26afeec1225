"""Memory stores: retrieval against a brute-force oracle, eviction, persistence."""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leap.memory

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


# A small dim keeps numpy's per-row sum in the same order as the oracle's.
PROP_DIM = 4
# No filter, then the precedent split at an advantage of 0.0.
PREDICATES = (None, lambda r: r.advantage > 0, lambda r: r.advantage <= 0)


@settings(max_examples=150, deadline=None)
@given(
    cap=st.integers(1, 6),
    pool=st.lists(
        st.lists(st.floats(-1, 1), min_size=PROP_DIM, max_size=PROP_DIM), min_size=1, max_size=4
    ),
    inserts=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([-1.0, 0.0, 0.5])), min_size=1, max_size=25
    ),
    query=st.integers(0, 3),
    k=st.integers(1, 8),
)
def test_retrieval_equals_the_oracle_after_eviction_and_ties(cap, pool, inserts, query, k):
    """Insert sequences longer than the cap (rows are reused), duplicate
    vectors (exact ties) and advantages on both sides of 0.0."""
    store = MemoryStore("precedent", PROP_DIM, cap=cap)
    inserted = []
    for i, (v, advantage) in enumerate(inserts):
        record = precedent(i, advantage, Embedding.of(pool[v % len(pool)]))
        store.insert(record)
        inserted.append(record)
    live = inserted[-cap:]
    assert store.records() == live
    q = Embedding.of(pool[query % len(pool)])
    for predicate in PREDICATES:
        candidates = [(i, r) for i, r in enumerate(live) if predicate is None or predicate(r)]
        ranked = sorted(candidates, key=lambda pair: (euclidean(pair[1].embedding, q), pair[0]))
        expected = [r.id for _, r in ranked[:k]]
        assert [r.id for r in store.retrieve_top_k(q, k, predicate)] == expected


class TestMatrix:
    def test_embeddings_are_read_only(self):
        store = MemoryStore("value", DIM)
        store.insert(value_sample(0, Embedding.of([0.5] * DIM)))
        [got] = store.retrieve_top_k(Embedding.of([0.0] * DIM), 1)
        with pytest.raises(ValueError):
            got.embedding.vector[0] = 1.0
        assert got.embedding.vector.tolist() == [0.5] * DIM

    def test_embedding_owns_its_vector(self):
        source = np.full(DIM, 0.25)
        embedding = Embedding.of(source)
        source[0] = 9.0
        assert embedding.vector.tolist() == [0.25] * DIM

    def test_record_keeps_its_vector_after_its_row_is_reused(self):
        store = MemoryStore("value", DIM, cap=2)
        first = value_sample(0, Embedding.of([1.0] * DIM))
        store.insert(first)
        store.insert(value_sample(1, Embedding.of([2.0] * DIM)))
        [got] = store.retrieve_top_k(first.embedding, 1)
        store.insert(value_sample(2, Embedding.of([3.0] * DIM)))  # reuses the first row
        assert got is first
        assert got.embedding.vector.tolist() == [1.0] * DIM
        assert [r.id for r in store.records()] == ["v00001", "v00002"]
        assert store.retrieve_top_k(first.embedding, 1)[0].id == "v00001"

    @pytest.mark.parametrize("cap", [None, 50])
    def test_concurrent_inserts_and_retrievals_keep_rows_and_records_paired(self, cap):
        store = MemoryStore("value", DIM, cap=cap)
        writers, per_writer, errors = 4, 1000, []
        zeros = Embedding.of([0.0] * DIM)

        def writer(w):
            for i in range(per_writer):
                n = w * per_writer + i
                store.insert(value_sample(n, Embedding.of([float(n)] + [0.0] * (DIM - 1))))

        def ranked_by_distance(got):
            # The distance to zeros is a record's first entry, so the ranking sorts by it.
            firsts = [r.embedding.vector[0] for r in got]
            return firsts == sorted(firsts) and len({r.id for r in got}) == len(got)

        def reader():
            for _ in range(100):
                got = store.retrieve_top_k(zeros, 10)
                if not ranked_by_distance(got):
                    errors.append([r.id for r in got])

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == (cap or writers * per_writer)
        got = store.retrieve_top_k(zeros, len(store))
        assert ranked_by_distance(got)
        assert {r.id for r in got} == {r.id for r in store.records()}

    def test_uncapped_store_grows_past_its_first_allocation(self):
        store = MemoryStore("value", DIM, cap=None)
        records = [
            value_sample(i, Embedding.of([float(i)] + [0.0] * (DIM - 1))) for i in range(300)
        ]
        for record in records:
            store.insert(record)
        assert len(store) == 300 and store.records() == records
        for record in records[::37]:
            assert store.retrieve_top_k(record.embedding, 1) == [record]


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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", "4"),
            ("dim", True),
            ("dim", 0),
            ("cap", "x"),
            ("cap", 0),
            ("count", 1.5),
            ("kind", 3),
            ("kind", "memo"),
        ],
    )
    def test_bad_header_value_names_line_1_and_the_field(self, tmp_path, field, value):
        header = {"dim": 4, "cap": None, "count": 0, "kind": "value"}
        header[field] = value
        path = tmp_path / "values.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(SchemaError, match=rf"^line 1: .*\(field: {field}\)$"):
            MemoryStore.load(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        store = MemoryStore("value", DIM)
        for i in range(2):
            store.insert(value_sample(i, Embedding.of([float(i)] * DIM)))
        path = tmp_path / "values.jsonl"
        store.persist(path)
        header, first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + first + second.replace(b"v00001", b"v\xff0001"))
        with pytest.raises(SchemaError, match=r"^line 3: not UTF-8$"):
            MemoryStore.load(path)

    def test_bad_header_closes_the_file_at_once(self, tmp_path, monkeypatch):
        path = tmp_path / "values.jsonl"
        path.write_text('{"dim": 4}\n')
        opened = []
        real_open = Path.open

        def recording_open(self, *args, **kwargs):
            opened.append(real_open(self, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(Path, "open", recording_open)
        # The traceback held here keeps the loader's frame alive.
        with pytest.raises(SchemaError, match="missing field"):
            MemoryStore.load(path)
        assert len(opened) == 1 and opened[0].closed

    def test_persist_racing_a_writer_always_loads(self, tmp_path):
        store = MemoryStore("value", DIM, cap=None)

        def writer():
            for i in range(20000):
                store.insert(value_sample(i, Embedding.of([float(i)] * DIM)))

        thread = threading.Thread(target=writer)
        thread.start()
        path = tmp_path / "values.jsonl"
        persisted = 0
        while thread.is_alive() or not persisted:
            store.persist(path)
            count = json.loads(path.read_text().splitlines()[0])["count"]
            loaded = MemoryStore.load(path)
            assert len(loaded) == count
            assert [r.id for r in loaded.records()] == [f"v{i:05d}" for i in range(count)]
            persisted += 1
        thread.join()

    def test_failed_persist_leaves_the_previous_file(self, tmp_path, monkeypatch):
        store = MemoryStore("value", DIM)
        for i in range(5):
            store.insert(value_sample(i, Embedding.of([0.1 * i] * DIM)))
        path = tmp_path / "values.jsonl"
        store.persist(path)
        before = path.read_bytes()
        store.insert(value_sample(5, Embedding.of([0.9] * DIM)))
        real = leap.memory.canonical_json
        lines = []

        def failing(obj):
            lines.append(obj)
            if len(lines) == 4:
                raise OSError("disk full")
            return real(obj)

        monkeypatch.setattr(leap.memory, "canonical_json", failing)
        with pytest.raises(StorageError, match="disk full"):
            store.persist(path)
        assert len(lines) == 4  # the header and two records were written first
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["values.jsonl"]

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
