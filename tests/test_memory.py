"""Memory stores: retrieval against a brute-force oracle, eviction, persistence."""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


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

    def test_advantage_sign_selects_before_ranking(self):
        store = MemoryStore("precedent", DIM, cap=None)
        store.insert(precedent(0, advantage=1.0))
        store.insert(precedent(1, advantage=-0.5))
        store.insert(precedent(2, advantage=0.0))
        query = Embedding.of([0.0] * DIM)
        pos = store.retrieve_top_k(query, 5, positive=True)
        neg = store.retrieve_top_k(query, 5, positive=False)
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
# No selection, then the precedent split at an advantage of 0.0.
SELECTIONS = (None, True, False)


def selects(record, positive):
    """The oracle's selection, read off the record's own advantage, never the store's column."""
    return positive is None or (record.advantage > 0) == positive


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
    for positive in SELECTIONS:
        candidates = [(i, r) for i, r in enumerate(live) if selects(r, positive)]
        ranked = sorted(candidates, key=lambda pair: (euclidean(pair[1].embedding, q), pair[0]))
        expected = [r.id for _, r in ranked[:k]]
        assert [r.id for r in store.retrieve_top_k(q, k, positive=positive)] == expected


def exact_pass_top_k(store, query, k, positive=None):
    """The reference: one exact distance pass over every live row, then the
    selection by each record's own advantage, then a stable sort in insertion order."""
    records = store.records()
    if not records:
        return []
    matrix = np.array([r.embedding.vector for r in records])
    with np.errstate(over="ignore"):  # past about 1e154, distances are inf
        distances = np.sqrt(((matrix - query.vector) ** 2).sum(axis=1))
    keep = np.array([i for i, r in enumerate(records) if selects(r, positive)], dtype=np.intp)
    return [records[i] for i in keep[np.argsort(distances[keep], kind="stable")[:k]]]


# How each inserted row (and the query) is made: near a shared centre (a near
# tie that the filter computes with cancellation), at random, of mixed scale,
# or from an earlier row.
_ROW = st.one_of(
    st.tuples(st.just("near"), st.integers(0, 17)),  # the centre moved by 10**-e of its norm
    st.tuples(st.just("fresh"), st.integers(-165, 150)),  # a random row of norm 10**e
    st.tuples(st.just("dup"), st.integers(0, 99)),  # an earlier row again
    st.tuples(st.just("ulp"), st.integers(0, 99)),  # an earlier row, one entry one ulp up
    st.tuples(st.just("mixed"), st.integers(-50, 45)),  # entries of scales from 10**-50 to 10**e
    st.tuples(st.just("edge"), st.integers(0, 99)),  # an earlier row, a few entries at float32's edges
)

# Entries at the edges of float32 and of the filter's safe range (squared
# norms up to 2**100): past float32's largest (3.4e38), its least normal
# (1.2e-38), its subnormals, halfway to and below its least subnormal, and
# either side of 2**50.
_FLOAT32_EDGES = [
    3.5e38, -1e39, 1e150, 1.1754942e-38, -1e-38, 1e-39, 1.4e-45, 7e-46, -1e-46, 1e-300,
    2.0**50, 2.0**50.5, -1.1e15,
]


# Rows, drawn at seed 0 around a centre of norm 1 at dim 1 with the query
# ("near", 2), whose nearest row a filter bound 100 times too small drops.
NEAR_TIE = [("near", 0)] * 26 + [("near", 6)] * 2


def _random_row(dim, norm, rng):
    return rng.standard_normal(dim) / np.sqrt(dim) * norm


def _make_row(how, centre, earlier, rng):
    op, arg = how
    if op == "mixed":
        scales = 10.0 ** rng.integers(-50, arg, len(centre), endpoint=True)
        return rng.standard_normal(len(centre)) * scales
    if op == "near" or (op != "fresh" and not earlier):
        exponent = arg if op == "near" else 0
        return centre + _random_row(len(centre), np.linalg.norm(centre) * 10.0**-exponent, rng)
    if op == "fresh":
        return _random_row(len(centre), 10.0**arg, rng)
    row = earlier[arg % len(earlier)].copy()
    if op == "ulp":
        at = rng.integers(len(row))
        row[at] = np.nextafter(row[at], np.inf)
    if op == "edge":
        for at in rng.integers(len(row), size=rng.integers(1, 4)):
            row[at] = _FLOAT32_EDGES[rng.integers(len(_FLOAT32_EDGES))]
    return row


# Advantage signs that select one row and some rows, then all rows and none;
# then a near tie (NEAR_TIE) under a selection of two rows.
@example(
    dim=64, cap=None, centre=0, rows=[(("fresh", 0), a) for a in (-1.0, 0.5, 0.0)],
    query=("near", 3), k=2, seed=0,
)
@example(dim=64, cap=5, centre=0, rows=[(("near", 2), 0.5)] * 8, query=("near", 3), k=1, seed=0)
@example(
    dim=1, cap=None, centre=0, rows=list(zip(NEAR_TIE, [-1.0] * 26 + [0.5] * 2)),
    query=("near", 2), k=1, seed=0,
)
@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([1, 64, 1536]),
    cap=st.one_of(st.none(), st.integers(1, 30)),
    # The centre's norm is 10**centre; half the draws keep it where float32's
    # rounding, not its range, limits the filter.
    centre=st.one_of(st.integers(-165, 150), st.integers(-10, 10)),
    rows=st.lists(st.tuples(_ROW, st.sampled_from([-1.0, 0.0, 0.5])), max_size=45),
    query=_ROW,
    k=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_filtered_retrieval_equals_the_exact_pass(dim, cap, centre, rows, query, k, seed):
    """Duplicate rows, rows one ulp apart, near ties, norms from 1e-165 to
    1e150, k at or past the live rows, advantage signs that select none, one,
    some or all rows, and a ring wrapped by inserts past the cap. Rows and queries
    with entries past float32's range, below its normal range, and of mixed
    scale, inside and outside the filter's safe range."""
    check_filtered_retrieval(dim, cap, centre, rows, query, k, seed)


@example(dim=1, centre=0, rows=[(how, 0.5) for how in NEAR_TIE], query=("near", 2), k=1, seed=0)
@settings(max_examples=100, deadline=None)
@given(
    dim=st.sampled_from([1, 64, 1536]),
    centre=st.integers(-10, 10),
    rows=st.lists(
        st.tuples(st.one_of(st.tuples(st.just("near"), st.integers(0, 9)), _ROW), st.just(0.5)),
        min_size=20,
        max_size=60,
    ),
    query=st.one_of(st.tuples(st.just("near"), st.integers(0, 9)), _ROW),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_filter_keeps_every_near_tie(dim, centre, rows, query, k, seed):
    """Many rows near one centre of moderate norm and a small k: the rows the
    filter must tell apart differ by about float32's rounding or less."""
    check_filtered_retrieval(dim, None, centre, rows, query, k, seed)


def check_filtered_retrieval(dim, cap, centre, rows, query, k, seed):
    rng = np.random.default_rng(seed)
    centre = _random_row(dim, 10.0**centre, rng)
    store = MemoryStore("precedent", dim, cap=cap)
    vectors = []
    for i, (how, advantage) in enumerate(rows):
        vectors.append(_make_row(how, centre, vectors, rng))
        store.insert(precedent(i, advantage, Embedding.of(vectors[-1])))
    q = Embedding.of(_make_row(query, centre, vectors, rng))
    for positive in SELECTIONS:
        assert store.retrieve_top_k(q, k, positive=positive) == exact_pass_top_k(store, q, k, positive)


# Entries whose bits a decimal or rounded form would lose: signed zeros,
# subnormals (the least, the greatest and one between), the least normal, a
# repeating fraction and a large value.
_BIT_ENTRIES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 2.2250738585072014e-308]
    + [1 / 3, 1e150]
)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 64, 1536]),
    cap=st.one_of(st.none(), st.integers(1, 8)),
    inserts=st.integers(0, 20),
    special=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 1535), _BIT_ENTRIES), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_persist_then_load_keeps_every_record_bit_and_result(dim, cap, inserts, special, seed):
    """Empty stores, rings wrapped by inserts past the cap and uncapped
    stores, at dims 1, 64 and 1536."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((inserts, dim))
    for i, j, x in special:
        if i < inserts:
            vectors[i, j % dim] = x
    store = MemoryStore("precedent", dim, cap=cap)
    for i, v in enumerate(vectors):
        store.insert(precedent(i, float(i % 3) - 1.0, Embedding.of(v)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "precedents.jsonl"
        store.persist(path)
        loaded = MemoryStore.load(path)
    assert (loaded.kind, loaded.dim, loaded.cap) == (store.kind, store.dim, store.cap)
    assert loaded.records() == store.records()

    def bits(s):
        return np.array([r.embedding.vector for r in s.records()]).reshape(-1, dim).view(np.uint64)

    assert np.array_equal(bits(loaded), bits(store))
    # Each loaded record views its row of one read-only matrix; none holds a copy.
    vectors = [r.embedding.vector for r in loaded.records()]
    assert all(v.base is vectors[0].base is not None and not v.flags.writeable for v in vectors)
    queries = [Embedding.of(rng.standard_normal(dim))] + [r.embedding for r in store.records()[:2]]
    for q in queries:
        for k in (1, 3):
            for positive in SELECTIONS:
                expected = exact_pass_top_k(store, q, k, positive)
                assert loaded.retrieve_top_k(q, k, positive=positive) == expected
    # The loaded ring evicts where the original does.
    for s in (store, loaded):
        s.insert(precedent(inserts, 1.0, queries[0]))
    assert loaded.records() == store.records()
    assert loaded.retrieve_top_k(queries[0], 2) == store.retrieve_top_k(queries[0], 2)


@pytest.mark.parametrize("dim", [1, 64, 1536])
def test_underflowing_rows_match_the_exact_pass(dim):
    """Near ties at norms from 1e-150 to 1e-165, where squares and products
    underflow into subnormals and the filter's error is absolute, not relative."""
    rng = np.random.default_rng(dim)
    for exponent in range(150, 166):
        centre = rng.standard_normal(dim) * 10.0**-exponent
        store = MemoryStore("value", dim, cap=None)
        for i in range(20):
            spread = 10.0 ** -(exponent + int(rng.integers(0, 4)))
            store.insert(value_sample(i, Embedding.of(centre + rng.standard_normal(dim) * spread)))
        q = Embedding.of(centre + rng.standard_normal(dim) * 10.0 ** -(exponent + 1))
        for k in (1, 3):
            assert store.retrieve_top_k(q, k) == exact_pass_top_k(store, q, k)


@pytest.mark.parametrize("query_scale", [1.0, 1e155])
def test_overflowing_rows_fall_back_to_the_exact_pass(query_scale):
    """Rows near 1e155 overflow the filter's squared norms; the result is the
    exact pass's, infinite distances tied toward older records."""
    rng = np.random.default_rng(3)
    store = MemoryStore("value", 64, cap=None)
    for i, scale in enumerate([1e155, 1.0, 1e155, 2.0, -1e155, 0.5]):
        store.insert(value_sample(i, Embedding.of(rng.standard_normal(64) * scale)))
    q = Embedding.of(rng.standard_normal(64) * query_scale)
    for k in range(1, 7):
        assert store.retrieve_top_k(q, k) == exact_pass_top_k(store, q, k)


def test_a_row_whose_squared_norm_overflows_raises_no_warning():
    """A valid finite embedding near 1e160 squares to inf: the store treats
    that as outside the filter's range, without a RuntimeWarning."""
    big = Embedding.of(np.full(4, 1e160))
    store = MemoryStore("value", 4, cap=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store.insert(value_sample(0, Embedding.of(np.ones(4))))
        store.insert(value_sample(1, big))
        assert store.retrieve_top_k(big, 1) == [store.records()[1]]
        assert [r.id for r in store.retrieve_top_k(Embedding.of(np.zeros(4)), 2)] == [
            r.id for r in store.records()
        ]


# Advantages either side of 0.0 that a sign test could get wrong: both zeros,
# the least subnormals, and values far from 0.
_ADVANTAGES = [0.0, -0.0, 5e-324, -5e-324, -1.0, 0.5, -1e300, 1e300]


def assert_column_selects_by_sign(store, rng):
    """``positive=True`` selects the records whose own advantage is above 0, ``False`` the rest."""
    records = store.records()
    queries = [Embedding.of(rng.standard_normal(store.dim))] + [r.embedding for r in records[:2]]
    for positive in (True, False):
        expected = [r.id for r in records if selects(r, positive)]
        for q in queries:
            everything = store.retrieve_top_k(q, len(records) + 1, positive=positive)
            assert sorted(r.id for r in everything) == sorted(expected)
            for k in (1, 3):
                assert store.retrieve_top_k(q, k, positive=positive) == exact_pass_top_k(store, q, k, positive)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 8, 1536]),
    cap=st.one_of(st.none(), st.integers(1, 6)),
    advantages=st.lists(st.sampled_from(_ADVANTAGES), max_size=20),
    recap=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_advantage_column_selects_by_sign(dim, cap, advantages, recap, seed):
    """Signed zeros and subnormal advantages, a ring wrapped by inserts past
    the cap, then the same after persist and load, and after ``load_or_fresh``
    re-caps the stores."""
    rng = np.random.default_rng(seed)
    memories = Memories.fresh(dim, cap)
    for i, advantage in enumerate(advantages):
        memories.precedents.insert(precedent(i, advantage, Embedding.of(rng.standard_normal(dim))))
    assert_column_selects_by_sign(memories.precedents, rng)
    with tempfile.TemporaryDirectory() as tmp:
        memories.persist(tmp)
        loaded = Memories.load(tmp)
        assert_column_selects_by_sign(loaded.precedents, rng)
        recapped = Memories.load_or_fresh(tmp, dim, recap)
    assert recapped.precedents.records() == memories.precedents.records()[-recap if recap else 0 :]
    assert_column_selects_by_sign(recapped.precedents, rng)
    # Inserts past the cap keep the column in step with the rows they reuse.
    for store in (loaded.precedents, recapped.precedents):
        for i, advantage in enumerate(reversed(_ADVANTAGES)):
            store.insert(precedent(100 + i, advantage, Embedding.of(rng.standard_normal(dim))))
        assert_column_selects_by_sign(store, rng)


def test_advantage_selection_needs_a_precedent_store():
    store = MemoryStore("value", DIM)
    store.insert(value_sample(0, Embedding.of([0.0] * DIM)))
    with pytest.raises(SchemaError, match="no advantages"):
        store.retrieve_top_k(Embedding.of([0.0] * DIM), 1, positive=True)


@pytest.mark.parametrize("advantage", [float("nan"), float("inf"), float("-inf")])
def test_precedent_advantage_must_be_finite(advantage):
    with pytest.raises(SchemaError, match="advantage must be finite"):
        precedent(0, advantage)


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

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file_names_the_missing_header(self, tmp_path, text):
        path = tmp_path / "values.jsonl"
        path.write_text(text)
        self._load_fails(path, r"^line 1: store file is empty \(missing header\)$")

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
            ("matrix_sha256", None),
        ],
    )
    def test_bad_header_value_names_line_1_and_the_field(self, tmp_path, field, value):
        header = {"dim": 4, "cap": None, "count": 0, "kind": "value", "matrix_sha256": EMPTY_SHA256}
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
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
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
        assert len(lines) == 4  # the matrix, the header and two records were written first
        # Neither file of the pair was replaced, and no temporary file is left.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert sorted(before) == ["values.jsonl", "values.npy"]

    def _persisted(self, directory, first=0.1):
        store = MemoryStore("value", DIM, cap=4)
        for i in range(3):
            store.insert(value_sample(i, Embedding.of([first + i] * DIM)))
        directory.mkdir(exist_ok=True)
        store.persist(directory / "values.jsonl")
        return directory / "values.jsonl", directory / "values.npy"

    def _load_fails(self, path, message):
        with pytest.raises(SchemaError, match=message):
            MemoryStore.load(path)

    def _rewrite_header(self, path, **changes):
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(header) | changes
        path.write_text("\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8")

    def test_fewer_lines_than_the_header_count_fail(self, tmp_path):
        path, _ = self._persisted(tmp_path)
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]))
        self._load_fails(path, r"^line 1: header declares 3 records, file holds 2 \(field: count\)$")

    def test_unreadable_matrix_is_a_storage_error(self, tmp_path):
        path, matrix = self._persisted(tmp_path)
        matrix.unlink()
        matrix.mkdir()
        with pytest.raises(StorageError, match=r"^cannot read .*values\.npy: "):
            MemoryStore.load(path)

    def test_torn_pair_fails(self, tmp_path):
        # Two persists with the same count: one's matrix beside the other's lines.
        path, matrix = self._persisted(tmp_path / "a")
        _, other = self._persisted(tmp_path / "b", first=0.2)
        matrix.write_bytes(other.read_bytes())
        self._load_fails(
            path,
            r"^values\.npy does not match the digest in values\.jsonl \(field: matrix_sha256\)$",
        )

    def test_missing_matrix_fails(self, tmp_path):
        path, matrix = self._persisted(tmp_path)
        matrix.unlink()
        self._load_fails(path, r"^values\.npy is missing \(field: matrix_sha256\)$")

    @pytest.mark.parametrize(
        "shape,field", [((2, DIM), "count"), ((3, DIM + 1), "dim"), ((3 * DIM,), "dim")]
    )
    def test_shape_mismatch_fails(self, tmp_path, shape, field):
        path, matrix = self._persisted(tmp_path)
        np.save(matrix, np.zeros(shape))
        declared = rf"the header declares \(3, {DIM}\) \(field: {field}\)$"
        self._load_fails(path, rf"^values\.npy holds a matrix of shape .*, {declared}")

    def test_row_that_is_not_finite_fails(self, tmp_path):
        path, matrix = self._persisted(tmp_path)
        values = np.load(matrix)
        values[1, 2] = np.nan
        np.save(matrix, values)
        # The digest is made to match, so only the finiteness check is left.
        self._rewrite_header(path, matrix_sha256=hashlib.sha256(values).hexdigest())
        self._load_fails(path, r"^row 1 of values\.npy is not finite \(field: embedding\)$")

    @pytest.mark.parametrize(
        "bad", [b"not a matrix", b"", "big-endian", "float32", "fortran", "trailing", "objects"]
    )
    def test_matrix_file_of_another_form_fails(self, tmp_path, bad):
        path, matrix = self._persisted(tmp_path)
        values = np.load(matrix)
        if isinstance(bad, bytes):
            matrix.write_bytes(bad)
        elif bad == "trailing":
            matrix.write_bytes(matrix.read_bytes() + b"\0" * 8)
        elif bad == "objects":
            np.save(matrix, values.astype(object), allow_pickle=True)
        else:
            form = {
                "big-endian": values.astype(">f8"),
                "float32": values.astype(np.float32),
                "fortran": np.asfortranarray(values),
            }
            np.save(matrix, form[bad])
        self._load_fails(path, r"^values\.npy .*\(field: matrix_sha256\)$")

    def test_count_past_the_cap_fails(self, tmp_path):
        path, _ = self._persisted(tmp_path)
        self._rewrite_header(path, cap=2)
        self._load_fails(path, r"^line 1: count 3 exceeds the cap \(field: count\)$")

    def test_v1_store_fails_and_names_the_file(self, tmp_path):
        # The first form: embeddings inline as base64 float64s, no matrix beside the file.
        path = tmp_path / "values.jsonl"
        path.write_text(
            '{"dim":1,"cap":5,"count":1,"kind":"value"}\n'
            '{"id":"v00000","state_summary":"s","value":0.5,"embedding":"AAAAAAAA4D8="}\n',
            encoding="utf-8",
        )
        self._load_fails(
            path, r"^line 1: values\.jsonl has no matrix: it is a v1 store.*\(field: matrix_sha256\)$"
        )

    # The matrix hashes on a helper thread while the lines decode; a load
    # still reports the fault of the earliest check, and joins the helper.

    def _break_line(self, path):
        header, first, *rest = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header, first, "{not json", *rest[1:]]) + "\n", encoding="utf-8")

    def _slow_hash(self, monkeypatch):
        """Make the helper's hash outlast the decoding, so a missed join would show."""
        real = hashlib.sha256

        def slow(data):
            time.sleep(0.05)
            return real(data)

        monkeypatch.setattr(leap.memory, "hashlib", SimpleNamespace(sha256=slow))

    def _load_fails_joined(self, path, message, monkeypatch):
        self._slow_hash(monkeypatch)
        threads = threading.active_count()
        self._load_fails(path, message)
        assert threading.active_count() == threads

    def test_torn_pair_is_reported_before_a_bad_line(self, tmp_path, monkeypatch):
        path, matrix = self._persisted(tmp_path / "a")
        _, other = self._persisted(tmp_path / "b", first=0.2)
        matrix.write_bytes(other.read_bytes())
        self._break_line(path)
        self._load_fails_joined(
            path,
            r"^values\.npy does not match the digest in values\.jsonl \(field: matrix_sha256\)$",
            monkeypatch,
        )

    def test_row_that_is_not_finite_is_reported_before_a_bad_line(self, tmp_path, monkeypatch):
        path, matrix = self._persisted(tmp_path)
        values = np.load(matrix)
        values[1, 2] = np.nan
        np.save(matrix, values)
        self._rewrite_header(path, matrix_sha256=hashlib.sha256(values).hexdigest())
        self._break_line(path)
        self._load_fails_joined(
            path, r"^row 1 of values\.npy is not finite \(field: embedding\)$", monkeypatch
        )

    def test_bad_line_beside_a_good_matrix_is_reported(self, tmp_path, monkeypatch):
        path, _ = self._persisted(tmp_path)
        self._break_line(path)
        self._load_fails_joined(path, r"^line 3: invalid JSON: ", monkeypatch)

    def test_a_load_leaves_no_thread_behind(self, tmp_path, monkeypatch):
        path, _ = self._persisted(tmp_path)
        self._slow_hash(monkeypatch)
        threads = threading.active_count()
        assert len(MemoryStore.load(path)) == 3
        assert threading.active_count() == threads

    def test_an_interrupt_while_lines_decode_propagates_and_joins(self, tmp_path, monkeypatch):
        # The matrix is torn too: the interrupt must not become a digest error.
        path, matrix = self._persisted(tmp_path / "a")
        _, other = self._persisted(tmp_path / "b", first=0.2)
        matrix.write_bytes(other.read_bytes())
        real = leap.memory._loads_line

        def interrupted(line, line_no):
            if line_no > 1:  # a record line, not the header
                raise KeyboardInterrupt
            return real(line, line_no)

        monkeypatch.setattr(leap.memory, "_loads_line", interrupted)
        self._slow_hash(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            MemoryStore.load(path)
        assert threading.active_count() == threads

    def _persisted_with_rows(self, directory, rows):
        """A value store of ``rows``, written by hand: it may hold rows no insert takes."""
        path = directory / "values.jsonl"
        np.save(path.with_suffix(".npy"), rows)
        header = {"dim": rows.shape[1], "cap": None, "count": len(rows), "kind": "value",
                  "matrix_sha256": hashlib.sha256(rows).hexdigest()}
        lines = [json.dumps({"id": f"v{i}", "state_summary": "s", "value": 0.5, "embedding": i})
                 for i in range(len(rows))]
        path.write_text("\n".join([json.dumps(header), *lines]) + "\n", encoding="utf-8")
        return path

    def test_row_whose_squared_norm_overflows_loads_without_a_warning(self, tmp_path):
        rows = np.array([np.full(4, 1e200), np.ones(4), np.zeros(4)])
        path = self._persisted_with_rows(tmp_path, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = MemoryStore.load(path)
            records = store.records()
            assert [r.id for r in store.retrieve_top_k(records[0].embedding, 3)] == ["v0", "v1", "v2"]
            assert store.retrieve_top_k(Embedding.of(np.zeros(4)), 1) == [records[2]]
        assert np.array_equal(records[0].embedding.vector, rows[0])

    def test_first_row_that_is_not_finite_is_named_past_an_overflowing_one(self, tmp_path):
        rows = np.array([np.full(4, 1e200), np.ones(4), [0.0, np.nan, 0.0, 0.0]])
        self._load_fails(
            self._persisted_with_rows(tmp_path, rows),
            r"^row 2 of values\.npy is not finite \(field: embedding\)$",
        )

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

    def test_store_of_another_kind_fails_and_names_both(self, tmp_path):
        Memories.fresh(DIM).persist(tmp_path)
        MemoryStore("value", DIM).persist(tmp_path / "reflections.jsonl")
        with pytest.raises(
            SchemaError, match=r"^reflections\.jsonl holds kind 'value', expected 'reflection'$"
        ):
            Memories.load(tmp_path)

    def test_load_or_fresh_takes_the_configured_cap(self, tmp_path):
        Memories.fresh(DIM, cap=1400).persist(tmp_path / "empty")
        assert Memories.load_or_fresh(tmp_path / "empty", DIM, 200).reflections.cap == 200
        memories = Memories.fresh(DIM, cap=5)
        for i in range(5):
            memories.values.insert(value_sample(i, Embedding.of([float(i)] * DIM)))
        memories.persist(tmp_path)
        loaded = Memories.load_or_fresh(tmp_path, DIM, 3)
        assert [s.cap for s in (loaded.reflections, loaded.precedents, loaded.values)] == [3] * 3
        # The newest records stay, and the next insert evicts the oldest of them.
        assert [r.id for r in loaded.values.records()] == ["v00002", "v00003", "v00004"]
        loaded.values.insert(value_sample(5, Embedding.of([5.0] * DIM)))
        assert [r.id for r in loaded.values.records()] == ["v00003", "v00004", "v00005"]
        assert loaded.values.retrieve_top_k(Embedding.of([4.9] * DIM), 1)[0].id == "v00005"
        loaded.persist(tmp_path)
        assert json.loads((tmp_path / "values.jsonl").read_text().splitlines()[0])["cap"] == 3
        unbounded = Memories.load_or_fresh(tmp_path, DIM, None)
        assert unbounded.values.cap is None and len(unbounded.values) == 3

    @pytest.mark.parametrize("missing", ["reflections.jsonl", "precedents.npy", "values.jsonl"])
    def test_load_or_fresh_fails_on_a_partial_directory(self, tmp_path, missing):
        """Fresh stores persisted over a partial directory would lose what it holds."""
        memories = Memories.fresh(DIM)
        memories.precedents.insert(precedent(0, 1.0))
        memories.persist(tmp_path)
        (tmp_path / missing).unlink()
        with pytest.raises((SchemaError, StorageError), match=missing.replace(".", r"\.")):
            Memories.load_or_fresh(tmp_path, DIM)

    def test_load_or_fresh_starts_fresh_without_any_store_file(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a store")
        (tmp_path / ".values.jsonl.1.2.tmp").write_text("")  # a persist that never finished
        memories = Memories.load_or_fresh(tmp_path, DIM)
        assert [len(s) for s in vars(memories).values()] == [0, 0, 0]
        assert len(Memories.load_or_fresh(tmp_path / "absent", DIM).values) == 0


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
