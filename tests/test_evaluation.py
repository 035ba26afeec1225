"""Dataset adapters, the seeded sampler, metric arithmetic, and rendering."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from leap.core import Label
from leap.errors import DatasetFormatError, SchemaError
from leap.evaluation import (
    DATASET_FORMATS,
    Confusion,
    EvalReport,
    Lcg64,
    PerClaim,
    build_report,
    compute_metrics,
    load_dataset,
    parse_report,
    render_report,
    sample_split,
)

from conftest import make_claim


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


class TestGenericPairs:
    def test_basic_record(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl", [{"query": "q", "response": "r", "label": "Hallucination"}]
        )
        claims = load_dataset(path, "generic_pairs")
        assert len(claims) == 1
        assert claims[0].gold_label is Label.HALLUCINATION

    @pytest.mark.parametrize(
        "label,expected",
        [
            ("hallucinated", Label.HALLUCINATION),
            ("faithful", Label.NOT_HALLUCINATION),
            ("NotHallucination", Label.NOT_HALLUCINATION),
        ],
    )
    def test_documented_aliases(self, tmp_path, label, expected):
        path = write_jsonl(tmp_path / "d.jsonl", [{"query": "q", "response": "r", "label": label}])
        assert load_dataset(path, "generic_pairs")[0].gold_label is expected

    def test_unknown_label_is_a_format_error(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"query": "q", "response": "r", "label": "yes"}])
        with pytest.raises(DatasetFormatError, match="record 1"):
            load_dataset(path, "generic_pairs")

    def test_unknown_layout_lists_offending_record(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"question": "q", "verdict": "x"}])
        with pytest.raises(DatasetFormatError, match="record 1"):
            load_dataset(path, "generic_pairs")

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"query": 5, "response": "r", "label": "faithful"}, "field: query"),
            ({"query": "q", "response": ["r"], "label": "faithful"}, "field: response"),
            ({"id": 7, "query": "q", "response": "r", "label": "faithful"}, "field: id"),
            ({"query": "q", "response": "r", "label": True}, "field: label"),
            (["q", "r", "faithful"], "expected an object"),
            ({"id": "", "query": "q", "response": "r", "label": "faithful"},
             r"claim id must be non-empty \(field: id\)$"),
        ],
    )
    def test_field_types_are_checked(self, tmp_path, record, message):
        path = write_jsonl(tmp_path / "d.jsonl", [{"query": "q", "response": "r", "label": "faithful"}, record])
        with pytest.raises(DatasetFormatError, match=f"record 2: .*{message}"):
            load_dataset(path, "generic_pairs")

    def test_an_absent_or_null_id_is_the_record_number(self, tmp_path):
        pair = {"query": "q", "response": "r", "label": "faithful"}
        path = write_jsonl(tmp_path / "d.jsonl", [pair, {**pair, "id": None}, {**pair, "id": "x"}])
        assert [c.id for c in load_dataset(path, "generic_pairs")] == ["pair-000001", "pair-000002", "x"]

    def test_invalid_json_names_the_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('\n{"query": "q", "response": "r", "label": "faithful"}\n\n{"query"\n')
        with pytest.raises(DatasetFormatError, match="record 2: invalid JSON"):
            load_dataset(path, "generic_pairs")

    def test_thousand_records_load_with_unique_ids(self, tmp_path):
        records = [
            {"query": f"q{i}", "response": f"r{i}", "label": "Hallucination"} for i in range(1000)
        ]
        claims = load_dataset(write_jsonl(tmp_path / "d.jsonl", records), "generic_pairs")
        assert len(claims) == 1000
        assert len({c.id for c in claims}) == 1000


class TestHaluevalQa:
    def test_dual_answers_become_two_claims(self, tmp_path):
        record = {
            "knowledge": "background",
            "question": "who?",
            "right_answer": "the right one",
            "hallucinated_answer": "the wrong one",
        }
        claims = load_dataset(write_jsonl(tmp_path / "d.jsonl", [record]), "halueval_qa")
        assert len(claims) == 2
        by_label = {c.gold_label: c for c in claims}
        assert by_label[Label.NOT_HALLUCINATION].response == "the right one"
        assert by_label[Label.HALLUCINATION].response == "the wrong one"

    def test_single_answer_variant(self, tmp_path):
        record = {"question": "who?", "hallucinated_answer": "wrong"}
        claims = load_dataset(write_jsonl(tmp_path / "d.jsonl", [record]), "halueval_qa")
        assert len(claims) == 1
        assert claims[0].gold_label is Label.HALLUCINATION

    @pytest.mark.parametrize(
        "record",
        [
            {"question": "who?", "right_answer": 3},
            {"question": ["who?"], "hallucinated_answer": "x"},
            {"question": "who?", "right_answer": None},
            "who?",
        ],
    )
    def test_malformed_records_are_format_errors(self, tmp_path, record):
        path = write_jsonl(tmp_path / "d.jsonl", [record])
        with pytest.raises(DatasetFormatError, match="record 1"):
            load_dataset(path, "halueval_qa")

    def test_missing_question_is_a_format_error(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"right_answer": "r"}])
        with pytest.raises(DatasetFormatError, match="record 1"):
            load_dataset(path, "halueval_qa")


class TestNativeFormat:
    def test_roundtrips_through_loader(self, tmp_path):
        from leap.core import write_claims

        claims = [make_claim(i) for i in range(5)]
        path = tmp_path / "native.jsonl"
        write_claims(path, claims)
        assert load_dataset(path, "native") == claims

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="unknown dataset format"):
            load_dataset(tmp_path / "x.jsonl", "csv")


class TestEveryFormatReadsLines:
    @pytest.mark.parametrize("format", DATASET_FORMATS)
    def test_bytes_that_are_not_utf8_are_a_format_error(self, tmp_path, format):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'\n{"query": "q\xe9", "response": "r", "label": "faithful"}\n')
        with pytest.raises(DatasetFormatError, match=r"^line 2: not UTF-8$"):
            load_dataset(path, format)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_line_separators_inside_strings_stay_in_their_record(self, tmp_path, sep):
        records = [
            {"query": f"q{sep}1", "response": f"r{sep}", "label": "faithful"},
            {"query": "q2", "response": "r2", "label": "hallucinated"},
        ]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))
        claims = load_dataset(path, "generic_pairs")
        assert [c.query for c in claims] == [f"q{sep}1", "q2"]

    @pytest.mark.parametrize(
        "format,record",
        [
            ("native", {"id": "a", "query": "q", "response": "r"}),
            ("generic_pairs", {"id": "a", "query": "q", "response": "r", "label": "faithful"}),
        ],
    )
    def test_duplicate_ids_are_a_format_error(self, tmp_path, format, record):
        path = write_jsonl(tmp_path / "d.jsonl", [record, record])
        with pytest.raises(DatasetFormatError, match="duplicate claim id: 'a'"):
            load_dataset(path, format)

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="cannot read"):
            load_dataset(tmp_path / "absent.jsonl", "halueval_qa")


class TestSampleSplit:
    def test_full_sample_is_a_permutation(self):
        claims = [make_claim(i) for i in range(20)]
        sample = sample_split(claims, 20, seed=5)
        assert sorted(c.id for c in sample) == sorted(c.id for c in claims)

    def test_same_seed_same_sequence(self):
        claims = [make_claim(i) for i in range(100)]
        a = [c.id for c in sample_split(claims, 30, seed=11)]
        b = [c.id for c in sample_split(claims, 30, seed=11)]
        assert a == b

    def test_different_seeds_differ(self):
        claims = [make_claim(i) for i in range(100)]
        a = [c.id for c in sample_split(claims, 30, seed=1)]
        b = [c.id for c in sample_split(claims, 30, seed=2)]
        assert a != b

    def test_no_duplicates_and_subset(self):
        claims = [make_claim(i) for i in range(50)]
        sample = sample_split(claims, 10, seed=3)
        ids = [c.id for c in sample]
        assert len(set(ids)) == 10
        assert set(ids) <= {c.id for c in claims}

    def test_oversampling_rejected(self):
        with pytest.raises(SchemaError, match="exceeds"):
            sample_split([make_claim(1)], 2, seed=0)

    def test_known_generator_values(self):
        # MMIX constants: pin the first outputs so the generator can never
        # silently change.
        rng = Lcg64(0)
        assert rng.next_u64() == 1442695040888963407
        rng2 = Lcg64(0)
        assert rng2.randbelow(10) == (1442695040888963407 >> 32) % 10


H, N = Label.HALLUCINATION, Label.NOT_HALLUCINATION


class TestMetrics:
    def test_hand_computed_case(self):
        pairs = [(H, H)] * 2 + [(N, H)] * 1 + [(H, N)] * 1 + [(N, N)] * 6
        metrics = compute_metrics(pairs)
        assert abs(metrics.precision - 2 / 3) < 1e-12
        assert abs(metrics.recall - 2 / 3) < 1e-12
        assert abs(metrics.f1 - 2 / 3) < 1e-12
        assert abs(metrics.accuracy - 0.8) < 1e-12
        assert metrics.confusion == Confusion(tp=2, fp=1, tn=6, fn=1)

    def test_all_correct(self):
        metrics = compute_metrics([(H, H), (N, N), (H, H)])
        assert metrics.accuracy == 1.0
        assert metrics.f1 == 1.0

    def test_no_positive_predictions_zero_denominator(self):
        metrics = compute_metrics([(H, N), (N, N)])
        assert metrics.precision == 0.0
        assert metrics.f1 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            compute_metrics([])

    @given(st.lists(st.tuples(st.sampled_from([H, N]), st.sampled_from([H, N])), min_size=1, max_size=200))
    def test_identities_from_confusion(self, pairs):
        m = compute_metrics(pairs)
        c = m.confusion
        assert c.tp + c.fp + c.tn + c.fn == m.n
        assert abs(m.accuracy - (c.tp + c.tn) / m.n) < 1e-12
        p = c.tp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0
        r = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) else 0.0
        assert abs(m.f1 - f1) < 1e-12
        assert 0.0 <= m.f1 <= 1.0

    @given(st.lists(st.tuples(st.sampled_from([H, N]), st.sampled_from([H, N])), min_size=1, max_size=100))
    def test_class_swap_preserves_accuracy(self, pairs):
        swap = {H: N, N: H}
        swapped = [(swap[g], swap[p]) for g, p in pairs]
        a, b = compute_metrics(pairs), compute_metrics(swapped)
        assert abs(a.accuracy - b.accuracy) < 1e-12
        # swapping classes transposes the confusion matrix
        assert (a.confusion.tp, a.confusion.tn) == (b.confusion.tn, b.confusion.tp)
        assert (a.confusion.fp, a.confusion.fn) == (b.confusion.fn, b.confusion.fp)

    def test_f1_equals_accuracy_when_fp_eq_fn_and_tp_eq_tn(self):
        # accuracy = (tp+tn)/n and F1 = 2tp/(2tp+fp+fn) coincide exactly
        # when the matrix is balanced: fp == fn and tp == tn.
        pairs = [(H, H)] * 4 + [(N, N)] * 4 + [(N, H)] * 2 + [(H, N)] * 2
        m = compute_metrics(pairs)
        assert m.confusion.fp == m.confusion.fn and m.confusion.tp == m.confusion.tn
        assert abs(m.f1 - m.accuracy) < 1e-12


class TestReports:
    def report(self):
        per_claim = (
            PerClaim(id="a", gold=H, predicted=H, n_steps=3, corrected=False),
            PerClaim(id="b", gold=N, predicted=H, n_steps=2, corrected=True),
            PerClaim(id="c", gold=N, predicted=N, n_steps=1, corrected=False),
        )
        return build_report("halueval", per_claim)

    def test_percent_formatting_convention(self):
        report = EvalReport(
            dataset="halueval",
            n=10000,
            accuracy=0.7419,
            f1=0.75,
            confusion=Confusion(tp=3000, fp=1000, tn=4419, fn=1581),
        )
        table = render_report(report, "text_table")
        assert "74.19 / 75.00" in table
        assert "positive class: Hallucination" in table

    def test_zero_row(self):
        report = EvalReport(
            dataset="empty", n=0, accuracy=0.0, f1=0.0, confusion=Confusion(0, 0, 0, 0)
        )
        table = render_report(report, "text_table")
        assert "0" in table.splitlines()[2]

    def test_machine_roundtrip(self):
        report = self.report()
        line = render_report(report, "machine")
        assert parse_report(line) == report

    def test_failed_claims_are_accounted_for(self):
        per_claim = self.report().per_claim
        report = build_report("halueval", per_claim, failed=["d", "e"])
        assert report.n == 3 and report.failed == ("d", "e")
        assert "failed: 2 of 5 sampled" in render_report(report, "text_table").splitlines()
        assert parse_report(render_report(report, "machine")) == report

    def test_failed_key_is_required_on_the_wire(self):
        obj = json.loads(render_report(self.report(), "machine"))
        del obj["failed"]
        with pytest.raises(SchemaError, match=r"missing field \(field: failed\)"):
            parse_report(json.dumps(obj))

    def test_invariants_rejected(self):
        with pytest.raises(SchemaError, match="sum"):
            EvalReport(dataset="x", n=5, accuracy=0.5, f1=0.5, confusion=Confusion(1, 1, 1, 1))
        with pytest.raises(SchemaError, match="accuracy"):
            EvalReport(dataset="x", n=4, accuracy=0.9, f1=0.5, confusion=Confusion(1, 1, 1, 1))

    def test_unknown_render_format(self):
        with pytest.raises(SchemaError):
            render_report(self.report(), "yaml")
