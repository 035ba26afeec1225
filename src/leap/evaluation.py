"""Dataset adapters, deterministic sampling, metrics, and report rendering.

The positive class is Hallucination throughout: detecting one is the task,
and it matches the convention of the benchmarks this runs against. Every
report says so in its header. Sampling uses an explicitly specified generator
rather than the platform default so a seeded split is reproducible anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .core import (
    Claim,
    Label,
    Record,
    _check_keys,
    _check_unique_ids,
    _loads_line,
    load_claims,
    read_lines,
    serialize,
    wire_value,
)
from .errors import DatasetFormatError, SchemaError, StorageError

__all__ = [
    "DATASET_FORMATS",
    "load_dataset",
    "sample_split",
    "Confusion",
    "Metrics",
    "PerClaim",
    "EvalReport",
    "compute_metrics",
    "build_report",
    "render_report",
    "parse_report",
]

DATASET_FORMATS = ("native", "halueval_qa", "generic_pairs")

_LABEL_ALIASES = {
    "hallucinated": Label.HALLUCINATION,
    "faithful": Label.NOT_HALLUCINATION,
}


def _parse_gold_label(value: Any) -> Label:
    alias = _LABEL_ALIASES.get(value.strip().lower()) if isinstance(value, str) else None
    if alias is not None:
        return alias
    try:
        return wire_value(Label, value, "label", None)
    except SchemaError as exc:
        raise SchemaError(f"{exc}, or an alias in {sorted(_LABEL_ALIASES)}; got {value!r}") from exc


def load_dataset(path: str | Path, format: str = "native") -> list[Claim]:
    """Load claims from a file, normalizing external schemas.

    native: this package's claim records. generic_pairs: {"query",
    "response", "label"} with an optional "id". halueval_qa: QA records
    with a question plus a right and/or hallucinated answer, each becoming
    one labeled claim.
    """
    if format not in DATASET_FORMATS:
        raise DatasetFormatError(f"unknown dataset format: {format!r}")
    try:
        if format == "native":
            return load_claims(path)
        adapter = _from_generic if format == "generic_pairs" else _from_halueval
        claims: list[Claim] = []
        for record_no, (_, line) in enumerate(read_lines(path), start=1):
            try:
                claims.extend(adapter(_loads_line(line, None), record_no))
            except SchemaError as exc:
                raise DatasetFormatError(f"record {record_no}: {exc}") from exc
        return _check_unique_ids(claims)
    except (SchemaError, StorageError) as exc:
        raise DatasetFormatError(str(exc)) from exc


def _from_generic(record: Any, record_no: int) -> list[Claim]:
    _check_keys(record, {"query", "response", "label"}, {"id"}, "", None)
    claim_id = wire_value(str | None, record.get("id"), "id", None)
    return [
        Claim(
            id=f"pair-{record_no:06d}" if claim_id is None else claim_id,
            query=wire_value(str, record["query"], "query", None),
            response=wire_value(str, record["response"], "response", None),
            gold_label=_parse_gold_label(record["label"]),
        )
    ]


# halueval_qa answer fields, with the claim id suffix and gold label each becomes.
_HALUEVAL_ANSWERS = (
    ("right_answer", "right", Label.NOT_HALLUCINATION),
    ("hallucinated_answer", "hallucinated", Label.HALLUCINATION),
)


def _from_halueval(record: Any, record_no: int) -> list[Claim]:
    # External schema: tolerate extra fields like "knowledge", require the
    # question and at least one answer variant.
    _check_keys(record, {"question"}, None, "", None)
    answers = [a for a in _HALUEVAL_ANSWERS if record.get(a[0]) is not None]
    if not answers:
        raise SchemaError(
            f"halueval_qa needs a right_answer and/or hallucinated_answer, got {sorted(record)}"
        )
    question = wire_value(str, record["question"], "question", None)
    return [
        Claim(
            id=f"halu-{record_no:06d}-{suffix}",
            query=question,
            response=wire_value(str, record[key], key, None),
            gold_label=label,
        )
        for key, suffix, label in answers
    ]


class Lcg64:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    Bounded draws use the top 32 bits of each step with rejection sampling,
    avoiding the short periods of an LCG's low bits. Identical sequences on
    every platform for a given seed.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        if n > (1 << 32):
            raise ValueError("bounded draws support n up to 2**32")
        span = 1 << 32
        limit = (span // n) * n
        while True:
            word = self.next_u64() >> 32
            if word < limit:
                return word % n


def sample_split(claims: Sequence[Claim], n: int, seed: int) -> list[Claim]:
    """Uniform sample of n claims without replacement, deterministic by seed.

    Partial Fisher-Yates driven by the documented LCG; the same seed yields
    the same id sequence in any process on any platform.
    """
    if n < 1:
        raise SchemaError("sample size must be positive")
    if n > len(claims):
        raise SchemaError(f"sample size {n} exceeds population {len(claims)}")
    pool = list(claims)
    rng = Lcg64(seed)
    for i in range(n):
        j = i + rng.randbelow(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:n]


@dataclass(frozen=True)
class Confusion(Record):
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class Metrics:
    n: int
    accuracy: float
    f1: float
    precision: float
    recall: float
    confusion: Confusion


def compute_metrics(pairs: Sequence[tuple[Label, Label]]) -> Metrics:
    """Accuracy and F1 over (gold, predicted) pairs, positive = Hallucination.

    Any zero denominator makes the affected quantity 0 rather than an error.
    """
    if not pairs:
        raise SchemaError("compute_metrics needs at least one pair")
    tp = fp = tn = fn = 0
    for gold, predicted in pairs:
        if predicted is Label.HALLUCINATION:
            if gold is Label.HALLUCINATION:
                tp += 1
            else:
                fp += 1
        else:
            if gold is Label.HALLUCINATION:
                fn += 1
            else:
                tn += 1
    n = len(pairs)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    accuracy = (tp + tn) / n
    return Metrics(
        n=n,
        accuracy=accuracy,
        f1=f1,
        precision=precision,
        recall=recall,
        confusion=Confusion(tp=tp, fp=fp, tn=tn, fn=fn),
    )


@dataclass(frozen=True)
class PerClaim(Record):
    id: str
    gold: Label
    predicted: Label
    n_steps: int
    corrected: bool


@dataclass(frozen=True)
class EvalReport(Record):
    dataset: str
    n: int
    accuracy: float
    f1: float
    confusion: Confusion
    failed: tuple[str, ...] = ()  # ids of the sampled claims that did not finish
    positive_class: str = Label.HALLUCINATION.value
    per_claim: tuple[PerClaim, ...] = ()

    def __post_init__(self) -> None:
        if self.positive_class != Label.HALLUCINATION.value:
            raise SchemaError(f"expected {Label.HALLUCINATION.value!r}", field="positive_class")
        total = self.confusion.tp + self.confusion.fp + self.confusion.tn + self.confusion.fn
        if total != self.n:
            raise SchemaError(f"confusion cells sum to {total}, n is {self.n}")
        if self.n and self.accuracy != (self.confusion.tp + self.confusion.tn) / self.n:
            raise SchemaError("accuracy does not match the confusion matrix")


def build_report(
    dataset: str, per_claim: Sequence[PerClaim], failed: Sequence[str] = ()
) -> EvalReport:
    pairs = [(p.gold, p.predicted) for p in per_claim]
    # With every sampled claim failed, the metrics are zero and ``failed`` lists them all.
    metrics = compute_metrics(pairs) if pairs else Metrics(0, 0.0, 0.0, 0.0, 0.0, Confusion(0, 0, 0, 0))
    return EvalReport(
        dataset=dataset,
        n=metrics.n,
        accuracy=metrics.accuracy,
        f1=metrics.f1,
        confusion=metrics.confusion,
        failed=tuple(failed),
        per_claim=tuple(per_claim),
    )


def render_report(report: EvalReport, format: str = "text_table") -> str:
    """Render a report: an aligned text table or one machine-readable line."""
    if format == "machine":
        return serialize(report)
    if format != "text_table":
        raise SchemaError(f"unknown report format: {format!r}")
    cell = f"{report.accuracy * 100:.2f} / {report.f1 * 100:.2f}"
    name_width = max(len("dataset"), len(report.dataset))
    c = report.confusion
    lines = [
        f"positive class: {report.positive_class}",
        f"{'dataset'.ljust(name_width)}  {'n':>6}  Acc / F1",
        f"{report.dataset.ljust(name_width)}  {report.n:>6}  {cell}",
        f"confusion: tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}",
        f"failed: {len(report.failed)} of {report.n + len(report.failed)} sampled",
    ]
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvalReport:
    """Parse a machine-format report line back into an EvalReport."""
    obj = _loads_line(text, None)
    # Every key is required on the wire, although the dataclass defaults three.
    keys = {"dataset", "n", "accuracy", "f1", "confusion", "failed", "positive_class", "per_claim"}
    _check_keys(obj, keys, set(), "", None)
    return EvalReport.from_dict(obj)
