"""Prompt templates and the text blocks rendered into them.

Templates are plain-text files with {placeholder} syntax, one per agent role
plus one for the semantic-match judge. They are always loaded from files; the
package ships defaults, and a config-supplied directory with the same five
filenames overrides them. Each template must contain its role's placeholders
(TEMPLATE_PLACEHOLDERS); a file that cannot be read or lacks one fails at load.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .core import Claim, Step, VerificationStrategy, render_step
from .errors import PromptError

__all__ = [
    "PromptTemplate",
    "load_templates",
    "TEMPLATE_PLACEHOLDERS",
    "format_claim_block",
    "format_strategy",
    "format_history",
    "format_state",
    "format_reflections",
    "format_precedents",
    "format_value_examples",
]

TEMPLATE_PLACEHOLDERS: dict[str, tuple[str, ...]] = {
    "planner": ("claim", "reflections"),
    "actor": ("claim", "strategy", "history", "precedents_pos", "precedents_neg"),
    "critic": ("state", "examples"),
    "reflector": ("claim", "failure"),
    "match": ("sentence", "context"),
}

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named template, checked at construction to contain its placeholders."""

    name: str
    template: str
    required_placeholders: tuple[str, ...]

    def __post_init__(self) -> None:
        present = set(_PLACEHOLDER_RE.findall(self.template))
        missing = [p for p in self.required_placeholders if p not in present]
        if missing:
            raise PromptError(f"template {self.name!r} missing placeholders: {missing}")

    def render(self, **bindings: str) -> str:
        return _PLACEHOLDER_RE.sub(lambda m: bindings.get(m.group(1), m.group(0)), self.template)


def load_templates(prompts_dir: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load the five fixed template files from a directory or the packaged defaults."""
    root = resources.files("leap") / "templates" if prompts_dir is None else Path(prompts_dir)
    templates: dict[str, PromptTemplate] = {}
    for name, placeholders in TEMPLATE_PLACEHOLDERS.items():
        source = root / f"{name}.txt"
        try:
            text = source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise PromptError(f"cannot read template {name}.txt: {exc}") from exc
        templates[name] = PromptTemplate(name, text, placeholders)
    return templates


def format_claim_block(claim: Claim) -> str:
    """The claim as agents see it; also the SFT prompt, so the two always align."""
    return f"Query: {claim.query}\nResponse: {claim.response}"


def format_strategy(strategy: VerificationStrategy) -> str:
    lines = [f"TYPE: {strategy.problem_type}", f"STRATEGY: {strategy.high_level_strategy}", "PLAN:"]
    lines.extend(f"{i}. {step}" for i, step in enumerate(strategy.plan, start=1))
    return "\n".join(lines)


def format_history(steps: Sequence[Step]) -> str:
    """Each step as the SFT target renders it, followed by its observation."""
    if not steps:
        return "No steps yet."
    return "\n".join(
        f"{render_step(s)}Observation: {s.observation if s.observation is not None else '(pending)'}"
        for s in steps
    )


def format_state(claim: Claim, steps: Sequence[Step]) -> str:
    """Render a state: the claim, plus the step history once there is one."""
    if not steps:
        return format_claim_block(claim)
    return f"{format_claim_block(claim)}\n\nSteps so far:\n{format_history(steps)}"


def _numbered_blocks(label: str, entries: Iterable[tuple[str, str]], empty: str) -> str:
    """Blank-line-separated blocks headed "<label> <i><note>:", or ``empty``."""
    blocks = [f"{label} {i}{note}:\n{body}" for i, (note, body) in enumerate(entries, start=1)]
    return "\n\n".join(blocks) if blocks else empty


def format_reflections(records: Iterable) -> str:
    entries = (
        ("", f"Diagnosis: {r.diagnosis}\nPrinciples: {'; '.join(r.principles)}\n"
             f"Suggested strategy:\n{format_strategy(r.revised_strategy)}")
        for r in records
    )
    return _numbered_blocks("Reflection", entries, "No prior reflections.")


def format_precedents(records: Iterable) -> str:
    entries = (
        (f" (advantage {r.advantage:+.3f})", f"Claim: {r.claim_text}\n{format_strategy(r.strategy)}")
        for r in records
    )
    return _numbered_blocks("Precedent", entries, "None.")


def format_value_examples(samples: Iterable) -> str:
    entries = ((f" (value {s.value:+.3f})", s.state_summary) for s in samples)
    return _numbered_blocks("Example", entries, "No prior value samples.")
