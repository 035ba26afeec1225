"""Prompt templates and the text blocks rendered into them.

Templates are plain-text files with {placeholder} syntax, one per agent role
plus one for the semantic-match judge. They are always loaded from files; the
package ships defaults, and a config-supplied directory with the same five
filenames overrides them.
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
    """A named template with the placeholders it insists on."""

    name: str
    template: str
    required_placeholders: tuple[str, ...]

    def render(self, **bindings: str) -> str:
        missing = [p for p in self.required_placeholders if p not in bindings]
        if missing:
            raise PromptError(f"template {self.name!r} missing placeholders: {missing}")

        def substitute(match: re.Match) -> str:
            name = match.group(1)
            return bindings.get(name, match.group(0))

        return _PLACEHOLDER_RE.sub(substitute, self.template)


def load_templates(prompts_dir: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load the five fixed template files from a directory or the packaged defaults."""
    templates: dict[str, PromptTemplate] = {}
    for name, placeholders in TEMPLATE_PLACEHOLDERS.items():
        filename = f"{name}.txt"
        if prompts_dir is None:
            source = resources.files("leap").joinpath("templates", filename)
            try:
                text = source.read_text(encoding="utf-8")
            except FileNotFoundError as exc:
                raise PromptError(f"packaged template missing: {filename}") from exc
        else:
            path = Path(prompts_dir) / filename
            if not path.exists():
                raise PromptError(f"template file missing: {path}")
            text = path.read_text(encoding="utf-8")
        templates[name] = PromptTemplate(name=name, template=text, required_placeholders=placeholders)
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


def format_reflections(records: Iterable) -> str:
    blocks = []
    for i, record in enumerate(records, start=1):
        principles = "; ".join(record.principles)
        blocks.append(
            f"Reflection {i}:\n"
            f"Diagnosis: {record.diagnosis}\n"
            f"Principles: {principles}\n"
            f"Suggested strategy:\n{format_strategy(record.revised_strategy)}"
        )
    if not blocks:
        return "No prior reflections."
    return "\n\n".join(blocks)


def format_precedents(records: Iterable) -> str:
    blocks = []
    for i, record in enumerate(records, start=1):
        blocks.append(
            f"Precedent {i} (advantage {record.advantage:+.3f}):\n"
            f"Claim: {record.claim_text}\n{format_strategy(record.strategy)}"
        )
    if not blocks:
        return "None."
    return "\n\n".join(blocks)


def format_value_examples(samples: Iterable) -> str:
    blocks = []
    for i, sample in enumerate(samples, start=1):
        blocks.append(f"Example {i} (value {sample.value:+.3f}):\n{sample.state_summary}")
    if not blocks:
        return "No prior value samples."
    return "\n\n".join(blocks)
