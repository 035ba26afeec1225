"""Prompt templates: loading, the placeholder check at load, and the numbered blocks."""

from __future__ import annotations

import re
import shutil
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from leap.errors import PromptError
from leap.prompts import (
    TEMPLATE_PLACEHOLDERS,
    PromptTemplate,
    format_precedents,
    format_reflections,
    format_value_examples,
    load_templates,
)

from conftest import make_strategy


@pytest.fixture
def prompts_dir(tmp_path):
    """A copy of the packaged templates, to override."""
    packaged = resources.files("leap") / "templates"
    for name in TEMPLATE_PLACEHOLDERS:
        shutil.copyfile(packaged / f"{name}.txt", tmp_path / f"{name}.txt")
    return tmp_path


class TestLoad:
    def test_packaged_templates_contain_their_placeholders(self):
        templates = load_templates()
        assert sorted(templates) == sorted(TEMPLATE_PLACEHOLDERS)
        for name, template in templates.items():
            for placeholder in TEMPLATE_PLACEHOLDERS[name]:
                assert f"{{{placeholder}}}" in template.template

    def test_readme_lists_each_file_placeholders(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)\.txt` \| (.*) \|$", readme, re.M)
        listed = {name: tuple(re.findall(r"\{(\w+)\}", cells)) for name, cells in rows}
        assert listed == TEMPLATE_PLACEHOLDERS

    def test_a_valid_override_loads(self, prompts_dir):
        actor = prompts_dir / "actor.txt"
        actor.write_text("Be terse.\n" + actor.read_text(encoding="utf-8"), encoding="utf-8")
        templates = load_templates(str(prompts_dir))
        assert templates["actor"].template.startswith("Be terse.\n")
        assert templates["planner"].template == load_templates()["planner"].template

    def test_a_planner_without_reflections_is_refused(self, prompts_dir):
        planner = prompts_dir / "planner.txt"
        text = planner.read_text(encoding="utf-8").replace("{reflections}", "")
        planner.write_text(text, encoding="utf-8")
        with pytest.raises(PromptError, match=r"'planner' missing placeholders: \['reflections'\]"):
            load_templates(prompts_dir)

    def test_an_actor_that_is_a_directory_is_a_prompt_error(self, prompts_dir):
        (prompts_dir / "actor.txt").unlink()
        (prompts_dir / "actor.txt").mkdir()
        with pytest.raises(PromptError, match="cannot read template actor.txt"):
            load_templates(prompts_dir)

    def test_a_missing_file_is_a_prompt_error(self, prompts_dir):
        (prompts_dir / "critic.txt").unlink()
        with pytest.raises(PromptError, match="cannot read template critic.txt"):
            load_templates(prompts_dir)

    def test_a_file_that_is_not_utf8_is_a_prompt_error(self, prompts_dir):
        (prompts_dir / "match.txt").write_bytes(b"\xff{sentence} {context}")
        with pytest.raises(PromptError, match="cannot read template match.txt"):
            load_templates(prompts_dir)

    def test_the_check_is_made_at_construction(self):
        with pytest.raises(PromptError, match=r"missing placeholders: \['b'\]"):
            PromptTemplate("t", "{a} {bb}", ("a", "b"))
        template = PromptTemplate("t", "{a} {b} {c}", ("a", "b"))
        assert template.render(a="1", b="2") == "1 2 {c}"


class TestNumberedBlocks:
    """The exact bytes each block renders, as the agents' prompts carry them."""

    def test_reflections(self):
        record = SimpleNamespace(
            diagnosis="missed the date",
            principles=("check dates", "cite"),
            revised_strategy=make_strategy(plan=("search the date", "compare")),
        )
        assert format_reflections([record, record]) == "\n\n".join(
            f"Reflection {i}:\nDiagnosis: missed the date\nPrinciples: check dates; cite\n"
            "Suggested strategy:\nTYPE: factual\n"
            "STRATEGY: verify the claim with external evidence\nPLAN:\n1. search the date\n2. compare"
            for i in (1, 2)
        )
        assert format_reflections([]) == "No prior reflections."

    def test_precedents(self):
        records = [
            SimpleNamespace(advantage=a, claim_text=f"claim {a}", strategy=make_strategy())
            for a in (0.25, -1.0)
        ]
        assert format_precedents(records) == (
            "Precedent 1 (advantage +0.250):\nClaim: claim 0.25\nTYPE: factual\n"
            "STRATEGY: verify the claim with external evidence\nPLAN:\n1. search the subject\n\n"
            "Precedent 2 (advantage -1.000):\nClaim: claim -1.0\nTYPE: factual\n"
            "STRATEGY: verify the claim with external evidence\nPLAN:\n1. search the subject"
        )
        assert format_precedents(iter(())) == "None."

    def test_value_examples(self):
        samples = [
            SimpleNamespace(value=0.5, state_summary="s0\nline"),
            SimpleNamespace(value=-0.125, state_summary="s1"),
        ]
        assert format_value_examples(samples) == (
            "Example 1 (value +0.500):\ns0\nline\n\nExample 2 (value -0.125):\ns1"
        )
        assert format_value_examples([]) == "No prior value samples."
