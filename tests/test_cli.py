"""CLI wiring: config round-trip, subcommand flows, exit-code contract."""

from __future__ import annotations

import json
import re
import shutil
from importlib import resources
from pathlib import Path

import pytest

from leap.backend import ScriptedProvider
from leap.cli import main
from leap.config import (
    Config,
    config_from_dict,
    config_hash,
    effective_dict,
    load_config,
)
from leap.core import Label, load_trajectories, write_claims
from leap.errors import ConfigError
from leap.memory import Memories
from leap.prompts import format_claim_block

from conftest import detection_entries, episode_entries, make_claim, stub_http_server, write_script


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(effective_dict(Config())))
        assert load_config(path) == Config()

    def test_effective_round_trip_with_overrides(self, tmp_path):
        config = config_from_dict(
            {
                "backend": {"embed_dim": 16},
                "learning": {"gamma": 0.9, "lambda": 0.2, "seed": 7, "concurrency": 1},
                "correction": {"theta_corr": 0.1},
            }
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(effective_dict(config)))
        reloaded = load_config(path)
        assert reloaded == config
        assert config_hash(reloaded) == config_hash(config)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown field \(field: decodng\)"):
            config_from_dict({"decodng": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown field \(field: learning\.gama\)"):
            config_from_dict({"learning": {"gama": 1.0}})

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("decoding", "temperature_learn", 3.0),
            ("decoding", "top_p_learn", 0.0),
            ("learning", "gamma", 1.5),
            ("learning", "lambda", -0.1),
            ("learning", "concurrency", 0),
            ("learning", "memory_cap", 0),
            ("tools", "match_threshold", 2.0),
            ("backend", "embed_dim", 0),
            ("decoding", "temperature_learn", float("nan")),
            ("decoding", "top_p_learn", float("nan")),
            ("tools", "match_threshold", float("nan")),
            ("backend", "embed_dim", True),
            ("learning", "seed", False),
            ("decoding", "max_tokens", 1.0),
            ("learning", "gamma", "0.5"),
            ("correction", "theta_corr", True),
            ("backend", "model", 3),
            ("tools", "code_executor", ["python3", 1]),
            ("tools", "code_executor", "python3 -c"),
            ("learning", "memory_cap", True),
            ("paths", "prompts_dir", 7),
            ("learning", "lambda", float("nan")),
            ("learning", "lambda", float("inf")),
            ("correction", "theta_corr", float("nan")),
            ("correction", "theta_corr", float("inf")),
            ("correction", "theta_corr", float("-inf")),
        ],
    )
    def test_out_of_range_values_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({section: {key: value}})

    def test_file_that_is_not_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("backend = {}\n")
        with pytest.raises(ConfigError, match=r"^config .*config\.json is not valid JSON: Expecting value$"):
            load_config(path)

    def test_bad_search_provider(self):
        with pytest.raises(ConfigError, match="search_provider"):
            config_from_dict({"tools": {"search_provider": {"kind": "dns"}}})

    @pytest.mark.parametrize("value", [[], "x", None, 1])
    def test_non_object_section_rejected(self, value):
        with pytest.raises(ConfigError, match="backend"):
            config_from_dict({"backend": value})

    def test_nullable_keys_accept_null(self):
        config = config_from_dict({"learning": {"memory_cap": None}, "paths": {"prompts_dir": None}})
        assert config.learning.memory_cap is None
        assert config.paths.prompts_dir is None

    def test_integers_load_as_floats(self):
        config = config_from_dict({"learning": {"gamma": 1}, "correction": {"theta_corr": 0}})
        assert type(config.learning.gamma) is float and type(config.correction.theta_corr) is float
        assert config_hash(config) == config_hash(Config())

    def test_default_hash_is_pinned(self):
        assert config_hash(Config()) == "f068ad5c770a01b3"

    def test_readme_lists_the_effective_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Configuration.*?```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(block) == effective_dict(Config())


class Workspace:
    """Config, claims, and per-command scripted fixtures for offline runs.

    Every CLI invocation reloads its fixture file from scratch, so each
    command gets a script containing exactly the replies its flow consumes.
    """

    def __init__(self, tmp_path, monkeypatch):
        self.root = tmp_path
        self.monkeypatch = monkeypatch
        self.claims = [make_claim(i, gold=Label.HALLUCINATION) for i in range(4)]
        self.claims_path = tmp_path / "claims.jsonl"
        write_claims(self.claims_path, self.claims)

        search_path = tmp_path / "search.jsonl"
        with search_path.open("w") as fh:
            for claim in self.claims:
                fh.write(
                    json.dumps({"query": claim.query, "result": f"[1] Entry — about {claim.id}"})
                    + "\n"
                )

        config = {
            "backend": {"embed_dim": 16},
            "learning": {"concurrency": 1, "seed": 3},
            "tools": {"search_provider": {"kind": "fixture", "path": str(search_path)}},
            "paths": {"memory_dir": str(tmp_path / "memory"), "out_dir": str(tmp_path / "out")},
        }
        self.config = str(tmp_path / "config.json")
        (tmp_path / "config.json").write_text(json.dumps(config))

    @property
    def n_claims(self):
        return len(self.claims)

    def use_learn_script(self, name="learn-script.jsonl"):
        entries = []
        for claim in self.claims:
            entries.extend(
                episode_entries(
                    claim=claim,
                    step_actions=(f'web_search("{claim.query}")',),
                    verdict="Hallucination",
                    values=(0.1, 0.2, 0.6),
                )
            )
        self._activate(name, entries)

    def use_detect_script(self, name="detect-script.jsonl"):
        entries = []
        for claim in self.claims:
            entries.extend(detection_entries(claim, score=0.4, verdict="Hallucination"))
        self._activate(name, entries)

    def _activate(self, name, entries):
        path = write_script(self.root / name, entries)
        self.monkeypatch.setenv("LEAP_BACKEND", f"scripted:{path}")


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    return Workspace(tmp_path, monkeypatch)


class TestLearnCommand:
    def test_populates_memory_trajectories_and_manifest(self, workspace):
        workspace.use_learn_script()
        out = workspace.root / "run1"
        code = main(
            ["learn", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--out", str(out)]
        )
        assert code == 0
        trajectories = load_trajectories(out / "trajectories.jsonl")
        assert len(trajectories) == workspace.n_claims
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["completed"] == workspace.n_claims
        assert manifest["config_hash"]
        memory_dir = workspace.root / "memory"
        for name in ("reflections", "precedents", "values"):
            assert (memory_dir / f"{name}.jsonl").exists()


    def test_interrupted_run_persists_the_episodes_that_finished(self, workspace, monkeypatch, capsys):
        claims = workspace.claims
        # A wrong verdict, so every episode ends with a reflection: its last model call.
        scripts = {
            c.id: episode_entries(
                c,
                step_actions=(f'web_search("{c.query}")',),
                verdict="Not Hallucination",
                values=(0.1, 0.2, 0.6),
                reflection=True,
            )
            for c in claims
        }
        workspace._activate("learn-script.jsonl", [e for c in claims for e in scripts[c.id]])
        stopped, asked = claims[2], []
        real = ScriptedProvider.complete

        def complete(provider, request):
            if stopped.query in request.text():
                asked.append(request)
                if len(asked) == len(scripts[stopped.id]):
                    raise KeyboardInterrupt
            return real(provider, request)

        monkeypatch.setattr(ScriptedProvider, "complete", complete)
        code = main(
            ["learn", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--out", str(workspace.root / "o")]
        )
        assert code == 2 and capsys.readouterr().err.endswith("interrupted\n")
        memories = Memories.load(workspace.root / "memory")
        finished = [format_claim_block(c) for c in claims[:2]]
        assert [r.claim_text for r in memories.precedents.records()] == finished
        assert [r.key_text for r in memories.reflections.records()] == finished
        # States s_0 .. s_2 of each finished episode.
        assert [
            next(c.id for c in claims if c.query in r.state_summary) for r in memories.values.records()
        ] == [claims[0].id] * 3 + [claims[1].id] * 3


class TestDetectCommand:
    def test_writes_verdict_records(self, workspace):
        workspace.use_detect_script()
        out = workspace.root / "verdicts.jsonl"
        code = main(
            ["detect", "--config", workspace.config, "--claims", str(workspace.claims_path),
             "--out", str(out)]
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == workspace.n_claims
        assert all(r["verdict"]["label"] == "Hallucination" for r in records)
        assert all(r["corrected"] is False for r in records)

    def _use_correcting_script(self, workspace):
        """Every claim's strategy scores below theta_corr, so it is corrected."""
        entries = [
            e for c in workspace.claims for e in detection_entries(c, score=-0.5, corrected=True)
        ]
        workspace._activate("correct-script.jsonl", entries)
        return entries

    def _detect_online(self, workspace):
        out = workspace.root / "verdicts.jsonl"
        code = main(
            ["detect", "--config", workspace.config, "--claims", str(workspace.claims_path),
             "--out", str(out), "--online-memory"]
        )
        return code, out

    def test_online_memory_persists_the_corrections(self, workspace):
        self._use_correcting_script(workspace)
        code, out = self._detect_online(workspace)
        assert code == 0
        assert all(json.loads(l)["corrected"] for l in out.read_text().splitlines())
        memories = Memories.load(workspace.root / "memory")
        assert [r.key_text for r in memories.reflections.records()] == [
            format_claim_block(c) for c in workspace.claims
        ]

    def test_interrupted_online_memory_persists_the_finished_claims(
        self, workspace, monkeypatch, capsys
    ):
        per_claim = len(self._use_correcting_script(workspace)) // workspace.n_claims
        stopped, asked = workspace.claims[2], []
        real = ScriptedProvider.complete

        def complete(provider, request):
            if stopped.query in request.text():
                asked.append(request)
                if len(asked) == per_claim:  # the stopped claim's last model call
                    raise KeyboardInterrupt
            return real(provider, request)

        monkeypatch.setattr(ScriptedProvider, "complete", complete)
        code, out = self._detect_online(workspace)
        assert code == 2 and capsys.readouterr().err.endswith("interrupted\n")
        finished = workspace.claims[:2]
        assert [json.loads(l)["claim_id"] for l in out.read_text().splitlines()] == [
            c.id for c in finished
        ]
        memories = Memories.load(workspace.root / "memory")
        assert [r.key_text for r in memories.reflections.records()] == [
            format_claim_block(c) for c in finished
        ]


class TestExportCommand:
    def test_prints_count_matching_file(self, workspace, capsys):
        workspace.use_learn_script()
        out = workspace.root / "run1"
        main(
            ["learn", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--out", str(out)]
        )
        sft = workspace.root / "sft.jsonl"
        code = main(
            ["export-sft", "--trajectories", str(out / "trajectories.jsonl"),
             "--claims", str(workspace.claims_path), "--out", str(sft)]
        )
        assert code == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == len(sft.read_text().splitlines())
        assert printed == workspace.n_claims  # every scripted episode is expert-grade

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_line_separators_in_trajectories_export(self, workspace, capsys, sep):
        entries = []
        for claim in workspace.claims:
            entries.extend(episode_entries(claim, evidence=f"based{sep}on it", values=(0.1, 0.6)))
        workspace._activate("learn-script.jsonl", entries)
        out = workspace.root / "run1"
        code = main(
            ["learn", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--out", str(out)]
        )
        assert code == 0
        code = main(
            ["export-sft", "--trajectories", str(out / "trajectories.jsonl"),
             "--claims", str(workspace.claims_path), "--out", str(workspace.root / "sft.jsonl")]
        )
        assert code == 0
        assert int(capsys.readouterr().out.strip()) == workspace.n_claims


class TestEvalCommand:
    def test_writes_report(self, workspace):
        workspace.use_detect_script()
        report_path = workspace.root / "report.txt"
        code = main(
            ["eval", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--format", "native", "--n", "3", "--seed", "9", "--out", str(report_path)]
        )
        assert code == 0
        text = report_path.read_text()
        assert "positive class: Hallucination" in text
        assert "100.00 / 100.00" in text  # scripted verdicts all match gold

    def test_machine_report_parses(self, workspace, capsys):
        workspace.use_detect_script()
        code = main(
            ["eval", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--n", "2", "--report-format", "machine"]
        )
        assert code == 0
        from leap.evaluation import parse_report

        report = parse_report(capsys.readouterr().out.strip())
        assert report.n == 2

    def test_failed_claims_are_reported(self, workspace, capsys):
        entries = []
        for claim in workspace.claims[:3]:  # the last claim has no script and fails
            entries.extend(detection_entries(claim, score=0.4, verdict="Hallucination"))
        workspace._activate("detect-script.jsonl", entries)
        code = main(
            ["eval", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--report-format", "machine"]
        )
        assert code == 0
        from leap.evaluation import parse_report

        report = parse_report(capsys.readouterr().out.strip())
        assert (report.n, report.failed) == (3, (workspace.claims[3].id,))


    def test_every_sampled_claim_failed_is_still_reported(self, workspace, capsys):
        two = workspace.root / "two.jsonl"
        write_claims(two, workspace.claims[:2])
        entries = []
        for claim in workspace.claims[2:]:  # no script for either claim in the dataset
            entries.extend(detection_entries(claim, score=0.4, verdict="Hallucination"))
        workspace._activate("detect-script.jsonl", entries)
        code = main(["eval", "--config", workspace.config, "--dataset", str(two)])
        assert code == 0
        assert "failed: 2 of 2 sampled" in capsys.readouterr().out
        code = main(
            ["eval", "--config", workspace.config, "--dataset", str(two), "--report-format", "machine"]
        )
        assert code == 0
        from leap.evaluation import parse_report

        report = parse_report(capsys.readouterr().out.strip())
        assert (report.n, report.accuracy, report.f1) == (0, 0.0, 0.0)
        assert report.failed == tuple(c.id for c in workspace.claims[:2])

    @pytest.mark.parametrize(
        "n,message", [("0", "sample size must be positive"), ("5", "sample size 5 exceeds population 4")]
    )
    def test_sample_size_out_of_range_is_validation_error(self, workspace, capsys, n, message):
        workspace.use_detect_script()
        code = main(["eval", "--config", workspace.config, "--dataset", str(workspace.claims_path), "--n", n])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBadReplyFailsOnlyItsClaim:
    """A reply whose thought holds a lone surrogate (the JSON escape \\ud800)."""

    def _run(self, workspace, command, entries_for):
        two = workspace.root / "two.jsonl"
        write_claims(two, workspace.claims[:2])
        good, bad = workspace.claims[:2]
        entries = entries_for(good, step_actions=(f'web_search("{good.query}")',))
        bad_entries = entries_for(bad, step_actions=(f'web_search("{bad.query}")',))
        for entry in bad_entries:
            entry["reply"] = entry["reply"].replace("working on step 1", "working on \ud800 step 1")
        workspace._activate("script.jsonl", entries + bad_entries)
        out = workspace.root / "out"
        flag = "--dataset" if command == "learn" else "--claims"
        assert main([command, "--config", workspace.config, flag, str(two), "--out", str(out)]) == 0
        return out, good, bad

    def test_learn_writes_the_other_trajectory(self, workspace):
        def entries_for(claim, step_actions):
            return episode_entries(claim, step_actions=step_actions, values=(0.1, 0.2, 0.6))

        out, good, bad = self._run(workspace, "learn", entries_for)
        assert [t.claim_id for t in load_trajectories(out / "trajectories.jsonl")] == [good.id]
        failures = [json.loads(l) for l in (out / "failures.jsonl").read_text().splitlines()]
        assert [f["claim_id"] for f in failures] == [bad.id]

    def test_detect_writes_the_other_verdict(self, workspace):
        out, good, _ = self._run(workspace, "detect", detection_entries)
        assert [json.loads(l)["claim_id"] for l in out.read_text().splitlines()] == [good.id]


class TestNothingCompleted:
    """A batch in which every claim failed writes its artifacts, then exits 2."""

    def _run(self, workspace, capsys, command, out):
        two = workspace.root / "two.jsonl"
        write_claims(two, workspace.claims[:2])
        entries = []
        for claim in workspace.claims[2:]:  # no script for either claim in the batch
            entries.extend(detection_entries(claim, score=0.4, verdict="Hallucination"))
        workspace._activate("script.jsonl", entries)
        flag = "--dataset" if command == "learn" else "--claims"
        code = main([command, "--config", workspace.config, flag, str(two), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: no claim completed (2 failed)"

    def test_learn(self, workspace, capsys):
        out = workspace.root / "run1"
        self._run(workspace, capsys, "learn", out)
        assert load_trajectories(out / "trajectories.jsonl") == []
        assert len((out / "failures.jsonl").read_text().splitlines()) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["counts"]["completed"], manifest["counts"]["failed"]) == (0, 2)

    def test_detect(self, workspace, capsys):
        out = workspace.root / "verdicts.jsonl"
        self._run(workspace, capsys, "detect", out)
        assert out.read_text() == ""


class TestToolCommand:
    def test_calculator_prints_tool_result_json(self, workspace, capsys):
        workspace.use_detect_script()
        code = main(["tool", "calculator", "2+2"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["observation_text"] == "4"
        assert record["success"] is True
        assert "latency_ms" in record

    def test_word_count_accepts_integer_args(self, workspace, capsys):
        workspace.use_detect_script()
        code = main(["tool", "word_count", "3", "one two three"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["observation_text"] == "count=3, meets=true"


    @pytest.mark.parametrize(
        "args,observation",
        [
            (["calculator", "42"], "42"),
            (["split_text", "2024"], '["2024"]'),
            (["web_search", "2024"], "SEARCH_ERROR: no fixture"),
            (["get_answer", "Hallucination", "12"], "Hallucination | 12"),
            (["word_count", "x", "a b"], "TOOL_ERROR: word_count argument 0 (length) must be an integer"),
        ],
    )
    def test_arguments_are_integers_only_where_the_signature_says(
        self, workspace, capsys, args, observation
    ):
        workspace.use_detect_script()
        assert main(["tool", *args, "--config", workspace.config]) == 0
        assert json.loads(capsys.readouterr().out)["observation_text"] == observation

    def test_calculator_prints_a_fraction(self, workspace, capsys):
        workspace.use_detect_script()
        assert main(["tool", "calculator", "7/2"]) == 0
        assert json.loads(capsys.readouterr().out)["observation_text"] == "3.5"


class TestHttpFromConfig:
    """With LEAP_BACKEND unset, the config's endpoints are the ones called."""

    def _config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_chat_uses_the_key_named_by_api_key_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LEAP_BACKEND", raising=False)
        monkeypatch.setenv("LEAP_TEST_KEY", "s3cret")
        reply = {"choices": [{"message": {"role": "assistant", "content": "yes"}}]}
        with stub_http_server([(200, reply)]) as (url, record):
            config = self._config(tmp_path, {
                "backend": {"base_url": url, "api_key_env": "LEAP_TEST_KEY"},
                "tools": {"match_mode": "llm"},
            })
            code = main(["tool", "match", "the sky is blue", "sky: blue", "--config", config])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["observation_text"] == "true"
        [sent] = record["requests"]
        assert (sent["path"], sent["auth"]) == ("/chat/completions", "Bearer s3cret")
        assert "the sky is blue" in json.loads(sent["body"])["messages"][0]["content"]

    def test_search_reads_the_configured_field_names(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LEAP_BACKEND", raising=False)
        hits = {"hits": [{"name": "Paris", "body": "capital of France"}, {"name": "Lyon"}]}
        with stub_http_server([(200, hits)]) as (url, record):
            config = self._config(tmp_path, {"tools": {"search_provider": {
                "kind": "http", "url": f"{url}/find", "query_param": "text",
                "results_field": "hits", "title_field": "name", "snippet_field": "body",
            }}})
            code = main(["tool", "web_search", "capital of France", "--config", config])
        assert code == 0
        observation = json.loads(capsys.readouterr().out)["observation_text"]
        assert observation == "[1] Paris — capital of France\n[2] Lyon — "
        assert [r["path"] for r in record["requests"]] == ["/find?text=capital+of+France"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        code = main(["learn", "--nonsense"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_unreadable_template_is_runtime_error(self, workspace, capsys):
        prompts = workspace.root / "prompts"
        shutil.copytree(resources.files("leap") / "templates", prompts)
        (prompts / "actor.txt").unlink()
        (prompts / "actor.txt").mkdir()
        config = json.loads(Path(workspace.config).read_text())
        config["paths"]["prompts_dir"] = str(prompts)
        Path(workspace.config).write_text(json.dumps(config))
        workspace.use_detect_script()
        assert main(["tool", "calculator", "1", "--config", workspace.config]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read template actor.txt: ")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["learn", "--help"]) == 0

    def test_missing_config_is_validation_error(self, workspace, capsys):
        workspace.use_learn_script()
        code = main(
            ["learn", "--config", str(workspace.root / "absent.json"),
             "--dataset", str(workspace.claims_path), "--out", str(workspace.root / "o")]
        )
        assert code == 1

    def test_bad_dataset_format_is_validation_error(self, workspace, tmp_path):
        workspace.use_detect_script()
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"query": "q", "response": "r", "label": "yes"}\n')
        code = main(
            ["detect", "--config", workspace.config, "--claims", str(bad),
             "--claims-format", "generic_pairs", "--out", str(tmp_path / "v.jsonl")]
        )
        assert code == 1

    def test_malformed_native_dataset_is_validation_error(self, workspace, tmp_path):
        workspace.use_detect_script()
        bad = tmp_path / "bad-native.jsonl"
        bad.write_text('{"id": "a", "query": "q"}\n')
        code = main(
            ["detect", "--config", workspace.config, "--claims", str(bad),
             "--out", str(tmp_path / "v.jsonl")]
        )
        assert code == 1

    def test_unknown_backend_override_is_validation_error(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv("LEAP_BACKEND", "bogus")
        assert main(["tool", "calculator", "1", "--config", workspace.config]) == 1
        assert capsys.readouterr().err == "error: unsupported LEAP_BACKEND value: 'bogus'\n"

    def test_missing_fixture_file_is_runtime_error(self, workspace, monkeypatch, tmp_path):
        monkeypatch.setenv("LEAP_BACKEND", f"scripted:{tmp_path / 'absent.jsonl'}")
        code = main(
            ["detect", "--config", workspace.config, "--claims", str(workspace.claims_path),
             "--out", str(tmp_path / "v.jsonl")]
        )
        assert code == 2

    def test_dataset_that_is_not_utf8_is_validation_error(self, workspace, tmp_path, capsys):
        workspace.use_detect_script()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(workspace.claims_path.read_bytes() + b'{"id": "\xff"}\n')
        code = main(["eval", "--config", workspace.config, "--dataset", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: line {workspace.n_claims + 1}: not UTF-8\n"

    def test_store_that_is_not_utf8_is_reported(self, workspace, capsys):
        workspace.use_learn_script()
        memory = workspace.root / "memory"
        memory.mkdir()
        (memory / "reflections.jsonl").write_bytes(b"\xff\n")
        code = main(
            ["learn", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--out", str(workspace.root / "o")]
        )
        assert code == 2  # a corrupt store is a runtime failure, as for any store error
        assert capsys.readouterr().err == "error: line 1: not UTF-8\n"

    def test_store_dim_that_differs_from_the_embedder_is_reported(self, workspace, capsys):
        workspace.use_learn_script()
        Memories.fresh(dim=4).persist(workspace.root / "memory")
        code = main(
            ["learn", "--config", workspace.config, "--dataset", str(workspace.claims_path),
             "--out", str(workspace.root / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: reflections.jsonl has dim 4, the embedder has dim 16\n"
        assert not (workspace.root / "o").exists()  # no claim ran

    def test_unlabeled_eval_dataset_is_validation_error(self, workspace, tmp_path):
        workspace.use_detect_script()
        unlabeled = tmp_path / "unlabeled.jsonl"
        write_claims(unlabeled, [make_claim(0, gold=None)])
        code = main(["eval", "--config", workspace.config, "--dataset", str(unlabeled)])
        assert code == 1
