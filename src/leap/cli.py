"""Command-line entry point: learn, detect, export-sft, eval, and tool.

Exit codes: 0 success, 1 validation problem (flags, config, dataset format),
2 runtime failure, an interrupted run, or a learn or detect batch in which no
claim completed. Diagnostics go to stderr; data goes to files or stdout.
Setting LEAP_BACKEND=scripted:<fixture-path> forces the scripted chat
provider and the deterministic embedder for any subcommand, which makes every
workflow runnable offline.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .backend import HashingEmbedder, HttpBackend, ScriptedProvider
from .config import Config, config_hash, default_config, load_config
from .core import TOOL_BY_NAME, Action, load_trajectories, write_record_lines
from .errors import ConfigError, DatasetFormatError, LeapError
from .evaluation import (
    DATASET_FORMATS,
    PerClaim,
    build_report,
    load_dataset,
    render_report,
    sample_split,
)
from .loops import Runtime, curate, export_sft
from .memory import Memories
from .prompts import load_templates
from .tools import SIGNATURES, FixtureSearch, HttpSearch, Toolbox

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # Flag/usage mistakes are validation errors (exit 1), not argparse's 2.
    def error(self, message: str):
        raise _UsageError(message, self.format_usage())


def build_parser() -> _Parser:
    parser = _Parser(prog="leap", description="Tool-augmented hallucination detection runtime.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    learn = sub.add_parser("learn", help="run the dynamic strategy-learning loop")
    learn.add_argument("--config", required=True)
    learn.add_argument("--dataset", required=True)
    learn.add_argument("--dataset-format", choices=DATASET_FORMATS, default="native")
    learn.add_argument("--out", required=True, help="output directory for run artifacts")
    learn.add_argument("--strict", action="store_true", help="fail the run on the first bad episode")
    learn.set_defaults(func=cmd_learn)

    detect = sub.add_parser("detect", help="detect hallucinations with proactive correction")
    detect.add_argument("--config", required=True)
    detect.add_argument("--claims", required=True)
    detect.add_argument("--claims-format", choices=DATASET_FORMATS, default="native")
    detect.add_argument("--out", required=True, help="verdict record file to write")
    detect.add_argument(
        "--online-memory", action="store_true", help="keep correction reflections for later claims"
    )
    detect.set_defaults(func=cmd_detect)

    export = sub.add_parser("export-sft", help="curate trajectories into an SFT training file")
    export.add_argument("--trajectories", required=True)
    export.add_argument("--claims", required=True)
    export.add_argument("--claims-format", choices=DATASET_FORMATS, default="native")
    export.add_argument("--out", required=True)
    export.set_defaults(func=cmd_export_sft)

    evaluate = sub.add_parser("eval", help="benchmark detection on a labeled dataset")
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--format", choices=DATASET_FORMATS, default="native")
    evaluate.add_argument("--n", type=int, default=None, help="test-split size (default: all)")
    evaluate.add_argument("--seed", type=int, default=None, help="split seed (default: config seed)")
    evaluate.add_argument("--out", default=None, help="report file (default: stdout)")
    evaluate.add_argument("--report-format", choices=("text_table", "machine"), default="text_table")
    evaluate.set_defaults(func=cmd_eval)

    tool = sub.add_parser("tool", help="invoke a single tool for debugging")
    tool.add_argument("name", choices=sorted(TOOL_BY_NAME))
    tool.add_argument("args", nargs="*")
    tool.add_argument("--config", default=None)
    tool.set_defaults(func=cmd_tool)

    return parser


def _build_backend(config: Config):
    override = os.environ.get("LEAP_BACKEND")
    if override:
        kind, _, rest = override.partition(":")
        if kind != "scripted" or not rest:
            raise ConfigError(f"unsupported LEAP_BACKEND value: {override!r}")
        chat = ScriptedProvider.from_file(rest)
        embedder = HashingEmbedder(config.backend.embed_dim, seed=config.learning.seed)
        return chat, embedder
    http = HttpBackend(
        base_url=config.backend.base_url,
        model=config.backend.model,
        embed_model=config.backend.embed_model,
        embed_dim=config.backend.embed_dim,
        api_key=os.environ.get(config.backend.api_key_env),
    )
    return http, http


def _build_toolbox(config: Config, chat, embedder, templates) -> Toolbox:
    search, p = None, config.tools.search_provider
    if p is not None and p.kind == "fixture":
        search = FixtureSearch.from_file(p.path)
    elif p is not None:
        search = HttpSearch(p.url, p.query_param, p.results_field, p.title_field, p.snippet_field)
    return Toolbox(
        search=search,
        embedder=embedder,
        chat=chat,
        match_template=templates["match"],
        search_k=config.tools.search_k,
        match_threshold=config.tools.match_threshold,
        match_mode=config.tools.match_mode,
        code_executor=list(config.tools.code_executor),
        code_timeout_ms=config.tools.code_timeout_ms,
        code_parallelism=config.tools.code_parallelism,
    )


def _build_runtime(config: Config) -> Runtime:
    templates = load_templates(config.paths.prompts_dir)
    chat, embedder = _build_backend(config)
    toolbox = _build_toolbox(config, chat, embedder, templates)
    return Runtime(
        chat=chat,
        embedder=embedder,
        toolbox=toolbox,
        templates=templates,
        config=config.learning,
        theta_corr=config.correction.theta_corr,
        decoding=config.decoding,
    )


def _load_memories(config: Config) -> Memories:
    return Memories.load_or_fresh(
        config.paths.memory_dir, config.backend.embed_dim, config.learning.memory_cap
    )


def _batch_status(completed: int, failed: int) -> int:
    """Exit status of a batch whose artifacts are written: 2 if no claim completed."""
    if completed == 0 and failed > 0:
        sys.stderr.write(f"error: no claim completed ({failed} failed)\n")
        return 2
    return 0


def cmd_learn(args) -> int:
    config = load_config(args.config)
    claims = load_dataset(args.dataset, args.dataset_format)
    memories = _load_memories(config)
    runtime = _build_runtime(config)
    report = runtime.run_learning(
        claims, memories, args.out, strict=args.strict, config_hash=config_hash(config)
    )
    memories.persist(config.paths.memory_dir)
    logger.info(
        "learning run: %d completed, %d failed, %d reflected",
        report.completed,
        report.failed,
        report.reflected,
    )
    return _batch_status(report.completed, report.failed)


def cmd_detect(args) -> int:
    config = load_config(args.config)
    claims = load_dataset(args.claims, args.claims_format)
    memories = _load_memories(config)
    runtime = _build_runtime(config)
    results, failures = runtime.run_detection(
        claims, memories, out_path=args.out, online_memory=args.online_memory
    )
    if args.online_memory:
        memories.persist(config.paths.memory_dir)
    logger.info("detection: %d verdicts, %d failures", len(results), len(failures))
    return _batch_status(len(results), len(failures))


def cmd_export_sft(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    claims = load_dataset(args.claims, args.claims_format)
    dataset = curate(trajectories, {c.id: c for c in claims})
    count = export_sft(dataset, args.out)
    print(count)
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    claims = load_dataset(args.dataset, args.format)
    unlabeled = [c.id for c in claims if c.gold_label is None]
    if unlabeled:
        raise DatasetFormatError(f"evaluation needs gold labels; missing for {unlabeled[:5]}")
    if args.n is not None:
        seed = args.seed if args.seed is not None else config.learning.seed
        claims = sample_split(claims, args.n, seed)
    memories = _load_memories(config)
    runtime = _build_runtime(config)
    results, failures = runtime.run_detection(claims, memories, out_path=None)
    by_id = {c.id: c for c in claims}
    per_claim = [
        PerClaim(
            id=r.claim_id,
            gold=by_id[r.claim_id].gold_label,
            predicted=r.verdict.label,
            n_steps=len(r.trajectory.steps),
            corrected=r.corrected,
        )
        for r in results
    ]
    report = build_report(Path(args.dataset).stem, per_claim, [cid for cid, _ in failures])
    text = render_report(report, args.report_format)
    if args.out:
        # Either format ends in exactly one newline on disk.
        write_record_lines(args.out, [text.removesuffix("\n")])
    else:
        sys.stdout.write(text)
    return 0


def cmd_tool(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    templates = load_templates(config.paths.prompts_dir)
    chat, embedder = _build_backend(config)
    toolbox = _build_toolbox(config, chat, embedder, templates)
    tool = TOOL_BY_NAME[args.name]
    # An argument is an integer only where the tool's signature takes one.
    kinds = [kind for _, kind in SIGNATURES[tool].params] + ["str"] * len(args.args)
    converted = [
        int(a) if k == "int" and re.fullmatch(r"-?\d+", a) else a for a, k in zip(args.args, kinds)
    ]
    action = Action(tool=tool, args=tuple(converted))
    result = toolbox.dispatch(action)
    print(json.dumps(asdict(result)))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ConfigError, DatasetFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except LeapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
