"""Benchmark of the leap runtime: learning and detection, end to end and per layer.

Drives the unmodified library in-process through its public entry points
(``evaluation.load_dataset``, ``Memories.load``/``persist``,
``Runtime.run_learning``, ``Runtime.run_detection``) on inputs generated from
a seed, checks every output, and prints each metric with its unit and sample
count. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload learn-fresh64 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seeds

A run repeats one fixed batch of claims until the batch calls have taken
``--seconds`` seconds, setting everything up afresh each time. Repetitions of
one seed must write byte-identical artifacts. With ``--trace 1``,
repetitions alternate between untraced and traced, and the run reports the
per-layer figures of the traced ones and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from scenario import (  # noqa: E402
    CONFIRM_SEED, DEFAULT_SEED, EMBED_SEED, GAMMA, LAM, THETA_CORR, WORKLOADS, Workload,
)

MIN_REPS = 3
REPEAT_MIN_S = 0.1
# Stop repeating once another repetition could push the run past this.
WALL_LIMIT_S = 140.0


@dataclass
class Rep:
    traced: bool
    setup_s: list[float]
    load_s: float
    batch_s: float
    persist_s: list[float]
    claim_s: list[float]
    attempted: int
    bad: set[str]
    messages: list[str]
    hashes: dict[str, str]


def _timed(fn, sink: list[float]):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    return timed


def _setup(w: Workload, inputs: Path, chat):
    """The program's set-up for one batch; returns its objects and the load time."""
    from leap.backend import HashingEmbedder
    from leap.evaluation import load_dataset
    from leap.loops import LearningConfig, Runtime
    from leap.memory import Memories
    from leap.prompts import load_templates
    from leap.tools import FixtureSearch, Toolbox

    import standin

    claims = load_dataset(inputs / "claims.jsonl")
    started = time.perf_counter()
    if w.preload:
        memories = Memories.load(inputs / "stores")
    else:
        memories = Memories.load_or_fresh(inputs / "stores", w.dim, w.cap)
    load_s = time.perf_counter() - started
    templates = load_templates()
    embedder = HashingEmbedder(w.dim, seed=EMBED_SEED)
    if w.embed_latency_s:
        embedder = standin.Delayed(embedder, w.embed_latency_s)
    toolbox = Toolbox(
        search=FixtureSearch.from_file(inputs / "search.jsonl"),
        embedder=embedder,
        chat=chat,
        match_template=templates["match"],
        match_mode="embedding",
    )
    config = LearningConfig(gamma=GAMMA, lam=LAM, memory_cap=w.cap, seed=0, concurrency=w.concurrency)
    runtime = Runtime(chat=chat, embedder=embedder, toolbox=toolbox, templates=templates,
                      config=config, theta_corr=THETA_CORR)
    return claims, memories, runtime, embedder, load_s


def _repeat(fn, min_s: float) -> tuple[list[float], object]:
    """Call ``fn`` until the calls have taken ``min_s``; their times and the last result."""
    times: list[float] = []
    result = None
    while not times or sum(times) < min_s:
        result = None  # so that two results (say, two loaded stores) never coexist
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def run_rep(w: Workload, inputs: Path, rep_dir: Path, scripts, truth, tracer) -> Rep:
    import checks
    import standin
    import tracing

    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    chat = standin.ClaimRouter(scripts)
    if w.chat_latency_s:
        chat = standin.Delayed(chat, w.chat_latency_s)
    # Set-up and persist are timed over many calls when one call is short.
    setup_s, (claims, memories, runtime, embedder, load_s) = _repeat(
        lambda: _setup(w, inputs, chat), REPEAT_MIN_S)

    before = checks.sizes(memories)
    if tracer is not None:
        tracing.instrument(tracer, runtime, memories, chat, embedder, w.mode)
    claim_s: list[float] = []
    stored = rep_dir / "stores"
    if w.mode == "learn":
        runtime.run_learning_episode = _timed(runtime.run_learning_episode, claim_s)
        start = time.perf_counter()
        runtime.run_learning(claims, memories, rep_dir)
        batch_s = time.perf_counter() - start
        persist_s, _ = _repeat(lambda: memories.persist(stored), REPEAT_MIN_S)
        bad, messages = checks.check_learning(truth, rep_dir, memories, before, w.cap)
        artifacts = [rep_dir / "trajectories.jsonl"]
    else:
        runtime.detect = _timed(runtime.detect, claim_s)
        start = time.perf_counter()
        results, _ = runtime.run_detection(claims, memories, out_path=rep_dir / "verdicts.jsonl")
        batch_s = time.perf_counter() - start
        # Detection leaves the stores alone; persisting them once the batch
        # ends times the same layer as learning does, and must reproduce the
        # input files byte for byte.
        persist_s, _ = _repeat(lambda: memories.persist(stored), REPEAT_MIN_S)
        bad, messages = checks.check_detection(truth, results, memories, before)
        artifacts = [rep_dir / "verdicts.jsonl"]
        given = checks.sha256_files(sorted((inputs / "stores").iterdir()))
        if checks.sha256_files(sorted(stored.iterdir())) != given:
            bad.update(t["id"] for t in truth)
            messages.append("persisted stores differ from the stores loaded")
    hashes = checks.sha256_files(artifacts + sorted(stored.iterdir()))
    if len(claim_s) != len(claims):
        bad.update(t["id"] for t in truth)
        messages.append(f"{len(claim_s)} claims timed, {len(claims)} in the batch")
    return Rep(tracer is not None, setup_s, load_s, batch_s, persist_s, claim_s,
               len(claims), bad, messages, hashes)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metadata(w: Workload, seed: int, args, reps: list[Rep], truncated: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "leap").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    import numpy

    return {
        "workload": w.name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": len(reps),
        "traced_reps": sum(r.traced for r in reps),
        "claims_per_batch": w.batch,
        "truncated": truncated,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "artifact_sha256": reps[0].hashes,
    }


def run_workload(w: Workload, seed: int, args) -> int:
    if not (SRC / "leap" / "__init__.py").is_file():
        print(f"error: no leap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import the whole library now, so that no set-up time counts imports.
    import leap.evaluation, leap.loops, leap.memory, leap.prompts, leap.tools  # noqa: E401, F401

    import standin

    work = WORK / f"{w.name}-s{seed}-t{args.trace}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "scenario.py"), "--workload", w.name, "--seed", str(seed),
             "--out", str(inputs), "--src", str(SRC)],
            check=True, timeout=150,
        )
        scripts = standin.load_claim_scripts(inputs / "script.jsonl")
        truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))["claims"]
        return _measure(w, seed, args, work, inputs, scripts, truth)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _rate(reps: list[Rep]) -> float:
    return sum(r.attempted for r in reps) / sum(r.batch_s for r in reps)


def _end_to_end(reps: list[Rep], peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    setups = [t for r in reps for t in r.setup_s]
    claim_s = [t for r in reps for t in r.claim_s]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "claims_per_s": (_rate(reps), "1/s", sum(r.attempted for r in reps)),
        "claim_p50_ms": (statistics.median(claim_s) * 1e3, "ms", len(claim_s)),
        "claim_p90_ms": (_percentile(claim_s, 90) * 1e3, "ms", len(claim_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def _per_layer(reps: list[Rep], tracer) -> dict[str, tuple[float, str, int]]:
    import tracing

    metrics = tracing.layer_metrics(tracer.spans)
    persists = [t for r in reps for t in r.persist_s]
    metrics["memory.load_ms"] = (statistics.median(r.load_s for r in reps) * 1e3, "ms", len(reps))
    metrics["memory.persist_ms"] = (statistics.median(persists) * 1e3, "ms", len(persists))
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    metrics["trace.overhead_pct"] = ((_rate(plain) / _rate(traced) - 1.0) * 100.0, "%", len(reps))
    return metrics


def _measure(w: Workload, seed: int, args, work: Path, inputs: Path, scripts, truth) -> int:
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    reps: list[Rep] = []
    truncated = False
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(w, inputs, work / "rep", scripts, truth, tracer if traced else None))
        gc.collect()  # the wrappers form cycles with the objects they wrap
        measured = sum(r.batch_s for r in reps)
        # An untraced run takes the median of at least MIN_REPS set-ups; a
        # traced one needs at least one repetition of each kind.
        enough = len(reps) >= (2 if args.trace else MIN_REPS)
        if measured >= args.seconds and enough:
            break
        elapsed = time.perf_counter() - started
        if elapsed + max(sum(r.setup_s) + r.batch_s + sum(r.persist_s) for r in reps) * 1.5 > WALL_LIMIT_S:
            truncated = True
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad: set[tuple[int, str]] = set()
    messages: list[str] = []
    for i, rep in enumerate(reps):
        bad.update((i, cid) for cid in rep.bad)
        messages += [f"rep {i}: {m}" for m in rep.messages]
        if rep.hashes != reps[0].hashes:
            bad.update((i, t["id"]) for t in truth)
            messages.append(f"rep {i}: artifacts differ from rep 0: {rep.hashes} vs {reps[0].hashes}")
    attempted = sum(r.attempted for r in reps)
    if args.trace:
        metrics = _per_layer(reps, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{w.name}-s{seed}-spans.jsonl.gz")
    else:
        metrics = _end_to_end(reps, peak_rss_mb)
    # Printed and recorded, but not part of the JSON line: failures already
    # are (as "failed"), and persist time is too unsteady here to gate on.
    extra = {"failed_ratio": (len(bad) / attempted, "ratio", attempted)}
    if w.mode == "learn" and not args.trace:
        persists = [t for r in reps for t in r.persist_s]
        extra["persist_s"] = (statistics.median(persists), "s", len(persists))

    meta = _metadata(w, seed, args, reps, truncated)
    for message in messages[:20]:
        print(f"CHECK FAILED {message}")
    print(f"# {w.name} seed={seed} reps={len(reps)} claims={attempted} src_lines={meta['src_lines']} "
          f"commit={meta['git_commit']} nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{w.name:14s} {name:42s} {value:14.4f} {unit:6s} n={n}")
    for name, digest in meta["artifact_sha256"].items():
        print(f"{w.name:14s} sha256 {name:35s} {digest}")

    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = {
        **result,
        "extra": {name: {"value": value, "unit": unit} for name, (value, unit, _) in extra.items()},
        "samples": {name: n for name, (_, _, n) in {**metrics, **extra}.items()},
        "metadata": meta,
        "check_failures": messages,
        "reps": [{"traced": r.traced, "setup_s": r.setup_s, "load_s": r.load_s, "batch_s": r.batch_s,
                  "persist_s": r.persist_s, "claim_s": r.claim_s} for r in reps],
    }
    (OUT / f"{w.name}-s{seed}-t{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not bad else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(DEFAULT_SEED if args.seed is None else args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = status or 2
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=15.0, help="batch time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return run_workload(WORKLOADS[args.workload], seed, args)


if __name__ == "__main__":
    sys.exit(main())
