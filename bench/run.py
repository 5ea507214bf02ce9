"""qdes benchmark: exact decisions, horizon sweeps and the CLI size ladder.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact|sweep|ladder --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each workload is a closed loop: one caller, one operation in flight.  A
run sets up (several times; the median is ``setup_s``), then repeats
whole passes over the workload's operations until ``--seconds`` have
passed and enough samples exist for the tail percentile.  Every
operation's output is checked.  With ``--trace 1`` the run instead
times one untraced and one traced pass and then probes every layer on
its own; see README.md.  The last line of standard output is the result
object; the lines before it are the report.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and every CLI child, set before
# numpy loads: on a small shared machine a second BLAS thread made the
# exact decisions spread by more than 10% from run to run.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans
import workloads
from common import (
    ProgramMissing,
    Tally,
    environment,
    import_program,
    latency_summary,
    min_samples,
    peak_rss_mb,
    run_cli,
)

SETUP_REPEATS = 5

#: Tail percentile of each workload: the highest one with at least ten
#: samples beyond it in 200, 40 and 40 samples.  It stays fixed, so a
#: faster program that fits more samples into a run is compared at the
#: same rank.
TAIL_PCT = {"exact": 95.0, "sweep": 75.0, "ladder": 75.0}

#: Samples a timed run collects at least: enough for the tail, and on
#: sweep six passes, whose interpreter-bound operations drift with the
#: machine's load over tens of seconds.
MIN_SAMPLES = {"exact": min_samples(TAIL_PCT["exact"]), "sweep": 100, "ladder": min_samples(TAIL_PCT["ladder"])}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setup(setup):
    """Run the set-up SETUP_REPEATS times; return the last state and the median time."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times), times


# --------------------------------------------------------------------------
# in-process workloads (exact, sweep)


def run_passes(ops, tally: Tally, seconds: float, min_count: int, max_passes: int | None, tracer=None):
    """Closed loop over whole passes; returns per-op latencies, wall time and pass count."""
    latencies: list[float] = []
    passes = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            with tracer.span(f"bench.{op.kind}") if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result, problem = op.run(), None
                except Exception as exc:  # the operation failed; count it and go on
                    result, problem = None, f"{type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
            if problem is None:
                problem = op.check(result)
            tally.record(op.label, problem)
        passes += 1
        elapsed = time.perf_counter() - start
        if max_passes is not None and passes >= max_passes:
            break
        if elapsed >= seconds and len(latencies) >= min_count:
            break
    return latencies, elapsed, passes


def capacity(ops, tally: Tally) -> tuple[int, int]:
    """Instances whose every operation gave the expected answer, and the
    largest compiled n among them."""
    failed = {f.split(": ", 1)[0] for f in tally.failures}
    decided = [op.n for op in ops if op.n is not None and op.label not in failed]
    return len(decided), max(decided, default=0)


def inprocess(name: str, q, args, work: Path, report: dict):
    setup = {"exact": lambda: workloads.setup_exact(q, args.seed),
             "sweep": lambda: workloads.setup_sweep(q, args.seed)}[name]
    state, setup_s, setup_times = timed_setup(setup)
    ops = {"exact": workloads.ops_exact, "sweep": workloads.ops_sweep}[name](q, state)
    report["setup_s_samples"] = setup_times
    report["ops_per_pass"] = len(ops)
    tally = Tally()

    if args.trace:
        return traced_inprocess(name, q, args, work, ops, tally, report)

    latencies, elapsed, passes = run_passes(ops, tally, args.seconds, MIN_SAMPLES[name], args.passes)
    summary = latency_summary(latencies, TAIL_PCT[name])
    decided, max_n = capacity(ops, tally)
    report.update(passes=passes, wall_s=elapsed, latency=summary, by_kind=_by_kind(ops, latencies))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(latencies) / elapsed, "1/s"),
        "p50_s": metric(summary["p50_s"], "s"),
        "tail_s": metric(summary["tail_s"], "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "rungs_decided": metric(decided, "count"),
        "max_n_decided": metric(max_n, "count"),
    }
    return tally, metrics


def _by_kind(ops, latencies) -> dict:
    kinds: dict[str, list[float]] = {}
    for i, t in enumerate(latencies):
        kinds.setdefault(ops[i % len(ops)].kind, []).append(t)
    return {k: {"count": len(v), "median_s": statistics.median(v), "max_s": max(v)} for k, v in kinds.items()}


def traced_inprocess(name, q, args, work, ops, tally, report):
    _, untraced_s, _ = run_passes(ops, tally, 0.0, 0, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced_s, _ = run_passes(ops, tally, 0.0, 0, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    roots = [i for i, r in enumerate(tracer.spans) if r[3] == -1]
    shares = _layer_shares(tracer.self_times(roots), sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots))
    if name == "exact":
        holds = [i for i in roots if tracer.spans[i][0] == "bench.hold"]
        top = sorted(tracer.self_times(holds).items(), key=lambda kv: -kv[1])
        report["holding_decision_self_s"] = dict(top[:8])
        report["holding_decision_largest_self"] = top[0][0] if top else None
    report["absent_wrapped_names"] = tracer.absent
    report["spans_file"] = _dump(tracer, args)
    report["pass_s"] = {"untraced": untraced_s, "traced": traced_s}

    rung_decisions = {}
    for name_, info in workloads.setup_ladder(q, args.seed, work).items():
        call = workloads.cli_calls(info)[0]
        res = run_cli(args.root, work, call[1])
        rung_decisions[name_] = (_outcome(res, call[2]), res.seconds, res.rss_mb)
    metrics = layers.run_probe(q, args.root, work, args.seed, tally, rung_decisions)
    metrics.update(shares)
    metrics["trace.overhead_pct"] = metric((traced_s / untraced_s - 1.0) * 100.0, "%")
    return tally, metrics


def _layer_shares(self_times: dict, total: float) -> dict:

    layer = spans.by_layer(self_times)
    return {f"self_share.{name}": metric(100.0 * layer.get(name, 0.0) / total if total > 0 else 0.0, "%")
            for name in spans.LAYERS}


def _dump(tracer, args) -> str:
    out = args.root / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(path)
    return str(path.relative_to(args.root))


# --------------------------------------------------------------------------
# ladder


def _outcome(res, check) -> str:
    if res.outcome != "document":
        return res.outcome
    if "error" in res.doc:
        return "refused"
    return "decided" if check(res.doc) is None else "wrong-verdict"


def ladder_passes(rungs: dict, args, work: Path, tally: Tally, seconds: float, min_count: int,
                  max_passes: int | None, trace_dir: Path | None = None):
    """First pass: every rung.  Later passes: the base rungs only."""
    base_latencies: list[float] = []
    base_rss = 0.0
    outcomes: dict[str, dict] = {}
    trace_files: list[Path] = []
    passes = 0
    start = time.perf_counter()
    while True:
        for name, info in rungs.items():
            if passes > 0 and name not in workloads.BASE_RUNGS:
                continue
            base = name in workloads.BASE_RUNGS
            for kind, cli_args, check in workloads.cli_calls(info):
                trace_out = None
                if trace_dir is not None and base:
                    trace_out = trace_dir / f"{name}.{kind}.{passes}.jsonl"
                    trace_files.append(trace_out)
                res = run_cli(args.root, work, cli_args, trace_out)
                label = f"cli-{kind}:{name}"
                if kind == "decide":
                    outcome = _outcome(res, check)
                    if passes == 0:
                        outcomes[name] = {
                            "outcome": outcome, "seconds": res.seconds, "rss_mb": res.rss_mb,
                            "exit_code": res.exit_code, "n": info["n"], "stderr_tail": res.stderr_tail,
                            "dense_states_per_side": info["dense_states_per_side"],
                            "dense_gib_per_matrix": info["dense_gib_per_matrix"],
                        }
                    # A cap on a rung beyond the base set is the capacity
                    # being measured, not a wrong answer.
                    capacity = not base and outcome in ("refused", "memory-cap", "time-cap")
                    problem = None if outcome == "decided" or capacity else f"{outcome}: {res.stderr_tail or res.doc}"
                elif res.doc is None:
                    problem = f"{res.outcome}: {res.stderr_tail}"
                else:
                    problem = check(res.doc)
                tally.record(label, problem)
                if base:
                    base_latencies.append(res.seconds)
                    base_rss = max(base_rss, res.rss_mb)
        passes += 1
        elapsed = time.perf_counter() - start
        if max_passes is not None and passes >= max_passes:
            break
        if elapsed >= seconds and len(base_latencies) >= min_count:
            break
    return base_latencies, base_rss, outcomes, passes, elapsed, trace_files


def ladder(q, args, work: Path, report: dict):
    rungs, setup_s, setup_times = timed_setup(lambda: workloads.setup_ladder(q, args.seed, work))
    report["setup_s_samples"] = setup_times
    report["base_rungs"] = list(workloads.BASE_RUNGS)
    tally = Tally()
    if args.trace:
        return traced_ladder(q, args, work, rungs, tally, report)

    latencies, rss, outcomes, passes, elapsed, _ = ladder_passes(
        rungs, args, work, tally, args.seconds, MIN_SAMPLES["ladder"], args.passes)
    summary = latency_summary(latencies, TAIL_PCT["ladder"])
    decided = [o["n"] for o in outcomes.values() if o["outcome"] == "decided"]
    report.update(passes=passes, wall_s=elapsed, latency=summary, rungs=outcomes)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "p50_s": metric(summary["p50_s"], "s"),
        "tail_s": metric(summary["tail_s"], "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "rungs_decided": metric(len(decided), "count"),
        "max_n_decided": metric(max(decided, default=0), "count"),
    }
    return tally, metrics


def traced_ladder(q, args, work, rungs, tally, report):
    untraced, _, outcomes, _, _, _ = ladder_passes(rungs, args, work, tally, 0.0, 0, 1)
    trace_dir = work / "spans"
    trace_dir.mkdir()
    traced, _, _, _, _, files = ladder_passes(rungs, args, work, tally, 0.0, 0, 1, trace_dir=trace_dir)
    merged = spans.Tracer()
    for path in files:
        offset = len(merged.spans)
        for rec in spans.load_spans(path) if path.exists() else []:
            rec[3] = rec[3] + offset if rec[3] >= 0 else -1
            merged.spans.append(rec)
    report["absent_wrapped_names"] = spans.absent_names()
    report["spans_file"] = _dump(merged, args)
    report["pass_s"] = {"untraced_base_calls": sum(untraced), "traced_base_calls": sum(traced)}
    report["rungs"] = outcomes
    rung_decisions = {name: (o["outcome"], o["seconds"], o["rss_mb"]) for name, o in outcomes.items()}
    metrics = layers.run_probe(q, args.root, work, args.seed, tally, rung_decisions)
    metrics.update(_layer_shares(merged.self_times(), sum(traced)))
    metrics["trace.overhead_pct"] = metric((sum(traced) / sum(untraced) - 1.0) * 100.0, "%")
    return tally, metrics


# --------------------------------------------------------------------------


def run(args) -> int:
    try:
        q = import_program(args.root)
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    report = {"workload": args.workload, "trace": args.trace, "environment": environment(args.seed)}
    work = args.root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "ladder":
            tally, metrics = ladder(q, args, work, report)
        else:
            tally, metrics = inprocess(args.workload, q, args, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["attempted"] = tally.attempted
    report["failures"] = tally.failures
    print(json.dumps(report, indent=1, default=str))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def smoke(root: Path) -> int:
    """Run every workload for one pass and check the output against BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    plan = [(w["name"], 0) for w in spec["workloads"]] + [(spec["workloads"][0]["name"], 1)]
    problems = []
    for workload, trace in plan:
        cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--passes", "1"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
        took = time.perf_counter() - start
        where = f"{workload} trace={trace}"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            continue
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
            continue
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted[trace]:
            missing = sorted(set(wanted[trace]) - set(got))
            extra = sorted(set(got) - set(wanted[trace]))
            units = sorted(k for k in set(got) & set(wanted[trace]) if got[k] != wanted[trace][k])
            problems.append(f"{where}: missing {missing}, unexpected {extra}, unit mismatch {units}")
        bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool)]
        if bad:
            problems.append(f"{where}: non-numeric values {bad}")
        print(f"smoke {where}: {len(result['metrics'])} metrics, {result['attempted']} ops, {took:.1f}s", flush=True)
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("exact", "sweep", "ladder"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None, help="stop after this many passes (smoke runs)")
    parser.add_argument("--smoke", action="store_true", help="one pass of every workload, checked against BENCHMARK.json")
    args = parser.parse_args(argv)
    args.root = Path.cwd()
    if args.smoke:
        return smoke(args.root)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
