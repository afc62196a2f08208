"""gamegraphs benchmark: seeded CLI workloads, timed in-process.

    python3 perfbench/run.py --workload span11 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, as a table

Run from the repository root; the library is imported from ./src.  A run
builds the workload's job list from --seed (see workloads.py), then repeats
the list, one job at a time in this process, until --seconds have passed
(at least once).  Only the `cli.main(argv)` calls are timed; every output is
checked afterwards.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units come
from BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1, where untraced and traced passes alternate and the spans are
written to .perfbench_out/.

End-to-end metrics:
  setup_s      median of 7 set-ups (this process and 6 fresh ones): import
               gamegraphs, write the inputs, run one small job per verb
  wall_s       mean over passes of the summed job times of one pass (the
               machine's speed drifts within a pass, so every pass counts)
  job_p50_ms   median latency over every job run in the measured passes
  job_tail_ms  latency at the workload's TAIL_PERCENTILE (workloads.py), a
               percentile with >= 10 job runs above it
  peak_rss_mb  peak resident set of this process
Failures (non-zero exit, exception, failed check, output that changes
between passes) are counted per job run in "failed"; fail_frac =
failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gamegraphs.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gamegraphs from {src}: {exc}")
    if Path(gamegraphs.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: gamegraphs imported from {gamegraphs.__file__}, not {src}")
    return gamegraphs.cli


def call(cli, argv: list[str]) -> tuple[float, str]:
    """Time one cli.main call; returns (seconds, error text or '')."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash or usage exit is a failed job
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, "" if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"


def setup(workload: str, seed: int, workdir: Path):
    start = time.perf_counter()
    cli = import_cli()
    jobs = workloads.build(workload, seed, workdir)
    for argv in workloads.warmup_argvs(workload, workdir / "warmup"):
        _, error = call(cli, argv)
        if error:
            raise SystemExit(f"perfbench: warm-up {argv} failed: {error}")
    return time.perf_counter() - start, cli, jobs


def setup_probes(workload: str, seed: int, n: int) -> list[float]:
    """Set-up times of n fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().split("\n")[-1]))
    return out


class Runs:
    """Job latencies, failures and outputs, collected over passes."""

    def __init__(self, cli, jobs: list[workloads.Job]):
        self.cli = cli
        self.jobs = jobs
        self.latency: dict[str, list[float]] = {j.jid: [] for j in jobs}
        self.errors: dict[str, str] = {}
        self.output: dict[str, bytes] = {}
        self.failed = 0
        self.attempted = 0

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        total = 0.0
        for job in self.jobs:
            gc.collect()  # each job starts from a clean heap, as a fresh CLI process would
            if tracer is not None:
                tracer.job = job.jid
            elapsed, error = call(self.cli, job.argv)
            if tracer is not None:
                tracer.job = None
            total += elapsed
            self.attempted += 1
            self.latency[job.jid].append(elapsed)
            out = job.out.read_bytes() if job.out.exists() else b""
            if not error and self.output.setdefault(job.jid, out) != out:
                error = "output differs from the first pass"
            if error:
                self.failed += 1
                self.errors.setdefault(job.jid, error)
        return total

    def check_outputs(self) -> None:
        """Run each job's check once (outputs are equal across passes)."""
        for job in self.jobs:
            if job.jid in self.errors:
                continue
            try:
                job.check(self.output[job.jid].decode())
            except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
                self.errors[job.jid] = f"check: {type(exc).__name__}: {exc}"
                self.failed += len(self.latency[job.jid])

    def job_stats(self, q: float) -> tuple[float, float, int]:
        """Median and q-quantile latency over every job run, in ms, and the number of runs above it."""
        runs = sorted(t for v in self.latency.values() for t in v)
        rank = max(1, math.ceil(q * len(runs)))
        return statistics.median(runs) * 1e3, runs[rank - 1] * 1e3, len(runs) - rank


def until(seconds: float, step) -> None:
    start = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - start >= seconds:
            return


def end_to_end(runs: Runs, seconds: float, setups: list[float], tail_q: float) -> tuple[dict, str]:
    passes: list[float] = []
    until(seconds, lambda: passes.append(runs.one_pass()))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs.check_outputs()
    p50, tail, beyond = runs.job_stats(tail_q)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(passes),
        "job_p50_ms": p50,
        "job_tail_ms": tail,
        "peak_rss_mb": peak_mb,
    }
    note = (f"passes={len(passes)} jobs={len(runs.jobs)} job_runs={runs.attempted} "
            f"job_tail=p{round(tail_q * 100)} with {beyond} runs above pass_s={[round(t, 2) for t in passes]}")
    return values, note


def per_layer(runs: Runs, seconds: float, spans_path: Path) -> tuple[dict, str]:
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[tracing.Tracer] = []

    def step() -> None:
        plain.append(runs.one_pass())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(runs.one_pass(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    until(seconds, step)
    runs.check_outputs()
    per_pass = [tracing.layer_metrics(t.spans, t.notes) for t in tracers]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    tracing.write_spans(tracers, spans_path)
    return values, f"traced_passes={len(tracers)} spans={sum(len(t.spans) for t in tracers)} -> {spans_path}"


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name and unit."""
    ok = True
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode:
            print(f"{w}: exit {proc.returncode}: {proc.stderr.strip()}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().split("\n")[-1])
        ok &= res["correct"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"fail_frac={res['failed'] / res['attempted']:.3g}")
        for name, m in res["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time one set-up, print it and exit")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, cli, jobs = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_s)
            return 0
        runs = Runs(cli, jobs)
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values, note = per_layer(runs, args.seconds, spans_path)
        else:
            setups = [setup_s] + setup_probes(args.workload, args.seed, SETUP_SAMPLES - 1)
            values, note = end_to_end(runs, args.seconds, setups, workloads.TAIL_PERCENTILE[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for jid, error in runs.errors.items():
        print(f"# FAILED {jid}: {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} {note} fail_frac={runs.failed / runs.attempted:.3g}")
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
