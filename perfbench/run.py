#!/usr/bin/env python3
"""Benchmark of the stab2lin pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload stab-ladder --seed 0 --seconds 20 --trace 0

One client in one process runs jobs back to back (a closed loop), the way a
user runs a command and waits for its answer.  A job is one pass of the
pipeline validate -> standardize -> extract -> distance -> simulate ->
verify-phi on one input, through stab2lin's public functions, or one
``python -m stab2lin.cli ... --json`` child process.  Child processes run one
at a time, and OpenBLAS is held to one thread.

Workloads (inputs come from ``workloads.py``; the seed picks the instance):

- ``cli-corpus``: every CLI command over the bundled data, including the
  exit-1 and exit-2 paths.  Interpreter start and imports dominate, so it is
  the workload every kernel change bypasses.
- ``stab-ladder``: rotated surface codes d = 3, 4, 5 and seeded random codes
  with n = 8, 9.  quantum_distance (d = 5) and verify_phi (n = 9) dominate.
- ``channel-lowrate``: seeded (n, k ~ n/4) codes, n = 20..24, 1e5 Monte Carlo
  trials.  The exact 2^n channel sweep dominates.
- ``channel-highrate``: seeded (n, k ~ 0.7n) codes, n = 16..21, 1e4 trials.
  Monte Carlo over 2^k codewords per trial dominates.

With ``--trace 0`` it prints the end-to-end metrics:

- ``jobs_per_s``: slots per round divided by the sum, over the round's slots,
  of the median time that slot took in the window.  Every slot runs at least
  once; after the first round a job starts only while the window lasts.
- ``setup_s``: median of three fresh child processes that each start Python,
  import stab2lin, generate the inputs and run one warm-up job.
- ``ok_frac``: jobs whose answers match the recorded ones, over jobs
  attempted.  A job fails on an exception, a refusal, a wrong answer or an
  unexpected exit code.  (Reported as a success share because a metric must
  never read 0; ``failed`` in the result line is the failure count.)
- ``peak_rss_mb``: ru_maxrss of this process; for ``cli-corpus`` the largest
  over the CLI children.

With ``--trace 1`` it runs half the window untraced and half traced, wrapping
stab2lin's public functions from outside (see ``tracing.py``), and prints the
per-layer metrics.  Spans and an environment record are written to
``.perfbench_out/``; a per-layer table goes to standard error.

``--record`` regenerates ``answers/`` from the program in this checkout; do
that only at a commit whose answers are known to be right.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
KERNEL_REPEATS = 3
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help="rewrite the recorded answers")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    return args


@dataclass
class Window:
    """What one timed stretch of closed-loop jobs did."""

    durations: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0

    def jobs_per_s(self) -> float:
        """Slots per round over the sum of each slot's median time: steadier
        than a plain count when a window ends part way through a round."""
        return len(self.durations) / sum(statistics.median(d) for d in self.durations.values())

    def samples(self) -> list[float]:
        return [d for ds in self.durations.values() for d in ds]


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_job(wl, job, instance, recorded, workload, window, tracer=None, runner=None):
    """Run, time and check one job; failures are counted, never raised."""
    if tracer is not None:
        span = tracer.open_job(f"job.{job.slot}")
    t0 = time.perf_counter()
    try:
        answer = runner(job) if runner else job.run()
        error = None
    except Exception as exc:  # a failed job is a measured outcome
        answer, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span, raised=error is not None)
    if error is None:
        error = wl.check(workload, instance, job, answer, recorded)
    window.durations.setdefault(job.slot, []).append(elapsed)
    window.attempted += 1
    if error is not None:
        window.failed += 1
        if window.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {workload} instance {instance} {job.slot}: {error}", file=sys.stderr)


def run_window(wl, jobs, instance, recorded, workload, seconds, tracer=None) -> Window:
    """Closed loop over the round's slots, in a fixed order so that every run
    allocates in the same sequence.  The first round always completes; after
    it, a job starts only if its slot's last time still fits the window."""
    window = Window()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        if i >= len(jobs) and time.perf_counter() - start + window.durations[job.slot][-1] > seconds:
            break
        run_job(wl, job, instance, recorded, workload, window, tracer)
    window.wall = time.perf_counter() - start
    window.cpu = _cpu_seconds() - cpu0
    return window


def prepare(wl, workload: str, instance: int, work: Path):
    """Set-up as timed by setup_s: inputs, then one untimed warm-up job."""
    ctx = wl.Context(ROOT, work)
    wl.install_pass_through(ctx)
    jobs = wl.make_round(workload, instance, ctx)
    warm = next(j for j in jobs if j.slot == wl.WARMUP_SLOT[workload])
    try:
        warm.run()
    except Exception as exc:  # the same job fails, and is counted, when timed
        print(f"warm-up {warm.slot} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return ctx, jobs


def measure_setup(wl, ctx, workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
        t0 = time.perf_counter()
        code, _, err, _ = wl.run_child(argv, ROOT, wl.child_env(SRC), ctx.work)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}: {err}")
    return statistics.median(times)


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def environment() -> dict:
    from importlib import metadata

    import numpy
    import stab2lin

    backend = getattr(stab2lin, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "backend": backend() if callable(backend) else None,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def time_kernels(kernels, recorded: dict) -> tuple[dict, int]:
    """Median seconds per kernel input, and how many gave a wrong answer.  A
    kernel that is gone, or no longer takes these arguments, reads 0."""
    import numpy as np

    try:
        from stab2lin import _kernels
    except ImportError:
        _kernels = None

    seconds, wrong = {}, 0
    for name, make_args in kernels.KERNEL_INPUTS.items():
        fn = getattr(_kernels, name, None)
        runs = []
        try:
            args = make_args()
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                result = fn(*args)
                runs.append(time.perf_counter() - t0)
        except Exception as exc:  # absent or refactored: report, keep going
            print(f"kernel {name}: absent ({type(exc).__name__}: {exc})", file=sys.stderr)
            seconds[name] = 0.0
            continue
        seconds[name] = statistics.median(runs)
        got = np.asarray(result).tolist()
        if got != recorded.get(name):
            wrong += 1
            print(f"FAILED kernel {name}: expected {recorded.get(name)!r}, got {got!r}", file=sys.stderr)
    return seconds, wrong


def end_to_end(wl, args, ctx, jobs, instance, recorded):
    setup_s = measure_setup(wl, ctx, args.workload, args.seed)
    window = run_window(wl, jobs, instance, recorded, args.workload, args.seconds)
    if args.workload == "cli-corpus":
        peak_kb = ctx.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_s": (window.jobs_per_s(), "1/s"),
        "setup_s": (setup_s, "s"),
        "ok_frac": ((window.attempted - window.failed) / window.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return window.attempted, window.failed, metrics


def per_layer(wl, args, ctx, jobs, instance, recorded):
    import kernels
    import tracing

    env = environment()
    kernel_s, kernel_wrong = time_kernels(kernels, json.loads((wl.ANSWERS_DIR / "kernels.json").read_text()))
    import_runs = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        code, _, err = ctx.run_child([sys.executable, "-c", "import stab2lin.cli"])
        import_runs.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import stab2lin.cli failed: {err}")

    half = args.seconds / 2
    plain = run_window(wl, jobs, instance, recorded, args.workload, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_window(wl, jobs, instance, recorded, args.workload, half, tracer)
        in_process = None
        if args.workload == "cli-corpus":
            in_process = Window()
            for job in jobs:
                run_job(wl, job, instance, recorded, args.workload, in_process, tracer, wl.run_in_process)
    finally:
        tracer.uninstall()
    env["loadavg_end"] = list(os.getloadavg())

    overhead = 1 - traced.jobs_per_s() / plain.jobs_per_s()
    metrics = {}
    totals = tracer.layer_totals()
    for name, row in totals.items():
        base = tracing.metric_name(name)
        metrics[f"{base}.s"] = (row["s"], "s")
        metrics[f"{base}.self_s"] = (row["self_s"], "s")
        metrics[f"{base}.calls"] = (row["calls"], "count")
        metrics[f"{base}.errors"] = (row["errors"], "count")
    for name, (unit, one, _) in tracing.WORK.items():
        count = tracer.work.get(name, 0)
        metrics[f"{name}.{unit}"] = (count, "count")
        metrics[f"{name}.ns_per_{one}"] = (1e9 * totals[name]["s"] / count if count else 0.0, "ns")
    for name, value in kernel_s.items():
        metrics[f"kernel_input.{name}.s"] = (value, "s")
    metrics["cli.import.s"] = (statistics.median(import_runs), "s")
    if in_process is None:
        metrics["cli.process.s"] = metrics["cli.command.s"] = (0.0, "s")
    else:
        metrics["cli.process.s"] = (statistics.median(plain.samples() + traced.samples()), "s")
        metrics["cli.command.s"] = (statistics.median(in_process.samples()), "s")
    metrics["process.cpu_util"] = (plain.cpu / plain.wall, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")

    tag = f"{args.workload}-seed{args.seed}"
    tracer.write(OUT / f"spans-{tag}.jsonl")
    env["kernel_input_s"] = kernel_s
    (OUT / f"env-{tag}.json").write_text(json.dumps(env, indent=1) + "\n", encoding="utf-8")
    print(tracing.report_table(args.workload, tracer, overhead), file=sys.stderr)
    print("environment: " + json.dumps(env), file=sys.stderr)

    windows = [plain, traced] + ([in_process] if in_process else [])
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows) + kernel_wrong
    return attempted, failed, metrics


def record(wl, workloads) -> int:
    import kernels

    for workload in workloads:
        instances = {}
        for instance in range(wl.POOL):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
            try:
                ctx = wl.Context(ROOT, work)
                wl.install_pass_through(ctx)
                answers = {}
                for job in wl.make_round(workload, instance, ctx):
                    answer = job.run()
                    if job.expect_exit is not None and answer["exit"] != job.expect_exit:
                        raise RuntimeError(f"{job.slot}: exit {answer['exit']}, expected {job.expect_exit}")
                    problem = wl.check_channel(answer) if "exact_success" in answer else None
                    if problem:
                        raise RuntimeError(f"{job.slot}: {problem}")
                    answers[job.slot] = answer
                instances[str(instance)] = answers
                wl.undo(ctx.restore)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {workload} instance {instance}", file=sys.stderr)
        wl.save_answers(workload, instances)
    import numpy as np
    from stab2lin import _kernels

    answers = {name: np.asarray(getattr(_kernels, name)(*make())).tolist() for name, make in kernels.KERNEL_INPUTS.items()}
    (wl.ANSWERS_DIR / "kernels.json").write_text(json.dumps(answers, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stab2lin" / "__init__.py").is_file():
        print(f"error: no stab2lin package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: a single client, on a machine shared with others.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    if args.record:
        return record(wl, [args.workload] if args.workload else wl.WORKLOADS)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    instance = args.seed % wl.POOL
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx, jobs = prepare(wl, args.workload, instance, work)
        if args.setup_only:
            return 0
        recorded = wl.load_answers(args.workload)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(wl, args, ctx, jobs, instance, recorded)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
