"""Spans around stab2lin's public functions, recorded from outside.

The tracer rebinds each target function on every stab2lin module that holds
it (so ``cli``'s ``from .stabilizer import ...`` names are covered too) and
restores the originals afterwards.  A target that no longer exists is
reported as absent, not as an error.  Spans stay in memory as
``[name, start, end, parent index, job id, raised]`` until the run writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

from workloads import replace_everywhere, undo

TARGETS = (
    "formats.load_stabilizer",
    "formats.load_generator",
    "stabilizer.validate",
    "stabilizer.to_standard_form",
    "stabilizer.ensure_positive_r",
    "stabilizer.verify_logical_algebra",
    "stabilizer.quantum_distance",
    "extraction.extract_classical",
    "lincode.min_distance",
    "lincode.bsc_success_exact",
    "lincode.bsc_monte_carlo",
    "lincode.codeword_table",
    "statevec.verify_phi",
    "statevec.build_C0",
    "bounds.emit_curves",
    "gf2.rref",
    "_kernels.codeword_weight_hist",
    "_kernels.coset_min_weight_hist",
    "_kernels.normalizer_min_weight",
    "_kernels.bsc_trial_successes",
)


def metric_name(target: str) -> str:
    """Metric names start with a letter: ``_kernels.x`` reports as ``kernels.x``."""
    return target.lstrip("_")


def _candidates(a) -> int:
    """Sum over w < d of C(n, w) 3^w; past the cap, every weight up to it."""
    n = a["code"].n
    result = a["result"]
    top = result.value if result.value else result.cap + 1
    return sum(math.comb(n, w) * 3**w for w in range(top))


# Work computed from each call's inputs and result, not counted by the
# program: (metric suffix, unit name for the rate, function of bound args).
WORK = {
    "stabilizer.quantum_distance": ("candidates", "candidate", _candidates),
    "lincode.bsc_success_exact": ("patterns", "pattern", lambda a: 2 ** a["g"].n),
    "lincode.bsc_monte_carlo": (
        "comparisons",
        "comparison",
        lambda a: a["trials"] * 2 ** a["g"].k,
    ),
    "lincode.min_distance": ("codewords", "codeword", lambda a: 2 ** a["g"].k),
    "statevec.verify_phi": (
        "amplitude_ops",
        "amplitude_op",
        lambda a: a["result"].pairs_checked * 2 ** a["sf"].n,
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.work: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self.absent: list[str] = []
        self._jobs = 0
        self._stack: list[int] = []
        self._undo: list = []

    def open_job(self, name: str) -> int:
        """Open a root span for the next job; spans under it carry its id."""
        self.job = self._jobs
        self._jobs += 1
        return self.open(name)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, raised: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.close(idx, raised=True)
                raise
            self.close(idx)
            if work:
                self._count(name, work, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, name, work, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.work[name] += work[2]({**bound.arguments, "result": result})
        except (AttributeError, KeyError, TypeError):
            pass  # a refactored signature loses the count, not the run

    def install(self) -> None:
        for target in TARGETS:
            module_name, attr = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"stab2lin.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            self._undo += replace_everywhere(original, self._wrap(target, original))

    def uninstall(self) -> None:
        undo(self._undo)
        self._undo = []

    # -- summaries ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per target: inclusive seconds, self seconds, calls and errors."""
        totals = {t: {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0} for t in TARGETS}
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, _, _, raised) in enumerate(self.spans):
            if name in totals:
                row = totals[name]
                row["s"] += end - start
                row["self_s"] += end - start - child_time[idx]
                row["calls"] += 1
                row["errors"] += int(raised)
        return totals

    def job_seconds(self) -> float:
        return sum(e - s for name, s, e, parent, _, _ in self.spans if parent is None and name.startswith("job."))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, raised in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "job": job, "raised": raised}
                    )
                    + "\n"
                )


def report_table(workload: str, tracer: Tracer, overhead: float) -> str:
    """Self time and share of job time per layer, largest first."""
    totals = tracer.layer_totals()
    job_s = tracer.job_seconds() or float("nan")
    lines = [
        f"# {workload}: per-layer self time over {job_s:.3f} s of traced jobs",
        f"{'layer':40s} {'calls':>7s} {'err':>4s} {'incl s':>9s} {'self s':>9s} {'self %':>7s} {'incl %':>7s}",
    ]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        if not row["calls"]:
            continue
        lines.append(
            f"{name:40s} {row['calls']:7d} {row['errors']:4d} {row['s']:9.4f} {row['self_s']:9.4f} "
            f"{100 * row['self_s'] / job_s:6.1f}% {100 * row['s'] / job_s:6.1f}%"
        )
    layer_self = sum(row["self_s"] for row in totals.values())
    lines.append(f"{'(outside traced layers)':40s} {'':7s} {'':4s} {'':9s} {job_s - layer_self:9.4f}")
    for name, count in sorted(tracer.work.items()):
        unit = WORK[name][0]
        rate = 1e9 * totals[name]["s"] / count if count else 0.0
        lines.append(f"work computed from inputs: {name}.{unit} = {count} ({rate:.2f} ns each)")
    if tracer.absent:
        lines.append("absent: " + ", ".join(tracer.absent))
    lines.append(f"trace.overhead = {overhead:.4f}")
    return "\n".join(lines)
