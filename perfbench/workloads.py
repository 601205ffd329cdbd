"""Inputs, jobs and recorded answers of the stab2lin benchmark.

Inputs are generated here with Python's ``random`` module and this file's own
GF(2) helpers, never with stab2lin code, so that a change to the program
cannot change what the program is given.  A run seed ``s`` draws its inputs
from instance ``s % POOL``; the answers this benchmark expects for every
instance are recorded in ``answers/<workload>.json`` (``run.py --record``
writes them).  Instance 0 is the default seed, instance 1 the held-out seed.

Only integer, boolean and string answers are gated exactly.  Floats that are
answers (probabilities, bound values) are compared to a relative 1e-9;
floats that measure numerical error (``max_deviation``, ``standard_error``)
are never gated, so an exact algorithm swap still passes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import stab2lin
from stab2lin import extraction, formats, lincode, stabilizer, statevec

POOL = 16
DELTA = 0.05
STAB_TRIALS = 10_000
REL_TOL = 1e-9
CHILD_TIMEOUT_S = 120

SURFACE_DISTANCES = (3, 4, 5)
# (slot, n, m, r): random codes whose statevector checks dominate.  r is
# fixed because verify_phi's cost follows 2^(n-r); n - r = 9 puts it at its
# 512-image limit.
RANDOM_STAB = (("random-n8", 8, 5, 0), ("random-n9", 9, 6, 0))
LOWRATE = ((20, 5), (21, 5), (22, 6), (23, 6), (24, 6))
LOWRATE_TRIALS = 100_000
HIGHRATE = ((16, 11), (18, 13), (20, 14), (21, 15))
HIGHRATE_TRIALS = 10_000

WORKLOADS = ("cli-corpus", "stab-ladder", "channel-lowrate", "channel-highrate")
WARMUP_SLOT = {
    "cli-corpus": "validate-eight_three",
    "stab-ladder": "surface-d3",
    "channel-lowrate": "code-20-5",
    "channel-highrate": "code-16-11",
}

# Payload keys that hold numerical error, sampling detail or observability
# data rather than an answer.
IGNORED_KEYS = frozenset(
    {
        "counterexamples",
        "error_property_exact_ok",
        "exhaustive",
        "images_checked",
        "max_deviation",
        "max_deviation_exact",
        "pairs_checked",
        "standard_error",
        "stats",
    }
)

ANSWERS_DIR = Path(__file__).resolve().parent / "answers"


# ---------------------------------------------------------------------------
# GF(2) helpers on Python ints (bit i of a row is column i)
# ---------------------------------------------------------------------------

def _insert(basis: dict[int, int], v: int) -> bool:
    """Add ``v`` to an XOR basis keyed by leading bit; False if dependent."""
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            basis[top] = v
            return True
        v ^= basis[top]
    return False


def rank(rows) -> int:
    basis: dict[int, int] = {}
    return sum(_insert(basis, r) for r in rows)


def _anticommute(u: int, v: int, n: int) -> bool:
    return bool(((u & (v >> n)) ^ ((u >> n) & v)).bit_count() & 1)


def _bits(v: int, n: int) -> str:
    return "".join(str((v >> i) & 1) for i in range(n))


def stab_text(rows, n: int) -> str:
    """Binary stabilizer lines ``a|b``, with a = low n bits of each row."""
    return "".join(f"{_bits(r, n)}|{_bits(r >> n, n)}\n" for r in rows)


def surface_code_rows(d: int) -> list[int]:
    """Rotated surface code on a d x d grid: checkerboard weight-4 faces,
    weight-2 X faces on the top and bottom edges, Z faces on the sides."""
    n = d * d
    rows = []
    for i in range(-1, d):
        for j in range(-1, d):
            qubits = [
                a * d + b
                for a in (i, i + 1)
                for b in (j, j + 1)
                if 0 <= a < d and 0 <= b < d
            ]
            x_type = (i + j) % 2 == 0
            if len(qubits) == 2:
                if i in (-1, d - 1) and not x_type:
                    continue
                if j in (-1, d - 1) and x_type:
                    continue
            elif len(qubits) != 4:
                continue
            shift = 0 if x_type else n
            rows.append(sum(1 << (q + shift) for q in qubits))
    _check_stabilizer(rows, n)
    return rows


def random_stabilizer_rows(rng: random.Random, n: int, m: int, r: int) -> list[int]:
    """Independent commuting generators, grown by rejection sampling and
    retried until the X half has rank m - r."""
    while True:
        rows: list[int] = []
        basis: dict[int, int] = {}
        while len(rows) < m:
            v = rng.getrandbits(2 * n)
            if any(_anticommute(v, u, n) for u in rows):
                continue
            if _insert(basis, v):
                rows.append(v)
        if m - rank(u & ((1 << n) - 1) for u in rows) == r:
            _check_stabilizer(rows, n)
            return rows


def _check_stabilizer(rows, n: int) -> None:
    if rank(rows) != len(rows) or any(
        _anticommute(u, v, n) for i, u in enumerate(rows) for v in rows[:i]
    ):
        raise RuntimeError("generated stabilizer rows are not a valid code")


def random_generator(rng: random.Random, n: int, k: int) -> np.ndarray:
    """Systematic (I_k | A) with random A, columns shuffled."""
    rows = [(1 << i) | (rng.getrandbits(n - k) << k) for i in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
    return np.array([[(row >> perm[c]) & 1 for c in range(n)] for row in rows], np.uint8)


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------

def _plain(value):
    """JSON-comparable form: numpy scalars to Python, ignored keys dropped."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items() if k not in IGNORED_KEYS}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def mismatch(expected, actual, where: str = "") -> str | None:
    """First difference between a recorded answer and a fresh one, or None.
    Keys the recorded answer lacks are not compared."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where}: expected an object, got {actual!r}"
        for key, value in expected.items():
            if key not in actual:
                return f"{where}/{key}: missing"
            found = mismatch(value, actual[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: expected {expected!r}, got {actual!r}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=1e-300):
            return None
    elif type(expected) is type(actual) and expected == actual:
        return None
    return f"{where}: expected {expected!r}, got {actual!r}"


def _matrix_digest(rows: np.ndarray) -> str:
    text = ";".join("".join(str(int(b)) for b in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _channel_answer(ctx: "Context", g, trials: int, mc_seed: int) -> dict:
    """min_distance, the exact channel at DELTA and the Monte Carlo count."""
    md = lincode.min_distance(g)
    ctx.histograms.clear()
    exact = lincode.bsc_success_exact(g, DELTA)
    mc = lincode.bsc_monte_carlo(g, DELTA, trials, mc_seed)
    answer = {
        "length": g.n,
        "d_classical": md.distance,
        "weight_enumerator": sorted(md.weight_enumerator.items()),
        "exact_success": exact.success_probability,
        "mc_successes": round(mc.success_probability * trials),
    }
    if ctx.histograms:
        answer["correctable_hist"] = ctx.histograms[-1]
    return _plain(answer)


def check_channel(answer: dict) -> str | None:
    """The exact success probability must follow from the correctable-weight
    histogram the same call computed."""
    hist = answer.get("correctable_hist")
    if hist is None:
        return None
    n = answer["length"]
    p = math.fsum(c * DELTA**w * (1 - DELTA) ** (n - w) for w, c in enumerate(hist))
    if not math.isclose(p, answer["exact_success"], rel_tol=REL_TOL):
        return f"exact_success {answer['exact_success']!r} disagrees with its histogram ({p!r})"
    return None


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    slot: str
    run: Callable[[], dict]
    argv: list[str] | None = None  # cli jobs only
    expect_exit: int | None = None  # cli jobs only


@dataclass
class Context:
    """Per-run state: where the program lives, where inputs go, and what the
    pass-through hooks saw."""

    root: Path
    work: Path
    histograms: list = field(default_factory=list)
    child_peak_kb: int = 0
    restore: list = field(default_factory=list)

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def data(self) -> Path:
        return self.src / "stab2lin" / "data"

    def run_child(self, argv: list[str]) -> tuple[int, str, str]:
        """Run one child to completion; returns (exit code, stdout, stderr)
        and folds its peak RSS into ``child_peak_kb``."""
        code, out, err, peak_kb = run_child(argv, self.root, child_env(self.src), self.work)
        self.child_peak_kb = max(self.child_peak_kb, peak_kb)
        return code, out, err


def run_child(argv: list[str], cwd: Path, env: dict, work: Path) -> tuple[int, str, str, int]:
    """Run a child and wait for it without polling, so its wall time is not
    rounded to a poll interval; returns (exit code, stdout, stderr, peak RSS
    in KiB).  A child that outlives CHILD_TIMEOUT_S is killed."""
    with open(work / "child.stderr", "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return proc.returncode, out.decode(errors="replace"), stderr, usage.ru_maxrss


def child_env(src: Path) -> dict:
    """This environment, with the checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def install_pass_through(ctx: Context) -> None:
    """Record the correctable-weight histogram the exact channel computes, so
    it can be gated without computing it twice.  Absent after a refactor,
    the histogram is simply not gated."""
    original = getattr(lincode, "correctable_weight_histogram", None)
    if original is None:
        return

    def recording(*args, **kwargs):
        hist = original(*args, **kwargs)
        ctx.histograms.append(_plain(hist))
        return hist

    ctx.restore.extend(replace_everywhere(original, recording))


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Rebind every stab2lin module attribute that holds ``original``; returns
    (module, name, original) triples for undoing."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stab2lin" or name.startswith("stab2lin.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def undo(records) -> None:
    for module, attr, original in reversed(records):
        setattr(module, attr, original)


def _stab_job(ctx: Context, slot: str, path: Path, mc_seed: int) -> Job:
    def run() -> dict:
        code = formats.load_stabilizer(path)
        report = stabilizer.validate(code)
        sf = stabilizer.to_standard_form(code)
        ext = extraction.extract_classical(sf)
        algebra = stabilizer.verify_logical_algebra(sf)
        qd = stabilizer.quantum_distance(code)
        g = lincode.GeneratorMatrix(ext.generator)
        answer = {
            "valid": report.ok,
            "skr": [sf.s, sf.k, sf.r],
            "generator": _matrix_digest(ext.generator),
            "logical_algebra_ok": algebra.ok,
            "d_quantum": qd.value,
            **_channel_answer(ctx, g, STAB_TRIALS, mc_seed),
        }
        if code.n <= 12:
            phi = statevec.verify_phi(sf)
            answer["phi"] = [phi.bijectivity_ok, phi.codeword_property_ok, phi.error_property_ok]
        return _plain(answer)

    return Job(slot, run)


def _normalize_output(argv: list[str], out: str):
    """--json payloads parse as JSON; bounds CSV parses row by row."""
    if "--json" in argv:
        return json.loads(out) if out.strip() else None
    rows = [line.split(",") for line in out.splitlines()]
    return [rows[0]] + [[float(d), c, float(raw), float(cl)] for d, c, raw, cl in rows[1:]]


def _cli_job(ctx: Context, slot: str, argv: list[str], expect_exit: int) -> Job:
    def run() -> dict:
        code, out, _ = ctx.run_child([sys.executable, "-m", "stab2lin.cli", *argv])
        return _plain({"exit": code, "out": _normalize_output(argv, out)})

    return Job(slot, run, argv, expect_exit)


def run_in_process(job: Job) -> dict:
    """The same argv through ``cli.main`` inside this process."""
    from stab2lin import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(job.argv, standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # click usage errors carry their exit code
            code = getattr(exc, "exit_code", 1)
    return _plain({"exit": code, "out": _normalize_output(job.argv, out.getvalue())})


MALFORMED = ("XZ\nXZZ\n", "XQ\n", "XX\n10|01\n", "# no generators\n", "11|0\n")


def _cli_round(ctx: Context, rng: random.Random) -> list[Job]:
    data = ctx.data
    malformed = ctx.work / "malformed.stab"
    malformed.write_text(rng.choice(MALFORMED), encoding="utf-8")
    channels = ["adversarial", "depolarizing"]
    rng.shuffle(channels)
    to = rng.choice(("0.2", "0.25", "0.3"))
    specs = [
        ("validate-eight_three", ["validate", data / "eight_three.stab"], 0),
        ("validate-mutated", ["validate", data / "eight_three_mutated.stab"], 1),
        ("validate-malformed", ["validate", malformed], 2),
        ("standardize-eight_three", ["standardize", data / "eight_three.stab"], 0),
        ("standardize-ensure-r", ["standardize", data / "xx_two.stab", "--ensure-r"], 0),
        ("extract-eight_three", ["extract", data / "eight_three.stab"], 0),
        ("extract-five_one", ["extract", data / "five_one.stab"], 0),
        ("distance-quantum", ["distance", data / "five_one.stab", "--quantum"], 0),
        ("distance-classical", ["distance", data / "seven_three.gmat", "--classical"], 0),
        (
            "simulate-mc",
            ["simulate", data / "seven_three.gmat", "--delta", rng.choice(("0.02", "0.05", "0.1")),
             "--trials", "100000", "--seed", str(rng.randrange(1 << 31))],
            0,
        ),
        (
            "simulate-exact",
            ["simulate", data / "five_two.gmat", "--delta", rng.choice(("0.01", "0.05", "0.2")), "--exact"],
            0,
        ),
        ("verify-phi", ["verify-phi", data / "eight_three.stab"], 0),
        ("bounds-json", ["bounds", "--channel", channels[0], "--to", to], 0),
    ]
    jobs = [
        _cli_job(ctx, slot, [str(a) for a in argv] + ["--json"], code)
        for slot, argv, code in specs
    ]
    jobs.append(_cli_job(ctx, "bounds-csv", ["bounds", "--channel", channels[1], "--to", to], 0))
    return jobs


def make_round(workload: str, instance: int, ctx: Context) -> list[Job]:
    """The jobs of one round, in slot order, for one recorded instance."""
    rng = random.Random(f"{workload}/{instance}")
    if workload == "cli-corpus":
        return _cli_round(ctx, rng)
    jobs = []
    if workload == "stab-ladder":
        codes = [(f"surface-d{d}", surface_code_rows(d), d * d) for d in SURFACE_DISTANCES]
        codes += [(slot, random_stabilizer_rows(rng, n, m, r), n) for slot, n, m, r in RANDOM_STAB]
        for slot, rows, n in codes:
            path = ctx.work / f"{slot}.stab"
            path.write_text(stab_text(rows, n), encoding="utf-8")
            jobs.append(_stab_job(ctx, slot, path, rng.randrange(1 << 31)))
        return jobs
    shapes, trials = {
        "channel-lowrate": (LOWRATE, LOWRATE_TRIALS),
        "channel-highrate": (HIGHRATE, HIGHRATE_TRIALS),
    }[workload]
    for n, k in shapes:
        g = lincode.GeneratorMatrix(random_generator(rng, n, k))
        mc_seed = rng.randrange(1 << 31)
        jobs.append(Job(f"code-{n}-{k}", functools.partial(_channel_answer, ctx, g, trials, mc_seed)))
    return jobs


def check(workload: str, instance: int, job: Job, answer: dict, recorded: dict) -> str | None:
    """Why a job's answer is wrong, or None when it is right."""
    if job.expect_exit is not None and answer.get("exit") != job.expect_exit:
        return f"exit code {answer.get('exit')}, expected {job.expect_exit}"
    if "exact_success" in answer:
        found = check_channel(answer)
        if found:
            return found
    expected = recorded.get(str(instance), {}).get(job.slot)
    if expected is None:
        return f"no recorded answer for {workload} instance {instance} slot {job.slot}"
    if "correctable_hist" not in answer:
        # The exact channel no longer passes through correctable_weight_histogram;
        # its probability is still gated, against the recorded value.
        expected = {k: v for k, v in expected.items() if k != "correctable_hist"}
    return mismatch(expected, answer)


def load_answers(workload: str) -> dict:
    path = ANSWERS_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["instances"]


def save_answers(workload: str, instances: dict) -> None:
    ANSWERS_DIR.mkdir(exist_ok=True)
    path = ANSWERS_DIR / f"{workload}.json"
    payload = {"pool": POOL, "stab2lin_version": stab2lin.__version__, "instances": instances}
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
