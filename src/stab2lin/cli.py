"""Command-line frontend: validate -> standardize -> extract -> analyze ->
simulate -> bounds.

Exit codes: 0 success, 1 domain failure (invalid code, failed verification),
2 usage or parse error.  Every command is deterministic for fixed flags and
seed, and mirrors its report as JSON under --json.  ``--ensure-r`` on
standardize and extract applies the fewest column operations that give
r >= 1 (``stabilizer.ensure_positive_r``).
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import bounds as bounds_mod
from . import lincode, statevec
from .extraction import extract_classical
from .formats import (
    FormatError,
    load_generator,
    load_stabilizer,
    write_generator_text,
    write_stabilizer_text,
)
from .stabilizer import (
    StabilizerCode,
    ensure_positive_r,
    quantum_distance,
    to_standard_form,
    validate as validate_code,
)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_stab(path) -> StabilizerCode:
    try:
        return load_stabilizer(path)
    except FormatError as exc:
        _fail(str(exc), 2)


def _load_valid_stab(path, purpose: str) -> StabilizerCode:
    code = _load_stab(path)
    report = validate_code(code)
    if not report.ok:
        pairs = ", ".join(f"({i + 1},{j + 1})" for i, j in report.anticommuting_pairs)
        detail = f"anticommuting pairs: {pairs}" if pairs else f"rank {report.rank} < m"
        _fail(f"invalid stabilizer code in {path}, cannot {purpose}; {detail}", 1)
    return code


def _load_gen(path) -> lincode.GeneratorMatrix:
    try:
        return load_generator(path)
    except (FormatError, ValueError) as exc:
        _fail(str(exc), 2)


def _emit_json(payload: dict):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _write_out(text: str, out):
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc.strerror or exc}", 2)


@click.group()
def main():
    """Map stabilizer codes to classical binary linear codes and verify the
    claimed error-correcting properties."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
def validate(file, as_json):
    """Check commutativity and independence of a stabilizer file."""
    code = _load_stab(file)
    report = validate_code(code)
    payload = {
        "valid": report.ok,
        "n": report.n,
        "m": report.m,
        "k": code.k,
        "rank": report.rank,
        "independent": report.independent,
        "anticommuting_pairs": [[i + 1, j + 1] for i, j in report.anticommuting_pairs],
    }
    if as_json:
        _emit_json(payload)
    elif report.ok:
        click.echo(f"valid stabilizer code: n={report.n} m={report.m} k={code.k}")
    else:
        for i, j in report.anticommuting_pairs:
            click.echo(f"generators {i + 1} and {j + 1} anticommute")
        if not report.independent:
            click.echo(f"generators are dependent (rank {report.rank} < m={report.m})")
    sys.exit(0 if report.ok else 1)


def _standardized(file, ensure_r):
    """The standard form of the file's code, after ``ensure_positive_r``
    under --ensure-r; the EnsureRResult is None without it."""
    code = _load_valid_stab(file, "standardize")
    if not ensure_r:
        return to_standard_form(code), None
    result = ensure_positive_r(code)
    return result.standard_form, result


def _ensure_r_json(result) -> dict:
    """The ensure-r keys of a --json report; [] and null without --ensure-r."""
    return {
        "ensure_r_ops": [[op.kind, list(op.indices)] for op in result.ops] if result else [],
        "ensure_r_minimal": result.minimal if result else None,
    }


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ensure-r", is_flag=True, help="apply the fewest column ops that give r >= 1")
@click.option("-o", "out", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True)
def standardize(file, ensure_r, out, as_json):
    """Reduce a stabilizer file to standard form."""
    sf, result = _standardized(file, ensure_r)
    ops = result.ops if result else []
    perm = [int(p) + 1 for p in sf.qubit_permutation]
    if as_json:
        _emit_json(
            {
                "s": sf.s,
                "k": sf.k,
                "r": sf.r,
                "qubit_permutation": perm,
                "generators": sf.pauli_strings(),
                **_ensure_r_json(result),
                "trace_length": len(sf.op_trace),
            }
        )
        return
    comments = [
        f"standard form: s={sf.s} k={sf.k} r={sf.r}",
        "qubit_permutation (original position of each standardized column): "
        + " ".join(str(p) for p in perm),
    ]
    if ops:
        comments.append(
            "ensure-r ops: " + "; ".join(f"{op.kind}{op.indices}" for op in ops)
        )
    if result and not result.minimal:
        comments.append("ensure-r ops not proven minimal (subset search capped)")
    _write_out(write_stabilizer_text(sf, comments), out)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ensure-r", is_flag=True, help="apply the fewest column ops that give r >= 1")
@click.option("-o", "out", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True)
def extract(file, ensure_r, out, as_json):
    """Extract the classical binary linear code of a stabilizer file."""
    sf, ensured = _standardized(file, ensure_r)
    if sf.k == 0:
        _fail("no encoded qubits, no classical code (k = 0)", 1)
    result = extract_classical(sf)
    summary = (
        f"({result.n_classical},{result.k}) classical code; "
        f"theorem form ({result.source_n - 1},{result.k})"
    )
    if result.r_zero_warning:
        click.echo(
            "warning: r = 0, extraction yields an (n, k) code; "
            "rerun with --ensure-r for the (n-1, k) form",
            err=True,
        )
    if as_json:
        _emit_json(
            {
                "n_classical": result.n_classical,
                "k": result.k,
                "r": result.r,
                "parameters": list(result.parameters),
                "theorem_parameters": list(result.theorem_parameters),
                "rows": ["".join(str(int(b)) for b in row) for row in result.generator],
                "r_zero_warning": result.r_zero_warning,
                **_ensure_r_json(ensured),
            }
        )
        return
    if ensured and not ensured.minimal:
        click.echo("ensure-r ops not proven minimal (subset search capped)", err=True)
    gm = lincode.GeneratorMatrix(result.generator)
    _write_out(write_generator_text(gm, [f"extracted from {file}", summary]), out)
    if out is not None:
        click.echo(summary)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--quantum", "mode", flag_value="quantum", help="stabilizer-file input")
@click.option("--classical", "mode", flag_value="classical", help="generator-file input")
@click.option("--cap", type=click.IntRange(min=1), help="weight cap for the quantum search")
@click.option("--json", "as_json", is_flag=True)
def distance(file, mode, cap, as_json):
    """Exact code distance and corrected-error count t."""
    if mode is None:
        raise click.UsageError("choose one of --quantum or --classical")
    if mode == "quantum":
        code = _load_valid_stab(file, "compute its distance")
        result = quantum_distance(code, weight_cap=cap)
        if as_json:
            _emit_json(
                {
                    "kind": "quantum",
                    "distance": result.value,
                    "t": result.t,
                    "cap": result.cap,
                    "exceeded": result.exceeded,
                    "searched": result.searched,
                    "stopped_by": result.stopped_by,
                }
            )
        elif result.undefined:
            click.echo("no logical operators (k = 0); distance undefined")
        elif result.exceeded:
            click.echo(f"distance > {result.cap} (cap exceeded)")
        elif result.value is None:
            w = result.searched + 1
            click.echo(
                f"distance > {result.searched} (work limit: searching weight {w} "
                f"would list {result.predicted_keys:.2g} join keys)"
            )
        else:
            click.echo(f"d={result.value} t={result.t}")
        return
    g = _load_gen(file)
    try:
        result = lincode.min_distance(g)
    except ValueError as exc:
        _fail(str(exc), 1)
    t = (result.distance - 1) // 2
    if as_json:
        _emit_json(
            {
                "kind": "classical",
                "distance": result.distance,
                "t": t,
                "weight_enumerator": {str(w): c for w, c in result.weight_enumerator.items()},
            }
        )
    else:
        click.echo(f"d={result.distance} t={t}")


def _delta_param(ctx, param, value):
    if not 0.0 <= value <= 0.5:  # also rejects NaN
        raise click.BadParameter(f"must be in [0, 1/2], got {value}")
    return value


@main.command()
@click.argument("codefile", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--delta", required=True, type=float, callback=_delta_param, help="bit-flip probability"
)
@click.option("--trials", default=100_000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--exact", is_flag=True, help="exact enumeration instead of Monte Carlo")
@click.option("--json", "as_json", is_flag=True)
def simulate(codefile, delta, trials, seed, exact, as_json):
    """Binary-symmetric-channel success probability of a generator-file code."""
    g = _load_gen(codefile)
    try:
        if exact:
            report = lincode.bsc_success_exact(g, delta)
        else:
            report = lincode.bsc_monte_carlo(g, delta, trials, seed)
    except ValueError as exc:
        _fail(str(exc), 1)
    if as_json:
        payload = {
            "delta": report.delta,
            "success_probability": report.success_probability,
            "method": report.method,
        }
        if report.method == "monte-carlo":
            payload.update(
                trials=report.trials,
                seed=report.seed,
                standard_error=report.standard_error,
            )
        _emit_json(payload)
    elif report.method == "monte-carlo":
        click.echo(
            f"success_probability={report.success_probability:.6f} "
            f"(monte-carlo, trials={report.trials}, seed={report.seed}, "
            f"stderr={report.standard_error:.6f})"
        )
    else:
        click.echo(
            f"success_probability={report.success_probability:.12g} (exact-enumeration)"
        )


@main.command(name="verify-phi")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def verify_phi_cmd(file, as_json):
    """Exactly verify the classical-to-quantum isomorphism on the stabilizer
    tableau of |C_0>."""
    sf = to_standard_form(_load_valid_stab(file, "verify phi"))
    phi_report = statevec.verify_phi(sf)
    payload = dataclasses.asdict(phi_report)
    if as_json:
        _emit_json(payload)
    else:
        for name in ("bijectivity_ok", "codeword_property_ok", "error_property_ok"):
            click.echo(f"{name}: {'pass' if payload[name] else 'FAIL'}")
        for line in phi_report.counterexamples:
            click.echo(f"counterexample: {line}")
    sys.exit(0 if phi_report.all_ok else 1)


@main.command(name="bounds")
@click.option(
    "--channel",
    type=click.Choice(["adversarial", "depolarizing"]),
    required=True,
)
@click.option("--from", "delta_from", default=0.0, show_default=True, type=float)
@click.option("--to", "delta_to", default=0.25, show_default=True, type=float)
@click.option("--step", default=0.01, show_default=True, type=float)
@click.option("-o", "out", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True)
def bounds_cmd(channel, delta_from, delta_to, step, out, as_json):
    """Emit capacity-bound curve data as CSV (or JSON records)."""
    try:
        if as_json:
            rows = [
                {
                    "delta": d,
                    "curve": c.name,
                    "kind": c.kind,
                    "raw": c.raw(d),
                    "clamped": c.clamped(d),
                }
                for d, c in bounds_mod.points(channel, delta_from, delta_to, step)
            ]
            _emit_json({"channel": channel, "rows": rows})
            return
        csv = bounds_mod.emit_curves(channel, delta_from, delta_to, step)
    except ValueError as exc:
        _fail(str(exc), 2)
    _write_out(csv, out)


if __name__ == "__main__":
    main()
