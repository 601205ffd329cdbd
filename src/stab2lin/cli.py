"""Command-line frontend: validate, standardize, extract, distance, simulate,
verify-phi and bounds.

Exit codes: 0 success, 1 domain failure (invalid code, failed verification),
2 usage or parse error.  Every command is deterministic for fixed flags and
seed, builds one payload, and reports it as JSON under --json or as text
rendered from the same values, on stdout or in the -o file.
``--ensure-r`` on standardize and extract applies the fewest column
operations that give r >= 1 (``stabilizer.ensure_positive_r``).
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

file_argument = click.argument("file", type=click.Path(exists=True, dir_okay=False))
json_option = click.option("--json", "as_json", is_flag=True, help="machine-readable report")
out_option = click.option("-o", "out", type=click.Path(dir_okay=False), default=None)
ensure_r_option = click.option(
    "--ensure-r", is_flag=True, help="apply the fewest column ops that give r >= 1"
)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _checked(fn, *args, code: int = 1):
    """``fn(*args)``; a ValueError ends the command with exit ``code``, a
    FormatError (the file does not parse) with exit 2."""
    try:
        return fn(*args)
    except ValueError as exc:
        _fail(str(exc), 2 if isinstance(exc, FormatError) else code)


def _report(as_json: bool, payload: dict, text: str, out=None, code: int = 0, summary=None):
    """Write ``payload`` as JSON under --json, else ``text``, to stdout or to
    the -o file ``out``, then exit with ``code``.  A text written to ``out``
    is followed by ``summary`` on stdout, when there is one."""
    if as_json:
        text, summary = json.dumps(payload, indent=2, sort_keys=True) + "\n", None
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {out}: {exc.strerror or exc}", 2)
        if summary is not None:
            click.echo(summary)
    sys.exit(code)


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _load_valid_stab(path, purpose: str) -> StabilizerCode:
    code = _checked(load_stabilizer, path)
    report = validate_code(code)
    if not report.ok:
        pairs = ", ".join(f"({i + 1},{j + 1})" for i, j in report.anticommuting_pairs)
        detail = f"anticommuting pairs: {pairs}" if pairs else f"rank {report.rank} < m"
        _fail(f"invalid stabilizer code in {path}, cannot {purpose}; {detail}", 1)
    return code


@click.group()
def main():
    """Map stabilizer codes to classical binary linear codes and verify the
    claimed error-correcting properties."""


@main.command()
@file_argument
@json_option
def validate(file, as_json):
    """Check commutativity and independence of a stabilizer file."""
    code = _checked(load_stabilizer, file)
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
    if report.ok:
        lines = [f"valid stabilizer code: n={report.n} m={report.m} k={code.k}"]
    else:
        lines = [f"generators {i} and {j} anticommute" for i, j in payload["anticommuting_pairs"]]
        if not report.independent:
            lines.append(f"generators are dependent (rank {report.rank} < m={report.m})")
    _report(as_json, payload, _lines(lines), code=0 if report.ok else 1)


def _standardized(file, ensure_r):
    """The standard form of the file's code, after ``ensure_positive_r``
    under --ensure-r, and the ``ensure_r_ops`` of its report ([] without
    --ensure-r)."""
    code = _load_valid_stab(file, "standardize")
    if not ensure_r:
        return to_standard_form(code), []
    result = _checked(ensure_positive_r, code)
    return result.standard_form, [[op.kind, list(op.indices)] for op in result.ops]


@main.command()
@file_argument
@ensure_r_option
@out_option
@json_option
def standardize(file, ensure_r, out, as_json):
    """Reduce a stabilizer file to standard form."""
    sf, ensure_r_ops = _standardized(file, ensure_r)
    perm = [int(p) + 1 for p in sf.qubit_permutation]
    payload = {
        "s": sf.s,
        "k": sf.k,
        "r": sf.r,
        "qubit_permutation": perm,
        "generators": sf.pauli_strings(),
        "ensure_r_ops": ensure_r_ops,
        "trace_length": len(sf.op_trace),
    }
    comments = [
        f"standard form: s={sf.s} k={sf.k} r={sf.r}",
        "qubit_permutation (original position of each standardized column): "
        + " ".join(str(p) for p in perm),
    ]
    if ensure_r_ops:
        ops = "; ".join(f"{kind}{tuple(indices)}" for kind, indices in ensure_r_ops)
        comments.append(f"ensure-r ops: {ops}")
    _report(as_json, payload, write_stabilizer_text(sf, comments), out)


@main.command()
@file_argument
@ensure_r_option
@out_option
@json_option
def extract(file, ensure_r, out, as_json):
    """Extract the classical binary linear code of a stabilizer file."""
    sf, ensure_r_ops = _standardized(file, ensure_r)
    result = _checked(extract_classical, sf)
    if result.r_zero_warning:
        click.echo(
            "warning: r = 0, extraction yields an (n, k) code; "
            "rerun with --ensure-r for the (n-1, k) form",
            err=True,
        )
    gm = lincode.GeneratorMatrix(result.generator)
    payload = {
        "n_classical": result.n_classical,
        "k": result.k,
        "r": result.r,
        "parameters": list(result.parameters),
        "theorem_parameters": list(result.theorem_parameters),
        "rows": write_generator_text(gm).splitlines(),
        "r_zero_warning": result.r_zero_warning,
        "ensure_r_ops": ensure_r_ops,
    }
    summary = (
        f"({result.n_classical},{result.k}) classical code; "
        f"theorem form ({result.source_n - 1},{result.k})"
    )
    text = write_generator_text(gm, [f"extracted from {file}", summary])
    _report(as_json, payload, text, out, summary=summary)


@main.command()
@file_argument
@click.option("--quantum", is_flag=True, help="stabilizer-file input")
@click.option("--classical", is_flag=True, help="generator-file input")
@click.option("--cap", type=click.IntRange(min=1), help="weight cap for the quantum search")
@json_option
def distance(file, quantum, classical, cap, as_json):
    """Exact code distance and corrected-error count t."""
    if quantum == classical:
        raise click.UsageError("choose one of --quantum or --classical")
    if cap is not None and not quantum:
        raise click.UsageError("--cap applies only to --quantum")
    if quantum:
        result = quantum_distance(_load_valid_stab(file, "compute its distance"), weight_cap=cap)
        payload = {
            "kind": "quantum",
            "distance": result.value,
            "t": result.t,
            "cap": result.cap,
            "exceeded": result.exceeded,
            "searched": result.searched,
            "stopped_by": result.stopped_by,
            "predicted_keys": result.predicted_keys,
        }
        if result.undefined:
            text = "no logical operators (k = 0); distance undefined"
        elif result.exceeded:
            text = f"distance > {result.cap} (cap exceeded)"
        elif result.value is None:
            text = (
                f"distance > {result.searched} (work limit: searching weight "
                f"{result.searched + 1} would list {result.predicted_keys:.2g} join keys)"
            )
        else:
            text = f"d={result.value} t={result.t}"
    else:
        result = _checked(lincode.min_distance, _checked(load_generator, file))
        t = (result.distance - 1) // 2
        enumerator = result.weight_enumerator
        payload = {
            "kind": "classical",
            "distance": result.distance,
            "t": t,
            "weight_enumerator": enumerator and {str(w): c for w, c in enumerator.items()},
        }
        text = f"d={result.distance} t={t}"
        if enumerator is None:
            limit = lincode.K_ENUM_LIMIT
            text += f"; weight enumerator not computed (2^k * ceil(n/64) > 2^{limit})"
    _report(as_json, payload, text + "\n")


def _delta_param(ctx, param, value):
    if not 0.0 <= value <= 0.5:  # also rejects NaN
        raise click.BadParameter(f"must be in [0, 1/2], got {value}")
    return value


@main.command()
@file_argument
@click.option(
    "--delta", required=True, type=float, callback=_delta_param, help="bit-flip probability"
)
@click.option("--trials", default=100_000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--exact", is_flag=True, help="exact enumeration instead of Monte Carlo")
@json_option
def simulate(file, delta, trials, seed, exact, as_json):
    """Binary-symmetric-channel success probability of a generator-file code."""
    g = _checked(load_generator, file)
    if exact:
        report = _checked(lincode.bsc_success_exact, g, delta)
    else:
        report = _checked(lincode.bsc_monte_carlo, g, delta, trials, seed)
    payload = {key: v for key, v in dataclasses.asdict(report).items() if v is not None}
    p = report.success_probability
    if report.method == "monte-carlo":
        text = (
            f"success_probability={p:.6f} (monte-carlo, trials={report.trials}, "
            f"seed={report.seed}, stderr={report.standard_error:.6f})"
        )
    else:
        text = f"success_probability={p:.12g} (exact-enumeration)"
    _report(as_json, payload, text + "\n")


@main.command(name="verify-phi")
@file_argument
@json_option
def verify_phi_cmd(file, as_json):
    """Exactly verify the classical-to-quantum isomorphism from generator
    commutation and the extracted rows."""
    sf = to_standard_form(_load_valid_stab(file, "verify phi"))
    phi_report = statevec.verify_phi(sf)
    payload = dataclasses.asdict(phi_report)
    lines = [
        f"{name}: {'pass' if payload[name] else 'FAIL'}"
        for name in ("bijectivity_ok", "codeword_property_ok", "error_property_ok")
    ] + [f"counterexample: {line}" for line in phi_report.counterexamples]
    _report(as_json, payload, _lines(lines), code=0 if phi_report.all_ok else 1)


@main.command(name="bounds")
@click.option(
    "--channel",
    type=click.Choice(["adversarial", "depolarizing"]),
    required=True,
)
@click.option("--from", "delta_from", default=0.0, show_default=True, type=float)
@click.option("--to", "delta_to", default=0.25, show_default=True, type=float)
@click.option("--step", default=0.01, show_default=True, type=float)
@out_option
@json_option
def bounds_cmd(channel, delta_from, delta_to, step, out, as_json):
    """Emit capacity-bound curve data as CSV (or JSON records)."""
    args = (channel, delta_from, delta_to, step)
    points = _checked(list, bounds_mod.points(*args), code=2) if as_json else []
    rows = [
        {"delta": d, "curve": c.name, "kind": c.kind, "raw": c.raw(d), "clamped": c.clamped(d)}
        for d, c in points
    ]
    csv = "" if as_json else _checked(bounds_mod.emit_curves, *args, code=2)
    _report(as_json, {"channel": channel, "rows": rows}, csv, out)


if __name__ == "__main__":
    main()
