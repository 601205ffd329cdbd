"""Text file formats for stabilizer codes and generator matrices.

Lines end at LF, CRLF or CR, and at nothing else.  A UTF-8 byte-order mark
at the start of a file is skipped.

Stabilizer files: UTF-8, '#' starts a comment, each non-blank line is either
a Pauli string over {I, X, Y, Z} (optional '+' prefix) or a binary line
"a_1...a_n|b_1...b_n".  One file, one format; mixing is rejected.

Generator matrix files: k lines of n characters over {0, 1}, '#' comments
permitted.
"""

from __future__ import annotations

import codecs

import numpy as np

from .lincode import GeneratorMatrix
from .pauli import PauliParseError, parse_pauli
from .stabilizer import StabilizerCode


class FormatError(ValueError):
    """Parse failure; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(text: str) -> list[str]:
    """The lines of a text, split at LF, CRLF and CR only (``str.splitlines``
    also splits at VT, FF, NEL, U+2028 and more)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(text: str):
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_stabilizer_text(text: str) -> StabilizerCode:
    rows = []
    mode = None  # "pauli" | "binary"
    for lineno, line in _content_lines(text):
        this_mode = "binary" if "|" in line else "pauli"
        if mode is None:
            mode = this_mode
        elif mode != this_mode:
            raise FormatError(
                f"mixed formats: file started with {mode} lines", lineno
            )
        if this_mode == "pauli":
            try:
                row = parse_pauli(line)
            except PauliParseError as exc:
                raise FormatError(str(exc), lineno) from exc
        else:
            left, _, right = line.partition("|")
            left, right = left.strip(), right.strip()
            if len(left) != len(right):
                raise FormatError(
                    f"a/b halves differ in length ({len(left)} vs {len(right)})", lineno
                )
            if not left or set(left + right) - {"0", "1"}:
                raise FormatError("binary line must be nonempty over {0,1}", lineno)
            row = np.frombuffer((left + right).encode(), np.uint8) - ord("0")
        if rows and len(row) != len(rows[0]):
            n = len(rows[0]) // 2
            raise FormatError(f"expected {n} positions, got {len(row) // 2}", lineno)
        rows.append(row)
    if not rows:
        raise FormatError("no generators found", 1)
    return StabilizerCode(np.array(rows), len(rows[0]) // 2)


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise FormatError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})", line) from exc


def load_stabilizer(path) -> StabilizerCode:
    return parse_stabilizer_text(_read_text(path))


def write_stabilizer_text(code: StabilizerCode, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.extend(code.pauli_strings())
    return "\n".join(lines) + "\n"


def parse_generator_text(text: str) -> GeneratorMatrix:
    rows = []
    n = None
    for lineno, line in _content_lines(text):
        if set(line) - {"0", "1"}:
            raise FormatError("generator rows must be over {0,1}", lineno)
        if n is None:
            n = len(line)
        elif len(line) != n:
            raise FormatError(f"expected {n} columns, got {len(line)}", lineno)
        rows.append(line)
    if not rows:
        raise FormatError("no generator rows found", 1)
    bits = np.frombuffer("".join(rows).encode(), np.uint8) - ord("0")
    return GeneratorMatrix(bits.reshape(-1, n))


def load_generator(path) -> GeneratorMatrix:
    return parse_generator_text(_read_text(path))


def write_generator_text(g: GeneratorMatrix, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.extend(row.tobytes().decode() for row in g.rows + ord("0"))
    return "\n".join(lines) + "\n"
