import codecs

import numpy as np
import pytest

from stab2lin.formats import (
    FormatError,
    load_generator,
    load_stabilizer,
    parse_generator_text,
    parse_stabilizer_text,
    write_generator_text,
    write_stabilizer_text,
)
from stab2lin.lincode import GeneratorMatrix

from util import data_path


def test_parse_pauli_file():
    code = parse_stabilizer_text("# header\nXZ\nZX  # inline comment\n")
    assert code.n == 2 and code.m == 2
    assert code.pauli_strings() == ["XZ", "ZX"]


def test_parse_plus_prefix():
    code = parse_stabilizer_text("+XX\n+ZZ\n")
    assert code.pauli_strings() == ["XX", "ZZ"]


def test_parse_binary_file():
    code = parse_stabilizer_text("10|01\n01|10\n")
    assert code.pauli_strings() == ["XZ", "ZX"]


def test_parse_bundled_binary_to_pauli_strings():
    code = load_stabilizer(data_path("eight_three.stab"))
    assert code.pauli_strings()[2] == "XIXIZYZY"


def test_mixed_formats_rejected():
    with pytest.raises(FormatError) as exc:
        parse_stabilizer_text("XZ\n10|01\n")
    assert exc.value.line == 2


def test_parse_error_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_stabilizer_text("# comment\nXZ\nXQ\n")
    assert exc.value.line == 3


def test_nonuniform_length_rejected():
    with pytest.raises(FormatError) as exc:
        parse_stabilizer_text("XZ\nXZZ\n")
    assert exc.value.line == 2


def test_binary_half_mismatch():
    with pytest.raises(FormatError):
        parse_stabilizer_text("10|011\n")
    with pytest.raises(FormatError):
        parse_stabilizer_text("1a|01\n")


def test_empty_file_rejected():
    with pytest.raises(FormatError):
        parse_stabilizer_text("")
    with pytest.raises(FormatError):
        parse_stabilizer_text("# only comments\n\n")


def test_stabilizer_roundtrip():
    code = load_stabilizer(data_path("eight_three.stab"))
    text = write_stabilizer_text(code, ["roundtrip"])
    again = parse_stabilizer_text(text)
    assert np.array_equal(again.matrix, code.matrix)


def test_generator_file_roundtrip():
    g = load_generator(data_path("five_two.gmat"))
    assert g.k == 2 and g.n == 5
    text = write_generator_text(g, ["comment"])
    again = parse_generator_text(text)
    assert np.array_equal(again.rows, g.rows)


def test_comments_with_line_breaks_stay_comments():
    # a comment is split where the parser splits lines; every piece is commented
    comments = ["a\nXQ", "b\rZZ", "c\r\n01", "", "d\v\fe"]
    code = load_stabilizer(data_path("eight_three.stab"))
    text = write_stabilizer_text(code, comments)
    assert text.startswith("# a\n# XQ\n# b\n# ZZ\n# c\n# 01\n# \n# d\v\fe\n")
    assert parse_stabilizer_text(text) == code
    g = load_generator(data_path("five_two.gmat"))
    again = parse_generator_text(write_generator_text(g, comments))
    assert np.array_equal(again.rows, g.rows)


def test_generator_bad_alphabet():
    with pytest.raises(FormatError) as exc:
        parse_generator_text("10110\n012a1\n")
    assert exc.value.line == 2


def test_generator_nonuniform():
    with pytest.raises(FormatError):
        parse_generator_text("101\n10\n")


def test_generator_empty():
    with pytest.raises(FormatError):
        parse_generator_text("# nothing\n")


def test_generator_dependent_rows_rejected():
    with pytest.raises(ValueError):
        parse_generator_text("11\n11\n")


def test_generator_type():
    assert isinstance(load_generator(data_path("seven_three.gmat")), GeneratorMatrix)


@pytest.mark.parametrize("text, line, message", [
    # VT and FF end no line: each is a bad symbol inside line 1
    ("X\vZ\nQQ\n", 1, "invalid symbol '\\x0b' at position 2"),
    ("XZ\fZX\n", 1, "invalid symbol '\\x0c' at position 3"),
    ("XZ\x85ZX\n", 1, "invalid symbol '\\x85' at position 3"),
    ("XZ\u2028ZX\n", 1, "invalid symbol '\\u2028' at position 3"),
    # LF, CRLF and CR each end one line
    ("XZ\r\nZX\rXQ\n", 3, "invalid symbol 'Q' at position 2"),
])
def test_lines_end_at_lf_crlf_and_cr_only(text, line, message):
    with pytest.raises(FormatError) as exc:
        parse_stabilizer_text(text)
    assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"


def test_line_breaks_in_generator_files():
    assert parse_generator_text("10\r\n01\r").k == 2
    with pytest.raises(FormatError) as exc:
        parse_generator_text("10\f01\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("data, line", [
    (b"XZ\vZX\n\xff\n", 2),
    (b"XZ\x0cZX\xff\n", 1),
    (b"XZ\r\nZX\rZZ\n\xff", 4),
    (b"\xc2\x85XZ\n\xff", 2),  # NEL is a character of line 1
    (b"\xff", 1),
    (b"\xef\xbb\xbfXZ\n\xff\n", 2),  # the skipped byte-order mark moves no offset
])
def test_utf8_error_line_counts_lines_as_the_parser_does(tmp_path, data, line):
    path = tmp_path / "bad.stab"
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        load_stabilizer(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: not UTF-8 text (byte 0xff)")


@pytest.mark.parametrize("name, text, load", [
    ("pauli.stab", b"XX\nZZ\n", lambda path: load_stabilizer(path).pauli_strings()),
    ("binary.stab", b"11|00\n00|11\n", lambda path: load_stabilizer(path).pauli_strings()),
    ("code.gmat", b"110\n011\n", lambda path: load_generator(path).rows.tolist()),
])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, name, text, load):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    assert load(marked) == load(plain)
