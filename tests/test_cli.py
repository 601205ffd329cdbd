import json
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin import _kernels, bounds, cli, stabilizer
from stab2lin.cli import main
from stab2lin.formats import write_generator_text

from util import (
    DATA,
    data_path,
    hamming_direct_sum,
    random_code,
    rotated_surface_code,
    surface_code_x_row_added,
)

runner = CliRunner()


def run(*args):
    return runner.invoke(main, [str(a) for a in args])


def test_validate_bundled_example():
    res = run("validate", data_path("eight_three.stab"))
    assert res.exit_code == 0
    assert "n=8 m=5 k=3" in res.output


def test_validate_json():
    res = run("validate", data_path("eight_three.stab"), "--json")
    payload = json.loads(res.stdout)
    assert payload["valid"] and payload["n"] == 8 and payload["m"] == 5 and payload["k"] == 3


def test_validate_anticommuting_exit_one(tmp_path):
    f = tmp_path / "bad.stab"
    f.write_text("XII\nZII\n")
    res = run("validate", f)
    assert res.exit_code == 1
    assert "1 and 2 anticommute" in res.output
    asjson = run("validate", f, "--json")
    assert json.loads(asjson.stdout)["anticommuting_pairs"] == [[1, 2]]


def test_validate_empty_file_parse_error(tmp_path):
    f = tmp_path / "empty.stab"
    f.write_text("")
    res = run("validate", f)
    assert res.exit_code == 2


@pytest.mark.parametrize("argv", [
    ("validate", "bad.stab"),
    ("distance", "bad.gmat", "--classical"),
    ("simulate", "bad.gmat", "--delta", "0.1"),
])
def test_non_utf8_file_parse_error(tmp_path, argv):
    f = tmp_path / argv[1]
    f.write_bytes(b"# comment\n\xff\n")
    res = run(argv[0], f, *argv[2:])
    assert res.exit_code == 2
    assert "line 2: not UTF-8" in res.output
    assert "Traceback" not in res.output


def test_standardize_worked_example():
    res = run("standardize", data_path("eight_three.stab"))
    assert res.exit_code == 0
    assert "s=4 k=3 r=1" in res.output


def test_standardize_json():
    res = run("standardize", data_path("eight_three.stab"), "--json")
    payload = json.loads(res.stdout)
    assert (payload["s"], payload["k"], payload["r"]) == (4, 3, 1)
    assert sorted(payload["qubit_permutation"]) == list(range(1, 9))
    # row additions of both eliminations plus the column transpositions
    assert payload["trace_length"] == 16
    payload = json.loads(run("standardize", data_path("five_one.stab"), "--json").stdout)
    assert (payload["s"], payload["k"], payload["r"], payload["trace_length"]) == (4, 1, 0, 4)


def test_standardize_single_z():
    res = run("standardize", data_path("single_z.stab"), "--json")
    payload = json.loads(res.stdout)
    assert (payload["s"], payload["k"], payload["r"]) == (0, 0, 1)


def test_standardize_single_x_ensure_r():
    res = run("standardize", data_path("single_x.stab"), "--ensure-r", "--json")
    payload = json.loads(res.stdout)
    assert payload["r"] == 1
    assert payload["ensure_r_ops"] == [["column-switch", [0]]]


def test_standardize_ensure_r_xxx_three_switches(tmp_path):
    f = tmp_path / "xxx.stab"
    f.write_text("XXX\n")
    res = run("standardize", f, "--ensure-r", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["ensure_r_ops"] == [["column-switch", [q]] for q in range(3)]
    assert payload["r"] == 1


def test_standardize_ensure_r_refused_past_the_work_guard(tmp_path, monkeypatch):
    # the lightest element, XXIII, weighs 2; the guard admits weight 1 only
    monkeypatch.setattr(_kernels, "MAX_JOIN_ENTRIES", _kernels.join_entries(5, 1, 1))
    f = tmp_path / "x2.stab"
    f.write_text("XIXXX\nIXXXX\n")
    for flags in ((), ("--json",)):
        res = run("standardize", f, "--ensure-r", *flags)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert f"would list {_kernels.join_entries(5, 2, 1):.2g} join keys" in res.stderr


def test_extract_ensure_r_json_reports_ops():
    res = run("extract", data_path("xx_two.stab"), "--ensure-r", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["ensure_r_ops"] == [["column-switch", [0]], ["column-switch", [1]]]
    assert payload["r"] == 1 and payload["parameters"] == [1, 1]
    plain = json.loads(run("extract", data_path("xx_two.stab"), "--json").stdout)
    assert plain["ensure_r_ops"] == [] and "ensure_r_minimal" not in plain


@pytest.mark.parametrize("name, reductions, validations", [
    # the CLI validates the loaded code once; the reduction checks its own input
    ("eight_three.stab", 1, 1),  # r = 1: the reduction ensure-r makes is the answer
    ("xx_two.stab", 2, 1),  # r = 0: the moved code is reduced once more
])
@pytest.mark.parametrize("command", ["standardize", "extract"])
def test_ensure_r_reduction_count(monkeypatch, command, name, reductions, validations):
    calls = {"validate": 0, "to_standard_form": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(stabilizer, attr, counted(getattr(stabilizer, attr)))
    monkeypatch.setattr(cli, "validate_code", stabilizer.validate)
    monkeypatch.setattr(cli, "to_standard_form", stabilizer.to_standard_form)
    res = run(command, data_path(name), "--ensure-r", "--json")
    assert res.exit_code == 0
    assert calls == {"validate": validations, "to_standard_form": reductions}


@pytest.mark.parametrize("command", ["standardize", "extract"])
def test_depth_option_is_a_usage_error(command):
    res = run(command, data_path("xx_two.stab"), "--ensure-r", "--depth", "3")
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_standardize_writes_output_file(tmp_path):
    out = tmp_path / "std.stab"
    res = run("standardize", data_path("eight_three.stab"), "-o", out)
    assert res.exit_code == 0
    text = out.read_text()
    assert text.startswith("# standard form: s=4 k=3 r=1")
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 5


OUT_COMMANDS = [
    ("standardize", data_path("eight_three.stab")),
    ("extract", data_path("eight_three.stab")),
    ("bounds", "--channel", "adversarial"),
]


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_unwritable_output_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "no-such-dir" / "out.txt"
    for as_json in ((), ("--json",)):
        res = run(*argv, *as_json, "-o", out)
        assert res.exit_code == 2, as_json
        assert isinstance(res.exception, SystemExit)
        assert f"error: cannot write {out}: No such file or directory" in res.stderr


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_json_goes_to_output_file(tmp_path, argv):
    out = tmp_path / "report.json"
    res = run(*argv, "--json", "-o", out)
    assert res.exit_code == 0
    assert res.stdout == ""
    assert out.read_text() == run(*argv, "--json").stdout
    json.loads(out.read_text())


def test_standardize_invalid_input():
    res = run("standardize", data_path("eight_three_mutated.stab"))
    assert res.exit_code == 1
    assert "invalid stabilizer code" in res.output


def test_extract_worked_example(tmp_path):
    out = tmp_path / "g.gmat"
    res = run("extract", data_path("eight_three.stab"), "-o", out)
    assert res.exit_code == 0
    assert "(7,3) classical code; theorem form (7,3)" in res.output
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 3 and all(len(r) == 7 for r in rows)


def test_extract_json_weight_enumerator_pipeline(tmp_path):
    res = run("extract", data_path("eight_three.stab"), "--json")
    payload = json.loads(res.stdout)
    assert payload["parameters"] == [7, 3]
    out = tmp_path / "g.gmat"
    out.write_text("\n".join(payload["rows"]) + "\n")
    dist = run("distance", out, "--classical", "--json")
    dp = json.loads(dist.stdout)
    assert dp["distance"] == 4
    assert dp["weight_enumerator"] == {"0": 1, "4": 7}


def test_extract_k_zero_exit_one():
    res = run("extract", data_path("single_z.stab"))
    assert res.exit_code == 1
    assert "no encoded qubits" in res.output


def test_extract_r_zero_warning():
    res = run("extract", data_path("five_one.stab"))
    assert res.exit_code == 0
    assert "warning: r = 0" in res.output
    res2 = run("extract", data_path("five_one.stab"), "--ensure-r")
    assert res2.exit_code == 0
    assert "warning" not in res2.output


def test_distance_quantum():
    res = run("distance", data_path("eight_three.stab"), "--quantum")
    assert res.exit_code == 0
    assert res.output.strip() == "d=3 t=1"


def test_distance_quantum_cap():
    res = run("distance", data_path("eight_three.stab"), "--quantum", "--cap", "2")
    assert res.output.strip() == "distance > 2 (cap exceeded)"


def test_distance_quantum_k_zero_undefined():
    res = run("distance", data_path("single_z.stab"), "--quantum")
    assert res.exit_code == 0
    assert res.output.strip() == "no logical operators (k = 0); distance undefined"
    payload = json.loads(run("distance", data_path("single_z.stab"), "--quantum", "--json").stdout)
    assert payload["distance"] is None and payload["exceeded"] is False
    assert payload["stopped_by"] is None and payload["predicted_keys"] is None


def test_distance_quantum_work_limit(tmp_path, monkeypatch):
    path = tmp_path / "surface5.stab"
    code = surface_code_x_row_added(5)
    # still CSS, so two one-letter joins per weight, and not a graph as
    # given, so the join runs
    assert stabilizer.is_css(code) and stabilizer._graphs(code) is None
    path.write_text("\n".join(code.pauli_strings()) + "\n")
    monkeypatch.setattr(_kernels, "MAX_JOIN_ENTRIES", 2 * _kernels.join_entries(25, 4, 1))
    res = run("distance", path, "--quantum")
    assert res.exit_code == 0
    assert res.output.startswith("distance > 4 (work limit: searching weight 5 ")
    assert f"would list {2 * _kernels.join_entries(25, 5, 1):.2g} join keys" in res.output
    payload = json.loads(run("distance", path, "--quantum", "--json").stdout)
    assert payload["stopped_by"] == "work-limit" and payload["searched"] == 4
    assert payload["distance"] is None and payload["exceeded"] is False
    assert payload["predicted_keys"] == 2 * _kernels.join_entries(25, 5, 1)


def test_distance_quantum_surface_d11_exact(tmp_path):
    # the join would refuse weight 10; the cycle route answers exactly
    path = tmp_path / "surface11.stab"
    path.write_text("\n".join(rotated_surface_code(11).pauli_strings()) + "\n")
    res = run("distance", path, "--quantum")
    assert res.exit_code == 0
    assert res.output == "d=11 t=5\n"


def test_distance_quantum_cap_json():
    res = run("distance", data_path("eight_three.stab"), "--quantum", "--cap", "2", "--json")
    payload = json.loads(res.stdout)
    assert payload["exceeded"] is True and payload["stopped_by"] == "cap"
    assert (payload["distance"], payload["cap"], payload["searched"]) == (None, 2, 2)
    assert payload["predicted_keys"] is None


def test_distance_quantum_invalid_code_exit_one():
    res = run("distance", data_path("eight_three_mutated.stab"), "--quantum")
    assert res.exit_code == 1
    assert "anticommuting pairs: (1,2)" in res.output


def test_distance_cap_below_one_exit_two():
    for cap in ("0", "-3"):
        res = run("distance", data_path("eight_three.stab"), "--quantum", "--cap", cap)
        assert res.exit_code == 2, cap


def test_distance_classical():
    res = run("distance", data_path("seven_three.gmat"), "--classical")
    assert res.output.strip() == "d=4 t=1"


def test_distance_classical_past_the_enumeration_limit(tmp_path):
    # eight [7,4,3] Hamming codes: k = 32 > 28, so d alone, from the join
    path = tmp_path / "hamming8.gmat"
    path.write_text(write_generator_text(hamming_direct_sum(8)))
    res = run("distance", path, "--classical")
    assert res.exit_code == 0
    assert res.stdout == "d=3 t=1; weight enumerator not computed (2^k * ceil(n/64) > 2^28)\n"
    payload = json.loads(run("distance", path, "--classical", "--json").stdout)
    assert (payload["distance"], payload["t"], payload["weight_enumerator"]) == (3, 1, None)


@pytest.mark.parametrize("text, message", [
    ("11\n11\n", "generator rows must be independent"),
    ("000\n", "generator rows must be independent"),
    ("1\n0\n", "k must not exceed n"),
])
@pytest.mark.parametrize("argv", [
    ("distance", "--classical"),
    ("simulate", "--delta", "0.1"),
    ("simulate", "--delta", "0.1", "--exact"),
])
def test_gmat_that_is_not_a_code_exit_one(tmp_path, argv, text, message):
    # the file parses, but its rows do not generate an (n, k) code
    path = tmp_path / "bad.gmat"
    path.write_text(text)
    res = run(argv[0], path, *argv[1:])
    assert res.exit_code == 1
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


def test_distance_requires_mode():
    res = run("distance", data_path("seven_three.gmat"))
    assert res.exit_code == 2


@pytest.mark.parametrize("flags, message", [
    (("--classical", "--quantum"), "choose one of --quantum or --classical"),
    (("--quantum", "--classical"), "choose one of --quantum or --classical"),
    (("--classical", "--cap", "2"), "--cap applies only to --quantum"),
])
@pytest.mark.parametrize("name", ["five_one.stab", "seven_three.gmat"])
def test_distance_contradictory_flags_are_usage_errors(flags, message, name):
    # no flag wins silently: both modes, or a cap without the quantum search
    res = run("distance", data_path(name), *flags)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert message in res.stderr and res.stdout == ""


def test_extracted_file_parses_whatever_the_source_name(tmp_path):
    # the source path goes into a comment; its line breaks must not end it
    for name in ("a\nb.stab", "a\rb.stab", "a\r\nb.stab"):
        src = tmp_path / name
        src.write_bytes((DATA / "eight_three.stab").read_bytes())
        out = tmp_path / "out.gmat"
        assert run("extract", src, "-o", out).exit_code == 0
        res = run("distance", out, "--classical")
        assert res.exit_code == 0, (name, res.output)
        assert res.output == "d=4 t=1\n"


def test_simulate_exact():
    res = run("simulate", data_path("five_two.gmat"), "--delta", "0.1", "--exact", "--json")
    payload = json.loads(res.stdout)
    assert payload["method"] == "exact-enumeration"
    assert abs(payload["success_probability"] - 0.9477) < 1e-12


def test_simulate_delta_zero():
    res = run(
        "simulate", data_path("five_two.gmat"), "--delta", "0", "--trials", "100", "--json"
    )
    assert json.loads(res.stdout)["success_probability"] == 1.0


def test_simulate_deterministic():
    args = ("simulate", data_path("five_two.gmat"), "--delta", "0.1",
            "--trials", "2000", "--seed", "11")
    assert run(*args).output == run(*args).output


def test_simulate_bad_delta_exit_two():
    for delta in ("0.7", "-0.1", "nan"):
        for mode in ("--exact", "--json"):
            res = run("simulate", data_path("five_two.gmat"), "--delta", delta, mode)
            assert res.exit_code == 2, (delta, mode)
            assert "[0, 1/2]" in res.output


def test_simulate_bad_trials_exit_two():
    for trials in ("0", "-5"):
        res = run("simulate", data_path("five_two.gmat"), "--delta", "0.1", "--trials", trials)
        assert res.exit_code == 2, trials


def test_simulate_exact_limit_exit_one(tmp_path):
    # a (25,1) code has 2^24 syndromes, past the exact-channel limit
    path = tmp_path / "long.gmat"
    path.write_text("1" + "0" * 24 + "\n", encoding="utf-8")
    res = run("simulate", path, "--delta", "0.1", "--exact")
    assert res.exit_code == 1
    assert "n - k" in res.output and "Monte Carlo" in res.output
    assert run("simulate", path, "--delta", "0.1", "--trials", "200").exit_code == 0


def test_simulate_monte_carlo_work_guard_exit_one(tmp_path):
    # a (50,22) code on the codeword path: 20000 trials at delta = 0.1 would
    # compare about 6e10 trial-codeword pairs, so it is refused up front
    path = tmp_path / "fifty_22.gmat"
    rows = random_code(50, 22, 0, False, False).rows
    path.write_text("".join("".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    start = time.perf_counter()
    res = run("simulate", path, "--delta", "0.1", "--trials", "20000")
    assert time.perf_counter() - start < 5
    assert res.exit_code == 1
    assert "fewer trials" in res.output and "syndrome lookup" in res.output


@pytest.mark.parametrize("rows", [
    "1110100\n1101010\n1011001\n",  # (7,3), n - k > k: the codeword path
    "100110\n010101\n001011\n",  # (6,3), n - k <= k: the syndrome path
])
def test_simulate_whole_run_guard_exit_one(tmp_path, rows):
    # 10^12 trials draw 6-7e12 trial bits: refused up front on either path
    path = tmp_path / "code.gmat"
    path.write_text(rows)
    start = time.perf_counter()
    res = run("simulate", path, "--delta", "0.05", "--trials", 10**12)
    assert time.perf_counter() - start < 5
    assert res.exit_code == 1
    assert "trial bits" in res.stderr and "fewer trials" in res.stderr


def test_verify_phi_passes():
    res = run("verify-phi", data_path("eight_three.stab"))
    assert res.exit_code == 0
    assert "bijectivity_ok: pass" in res.output


def test_verify_phi_json():
    res = run("verify-phi", data_path("eight_three.stab"), "--json")
    assert json.loads(res.stdout) == {
        "bijectivity_ok": True,
        "codeword_property_ok": True,
        "error_property_ok": True,
        "counterexamples": [],
    }


def test_verify_phi_mutated_fixture_fails_with_counterexample():
    res = run("verify-phi", data_path("eight_three_mutated.stab"))
    assert res.exit_code == 1
    assert "anticommuting pairs" in res.output
    assert "(1,2)" in res.output


def test_verify_phi_past_old_cap_n16(tmp_path):
    # n = 16 was past the 2^n statevector cap of 12
    path = tmp_path / "surface4.stab"
    path.write_text("\n".join(rotated_surface_code(4).pauli_strings()) + "\n")
    res = run("verify-phi", path)
    assert res.exit_code == 0, res.output
    assert "codeword_property_ok: pass" in res.output


def test_bounds_csv():
    res = run("bounds", "--channel", "adversarial", "--from", "0", "--to", "0.25",
              "--step", "0.05")
    lines = res.output.strip().split("\n")
    assert lines[0] == "delta,curve,raw,clamped"
    assert len(lines) == 1 + 6 * 4
    assert "0.25,mrrw_adversarial,0,0" in lines


def test_bounds_output_file_and_json(tmp_path):
    out = tmp_path / "curves.csv"
    res = run("bounds", "--channel", "depolarizing", "-o", out)
    assert res.exit_code == 0
    assert out.read_text() == bounds.emit_curves("depolarizing", 0.0, 0.25, 0.01)
    jres = run("bounds", "--channel", "depolarizing", "--json", "--to", "0.1",
               "--step", "0.05")
    payload = json.loads(jres.stdout)
    assert payload["channel"] == "depolarizing"
    assert len(payload["rows"]) == 3 * 3


def test_bounds_invalid_grid_exit_two():
    res = run("bounds", "--channel", "adversarial", "--step", "0")
    assert res.exit_code == 2
    for flag, value in (("--from", "nan"), ("--to", "inf"), ("--from", "-inf"),
                        ("--step", "inf"), ("--step", "nan")):
        for extra in ((), ("--json",)):
            res = run("bounds", "--channel", "adversarial", flag, value, *extra)
            assert res.exit_code == 2, (flag, value)
            assert f"grid '{flag[2:]}' must be finite" in res.stderr, (flag, value)


def test_bounds_oversized_grid_exit_two():
    # 2.5e8 points: refused up front, not looped over
    for extra in ((), ("--json",)):
        res = run("bounds", "--channel", "adversarial", "--step", "1e-9", *extra)
        assert res.exit_code == 2
        assert "more than 1000000 points" in res.output


def test_commands_deterministic_byte_identical():
    for args in (
        ("validate", data_path("eight_three.stab"), "--json"),
        ("standardize", data_path("eight_three.stab")),
        ("extract", data_path("eight_three.stab"), "--json"),
        ("distance", data_path("eight_three.stab"), "--quantum", "--json"),
        ("bounds", "--channel", "adversarial", "--to", "0.1", "--step", "0.05"),
    ):
        assert run(*args).output == run(*args).output


def test_pipeline_reproduces_shipped_summary_table(tmp_path):
    with open(data_path("corpus_summary.csv")) as f:
        shipped = f.read().strip().splitlines()
    header = shipped[0].split(",")
    for line in shipped[1:]:
        row = dict(zip(header, line.split(",")))
        stab = data_path(f"{row['code']}.stab")
        sj = json.loads(run("standardize", stab, "--json").stdout)
        assert (sj["s"], sj["k"], sj["r"]) == (int(row["s"]), int(row["k"]), int(row["r"]))
        ej = json.loads(run("extract", stab, "--json").stdout)
        assert ej["parameters"] == [int(row["classical_n"]), int(row["classical_k"])]
        dq = json.loads(run("distance", stab, "--quantum", "--json").stdout)
        assert (dq["distance"], dq["t"]) == (int(row["d_quantum"]), int(row["t_quantum"]))
        gfile = tmp_path / f"{row['code']}.gmat"
        gfile.write_text("\n".join(ej["rows"]) + "\n")
        dc = json.loads(run("distance", gfile, "--classical", "--json").stdout)
        assert (dc["distance"], dc["t"]) == (int(row["d_classical"]), int(row["t_classical"]))


# Exit-code fuzz: argv drawn from a small grammar over every command, flag
# and value (bad numbers included) and random file contents, raw bytes too.
NUMBERS = ("0", "1", "2", "-3", "0.05", "0.5", "0.7", "nan", "inf", "-inf", "1e-9", "abc", "")
COMMAND_FLAGS = {
    "validate": ("--json",),
    "standardize": ("--json", "--ensure-r", "-o"),
    "extract": ("--json", "--ensure-r", "-o"),
    "distance": ("--json", "--quantum", "--classical", "--cap"),
    "simulate": ("--json", "--delta", "--trials", "--seed", "--exact"),
    "verify-phi": ("--json",),
    "bounds": ("--json", "--channel", "--from", "--to", "--step", "-o"),
    "no-such-command": ("--json",),
}
VALUED = {"--cap", "--delta", "--trials", "--seed", "--from", "--to", "--step"}
FILE_TEXT = st.one_of(
    st.text(alphabet="IXYZ01|+# \n", max_size=40),
    *(
        st.integers(1, 6).flatmap(lambda n, a=alphabet: st.lists(
            st.text(alphabet=a, min_size=n, max_size=n), min_size=1, max_size=6
        )).map("\n".join)
        for alphabet in ("IXYZ", "01")
    ),
)
FILE_BYTES = st.one_of(FILE_TEXT.map(str.encode), st.binary(max_size=40))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def fuzz_argv(draw, fuzz_dir):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    if command != "bounds":
        choice = draw(st.sampled_from(("stab", "gmat", "data", "missing")))
        if choice == "data":
            path = data_path(draw(st.sampled_from(
                ("eight_three.stab", "five_one.stab", "single_z.stab", "seven_three.gmat",
                 "eight_three_mutated.stab"))))
        else:
            path = fuzz_dir / f"input.{choice}"
            path.unlink(missing_ok=True)
            if choice != "missing":
                path.write_bytes(draw(FILE_BYTES))
        argv.append(str(path))
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=4, unique=True)):
        argv.append(flag)
        if flag in VALUED:
            argv.append(draw(st.sampled_from(NUMBERS)))
        elif flag == "--channel":
            argv.append(draw(st.sampled_from(("adversarial", "depolarizing", "bogus"))))
        elif flag == "-o":
            argv.append(str(fuzz_dir / draw(st.sampled_from(("out.txt", "no-such-dir/out.txt")))))
    return argv


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzz_exit_codes(fuzz_dir, data):
    argv = data.draw(fuzz_argv(fuzz_dir))
    res = runner.invoke(main, argv)
    assert res.exit_code in (0, 1, 2), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exception)
    assert "Traceback" not in res.output, argv
