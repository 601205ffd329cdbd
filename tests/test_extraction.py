import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab2lin import gf2, lincode
from stab2lin.extraction import extract_classical
from stab2lin.formats import load_stabilizer
from stab2lin.stabilizer import (
    StabilizerCode,
    StandardForm,
    ensure_positive_r,
    quantum_distance,
    to_standard_form,
)

from util import data_path, random_css_code, random_stabilizer_code, rotated_surface_code


def _synthetic_sf(s, k, r, a1=None):
    """Standard form with prescribed A1 and every other free block zero."""
    a1 = np.zeros((s, k), np.uint8) if a1 is None else np.asarray(a1, np.uint8)
    matrix = np.block([
        [np.eye(s), a1, np.zeros((s, r + s + k + r))],
        [np.zeros((r, s + k + r + s + k)), np.eye(r)],
    ])
    return StandardForm(matrix, s + k + r, s, np.arange(s + k + r), [])


def test_extract_worked_example():
    sf = to_standard_form(load_stabilizer(data_path("eight_three.stab")))
    res = extract_classical(sf)
    assert res.generator.shape == (3, 7)
    assert res.parameters == (7, 3)
    assert res.theorem_parameters == (7, 3)
    assert not res.r_zero_warning
    md = lincode.min_distance(lincode.GeneratorMatrix(res.generator))
    assert md.weight_enumerator == {0: 1, 4: 7}
    assert md.distance == 4


def test_extract_is_a1t_i_block_exact():
    sf = to_standard_form(load_stabilizer(data_path("eight_three.stab")))
    res = extract_classical(sf)
    assert np.array_equal(res.generator[:, : sf.s], sf.a1.T)
    assert np.array_equal(res.generator[:, sf.s :], np.eye(sf.k, dtype=np.uint8))


def test_extract_k_zero_raises():
    sf = to_standard_form(StabilizerCode.from_paulis(["XX", "ZZ"]))
    with pytest.raises(ValueError, match="no encoded qubits"):
        extract_classical(sf)


def test_extract_zero_a1():
    res = extract_classical(_synthetic_sf(2, 3, 1))
    assert np.array_equal(
        res.generator, np.hstack([np.zeros((3, 2), np.uint8), np.eye(3, dtype=np.uint8)])
    )
    assert lincode.min_distance(lincode.GeneratorMatrix(res.generator)).distance == 1


def test_extract_s_zero_gives_identity():
    res = extract_classical(_synthetic_sf(0, 3, 1))
    assert np.array_equal(res.generator, np.eye(3, dtype=np.uint8))


def test_extract_r_zero_warning():
    sf = to_standard_form(load_stabilizer(data_path("five_one.stab")))
    assert sf.r == 0
    res = extract_classical(sf)
    assert res.r_zero_warning
    assert res.parameters == (5, 1)
    assert res.theorem_parameters == (4, 1)


def test_parity_check_consistency():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n))
        sf = to_standard_form(random_stabilizer_code(rng, n, m))
        if sf.k == 0:
            continue
        res = extract_classical(sf)
        parity_check = np.hstack([np.eye(sf.s, dtype=np.uint8), sf.a1])  # (I_s | A1)
        assert not gf2.mat_mul(res.generator, parity_check.T).any()
        assert gf2.rank(res.generator) == sf.k


def test_ensure_r_sharpens_five_one_to_four_one():
    code = load_stabilizer(data_path("five_one.stab"))
    fixed = ensure_positive_r(code).code
    sf = to_standard_form(fixed)
    assert sf.r >= 1
    res = extract_classical(sf)
    assert res.parameters == (4, 1)
    dc = lincode.min_distance(lincode.GeneratorMatrix(res.generator)).distance
    dq = quantum_distance(fixed).value
    assert dq == 3  # column ops preserve the distance
    assert (dc - 1) // 2 >= (dq - 1) // 2


def test_distance_inequality_on_corpus():
    for name in ("eight_three", "five_one", "four_two"):
        code = load_stabilizer(data_path(f"{name}.stab"))
        dq = quantum_distance(code)
        sf = to_standard_form(code)
        res = extract_classical(sf)
        dc = lincode.min_distance(lincode.GeneratorMatrix(res.generator)).distance
        assert (dc - 1) // 2 >= (dq.value - 1) // 2, name


def _extracted_distances(code: StabilizerCode) -> tuple[int, int]:
    """d_c of the (n - r, k) extraction and of the (n - 1, k) extraction
    after ``ensure_positive_r``."""
    return tuple(
        lincode.min_distance(lincode.GeneratorMatrix(extract_classical(sf).generator)).distance
        for sf in (to_standard_form(code), ensure_positive_r(code).standard_form)
    )


@given(st.booleans(), st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_quantum_distance_at_most_extracted_distance(css, n, seed):
    # d_q <= d_c for every code, degenerate or not, CSS or not
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))  # k >= 1
    if css:
        rz = int(rng.integers(0, m + 1))
        code = random_css_code(rng, n, m - rz, rz)
    else:
        code = random_stabilizer_code(rng, n, m)
    dq = quantum_distance(code).value
    assert all(dq <= dc for dc in _extracted_distances(code))


@pytest.mark.parametrize("d", range(2, 8))
def test_surface_code_extraction_is_tight(d):
    code = rotated_surface_code(d)
    assert quantum_distance(code).value == d
    assert _extracted_distances(code) == (d, d)
