"""Wick moments, covariances, shifted moments, and the difference bound."""

import numpy as np
import pytest
from conftest import wick_recursive
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import (
    CostGuardError,
    Covariance,
    ProductState,
    Region,
    SI,
    SX,
    SY,
    SZ,
    SiteOperator,
    SiteState,
    chain_metric,
    covariance_from_state,
    covariance_norm_estimate,
    double_factorial,
    expect,
    gamma_consistency_check,
    gamma_form,
    hermitian_basis,
    identity,
    induced_moment,
    pure_state,
    random_density,
    random_hermitian_unit,
    shifted_wick_moment,
    wick_difference_bound_check,
    wick_moment,
)
from flab import fluctuations, gaussian
from flab.gaussian import wick_difference_bound_table

RNG = np.random.default_rng(1618)

ONE = identity(1)


# =============================================================================
# Covariance container
# =============================================================================

def test_covariance_values_ground_state():
    rho = pure_state([1.0, 0.0])
    cov = covariance_from_state(rho)
    assert cov.value(SX, SX) == pytest.approx(1.0, abs=1e-13)
    assert cov.value(SY, SY) == pytest.approx(1.0, abs=1e-13)
    assert cov.value(SZ, SZ) == pytest.approx(0.0, abs=1e-13)
    assert cov.value(SX, SY) == pytest.approx(1j, abs=1e-13)
    assert cov.value(SY, SX) == pytest.approx(-1j, abs=1e-13)


def _covariance_loop(omega):
    """Reference for covariance_from_state: one trace per basis pair."""
    basis = hermitian_basis(omega.dim)
    singles = [expect(omega, h) for h in basis]
    m = np.empty((len(basis), len(basis)), dtype=complex)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            m[i, j] = complex(np.trace(omega.rho @ a.mat @ b.mat)) - singles[i] * singles[j]
    return m


@pytest.mark.parametrize("d", [2, 3, 4])
def test_covariance_matrix_bit_identical_to_loop(d):
    rng = np.random.default_rng(d)
    for k in range(50):
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        omega = random_density(rng, d) if k % 5 else pure_state(ket)
        assert covariance_from_state(omega).matrix.tobytes() == _covariance_loop(omega).tobytes()


def test_covariance_bilinearity():
    cov = covariance_from_state(random_density(RNG, 2))
    for _ in range(20):
        a = SiteOperator(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        b = SiteOperator(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        c = SiteOperator(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        s = complex(RNG.normal(), RNG.normal())
        lhs = cov.value(a, s * b + c)
        rhs = s * cov.value(a, b) + cov.value(a, c)
        assert abs(lhs - rhs) < 1e-10


def test_covariance_quadratic_form_is_positive():
    """W(a, a) is a variance for hermitian a, so it never goes negative."""
    for _ in range(500):
        rho = random_density(RNG, 2)
        cov = covariance_from_state(rho)
        a = random_hermitian_unit(RNG, 2)
        v = cov.value(a, a)
        assert v.real >= -1e-12
        assert abs(v.imag) < 1e-12


def test_covariance_matches_truncated_two_point():
    rho = random_density(RNG, 2)
    cov = covariance_from_state(rho)
    for _ in range(30):
        a = SiteOperator(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        b = SiteOperator(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        direct = np.trace(rho.rho @ a.mat @ b.mat) - np.trace(
            rho.rho @ a.mat
        ) * np.trace(rho.rho @ b.mat)
        assert abs(cov.value(a, b) - direct) < 1e-11


# =============================================================================
# Wick moments
# =============================================================================

def test_wick_scalar_law():
    w = Covariance(1, [[1.0]])
    for n, want in [(2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)]:
        assert wick_moment(w, (ONE,) * n) == pytest.approx(want, abs=1e-12)
        assert want == float(double_factorial(n - 1))
    assert wick_moment(w, (ONE,) * 3) == 0.0
    assert wick_moment(w, ()) == pytest.approx(1.0, abs=1e-15)


def test_wick_four_point_formula():
    cov = covariance_from_state(random_density(RNG, 2))
    ops = [SiteOperator(random_hermitian_unit(RNG, 2).mat) for _ in range(4)]
    a, b, c, d = ops
    got = wick_moment(cov, ops)
    want = (
        cov.value(a, b) * cov.value(c, d)
        + cov.value(a, c) * cov.value(b, d)
        + cov.value(a, d) * cov.value(b, c)
    )
    assert abs(got - want) < 1e-12


def test_wick_matches_recursion_oracle():
    for trial in range(6):
        cov = covariance_from_state(random_density(RNG, 2))
        n = [2, 4, 6, 8, 4, 6][trial]
        word = tuple(
            SiteOperator(random_hermitian_unit(RNG, 2).mat) for _ in range(n)
        )
        got = wick_moment(cov, word)
        want = wick_recursive(lambda a, b: cov.value(a, b), list(word))
        assert abs(got - want) < 1e-11


def _bits(z) -> list[int]:
    return np.array([z], dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_degree_two_wick_is_the_covariance_value_bit_for_bit(d):
    """W(a, b) has one form: ``value`` reads the pair-matrix entry that
    the Wick sum multiplies."""
    rng = np.random.default_rng(40 + d)
    nb = d * d
    for _ in range(125):
        cov = Covariance(d, rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb)))
        a, b = (
            SiteOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in "ab"
        )
        assert _bits(wick_moment(cov, (a, b))) == _bits(cov.value(a, b))


def test_wick_guard():
    w = Covariance(1, [[1.0]])
    with pytest.raises(CostGuardError):
        wick_moment(w, (ONE,) * 14)


def test_wick_limit_of_product_moments():
    """Induced moments converge to the Wick value at rate 1/|X|."""
    rho = SiteState(np.diag([0.75, 0.25]))
    ps = ProductState(rho)
    cov = covariance_from_state(rho)
    word = (SX, SZ, SX, SZ)
    wick = wick_moment(cov, word)
    gaps = []
    for size in (8, 16, 32, 64):
        region = Region(ps.metric, range(size))
        gaps.append(abs(induced_moment(ps, region, word) - wick))
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g2 <= g1 * 0.55  # halving the gap when the size doubles
    assert gaps[-1] < 0.03


# =============================================================================
# Shifted Wick moments
# =============================================================================

def test_shifted_wick_reduces_to_wick_at_zero_shift():
    """A zero shift leaves only the full sub-word: the Wick moment, bit for bit."""
    rng = np.random.default_rng(60)
    for k in range(300):
        d = 1 + k % 4
        cov = covariance_from_state(random_density(rng, d))
        word = tuple(SiteOperator(random_hermitian_unit(rng, d).mat) for _ in range(k % 9))
        got = shifted_wick_moment(cov, lambda a: 0.0, word)
        assert _bits(got) == _bits(wick_moment(cov, word)), (d, len(word))


def test_shifted_wick_scalar_cases():
    w = Covariance(1, [[1.0]])
    m = 0.7
    assert shifted_wick_moment(w, lambda a: m, ()) == 1.0
    assert shifted_wick_moment(w, lambda a: m, (ONE,)) == pytest.approx(
        m, abs=1e-14
    )
    assert shifted_wick_moment(w, lambda a: m, (ONE, ONE)) == pytest.approx(
        1.0 + m * m, abs=1e-14
    )
    # third scalar moment of a unit gaussian with mean m: m^3 + 3m
    assert shifted_wick_moment(w, lambda a: m, (ONE,) * 3) == pytest.approx(
        m**3 + 3 * m, abs=1e-13
    )


def test_shifted_wick_subset_oracle():
    """Sum over even-complement subsets with first-moment prefactors."""
    import itertools

    cov = covariance_from_state(random_density(RNG, 2))
    rho = random_density(RNG, 2)

    def shift(a):
        return complex(np.trace(rho.rho @ a.mat))

    for n in (2, 3, 4):
        word = tuple(
            SiteOperator(random_hermitian_unit(RNG, 2).mat) for _ in range(n)
        )
        got = shifted_wick_moment(cov, shift, word)
        want = 0.0 + 0.0j
        for k in range(n + 1):
            for keep in itertools.combinations(range(n), k):
                rest = [word[i] for i in range(n) if i not in keep]
                prefac = 1.0 + 0.0j
                for i in keep:
                    prefac *= shift(word[i])
                want += prefac * wick_moment(cov, rest)
        assert abs(got - want) < 1e-11


# =============================================================================
# The difference bound
# =============================================================================

def test_difference_bound_saturation_cases():
    w1 = Covariance(1, [[1.0]])
    w2 = Covariance(1, [[2.0]])
    chk2 = wick_difference_bound_check(w1, w2, (ONE, ONE))
    assert chk2.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk2.rhs == pytest.approx(1.0, abs=1e-12)
    assert chk2.passed
    chk4 = wick_difference_bound_check(w1, w2, (ONE,) * 4)
    assert chk4.lhs == pytest.approx(9.0, abs=1e-12)
    assert chk4.rhs == pytest.approx(9.0, abs=1e-12)
    assert chk4.passed


def test_difference_bound_random_pairs():
    word4 = (SX, SY, SZ, SX)
    for idx in range(25):
        ca = covariance_from_state(random_density(RNG, 2))
        cb = covariance_from_state(random_density(RNG, 2))
        for n in (2, 4):
            chk = wick_difference_bound_check(
                ca, cb, word4[:n], search_budget=16, seed=idx
            )
            assert chk.passed, (idx, n)
            assert chk.lhs <= chk.rhs_padded + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.integers(min_value=0, max_value=8),
)
def test_difference_table_rows_equal_per_word_checks(seed, budget):
    """Each row of the table equals the one-word check of its pair field
    for field, with 1 to 4 pairs whose base seeds overlap."""
    rng = np.random.default_rng(seed)
    pairs = [
        (
            covariance_from_state(random_density(rng, 2)),
            covariance_from_state(random_density(rng, 2)),
            seed % 1000 + int(rng.integers(0, 4)),
        )
        for _ in range(int(rng.integers(1, 5)))
    ]
    words = [
        tuple(random_hermitian_unit(rng, 2) for _ in range(n)) for n in (2, 4, 2)
    ]
    tables = wick_difference_bound_table(pairs, words, search_budget=budget)
    assert len(tables) == len(pairs)
    for (ca, cb, search_seed), rows in zip(pairs, tables):
        assert len(rows) == len(words)
        for word, row in zip(words, rows):
            assert row == wick_difference_bound_check(
                ca, cb, word, search_budget=budget, seed=search_seed
            )


def test_difference_table_validates_every_word_before_searching(monkeypatch):
    """A bad word anywhere in the table raises before any norm search."""

    def no_search(*args, **kwargs):
        raise AssertionError("searched before validating the words")

    monkeypatch.setattr(fluctuations, "_search_stack", no_search)
    monkeypatch.setattr(gaussian, "_search_stack", no_search)
    cov = covariance_from_state(random_density(RNG, 2))
    cases = [
        ([(SX, SY), (SX,) * 3], ValueError, "even positive degree"),
        ([(SX, SY), (SX,) * 10], CostGuardError, "degree 10 exceeds 8"),
        ([(SX, SY), (SX, SiteOperator(np.zeros((2, 2))))], ValueError, "zero operator"),
    ]
    for words, exc, match in cases:
        with pytest.raises(exc, match=match):
            wick_difference_bound_table([(cov, cov, 0), (cov, cov, 1)], words)
    assert wick_difference_bound_table([(cov, cov, 0)], []) == [[]]


def test_difference_bound_vanishes_on_equal_covariances():
    cov = covariance_from_state(random_density(RNG, 2))
    chk = wick_difference_bound_check(cov, cov, (SX, SY), search_budget=4)
    assert chk.lhs < 1e-13
    assert chk.norm_difference < 1e-12


def test_covariance_norm_estimate():
    rho = pure_state([1.0, 0.0])
    cov = covariance_from_state(rho)
    est = covariance_norm_estimate(cov, search_budget=8, seed=2)
    # |W(sx, sx)| = 1 is reachable, and padded searches stay above it
    assert est.value >= 1.0 - 1e-12


# =============================================================================
# Gamma consistency
# =============================================================================

def test_gamma_consistency_random_states():
    for _ in range(20):
        rho = random_density(RNG, 2)
        cov = covariance_from_state(rho)
        chk = gamma_consistency_check(cov, rho)
        assert chk.passed
        assert chk.max_deviation < 1e-12


def test_gamma_antisymmetric_part_of_covariance():
    """W(a, b) - W(b, a) recovers the commutator form on basis pairs."""
    rho = random_density(RNG, 2)
    cov = covariance_from_state(rho)
    basis = hermitian_basis(2)
    for a in basis:
        for b in basis:
            skew = cov.value(a, b) - cov.value(b, a)
            assert abs(skew - gamma_form(rho, a, b)) < 1e-12
