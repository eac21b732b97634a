"""Single-site operator and state primitives."""

import numpy as np
import pytest
from conftest import neumaier_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import (
    KahanSum,
    SI,
    SX,
    SY,
    SZ,
    SiteOperator,
    SiteState,
    center,
    commutator,
    expect,
    hermitian_basis,
    hs_coefficients,
    identity,
    op_norm,
    ordered_product,
    pure_state,
)
from flab.errors import _neumaier

RNG = np.random.default_rng(20260821)


def test_pauli_constants():
    assert np.allclose(SX.mat, [[0, 1], [1, 0]])
    assert np.allclose(SY.mat, [[0, -1j], [1j, 0]])
    assert np.allclose(SZ.mat, [[1, 0], [0, -1]])
    assert np.allclose(SI.mat, np.eye(2))
    assert np.allclose((SX @ SY).mat, 1j * SZ.mat)
    assert np.allclose(commutator(SX, SY).mat, 2j * SZ.mat)


def test_operator_arithmetic_and_adjoint():
    a = SX + 2.0 * SZ
    assert np.allclose(a.mat, SX.mat + 2 * SZ.mat)
    assert np.allclose((a - SX).mat, 2 * SZ.mat)
    assert np.allclose((-a).mat, -a.mat)
    b = SiteOperator([[0, 1j], [0, 0]])
    assert np.allclose(b.adjoint().mat, [[0, 0], [-1j, 0]])
    assert not b.is_hermitian()
    assert a.is_hermitian()


def test_reprs_name_the_dimension():
    assert repr(SX) == "SiteOperator(dim=2)"
    assert repr(SiteState(np.diag([0.5, 0.5]))) == "SiteState(dim=2)"


def test_op_norm_values():
    # eigenvalues of 2*sz + 1 are 3 and -1, largest magnitude 3
    assert op_norm(2.0 * SZ + identity(2)) == pytest.approx(3.0, abs=1e-12)
    assert op_norm(SX) == pytest.approx(1.0, abs=1e-12)
    nil = SiteOperator([[0, 1], [0, 0]])
    assert op_norm(nil) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_is_largest_singular_value():
    for _ in range(50):
        m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        a = SiteOperator(m)
        s = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(op_norm(a) - s) < 1e-10


def test_site_state_validation():
    SiteState(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        SiteState(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValueError):
        SiteState([[0.5, 0.3], [0.2, 0.5]])  # not hermitian
    with pytest.raises(ValueError):
        SiteState([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue


def test_pure_state_and_expect():
    rho = pure_state([1.0, 0.0])
    assert np.allclose(rho.rho, [[1, 0], [0, 0]])
    assert expect(rho, SZ) == pytest.approx(1.0, abs=1e-14)
    assert expect(rho, SX) == pytest.approx(0.0, abs=1e-14)
    plus = pure_state([1.0, 1.0])  # should be normalized internally
    assert expect(plus, SX) == pytest.approx(1.0, abs=1e-12)


def test_center_removes_mean():
    rho = SiteState(np.diag([0.75, 0.25]))
    for _ in range(100):
        m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        a = SiteOperator(m + m.conj().T)
        c = center(a, rho)
        assert abs(expect(rho, c)) < 1e-12


def test_ordered_product_keeps_order():
    ab = ordered_product([SX, SY])
    ba = ordered_product([SY, SX])
    assert np.allclose(ab.mat, 1j * SZ.mat)
    assert np.allclose(ba.mat, -1j * SZ.mat)
    with pytest.raises(ValueError):
        ordered_product([])


def test_hermitian_basis_properties():
    basis = hermitian_basis(2)
    assert len(basis) == 4
    assert np.allclose(basis[0].mat, np.eye(2))
    for e in basis:
        assert e.is_hermitian()
    # orthogonality in the Hilbert-Schmidt inner product
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ip = np.trace(a.mat.conj().T @ b.mat)
            if i == j:
                assert abs(ip) > 1e-12
            else:
                assert abs(ip) < 1e-12
    basis3 = hermitian_basis(3)
    assert len(basis3) == 9


def test_hs_coefficients_roundtrip():
    basis = hermitian_basis(2)
    for _ in range(50):
        m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        a = SiteOperator(m)
        coeffs = hs_coefficients(a)
        rebuilt = sum((c * e.mat for c, e in zip(coeffs, basis)), np.zeros((2, 2), complex))
        assert np.max(np.abs(rebuilt - a.mat)) < 1e-12


def _hs_coefficients_loop(a, basis):
    """Reference: two traces per basis element, one operator at a time."""
    coeffs = []
    for h in basis:
        hn = float(np.real(np.trace(h.mat @ h.mat)))
        coeffs.append(complex(np.trace(h.mat.conj().T @ a.mat)) / hn)
    return np.array(coeffs)


def test_hs_coefficients_bit_identical_to_loop():
    """The stacked contraction reproduces the per-element loop bit for bit."""
    from flab.algebra import _hs_coefficient_stack

    rng = np.random.default_rng(5000)
    count = 0
    for d in (1, 2, 3, 4):
        basis = hermitian_basis(d)
        mats = rng.normal(size=(1260, d, d)) + 1j * rng.normal(size=(1260, d, d))
        mats[:420] += np.conj(np.swapaxes(mats[:420], -1, -2))
        mats[840:] *= 10.0 ** rng.integers(-8, 9, size=(420, 1, 1))
        stacked = _hs_coefficient_stack(mats)
        for m, row in zip(mats, stacked):
            want = _hs_coefficients_loop(SiteOperator(m), basis).tobytes()
            assert hs_coefficients(SiteOperator(m)).tobytes() == want
            assert row.tobytes() == want
            count += 1
    assert count >= 5000


def test_kahan_sum_matches_fsum():
    import math

    values = [1.0] + [1e-16] * 10**4 + [-1.0]
    acc = KahanSum()
    for v in values:
        acc.add(complex(v))
    exact = math.fsum(values)
    assert acc.value.real == pytest.approx(exact, abs=1e-15)
    naive = sum(values)
    # naive summation loses every 1e-16 increment against the leading 1.0
    assert abs(naive - exact) > 1e-13
    assert abs(acc.value.real - exact) < abs(naive - exact)


# a term: a mantissa in [1, 10] at a decade from 1e-20 to 1e20, either sign, or one
# of the values that make exact ties, exact cancellations at 1e16 and signed zeros
_TERM = st.one_of(
    st.builds(
        lambda mantissa, decade, sign: sign * mantissa * 10.0**decade,
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(min_value=-20, max_value=20),
        st.sampled_from([1.0, -1.0]),
    ),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]),
)


def _bits(values) -> list:
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(start=st.tuples(_TERM, _TERM), terms=st.lists(_TERM, max_size=400))
def test_neumaier_cumsums_equal_the_scalar_loop(start, terms):
    """The two-cumsum Neumaier sum equals the scalar loop bit for bit,
    from any carried running sum and compensation, signed zeros included."""
    got = _neumaier(*start, np.array(terms, dtype=float))
    assert _bits(got) == _bits(neumaier_loop(*start, terms))


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.tuples(_TERM, _TERM), max_size=400), cut=st.integers(0, 400))
def test_kahan_add_terms_equals_add(terms, cut):
    """A run of ``add`` calls and ``add_terms`` on the same terms, in two
    arrays split anywhere, leave the same sums and compensations."""
    one, batched = KahanSum(), KahanSum()
    for re, im in terms:
        one.add(complex(re, im))
    reals = np.array([re for re, _ in terms], dtype=float)
    imags = np.array([im for _, im in terms], dtype=float)
    batched.add_terms(reals[:cut], imags[:cut])
    batched.add_terms(reals[cut:], imags[cut:])
    state = [one._sr, one._cr, one._si, one._ci]
    assert _bits([batched._sr, batched._cr, batched._si, batched._ci]) == _bits(state)
    want = neumaier_loop(0.0, 0.0, reals.tolist()) + neumaier_loop(0.0, 0.0, imags.tolist())
    assert _bits(state) == _bits(want)
