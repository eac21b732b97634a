"""Induced moments of centered site averages, CCR decay, seminorm searches."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (
    brute_induced_moment,
    circuit_dense_density,
    dense_expect,
    dense_site_mean,
    kemeny_snell_variance,
    markov_config_expect,
    markov_site_mean,
    markov_sweep_reference,
    perron_log_derivative,
    product_density,
    product_moment_loop,
    random_gapped_transition,
    search_loop,
)

from flab import (
    CircuitState,
    CostGuardError,
    GlobalState,
    InducedMomentFunctional,
    MarkovState,
    ProductState,
    Region,
    SI,
    SX,
    SY,
    SZ,
    SiteOperator,
    SiteState,
    TensorPolynomial,
    ccr_decay_check,
    center,
    ccr_ideal_element,
    chain_metric,
    commutator,
    gamma_form,
    induced_moment,
    induced_moment_polynomial,
    op_norm,
    pure_state,
    random_density,
    random_hermitian_unit,
    seminorm_comparison_check,
    seminorm_nu_estimate,
    seminorm_nu_omega_estimate,
)
from flab import _moments, fluctuations
from flab.algebra import _hs_coefficient_stack
from flab.fluctuations import (
    SEARCH_DRAW_GUARD,
    TIE_TOL,
    TUPLE_SUM_GUARD,
    SeminormEstimate,
    _Candidates,
    _combo_directions,
    _eval_many,
    _moments_of,
    _search,
    _search_stack,
    _search_table,
    _search_words,
    ccr_decay_table,
    check_search_draws,
    induced_moment_table,
    seminorm_comparison_table,
)
from flab.gaussian import _CovariancePairFunctional, covariance_from_state

RNG = np.random.default_rng(271828)

T_STD = [[0.8, 0.2], [0.2, 0.8]]


def random_two_site_unitary(rng, d=2):
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    q, _ = np.linalg.qr(m)
    return q


def brute_for_product(rho_mat, size, word):
    L = size
    full = product_density(rho_mat, L)
    return brute_induced_moment(
        range(L),
        [a.mat for a in word],
        dense_expect(full, L, 2),
        dense_site_mean(full, L, 2),
    )


def brute_for_markov(mk, sites, word):
    """Tuple sum over the sites; the chain is enumerated on their whole span."""
    sites = sorted(sites)
    span = list(range(sites[0], sites[-1] + 1))
    return brute_induced_moment(
        sites,
        [a.mat for a in word],
        markov_config_expect(mk.transition, mk.pi, span),
        markov_site_mean(mk.pi),
    )


# =============================================================================
# Engine vs oracle
# =============================================================================

def test_product_engine_matches_brute_force():
    rho = SiteState(np.diag([0.75, 0.25]))
    ps = ProductState(rho)
    words = [
        (SX,),
        (SZ, SZ),
        (SX, SY),
        (SX, SZ, SX),
        (SZ, SZ, SZ, SZ),
        (SX, SY, SZ, SX),
    ]
    for size in (2, 3, 5):
        region = Region(ps.metric, range(size))
        for word in words:
            got = induced_moment(ps, region, word)
            want = brute_for_product(rho.rho, size, word)
            assert abs(got - want) < 1e-11, (size, word)


def test_product_engine_random_states_and_words():
    for _ in range(8):
        rho = random_density(RNG, 2)
        ps = ProductState(rho)
        size = int(RNG.integers(2, 5))
        n = int(RNG.integers(1, 4))
        word = tuple(SiteOperator(random_hermitian_unit(RNG, 2).mat) for _ in range(n))
        region = Region(ps.metric, range(size))
        got = induced_moment(ps, region, word)
        want = brute_for_product(rho.rho, size, word)
        assert abs(got - want) < 1e-11


def test_markov_engine_matches_brute_force():
    mk = MarkovState(T_STD, alpha=0.4)
    for size in (2, 3, 5):
        region = Region(mk.metric, range(size))
        for word in [(SZ, SZ), (SZ, SZ, SZ), (SZ, SX, SZ), (SZ,) * 4]:
            got = induced_moment(mk, region, word)
            want = brute_for_markov(mk, range(size), word)
            assert abs(got - want) < 1e-11, (size, word)


@pytest.mark.parametrize("region_kind", ["full", "sparse"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("base_kind", ["pure", "mixed"])
def test_circuit_engine_matches_brute_force(base_kind, d, depth, region_kind):
    rng = np.random.default_rng([d, depth, len(base_kind), len(region_kind)])
    L = 5 if d == 2 else 4
    if base_kind == "pure":
        base = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d))
    else:
        base = random_density(rng, d)
    layers = [(k % 2, random_two_site_unitary(rng, d)) for k in range(depth)]
    circ = CircuitState(base, L, layers)
    assert circ.tensor.ndim == (L if base_kind == "pure" else L + 1)
    full = circuit_dense_density(base.rho, L, layers)
    oracle_expect = dense_expect(full, L, d)
    oracle_mean = dense_site_mean(full, L, d)
    sites = range(L) if region_kind == "full" else [0, 2, L - 1]
    region = Region(circ.metric, sites)
    a, b = (random_hermitian_unit(rng, d) for _ in range(2))
    skew = SiteOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for word in [(a,), (a, b), (a, skew, b)]:
        got = induced_moment(circ, region, word)
        want = brute_induced_moment(
            sites, [w.mat for w in word], oracle_expect, oracle_mean
        )
        assert abs(got - want) < 1e-10, len(word)


def _sparse_sites(rng, length):
    """2..length-1 sites of range(length) with a gap between them, shuffled."""
    while True:
        count = int(rng.integers(2, length))
        sites = sorted(rng.choice(length, size=count, replace=False).tolist())
        if sites[-1] - sites[0] >= count:
            return rng.permutation(sites).tolist()


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_engine_matches_brute_force_random(d, n, seed):
    """Random product states on gapped regions in shuffled order, non-Hermitian words."""
    rng = np.random.default_rng(seed)
    L = 5 if d == 2 else 4
    rho = random_density(rng, d)
    ps = ProductState(rho)
    sites = _sparse_sites(rng, L)
    word = _random_word(rng, d, n)
    full = product_density(rho.rho, L)
    got = induced_moment(ps, Region(ps.metric, sites), word)
    want = brute_induced_moment(
        sites, [a.mat for a in word], dense_expect(full, L, d), dense_site_mean(full, L, d)
    )
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (sites, n)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    depth=st.integers(min_value=1, max_value=2),
    mixed=st.booleans(),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_circuit_engine_matches_brute_force_random(d, depth, mixed, n, seed):
    """Random depth 1-2 circuits, pure or mixed base, on gapped shuffled regions."""
    rng = np.random.default_rng(seed)
    L = 5 if d == 2 else 4
    if mixed:
        base = random_density(rng, d)
    else:
        base = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d))
    offset = int(rng.integers(2))
    layers = [((offset + k) % 2, random_two_site_unitary(rng, d)) for k in range(depth)]
    circ = CircuitState(base, L, layers)
    sites = _sparse_sites(rng, L)
    word = _random_word(rng, d, n)
    full = circuit_dense_density(base.rho, L, layers)
    got = induced_moment(circ, Region(circ.metric, sites), word)
    want = brute_induced_moment(
        sites, [a.mat for a in word], dense_expect(full, L, d), dense_site_mean(full, L, d)
    )
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (sites, n, layers[0][0])


def test_kurtosis_law_small_sizes():
    ps = ProductState(pure_state([1.0, 0.0]))
    for size in (2, 5, 10):
        region = Region(ps.metric, range(size))
        val = induced_moment(ps, region, (SX, SX, SX, SX))
        assert val.real == pytest.approx(3.0 - 2.0 / size, abs=1e-12)
        assert abs(val.imag) < 1e-13


def test_degree_one_moment_vanishes():
    """Centering kills every first moment identically."""
    for _ in range(10):
        rho = random_density(RNG, 2)
        ps = ProductState(rho)
        a = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        region = Region(ps.metric, range(int(RNG.integers(1, 7))))
        assert abs(induced_moment(ps, region, (a,))) < 1e-13


def test_identity_shift_invariance():
    """Adding multiples of the identity to any slot changes nothing."""
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(4))
    base_word = (SZ, SX, SZ)
    base = induced_moment(mk, region, base_word)
    for _ in range(50):
        shifts = RNG.normal(size=3) + 1j * 0.0
        word = tuple(
            SiteOperator(a.mat + c * np.eye(2)) for a, c in zip(base_word, shifts)
        )
        val = induced_moment(mk, region, word)
        assert abs(val - base) < 1e-11


def test_second_moment_positivity():
    for _ in range(40):
        rho = random_density(RNG, 2)
        ps = ProductState(rho)
        a = SiteOperator(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        region = Region(ps.metric, range(3))
        val = induced_moment(ps, region, (a.adjoint(), a))
        assert val.real >= -1e-11
        assert abs(val.imag) < 1e-11


def test_induced_moment_argument_errors():
    ps = ProductState(SiteState(np.diag([0.5, 0.5])))
    region = Region(ps.metric, range(3))
    with pytest.raises(ValueError):
        induced_moment(ps, region, ())
    with pytest.raises(CostGuardError) as err:
        induced_moment(ps, Region(ps.metric, range(30)), (SX,) * 8)
    assert "tuple" in err.value.guard
    # The circuit engine would be cheap here (8 * 14 contractions), but the
    # |X|^n guard is part of the spec: 14^8 > 1e8 is refused all the same.
    circ = _circuit_state(14)
    with pytest.raises(CostGuardError) as err:
        induced_moment(circ, Region(circ.metric, range(14)), (SX,) * 8)
    assert "tuple" in err.value.guard


def _circuit_state(length):
    layers = [(0, random_two_site_unitary(RNG))]
    return CircuitState(pure_state([1.0, 0.0]), length, layers)


FAMILIES = {
    "product": lambda: ProductState(SiteState(np.diag([0.75, 0.25]))),
    "markov": lambda: MarkovState(T_STD, alpha=0.4),
    "circuit": lambda: _circuit_state(5),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_functional_batch_matches_scalar_calls(family):
    state = FAMILIES[family]()
    region = Region(state.metric, range(5))
    F = InducedMomentFunctional(state, region)
    words = []
    for _ in range(7):
        n = 3
        words.append(
            tuple(SiteOperator(random_hermitian_unit(RNG, 2).mat) for _ in range(n))
        )
    batch = F.batch(words)
    for w, v in zip(words, batch):
        assert abs(v - F(w)) < 1e-12
        assert abs(v - induced_moment(state, region, w)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["product", "markov", "circuit"]),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scalar_calls_match_batch_random(family, d, n, seed):
    """A batch of random non-Hermitian words equals one scalar call per word."""
    rng = np.random.default_rng(seed)
    if family == "product":
        state, L = ProductState(random_density(rng, d)), 8
    elif family == "markov":
        state, L = MarkovState(random_gapped_transition(rng, d), alpha=0.4), 8
    else:
        L = 5 if d == 2 else 4
        state = CircuitState(random_density(rng, d), L, [(0, random_two_site_unitary(rng, d))])
    region = Region(state.metric, _sparse_sites(rng, L))
    F = InducedMomentFunctional(state, region)
    words = [_random_word(rng, d, n) for _ in range(int(rng.integers(1, 6)))]
    batch = F.batch(words)
    assert batch.shape == (len(words),)
    for w, v in zip(words, batch):
        want = induced_moment(state, region, w)
        assert F(w) == want
        assert abs(v - want) <= 1e-12 * max(1.0, abs(want))


def test_batch_raises_scalar_argument_errors():
    """The batch path refuses what the scalar path refuses, with its message."""
    wide = SiteOperator(np.eye(3))
    for family in sorted(FAMILIES):
        state = FAMILIES[family]()
        F = InducedMomentFunctional(state, Region(state.metric, range(3)))
        for call in (lambda: F.batch([(SZ, wide)]), lambda: F((SZ, wide))):
            with pytest.raises(ValueError, match="does not match site dimension"):
                call()
    circ = _circuit_state(4)
    F = InducedMomentFunctional(circ, Region(circ.metric, range(6)))
    for call in (lambda: F.batch([(SZ, SZ)]), lambda: F((SZ, SZ))):
        with pytest.raises(ValueError, match="outside the state's domain"):
            call()

    class Opaque(GlobalState):
        site_dim = 2
        metric = chain_metric(1.0)

    F = InducedMomentFunctional(Opaque(), Region(chain_metric(1.0), range(3)))
    for call in (lambda: F.batch([(SZ, SZ)]), lambda: F((SZ, SZ))):
        with pytest.raises(TypeError, match="Opaque"):
            call()


def test_markov_long_gap_moment():
    """A gap of 5000 sites steps T^g iteratively: 1 + 0.6^5000 to rounding."""
    mk = MarkovState(T_STD, alpha=0.4)
    val = induced_moment(mk, Region(mk.metric, [0, 5000]), (SZ, SZ))
    assert abs(val - 1.0) < 1e-12


# =============================================================================
# Tensor polynomials
# =============================================================================

def test_tensor_polynomial_algebra():
    p = TensorPolynomial.word((SX, SY)) + 2.0 * TensorPolynomial.word((SZ,))
    assert p.degree() == 2
    q = p - TensorPolynomial.word((SX, SY))
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(4))
    val_p = induced_moment_polynomial(mk, region, p)
    direct = induced_moment(mk, region, (SX, SY)) + 2.0 * induced_moment(
        mk, region, (SZ,)
    )
    assert abs(val_p - direct) < 1e-12
    val_q = induced_moment_polynomial(mk, region, q)
    assert abs(val_q - 2.0 * induced_moment(mk, region, (SZ,))) < 1e-12


def test_tensor_polynomial_constant_term():
    ps = ProductState(SiteState(np.diag([0.5, 0.5])))
    region = Region(ps.metric, range(3))
    p = TensorPolynomial.word(()) * 2.5
    assert induced_moment_polynomial(ps, region, p) == pytest.approx(2.5, abs=1e-14)


# =============================================================================
# Gamma form and CCR decay
# =============================================================================

def test_gamma_form_values():
    ground = pure_state([1.0, 0.0])
    assert gamma_form(ground, SX, SY) == pytest.approx(2j, abs=1e-13)
    tilted = SiteState(np.diag([0.75, 0.25]))
    assert gamma_form(tilted, SX, SY) == pytest.approx(1j, abs=1e-13)
    # antisymmetry for hermitian arguments
    for _ in range(20):
        rho = random_density(RNG, 2)
        a = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        b = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        assert abs(gamma_form(rho, a, b) + gamma_form(rho, b, a)) < 1e-12


def test_ccr_ideal_element_shape():
    tilted = ProductState(SiteState(np.diag([0.75, 0.25])))
    region = Region(tilted.metric, range(4))
    poly = ccr_ideal_element(SX, SY, tilted.averaged_restriction(region))
    degrees = sorted({len(term[1]) for term in poly.terms})
    assert degrees == [0, 2]


def test_ccr_closed_form_family():
    """Product state diag(3/4, 1/4): the prefixed commutator moment is
    exactly 1.5 / sqrt(|X|) in magnitude."""
    state = ProductState(SiteState(np.diag([0.75, 0.25])))
    for size in (4, 9, 16, 25):
        region = Region(state.metric, range(size))
        check = ccr_decay_check(state, region, SX, SY, prefix=(SZ,))
        assert abs(check.value) == pytest.approx(1.5 / math.sqrt(size), abs=1e-12)
        assert check.transport_deviation < 1e-12
        assert check.passed
    # at size 9 the value itself is exactly 0.5j
    region = Region(state.metric, range(9))
    check = ccr_decay_check(state, region, SX, SY, prefix=(SZ,))
    assert check.value == pytest.approx(0.5j, abs=1e-12)


def test_ccr_same_operator_pair_vanishes():
    state = ProductState(SiteState(np.diag([0.75, 0.25])))
    region = Region(state.metric, range(6))
    check = ccr_decay_check(state, region, SX, SX, prefix=(SZ,))
    assert abs(check.value) < 1e-13
    assert check.passed


def test_transport_identity_exact_on_random_states():
    """The commutator of two fluctuation slots equals the transported
    single commutator slot plus the gamma constant, at every finite size."""
    for _ in range(6):
        rho = random_density(RNG, 2)
        state = ProductState(rho)
        a = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        b = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        size = int(RNG.integers(2, 9))
        region = Region(state.metric, range(size))
        check = ccr_decay_check(state, region, a, b, search_budget=2)
        assert check.transport_deviation < 1e-11


def test_transport_identity_exact_on_circuits():
    base = pure_state([1.0, 0.0])
    for trial in range(3):
        layers = [(0, random_two_site_unitary(RNG))]
        L = 6 + trial
        circ = CircuitState(base, L, layers)
        region = Region(circ.metric, range(L))
        a = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        b = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        check = ccr_decay_check(circ, region, a, b, search_budget=2)
        assert check.transport_deviation < 1e-10


def test_transport_identity_brute_polynomial():
    """Recompute both sides of the transport identity by hand on a markov
    state: moment of a (x) b minus b (x) a minus the averaged commutator
    expectation, against |X|^{-1/2} times the commutator slot moment."""
    mk = MarkovState(T_STD, alpha=0.4)
    size = 5
    region = Region(mk.metric, range(size))
    for _ in range(5):
        a = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        b = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        lhs = (
            induced_moment(mk, region, (a, b))
            - induced_moment(mk, region, (b, a))
            - gamma_form(mk.single_site_restriction(), a, b)
        )
        rhs = induced_moment(mk, region, (commutator(a, b),)) / math.sqrt(size)
        # degree-1 moments vanish, so rhs is zero and lhs must match
        assert abs(rhs) < 1e-12
        assert abs(lhs - rhs) < 1e-11


# =============================================================================
# Seminorm searches
# =============================================================================

def test_seminorm_degree_zero_is_unit():
    ps = ProductState(SiteState(np.diag([0.75, 0.25])))
    region = Region(ps.metric, range(4))
    F = InducedMomentFunctional(ps, region)
    est = seminorm_nu_estimate(F, 0, search_budget=1)
    assert est.value == pytest.approx(1.0, abs=1e-14)


def test_seminorm_product_variance_peak():
    """For diag(3/4, 1/4) the centered degree-2 sup is exactly 1 (at sx)."""
    rho = SiteState(np.diag([0.75, 0.25]))
    ps = ProductState(rho)
    region = Region(ps.metric, range(5))
    F = InducedMomentFunctional(ps, region)
    est = seminorm_nu_omega_estimate(F, 2, rho, search_budget=8, seed=3)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.evaluations > 0


def test_seminorm_markov_degree_two_closed_form():
    """sz maximizes the markov degree-2 seminorm; the value is the
    finite-size weighted geometric sum of 0.6^gap."""
    mk = MarkovState(T_STD, alpha=0.4)
    omega = mk.single_site_restriction()
    for size in (4, 8, 16):
        region = Region(mk.metric, range(size))
        F = InducedMomentFunctional(mk, region)
        est = seminorm_nu_omega_estimate(F, 2, omega, search_budget=6, seed=1)
        closed = 1.0 + 2.0 * sum(
            (1.0 - g / size) * 0.6**g for g in range(1, size)
        )
        assert est.value == pytest.approx(closed, abs=1e-12)


def test_seminorm_witness_is_certifying():
    """The reported value is an evaluation of the reported witness."""
    from flab import op_norm

    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(6))
    F = InducedMomentFunctional(mk, region)
    est = seminorm_nu_omega_estimate(
        F, 3, mk.single_site_restriction(), search_budget=8, seed=9
    )
    cov = covariance_from_state(SiteState(np.diag([0.75, 0.25])))
    W = _CovariancePairFunctional(cov)
    pair = seminorm_nu_estimate(W, 2, search_budget=8, seed=9)
    for functional, e in ((F, est), (W, pair)):
        assert len(e.witness) == (3 if functional is F else 2)
        assert e.value == abs(functional(e.witness))
        for a in e.witness:
            assert op_norm(a) <= 1.0 + 1e-9


def test_seminorm_comparison_chain():
    rho = SiteState(np.diag([0.75, 0.25]))
    ps = ProductState(rho)
    region = Region(ps.metric, range(6))
    F = InducedMomentFunctional(ps, region)
    for n in (2, 3):
        chk = seminorm_comparison_check(F, n, rho, search_budget=6, seed=4)
        assert chk.passed
        assert chk.nu_omega <= chk.nu + 1e-9
        assert chk.nu <= chk.rhs + 1e-6


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["product", "markov"]),
    degrees=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    budget=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_seminorm_comparison_table_rows_equal_per_degree_checks(kind, degrees, budget, seed):
    """Each row of the table equals the one-degree check field for field."""
    F, omega = _search_case(kind, 2, np.random.default_rng(seed))
    search_seed = seed % 1000
    rows = seminorm_comparison_table(F, degrees, omega, search_budget=budget, seed=search_seed)
    assert len(rows) == len(degrees)
    for n, row in zip(degrees, rows):
        assert row == seminorm_comparison_check(
            F, n, omega, search_budget=budget, seed=search_seed
        )


def test_seminorm_comparison_table_searches_each_degree_once(monkeypatch):
    """nu_n once per degree, then nu_k^omega once per k <= max degree."""
    calls = []
    real = fluctuations._search_stack

    def record(functionals, n, dim, budget, omega, seeds, *rest):
        calls.extend((n, omega is None, seed) for seed in seeds)
        return real(functionals, n, dim, budget, omega, seeds, *rest)

    monkeypatch.setattr(fluctuations, "_search_stack", record)
    rho = SiteState(np.diag([0.75, 0.25]))
    ps = ProductState(rho)
    F = InducedMomentFunctional(ps, Region(ps.metric, range(6)))
    seminorm_comparison_table(F, [2, 4, 3], rho, search_budget=2, seed=10)
    plain = [(n, True, 10) for n in (2, 4, 3)]
    assert calls == plain + [(k, False, 11 + k) for k in range(5)]


# =============================================================================
# Basis-tensor search against direct evaluation
# =============================================================================

def _search_case(kind, d, rng):
    """A functional of the given kind and a local state to center against."""
    if kind == "covariance":
        cov = covariance_from_state(random_density(rng, d))
        return _CovariancePairFunctional(cov), random_density(rng, d)
    if kind == "product":
        state = ProductState(random_density(rng, d))
    else:
        state = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
    count = int(rng.integers(1, 5))
    sites = sorted(int(x) for x in rng.choice(9, size=count, replace=False))
    region = Region(state.metric, sites)
    return InducedMomentFunctional(state, region), state.averaged_restriction(region)


class _ScalarOnly:
    """The same functional without ``batch``: one call per word."""

    def __init__(self, functional):
        self.functional = functional
        self.dim = functional.dim

    def __call__(self, word):
        return self.functional(word)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["product", "markov", "covariance"]),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    centered=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_basis_tensor_contractions_match_batch(kind, d, n, centered, seed):
    rng = np.random.default_rng(seed)
    if kind == "covariance":
        n = 2
    F, omega = _search_case(kind, d, rng)
    omega = omega if centered else None
    probe, dirs, rand_words = _search_words(n, d, 6, omega, seed)
    cands = _Candidates([F], n, probe, centered)
    # the mode-product head is in itertools.product order
    head = list(itertools.product(dirs, repeat=n))
    picks = np.arange(0, len(head), max(1, len(head) // 400))
    got = np.concatenate([cands.head(dirs, n)[0][picks], cands.values([0], [rand_words])[0]])
    want = F.batch([head[i] for i in picks] + rand_words)
    assert np.max(np.abs(got - want)) <= 1e-12
    est = _search(F, n, d, 6, omega, seed)
    scalar = _search(_ScalarOnly(F), n, d, 6, omega, seed)
    assert abs(scalar.value - est.value) <= 1e-12 * max(1.0, est.value)


def _reference_search(functional, n, dim, budget, omega, seed, steps=None):
    """The search before the mode-product head and the contraction ascent.

    Head words are built as tuples and contracted through an id() dict
    of distinct operators, and every ascent candidate is evaluated
    directly; the probe, directions and random words are the search's.
    ``steps`` gets the start value, then (candidate, |F|, taken) per
    ascent candidate.
    """
    steps = [] if steps is None else steps
    probe, dirs, rand_words = _search_words(n, dim, budget, omega, seed)
    head = list(itertools.product(dirs, repeat=n))
    skip = int(omega is not None)
    evaluations = 0
    tensor = None

    def send(words):
        nonlocal evaluations
        evaluations += len(words)
        return _eval_many(functional, words)

    def contract(coeffs):
        p = tensor.shape[0]
        out = coeffs[:, 0] @ tensor.reshape(p, -1)
        for k in range(1, coeffs.shape[1]):
            out = np.einsum("wi,wir->wr", coeffs[:, k], out.reshape(len(coeffs), p, -1))
        return out[:, 0]

    def values(words):
        if tensor is None or not words:
            return send(words)
        ops = {id(a): a for w in words for a in w}
        index = {key: i for i, key in enumerate(ops)}
        rows = np.array([[index[id(a)] for a in w] for w in words])
        coeffs = _hs_coefficient_stack(np.array([a.mat for a in ops.values()]))
        coeffs = coeffs[rows][..., skip:]
        chunks = range(0, len(words), 1024)
        return np.concatenate([contract(coeffs[i : i + 1024]) for i in chunks])

    def argmax(words, floor):
        mags = np.abs(values(words))
        top = float(np.max(mags))
        if tensor is None:
            return top, int(np.argmax(mags))
        slack = TIE_TOL * max(top, 1.0)
        if top < floor - slack:
            return -1.0, 0
        near = np.flatnonzero(mags >= top - slack)
        direct = np.abs(send([words[i] for i in near]))
        pick = int(np.argmax(direct))
        return float(direct[pick]), int(near[pick])

    if len(probe) ** n <= len(head) + len(rand_words) + 2 * n * (len(probe) + 1):
        tensor = send(list(itertools.product(probe, repeat=n))).reshape((len(probe),) * n)
    best_val, best_word = -1.0, ()
    for words in (head, rand_words):
        if words:
            val, idx = argmax(words, best_val)
            if val > best_val:
                best_val, best_word = val, words[idx]
    if not best_word:
        return SeminormEstimate(0.0, (), evaluations)
    steps.append(best_val)
    word = list(best_word)
    for _pass in range(2):
        for slot in range(n):
            trials = [tuple(word[:slot]) + (h,) + tuple(word[slot + 1 :]) for h in probe]
            resp = values(trials)
            m = np.outer(resp.real, resp.real) + np.outer(resp.imag, resp.imag)
            vec = np.linalg.eigh(m)[1][:, -1]
            cand_mat = sum(float(cv) * h.mat for cv, h in zip(vec, probe))
            nrm = float(np.linalg.norm(cand_mat, 2))
            if nrm < 1e-12:
                continue
            cand_op = SiteOperator(cand_mat / nrm)
            cand = tuple(word[:slot]) + (cand_op,) + tuple(word[slot + 1 :])
            evaluations += 1
            val = abs(complex(functional(cand)))
            steps.append((cand, val, val > best_val + 1e-15))
            if val > best_val + 1e-15:
                best_val = val
                word[slot] = cand_op
    return SeminormEstimate(best_val, tuple(word), evaluations)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["product", "markov", "covariance"]),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    centered=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(kind="product", d=2, n=3, centered=False, seed=5046)  # the searches part here
def test_search_matches_reference_search_bit_for_bit(kind, d, n, centered, seed):
    """Same value and witness bytes as the direct-candidate ascent.

    Centered and plain d=3 at n >= 3 take the direct side; the other
    cases rank on the basis tensor. There the ascent takes a step on
    its contraction, which differs from the direct value by rounding,
    so the two searches may part at a step whose two values fall on
    opposite sides of the 1e-15 bar (one case in about 14,000 random
    ones: product state, d=2, n=3, plain, seed 5046). Up to that step
    they must have made the same candidates, bit for bit.
    """
    rng = np.random.default_rng(seed)
    if kind == "covariance":
        n = 2
    F, omega = _search_case(kind, d, rng)
    omega = omega if centered else None
    made = []
    value = _Candidates.value

    def recorded(self, items, words):
        vals = value(self, items, words)
        made.extend(zip(words, vals))
        return vals

    with mock.patch.object(_Candidates, "value", recorded):
        got = _search(F, n, d, 6, omega, seed)
    steps = []
    want = _reference_search(F, n, d, 6, omega, seed, steps)
    if got.value == want.value and _same_words([got.witness], [want.witness]):
        return
    # replay the contraction ascent against the direct one to the step where they part
    best = steps[0]
    for (cand, val), (ref_cand, ref_val, ref_taken) in zip(made, steps[1:]):
        assert _same_words([cand], [ref_cand])
        if (val > best + 1e-15) != ref_taken:
            assert abs(val - ref_val) <= 1e-12 * max(1.0, ref_val)
            break
        best = val if ref_taken else best
    else:
        raise AssertionError("the searches differ without parting at a step")
    assert abs(got.value - want.value) <= 1e-12 * max(1.0, want.value)


# =============================================================================
# Search stacks against the scalar search
# =============================================================================

def _stack_case(d, n, centered, count, seed):
    """``count`` functionals of mixed kinds, one omega and seeds with repeats."""
    rng = np.random.default_rng(seed)
    kinds = ["product", "markov", "covariance"] if n == 2 else ["product", "markov"]
    cases = [_search_case(kinds[int(rng.integers(len(kinds)))], d, rng) for _ in range(count)]
    functionals = [F for F, _ in cases]
    omega = cases[0][1] if centered else None
    seeds = [int(s) for s in seed % 1000 + rng.integers(0, 3, size=count)]
    return functionals, omega, seeds


def _same_estimates(got, want):
    return all(
        (g.value, g.evaluations) == (w.value, w.evaluations)
        and _same_words([g.witness], [w.witness])
        for g, w in zip(got, want, strict=True)
    )


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    centered=st.booleans(),
    count=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(d=2, n=2, centered=False, count=6, seed=3)  # tensor side
@example(d=3, n=3, centered=True, count=4, seed=8)  # direct side
def test_search_stack_matches_scalar_search_bit_for_bit(d, n, centered, count, seed):
    """Every item of a stack is the scalar search of that item alone: the
    same value, witness bytes and evaluations, on both sides of the
    tensor/direct switch, with equal and distinct seeds."""
    functionals, omega, seeds = _stack_case(d, n, centered, count, seed)
    got = _search_stack(functionals, n, d, 6, omega, seeds)
    want = [search_loop(F, n, d, 6, omega, s) for F, s in zip(functionals, seeds)]
    assert _same_estimates(got, want)


@settings(max_examples=15, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=3),
    centered=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_stack_does_not_depend_on_chunk_size(d, n, centered, seed):
    """Chunks of 1 item, of 7 items and the default chunk give the same bits."""
    functionals, omega, seeds = _stack_case(d, n, centered, 9, seed)
    got, chunks = [], []
    real_chunk = fluctuations._search_chunk

    def chunk(cands, *args):
        chunks[-1].append(len(cands.functionals))
        return real_chunk(cands, *args)

    for items in (1, 7, None):
        chunks.append([])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fluctuations, "_search_chunk", chunk)
            if items is not None:
                mp.setattr(fluctuations, "_stack_chunk_items", lambda *args: items)
            got.append(_search_stack(functionals, n, d, 6, omega, seeds))
    assert chunks == [[1] * 9, [7, 2], [9]]
    assert _same_estimates(got[0], got[2]) and _same_estimates(got[1], got[2])


def test_ascent_values_take_scalar_abs():
    """On the tensor side an ascent value is the scalar ``abs()`` of its
    contraction, as in the one-item search. Only a step at the 1e-15 bar
    would show it in a search result, so it is pinned here: the array
    ``np.abs`` differs in the last bit on about a third of complex values."""
    rng = np.random.default_rng(11)
    functionals = [_search_case("markov", 2, rng)[0] for _ in range(4)]
    probe, _, words = _search_words(3, 2, 40, None, 3)
    cands = _Candidates(functionals, 3, probe, False)
    items = [k % 4 for k in range(40)]
    contracted = cands.values(items, [[w] for w in words])[:, 0]
    want = [abs(complex(v)) for v in contracted]
    assert cands.value(items, words) == want
    assert np.abs(contracted).tolist() != want


def test_search_stack_draws_stay_within_the_guard(monkeypatch):
    """Three items of SEARCH_DRAW_GUARD / 2 draws each run one chunk at a
    time: no draw call and no chunk's live draws pass the guard."""
    budget, n = SEARCH_DRAW_GUARD // 4, 2
    draws, live = [], []
    real_draw, real_chunk = fluctuations.random_hermitian_units, fluctuations._search_chunk

    def draw(rng, dim, count):
        draws.append(count)
        return real_draw(rng, dim, count)

    def chunk(cands, n, probe, dirs, rand_words):
        live.append(n * sum(len(ws) for ws in {id(ws): ws for ws in rand_words}.values()))
        return real_chunk(cands, n, probe, dirs, rand_words)

    monkeypatch.setattr(fluctuations, "random_hermitian_units", draw)
    monkeypatch.setattr(fluctuations, "_search_chunk", chunk)
    rng = np.random.default_rng(4)
    covs = [
        _CovariancePairFunctional(covariance_from_state(random_density(rng, 2)))
        for _ in range(3)
    ]
    got = _search_stack(covs, n, 2, budget, None, [0, 1, 2])
    assert sum(draws) > SEARCH_DRAW_GUARD
    assert max(draws) <= SEARCH_DRAW_GUARD
    assert live == [budget * n] * 3
    want = [search_loop(F, n, 2, budget, None, s) for F, s in zip(covs, [0, 1, 2])]
    assert _same_estimates(got, want)


class _CountingFunctional(InducedMomentFunctional):
    """Records the size of every batch and the number of single-word calls."""

    def __init__(self, state, region):
        super().__init__(state, region)
        self.batch_sizes = []
        self.calls = 0

    def __call__(self, word):
        self.calls += 1
        return super().__call__(word)

    def batch(self, words):
        self.batch_sizes.append(len(words))
        return super().batch(words)


def test_search_guard_fires_before_engine_work(monkeypatch):
    """|X|^n = 200^4 > TUPLE_SUM_GUARD: refused before any Markov sweep."""
    sweeps = []
    monkeypatch.setattr(fluctuations, "markov_moment_batch", lambda *args: sweeps.append(args))
    mk = MarkovState(T_STD, alpha=0.4)
    assert 200.0**4 > TUPLE_SUM_GUARD
    F = InducedMomentFunctional(mk, Region(mk.metric, range(200)))
    with pytest.raises(CostGuardError) as err:
        seminorm_nu_omega_estimate(F, 4, mk.single_site_restriction(), search_budget=6)
    assert "tuple" in err.value.guard
    assert sweeps == []


def test_centered_degree_four_search_counts_tensor_words():
    """d=2, centered, n=4: 3^4 basis words and the start word, nothing more.

    The start word is the one direction word whose contraction is within
    TIE_TOL of the top here, so the tie-break evaluates one word. The
    ascent runs on contractions and keeps that word, so no scalar call
    evaluates a witness (a changed one would take exactly one).
    """
    mk = MarkovState(T_STD, alpha=0.4)
    F = _CountingFunctional(mk, Region(mk.metric, range(8)))
    est = seminorm_nu_omega_estimate(
        F, 4, mk.single_site_restriction(), search_budget=6, seed=2
    )
    assert F.batch_sizes == [81, 1]
    assert F.calls == 0
    assert est.evaluations == 81 + 1


class _ZeroOffDraws(InducedMomentFunctional):
    """Batches are exact on words of the given operators; any word holding
    another operator reads 0."""

    def __init__(self, state, region, ops):
        super().__init__(state, region)
        self.known = {a.mat.tobytes() for a in ops}

    def batch(self, words, sizes=None):
        out = super().batch(words, sizes)
        off = np.array([any(a.mat.tobytes() not in self.known for a in w) for w in words])
        out[..., off] = 0.0
        return out


def test_ascent_keeps_start_word_when_final_direct_value_falls():
    """A final value below the start word's reports the start word. The
    basis tensor, the head and the random words are exact, so the ascent
    moves as in the exact search; its moved witness then reads 0."""
    rho = random_density(np.random.default_rng(5), 2)
    ps = ProductState(rho)
    probe, dirs, rand_words = _search_words(3, 2, 6, rho, 1)
    ops = [*probe, *dirs, *(a for w in rand_words for a in w)]
    F = _ZeroOffDraws(ps, Region(ps.metric, range(4)), ops)
    est = seminorm_nu_omega_estimate(F, 3, rho, search_budget=6, seed=1)
    exact = seminorm_nu_omega_estimate(
        InducedMomentFunctional(ps, F.region), 3, rho, search_budget=6, seed=1
    )
    assert not _same_words([est.witness], [exact.witness])
    assert all(a.mat.tobytes() in F.known for a in est.witness)
    assert est.value > 0.0
    assert est.value == abs(F.batch([est.witness])[0])


def test_plain_degree_six_search_sends_words_directly():
    """d=2, plain, n=6: 4^6 = 4096 basis words exceed the direct search."""
    ps = ProductState(SiteState(np.diag([0.75, 0.25])))
    F = _CountingFunctional(ps, Region(ps.metric, range(4)))
    est = seminorm_nu_estimate(F, 6, search_budget=8, seed=0)
    assert 4096 not in F.batch_sizes
    assert est.evaluations == sum(F.batch_sizes) + F.calls
    assert est.evaluations <= 1000


# =============================================================================
# Markov engine: differential oracles, prefix readouts, DP guard
# =============================================================================

def _random_word(rng, d, n):
    """n complex Gaussian operators: non-Hermitian in every slot."""
    return tuple(
        SiteOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_markov_engine_matches_brute_force_random(d, n, seed):
    """Random non-symmetric gapped chains on gapped regions, in any site order."""
    rng = np.random.default_rng(seed)
    mk = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
    count = int(rng.integers(1, 5 if n <= 3 else 4))
    gaps = rng.integers(1, 4 if d == 2 else 3, size=count - 1)
    if count > 1 and gaps.max() == 1:
        gaps[rng.integers(count - 1)] = 2
    sites = [int(x) for x in int(rng.integers(0, 3)) + np.concatenate([[0], np.cumsum(gaps)])]
    region = Region(mk.metric, rng.permutation(sites).tolist())
    word = _random_word(rng, d, n)
    got = induced_moment(mk, region, word)
    want = brute_for_markov(mk, sites, word)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (sites, n)


@pytest.mark.parametrize("n, sites", [(8, [0, 2, 3]), (10, [0, 2]), (12, [1, 4])])
def test_markov_high_degree_matches_brute_force(n, sites):
    """High degrees on small gapped regions: every slot subset gets placed."""
    rng = np.random.default_rng(n)
    mk = MarkovState(random_gapped_transition(rng, 2), alpha=0.4)
    word = _random_word(rng, 2, n)
    got = induced_moment(mk, Region(mk.metric, sites), word)
    want = brute_for_markov(mk, sites, word)
    assert abs(want) > 1e-3
    assert abs(got - want) <= 1e-10 * abs(want)


def _prefix_case(kind, rng):
    if kind == "product":
        return ProductState(random_density(rng, 2))
    if kind == "markov":
        return MarkovState(random_gapped_transition(rng, 2), alpha=0.4)
    layers = [(k % 2, random_two_site_unitary(rng)) for k in range(2)]
    return CircuitState(random_density(rng, 2), 8, layers)


@pytest.mark.parametrize("kind", ["product", "markov", "circuit"])
def test_prefix_readouts_equal_per_size_calls(kind):
    """Each row of a size table is the per-size call, bit for bit."""
    rng = np.random.default_rng(len(kind))
    state = _prefix_case(kind, rng)
    region = Region(state.metric, [5, 0, 2, 7, 3, 4])
    ordered = sorted(region.sites)
    sizes = [1, 2, 4, 6]
    words = [_random_word(rng, 2, 3) for _ in range(3)]
    rows = _moments_of(state, region, words, sizes)
    assert rows.shape == (len(sizes), len(words))
    for size, row in zip(sizes, rows):
        prefix = Region(state.metric, ordered[:size])
        assert row.tobytes() == _moments_of(state, prefix, words, [size])[0].tobytes()
    table = induced_moment_table(state, region, words[0], sizes)
    for size, val in zip(sizes, table):
        assert val == induced_moment(state, Region(state.metric, ordered[:size]), words[0])
    # an unsorted whole region is summed in sorted order as well
    assert induced_moment(state, region, words[0]) == table[-1]


def _product_words(rng, d, n, count):
    """Complex Gaussian word stacks with zeros of either sign in about a
    third of the entries, so traces and terms meet signed zeros."""
    words = rng.normal(size=(count, n, d, d)) + 1j * rng.normal(size=(count, n, d, d))
    zero = rng.random(words.shape) < 0.35
    signs = rng.choice([-0.0, 0.0], size=(2,) + words.shape)
    words[zero] = (signs[0] + 1j * signs[1])[zero]
    return words


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    n=st.integers(min_value=1, max_value=7),
    count=st.integers(min_value=1, max_value=5),
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8, unique=True),
    budget=st.sampled_from([None, 1, 40]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(d=2, n=7, count=2, sizes=[1, 2, 6, 7, 8], budget=None, seed=0)
@example(d=4, n=5, count=3, sizes=[1, 3, 4, 5, 9, 30], budget=1, seed=1)
def test_product_table_equals_per_size_loop(d, n, count, sizes, budget, seed):
    """Each row of the product table is the one-size partition loop, bit
    for bit: sizes below n and size 1, partition chunks of every width
    (budget 1 puts each partition in its own chunk), and the table of one
    behind ``product_moment``. The second example's chunks of one entry
    catch a block product taken in place, which numpy rounds as a
    reduction, without the fused multiply-add of its other loops."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d).rho
    words = _product_words(rng, d, n, count)
    sizes = sorted(sizes)
    budget = _moments._PRODUCT_CHUNK_BUDGET if budget is None else budget
    with mock.patch.object(_moments, "_PRODUCT_CHUNK_BUDGET", budget):
        got = _moments.product_moment_batch(rho, sizes, words)
        one = _moments.product_moment(rho, sizes[-1], words[0])
    want = np.array([product_moment_loop(rho, size, words) for size in sizes])
    assert got.shape == (len(sizes), count)
    assert got.tobytes() == want.tobytes()
    assert np.array(one).tobytes() == want[-1, 0].tobytes()


def test_product_table_skips_partitions_above_each_size():
    """A size below a partition's block count takes no term, as the loop
    skips it. Here the block (2, 3) overflows while the left-to-right full
    product c1 c2 c3 stays finite, so at size 1 a zero multiplicity times
    that trace would turn the finite moment into nan."""
    rng = np.random.default_rng(0)
    rho = np.diag([0.3, 0.7]).astype(complex)
    a, b = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    words = np.array([[1e-200 * a, 1e200 * b, 1e200 * a.T]])
    sizes = [1, 2, 5]
    with np.errstate(over="ignore", invalid="ignore"):
        got = _moments.product_moment_batch(rho, sizes, words)
        want = np.array([product_moment_loop(rho, size, words) for size in sizes])
    assert np.isfinite(got[0, 0])
    assert got.tobytes() == want.tobytes()


def test_product_table_crosses_partition_chunks():
    """Degree 9 at six sizes fills B(9) = 21147 partitions into 15 chunks
    of the default budget, each carrying the totals to the next."""
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2).rho
    words = _product_words(rng, 2, 9, 3)
    sizes = [1, 3, 8, 9, 10, 20]
    per_chunk = _moments._PRODUCT_CHUNK_BUDGET // ((len(sizes) + 9) * len(words))
    assert -(-21147 // per_chunk) == 15
    got = _moments.product_moment_batch(rho, sizes, words)
    want = np.array([product_moment_loop(rho, size, words) for size in sizes])
    assert got.tobytes() == want.tobytes()


def _table_case(kind, d, rng):
    """A state and an unsorted region of 2..5 sites inside its domain."""
    if kind == "product":
        state = ProductState(random_density(rng, d))
    elif kind == "markov":
        state = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
    else:
        # d = 2 purifies a mixed base (2 axes a site); d = 3 keeps a pure one
        length = 6 if d == 2 else 5
        base = random_density(rng, d) if d == 2 else pure_state(rng.normal(size=d))
        layers = [(k % 2, random_two_site_unitary(rng, d)) for k in range(2)]
        state = CircuitState(base, length, layers)
    count = int(rng.integers(2, 6))
    sites = [int(x) for x in rng.permutation(5)[:count]]
    return state, Region(state.metric, sites)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["product", "markov", "circuit"]),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(kind="markov", d=2, n=4, seed=1)  # tensor side
@example(kind="markov", d=3, n=3, seed=2)  # direct side
@example(kind="markov", d=2, n=3, seed=14)  # two items' near lists differ
@example(kind="markov", d=3, n=2, seed=50)  # two items' witnesses differ
@example(kind="markov", d=3, n=2, seed=93)  # a lone item's witness: a table of one size
@example(kind="product", d=2, n=4, seed=26)  # near lists and witnesses differ
def test_size_tables_match_per_size_calls(kind, d, n, seed):
    """Each ``_search_table`` row is the per-size centered search (value,
    witness bytes, evaluations), and each ``ccr_decay_table`` row is the
    per-size ``ccr_decay_check`` with the table's C. The items of a table
    share each equal word list as one size table; the examples cover
    lists that differ between items and a table of one size."""
    rng = np.random.default_rng(seed)
    state, region = _table_case(kind, d, rng)
    ordered = region.sorted_sites()
    picks = rng.permutation(np.arange(1, len(region) + 1))[: int(rng.integers(1, 4))]
    sizes = sorted(int(k) for k in picks)
    parts = [
        region if k == len(region) else Region(state.metric, ordered[:k]) for k in sizes
    ]
    omegas = [state.averaged_restriction(part) for part in parts]
    rows = _search_table(state, region, n, omegas, sizes, 2, seed)
    for part, omega, row in zip(parts, omegas, rows):
        want = seminorm_nu_omega_estimate(
            InducedMomentFunctional(state, part), n, omega, search_budget=2, seed=seed
        )
        assert (row.value, row.evaluations) == (want.value, want.evaluations)
        assert _same_words([row.witness], [want.witness])

    a, b, *rest = _random_word(rng, d, n + 1)
    cut = int(rng.integers(0, n))
    prefix, suffix = tuple(rest[:cut]), tuple(rest[cut:])
    checks = ccr_decay_table(
        state, region, a, b, sizes, prefix, suffix, search_budget=2, seed=seed
    )
    c_value = max(row.value for row in rows)
    for part, check in zip(parts, checks):
        assert check.c_constant == c_value
        want = ccr_decay_check(state, part, a, b, prefix, suffix, c_estimate=c_value)
        assert check == want


def test_ccr_decay_table_sends_tie_break_words_in_one_sweep(monkeypatch):
    """Seed 0 on the README chain at 8 sizes: the search's basis tensor and
    its near-tie words are one Markov sweep each over the largest region,
    read out at every size. Each sweep is a table of
    ``InducedMomentFunctional.batch``, the name the layer tracer counts."""
    calls, batches = [], []
    real = fluctuations.markov_moment_batch
    real_batch = fluctuations.InducedMomentFunctional.batch

    def sweep(state, positions, words, sizes):
        calls.append((len(words), len(positions), list(sizes)))
        return real(state, positions, words, sizes)

    def batch(self, words, sizes=None):
        batches.append((len(words), sizes))
        return real_batch(self, words, sizes)

    monkeypatch.setattr(fluctuations, "markov_moment_batch", sweep)
    monkeypatch.setattr(fluctuations.InducedMomentFunctional, "batch", batch)
    mk = MarkovState(T_STD, alpha=0.4)
    sizes = list(range(8, 65, 8))
    ccr_decay_table(
        mk, Region(mk.metric, range(64)), SZ, SY, sizes, (SZ,), (SX,), search_budget=8, seed=0
    )
    # the defect, rest and commutator tables, the basis tensor, the near-tie words
    assert [count for count, _, _ in calls] == [2, 1, 1, 27, 12]
    assert all((sites, table) == (64, sizes) for _, sites, table in calls)
    assert batches == [(27, sizes), (12, sizes)]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["product", "markov"]),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_rows_equal_batches_of_one(kind, d, n, count, seed):
    """Each word's row of a product or Markov table equals that word's
    batch of one, bit for bit: a word's value does not depend on the
    other words of its send."""
    rng = np.random.default_rng(seed)
    sites = sorted(int(x) for x in rng.choice(40, size=int(rng.integers(1, 13)), replace=False))
    sizes = sorted({int(k) for k in rng.integers(1, len(sites) + 1, size=3)})
    if kind == "product":
        rho = random_density(rng, d).rho
        words = _product_words(rng, d, n, count)
        table = lambda ws: _moments.product_moment_batch(rho, sizes, ws)
    else:
        mk = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
        words = np.array([[a.mat for a in _random_word(rng, d, n)] for _ in range(count)])
        table = lambda ws: _moments.markov_moment_batch(mk, sites, ws, sizes)
    rows = table(words)
    for j in range(count):
        assert rows[:, j].tobytes() == table(words[j : j + 1])[:, 0].tobytes()


def _sweep_words(rng, kind, d, n, count):
    """A (count, n, d, d) stack: Paulis and the identity (at d != 2, signed
    permutations with phases, so exact entries and zeros as well), random
    Hermitian or random non-Hermitian operators."""
    if kind == "pauli":
        if d == 2:
            basis = np.array([SI.mat, SX.mat, SY.mat, SZ.mat])
            return basis[rng.integers(0, 4, size=(count, n))]
        perms = np.array([np.eye(d)[rng.permutation(d)] for _ in range(count * n)])
        phases = 1j ** rng.integers(0, 4, size=(count * n, d, 1))
        return (perms * phases).reshape(count, n, d, d)
    words = rng.normal(size=(count, n, d, d)) + 1j * rng.normal(size=(count, n, d, d))
    if kind == "hermitian":
        words = words + words.conj().swapaxes(-1, -2)
    return words


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    n=st.integers(min_value=1, max_value=6),
    count=st.integers(min_value=1, max_value=30),
    kind=st.sampled_from(["pauli", "hermitian", "general"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(d=4, n=2, count=3, kind="general", seed=0)
@example(d=2, n=6, count=30, kind="pauli", seed=1)
def test_markov_sweep_matches_reference_bits(d, n, count, kind, seed):
    """The Markov sweep equals the frozen (word, subset, i, j) loop of
    ``conftest.markov_sweep_reference`` as uint64 words, so signed zeros
    count: gapped sites in any order, random size subsets. At d = 4 the
    readout's sum of d entries is pairwise, not sequential."""
    rng = np.random.default_rng(seed)
    if d == 4:
        n = min(n, 4)
    mk = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
    gaps = rng.integers(1, 5, size=int(rng.integers(1, 13)))
    sites = [int(x) for x in rng.permutation(np.cumsum(gaps))]
    sizes = sorted({int(k) for k in rng.integers(1, len(sites) + 1, size=int(rng.integers(1, 5)))})
    words = _sweep_words(rng, kind, d, n, count)
    got = _moments.markov_moment_batch(mk, sites, words, sizes)
    want = markov_sweep_reference(mk, sites, words, sizes)
    assert got.shape == want.shape == (len(sizes), count)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_prefix_lengths_checked():
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(4))
    for bad in ([], [0, 2], [2, 2], [3, 1], [2, 5]):
        with pytest.raises(ValueError):
            _moments_of(mk, region, [(SZ, SZ)], bad)


def test_prefix_guard_runs_before_engine_work(monkeypatch):
    """The first size over TUPLE_SUM_GUARD raises before the Markov sweep."""
    sweeps = []
    monkeypatch.setattr(fluctuations, "markov_moment_batch", lambda *args: sweeps.append(args))
    mk = MarkovState(T_STD, alpha=0.4)
    with pytest.raises(CostGuardError, match="101\\^4"):
        _moments_of(mk, Region(mk.metric, range(120)), [(SZ,) * 4], [2, 101, 120])
    assert sweeps == []


def test_markov_dp_guard_runs_before_engine_work(monkeypatch):
    """2^n d^2 over MARKOV_DP_GUARD raises before the sweep; the limit is allowed."""
    sweeps = []

    def sweep(state, positions, words, sizes):
        sweeps.append(len(words[0]))
        return np.zeros((len(sizes), len(words)), dtype=complex)

    monkeypatch.setattr(fluctuations, "markov_moment_batch", sweep)
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(2))
    _moments_of(mk, region, [(SZ,) * 18], [2])
    with pytest.raises(CostGuardError, match="2\\^19 \\* 2\\^2") as info:
        _moments_of(mk, region, [(SZ,) * 19], [2])
    assert info.value.guard == "Markov subset DP"
    mk3 = MarkovState(random_gapped_transition(np.random.default_rng(3), 3), alpha=0.4)
    word = (SiteOperator(np.eye(3)),)
    _moments_of(mk3, Region(mk3.metric, [0]), [word * 16], [1])
    with pytest.raises(CostGuardError, match="2\\^17 \\* 3\\^2"):
        _moments_of(mk3, Region(mk3.metric, [0]), [word * 17], [1])
    assert sweeps == [18, 16]


def test_markov_degree_thirteen_matches_brute_force():
    """Degree 13 on one site: all 2^13 slot subsets are placed at once."""
    rng = np.random.default_rng(13)
    mk = MarkovState(random_gapped_transition(rng, 2), alpha=0.4)
    word = _random_word(rng, 2, 13)
    got = induced_moment(mk, Region(mk.metric, [3]), word)
    want = brute_for_markov(mk, [3], word)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_centered_search_at_dimension_one_returns():
    """Every d = 1 operator centers to 0: no words, value 0, empty witness."""
    ps = ProductState(SiteState(np.array([[1.0]])))
    F = InducedMomentFunctional(ps, Region(ps.metric, range(2)))
    est = seminorm_nu_omega_estimate(F, 2, ps.single_site_restriction(), search_budget=4)
    assert (est.value, est.witness, est.evaluations) == (0.0, (), 0)


# =============================================================================
# Batched random search draws against one draw per operator
# =============================================================================

def _one_unit(rng, dim):
    """One Hermitian unit per call: the per-draw reference."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (raw + raw.conj().T)
    return SiteOperator(h / float(np.linalg.norm(h, 2)))


def _centered_unit(a, omega, refuse=lambda a: False):
    """One operator centered and renormalized with its own SVD, or None."""
    if refuse(a):
        return None
    c = center(a, omega)
    nrm = op_norm(c)
    return None if nrm < 1e-9 else SiteOperator(c.mat / nrm)


def _sequential_words(n, dim, budget, omega, seed, refuse=lambda a: False):
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(budget):
        w = []
        for _slot in range(n):
            cand = _one_unit(rng, dim)
            if omega is not None:
                cu = _centered_unit(cand, omega, refuse)
                while cu is None:
                    cu = _centered_unit(_one_unit(rng, dim), omega, refuse)
                cand = cu
            w.append(cand)
        words.append(tuple(w))
    return words


def _same_words(got, want):
    return len(got) == len(want) and all(
        len(g) == len(w) and all(a.mat.tobytes() == b.mat.tobytes() for a, b in zip(g, w))
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("centered", [False, True])
def test_search_draws_match_sequential_draws(d, centered):
    """Batched draws and batched centering equal one draw and one SVD per operator."""
    rng = np.random.default_rng(d)
    for seed in range(3):
        omega = random_density(rng, d) if centered else None
        n = int(rng.integers(1, 4))
        _, _, words = _search_words(n, d, 12, omega, seed)
        assert _same_words(words, _sequential_words(n, d, 12, omega, seed))
        _, dirs, _ = _search_words(1, d, 0, omega, seed)
        want = _combo_directions(d)
        if centered:
            want = [c for c in (_centered_unit(a, omega) for a in want[1:]) if c is not None]
        assert _same_words([dirs], [tuple(want)])


@pytest.mark.parametrize("d", [2, 3])
def test_refused_centered_draws_take_the_next_draw(monkeypatch, d):
    """Refusing about half the draws runs the batch out: later draws are fresh."""
    refused = []
    centered_units = fluctuations._centered_units

    def refuse(a):
        if a.mat[0, 0].real > 0.0:
            refused.append(a)
            return True
        return False

    def refuse_some(mats, omega):
        units, keep = centered_units(mats, omega)
        drop = np.array([refuse(SiteOperator(m)) for m in mats], dtype=bool)
        return units, keep & ~drop

    monkeypatch.setattr(fluctuations, "_centered_units", refuse_some)
    omega = random_density(np.random.default_rng(d), d)
    _search_words(3, d, 0, omega, 5)  # the direction set only
    direction_refusals = len(refused)
    refused.clear()
    _, _, words = _search_words(3, d, 10, omega, 5)
    # each refused draw needs one draw past the batch of 10 * 3
    draw_refusals = len(refused) - direction_refusals
    assert draw_refusals > 0
    refused.clear()
    want = _sequential_words(3, d, 10, omega, 5, refuse)
    assert len(refused) == draw_refusals
    assert _same_words(words, want)


def test_search_draw_guard_trips_before_engine_work(monkeypatch):
    """A budget whose draws pass SEARCH_DRAW_GUARD is refused before any
    Markov sweep or functional call, in a search and in a ccr-decay table."""
    check_search_draws(SEARCH_DRAW_GUARD // 2, 2)
    budget = SEARCH_DRAW_GUARD // 2 + 1
    sweeps = []
    monkeypatch.setattr(fluctuations, "markov_moment_batch", lambda *args: sweeps.append(args))
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(8))
    with pytest.raises(CostGuardError) as err:
        ccr_decay_table(mk, region, SZ, SX, [4, 8], (SZ,), search_budget=budget)
    assert err.value.guard == "search draws"
    assert str(err.value) == f"search_budget * n = {budget} * 2 exceeds {SEARCH_DRAW_GUARD}"
    functional = InducedMomentFunctional(mk, region)
    with pytest.raises(CostGuardError):
        seminorm_nu_estimate(functional, 2, search_budget=budget)
    with pytest.raises(CostGuardError):
        seminorm_nu_omega_estimate(
            functional, 2, mk.single_site_restriction(), search_budget=budget
        )
    assert sweeps == []


# =============================================================================
# Exact oracles at sizes beyond brute force
# =============================================================================

@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_and_markov_engines_agree_on_one_state(d, n, seed):
    """rho = diag(p) at every site and the chain T = p 1^T are one state.

    Two unrelated engines compute it: set partitions with falling
    factorials, and the subset DP. Non-Hermitian words, size tables up to
    |X| = 64, where no brute-force oracle reaches.
    """
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d))
    product = ProductState(SiteState(np.diag(p)))
    markov = MarkovState(np.outer(p, np.ones(d)), alpha=0.4, pi=p)
    sizes = sorted({int(k) for k in rng.integers(1, 64, size=3)} | {64})
    words = [_random_word(rng, d, n) for _ in range(3)]
    got = _moments_of(product, Region(product.metric, range(64)), words, sizes)
    want = _moments_of(markov, Region(markov.metric, range(64)), words, sizes)
    norms = np.array([math.prod(op_norm(a) for a in w) for w in words])
    assert np.all(np.abs(got - want) <= 1e-13 * norms), (sizes, np.abs(got - want) / norms)


@pytest.mark.parametrize("size", [8, 16, 32, 64, 100])
def test_markov_degree_two_closed_form_at_large_sizes(size):
    """On the README chain Z has C(g) = 0.6^g (0.6 is T's second eigenvalue),
    so m2 = |X|^-1 sum_{x, y in X} 0.6^|x - y| = 4 - 7.5 (1 - 0.6^|X|) / |X|."""
    mk = MarkovState(T_STD, alpha=0.4)
    got = induced_moment(mk, Region(mk.metric, range(size)), (SZ, SZ))
    assert abs(got - (4.0 - 7.5 * (1.0 - 0.6**size) / size)) <= 1e-13


# =============================================================================
# The paper's limit: the variance of a classical chain (Goderis, Verbeure
# and Vets, Commun. Math. Phys. 128, 1990)
# =============================================================================

def test_markov_variance_approaches_the_perron_limit():
    """On the README chain with Z, Lambda''(0) = 4 both by the fundamental
    matrix and by the contour FFT, and m2 approaches it as 4 - 7.5 / |X|
    up to 0.6^|X|: |X| (4 - m2) is one constant to 1e-6 from |X| = 32 on."""
    a = np.array([1.0, -1.0])
    limit = kemeny_snell_variance(T_STD, a)
    assert abs(limit - 4.0) <= 1e-12
    assert abs(perron_log_derivative(T_STD, a, 2) - limit) <= 1e-12
    mk = MarkovState(T_STD, alpha=0.4)
    sizes = [32, 64, 100]
    m2 = induced_moment_table(mk, Region(mk.metric, range(100)), (SZ, SZ), sizes)
    gaps = [size * (limit - m.real) for size, m in zip(sizes, m2)]
    assert max(gaps) - min(gaps) <= 1e-6
    assert abs(gaps[-1] - 7.5) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_markov_variance_envelope_on_random_chains(d, seed):
    """A random gapped chain and a random diagonal operator: the two
    oracles agree on Lambda''(0), and m2 is Lambda''(0) - c / |X| up to
    |lambda_2|^|X| <= 0.6^50. The limit and c are fitted at |X| = 50 and
    75; the fitted limit is the oracle's, and the envelope holds at 100."""
    rng = np.random.default_rng(seed)
    T = random_gapped_transition(rng, d)
    a = rng.uniform(-1.0, 1.0, size=d)
    limit = kemeny_snell_variance(T, a)
    scale = max(1.0, abs(limit))
    assert abs(perron_log_derivative(T, a, 2) - limit) <= 1e-12 * scale
    mk = MarkovState(T, alpha=0.4)
    op = SiteOperator(np.diag(a))
    sizes = [50, 75, 100]
    m2 = induced_moment_table(mk, Region(mk.metric, range(100)), (op, op), sizes)
    m50, m75, m100 = [m.real for m in m2]
    fit = (75 * m75 - 50 * m50) / 25
    c = 50 * (fit - m50)
    assert abs(fit - limit) <= 1e-12 * scale
    assert abs(m100 - (fit - c / 100)) <= 1e-13 * scale


def _fourth_cumulant_rates(T, a, sizes):
    """|X| kappa_4 = |X| (m4 - 3 m2^2) of the diagonal operator a per size,
    from one degree-2 and one degree-4 table of the chain on 0..max(sizes)."""
    mk = MarkovState(T, alpha=0.4)
    op = SiteOperator(np.diag(a))
    region = Region(mk.metric, range(max(sizes)))
    m2 = induced_moment_table(mk, region, (op,) * 2, sizes)
    m4 = induced_moment_table(mk, region, (op,) * 4, sizes)
    return [size * (q.real - 3.0 * p.real**2) for size, p, q in zip(sizes, m2, m4)]


def test_markov_fourth_cumulant_approaches_the_perron_limit():
    """On the README chain with Z, Lambda''''(0) = -188 by the contour FFT,
    and |X| kappa_4 approaches it as -188 + 903.75 / |X| up to 0.6^|X|:
    |X| (|X| kappa_4 - Lambda'''') is 903.75 to 1e-6 from |X| = 64 on."""
    a = np.array([1.0, -1.0])
    limit = perron_log_derivative(T_STD, a, 4)
    assert abs(limit + 188.0) <= 1e-9
    sizes = [64, 75, 100]
    rates = _fourth_cumulant_rates(T_STD, a, sizes)
    for size, rate in zip(sizes, rates):
        assert abs(size * (rate - limit) - 903.75) <= 1e-6, size


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_markov_fourth_cumulant_envelope_on_random_chains(d, seed):
    """A random gapped chain and a random diagonal operator spanning
    [-1, 1]: |X| kappa_4 is Lambda''''(0) + c / |X| up to an exponentially
    small rest. The limit and c are fitted at |X| = 50 and 75; the fitted
    limit is the oracle's to 1e-9 (the FFT's own error is about 1e-11,
    whatever a's scale, hence a spans [-1, 1]), and the envelope holds at
    |X| = 100 to 1e-10."""
    rng = np.random.default_rng(seed)
    T = random_gapped_transition(rng, d)
    a = rng.uniform(-1.0, 1.0, size=d)
    a = 2.0 * (a - a.min()) / np.ptp(a) - 1.0
    limit = perron_log_derivative(T, a, 4)
    r50, r75, r100 = _fourth_cumulant_rates(T, a, [50, 75, 100])
    fit = (75 * r75 - 50 * r50) / 25
    c = 50 * (r50 - fit)
    assert abs(fit - limit) <= 1e-9
    assert abs(r100 - (fit + c / 100)) <= 1e-10
