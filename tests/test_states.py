"""Global states: product, markov, circuit, correlators, clustering."""

import math

import numpy as np
import pytest
from conftest import (
    circuit_dense_density,
    circuit_tensordot_reference,
    dense_expect,
    dense_site_mean,
    markov_config_expect,
    product_density,
    random_gapped_transition,
    rows_grid,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import (
    Assignment,
    CircuitState,
    CostGuardError,
    MarkovState,
    ProductState,
    Region,
    SI,
    SX,
    SY,
    SZ,
    SiteOperator,
    SiteState,
    chain_metric,
    correlator,
    estimate_G0,
    expect_global,
    pure_state,
    random_density,
    random_hermitian_unit,
    state_from_json,
)
from flab.lattice import explicit_metric, grid2d_metric
from flab.states import POWER_CACHE_SIZE, _apply_site, _power_exceeds

RNG = np.random.default_rng(314159)

T_STD = [[0.8, 0.2], [0.2, 0.8]]


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_two_site_unitary(rng):
    return random_unitary(rng, 4)


# =============================================================================
# Assignments and basic expectation plumbing
# =============================================================================

def test_assignment_validation():
    m = chain_metric(1.0)
    reg = Region(m, (0, 2))
    Assignment(reg, {0: SX, 2: SY})
    with pytest.raises(ValueError):
        Assignment(reg, {0: SX})  # missing site 2
    with pytest.raises(ValueError):
        Assignment(reg, {0: SX, 1: SY})  # site off support


def test_product_state_expectations():
    rho = SiteState(np.diag([0.75, 0.25]))
    ps = ProductState(rho)
    assert ps.expect({0: SZ}) == pytest.approx(0.5, abs=1e-14)
    assert ps.expect({0: SZ, 7: SZ}) == pytest.approx(0.25, abs=1e-14)
    assert ps.expect({3: SX}) == pytest.approx(0.0, abs=1e-14)
    reg = Region(ps.metric, (1, 4))
    asg = Assignment(reg, {1: SZ, 4: SZ})
    assert expect_global(ps, asg) == pytest.approx(0.25, abs=1e-14)


def test_product_state_matches_dense_kron():
    rho_mat = random_density(RNG, 2).rho
    ps = ProductState(SiteState(rho_mat))
    L = 5
    full = product_density(rho_mat, L)
    oracle = dense_expect(full, L, 2)
    for _ in range(25):
        k = int(RNG.integers(1, 4))
        sites = RNG.choice(L, size=k, replace=False).tolist()
        ops = {}
        for x in sites:
            ops[x] = SiteOperator(random_hermitian_unit(RNG, 2).mat)
        got = ps.expect(ops)
        want = oracle({x: op.mat for x, op in ops.items()})
        assert abs(got - want) < 1e-12


# =============================================================================
# Markov states
# =============================================================================

def test_markov_state_validation():
    MarkovState(T_STD, alpha=0.4)
    with pytest.raises(ValueError):
        MarkovState([[0.7, 0.2], [0.2, 0.8]], alpha=0.4)  # columns not stochastic
    with pytest.raises(ValueError):
        MarkovState([[1.1, -0.1], [-0.1, 1.1]], alpha=0.4)  # negative entries
    with pytest.raises(ValueError):
        # second eigenvalue 0.6 > e^{-2}
        MarkovState(T_STD, alpha=2.0)


def test_markov_spectral_facts():
    mk = MarkovState(T_STD, alpha=0.4)
    assert mk.second_eigenvalue == pytest.approx(0.6, abs=1e-12)
    assert np.allclose(mk.pi, [0.5, 0.5])
    assert mk.second_eigenvalue <= math.exp(-0.4) + 1e-10
    # two-point function of sz decays exactly like the spectral gap
    for m in range(1, 7):
        val = mk.expect({0: SZ, m: SZ})
        assert val == pytest.approx(0.6**m, abs=1e-12)


def test_transition_powers_above_a_thousand_are_kept():
    """T^3000 is the stepped chain T @ T^(g-1) bit for bit; a second call
    adds no cache entry, and powers stop being kept at POWER_CACHE_SIZE."""
    mk = MarkovState(random_gapped_transition(np.random.default_rng(3), 3), alpha=0.4)
    chain = mk.transition
    for _ in range(2999):
        chain = mk.transition @ chain
    assert mk.transition_power(3000).tobytes() == chain.tobytes()
    kept = len(mk._powers)
    assert kept == 3001
    assert mk.transition_power(3000).tobytes() == chain.tobytes()
    assert len(mk._powers) == kept
    mk.transition_power(POWER_CACHE_SIZE + 5)
    assert len(mk._powers) == POWER_CACHE_SIZE


def test_markov_matches_config_enumeration():
    p = 0.3
    T = [[1 - p, p], [p, 1 - p]]
    mk = MarkovState(T, alpha=0.5)
    span = list(range(6))
    oracle = markov_config_expect(T, mk.pi, span)
    for _ in range(40):
        k = int(RNG.integers(1, 5))
        sites = sorted(RNG.choice(6, size=k, replace=False).tolist())
        ops = {x: SiteOperator(random_hermitian_unit(RNG, 2).mat) for x in sites}
        got = mk.expect(ops)
        want = oracle({x: op.mat for x, op in ops.items()})
        assert abs(got - want) < 1e-12


def test_homogeneous_averaged_restriction_is_the_site_state():
    """Every site restricts to the one site state, so their average is that
    state bit for bit. A sum over the sites divided by |X| moves it in the
    last bit on the README chain at |X| = 6, 7, 12, 14, 24, ..."""
    readme = MarkovState(T_STD, alpha=0.4)
    product = ProductState(random_density(np.random.default_rng(11), 3))
    for state in (readme, product):
        want = state.single_site_restriction()
        for size in range(1, 101):
            got = state.averaged_restriction(Region(state.metric, range(size)))
            assert got.rho.tobytes() == want.rho.tobytes()
        # a site outside the state's domain still raises
        with pytest.raises(ValueError):
            state.averaged_restriction(Region(grid2d_metric(), [(0, 0)]))


def test_markov_off_diagonal_observables_decouple():
    mk = MarkovState(T_STD, alpha=0.4)
    # sx has zero diagonal, so the classical chain gives zero across sites
    assert mk.expect({0: SX, 3: SX}) == pytest.approx(0.0, abs=1e-14)
    assert mk.expect({2: SX}) == pytest.approx(0.0, abs=1e-14)
    assert mk.expect({2: SX, 2 + 0: SX} | {5: SI}) == pytest.approx(0.0, abs=1e-14)


def _markov_expect_loop(mk, ops):
    """Reference sweep: one vector, T^g @ v between the sorted sites."""
    v = mk.pi.astype(complex)
    prev = None
    for x in sorted(ops):
        if prev is not None:
            v = mk.transition_power(x - prev) @ v
        v = np.diagonal(ops[x]) * v
        prev = x
    return complex(v.sum())


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    count=st.integers(min_value=1, max_value=5),
    rows=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_markov_expect_batch_matches_rows(d, count, rows, seed):
    """One transfer sweep for N rows over the same sites equals one per row, bit for bit."""
    rng = np.random.default_rng(seed)
    mk = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
    sites = rng.permutation(rng.choice(7, size=count, replace=False)).tolist()
    mats = rng.normal(size=(rows, count, d, d)) + 1j * rng.normal(size=(rows, count, d, d))
    got = mk.expect_rows(*rows_grid([tuple(sites)] * rows, mats))[:, 0]
    oracle = markov_config_expect(mk.transition, mk.pi, list(range(7)))
    for row, value in zip(mats, got):
        ops = dict(zip(sites, row))
        assert value == mk.expect({x: SiteOperator(a) for x, a in ops.items()})
        assert value == _markov_expect_loop(mk, ops)
        want = oracle(ops)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def test_expect_batch_default_matches_rows():
    """Product and circuit rows over the same sites equal one expect per row."""
    circ = CircuitState(random_density(RNG, 2), 4, [(0, random_two_site_unitary(RNG))])
    for state in (ProductState(random_density(RNG, 2)), circ):
        sites = [2, 0, 3]
        mats = RNG.normal(size=(5, 3, 2, 2)) + 1j * RNG.normal(size=(5, 3, 2, 2))
        got = state.expect_rows(*rows_grid([tuple(sites)] * len(mats), mats))[:, 0]
        want = [state.expect({x: SiteOperator(a) for x, a in zip(sites, row)}) for row in mats]
        assert got.tolist() == want
        assert state.expect_rows(*rows_grid([], mats[:0])).shape == (0, 1)


def _product_expect_loop(ps, ops):
    """Reference: one trace per site, multiplied in the metric's site order."""
    out = complex(1.0, 0.0)
    for x in sorted(ops, key=ps.metric.site_key):
        out *= complex(np.trace(ps.site.rho @ ops[x].mat))
    return out


def _circuit_expect_loop(circ, ops):
    """Reference: the site operators applied to the cached tensor in turn."""
    phi = circ.tensor
    for x, op in ops.items():
        phi = _apply_site(phi, op.mat, x)
    return circ.close(phi)


def _shuffled_explicit_metric(rng, count):
    names = [f"s{i}" for i in rng.permutation(count)]
    pos = rng.permutation(count)
    return explicit_metric(names, [[float(abs(i - j)) for j in pos] for i in pos]), names


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["chain", "grid2d", "explicit"]),
    d=st.sampled_from([2, 3]),
    count=st.integers(min_value=1, max_value=5),
    rows=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_expect_batch_matches_scalar_loop(kind, d, count, rows, seed):
    """Every row equals the site_key-ordered scalar product, bit for bit."""
    rng = np.random.default_rng(seed)
    if kind == "chain":
        metric, pool = chain_metric(1.0), list(range(-4, 8))
    elif kind == "grid2d":
        metric, pool = grid2d_metric(1.0), [(i, j) for i in range(-1, 3) for j in range(3)]
    else:
        metric, pool = _shuffled_explicit_metric(rng, 9)
    ps = ProductState(random_density(rng, d), metric)
    sites = [pool[i] for i in rng.permutation(len(pool))[:count]]
    mats = rng.normal(size=(rows, count, d, d)) + 1j * rng.normal(size=(rows, count, d, d))
    got = ps.expect_rows(*rows_grid([tuple(sites)] * rows, mats))[:, 0]
    assert got.shape == (rows,)
    for row, value in zip(mats, got):
        ops = {x: SiteOperator(a) for x, a in zip(sites, row)}
        assert value == _product_expect_loop(ps, ops)
        assert ps.expect(ops) == value


@settings(max_examples=25, deadline=None)
@given(
    pure=st.booleans(),
    length=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=0, max_value=3),
    count=st.integers(min_value=1, max_value=5),
    rows=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_circuit_expect_batch_matches_scalar_loop(pure, length, depth, count, rows, seed):
    """Every row equals the old scalar circuit query, bit for bit."""
    rng = np.random.default_rng(seed)
    base = pure_state([0.6, 0.8j]) if pure else random_density(rng, 2)
    layers = [(k % 2, random_two_site_unitary(rng)) for k in range(depth)]
    circ = CircuitState(base, length, layers)
    sites = rng.permutation(length)[:count].tolist()
    mats = rng.normal(size=(rows, len(sites), 2, 2)) + 1j * rng.normal(
        size=(rows, len(sites), 2, 2)
    )
    got = circ.expect_rows(*rows_grid([tuple(sites)] * rows, mats))[:, 0]
    assert got.shape == (rows,)
    for row, value in zip(mats, got):
        ops = {x: SiteOperator(a) for x, a in zip(sites, row)}
        assert value == _circuit_expect_loop(circ, ops)
        assert circ.expect(ops) == value


def test_expect_batch_raises_expect_errors():
    mk = MarkovState(T_STD, alpha=0.4)
    bad = [
        ({1.5: SZ}, [1.5], np.array([[SZ.mat]])),  # site outside the chain
        ({0: SZ, 2: SiteOperator(np.eye(3))}, [0, 2], np.zeros((1, 2, 3, 3))),  # dimension
        ({}, [], np.zeros((1, 0, 2, 2))),  # no site
    ]
    circ = CircuitState(SiteState(np.diag([0.7, 0.3])), 4, [])
    for state in (mk, ProductState(SiteState(np.diag([0.7, 0.3]))), circ):
        for ops, sites, mats in bad:
            with pytest.raises(ValueError) as scalar:
                state.expect(ops)
            with pytest.raises(ValueError) as batch:
                state.expect_rows(*rows_grid([tuple(sites)] * len(mats), mats))
            assert str(batch.value) == str(scalar.value)
    with pytest.raises(ValueError, match="distinct"):
        mk.expect_rows(*rows_grid([(0, 0)], np.zeros((1, 2, 2, 2))))
    with pytest.raises(ValueError, match="does not fit"):
        mk.expect_rows([0, 1], [[0, 1]], np.zeros((1, 1, 3, 2, 2)))


def _row_state(family, d, rng):
    """A state, a site pool the state accepts, and a per-row reference query."""
    if family == "markov":
        mk = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
        pool = (np.cumsum(rng.integers(1, 5, size=7)) - int(rng.integers(0, 4))).tolist()
        return mk, pool, lambda ops: _markov_expect_loop(mk, ops)
    if family.startswith("product"):
        if family == "product-chain":
            metric, pool = chain_metric(1.0), list(range(-4, 8))
        elif family == "product-grid":
            metric, pool = grid2d_metric(1.0), [(i, j) for i in range(-1, 3) for j in range(3)]
        else:
            metric, pool = _shuffled_explicit_metric(rng, 9)
        ps = ProductState(random_density(rng, d), metric)
        return ps, pool, lambda ops: _product_expect_loop(
            ps, {x: SiteOperator(a) for x, a in ops.items()}
        )
    base = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d))
    if family == "circuit-mixed":
        base = random_density(rng, d)
    length = 5 if d == 2 else 3
    gate = random_unitary(rng, d * d)
    circ = CircuitState(base, length, [(0, gate), (1, gate)])
    return circ, list(range(length)), lambda ops: _circuit_expect_loop(
        circ, {x: SiteOperator(a) for x, a in ops.items()}
    )


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(
        ["markov", "product-chain", "product-grid", "circuit-pure", "circuit-mixed"]
    ),
    d=st.sampled_from([2, 3]),
    width=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_expect_rows_equal_row_by_row(family, d, width, count, seed):
    """Rows over differing sites, in differing orders, each equal their own
    one-row query and the family's scalar reference, bit for bit."""
    rng = np.random.default_rng(seed)
    state, pool, reference = _row_state(family, d, rng)
    rows = [tuple(pool[i] for i in rng.permutation(len(pool))[:width]) for _ in range(count)]
    mats = rng.normal(size=(count, width, d, d)) + 1j * rng.normal(size=(count, width, d, d))
    got = state.expect_rows(*rows_grid(rows, mats))[:, 0]
    assert got.shape == (count,)
    for row, row_mats, value in zip(rows, mats, got):
        ops = dict(zip(row, row_mats))
        assert value == state.expect({x: SiteOperator(a) for x, a in ops.items()})
        assert value == reference(ops)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(
        ["markov", "product-chain", "product-grid", "product-explicit", "circuit-pure",
         "circuit-mixed"]
    ),
    d=st.sampled_from([2, 3]),
    width=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=0, max_value=6),
    cells=st.integers(min_value=1, max_value=5),
    shared=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_expect_rows_grid_equals_expanded_rows(family, d, width, count, cells, shared, seed):
    """An (S, P) grid equals the same engine on its S * P cells as rows of
    their own, bit for bit, whether the operator stack is one for every
    row (broadcast, as the correction sends it) or one per row; and each
    cell equals the family's scalar reference."""
    rng = np.random.default_rng(seed)
    state, pool, reference = _row_state(family, d, rng)
    sites = [pool[i] for i in rng.permutation(len(pool))]
    index = np.array(
        [rng.permutation(len(sites))[:width] for _ in range(count)], dtype=np.intp
    ).reshape(count, width)
    shape = (1 if shared else count, cells, width, d, d)
    mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = state.expect_rows(sites, index, mats)
    assert got.shape == (count, cells)
    expanded = np.broadcast_to(mats, (count,) + shape[1:]).reshape(count * cells, 1, width, d, d)
    want = state.expect_rows(sites, np.repeat(index, cells, axis=0), expanded)
    assert got.tobytes() == want.tobytes()
    for row, row_mats, values in zip(index, np.broadcast_to(mats, (count,) + shape[1:]), got):
        for cell, value in zip(row_mats, values):
            assert value == reference({sites[i]: a for i, a in zip(row, cell)})


def test_markov_rows_stack_only_their_gaps(monkeypatch):
    """A sparse region asks for the powers of its distinct gaps only."""
    mk = MarkovState(T_STD, alpha=0.4)
    asked = []
    power = mk.transition_power
    monkeypatch.setattr(mk, "transition_power", lambda g: asked.append(g) or power(g))
    rows = [(0, 3, 10**5), (10**5, 0, 3), (3, 10**5, 0)]
    mats = np.stack([np.stack([SZ.mat, SX.mat + SZ.mat, SI.mat])] * 3)
    got = mk.expect_rows(*rows_grid(rows, mats))[:, 0]
    assert sorted(asked) == [3, 10**5 - 3]
    for row, row_mats, value in zip(rows, mats, got):
        assert value == _markov_expect_loop(mk, dict(zip(row, row_mats)))


def test_expect_rows_checks_every_row():
    mk = MarkovState(T_STD, alpha=0.4)
    sites, mats = [0, 1, 2, 1.5], np.zeros((2, 1, 2, 2, 2))
    with pytest.raises(ValueError, match="distinct"):  # a repeated site in a row
        mk.expect_rows(sites, [[0, 1], [2, 2]], mats)
    with pytest.raises(ValueError, match="distinct"):  # one site at two list positions
        mk.expect_rows([0, 1, 0], [[0, 1], [1, 2]], mats)
    with pytest.raises(ValueError, match="outside the state's domain"):
        mk.expect_rows(sites, [[0, 1], [2, 3]], mats)
    with pytest.raises(ValueError, match="outside the 4 sites"):
        mk.expect_rows(sites, [[0, 1], [2, 4]], mats)
    with pytest.raises(ValueError, match="outside the 4 sites"):
        mk.expect_rows(sites, [[0, 1], [2, -1]], mats)
    # mismatched stack shapes: rows wider than the stack, fewer rows than
    # the stack, a stack without its cell axis, and a non-integer index
    with pytest.raises(ValueError, match="does not fit"):
        mk.expect_rows(sites, [[0, 1, 2], [2, 1, 0]], mats)
    with pytest.raises(ValueError, match="does not fit"):
        mk.expect_rows(sites, [[0, 1]], mats)
    with pytest.raises(ValueError, match="does not fit"):
        mk.expect_rows(sites, [[0, 1], [1, 2]], mats[:, 0])
    with pytest.raises(ValueError, match="does not fit"):
        mk.expect_rows(sites, [[0.0, 1.0], [1.0, 2.0]], mats)
    with pytest.raises(ValueError, match="at least one site"):
        mk.expect_rows(sites, np.zeros((2, 0), dtype=np.intp), mats[:, :, :0])


# =============================================================================
# Circuit states
# =============================================================================

def test_depth_zero_circuit_equals_product():
    rho = random_density(RNG, 2)
    circ = CircuitState(rho, 6, [])
    ps = ProductState(rho)
    for _ in range(20):
        k = int(RNG.integers(1, 4))
        sites = RNG.choice(6, size=k, replace=False).tolist()
        ops = {x: SiteOperator(random_hermitian_unit(RNG, 2).mat) for x in sites}
        assert abs(circ.expect(ops) - ps.expect(ops)) < 1e-12


@pytest.mark.parametrize("pure", [True, False])
def test_circuit_matches_dense_evolution(pure):
    L = 6
    if pure:
        base = pure_state([0.6, 0.8j])
    else:
        base = SiteState(np.diag([0.7, 0.3]))
    layers = [
        (0, random_two_site_unitary(RNG)),
        (1, random_two_site_unitary(RNG)),
    ]
    circ = CircuitState(base, L, layers)
    full = circuit_dense_density(base.rho, L, layers)
    oracle = dense_expect(full, L, 2)
    mean = dense_site_mean(full, L, 2)
    for _ in range(25):
        k = int(RNG.integers(1, 4))
        sites = RNG.choice(L, size=k, replace=False).tolist()
        ops = {x: SiteOperator(random_hermitian_unit(RNG, 2).mat) for x in sites}
        got = circ.expect(ops)
        want = oracle({x: op.mat for x, op in ops.items()})
        assert abs(got - want) < 1e-11
    # site restrictions agree with partial traces of the dense state
    for x in range(L):
        lib = circ.site_restriction(x).rho
        for a in (SX, SY, SZ):
            assert abs(np.trace(lib @ a.mat) - mean(x, a.mat)) < 1e-11


def test_circuit_correlations_vanish_beyond_light_cone():
    base = pure_state([1.0, 0.0])
    layers = [(0, random_two_site_unitary(RNG)), (1, random_two_site_unitary(RNG))]
    circ = CircuitState(base, 10, layers)
    depth = 2
    for x in range(3):
        for y in range(10):
            if abs(x - y) <= 2 * depth:
                continue
            for a, b in ((SZ, SZ), (SX, SY)):
                joint = circ.expect({x: a, y: b})
                split = circ.expect({x: a}) * circ.expect({y: b})
                assert abs(joint - split) < 1e-12


def test_circuit_single_site_restriction_homogeneity_check():
    base = pure_state([1.0, 0.0])
    hom = CircuitState(base, 4, [])
    hom.single_site_restriction()
    gate = random_two_site_unitary(RNG)
    inhom = CircuitState(base, 5, [(0, gate)])
    with pytest.raises(ValueError):
        inhom.single_site_restriction()


def test_circuit_restrictions_are_cached_read_only():
    """Each site restriction is computed once per state and its rho cannot be
    written; the averaged and single-site restrictions keep the bytes of the
    frozen tensordot restrictions."""
    rng = np.random.default_rng(35)
    swap = np.eye(4)[[0, 2, 1, 3]]
    base = random_density(rng, 2)
    # swaps keep the mixed product state, so its restrictions are homogeneous
    layers = [(0, swap), (1, swap)]
    circ = CircuitState(base, 6, layers)
    ref = [circuit_tensordot_reference(base.rho, 6, layers).restriction(x) for x in range(6)]
    site = circ.site_restriction(2)
    assert circ.site_restriction(2) is site
    with pytest.raises(ValueError):
        site.rho[0, 0] = 0.0
    with pytest.raises(ValueError):
        site.rho += 1.0
    assert site.rho.tobytes() == ref[2].tobytes()
    region = Region(circ.metric, [4, 1, 3])
    want = sum(ref[x] for x in region.sites) / len(region)
    assert circ.averaged_restriction(region).rho.tobytes() == want.tobytes()
    assert circ.single_site_restriction().rho.tobytes() == (sum(ref) / 6).tobytes()


def test_circuit_cost_guards():
    base = pure_state([1.0, 0.0])
    with pytest.raises(CostGuardError) as pure_guard:
        CircuitState(base, 15, [])
    assert pure_guard.value.guard == "circuit statevector size"
    mixed = SiteState(np.diag([0.7, 0.3]))
    with pytest.raises(CostGuardError) as mixed_guard:
        CircuitState(mixed, 11, [])
    assert mixed_guard.value.guard == "circuit density-matrix size"


@pytest.mark.parametrize("d, limit", [(1, 1), (2, 2**14), (2, 2**20), (3, 2**14), (4, 10**8)])
def test_power_guard_equals_the_integer_power(d, limit):
    """``_power_exceeds`` is d**e > limit at every exponent up to past the
    limit's bit length, and stays true far beyond it for d >= 2."""
    for e in range(limit.bit_length() + 3):
        assert _power_exceeds(d, e, limit) == (d**e > limit)
    assert _power_exceeds(d, 10**9, limit) == (d > 1)


def _assert_circuit_matches_dense(base, rng, length=4):
    """expect and site_restriction of a d=3 circuit against the dense density matrix."""
    layers = [(k % 2, random_unitary(rng, 9)) for k in range(2)]
    circ = CircuitState(base, length, layers)
    assert circ.tensor.shape == (3,) * length + (3**length,)
    full = circuit_dense_density(base.rho, length, layers)
    oracle = dense_expect(full, length, 3)
    mean = dense_site_mean(full, length, 3)
    for _ in range(20):
        sites = rng.choice(length, size=int(rng.integers(1, 4)), replace=False).tolist()
        ops = {x: random_hermitian_unit(rng, 3) for x in sites}
        want = oracle({x: op.mat for x, op in ops.items()})
        assert abs(circ.expect(ops) - want) < 1e-11
    for x in range(length):
        rho_x = circ.site_restriction(x).rho
        for _ in range(3):
            a = random_hermitian_unit(rng, 3).mat
            assert abs(np.trace(rho_x @ a) - mean(x, a)) < 1e-11


def test_circuit_rank_deficient_mixed_base_matches_dense():
    """A d=3 base of rank 2: one purification column is zero up to rounding."""
    rng = np.random.default_rng(31)
    v = random_unitary(rng, 3)
    base = SiteState(v @ np.diag([0.65, 0.35, 0.0]) @ v.conj().T)
    _assert_circuit_matches_dense(base, rng)


def test_circuit_slightly_negative_base_eigenvalue_is_clipped():
    """SiteState admits eigenvalues down to -1e-12; the purification clips them to 0."""
    rng = np.random.default_rng(32)
    v = random_unitary(rng, 3)
    base = SiteState(v @ np.diag([0.6, 0.4 + 5e-13, -5e-13]) @ v.conj().T)
    assert np.linalg.eigvalsh(base.rho)[0] < 0.0
    _assert_circuit_matches_dense(base, rng)


def test_circuit_largest_mixed_base_restrictions_have_unit_trace():
    """L = 10 at d = 2 fills the mixed-base guard: 2^20 purified entries.

    The base trace is 1 + 9e-13, inside SiteState's tolerance; the
    purification is normalized, so ten sites do not add up to 9e-12.
    """
    rng = np.random.default_rng(33)
    layers = [(0, random_two_site_unitary(rng)), (1, random_two_site_unitary(rng))]
    base = SiteState(random_density(rng, 2).rho * (1.0 + 9e-13))
    circ = CircuitState(base, 10, layers)
    assert circ.tensor.size == 2**20
    for x in range(10):
        assert abs(np.trace(circ.site_restriction(x).rho) - 1.0) < 1e-12


# =============================================================================
# Correlators and the clustering estimate
# =============================================================================

def test_correlator_markov_value():
    mk = MarkovState(T_STD, alpha=0.4)
    m = mk.metric
    x = Assignment(Region(m, (0,)), {0: SZ})
    y = Assignment(Region(m, (3,)), {3: SZ})
    c = correlator(mk, x, y)
    # truncated two-point times e^{+distance}, distance alpha*3
    assert c.distance == pytest.approx(1.2, abs=1e-14)
    assert c.value == pytest.approx(0.6**3 * math.exp(1.2), abs=1e-12)


def test_correlator_rejects_bad_geometry():
    mk = MarkovState(T_STD, alpha=0.4)
    m = mk.metric
    x = Assignment(Region(m, (0, 1)), {0: SZ, 1: SZ})
    y = Assignment(Region(m, (1, 2)), {1: SZ, 2: SZ})
    with pytest.raises(ValueError):
        correlator(mk, x, y)  # overlapping supports
    other = chain_metric(2.0)
    xo = Assignment(Region(other, (0,)), {0: SZ})
    yo = Assignment(Region(other, (3,)), {3: SZ})
    with pytest.raises(ValueError):
        correlator(mk, xo, yo)  # metric disagrees with the state's


def test_estimate_G0_markov():
    mk = MarkovState(T_STD, alpha=0.4)
    est = estimate_G0(mk, sample_budget=50, seed=5)
    # the deterministic sweep sees the m=1 pair value 0.6 * e^{0.4}
    floor = 0.6 * math.exp(0.4)
    assert est.value >= floor - 1e-12
    assert est.samples > 0
    # and the estimate really is realized by some correlator, so it stays finite
    assert est.value < 10.0


def test_estimate_G0_sweep_stops_at_the_end_of_a_short_circuit():
    """Separations run up to 8; a length-4 circuit has sites for 1..3 only."""
    state = CircuitState(pure_state([1.0, 0.0]), 4, [(0, np.kron(SX.mat, SX.mat))])
    est = estimate_G0(state, sample_budget=0)
    assert est.samples == 3 * 3 * 3  # separations 1..3, each pair of X, Y, Z directions


def test_markov_state_takes_a_supplied_stationary_vector():
    computed = MarkovState(T_STD, alpha=0.4)
    supplied = MarkovState(T_STD, alpha=0.4, pi=[0.5, 0.5])
    assert supplied.pi.tolist() == [0.5, 0.5]
    assert supplied.pi == pytest.approx(computed.pi, abs=1e-15)
    want = computed.expect({0: SZ, 2: SZ})
    assert supplied.expect({0: SZ, 2: SZ}) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError, match="not stationary"):
        MarkovState(T_STD, alpha=0.4, pi=[0.25, 0.75])
    with pytest.raises(ValueError, match="shape mismatch"):
        MarkovState(T_STD, alpha=0.4, pi=[1.0])


def test_estimate_G0_product_state_is_zero():
    ps = ProductState(SiteState(np.diag([0.75, 0.25])))
    est = estimate_G0(ps, sample_budget=30, seed=2)
    assert est.value == pytest.approx(0.0, abs=1e-12)


# =============================================================================
# JSON loading
# =============================================================================

def test_state_from_json_kinds():
    ps = state_from_json({"kind": "product", "rho": [[0.75, 0], [0, 0.25]]})
    assert isinstance(ps, ProductState)
    assert ps.expect({0: SZ}) == pytest.approx(0.5, abs=1e-14)

    mk = state_from_json({"kind": "markov", "T": T_STD, "alpha": 0.4})
    assert isinstance(mk, MarkovState)
    assert mk.second_eigenvalue == pytest.approx(0.6, abs=1e-12)

    circ = state_from_json(
        {
            "kind": "circuit",
            "base": {"ket": [1.0, 0.0]},
            "length": 4,
            "layers": [],
        }
    )
    assert isinstance(circ, CircuitState)
    assert circ.expect({0: SZ}) == pytest.approx(1.0, abs=1e-14)

    with pytest.raises(ValueError):
        state_from_json({"kind": "heisenberg"})


def test_state_from_json_circuit_integers_only():
    """A float or bool length or offset is refused, not truncated."""
    gate = np.eye(4).tolist()
    spec = {"kind": "circuit", "base": {"ket": [1.0, 0.0]}, "length": 3}
    for length in (3.7, 3.0, True, "3"):
        with pytest.raises(ValueError, match="'length' must be an integer"):
            state_from_json({**spec, "length": length})
    for offset in (True, 0.0, "1"):
        with pytest.raises(ValueError, match="'offset' must be an integer"):
            state_from_json({**spec, "layers": [{"offset": offset, "gate": gate}]})
    circ = state_from_json({**spec, "layers": [{"offset": 1, "gate": gate}]})
    assert (circ.length, circ.layers[0][0]) == (3, 1)


def test_state_from_json_complex_entries():
    ps = state_from_json(
        {"kind": "product", "rho": [[0.5, [0, -0.25]], [[0, 0.25], 0.5]]}
    )
    assert ps.expect({0: SY}) == pytest.approx(0.5, abs=1e-14)
