"""Product part, correction term, weight sums, and size-free bounds."""

import itertools
import math

import numpy as np
import pytest
from conftest import b_n_loop, metric_sites, random_gapped_transition, spread_enum_loop
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flab import cluster, lattice
from flab.fluctuations import _prefix_region, induced_moment_table
from flab import (
    Assignment,
    CircuitState,
    CorrectionFunctional,
    CostGuardError,
    KahanSum,
    MarkovState,
    ProductPartFunctional,
    ProductState,
    Region,
    SX,
    SZ,
    SiteOperator,
    SiteState,
    b_hat_bound,
    b_n_quantity,
    ball_count,
    center,
    chain_metric,
    classify_tuple,
    cluster_expansion_check,
    count_subsets_with_spread,
    covariance_from_state,
    decomposition_check,
    expect,
    explicit_metric,
    f_correction_moment,
    grid2d_metric,
    induced_moment,
    n_hat_series,
    op_norm,
    ordered_partitions,
    ordered_product,
    product_part_moment,
    pure_state,
    random_density,
    random_hermitian_unit,
    spread_optimal_enumeration,
    wick_defect_moment,
    wick_moment,
)

RNG = np.random.default_rng(577215)

T_STD = [[0.8, 0.2], [0.2, 0.8]]


def centered(a, omega):
    return center(a, omega)


# =============================================================================
# Product part
# =============================================================================

def test_product_part_equals_product_state_moment():
    """On an actual product state the product part is the whole moment."""
    rho = random_density(RNG, 2)
    ps = ProductState(rho)
    for size in (2, 4, 7):
        region = Region(ps.metric, range(size))
        for n in (2, 3, 4):
            word = tuple(
                centered(SiteOperator(random_hermitian_unit(RNG, 2).mat), rho)
                for _ in range(n)
            )
            pp = product_part_moment(rho, size, word)
            direct = induced_moment(ps, region, word)
            assert abs(pp - direct) < 1e-11


def test_product_part_requires_centered_word():
    rho = SiteState(np.diag([0.75, 0.25]))
    with pytest.raises(ValueError):
        product_part_moment(rho, 4, (SZ, SZ))  # omega(sz) = 1/2, not centered
    product_part_moment(rho, 4, (SX, SX))  # omega(sx) = 0 is fine


def test_product_part_degree_guard():
    rho = SiteState(np.diag([0.5, 0.5]))
    with pytest.raises(CostGuardError):
        product_part_moment(rho, 4, (SX,) * 9)
    # the functional computes the same partition sum, so it has the same guard
    functional = ProductPartFunctional(rho, 4)
    with pytest.raises(CostGuardError):
        functional.batch([(SX,) * 9])
    assert functional((SX,) * 8) == product_part_moment(rho, 4, (SX,) * 8)


def test_product_part_sizes_are_integers():
    """A size of 2.5 is refused, not read as 2; numpy integers are sizes."""
    rho = SiteState(np.diag([0.5, 0.5]))
    word = (SX,) * 4
    for call in (
        lambda size: product_part_moment(rho, size, word),
        lambda size: wick_defect_moment(rho, size, word),
        lambda size: ProductPartFunctional(rho, size)(word),
    ):
        for size in (2.5, 2.0, 0, np.int64(-1)):
            with pytest.raises(ValueError, match="positive integer"):
                call(size)
        assert call(np.int64(2)) == call(2)
    assert product_part_moment(rho, np.int32(2), word) == 2.0


def test_product_part_functional_empty_and_degree_zero_batches():
    functional = ProductPartFunctional(SiteState(np.diag([0.5, 0.5])), 4)
    assert functional.batch([]).shape == (0,)
    assert functional.batch([(), ()]).tolist() == [1, 1]
    assert functional(()) == 1


_RAW_OP = np.array([[1.0, 0.3], [0.3, -0.7]])
UNIT_OP = SiteOperator(_RAW_OP / np.linalg.norm(_RAW_OP, 2))


def test_decomposition_and_centering_verdicts_do_not_depend_on_operator_scale():
    """One slot of a passing unit-norm word scaled by 2**k, k = 0..30:
    its rounding residues and the bars scale alike, so no verdict moves."""
    assert op_norm(UNIT_OP) == 1.0
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(6))
    omega = SiteState(np.diag([0.7, 0.3]))
    c = center(UNIT_OP, omega)
    # nonzero residues at k = 0, so an absolute bar fails at large k
    assert expect(omega, c) != 0
    checks = cluster.decomposition_table(mk, region, (UNIT_OP,) * 3, [3, 6])
    assert all(check.residual > 0 for check in checks)
    for k in range(31):
        word = (SiteOperator(2.0**k * UNIT_OP.mat), UNIT_OP, UNIT_OP)
        assert all(check.passed for check in cluster.decomposition_table(mk, region, word, [3, 6]))
        product_part_moment(omega, 4, (SiteOperator(2.0**k * c.mat), c))


# =============================================================================
# Correction term and the exact decomposition
# =============================================================================

def test_correction_is_zero_on_product_states():
    rho = random_density(RNG, 2)
    ps = ProductState(rho)
    region = Region(ps.metric, range(5))
    word = tuple(
        centered(SiteOperator(random_hermitian_unit(RNG, 2).mat), rho)
        for _ in range(3)
    )
    assert abs(f_correction_moment(ps, region, word)) < 1e-12


def test_decomposition_residual_markov():
    mk = MarkovState(T_STD, alpha=0.4)
    omega = mk.single_site_restriction()
    for size in (2, 4, 7):
        region = Region(mk.metric, range(size))
        for n in (1, 2, 3, 4):
            chk = decomposition_check(mk, region, (SZ,) * n)
            assert chk.passed, (size, n)
            assert chk.residual < 1e-11
            combined = chk.product_part + chk.correction
            assert abs(chk.direct - combined) < 1e-11


def test_decomposition_matches_sum_on_mixed_words():
    mk = MarkovState([[0.9, 0.1], [0.1, 0.9]], alpha=0.1)
    region = Region(mk.metric, range(5))
    word = (SZ, SX, SZ)
    chk = decomposition_check(mk, region, word)
    assert chk.residual < 1e-11


def test_correction_functional_matches_moment():
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(4))
    omega = mk.single_site_restriction()
    corr = CorrectionFunctional(mk, region)
    assert corr(()) == 0.0
    for _ in range(5):
        word = tuple(
            centered(SiteOperator(random_hermitian_unit(RNG, 2).mat), omega)
            for _ in range(3)
        )
        assert abs(corr(word) - f_correction_moment(mk, region, word)) < 1e-12


# =============================================================================
# Telescoped cluster expansion on explicit assignments
# =============================================================================

def test_cluster_expansion_check_markov():
    mk = MarkovState(T_STD, alpha=0.4)
    m = mk.metric
    for sites in [(0, 2), (1, 3, 4), (0, 1, 5)]:
        reg = Region(m, sites)
        asg = Assignment(reg, {x: SZ for x in sites})
        chk = cluster_expansion_check(mk, asg)
        assert chk.passed, sites
        assert chk.deviation < 1e-11


def test_cluster_expansion_check_random_ops():
    mk = MarkovState(T_STD, alpha=0.4)
    m = mk.metric
    for _ in range(10):
        k = int(RNG.integers(2, 5))
        sites = tuple(sorted(RNG.choice(8, size=k, replace=False).tolist()))
        reg = Region(m, sites)
        ops = {
            x: SiteOperator(random_hermitian_unit(RNG, 2).mat) for x in sites
        }
        chk = cluster_expansion_check(mk, Assignment(reg, ops))
        assert chk.passed, sites
        assert chk.deviation < 1e-10


# =============================================================================
# Weight sums B_n and their size-free majorant
# =============================================================================

def brute_b_n(sites, n, metric):
    """Direct tuple sum over the first-singleton telescoping weights."""
    total = 0.0
    for tup in itertools.product(sites, repeat=n):
        cls = classify_tuple(tup)
        sub = cls.subset
        if len(sub) < 2:
            continue
        enum = spread_optimal_enumeration(Region(metric, sub))
        counts = {}
        for v in tup:
            counts[v] = counts.get(v, 0) + 1
        m = len(enum)
        mults = [counts[y] for y in enum]
        for k in range(1, m):
            if all(mults[l] > 1 for l in range(k - 1)):
                d = min(metric.distance(enum[k - 1], enum[j]) for j in range(k, m))
                total += math.exp(-d)
    return total


def test_b_n_hand_values():
    m = chain_metric(1.0)
    assert b_n_quantity(Region(m, (0, 1)), 2) == pytest.approx(
        2 * math.exp(-1), abs=1e-14
    )
    assert b_n_quantity(Region(m, (0, 1, 2)), 2) == pytest.approx(
        4 * math.exp(-1) + 2 * math.exp(-2), abs=1e-14
    )
    assert b_n_quantity(Region(m, (0,)), 2) == 0.0


def test_b_n_matches_brute_force():
    m = chain_metric(1.0)
    for sites in [(0, 1, 2, 3), (0, 2, 5), (0, 1, 2, 3, 4)]:
        for n in (2, 3, 4):
            grouped = b_n_quantity(Region(m, sites), n)
            brute = brute_b_n(sites, n, m)
            assert grouped == pytest.approx(brute, abs=1e-11), (sites, n)


def test_b_n_scaled_metric():
    half = chain_metric(0.5)
    for n in (2, 3):
        grouped = b_n_quantity(Region(half, (0, 1, 3)), n)
        brute = brute_b_n((0, 1, 3), n, half)
        assert grouped == pytest.approx(brute, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    case=metric_sites(),
    n=st.integers(1, 4),
    budget=st.sampled_from([1, 20, lattice._SPREAD_ELEMENT_BUDGET]),
)
def test_b_n_matches_scalar_loop_bit_for_bit(case, n, budget):
    """The array reductions equal the subset-by-subset float loop, in any chunking."""
    metric, sites = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_SPREAD_ELEMENT_BUDGET", budget)
        got = b_n_quantity(Region(metric, sites), n)
    assert got == b_n_loop(metric, sites, n)


def test_b_n_weights_are_math_exp():
    """Each split weight is math.exp's; numpy's vector exp misses it by an ulp at times."""
    for scale in np.random.default_rng(3).uniform(0.05, 40.0, size=300).tolist():
        assert b_n_quantity(Region(chain_metric(scale), (0, 1)), 2) == 2 * math.exp(-scale)


def test_no_distance_matrix_below_degree_two(monkeypatch):
    """Degree 1, a single site and k > |Y| do no pairwise work, at any region size."""

    def build_nothing(*args):
        raise AssertionError("distance matrix built where no subset loop runs")

    for module in (cluster, lattice):
        monkeypatch.setattr(module, "_distance_matrix", build_nothing)
    region = Region(chain_metric(1.0), range(100_000))
    mk = MarkovState(T_STD, alpha=0.4)
    assert b_n_quantity(region, 1) == 0.0
    assert b_n_quantity(Region(chain_metric(1.0), (0,)), 4) == 0.0
    assert f_correction_moment(mk, region, (SZ,)) == 0.0
    assert f_correction_moment(mk, Region(mk.metric, (3,)), (SZ, SZ)) == 0.0
    assert count_subsets_with_spread(Region(chain_metric(1.0), range(5)), 6, 3.0) == 0


def test_n_hat_series_closed_form():
    m = chain_metric(1.0)
    e = math.e
    closed = 2 * e / (e - 1) ** 2 + 1 / (e - 1)
    assert n_hat_series(1, m) == pytest.approx(closed, abs=1e-12)


def test_n_hat_series_majorizes_partial_sums():
    m = chain_metric(1.0)
    for k in (1, 2, 3):
        val = n_hat_series(k, m)
        partial = sum(
            (2 * r + 1) ** k * math.exp(-r) for r in range(1, 60)
        )
        assert val >= partial - 1e-9
        assert val == pytest.approx(partial, rel=1e-10)


def test_b_hat_values_and_bound():
    m = chain_metric(1.0)
    assert b_hat_bound(2, m) == pytest.approx(2 * n_hat_series(2, m), abs=1e-10)
    for n in (2, 3, 4):
        bh = b_hat_bound(n, m)
        for size in range(2, 13):
            region = Region(m, range(size))
            assert b_n_quantity(region, n) <= bh * size ** (n / 2.0) + 1e-9


def test_b_hat_degree_guard():
    with pytest.raises(CostGuardError):
        b_hat_bound(9, chain_metric(1.0))


def test_explicit_chain_segment_weight_sums():
    """An explicit metric copying the L-site chain segment d = |i - j|.

    Its balls are counted over the support, so they saturate at L; its
    weight sum is the chain's bit for bit, and stays below its own
    support-based majorant (23.99 at L = 12 for n = 2, the chain's 24.47).
    """
    chain = chain_metric(1.0)
    for length in range(2, 13):
        sites = list(range(length))
        metric = explicit_metric(sites, [[abs(i - j) for j in sites] for i in sites])
        region = Region(metric, sites)
        for r in [k / 2.0 for k in range(2 * length + 2)]:
            assert ball_count(metric, r, region) == min(2 * math.floor(r) + 1, length)
        for n in (2, 3, 4):
            value = b_n_quantity(region, n)
            assert value == b_n_quantity(Region(chain, sites), n)
            assert value <= b_hat_bound(n, metric, region) * length ** (n / 2.0)


# =============================================================================
# Wick defect
# =============================================================================

def test_wick_defect_vanishes_at_degree_two():
    rho = SiteState(np.diag([0.75, 0.25]))
    for size in (2, 5, 9):
        assert abs(wick_defect_moment(rho, size, (SX, SX))) < 1e-13


def test_wick_defect_kurtosis_value():
    """For the ground state and the flip word the defect is the finite-size
    prefactor gap: (3 - 2/L) - (1 - 1/L) * 3 = 1/L."""
    rho = pure_state([1.0, 0.0])
    for size in (4, 8, 16):
        d = wick_defect_moment(rho, size, (SX,) * 4)
        assert d.real == pytest.approx(1.0 / size, abs=1e-12)


def test_wick_defect_decays():
    rho = random_density(RNG, 2)
    word = tuple(
        center(SiteOperator(random_hermitian_unit(RNG, 2).mat), rho)
        for _ in range(4)
    )
    values = [abs(wick_defect_moment(rho, size, word)) for size in (4, 16, 64)]
    assert values[2] <= values[0] / 4 + 1e-12


def test_wick_defect_odd_degree_is_product_part():
    rho = SiteState(np.diag([0.75, 0.25]))
    size = 6
    word = (SX, SX, SX)
    assert wick_defect_moment(rho, size, word) == pytest.approx(
        product_part_moment(rho, size, word), abs=1e-14
    )


def test_product_part_functional_batch():
    rho = random_density(RNG, 2)
    F = ProductPartFunctional(rho, 8)
    words = [
        tuple(center(SiteOperator(random_hermitian_unit(RNG, 2).mat), rho)
              for _ in range(3))
        for _ in range(6)
    ]
    vals = F.batch(words)
    for w, v in zip(words, vals):
        assert abs(v - product_part_moment(rho, 8, w)) < 1e-12


# =============================================================================
# The batched correction against the subset -> partition -> tail loop
# =============================================================================

def _f_correction_loop(state, region, word):
    """Reference for f_correction_moment: one expect call per tail."""
    omega = state.single_site_restriction()
    n, size = len(word), len(region)
    acc = KahanSum()
    for m in range(2, min(n, size) + 1):
        parts = ordered_partitions(m, n)
        for sub in itertools.combinations(region.sorted_sites(), m):
            enum = spread_enum_loop(region.metric, sub)
            for part in parts:
                ops = [ordered_product([word[i - 1] for i in block]) for block in part]
                singles = [expect(omega, op) for op in ops]
                tails = [complex(1.0)] * (m + 2)
                for k in range(m, 0, -1):
                    tails[k] = state.expect({enum[l - 1]: ops[l - 1] for l in range(k, m + 1)})
                prefix = complex(1.0)
                for k in range(1, m):
                    acc.add(prefix * (tails[k] - singles[k - 1] * tails[k + 1]))
                    prefix *= singles[k - 1]
    return acc.value * float(size) ** (-n / 2.0)


def _swap_symmetric_gate(rng, d):
    """exp(iH) with H commuting with the swap: both legs get one restriction."""
    h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    h = h + h.conj().T
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    h = h + swap @ h @ swap
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _correction_case(family, d, rng):
    """A homogeneous state and a gapped (Markov) or plain site set of its metric, shuffled."""
    if family == "markov":
        state = MarkovState(random_gapped_transition(rng, d), alpha=0.4)
        gaps = rng.integers(1, 4, size=int(rng.integers(0, 6)))
        sites = (np.concatenate([[0], np.cumsum(gaps)]) + int(rng.integers(0, 3))).tolist()
    elif family == "product":
        state = ProductState(random_density(rng, d))
        sites = rng.choice(9, size=int(rng.integers(1, 7)), replace=False).tolist()
    elif family == "grid2d":
        state = ProductState(random_density(rng, d), grid2d_metric(rng.uniform(0.5, 2.0)))
        cells = rng.choice(16, size=int(rng.integers(1, 7)), replace=False)
        sites = [(int(c) // 4, int(c) % 4) for c in cells]
    elif family == "explicit":
        # integer distances 1..3, so split ties are common; key order is shuffled
        names = [f"s{i}" for i in rng.permutation(7)]
        table = np.triu(rng.integers(1, 4, size=(7, 7)), 1)
        metric = explicit_metric(names, (table + table.T).tolist())
        state = ProductState(random_density(rng, d), metric)
        sites = rng.choice(names, size=int(rng.integers(1, 7)), replace=False).tolist()
    else:
        length = 6 if d == 2 else 4
        if family == "circuit-pure":
            base = pure_state(rng.normal(size=d) + 1j * rng.normal(size=d))
        else:
            base = random_density(rng, d)
        # one brick layer from offset 0 on an even segment touches every site once
        state = CircuitState(base, length, [(0, _swap_symmetric_gate(rng, d))])
        sites = rng.choice(length, size=int(rng.integers(1, length + 1)), replace=False).tolist()
    region = Region(state.metric, [sites[i] for i in rng.permutation(len(sites))])
    return state, region


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(
        ["markov", "product", "grid2d", "explicit", "circuit-pure", "circuit-mixed"]
    ),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_correction_matches_tail_loop_bit_for_bit(family, d, n, seed):
    """The correction on row-batched sweeps (each family's ``expect_rows``)
    equals the reference loop of one ``expect`` per tail, bit for bit."""
    rng = np.random.default_rng(seed)
    state, region = _correction_case(family, d, rng)
    omega = state.single_site_restriction()
    word = tuple(
        center(SiteOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))), omega)
        for _ in range(n)
    )
    got = f_correction_moment(state, region, word)
    want = _f_correction_loop(state, region, word)
    assert got == want, (family, region.sites, n)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["markov", "product", "circuit-pure", "circuit-mixed"]),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_correction_does_not_depend_on_row_budget(family, d, n, seed):
    """One subset per sweep and every subset in one sweep give the same bits."""
    rng = np.random.default_rng(seed)
    state, region = _correction_case(family, d, rng)
    omega = state.single_site_restriction()
    word = tuple(
        center(SiteOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))), omega)
        for _ in range(n)
    )
    got = []
    for budget in (1, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cluster, "_CORRECTION_ROW_BUDGET", budget)
            got.append(f_correction_moment(state, region, word))
    assert got[0] == got[1] == _f_correction_loop(state, region, word), (family, region.sites)


# =============================================================================
# Size tables: one correction sweep over the largest region, read out per size
# =============================================================================

def _logged_sums(mp) -> list:
    """Make ``cluster.KahanSum`` keep its terms; the list gets each new sum in creation order."""
    sums = []

    class Logged(KahanSum):
        def __init__(self):
            super().__init__()
            self.reals, self.imags = [], []
            sums.append(self)

        def add_terms(self, reals, imags):
            self.reals.append(np.array(reals))
            self.imags.append(np.array(imags))
            super().add_terms(reals, imags)

    mp.setattr(cluster, "KahanSum", Logged)
    return sums


def _term_bytes(logged) -> tuple:
    """A logged sum's real and imaginary terms, each concatenated over its calls, as bytes."""
    parts = (logged.reals, logged.imags)
    return tuple(np.concatenate([np.zeros(0), *terms]).tobytes() for terms in parts)


@pytest.mark.parametrize(
    "sizes", [[3, 2], [0, 2], [2, 5], [2.5], [2, 2.5], [2.0], []], ids=repr
)
def test_prefix_rule_shared_by_moment_and_correction_tables(sizes):
    """Descending sizes, 0, a size past |X|, non-integers and no size at all
    are one ``ValueError``, with one message, from both size tables."""
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(4))
    messages = []
    for table in (induced_moment_table, cluster.correction_table):
        with pytest.raises(ValueError, match="prefix lengths") as info:
            table(mk, region, (SZ, SZ), sizes)
        messages.append(str(info.value))
    assert messages == ["prefix lengths must be strictly ascending integers in 1..4"] * 2


def test_prefix_rule_admits_numpy_integers():
    mk = MarkovState(T_STD, alpha=0.4)
    region = Region(mk.metric, range(4))
    for table in (induced_moment_table, cluster.correction_table):
        assert table(mk, region, (SZ, SZ), np.array([2, 4])) == table(mk, region, (SZ, SZ), [2, 4])


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(
        ["markov", "product", "grid2d", "explicit", "circuit-pure", "circuit-mixed"]
    ),
    d=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=5),
    drawn=st.sets(st.integers(min_value=1, max_value=7), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(family="markov", d=2, n=5, drawn={1, 2, 3, 6}, seed=0)
@example(family="markov", d=3, n=4, drawn={1, 2, 4}, seed=2)
@example(family="circuit-mixed", d=2, n=3, drawn={1, 2, 5}, seed=0)
@example(family="grid2d", d=2, n=5, drawn={2, 4, 6}, seed=6)
@example(family="explicit", d=3, n=2, drawn={1, 3}, seed=0)
def test_size_tables_equal_per_size_calls(family, d, n, drawn, seed):
    """Every row of ``correction_table`` and ``decomposition_table`` equals
    the one-size call on the first k sorted sites bit for bit, sizes 1 and
    2 and sizes below the degree included. Each size's compensated sum
    also takes the one-size call's terms in its order: the compensation
    forgives most reorderings in the value's last bit."""
    rng = np.random.default_rng(seed)
    state, region = _correction_case(family, d, rng)
    sizes = sorted({min(k, len(region)) for k in drawn})
    omega = state.single_site_restriction()
    word = tuple(
        SiteOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(n)
    )
    centered_word = tuple(center(a, omega) for a in word)
    checks = cluster.decomposition_table(state, region, word, sizes)
    fields = ("direct", "product_part", "correction", "residual", "passed")
    with pytest.MonkeyPatch.context() as mp:
        sums = _logged_sums(mp)
        corrections = cluster.correction_table(state, region, centered_word, sizes)
        table_sums = list(sums)
        assert len(corrections) == len(checks) == len(table_sums) == len(sizes)
        # one subset per sweep: the reference's sums run in combinations order whatever the chunks
        mp.setattr(cluster, "_CORRECTION_ROW_BUDGET", 1)
        for k, fc, check, logged in zip(sizes, corrections, checks, table_sums):
            prefix = _prefix_region(region, k)
            del sums[:]
            one = f_correction_moment(state, prefix, centered_word)
            assert _term_bytes(logged) == _term_bytes(sums[0]), (family, region.sites, n, sizes, k)
            assert np.array(fc).tobytes() == np.array(one).tobytes(), (family, sizes, k)
            want = decomposition_check(state, prefix, word)
            got_bits = np.array([getattr(check, f) for f in fields], dtype=complex).tobytes()
            want_bits = np.array([getattr(want, f) for f in fields], dtype=complex).tobytes()
            assert got_bits == want_bits, (family, region.sites, n, sizes, k)
