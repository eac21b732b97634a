"""Decomposition of induced moments into product part plus correction.

For a homogeneous state, the induced moment of a centered word splits
exactly into the moment the product state with the same single-site
restriction would give, plus a correction assembled from truncated
correlations across the sites that the word actually touches. The
correction is organized subset by subset: for each set of touched sites
(in spread-optimal order) and each ordered assignment of word slots to
those sites, a telescoping sum of truncated tail correlations
reproduces the difference between the true expectation and the
factorized one. This module computes both pieces, the combinatorial
weight sums that bound the correction, and the residual check that ties
everything back to the directly evaluated moment.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    SiteOperator,
    SiteState,
    center,
    expect as site_expect,
    op_norm,
    ordered_product,
)
from ._moments import product_moment, product_moment_batch
from .combinatorics import (
    integer_partitions_into_k,
    multinomial,
    ordered_partitions,
    stirling2,
    q_sequence,
)
from .errors import CostGuardError, KahanSum, check_guard
from .fluctuations import induced_moment, induced_moment_table, prefix_sizes
from .gaussian import covariance_from_state, wick_moment
from .lattice import (
    _SPREAD_ELEMENT_BUDGET,
    Metric,
    Region,
    _distance_matrix,
    _index_chunks,
    _spread_orders,
    ball_count,
    spread,
    spread_optimal_enumeration,
)
from .states import Assignment, GlobalState, _power_exceeds, correlator

PRODUCT_PART_MAX_DEGREE = 8
EXPANSION_MAX_SUPPORT = 8
CORRECTION_TUPLE_GUARD = 10**7
# (subset, partition) cells per expect_rows grid; the guard admits millions of them.
# A grid holds d values per cell and one d x d power per subset (P >= 2 cells each),
# so a chunk's memory is set by this budget, not by how many subsets the guard admits
_CORRECTION_ROW_BUDGET = 1024
CENTERED_TOL = 1e-10
DECOMPOSITION_TOL = 1e-9
EXPANSION_TOL = 1e-10


def _require_centered(omega: SiteState, word: Sequence[SiteOperator]) -> None:
    # the bar scales with the operator, so a rounding-level residue passes at any scale
    for a in word:
        dev = abs(site_expect(omega, a))
        if dev > CENTERED_TOL * max(1.0, op_norm(a)):
            raise ValueError(
                f"word operator has expectation {dev:.3e}; center it first"
            )


def _checked_size(size: int) -> int:
    # prefix_sizes' rule: Python or numpy integers only, so 2.5 is not read as 2
    if not (isinstance(size, (int, np.integer)) and size >= 1):
        raise ValueError(f"region size must be a positive integer, got {size!r}")
    return int(size)


def product_part_moment(omega: SiteState, size: int, word: Sequence[SiteOperator]) -> complex:
    """Induced moment the factorized state omega^X assigns to a centered word.

    ``size`` is the site count |X|, the only thing of X that enters.
    Uncentered input is refused, since the closed form groups tuples by
    block structure under the assumption that singleton blocks vanish in
    the decomposition bookkeeping downstream.
    """
    return complex(_product_part_table(omega, [size], tuple(word))[0])


def _product_part_table(omega: SiteState, sizes: Sequence[int], word: tuple) -> np.ndarray:
    """``product_part_moment`` at every size, from one ``product_moment_batch`` call."""
    if not word:
        raise ValueError("product part needs a word of degree >= 1")
    check_partition_degree(len(word))
    _require_centered(omega, word)
    sizes = [_checked_size(size) for size in sizes]
    return product_moment_batch(omega.rho, sizes, np.array([[a.mat for a in word]]))[:, 0]


class ProductPartFunctional:
    """Word functional for the factorized moment at a fixed region size."""

    def __init__(self, omega: SiteState, size: int):
        self.omega = omega
        self.size = _checked_size(size)
        self.dim = omega.dim

    def __call__(self, word) -> complex:
        return complex(self.batch([word])[0])

    def batch(self, words) -> np.ndarray:
        if not words:
            return np.zeros(0, dtype=complex)
        if len(words[0]) == 0:
            return np.ones(len(words), dtype=complex)
        check_partition_degree(len(words[0]))
        stack = np.array([[a.mat for a in w] for w in words])
        return product_moment_batch(self.omega.rho, [self.size], stack)[0]


def check_partition_degree(n: int, guard: str = "product-part partition sum") -> None:
    """Refuse a partition sum over a degree above PRODUCT_PART_MAX_DEGREE."""
    check_guard(guard, f"degree {n}", n, PRODUCT_PART_MAX_DEGREE)


def check_correction_tuples(size: int, n: int, guard: str = "correction tuple sum") -> None:
    """Refuse a sum over the |X|^n site tuples above CORRECTION_TUPLE_GUARD."""
    if _power_exceeds(int(size), n, CORRECTION_TUPLE_GUARD):
        raise CostGuardError(guard, f"|X|^n = {size}^{n} exceeds {CORRECTION_TUPLE_GUARD}")


def f_correction_moment(
    state: GlobalState, region: Region, word: Sequence[SiteOperator]
) -> complex:
    """Correction that restores the true induced moment over the product part.

    Organized over subsets Y of touched sites in spread-optimal order
    and ordered assignments of word slots to Y's positions. For each
    such assignment the sum over split points of (prefix of single-site
    expectations) times (truncated correlation of the tail) telescopes
    exactly, so adding the factorized moment reproduces the direct one
    up to rounding. A ``correction_table`` of one size, the whole region.
    """
    return correction_table(state, region, word, [len(region)])[0]


def correction_table(
    state: GlobalState, region: Region, word: Sequence[SiteOperator], sizes: Sequence[int]
) -> list[complex]:
    """``f_correction_moment`` on the first k sorted sites of region, per k in ``sizes``.

    ``sizes`` are ``prefix_sizes`` of region. The subsets of the largest
    region, per block count m, stream once in combinations order, in
    chunks of at most _CORRECTION_ROW_BUDGET (subset, partition) cells;
    each tail of a chunk is one ``expect_rows`` grid: the chunk's
    spread orders are its index rows into the sorted sites, the
    partitions' operator stack its cells.
    The terms are summed in the order (m, subset, partition, split
    point), their complex products taken as real float operations.
    Each size sums, per chunk, the rows whose last index is below it.
    Its subsets keep their order in the largest region's, a spread
    order reads only its subset's distances, and the compensated sum
    does not depend on where chunks split, so every value equals the
    scalar loop on that size's sites bit for bit.
    """
    word = tuple(word)
    n = len(word)
    if n < 1:
        raise ValueError("correction needs a word of degree >= 1")
    sizes = prefix_sizes(sizes, region)
    for size in sizes:
        check_correction_tuples(size, n)
    omega = state.single_site_restriction()
    _require_centered(omega, word)
    top = sizes[-1]
    sites = region.sorted_sites()[:top]
    dist = _distance_matrix(region.metric, sites) if min(n, top) > 1 else None
    blocks = {}  # block of word slots -> (its operator matrix, its single-site expectation)
    accs = [KahanSum() for _ in sizes]
    for m in range(2, min(n, top) + 1):
        parts = ordered_partitions(m, n)
        for block in {block for part in parts for block in part} - blocks.keys():
            op = ordered_product([word[i - 1] for i in block])
            blocks[block] = (op.mat, site_expect(omega, op))
        stack = np.array([[blocks[block][0] for block in part] for part in parts])
        singles = [[blocks[block][1] for block in part] for part in parts]
        # prefixes[p, k - 1]: partition p's first k - 1 singles, multiplied from the left
        prefixes = np.array(
            [list(itertools.accumulate(r[:-2], operator.mul, initial=1.0 + 0j)) for r in singles]
        )
        singles = np.array(singles)[:, :-1]
        per_chunk = max(1, _CORRECTION_ROW_BUDGET // len(parts))
        for chunk in _index_chunks(top, m, per_chunk):
            orders, _ = _spread_orders(dist, chunk)
            # tails[k - 1]: the tail from position k on, on the (subset, partition) grid
            tails = [
                state.expect_rows(sites, orders[:, k - 1 :], stack[None, :, k - 1 :])
                for k in range(1, m + 1)
            ]
            reals, imags = _telescoped_terms(tails, singles, prefixes)
            for size, acc in zip(sizes, accs):
                keep = chunk[:, -1] < size
                if keep.any():
                    acc.add_terms(reals[keep].ravel(), imags[keep].ravel())
    return [acc.value * float(size) ** (-n / 2.0) for size, acc in zip(sizes, accs)]


def _telescoped_terms(tails: list, singles, prefixes) -> tuple:
    """The terms prefix * (tail_k - single * tail_{k+1}), one row per subset.

    Every complex product is taken as real float operations, so each term
    rounds as Python complex arithmetic does. The real and imaginary
    parts come back as two float arrays, each row in (partition, k) order.
    """
    tails = np.stack(tails, axis=-1)
    tr, ti = tails.real, tails.imag
    sr, si = singles.real, singles.imag
    yr = tr[..., :-1] - (sr * tr[..., 1:] - si * ti[..., 1:])
    yi = ti[..., :-1] - (sr * ti[..., 1:] + si * tr[..., 1:])
    pr, pi = prefixes.real, prefixes.imag
    rows = len(tails)
    return (pr * yr - pi * yi).reshape(rows, -1), (pr * yi + pi * yr).reshape(rows, -1)


class CorrectionFunctional:
    """Word functional for the correction moment on a fixed region."""

    def __init__(self, state: GlobalState, region: Region):
        self.state = state
        self.region = region
        self.dim = state.site_dim

    def __call__(self, word) -> complex:
        if len(word) == 0:
            return complex(0.0)
        return f_correction_moment(self.state, self.region, tuple(word))


@dataclass
class ClusterExpansionCheck:
    lhs: complex
    rhs: complex
    deviation: float
    passed: bool


def cluster_expansion_check(state: GlobalState, assignment: Assignment) -> ClusterExpansionCheck:
    """Expectation of a multi-site product against its telescoped expansion.

    The expansion runs along the spread-optimal enumeration of the
    support: a product of single-site expectations plus, at each split
    point, the truncated correlation of the point against its tail,
    reweighted by e^{-spread} exactly cancelling the correlator's e^{+d}
    factor. The two sides must agree to EXPANSION_TOL.
    """
    y = assignment.support
    m = len(y)
    check_guard("expansion support size", f"|Y| = {m}", m, EXPANSION_MAX_SUPPORT)
    enum = spread_optimal_enumeration(y)
    metric = y.metric
    ops = [assignment.ops[site] for site in enum]
    lhs = state.expect(dict(assignment.ops))
    singles = [state.expect({site: op}) for site, op in zip(enum, ops)]
    rhs = complex(1.0)
    for s in singles:
        rhs *= s
    prefix = complex(1.0)
    for l in range(1, m):
        head = Region(metric, (enum[l - 1],))
        tail = Region(metric, enum[l:])
        corr = correlator(
            state,
            Assignment(head, {enum[l - 1]: ops[l - 1]}),
            Assignment(tail, {site: op for site, op in zip(enum[l:], ops[l:])}),
        )
        delta = spread(Region(metric, enum[l - 1 :]))
        rhs += prefix * corr.value * math.exp(-delta)
        prefix *= singles[l - 1]
    deviation = abs(lhs - rhs)
    return ClusterExpansionCheck(
        lhs=lhs, rhs=rhs, deviation=deviation, passed=deviation <= EXPANSION_TOL
    )


def wick_defect_moment(omega: SiteState, size: int, word: Sequence[SiteOperator]) -> complex:
    """Factorized moment minus its finite-size Wick value on ``size`` sites.

    For even degree the Wick moment of the single-site covariance is
    multiplied by prod_{l < n/2} (1 - l / |X|), the exact finite-size
    weight of the fully paired tuples; odd degrees have no Wick part, so
    the defect is the factorized moment itself.
    """
    word = tuple(word)
    n = len(word)
    size = _checked_size(size)
    pp = product_part_moment(omega, size, word)
    if n % 2 == 1:
        return pp
    factor = 1.0
    for l in range(n // 2):
        factor *= 1.0 - l / float(size)
    qf = wick_moment(covariance_from_state(omega), word)
    return pp - factor * qf


def b_n_quantity(region: Region, n: int) -> float:
    """Spread-decay weight sum over degree-n site tuples of the region.

    Each tuple contributes, for every split point k before the first
    singleton-occupancy position of its spread-optimally enumerated
    range, the factor e^{-(distance from the k-th point to the rest)}.
    Tuples are grouped by range subset and occupancy composition, which
    keeps the cost polynomial while reproducing the tuple sum exactly.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    size = len(region)
    check_correction_tuples(size, n, "weight-sum enumeration")
    if min(n, size) < 2:
        return 0.0
    dist = _distance_matrix(region.metric, region.sorted_sites())
    total = np.zeros(1)
    for m in range(2, min(n, size) + 1):
        comps = integer_partitions_into_k(n, m)
        coeffs = np.array([float(multinomial(comp)) for comp in comps])
        # a composition sums the weights before min(m - 1, its first singleton position)
        ends = [
            min(m - 1, next((idx + 1 for idx, c in enumerate(comp) if c == 1), m + 1)) - 1
            for comp in comps
        ]
        for chunk in _index_chunks(size, m, max(1, _SPREAD_ELEMENT_BUDGET // m**2)):
            _, splits = _spread_orders(dist, chunk)
            # math.exp per split: np.exp can differ in the last bit
            weights = [math.exp(-x) for x in splits.ravel().tolist()]
            prefix = np.cumsum(np.reshape(weights, splits.shape), axis=1)
            # cumsum adds in sequence, as total += term in (m, subset, composition) order
            total = np.cumsum(np.concatenate((total, (coeffs * prefix[:, ends]).ravel())))[-1:]
    return float(total[0])


def n_hat_series(k: int, metric: Metric, support: Region | None = None) -> float:
    """Sum over integer radii of (ball count)^k e^{-r}, with a tail majorant.

    The series is truncated once terms decrease below 1e-14; the
    remainder is replaced by a geometric majorant using the next term
    and the (decreasing) term ratio, so the returned value is an upper
    bound on the infinite sum, accurate to about 1e-14.
    """
    if k < 1:
        raise ValueError("power must be positive")
    total = 0.0
    r = 1
    prev = None
    while r <= 100000:
        term = float(ball_count(metric, float(r), support)) ** k * math.exp(-float(r))
        total += term
        if prev is not None and term < prev and term < 1e-14:
            break
        prev = term
        r += 1
    else:
        raise RuntimeError("radius series failed to settle")
    n_next = ball_count(metric, float(r + 1), support)
    n_after = ball_count(metric, float(r + 2), support)
    t_next = float(n_next) ** k * math.exp(-float(r + 1))
    ratio = (float(n_after) / float(n_next)) ** k * math.exp(-1.0) if n_next else 0.0
    if ratio >= 1.0:
        raise RuntimeError("radius series tail is not contracting")
    return total + t_next / (1.0 - ratio)


def b_hat_bound(n: int, metric: Metric, support: Region | None = None) -> float:
    """Size-free majorant of the weight sum per |X|^{n/2}.

    Combines block-count combinatorics with the radius series: n! times
    the sum over block counts k of S(k, n) times sum over split points
    of q-sequence prefactors and radius-series values.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    check_partition_degree(n, "weight-majorant degree")
    total = 0.0
    for k in range(2, n + 1):
        inner = 0.0
        for l in range(1, k):
            j = k - l + 1
            inner += q_sequence(j) * n_hat_series(j, metric, support)
        total += stirling2(k, n) * inner
    return math.factorial(n) * total


@dataclass
class DecompositionCheck:
    direct: complex
    product_part: complex
    correction: complex
    residual: float
    passed: bool


def decomposition_check(
    state: GlobalState, region: Region, word: Sequence[SiteOperator]
) -> DecompositionCheck:
    """direct moment == product part + correction, to rounding.

    A ``decomposition_table`` of one size, the whole region.
    """
    return decomposition_table(state, region, word, [len(region)])[0]


def decomposition_table(
    state: GlobalState, region: Region, word: Sequence[SiteOperator], sizes: Sequence[int]
) -> list[DecompositionCheck]:
    """``decomposition_check`` on the first k sorted sites of region, per k in ``sizes``.

    The word is centered against the homogeneous single-site restriction
    first (construction fails for states without one), then the three
    quantities are computed independently, each as one table over the
    sizes: the direct moments by ``induced_moment_table``, the product
    parts by one closed-form call, the corrections by
    ``correction_table``. Each residual is compared to DECOMPOSITION_TOL
    times max(1, the product of the centered word's operator norms).
    """
    omega = state.single_site_restriction()
    centered = tuple(center(a, omega) for a in word)
    tol = DECOMPOSITION_TOL * max(1.0, math.prod(op_norm(a) for a in centered))
    direct = induced_moment_table(state, region, centered, sizes)
    products = _product_part_table(omega, sizes, centered)
    corrections = correction_table(state, region, centered, sizes)
    out = []
    for value, pp, fc in zip(direct, products.tolist(), corrections):
        residual = abs(value - (pp + fc))
        out.append(DecompositionCheck(value, pp, fc, residual, residual <= tol))
    return out
