"""Gaussian moment calculus over a bilinear covariance form.

A covariance is a bilinear (not sesquilinear) form on single-site
operators, stored as its matrix over the Hermitian operator basis. Wick
moments sum products of pair covariances over all perfect matchings of
the word positions, the shifted variant adds first-moment terms over
subsets, and the difference of two Wick moments is bounded by a
matching-count times norm-polynomial expression whose saturation is
checked exactly in scalar cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    SiteOperator,
    SiteState,
    _hs_coefficient_stack,
    commutator,
    expect as site_expect,
    hermitian_basis,
    hs_coefficients,  # no caller here; bench/tracing.py wraps this name
    op_norm,
)
from .combinatorics import MAX_PAIRING_DEGREE, double_factorial, pair_partitions
from .errors import CostGuardError, KahanSum
from .fluctuations import (
    SeminormEstimate,
    _search_stack,
    check_search_draws,
    seminorm_nu_estimate,
)

WICK_MAX_DEGREE = MAX_PAIRING_DEGREE
SHIFTED_MAX_DEGREE = 10
DIFFERENCE_MAX_DEGREE = 8
WICK_NORM_PAD = 1.05
WICK_BOUND_SLACK = 1e-12
GAMMA_TOL = 1e-12


class Covariance:
    """Bilinear form W(a, b) on operators of one local dimension.

    ``matrix[k, l]`` is W(h_k, h_l) over the Hermitian basis, so values
    on arbitrary operators follow by bilinear expansion of the
    Hilbert-Schmidt coefficients.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, dim: int, matrix):
        self.dim = int(dim)
        m = np.asarray(matrix, dtype=complex)
        nb = len(hermitian_basis(self.dim))
        if m.shape != (nb, nb):
            raise ValueError(f"covariance matrix must be {nb} x {nb} for dim {dim}")
        self.matrix = m

    def value(self, a: SiteOperator, b: SiteOperator) -> complex:
        return complex(_pair_matrix(self, (a, b))[0, 1])


def covariance_from_state(omega: SiteState) -> Covariance:
    """Truncated pair form W(a, b) = omega(ab) - omega(a) omega(b)."""
    basis = hermitian_basis(omega.dim)
    mats = np.array([h.mat for h in basis])
    singles = np.array([site_expect(omega, h) for h in basis])
    joint = np.trace(omega.rho @ mats[:, None] @ mats[None, :], axis1=-2, axis2=-1)
    return Covariance(omega.dim, joint - np.outer(singles, singles))


class _CovariancePairFunctional:
    """Two-slot functional |(a, b) -> W(a, b)| for the norm search."""

    def __init__(self, cov: Covariance):
        self.cov = cov
        self.dim = cov.dim

    def __call__(self, word) -> complex:
        return complex(self.batch([word])[0])

    def batch(self, words) -> np.ndarray:
        coeffs = _hs_coefficient_stack(np.array([[a.mat for a in w] for w in words]))
        return np.einsum("wi,ij,wj->w", coeffs[:, 0], self.cov.matrix, coeffs[:, 1])


def covariance_norm_estimate(
    cov: Covariance, search_budget: int = 64, seed: int = 0
) -> SeminormEstimate:
    """Lower bound on sup |W(a, b)| over unit-operator-norm pairs."""
    return seminorm_nu_estimate(
        _CovariancePairFunctional(cov), 2, search_budget=search_budget, seed=seed
    )


def _pair_matrix(cov: Covariance, word: Sequence[SiteOperator]) -> np.ndarray:
    coeffs = _hs_coefficient_stack(np.array([a.mat for a in word]))
    return coeffs @ cov.matrix @ coeffs.T


def wick_moment(cov: Covariance, word: Sequence[SiteOperator]) -> complex:
    """Sum over perfect matchings of products of pair covariances.

    Odd degrees vanish, the empty word gives 1, and degrees above 12 are
    refused by the enumeration guard.
    """
    word = tuple(word)
    n = len(word)
    if n == 0:
        return complex(1.0)
    if n > WICK_MAX_DEGREE:
        raise CostGuardError(
            "wick matching enumeration", f"degree {n} exceeds {WICK_MAX_DEGREE}"
        )
    if n % 2 == 1:
        return complex(0.0)
    for a in word:
        if a.dim != cov.dim:
            raise ValueError("word dimension does not match covariance")
    pm = _pair_matrix(cov, word)
    acc = KahanSum()
    for matching in pair_partitions(n):
        term = complex(1.0)
        for i, j in matching:
            term *= pm[i - 1, j - 1]
        acc.add(term)
    return acc.value


def shifted_wick_moment(cov: Covariance, shift, word: Sequence[SiteOperator]) -> complex:
    """Wick moments with a first-moment functional mixed in.

    ``shift`` maps a single-site operator to a scalar linearly. The
    value is the sum over position subsets J of prod_{j not in J}
    shift(a_j) times the plain Wick moment of the sub-word on J. A zero
    shift recovers the Wick moment; degree 1 gives shift(a_1).
    """
    word = tuple(word)
    n = len(word)
    if n > SHIFTED_MAX_DEGREE:
        raise CostGuardError(
            "shifted-wick subset enumeration",
            f"degree {n} exceeds {SHIFTED_MAX_DEGREE}",
        )
    for a in word:
        if a.dim != cov.dim:
            raise ValueError("word dimension does not match covariance")
    shifts = [complex(shift(a)) for a in word]
    acc = KahanSum()
    for mask in range(1 << n):
        term = wick_moment(cov, [a for i, a in enumerate(word) if mask & (1 << i)])
        if term == 0.0:
            continue
        for i in range(n):
            if not (mask & (1 << i)):
                term *= shifts[i]
        acc.add(term)
    return acc.value


@dataclass
class WickDifferenceCheck:
    lhs: float
    rhs: float
    rhs_padded: float
    passed: bool
    pad_decisive: bool
    norm_first: float
    norm_second: float
    norm_difference: float


def wick_difference_bound_table(
    pairs: Sequence[tuple[Covariance, Covariance, int]],
    words: Sequence[Sequence[SiteOperator]],
    search_budget: int = 64,
) -> list[list[WickDifferenceCheck]]:
    """``wick_difference_bound_check`` per (W, W', seed) pair and word.

    Every word, every pair's dimensions and the search budget are
    checked, and every Wick moment taken, before any search. A pair's
    three norms ||W||, ||W'|| and ||W - W'|| are searched once (seeds
    seed, seed + 1 and seed + 2) and shared by its rows. The words fix
    one local dimension, so the 3K norms of the table run as one search
    stack.
    """
    words = [tuple(word) for word in words]
    for word in words:
        n = len(word)
        if n == 0 or n % 2 == 1:
            raise ValueError("difference bound is stated for even positive degree")
        if n > DIFFERENCE_MAX_DEGREE:
            raise CostGuardError(
                "wick difference degree", f"degree {n} exceeds {DIFFERENCE_MAX_DEGREE}"
            )
    for cov1, cov2, _ in pairs:
        if cov1.dim != cov2.dim:
            raise ValueError("covariances act on different dimensions")
    if not words:
        return [[] for _ in pairs]
    check_search_draws(search_budget, 2)
    normed = []
    for word in words:
        norms = [op_norm(a) for a in word]
        if min(norms) < 1e-14:
            raise ValueError("cannot normalize a zero operator")
        normed.append(tuple(SiteOperator(a.mat / nrm) for a, nrm in zip(word, norms)))
    lhs_rows = [
        [abs(wick_moment(cov1, w) - wick_moment(cov2, w)) for w in normed]
        for cov1, cov2, _ in pairs
    ]

    # wick_moment matched every pair to the words' dimension: one stack of 3K norms
    covs, seeds = [], []
    for cov1, cov2, seed in pairs:
        covs += [cov1, cov2, Covariance(cov1.dim, cov1.matrix - cov2.matrix)]
        seeds += [seed, seed + 1, seed + 2]
    functionals = [_CovariancePairFunctional(cov) for cov in covs]
    ests = _search_stack(functionals, 2, words[0][0].dim, search_budget, None, seeds)

    def poly(a: float, b: float, half: int) -> float:
        return sum(a ** (k - 1) * b ** (half - k) for k in range(1, half + 1))

    pad = WICK_NORM_PAD
    out = []
    for i, lhs_values in enumerate(lhs_rows):
        n1, n2, nd = (est.value for est in ests[3 * i : 3 * i + 3])
        checks = []
        for word, lhs in zip(words, lhs_values):
            half = len(word) // 2
            count = double_factorial(len(word) - 1)
            rhs = nd * count * poly(n1, n2, half)
            rhs_padded = (nd * pad) * count * poly(n1 * pad, n2 * pad, half)
            passed = lhs <= rhs_padded + WICK_BOUND_SLACK
            pad_decisive = passed and not (lhs <= rhs + WICK_BOUND_SLACK)
            checks.append(
                WickDifferenceCheck(
                    lhs=float(lhs),
                    rhs=float(rhs),
                    rhs_padded=float(rhs_padded),
                    passed=passed,
                    pad_decisive=pad_decisive,
                    norm_first=n1,
                    norm_second=n2,
                    norm_difference=nd,
                )
            )
        out.append(checks)
    return out


def wick_difference_bound_check(
    cov1: Covariance,
    cov2: Covariance,
    word: Sequence[SiteOperator],
    search_budget: int = 64,
    seed: int = 0,
) -> WickDifferenceCheck:
    """|wick(W) - wick(W')| against the matching-count norm polynomial.

    The word is normalized slotwise to unit operator norm. The bound is
    ||W - W'|| (number of matchings) sum_{k=1}^{n/2} ||W||^{k-1}
    ||W'||^{n/2-k} with every norm a certified lower-bound estimate, so
    the check also reports the value with each estimate scaled by
    WICK_NORM_PAD; ``pad_decisive`` flags the case where only the padded
    form passed. Both sides compare with WICK_BOUND_SLACK. This is
    ``wick_difference_bound_table`` at the one word.
    """
    return wick_difference_bound_table([(cov1, cov2, seed)], [word], search_budget)[0][0]


@dataclass
class GammaConsistencyCheck:
    max_deviation: float
    passed: bool


def gamma_consistency_check(cov: Covariance, omega: SiteState) -> GammaConsistencyCheck:
    """W(a, b) - W(b, a) must reproduce omega([a, b]) on basis pairs, to GAMMA_TOL."""
    basis = hermitian_basis(omega.dim)
    pm = _pair_matrix(cov, basis)
    gamma = np.array([[site_expect(omega, commutator(hi, hj)) for hj in basis] for hi in basis])
    dev = float(np.max(np.abs(pm - pm.T - gamma)))
    return GammaConsistencyCheck(max_deviation=dev, passed=dev <= GAMMA_TOL)
