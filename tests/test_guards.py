"""Every cost guard refuses through ``errors.check_guard``, at its edge.

The unbuilt-power guards reach it through ``errors.check_power_guard``, so
their module entry is ``errors``.
"""

import numpy as np
import pytest

from flab import (
    SX,
    SZ,
    Assignment,
    Covariance,
    CircuitState,
    CostGuardError,
    MarkovState,
    ProductState,
    Region,
    SiteState,
    cli,
    cluster,
    combinatorics,
    errors,
    fluctuations,
    gaussian,
    lattice,
)

T_STD = [[0.8, 0.2], [0.2, 0.8]]
COV = Covariance(2, np.eye(4))
PRODUCT = ProductState(SiteState(np.diag([0.75, 0.25])))
PURE = SiteState(np.diag([1.0, 0.0]))
MIXED = SiteState(np.diag([0.7, 0.3]))


def _expansion(m: int):
    state = MarkovState(T_STD, alpha=0.4)
    assignment = Assignment(Region(state.metric, range(m)), {x: SZ for x in range(m)})
    return cluster.cluster_expansion_check(state, assignment)


# (module, guard, the call at the limit, the smallest call past it, its message);
# lru-cached functions are called through __wrapped__ at the limit, so a cached
# value cannot skip the guard
GUARDS = {
    "region size": (
        cli,
        "region size",
        lambda: cli._check_region_size(10**4),
        lambda: cli._check_region_size(10**4 + 1),
        "region size 10001 exceeds 10000",
    ),
    "counting radii": (
        cli,
        "counting radii",
        lambda: cli._counting({"counting_max_r": 1000}, 0),
        lambda: cli._counting({"counting_max_r": 1001}, 0),
        "counting_max_r = 1001 exceeds 1000",
    ),
    "random pairs": (
        cli,
        "random pairs",
        lambda: cli._wick_difference({"random_pairs": 1000}, 0),
        lambda: cli._wick_difference({"random_pairs": 1001}, 0),
        "random_pairs = 1001 exceeds 1000",
    ),
    "partition degree": (
        cluster,
        "product-part partition sum",
        lambda: cluster.check_partition_degree(8),
        lambda: cluster.check_partition_degree(9),
        "degree 9 exceeds 8",
    ),
    "partition degree, named": (
        cluster,
        "weight-majorant degree",
        lambda: cluster.check_partition_degree(8, "weight-majorant degree"),
        lambda: cluster.check_partition_degree(9, "weight-majorant degree"),
        "degree 9 exceeds 8",
    ),
    "expansion support": (
        cluster,
        "expansion support size",
        lambda: _expansion(8),
        lambda: _expansion(9),
        "|Y| = 9 exceeds 8",
    ),
    "pair partitions": (
        combinatorics,
        "pair-partition enumeration",
        lambda: combinatorics.pair_partitions(12),
        lambda: combinatorics.pair_partitions(13),
        "degree 13 exceeds 12",
    ),
    "stirling": (
        combinatorics,
        "stirling recursion",
        lambda: combinatorics.stirling2.__wrapped__(1, 20),
        lambda: combinatorics.stirling2(1, 21),
        "degree 21 exceeds 20",
    ),
    "set partitions": (
        combinatorics,
        "set-partition enumeration",
        lambda: combinatorics.set_partitions.__wrapped__(12),
        lambda: combinatorics.set_partitions(13),
        "degree 13 exceeds 12",
    ),
    "ordered partitions": (
        combinatorics,
        "ordered-partition enumeration",
        lambda: combinatorics.ordered_partitions(1, 10),
        lambda: combinatorics.ordered_partitions(1, 11),
        "degree 11 exceeds 10",
    ),
    "markov subset dp": (
        fluctuations,
        "Markov subset DP",
        lambda: fluctuations.check_moment_table(MarkovState(T_STD, alpha=0.4), [1], 18),
        lambda: fluctuations.check_moment_table(MarkovState(T_STD, alpha=0.4), [1], 19),
        "2^n d^2 = 2^19 * 2^2 exceeds 1048576",
    ),
    "product partitions": (
        fluctuations,
        "product set partitions",
        lambda: fluctuations.check_moment_table(PRODUCT, [1], 11),
        lambda: fluctuations.check_moment_table(PRODUCT, [1], 12),
        "degree 12 exceeds 11",
    ),
    "search draws": (
        fluctuations,
        "search draws",
        lambda: fluctuations.check_search_draws(32768, 2),
        lambda: fluctuations.check_search_draws(32769, 2),
        "search_budget * n = 32769 * 2 exceeds 65536",
    ),
    "comparison degree": (
        fluctuations,
        "seminorm comparison degree",
        lambda: fluctuations.check_comparison_table([6], 1),
        lambda: fluctuations.check_comparison_table([7], 1),
        "degree 7 exceeds 6",
    ),
    "wick": (
        gaussian,
        "wick matching enumeration",
        lambda: gaussian.wick_moment(COV, (SX,) * 12),
        lambda: gaussian.wick_moment(COV, (SX,) * 13),
        "degree 13 exceeds 12",
    ),
    "shifted wick": (
        gaussian,
        "shifted-wick subset enumeration",
        lambda: gaussian.shifted_wick_moment(COV, lambda a: 0.0, (SX,) * 10),
        lambda: gaussian.shifted_wick_moment(COV, lambda a: 0.0, (SX,) * 11),
        "degree 11 exceeds 10",
    ),
    # odd degrees are refused as ValueError first, so 10 is the smallest past 8
    "wick difference": (
        gaussian,
        "wick difference degree",
        lambda: gaussian.wick_difference_bound_table([], [(SX,) * 8]),
        lambda: gaussian.wick_difference_bound_table([], [(SX,) * 10]),
        "degree 10 exceeds 8",
    ),
    "tuple sum": (
        errors,
        "induced-moment tuple sum",
        lambda: fluctuations.check_tuple_sum(10**4, 2),
        lambda: fluctuations.check_tuple_sum(10**4 + 1, 2),
        "|X|^n = 10001^2 exceeds 100000000",
    ),
    "correction tuples": (
        errors,
        "correction tuple sum",
        lambda: cluster.check_correction_tuples(10**7, 1),
        lambda: cluster.check_correction_tuples(10**7 + 1, 1),
        "|X|^n = 10000001^1 exceeds 10000000",
    ),
    "circuit statevector": (
        errors,
        "circuit statevector size",
        lambda: CircuitState(PURE, 14, []),
        lambda: CircuitState(PURE, 15, []),
        "d^L = 2^15 exceeds 16384",
    ),
    "circuit density matrix": (
        errors,
        "circuit density-matrix size",
        lambda: CircuitState(MIXED, 10, []),
        lambda: CircuitState(MIXED, 11, []),
        "d^2L = 2^22 exceeds 1048576",
    ),
    "subset enumeration": (
        lattice,
        "subset-spread enumeration",
        lambda: lattice.check_subset_enumeration(2000000, 1),
        lambda: lattice.check_subset_enumeration(2000001, 1),
        "2000001 subsets exceeds 2000000",
    ),
}


class _Admitted(Exception):
    """Raised in place of the work a guard admitted."""


@pytest.mark.parametrize("case", list(GUARDS))
def test_guard_admits_its_limit(monkeypatch, case):
    """At the limit the module's first guard call is this guard, at value == limit,
    and ``check_guard`` lets it pass; the work it admits is not run."""
    module, guard, at_limit, _, _ = GUARDS[case]
    check = errors.check_guard
    seen = []

    def admit(name, what, value, limit):
        seen.append((name, value == limit))
        check(name, what, value, limit)
        raise _Admitted

    monkeypatch.setattr(module, "check_guard", admit)
    with pytest.raises(_Admitted):
        at_limit()
    assert seen == [(guard, True)]


@pytest.mark.parametrize("case", list(GUARDS))
def test_guard_refuses_past_its_limit(case):
    """One step past the limit the guard raises with its name and "<what> exceeds <limit>"."""
    _, guard, _, past_limit, message = GUARDS[case]
    with pytest.raises(CostGuardError) as info:
        past_limit()
    assert (info.value.guard, str(info.value)) == (guard, message)

