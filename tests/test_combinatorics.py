"""Partition, pairing, and counting enumeration layer."""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import (
    CostGuardError,
    canonical_partitions,
    classify_tuple,
    double_factorial,
    falling_factorial,
    integer_partitions_into_k,
    multinomial,
    ordered_partitions,
    pair_partitions,
    partitions_min2_one_gt2,
    q_sequence,
    set_partitions,
    stirling2,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_double_and_falling_factorial():
    assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 5, 7)] == [1, 1, 1, 2, 3, 15, 105]
    assert falling_factorial(6, 3) == 6 * 5 * 4
    assert falling_factorial(4, 0) == 1
    assert falling_factorial(3, 5) == 0


def test_pair_partition_counts():
    # (n-1)!! pairings on even n, none on odd n
    for n, count in [(2, 1), (4, 3), (6, 15), (8, 105)]:
        parts = pair_partitions(n)
        assert len(parts) == count
        assert len(parts) == double_factorial(n - 1)
    assert pair_partitions(3) == []
    assert pair_partitions(5) == []


@given(st.integers(min_value=2, max_value=10).filter(lambda n: n % 2 == 0))
@settings(max_examples=20, deadline=None)
def test_pair_partitions_cover_exactly(n):
    for part in pair_partitions(n):
        seen = sorted(i for pair in part for i in pair)
        assert seen == list(range(1, n + 1))
        for i, j in part:
            assert i < j


def test_pair_partitions_come_in_lexicographic_order():
    """The recursion's own order is the promised one, with no oracle: each
    matching lists pairs i < j by first element, the list ascends
    strictly, and even n has (n-1)!! matchings."""
    for n in range(13):
        parts = pair_partitions(n)
        for part in parts:
            assert all(i < j for i, j in part)
            assert [i for i, _ in part] == sorted(i for i, _ in part)
        assert all(p < q for p, q in zip(parts, parts[1:]))
        assert len(parts) == (double_factorial(n - 1) if n % 2 == 0 else 0)


def test_stirling_values():
    assert stirling2(2, 3) == 3
    assert stirling2(2, 4) == 7
    assert stirling2(3, 4) == 6
    assert stirling2(1, 5) == 1
    assert stirling2(5, 5) == 1
    with pytest.raises(ValueError):
        stirling2(6, 5)
    with pytest.raises(ValueError):
        stirling2(0, 5)


@given(st.integers(min_value=1, max_value=9))
@settings(max_examples=15, deadline=None)
def test_stirling_row_sums_to_bell(n):
    assert sum(stirling2(k, n) for k in range(1, n + 1)) == BELL[n]
    assert len(set_partitions(n)) == BELL[n]


def test_stirling_recurrence():
    for n in range(3, 10):
        assert stirling2(n, n) == 1
        for k in range(2, n):
            assert stirling2(k, n) == k * stirling2(k, n - 1) + stirling2(k - 1, n - 1)


def test_set_partitions_structure():
    parts = set_partitions(3)
    assert len(parts) == 5
    for part in parts:
        covered = sorted(i for block in part for i in block)
        assert covered == [1, 2, 3]
        # first-appearance canonical form: blocks ordered by smallest element
        mins = [block[0] for block in part]
        assert mins == sorted(mins)


def test_set_partitions_are_every_canonical_partition_in_order():
    """No oracle: for n = 1..10 every tuple is a canonical set partition of
    {1..n}, all are distinct, there are B(n) of them, and they come sorted
    by (block count, blocks). These four facts fix the tuple."""
    for n in range(1, 11):
        parts = set_partitions(n)
        for part in parts:
            assert sorted(i for block in part for i in block) == list(range(1, n + 1))
            assert all(list(block) == sorted(block) for block in part)
            assert [block[0] for block in part] == sorted(block[0] for block in part)
        assert len(set(parts)) == len(parts) == BELL[n]
        assert list(parts) == sorted(parts, key=lambda part: (len(part), part))


def test_canonical_vs_ordered_partitions():
    assert len(canonical_partitions(2, 4)) == stirling2(2, 4)
    assert len(ordered_partitions(2, 4)) == 2 * stirling2(2, 4)
    for k in range(1, 5):
        for n in range(k, 7):
            assert len(ordered_partitions(k, n)) == math.factorial(k) * stirling2(k, n)


def test_partitions_min2_one_gt2_counts():
    assert len(partitions_min2_one_gt2(1, 4)) == 1
    assert len(partitions_min2_one_gt2(2, 4)) == 0
    assert len(partitions_min2_one_gt2(2, 5)) == 20
    for part in partitions_min2_one_gt2(2, 6):
        sizes = sorted(len(b) for b in part)
        assert sizes[0] >= 2
        assert sizes[-1] > 2


def test_q_sequence_values_and_recursion():
    assert q_sequence(2) == 1
    assert q_sequence(3) == 2
    assert q_sequence(4) == 7
    assert q_sequence(5) == 30
    for n in range(2, 12):
        assert q_sequence(n + 2) == (n + 1) * q_sequence(n + 1) + q_sequence(n)


def test_classify_tuple_examples():
    c = classify_tuple((5, 5, 2))
    assert c.subset == (5, 2)
    assert c.blocks == ((1, 2), (3,))
    c = classify_tuple((1, 2, 1))
    assert c.subset == (1, 2)
    assert c.blocks == ((1, 3), (2,))
    c = classify_tuple((7,))
    assert c.subset == (7,)
    assert c.blocks == ((1,),)


def test_classification_is_a_bijection():
    """Tuples over a finite site set split exactly into (ordered distinct
    site tuples) x (canonical partitions), with falling-factorial counts."""
    sites = (0, 1, 2)
    n = 4
    from itertools import product

    seen = set()
    for tup in product(sites, repeat=n):
        c = classify_tuple(tup)
        k = len(c.subset)
        assert len(c.blocks) == k
        assert tuple(sorted(set(tup))) == tuple(sorted(c.subset))
        # rebuild the tuple from its classification
        rebuilt = [None] * n
        for site, block in zip(c.subset, c.blocks):
            for pos in block:
                rebuilt[pos - 1] = site
        assert tuple(rebuilt) == tup
        seen.add((c.subset, c.blocks))
    total = sum(
        falling_factorial(len(sites), k) * stirling2(k, n) for k in range(1, n + 1)
    )
    assert len(seen) == len(sites) ** n == total


def test_compositions_and_multinomial():
    comps = integer_partitions_into_k(5, 2)
    assert comps == sorted(comps)
    assert all(sum(c) == 5 and all(p >= 1 for p in c) for c in comps)
    assert len(comps) == 4
    # more parts than the total has units: no composition
    assert integer_partitions_into_k(2, 3) == []
    assert multinomial((2, 3)) == 10
    assert multinomial((1, 1, 1)) == 6
    # surjection count ties compositions, multinomials, and stirling together
    for n in range(2, 8):
        for m in range(1, n + 1):
            total = sum(multinomial(c) for c in integer_partitions_into_k(n, m))
            assert total == math.factorial(m) * stirling2(m, n)


def test_cost_guards_trip():
    with pytest.raises(CostGuardError) as err:
        pair_partitions(14)
    assert err.value.guard
    with pytest.raises(CostGuardError):
        ordered_partitions(3, 11)
    with pytest.raises(CostGuardError):
        set_partitions(13)
    with pytest.raises(ValueError):
        ordered_partitions(0, 4)
    with pytest.raises(ValueError):
        ordered_partitions(5, 4)
