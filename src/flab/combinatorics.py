"""Enumerative combinatorics for moment formulas.

Everything here is exact integer combinatorics over 1-based index sets,
with deterministic (lexicographic or first-appearance) orderings so that
floating sums taken over these enumerations are reproducible bit for bit.

Conventions:

* a pair partition of {1..n} is a tuple of pairs (i, j) with i < j,
  pairs sorted by first element; the list of all of them is sorted
  lexicographically
* a set partition is kept in canonical block order: blocks sorted by
  their smallest element, elements ascending inside each block; this is
  the order of first appearance when reading a tuple left to right
* an ordered partition is a set partition with block order significant
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import check_guard

Pair = tuple[int, int]
PairPartition = tuple[Pair, ...]
Blocks = tuple[tuple[int, ...], ...]

MAX_PAIRING_DEGREE = 12
MAX_ORDERED_PARTITION_DEGREE = 10
MAX_STIRLING_DEGREE = 20
MAX_Q_INDEX = 30


def double_factorial(n: int) -> int:
    """(n)!! for n >= -1 with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double factorial defined for n >= -1 here")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); zero when k > n, one when k = 0."""
    if k < 0:
        raise ValueError("falling factorial needs k >= 0")
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _pairings(indices: tuple[int, ...]):
    if not indices:
        yield ()
        return
    first = indices[0]
    for pos in range(1, len(indices)):
        partner = indices[pos]
        rest = indices[1:pos] + indices[pos + 1 :]
        for tail in _pairings(rest):
            yield ((first, partner),) + tail


def pair_partitions(n: int) -> list[PairPartition]:
    """All perfect matchings of {1..n}, in lexicographic order.

    The recursion pairs the first index with each later partner in
    ascending order, so it yields the matchings already sorted. Odd n
    has no matchings and yields the empty list. The count for even n is
    the double factorial (n-1)!!.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    check_guard("pair-partition enumeration", f"degree {n}", n, MAX_PAIRING_DEGREE)
    if n % 2 == 1:
        return []
    return list(_pairings(tuple(range(1, n + 1))))


@lru_cache(maxsize=None)
def stirling2(k: int, n: int) -> int:
    """Number of partitions of an n-set into exactly k blocks.

    Computed from the additive recursion: a partition of {1..n} either
    has n alone in a block, or n joins one of the k blocks of a
    partition of {1..n-1}.
    """
    if not (1 <= k <= n):
        raise ValueError("stirling2 needs 1 <= k <= n")
    check_guard("stirling recursion", f"degree {n}", n, MAX_STIRLING_DEGREE)
    if k == 1 or k == n:
        return 1
    return stirling2(k - 1, n - 1) + k * stirling2(k, n - 1)


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[Blocks, ...]:
    """All set partitions of {1..n} in canonical block order, by (block count, blocks).

    Built by extension: a partition of {1..x} puts x into one block of a
    partition of {1..x-1} or into a block of its own. Appending x keeps
    every block ascending and the blocks ordered by their smallest element.
    """
    if n < 1:
        raise ValueError("set partitions need n >= 1")
    check_guard("set-partition enumeration", f"degree {n}", n, MAX_ORDERED_PARTITION_DEGREE + 2)
    parts: list[Blocks] = [()]
    for x in range(1, n + 1):
        joined = [p[:i] + (p[i] + (x,),) + p[i + 1 :] for p in parts for i in range(len(p))]
        parts = joined + [p + ((x,),) for p in parts]
    # two stable sorts, by blocks then by block count, need no key tuples
    parts.sort()
    parts.sort(key=len)
    return tuple(parts)


def canonical_partitions(k: int, n: int) -> list[Blocks]:
    """Set partitions of {1..n} into k blocks, canonical order. Count S(k, n)."""
    if not (1 <= k <= n):
        raise ValueError("needs 1 <= k <= n")
    return [p for p in set_partitions(n) if len(p) == k]


def ordered_partitions(k: int, n: int) -> list[Blocks]:
    """Partitions of {1..n} into a sequence of k nonempty blocks.

    Block order matters, so the count is k! S(k, n). Sorted
    lexicographically as tuples of tuples.
    """
    if not (1 <= k <= n):
        raise ValueError("ordered_partitions needs 1 <= k <= n")
    check_guard("ordered-partition enumeration", f"degree {n}", n, MAX_ORDERED_PARTITION_DEGREE)
    out: list[Blocks] = []
    for part in canonical_partitions(k, n):
        for perm in itertools.permutations(part):
            out.append(perm)
    out.sort()
    return out


def partitions_min2_one_gt2(k: int, n: int) -> list[Blocks]:
    """Ordered k-block partitions with every block of size >= 2 and at
    least one block of size > 2; a filtered subsequence of
    ``ordered_partitions(k, n)``.

    Examples: (k, n) = (1, 4) gives just ({1,2,3,4},); (2, 4) gives none,
    since both blocks would need exactly two elements; (2, 5) gives 20.
    """
    out = []
    for part in ordered_partitions(k, n):
        sizes = [len(b) for b in part]
        if min(sizes) >= 2 and max(sizes) > 2:
            out.append(part)
    return out


def q_sequence(n: int) -> int:
    """Combinatorial growth sequence defined by the two-step recursion

        q_{n+2} = (n + 1) q_{n+1} + q_n,   q_2 = 1, q_3 = 2.

    Used as the subset-count prefactor in the counting bound checks.
    Defined for 2 <= n <= 30.
    """
    if not (2 <= n <= MAX_Q_INDEX):
        raise ValueError(f"q_sequence defined for 2 <= n <= {MAX_Q_INDEX}")
    a, b = 0, 1  # q_1 = 0 continues the recursion down: q_3 = 2 q_2 + q_1
    for m in range(1, n - 1):
        a, b = b, (m + 1) * b + a
    return b


@dataclass(frozen=True)
class TupleClassification:
    """Range and block structure of a site tuple.

    ``subset`` lists the distinct values in order of first appearance;
    ``blocks`` gives, for each value, the 1-based positions where it
    occurs, in the same order. Positions ascend inside each block, so
    blocks are automatically in canonical first-appearance order.
    """

    subset: tuple
    blocks: Blocks


def classify_tuple(x: tuple) -> TupleClassification:
    order: list = []
    positions: dict = {}
    for pos, val in enumerate(x, start=1):
        if val not in positions:
            positions[val] = []
            order.append(val)
        positions[val].append(pos)
    return TupleClassification(
        subset=tuple(order),
        blocks=tuple(tuple(positions[v]) for v in order),
    )


def integer_partitions_into_k(n: int, k: int) -> list[tuple[int, ...]]:
    """Compositions of n into exactly k positive parts, lexicographic.

    Order matters: (1, 2) and (2, 1) are distinct compositions of 3.
    """
    if k < 1 or n < k:
        return []
    # stars and bars: the parts between ascending cuts, lexicographic as the cuts are
    cuts = itertools.combinations(range(1, n), k - 1)
    return [tuple(b - a for a, b in zip((0,) + cut, cut + (n,))) for cut in cuts]


def multinomial(counts: tuple[int, ...]) -> int:
    """Multinomial coefficient (sum counts)! / prod counts!."""
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out
