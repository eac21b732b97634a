"""Site metrics, regions and spread geometry.

A metric carries a kind (chain, grid2d, explicit), a scale factor, and a
distance function on site labels. The triangle inequality is never
assumed anywhere in the package. Regions are ordered tuples of distinct
sites over one metric.

Spread quantities measure how separated a finite set is:

* spread(Y) is the largest distance from a point of Y to the rest of Y
* k_spread(Y, k) maximizes the set-to-set distance over k-point subsets
* spread_optimal_enumeration(Y) orders Y greedily by farthest point, so
  each prefix point realizes the spread of the suffix that starts at it

spread, k_spread, the decomposition witness, the explicit-metric ball
count, the subset spreads of count_subsets_with_spread and the orders
reduce one pairwise distance matrix D per call (one distance call per
pair, inf on the diagonal) with min, max, first argmax and <= counts,
which return an input unchanged: every spread is a metric distance bit
for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import check_guard, json_number

SUBSET_ENUMERATION_GUARD = 2_000_000
# entries of one gathered (subsets, m, m) block of the distance matrix
_SPREAD_ELEMENT_BUDGET = 1 << 14


@dataclass(frozen=True)
class Metric:
    """Distance structure on site labels.

    kind "chain": sites are integers, d(x, y) = scale * |x - y|.
    kind "grid2d": sites are integer pairs, d = scale * l1 distance.
    kind "explicit": finite site list with a symmetric distance table.
    """

    kind: str
    scale: float = 1.0
    sites: tuple = ()
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("chain", "grid2d", "explicit"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if not (self.scale > 0.0):
            raise ValueError("metric scale must be positive")

    def check_site(self, x) -> None:
        if self.kind == "chain":
            if not isinstance(x, int):
                raise ValueError(f"chain metric expects integer sites, got {x!r}")
        elif self.kind == "grid2d":
            if (
                not isinstance(x, tuple)
                or len(x) != 2
                or not all(isinstance(c, int) for c in x)
            ):
                raise ValueError(f"grid2d metric expects integer pairs, got {x!r}")
        else:
            if x not in self._index:
                raise ValueError(f"site {x!r} not in explicit metric")

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}

    def distance(self, x, y) -> float:
        if self.kind == "chain":
            return self.scale * abs(x - y)
        if self.kind == "grid2d":
            return self.scale * (abs(x[0] - y[0]) + abs(x[1] - y[1]))
        i = self._index.get(x)
        j = self._index.get(y)
        if i is None or j is None:
            raise ValueError(f"site {x!r} or {y!r} not in explicit metric")
        return self.table[i][j]

    def site_key(self, x):
        """Total order on sites used for deterministic enumeration."""
        if self.kind == "explicit":
            return self._index[x]
        return x


def chain_metric(scale: float = 1.0) -> Metric:
    return Metric("chain", float(scale))


def grid2d_metric(scale: float = 1.0) -> Metric:
    return Metric("grid2d", float(scale))


def explicit_metric(sites: Sequence, distances: Sequence[Sequence[float]]) -> Metric:
    sites = tuple(sites)
    n = len(sites)
    if n == 0:
        raise ValueError("explicit metric needs at least one site")
    if len(set(sites)) != n:
        raise ValueError("explicit metric sites must be distinct")
    if len(distances) != n or any(len(row) != n for row in distances):
        raise ValueError("distance table shape does not match site count")
    tab = tuple(tuple(float(v) for v in row) for row in distances)
    for i in range(n):
        if tab[i][i] != 0.0:
            raise ValueError("distance table diagonal must be zero")
        for j in range(n):
            if tab[i][j] != tab[j][i]:
                raise ValueError("distance table must be symmetric")
            if i != j and tab[i][j] <= 0.0:
                raise ValueError("off-diagonal distances must be positive")
    return Metric("explicit", 1.0, sites, tab)


def metric_from_json(doc: dict) -> Metric:
    if not isinstance(doc, dict):
        raise ValueError(f"metric spec must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "chain":
        return chain_metric(json_number("'scale'", doc.get("scale", 1.0)))
    if kind == "grid2d":
        return grid2d_metric(json_number("'scale'", doc.get("scale", 1.0)))
    if kind == "explicit":
        what = "a 'distances' entry"
        distances = [[json_number(what, v) for v in row] for row in doc["distances"]]
        return explicit_metric(doc["sites"], distances)
    raise ValueError(f"unknown metric kind {kind!r}")


class Region:
    """Ordered tuple of distinct sites over one metric."""

    __slots__ = ("metric", "sites")

    def __init__(self, metric: Metric, sites: Iterable):
        sites = tuple(sites)
        if len(sites) == 0:
            raise ValueError("region must contain at least one site")
        if len(set(sites)) != len(sites):
            raise ValueError("region sites must be distinct")
        for s in sites:
            metric.check_site(s)
        self.metric = metric
        self.sites = sites

    def __len__(self) -> int:
        return len(self.sites)

    def sorted_sites(self) -> tuple:
        return tuple(sorted(self.sites, key=self.metric.site_key))

    def __repr__(self) -> str:
        return f"Region({self.metric.kind}, {len(self.sites)} sites)"


def chain_region(size: int) -> Region:
    """Contiguous unit-scale chain segment 0 .. size-1. Convenience builder."""
    if size < 1:
        raise ValueError("region size must be positive")
    return Region(chain_metric(1.0), range(size))


def region_distance(x: Region, y: Region) -> float:
    """min over pairs of the site distance. Regions must share the metric."""
    if x.metric != y.metric:
        raise ValueError("regions live on different metrics")
    return min(x.metric.distance(a, b) for a in x.sites for b in y.sites)


def _distance_matrix(metric: Metric, sites: Sequence) -> np.ndarray:
    """D[i, j] = metric.distance(sites[i], sites[j]), one call per pair; D[i, i] = inf."""
    n = len(sites)
    dist = np.full((n, n), np.inf)
    for i, a in enumerate(sites):
        row = np.fromiter((metric.distance(a, b) for b in sites[i + 1 :]), float, n - i - 1)
        dist[i, i + 1 :] = row
        dist[i + 1 :, i] = row
    return dist


def spread(region: Region) -> float:
    """max over y of d(y, Y without y). Needs at least two sites."""
    if len(region.sites) < 2:
        raise ValueError("spread needs at least two sites")
    return float(_distance_matrix(region.metric, region.sites).min(axis=1).max())


def _k_spread(dist: np.ndarray, k: int) -> float:
    """max over k-subsets J of range(len(D)) of min D[J, rest]; needs 1 <= k < len(D)."""
    subsets = itertools.combinations(range(len(dist)), k)
    return max(float(np.delete(dist[list(sub)], sub, axis=1).min()) for sub in subsets)


def k_spread(region: Region, k: int) -> float:
    """max over k-subsets J of d(J, Y without J)."""
    if not (1 <= k < len(region.sites)):
        raise ValueError("k_spread needs 1 <= k < |Y|")
    return _k_spread(_distance_matrix(region.metric, region.sites), k)


def _index_chunks(n: int, m: int, rows: int):
    """The m-subsets of range(n) in combinations order, as (at most rows, m) index arrays."""
    subsets = itertools.combinations(range(n), m)
    while chunk := list(itertools.islice(subsets, rows)):
        yield np.array(chunk, dtype=np.intp)


def _spread_orders(dist: np.ndarray, rows: np.ndarray) -> tuple:
    """Spread-optimal orders of the (M, m) index rows, each in key order, and their splits.

    Each step takes per row the live site farthest from the other live
    sites, the first on ties, and records that distance as its split.
    """
    count, m = rows.shape
    near = dist[rows[:, :, None], rows[:, None, :]]
    every = np.arange(count)
    picks = np.empty((count, m), dtype=np.intp)
    splits = np.empty((count, m - 1))
    for step in range(m - 1):
        rest = near.min(axis=2)
        pick = rest.argmax(axis=1)
        picks[:, step] = pick
        splits[:, step] = rest[every, pick]
        near[every, :, pick] = np.inf  # out of every live site's rest
        near[every, pick, :] = -np.inf  # never picked again
    # the last live position: the positions sum to m (m - 1) / 2
    picks[:, -1] = m * (m - 1) // 2 - picks[:, :-1].sum(axis=1)
    return np.take_along_axis(rows, picks, axis=1), splits


def spread_optimal_enumeration(region: Region) -> tuple:
    """Greedy farthest-point order; ties go to the smallest site key.

    The returned order (y_1, ..., y_m) satisfies
    d(y_k, {y_{k+1}, ..., y_m}) = spread({y_k, ..., y_m}) for every k < m.
    """
    sites = region.sorted_sites()
    everything = np.arange(len(sites))[None, :]
    orders, _ = _spread_orders(_distance_matrix(region.metric, sites), everything)
    return tuple(sites[i] for i in orders[0].tolist())


def ball_count(metric: Metric, r: float, support: Region | None = None) -> int:
    """Number of sites within distance r of a point, maximized over positions.

    Chain and grid2d use the translation-invariant closed form on the full
    lattice; explicit metrics take the max over the given support.
    """
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    if metric.kind in ("chain", "grid2d"):
        m = int(math.floor(r / metric.scale))
        while (m + 1) * metric.scale <= r:
            m += 1
        while m > 0 and m * metric.scale > r:
            m -= 1
        return 2 * m + 1 if metric.kind == "chain" else 1 + 2 * m * (m + 1)
    if support is None:
        raise ValueError("explicit metric ball count needs a support region")
    dist = _distance_matrix(metric, support.sites)
    np.fill_diagonal(dist, 0.0)  # d(x, x) of an explicit metric
    return int(np.count_nonzero(dist <= r, axis=1).max())


def spread_decomposition_witness(region: Region, r: float):
    """Split a set of spread <= r into a smaller such set plus one or two points.

    For Y with spread(Y) <= r and |Y| >= 3, exactly one of two shapes is
    expected: if the 2-spread exceeds r, some pair {x, y} with
    d(x, y) <= r leaves a remainder of spread <= r ("pair" witness);
    otherwise some single point x does ("point" witness). Returns
    ("pair", x, y) or ("point", x), or None when no witness exists.
    Sets of size <= 1 count as spread 0 here.
    """
    if len(region.sites) < 3:
        raise ValueError("witness decomposition needs at least three sites")
    sites = region.sorted_sites()
    dist = _distance_matrix(region.metric, sites)

    def small_spread(*drop: int) -> bool:
        rest = np.delete(np.delete(dist, drop, axis=0), drop, axis=1)
        return len(rest) <= 1 or rest.min(axis=1).max() <= r

    if _k_spread(dist, 2) > r:
        pairs = itertools.combinations(range(len(sites)), 2)
        hits = ((i, j) for i, j in pairs if not dist[i, j] > r and small_spread(i, j))
        return next((("pair", sites[i], sites[j]) for i, j in hits), None)
    return next((("point", sites[i]) for i in range(len(sites)) if small_spread(i)), None)


def check_subset_enumeration(size: int, k: int) -> None:
    """Refuse to enumerate more than SUBSET_ENUMERATION_GUARD k-subsets of size sites."""
    total = math.comb(size, k)
    check_guard("subset-spread enumeration", f"{total} subsets", total, SUBSET_ENUMERATION_GUARD)


def count_subsets_with_spread(region: Region, k: int, r: float) -> int:
    """Number of k-subsets of the region whose spread is at most r.

    The spreads of all k-subsets are computed once per (metric, sites,
    k) and cached, so each further radius is one vectorized comparison.
    """
    if k < 2:
        raise ValueError("subset spread counting needs k >= 2")
    n = len(region.sites)
    if k > n:
        return 0
    check_subset_enumeration(n, k)
    spreads = _subset_spreads(region.metric, region.sorted_sites(), k)
    return int(np.count_nonzero(spreads <= r))


@lru_cache(maxsize=16)
def _subset_spreads(metric: Metric, sites: tuple, k: int) -> np.ndarray:
    """Spreads of the k-subsets of ``sites``, shared by every radius.

    Each chunk of subset index rows C reduces its (C, k, k) block of the
    distance matrix. Unsorted: one comparison per subset costs less than
    a sort, whose vectorized kernels alone add 0.25 MB of resident code.
    """
    dist = _distance_matrix(metric, sites)
    rows = max(1, _SPREAD_ELEMENT_BUDGET // k**2)
    spreads = np.empty(math.comb(len(sites), k))
    for start, c in zip(itertools.count(0, rows), _index_chunks(len(sites), k, rows)):
        spreads[start : start + len(c)] = dist[c[:, :, None], c[:, None, :]].min(axis=2).max(axis=1)
    spreads.flags.writeable = False
    return spreads
