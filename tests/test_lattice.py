"""Metrics, regions, spread, and subset counting."""

import itertools
import json

import numpy as np
import pytest
from conftest import metric_sites, set_spread_loop, spread_enum_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from flab import (
    CostGuardError,
    Region,
    ball_count,
    chain_metric,
    chain_region,
    count_subsets_with_spread,
    explicit_metric,
    grid2d_metric,
    k_spread,
    metric_from_json,
    region_distance,
    spread,
    spread_decomposition_witness,
    spread_optimal_enumeration,
)
from flab import lattice

RNG = np.random.default_rng(7)


# =============================================================================
# Metrics
# =============================================================================

def test_chain_metric_distances():
    m = chain_metric(1.0)
    assert m.distance(0, 5) == 5.0
    assert m.distance(5, 0) == 5.0
    assert m.distance(3, 3) == 0.0
    half = chain_metric(0.4)
    assert half.distance(0, 5) == pytest.approx(2.0, abs=1e-15)


def test_grid2d_metric_is_l1():
    g = grid2d_metric(1.0)
    assert g.distance((0, 0), (2, 3)) == 5.0
    assert g.distance((1, 1), (1, 1)) == 0.0


def test_explicit_metric_validation():
    good = explicit_metric(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert good.distance("a", "c") == 2.0
    with pytest.raises(ValueError):
        explicit_metric(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        explicit_metric(["a", "b"], [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        explicit_metric(["a", "b"], [[0, 0], [0, 0]])  # zero off-diagonal


def test_metric_from_json_roundtrip():
    doc = json.loads('{"kind": "chain", "scale": 2.0}')
    m = metric_from_json(doc)
    assert m.distance(0, 3) == 6.0
    doc = {
        "kind": "explicit",
        "sites": ["u", "v"],
        "distances": [[0, 3], [3, 0]],
    }
    e = metric_from_json(doc)
    assert e.distance("u", "v") == 3.0
    with pytest.raises(ValueError):
        metric_from_json({"kind": "moebius"})


def test_region_repr():
    assert repr(Region(chain_metric(1.0), range(3))) == "Region(chain, 3 sites)"


@pytest.mark.parametrize(
    "scale, r, count",
    # r / scale rounds to 17.0, but 17 * 0.2 > 3.4; it rounds to 48.99..., but 49 * scale == r
    [(0.2, 3.4, 2 * 16 + 1), (0.2446582203054115, 11.988252794965163, 2 * 49 + 1)],
)
def test_ball_count_corrects_the_rounded_quotient(scale, r, count):
    """Both corrections of floor(r / scale) agree with a brute count of the
    distances the metric itself computes."""
    metric = chain_metric(scale)
    assert ball_count(metric, r) == count
    assert sum(metric.distance(0, x) <= r for x in range(-200, 201)) == count


def test_ball_count():
    m = chain_metric(1.0)
    assert ball_count(m, 1.0) == 3
    assert ball_count(m, 0.0) == 1
    assert ball_count(m, 4.0) == 9
    g = grid2d_metric(1.0)
    assert ball_count(g, 1.0) == 5
    assert ball_count(g, 2.0) == 13
    # brute check against an actual l1 disc
    for r in (1, 2, 3):
        pts = sum(
            1
            for dx in range(-r, r + 1)
            for dy in range(-r, r + 1)
            if abs(dx) + abs(dy) <= r
        )
        assert ball_count(g, float(r)) == pts
    scaled = chain_metric(0.4)
    # sites within distance 1.0 of the origin: offsets -2..2
    assert ball_count(scaled, 1.0) == 5


# =============================================================================
# Regions and spread
# =============================================================================

def test_region_basics():
    r = chain_region(4)
    assert r.sorted_sites() == (0, 1, 2, 3)
    assert len(r) == 4
    with pytest.raises(ValueError):
        Region(chain_metric(1.0), [0, 0, 1])
    a = chain_region(2)
    b = Region(chain_metric(1.0), (5, 6))
    assert region_distance(a, b) == 4.0


def test_spread_values():
    m = chain_metric(1.0)
    y = Region(m, (0, 1, 5))
    assert spread(y) == 4.0
    assert k_spread(y, 2) == 4.0
    assert spread(Region(m, (0, 1))) == 1.0
    assert spread_optimal_enumeration(y) == (5, 0, 1)
    assert spread_optimal_enumeration(Region(m, (0, 1))) == (0, 1)
    assert spread_optimal_enumeration(Region(m, (3,))) == (3,)


def test_spread_enumeration_defining_property():
    """Each prefix element realizes the spread of its suffix set."""
    m = chain_metric(1.0)
    for _ in range(60):
        size = int(RNG.integers(2, 7))
        sites = tuple(sorted(RNG.choice(30, size=size, replace=False).tolist()))
        enum = spread_optimal_enumeration(Region(m, sites))
        assert sorted(enum) == sorted(sites)
        for l in range(len(enum) - 1):
            tail = Region(m, enum[l:])
            dist = min(m.distance(enum[l], y) for y in enum[l + 1 :])
            assert dist == pytest.approx(spread(tail), abs=1e-12)


def test_spread_enumeration_on_random_explicit_metrics():
    for trial in range(30):
        k = int(RNG.integers(3, 7))
        names = [f"s{i}" for i in range(k)]
        tri = RNG.uniform(0.5, 4.0, size=(k, k))
        table = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                table[i, j] = table[j, i] = tri[i, j]
        m = explicit_metric(names, table.tolist())
        enum = spread_optimal_enumeration(Region(m, names))
        for l in range(k - 1):
            tail = enum[l:]
            dist = min(m.distance(enum[l], y) for y in tail[1:])
            assert dist == pytest.approx(spread(Region(m, tail)), abs=1e-12)


def test_count_subsets_with_spread_examples():
    m = chain_metric(1.0)
    assert count_subsets_with_spread(Region(m, range(1, 7)), 2, 1.0) == 5
    assert count_subsets_with_spread(Region(m, range(1, 7)), 2, 0.0) == 0
    assert count_subsets_with_spread(Region(m, range(1, 5)), 3, 1.0) == 2


def test_count_subsets_matches_direct_enumeration():
    m = chain_metric(1.0)
    region = Region(m, range(9))
    for k in (2, 3, 4):
        for r in (1.0, 2.0, 3.0):
            direct = 0
            for combo in itertools.combinations(range(9), k):
                if spread(Region(m, combo)) <= r:
                    direct += 1
            assert count_subsets_with_spread(region, k, r) == direct


def _explicit_metric(rng, count):
    pts = rng.random((count, 2)) * 4.0
    table = [[float(np.abs(p - q).sum()) if i != j else 0.0 for j, q in enumerate(pts)]
             for i, p in enumerate(pts)]
    return explicit_metric([f"s{i}" for i in range(count)], table), [f"s{i}" for i in range(count)]


@pytest.mark.parametrize("kind", ["chain", "grid2d", "explicit"])
def test_count_subsets_matches_brute_force_at_every_radius(kind):
    """Every spread value, the points between them, and radii outside the range."""
    rng = np.random.default_rng(11)
    if kind == "chain":
        m, sites = chain_metric(0.7), rng.permutation(12).tolist()
    elif kind == "grid2d":
        m, sites = grid2d_metric(1.3), [(x, y) for x in range(3) for y in range(4)]
    else:
        m, sites = _explicit_metric(rng, 9)
    region = Region(m, sites)
    for k in (2, 3, 4, 5):
        spreads = [spread(Region(m, sub)) for sub in itertools.combinations(sites, k)]
        levels = sorted(set(spreads))
        radii = levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        for r in radii + [-1.0, 0.0, levels[-1] + 1.0, float("inf"), float("nan")]:
            assert count_subsets_with_spread(region, k, r) == sum(s <= r for s in spreads)


def test_count_subsets_guard_fires_before_enumeration(monkeypatch):
    """C(60, 5) > 2,000,000: refused before any subset is enumerated."""

    def enumerate_nothing(*args):
        raise AssertionError("subsets enumerated past the guard")

    monkeypatch.setattr(lattice, "_subset_spreads", enumerate_nothing)
    monkeypatch.setattr(lattice, "_distance_matrix", enumerate_nothing)
    with pytest.raises(CostGuardError):
        count_subsets_with_spread(Region(chain_metric(1.0), range(60)), 5, 3.0)


# =============================================================================
# Reductions of the distance matrix against the scalar loops, bit for bit
# =============================================================================

@settings(max_examples=40, deadline=None)
@given(case=metric_sites(), data=st.data())
def test_spread_orders_match_scalar_greedy_bit_for_bit(case, data):
    """Batched orders and split distances of every m-subset equal the scalar greedy's."""
    metric, sites = case
    assert spread_optimal_enumeration(Region(metric, sites)) == spread_enum_loop(metric, sites)
    ordered = Region(metric, sites).sorted_sites()
    m = data.draw(st.integers(1, len(sites)))
    rows = np.array(list(itertools.combinations(range(len(sites)), m)), dtype=np.intp)
    orders, splits = lattice._spread_orders(lattice._distance_matrix(metric, ordered), rows)
    for order, split, row in zip(orders.tolist(), splits.tolist(), rows.tolist()):
        enum = spread_enum_loop(metric, [ordered[i] for i in row])
        assert tuple(ordered[i] for i in order) == enum
        rests = [min(metric.distance(enum[k], z) for z in enum[k + 1 :]) for k in range(m - 1)]
        assert split == rests


@settings(max_examples=40, deadline=None)
@given(case=metric_sites(), data=st.data())
def test_subset_spreads_match_scalar_loop_bit_for_bit(case, data):
    """Each k-subset's spread and the count at every spread level, in any chunking."""
    metric, sites = case
    region = Region(metric, sites)
    k = data.draw(st.integers(2, max(2, len(sites))))
    subsets = itertools.combinations(region.sorted_sites(), k)
    want = [set_spread_loop(metric, sub) for sub in subsets]
    budget = data.draw(st.sampled_from([1, 20, lattice._SPREAD_ELEMENT_BUDGET]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SPREAD_ELEMENT_BUDGET", budget)
        got = lattice._subset_spreads.__wrapped__(metric, region.sorted_sites(), k)
    assert got.tolist() == want
    for r in set(want) | {-1.0, float("inf")}:
        assert count_subsets_with_spread(region, k, r) == sum(s <= r for s in want)


# =============================================================================
# Decomposition witnesses
# =============================================================================

def _check_witness(m, sites, r):
    y = Region(m, sites)
    if spread(y) > r:
        return  # no claim for sets that do not qualify
    witness = spread_decomposition_witness(y, r)
    assert witness is not None
    rest = set(sites)
    if witness[0] == "pair":
        _, x, yy = witness
        assert k_spread(y, 2) > r
        assert m.distance(x, yy) <= r
        rest -= {x, yy}
    else:
        assert witness[0] == "point"
        (_, x) = witness
        assert k_spread(y, 2) <= r
        rest -= {x}
    if len(rest) >= 2:
        assert spread(Region(m, tuple(rest))) <= r


def test_decomposition_witness_exhaustive_small_chains():
    m = chain_metric(1.0)
    for size in range(3, 9):
        sites = tuple(range(size))
        for k in range(3, size + 1):
            for combo in itertools.combinations(sites, k):
                for r in (1.0, 2.0, 3.0):
                    _check_witness(m, combo, r)


def test_decomposition_witness_requires_three_points():
    m = chain_metric(1.0)
    with pytest.raises(ValueError):
        spread_decomposition_witness(Region(m, (0, 1)), 1.0)
