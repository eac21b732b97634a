"""Shared brute-force oracles for the test suite.

Everything in this file recomputes expectations from first principles
with plain numpy (dense kron embeddings, explicit config sums), so the
library engines are checked against genuinely independent arithmetic.
"""

import itertools
import math
import os
from functools import reduce

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from flab import SiteOperator, chain_metric, explicit_metric, grid2d_metric
from flab.algebra import _hs_coefficient_stack
from flab.combinatorics import (
    falling_factorial,
    integer_partitions_into_k,
    multinomial,
    set_partitions,
)
from flab.fluctuations import TIE_TOL, SeminormEstimate, _search_words

# CI sets HYPOTHESIS_PROFILE=ci so every run draws the same examples;
# local runs keep hypothesis' default random search.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# One line per acceptance criterion, filled by tests/test_acceptance.py and
# echoed after the run summary so the lines survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# =============================================================================
# Dense embeddings
# =============================================================================

def embed(mat, start, width, length, d):
    """kron(I x ... x mat x ... x I) with mat covering `width` sites."""
    left = np.eye(d**start)
    right = np.eye(d ** (length - start - width))
    return np.kron(np.kron(left, mat), right)


def embed_all(ops_by_site, length, d):
    out = np.eye(d**length, dtype=complex)
    for x, mat in ops_by_site.items():
        out = out @ embed(mat, x, 1, length, d)
    return out


def product_density(rho, length):
    return reduce(np.kron, [rho] * length)


def circuit_dense_density(base_rho, length, layers):
    """Evolve the full density matrix with explicit kron-embedded gates."""
    d = base_rho.shape[0]
    rho = product_density(base_rho, length)
    for offset, gate in layers:
        g = np.asarray(gate, dtype=complex)
        for i in range(offset, length - 1, 2):
            u = embed(g, i, 2, length, d)
            rho = u @ rho @ u.conj().T
    return rho


# =============================================================================
# Independent expectation functionals
# =============================================================================

def dense_expect(rho_full, length, d):
    def expectation(ops_by_site):
        return complex(np.trace(rho_full @ embed_all(ops_by_site, length, d)))

    return expectation


def dense_site_mean(rho_full, length, d):
    def mean(x, mat):
        return complex(np.trace(rho_full @ embed(mat, x, 1, length, d)))

    return mean


def markov_config_expect(T, pi, span):
    """Expectation under the classical stationary chain on consecutive sites.

    Enumerates every configuration on `span` (a list of consecutive
    integers) and weighs diagonal matrix entries by path probabilities.
    """
    T = np.asarray(T, dtype=float)
    pi = np.asarray(pi, dtype=float)
    d = len(pi)
    configs = list(itertools.product(range(d), repeat=len(span)))
    probs = []
    for c in configs:
        p = pi[c[0]]
        for a, b in zip(c, c[1:]):
            p *= T[b, a]
        probs.append(p)
    index = {x: i for i, x in enumerate(span)}

    def expectation(ops_by_site):
        total = 0.0 + 0.0j
        for c, p in zip(configs, probs):
            v = complex(p)
            for x, mat in ops_by_site.items():
                s = c[index[x]]
                v *= mat[s, s]
            total += v
        return total

    return expectation


def random_gapped_transition(rng, d):
    """Non-symmetric column-stochastic T = s R + (1 - s) v 1^T with s <= 0.6.

    On the vectors with zero sum T acts as s R, so |lambda_2| <= 0.6 <
    e^{-0.4}, the mixing condition at alpha = 0.4.
    """
    r = rng.random((d, d)) + 0.05
    r /= r.sum(axis=0)
    v = rng.random(d) + 0.05
    v /= v.sum()
    s = rng.uniform(0.1, 0.6)
    return s * r + (1.0 - s) * np.outer(v, np.ones(d))


def markov_site_mean(pi):
    pi = np.asarray(pi, dtype=float)

    def mean(x, mat):
        return complex(np.sum(pi * np.diag(mat)))

    return mean


# =============================================================================
# The classical limit of a Markov chain
# =============================================================================

def kemeny_snell_variance(transition, a):
    """The asymptotic variance of sum_x a(X_x) / sqrt(|X|) on the stationary
    chain: 2 <f, Z f>_pi - <f, f>_pi, with f = a - pi(a) and the
    fundamental matrix Z = (I - P + 1 pi^T)^{-1} of the row-stochastic P = T^T
    (Kemeny and Snell, Finite Markov Chains, 1960)."""
    T = np.asarray(transition, dtype=float)
    d = len(T)
    # pi solves T pi = pi with sum 1, by least squares
    pi = np.linalg.lstsq(np.vstack([T - np.eye(d), np.ones(d)]), np.eye(d + 1)[d], rcond=None)[0]
    f = np.asarray(a, dtype=float) - pi @ a
    fundamental = np.linalg.inv(np.eye(d) - T.T + np.outer(np.ones(d), pi))
    return 2.0 * pi @ (f * (fundamental @ f)) - pi @ (f * f)


def perron_log_derivative(transition, a, order):
    """The order-th derivative at 0 of Lambda(theta) = log of the Perron
    root of T diag(e^{theta a}), by the Cauchy integral on a circle: the
    FFT of Lambda at 64 points of radius 0.1. Off the real axis the
    Perron root is the eigenvalue nearest 1, as it is at theta = 0."""
    T = np.asarray(transition, dtype=float)
    radius, points = 0.1, 64
    thetas = radius * np.exp(2j * np.pi * np.arange(points) / points)
    logs = []
    for theta in thetas:
        roots = np.linalg.eigvals(T @ np.diag(np.exp(theta * np.asarray(a))))
        logs.append(np.log(roots[np.argmin(np.abs(roots - 1.0))]))
    coeff = np.fft.fft(logs)[order] / points
    return float(coeff.real) * math.factorial(order) / radius**order


# =============================================================================
# The tuple-sum oracle
# =============================================================================

def brute_induced_moment(sites, word_mats, expectation, mean):
    """|X|^{-n/2} sum over all site tuples of centered per-site products.

    Operators landing on the same site multiply in word order; each word
    factor is centered against the mean at the site it lands on.
    """
    sites = list(sites)
    n = len(word_mats)
    d = word_mats[0].shape[0]
    eye = np.eye(d)
    total = 0.0 + 0.0j
    for tup in itertools.product(sites, repeat=n):
        ops = {}
        for k, x in enumerate(tup):
            a = word_mats[k] - mean(x, word_mats[k]) * eye
            ops[x] = ops[x] @ a if x in ops else a
        total += expectation(ops)
    return total / len(sites) ** (n / 2.0)


def greedy_spread_order(sites, distance):
    """Farthest-point removal order, smallest site on ties."""
    remaining = sorted(sites)
    order = []
    while len(remaining) > 1:
        best = None
        best_d = -1.0
        for y in remaining:
            d = min(distance(y, z) for z in remaining if z != y)
            if d > best_d + 1e-12:
                best, best_d = y, d
        order.append(best)
        remaining.remove(best)
    order.extend(remaining)
    return order


def brute_weight_sum(sites, n, distance):
    """Tuple-sum definition of the clustering weight total B_n.

    For every site tuple whose class has at least two distinct sites,
    walk the greedy enumeration while every earlier site repeats, and
    add exp(-d) of the current site to the remaining tail.
    """
    total = 0.0
    for tup in itertools.product(sites, repeat=n):
        seen = []
        for v in tup:
            if v not in seen:
                seen.append(v)
        if len(seen) < 2:
            continue
        order = greedy_spread_order(seen, distance)
        counts = {}
        for v in tup:
            counts[v] = counts.get(v, 0) + 1
        m = len(order)
        for k in range(1, m):
            if all(counts[order[l]] > 1 for l in range(k - 1)):
                d = min(distance(order[k - 1], order[j]) for j in range(k, m))
                total += np.exp(-d)
    return total


@st.composite
def metric_sites(draw):
    """A metric and 1..10 distinct sites of it, in no particular order.

    Chains get a scale other than 1 and scattered sites; grid2d sites lie
    on a 5 x 5 patch; explicit tables take integer distances 1..3, so
    ties are common, and list their sites in a shuffled key order.
    """
    kind = draw(st.sampled_from(["chain", "grid2d", "explicit"]))
    count = draw(st.integers(min_value=1, max_value=10))
    if kind == "chain":
        scale = draw(st.floats(0.05, 4.0).filter(lambda s: s != 1.0))
        sites = st.lists(st.integers(-30, 30), min_size=count, max_size=count, unique=True)
        return chain_metric(scale), draw(sites)
    if kind == "grid2d":
        scale = draw(st.floats(0.05, 4.0))
        cell = st.tuples(st.integers(0, 4), st.integers(0, 4))
        cells = st.lists(cell, min_size=count, max_size=count, unique=True)
        return grid2d_metric(scale), draw(cells)
    names = draw(st.permutations([f"s{i}" for i in range(count)]))
    table = [[0] * count for _ in range(count)]
    for i, j in itertools.combinations(range(count), 2):
        table[i][j] = table[j][i] = draw(st.integers(1, 3))
    return explicit_metric(names, table), draw(st.permutations(names))


def set_spread_loop(metric, sites):
    """max over y of min over the other z of metric.distance(y, z)."""
    return max(min(metric.distance(y, z) for z in sites if z != y) for y in sites)


def spread_enum_loop(metric, sites):
    """Farthest-point order by Python distance calls; ties to the smallest site key.

    The scalar greedy that flab's batched ``_spread_orders`` replaced.
    """
    order = []
    remaining = sorted(sites, key=metric.site_key)
    while len(remaining) > 1:
        best_site = None
        best_d = -1.0
        for y in remaining:
            d = min(metric.distance(y, z) for z in remaining if z != y)
            if d > best_d or (d == best_d and metric.site_key(y) < metric.site_key(best_site)):
                best_d = d
                best_site = y
        order.append(best_site)
        remaining.remove(best_site)
    order.append(remaining[0])
    return tuple(order)


def b_n_loop(metric, sites, n):
    """The weight sum B_n grouped by subset and composition, one float at a time.

    The scalar loop that flab's ``b_n_quantity`` replaced by array
    reductions: each split weight is math.exp of the split point's
    distance to the rest of its spread-optimal order.
    """
    sites = sorted(sites, key=metric.site_key)
    total = 0.0
    for m in range(2, min(n, len(sites)) + 1):
        comps = integer_partitions_into_k(n, m)
        for sub in itertools.combinations(sites, m):
            enum = spread_enum_loop(metric, sub)
            weights = [
                math.exp(-min(metric.distance(enum[k], z) for z in enum[k + 1 :]))
                for k in range(m - 1)
            ]
            for comp in comps:
                first_single = next((idx + 1 for idx, c in enumerate(comp) if c == 1), m + 1)
                kmax = min(m - 1, first_single)
                total += multinomial(comp) * sum(weights[:kmax])
    return total


def wick_recursive(pair_value, items):
    """Textbook Isserlis recursion: pair the first leg with every other."""
    m = len(items)
    if m == 0:
        return 1.0 + 0.0j
    if m % 2 == 1:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    first = items[0]
    for j in range(1, m):
        rest = items[1:j] + items[j + 1 :]
        total += pair_value(first, items[j]) * wick_recursive(pair_value, rest)
    return total


# =============================================================================
# Scalar seminorm search
# =============================================================================

def search_loop(functional, n, dim, budget, omega, seed):
    """One seminorm search at a time: the search as it stood before it ran
    in stacks, kept as the oracle of the stacked engine.

    It takes its probe, directions and random words from
    ``_search_words`` (the draws have their own tests) and ranks on the
    basis tensor by the same switch. Every |F| has its own form: array
    ``np.abs`` when ranking words and near-ties, scalar ``abs`` on each
    ascent value and each direct evaluation.
    """
    if n == 0:
        return SeminormEstimate(abs(complex(functional(()))), (), 1)
    probe, dirs, rand_words = _search_words(n, dim, budget, omega, seed)
    skip = int(omega is not None)
    evaluations = 0

    def send(words):
        nonlocal evaluations
        evaluations += len(words)
        if not words:
            return np.zeros(0, dtype=complex)
        if hasattr(functional, "batch"):
            return np.asarray(functional.batch(words), dtype=complex)
        return np.array([complex(functional(w)) for w in words])

    def coefficients(mats):
        return _hs_coefficient_stack(mats)[..., skip:]

    def contract(coeffs):
        p = tensor.shape[0]
        out = coeffs[:, 0] @ tensor.reshape(p, -1)
        for k in range(1, coeffs.shape[1]):
            out = np.einsum("wi,wir->wr", coeffs[:, k], out.reshape(len(coeffs), p, -1))
        return out[:, 0]

    def values(words):
        if tensor is None or not words:
            return send(words)
        return contract(coefficients(np.array([[a.mat for a in w] for w in words])))

    def head():
        if tensor is None:
            return send(list(itertools.product(dirs, repeat=n)))
        coeffs = coefficients(np.array([a.mat for a in dirs]))
        out = tensor
        for _ in range(n):
            out = (coeffs @ out.reshape(coeffs.shape[1], -1)).T
        return out.reshape(-1)

    def argmax(vals, word_at, floor):
        mags = np.abs(vals)
        top = float(np.max(mags))
        if tensor is None:
            return top, word_at(int(np.argmax(mags)))
        slack = TIE_TOL * max(top, 1.0)
        if top < floor - slack:
            return -1.0, ()
        near = [word_at(i) for i in np.flatnonzero(mags >= top - slack)]
        direct_vals = np.abs(send(near))
        pick = int(np.argmax(direct_vals))
        return float(direct_vals[pick]), near[pick]

    def direct(word):
        nonlocal evaluations
        evaluations += 1
        return float(abs(complex(functional(word))))

    def value(word):
        if tensor is not None:
            return float(abs(values([word])[0]))
        return direct(word)

    direct_words = len(dirs) ** n + len(rand_words) + 2 * n * (len(probe) + 1)
    tensor = None
    if len(probe) ** n <= direct_words:
        tensor = send(list(itertools.product(probe, repeat=n))).reshape((len(probe),) * n)

    def head_word(i):
        return tuple(dirs[k] for k in np.unravel_index(i, (len(dirs),) * n))

    best_val, best_word = -1.0, ()
    if dirs:
        best_val, best_word = argmax(head(), head_word, best_val)
    if rand_words:
        val, word = argmax(values(rand_words), rand_words.__getitem__, best_val)
        if val > best_val:
            best_val, best_word = val, word
    if not best_word:
        return SeminormEstimate(0.0, (), evaluations)

    start_val = best_val
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
            val = value(tuple(word[:slot]) + (cand_op,) + tuple(word[slot + 1 :]))
            if val > best_val + 1e-15:
                best_val = val
                word[slot] = cand_op
    witness = tuple(word)
    if tensor is not None and witness != best_word:
        best_val = direct(witness)
        if best_val < start_val:
            return SeminormEstimate(start_val, best_word, evaluations)
    return SeminormEstimate(best_val, witness, evaluations)


# =============================================================================
# Expectation grids and compensated sums
# =============================================================================


def rows_grid(rows, mats):
    """``expect_rows`` arguments for N rows, each over its own sites, one cell each.

    ``mats`` has shape (N, w, d, d); the sites are listed in order of
    first appearance, and the result of the call has shape (N, 1).
    """
    mats = np.asarray(mats)
    sites = list(dict.fromkeys(x for row in rows for x in row))
    place = {x: k for k, x in enumerate(sites)}
    index = np.array([[place[x] for x in row] for row in rows], dtype=np.intp)
    return sites, index.reshape(len(rows), mats.shape[1]), mats[:, None]


def neumaier_loop(total, comp, terms):
    """Neumaier's compensated sum, one Python float step per term."""
    for z in terms:
        t = total + z
        if abs(total) >= abs(z):
            comp += (total - t) + z
        else:
            comp += (z - t) + total
        total = t
    return total, comp


# =============================================================================
# Product closed form
# =============================================================================


def product_moment_loop(rho, size, words):
    """The product closed form at one size, one partition at a time.

    Block traces are cached per block; each partition's term is its
    multiplicity times the block traces left to right, added to a running
    total from zero; partitions with multiplicity 0 are skipped.
    """
    nwords, n, d, _ = words.shape
    exps = np.einsum("ij,wkji->wk", rho, words)
    c = words - exps[:, :, None, None] * np.eye(d)
    cache = {}

    def block_vec(block):
        v = cache.get(block)
        if v is None:
            m = c[:, block[0] - 1]
            for i in block[1:]:
                m = m @ c[:, i - 1]
            v = cache[block] = np.einsum("ij,wji->w", rho, m)
        return v

    total = np.zeros(nwords, dtype=complex)
    for part in set_partitions(n):
        ff = falling_factorial(size, len(part))
        if ff == 0:
            continue
        term = np.full(nwords, complex(ff))
        for b in part:
            term = term * block_vec(b)
        total += term
    return total * float(size) ** (-n / 2.0)


# =============================================================================
# Markov subset sweep
# =============================================================================


def markov_sweep_reference(state, positions, words, sizes):
    """A frozen copy of the Markov prefix sweep on a (word, subset, i, j) layout.

    It pins the rounding: ``_moments.markov_moment_batch`` must equal it
    bit for bit, whatever layout the engine keeps. Every DP entry becomes
    diag(v[S]) (times the identity, so off the diagonal it holds the
    signed zeros of v * 0); for each slot k and column l the entries
    lacking k add column l times row l of c_k; the diagonal is the next
    DP vector, and the full subset's entries are summed at each readout.
    """
    nwords, n, d, _ = words.shape
    positions = sorted(int(p) for p in positions)
    exps = np.einsum("ij,wkji->wk", np.diag(state.pi), words)
    c = words - exps[:, :, None, None] * np.eye(d)
    full = (1 << n) - 1
    eye = np.eye(d)
    rows = []
    v = np.zeros((nwords, full + 1, d), dtype=complex)
    v[:, 0, :] = state.pi
    prev = None
    for size, x in enumerate(positions, 1):
        if prev is not None:
            v = v @ state.transition_power(x - prev).T
        w = v[..., None] * eye
        for k in range(n):
            view = w.reshape(nwords, 1 << (n - k - 1), 2, 1 << k, d, d)
            lo, hi = view[:, :, 0], view[:, :, 1]
            ck = c[:, k, None, None]
            for l in range(d):
                hi += lo[..., l, None] * ck[..., l, None, :]
        v = np.einsum("wsii->wsi", w)
        prev = x
        if size in set(sizes):
            rows.append(v[:, full, :].sum(axis=1) * float(size) ** (-n / 2.0))
    return np.array(rows)


# =============================================================================
# Circuit engine
# =============================================================================


def _tensordot_site(tensor, mat, x):
    return np.moveaxis(np.tensordot(mat, tensor, axes=[[1], [x]]), 0, x)


def _tensordot_two_site(tensor, gate, i, d):
    out = np.tensordot(gate.reshape(d, d, d, d), tensor, axes=[[2, 3], [i, i + 1]])
    return np.moveaxis(out, [0, 1], [i, i + 1])


class _TensordotCircuit:
    """A frozen copy of the circuit engine on np.tensordot and np.moveaxis."""

    def __init__(self, base_rho, length, layers):
        d = base_rho.shape[0]
        probs, vecs = np.linalg.eigh(base_rho)
        if probs[-1] > 1.0 - 1e-12:
            start = vecs[:, -1]
        elif probs[0] > 1e-12:
            start = np.linalg.cholesky(base_rho) / np.sqrt(np.trace(base_rho).real)
        else:
            p = np.clip(probs, 0.0, None)
            start = vecs * np.sqrt(p / p.sum())
        tensor = start.copy()
        for _ in range(length - 1):
            tensor = np.kron(tensor, start)
        tensor = tensor.reshape((d,) * length + tensor.shape[1:])
        for offset, gate in layers:
            for i in range(offset, length - 1, 2):
                tensor = _tensordot_two_site(tensor, np.asarray(gate, dtype=complex), i, d)
        self.d, self.tensor = d, tensor

    def close(self, phi):
        return complex(np.vdot(self.tensor.reshape(-1), phi.reshape(-1)))

    def restriction(self, x):
        p = np.moveaxis(self.tensor, x, 0).reshape(self.d, -1)
        return p @ p.conj().T

    def moment(self, positions, words):
        n = words.shape[1]
        rhos = np.array([self.restriction(x) for x in positions])
        means = np.einsum("xij,wkji->wk", rhos, words)
        out = np.empty(len(words), dtype=complex)
        for w, word in enumerate(words):
            phi = self.tensor
            for k in range(n - 1, -1, -1):
                acc = -means[w, k] * phi
                for x in positions:
                    acc += _tensordot_site(phi, word[k], x)
                phi = acc
            out[w] = self.close(phi)
        return out * float(len(positions)) ** (-n / 2.0)

    def expect_rows(self, sites, index, mats):
        mats = np.broadcast_to(mats, (len(index),) + mats.shape[1:])
        out = np.empty(mats.shape[:2], dtype=complex)
        for s, row in enumerate(np.asarray(index).tolist()):
            for p, cell in enumerate(mats[s]):
                phi = self.tensor
                for x, a in zip(row, cell):
                    phi = _tensordot_site(phi, a, sites[x])
                out[s, p] = self.close(phi)
        return out


def circuit_tensordot_reference(base_rho, length, layers):
    """The circuit engine as it ran on np.tensordot and np.moveaxis, frozen.

    It pins the rounding: ``CircuitState``'s evolved ``tensor``,
    ``site_restriction``, ``expect_rows`` and ``_moments.classified_moment``
    must equal its ``tensor``, ``restriction(x)``, ``expect_rows`` and
    ``moment(positions, words)`` bit for bit, whatever views the engine
    steps on. The purification is the state's own: the top eigenvector of
    a pure base, the Cholesky factor of a positive definite one, else
    sqrt(p_k) |k>.
    """
    return _TensordotCircuit(np.asarray(base_rho, dtype=complex), length, layers)


def brickwork_cone(x, layers):
    """The interval an operator at site x reaches on the infinite brickwork.

    The layers act in order, so the operator is conjugated by the last
    layer first; each gate pair it touches widens its support.
    """
    lo = hi = x
    for offset, _ in reversed(layers):
        lo -= (lo - offset) % 2
        hi += (hi - offset + 1) % 2
    return lo, hi


def bulk_increment_sites(length, layers):
    """Sites x at which the increment Delta(x + 1) takes its bulk value.

    Site y is in the bulk if its cone lies in the chain, so every gate of
    the cone exists. The increment sums the truncated pairs of x with
    y <= x, which vanish unless the two cones meet; it is the bulk value
    when every y whose cone meets x's, negative ones included, is in the
    bulk.
    """
    out = []
    for x in range(length):
        lo = brickwork_cone(x, layers)[0]
        meets = [brickwork_cone(y, layers) for y in range(lo - len(layers), x + 1)]
        if all(0 <= c[0] and c[1] < length for c in meets if c[1] >= lo):
            out.append(x)
    return out


def dense_window_increments(base_rho, layers, a, b, length=8):
    """The two-point increments Delta(x + 1) on a dense chain, engine-free.

    Delta(x + 1) = sum over y <= x of the truncated omega(a_x b_y), plus
    the sum over y < x of the truncated omega(a_y b_x): the terms of
    m omega(F_m(a) F_m(b)) that m = x + 1 adds. Each expectation is the
    trace of the kron-embedded density matrix of a ``length``-site chain
    against the kron product of the operators. The increments are taken at
    that chain's first bulk site of each parity (``bulk_increment_sites``),
    keyed by parity: the brickwork repeats with period 2.
    """
    d = base_rho.shape[0]
    full = circuit_dense_density(base_rho, length, layers)

    def expect(ops):
        mats = [ops.get(x, np.eye(d)) for x in range(length)]
        return complex(np.sum(full.T * reduce(np.kron, mats)))

    def truncated(x, y):
        ops = {x: a @ b} if x == y else {x: a, y: b}
        return expect(ops) - expect({x: a}) * expect({y: b})

    out = {}
    for x in bulk_increment_sites(length, layers):
        if x % 2 not in out:
            pairs = [(x, y) for y in range(x + 1)] + [(y, x) for y in range(x)]
            out[x % 2] = sum(truncated(*pair) for pair in pairs)
    return out


def qubit_nu2_bracket(moments, tol=1e-13, max_arcs=1024):
    """A certified bracket (low, top) of nu_2 = sup |F(a, b)| over qubit
    Hermitian a, b of operator norm 1, from the 4 x 4 matrix
    ``moments[i, j] = F(s_i, s_j)``, s = (I, X, Y, Z). Engine-free.

    A unit-norm Hermitian qubit operator is a0 I + u.sigma with
    |a0| + |u| = 1, so the extreme points are +-I and the reflections
    u.sigma with |u| = 1, and F is bilinear. With R = Re(e^{-i theta} M),
    nu_2 is the max over theta of |R00|, ||R_{0,1:}||, ||R_{1:,0}|| and
    sigma_max(R_{1:,1:}). The first three maxima over theta are closed
    forms: |M00|, and the largest singular value of [Re m, Im m] for the
    row or column m. For the 3 x 3 block N = A + iB, R^T R is
    P + cos(phi) Q + sin(phi) S with phi = 2 theta. Its largest
    eigenvalue is convex in (cos phi, sin phi), so on an arc of the circle
    it is at most the largest of its values at the two ends and at the
    apex of their tangents: a second-order top, where the Lipschitz
    bound ||M||_2 |d theta| is first order. Arcs are bisected until
    every top is within ``tol`` (relative) of the largest end value, or
    more than ``max_arcs`` stay open; either way the top is certified.
    """
    m = np.asarray(moments, dtype=complex)
    exact = [
        abs(m[0, 0]),
        np.linalg.norm(np.stack([m[0, 1:].real, m[0, 1:].imag]), 2),
        np.linalg.norm(np.stack([m[1:, 0].real, m[1:, 0].imag]), 2),
    ]
    a, b = m[1:, 1:].real, m[1:, 1:].imag
    p, q, s = (a.T @ a + b.T @ b) / 2, (a.T @ a - b.T @ b) / 2, (a.T @ b + b.T @ a) / 2

    def lam(phi, radius=1.0):
        mats = p + radius * (np.cos(phi)[:, None, None] * q + np.sin(phi)[:, None, None] * s)
        return np.linalg.eigvalsh(mats)[:, -1]

    half = math.pi / 64
    centers = (np.arange(64) + 0.5) * 2 * half
    low = top = 0.0
    while len(centers):
        ends = np.maximum(lam(centers - half), lam(centers + half))
        tops = np.maximum(ends, lam(centers, 1.0 / math.cos(half)))
        low = max(low, float(ends.max()))
        shut = tops <= low + tol * max(low, 1e-300)
        if len(centers) - shut.sum() > max_arcs:
            shut[:] = True
        top = max(top, float(tops[shut].max(initial=0.0)))
        half /= 2
        centers = np.concatenate([centers[~shut] - half, centers[~shut] + half])
    return max(exact + [math.sqrt(low)]), max(exact + [math.sqrt(max(top, 0.0))])
