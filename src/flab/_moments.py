"""Moment evaluation engines, one per state family.

Each engine takes the same (N, n, d, d) stack of raw word operators and
returns the N induced moments omega(F(a_1)...F(a_n)) of the fluctuation
operators F(a) = |X|^{-1/2} sum_x (a_x - omega_x(a)):

* a closed form for product states: site tuples grouped by block
  structure give falling-factorial multiplicities times products of
  single-site traces of block products
* a subset-lattice transfer recursion for Markov states: sites are
  processed left to right, the DP state tracks which word slots have
  been placed plus the chain-state vector, so the full |X|^n tuple sum
  collapses to one transfer and one slot-by-slot placement per site
  (n 2^(n-1) d x d updates per word, on 2^n d^2 entries that
  fluctuations.MARKOV_DP_GUARD bounds). One sweep reads the moment out
  after every requested prefix of the sorted sites, so a whole size
  table costs one sweep over its largest region
* the direct product for circuit states: the n fluctuation operators
  are applied right to left to the cached statevector, n |X|
  single-site contractions per word

Product and Markov states evaluate many words of one degree at once over
the leading numpy axis; the seminorm searches depend on that throughput.
The circuit engine takes the same batches (a search sends its basis
words as one) but loops over the words, one statevector pass each. A
scalar call is a batch of one. The product closed form adds its
partition terms with a plain sum: over 3000 random cases (d in {2, 3},
n = 1..7, |X| = 1..199) it differed from a compensated (Kahan) sum by
at most 3e-15 in absolute value. The independent oracles for all three
engines are the dense and brute-force helpers of the test suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .combinatorics import falling_factorial, set_partitions
from .states import CircuitState, MarkovState, _apply_site

# ---------------------------------------------------------------------------
# product states
# ---------------------------------------------------------------------------


def center_against(rho: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Center every operator in a (N, n, d, d) stack against rho."""
    d = words.shape[-1]
    exps = np.einsum("ij,wkji->wk", rho, words)
    return words - exps[:, :, None, None] * np.eye(d)


def product_moment_batch(rho: np.ndarray, size: int, words: np.ndarray) -> np.ndarray:
    """Induced moments of a word stack for the product state rho^X.

    ``words`` has shape (N, n, d, d); operators are centered here, so
    callers pass them raw. Tuples are grouped by their block partition;
    a partition with k blocks occurs with multiplicity |X|(|X|-1)...
    (|X|-k+1) and contributes the product over blocks of tr(rho *
    ordered block product).
    """
    nwords, n, d, _ = words.shape
    c = center_against(rho, words)
    cache: dict[tuple, np.ndarray] = {}

    def block_vec(block: tuple) -> np.ndarray:
        v = cache.get(block)
        if v is None:
            m = c[:, block[0] - 1]
            for i in block[1:]:
                m = m @ c[:, i - 1]
            v = np.einsum("ij,wji->w", rho, m)
            cache[block] = v
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


def product_moment(rho: np.ndarray, size: int, word_mats: Sequence[np.ndarray]) -> complex:
    """Product closed form of one word: a batch of one."""
    return complex(product_moment_batch(rho, size, np.array([word_mats], dtype=complex))[0])


# ---------------------------------------------------------------------------
# Markov states
# ---------------------------------------------------------------------------


def markov_moment_batch(
    state: MarkovState,
    positions: Sequence[int],
    words: np.ndarray,
    sizes: Sequence[int],
) -> np.ndarray:
    """Induced moments of a word stack on a Markov state, exactly.

    Reorganizes the tuple sum as a left-to-right sweep over the region's
    sites. The DP vector is indexed by (word-slot subset, chain state);
    moving to the next site applies the cached transition power for the
    gap. At each site a subset K of the slots not yet placed may be
    placed, contributing the diagonal of the ascending-order product of
    the centered operators in K. Operators on different sites commute, so
    ascending order inside a site is the only ordering that matters.

    The placement is built one slot at a time: every DP entry S becomes
    the diagonal matrix diag(v[S]), and for k = 0..n-1 each matrix whose
    subset lacks slot k, right-multiplied by c_k, is added into the
    entry with slot k set. After slot n-1 the entry T holds the sum over
    K in T of diag(v[T - K]) times the ascending product over K, whose
    diagonal is the new DP vector: n 2^(n-1) d x d updates per word and
    site, with no table and no subtraction.

    ``sizes`` are ascending lengths k of the sorted positions; the result
    has one row per k, shape (len(sizes), nwords): the moments on the
    first k sites, read out after the k-th site of the one sweep. A call
    on those k sites alone performs the same operations, so each row
    equals it bit for bit.
    """
    nwords, n, d, _ = words.shape
    positions = sorted(int(p) for p in positions)
    c = center_against(np.diag(state.pi), words)
    full = (1 << n) - 1
    eye = np.eye(d)

    readouts = set(sizes)
    rows = []
    v = np.zeros((nwords, full + 1, d), dtype=complex)
    v[:, 0, :] = state.pi
    prev = None
    for size, x in enumerate(positions, 1):
        if prev is not None:
            v = v @ state.transition_power(x - prev).T
        w = v[..., None] * eye
        for k in range(n):
            # axis 2 is bit k of the slot subset
            view = w.reshape(nwords, 1 << (n - k - 1), 2, 1 << k, d, d)
            lo, hi = view[:, :, 0], view[:, :, 1]
            ck = c[:, k, None, None]
            for l in range(d):
                hi += lo[..., l, None] * ck[..., l, None, :]
        v = np.einsum("wsii->wsi", w)
        prev = x
        if size in readouts:
            rows.append(v[:, full, :].sum(axis=1) * float(size) ** (-n / 2.0))
    return np.array(rows)


# ---------------------------------------------------------------------------
# circuit states
# ---------------------------------------------------------------------------


def classified_moment(
    state: CircuitState, positions: Sequence[int], words: np.ndarray
) -> np.ndarray:
    """Induced moments of a word stack on a circuit state, as applied operators.

    Each slot, right to left, maps phi to sum_x a_x phi - (sum_x tr(rho_x
    a)) phi, with rho_x the site restriction; the state's closing step
    then gives omega(F(a_1)...F(a_n)) up to the |X|^{-n/2} scale.
    The name predates this engine; bench/tracing.py wraps it by name.
    """
    n = words.shape[1]
    rhos = np.array([state.site_restriction(x).rho for x in positions])
    means = np.einsum("xij,wkji->wk", rhos, words)
    out = np.empty(len(words), dtype=complex)
    for w, word in enumerate(words):
        phi = state.tensor
        for k in range(n - 1, -1, -1):
            acc = -means[w, k] * phi
            for x in positions:
                acc += _apply_site(phi, word[k], x)
            phi = acc
        out[w] = state.close(phi)
    return out * float(len(positions)) ** (-n / 2.0)
