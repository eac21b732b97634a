"""Moment evaluation engines.

Three interchangeable evaluation strategies for induced fluctuation
moments, all summing the same classified tuple decomposition of the
n-fold site sum:

* a closed form for product states: tuples grouped by block structure
  give falling-factorial multiplicities times products of single-site
  traces of block products
* a subset-lattice transfer recursion for Markov states: sites are
  processed left to right, the DP state tracks which word slots have
  been placed plus the chain-state vector, so the full |X|^n tuple sum
  collapses to 3^n transitions per site
* a generic classifier loop that works for every state family, used for
  circuits and as the cross-check oracle for the fast paths

Product and Markov states each have one batched closed form, which
evaluates many words of one degree at once over the leading numpy axis;
the seminorm searches depend on that throughput. A scalar call is a
batch of one. The product closed form adds its partition terms with a
plain sum: over 3000 random cases (d in {2, 3}, n = 1..7, |X| = 1..199)
it differed from a compensated (Kahan) sum by at most 3e-15 in absolute
value. The classifier loop, with up to |X|^n terms, keeps compensated
summation.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .algebra import SiteOperator
from .combinatorics import falling_factorial, set_partitions
from .errors import KahanSum
from .states import GlobalState, MarkovState

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
    state: MarkovState, positions: Sequence[int], words: np.ndarray
) -> np.ndarray:
    """Induced moments of a word stack on a Markov state, exactly.

    Reorganizes the tuple sum as a left-to-right sweep over the region's
    sites. The DP vector is indexed by (word-slot subset, chain state);
    moving to the next site applies the cached transition power for the
    gap, and at each site every disjoint slot subset K may be placed,
    contributing the diagonal of the ascending-order product of the
    centered operators in K. Operators on different sites commute, so
    ascending order inside a site is the only ordering that matters.
    """
    nwords, n, d, _ = words.shape
    positions = sorted(int(p) for p in positions)
    size = len(positions)
    rho = np.diag(state.pi)
    c = center_against(rho, words)

    nsub = 1 << n
    full = nsub - 1
    prods = np.empty((nwords, nsub, d, d), dtype=complex)
    prods[:, 0] = np.eye(d)
    for k_mask in range(1, nsub):
        low = (k_mask & -k_mask).bit_length() - 1
        prods[:, k_mask] = c[:, low] @ prods[:, k_mask & (k_mask - 1)]
    diags = np.einsum("wkii->wki", prods)

    placements = []
    for k_mask in range(1, nsub):
        src = np.array([s for s in range(nsub) if s & k_mask == 0], dtype=np.intp)
        placements.append((k_mask, src, src | k_mask))

    v = np.zeros((nwords, nsub, d), dtype=complex)
    v[:, 0, :] = state.pi
    prev = None
    for x in positions:
        if prev is not None:
            m = state.transition_power(x - prev)
            v = v @ m.T
        new = v.copy()
        for k_mask, src, tgt in placements:
            new[:, tgt, :] += v[:, src, :] * diags[:, k_mask, None, :]
        v = new
        prev = x
    return v[:, full, :].sum(axis=1) * float(size) ** (-n / 2.0)


# ---------------------------------------------------------------------------
# generic states
# ---------------------------------------------------------------------------


def classified_moment(state: GlobalState, sites: Sequence, word: Sequence[SiteOperator]) -> complex:
    """Induced moment via explicit classified tuple enumeration.

    Works for every state family. Tuples of sites are grouped by their
    block partition: for each partition with k blocks and each ordered
    choice of k distinct sites, the block operators (per-site centered,
    multiplied in ascending slot order) are assigned and the global
    state is queried once.
    """
    n = len(word)
    size = len(sites)
    eye = np.eye(word[0].dim)
    centered: dict = {}
    for x in sites:
        rho = state.site_restriction(x).rho
        centered[x] = [
            SiteOperator(a.mat - complex(np.trace(rho @ a.mat)) * eye) for a in word
        ]
    acc = KahanSum()
    for part in set_partitions(n):
        k = len(part)
        if k > size:
            continue
        for tup in itertools.permutations(sites, k):
            ops = {}
            for y, block in zip(tup, part):
                m = centered[y][block[0] - 1].mat
                for i in block[1:]:
                    m = m @ centered[y][i - 1].mat
                ops[y] = SiteOperator(m)
            acc.add(state.expect(ops))
    return acc.value * float(size) ** (-n / 2.0)
