"""Moment evaluation engines, one per state family.

Each engine takes the same (N, n, d, d) stack of raw word operators and
returns the N induced moments omega(F(a_1)...F(a_n)) of the fluctuation
operators F(a) = |X|^{-1/2} sum_x (a_x - omega_x(a)):

* a closed form for product states: site tuples grouped by block
  structure give falling-factorial multiplicities times products of
  single-site traces of block products. The block traces serve every
  size, and one accumulate along the partitions sums a whole size table
* a subset-lattice transfer recursion for Markov states: sites are
  processed left to right, the DP state tracks which word slots have
  been placed plus the chain-state vector, so the full |X|^n tuple sum
  collapses to one transfer and one slot-by-slot placement per site, on
  2^n d^2 entries per word that fluctuations.MARKOV_DP_GUARD bounds.
  Slot k updates 2^(n-1) entries at a middle site, 2^k at the first
  site (no slot above k is placed yet) and 2^(n-1-k) at the last (only
  the full subset is read); a one-site sweep takes both, 1 entry. One
  sweep reads the moment out after every requested prefix of the sorted
  sites and stops at the last readout, so a whole size table costs one
  sweep over its largest region. One (row, column, subset, word) buffer
  per call puts subsets and words innermost
* the direct product for circuit states: the n fluctuation operators
  are applied right to left to the cached statevector, n |X|
  single-site contractions per word. Each is one step on (left, d,
  right) views of the C-contiguous statevector: one contiguous copy, one
  np.dot and one add into the accumulator's view. The site restrictions
  that center the words are computed once per state

Product and Markov states evaluate many words of one degree at once over
the leading numpy axis; the seminorm searches depend on that throughput.
Product and Markov tables are one pass; circuits run per size. The
circuit engine takes the same batches (a search sends its basis words
as one) but loops over the words, one statevector pass each. A scalar
call is a batch of one. The product closed form adds its partition
terms with a plain sequential sum: over 3000 random cases (d in {2, 3},
n = 1..7, |X| = 1..199) it differed from a compensated (Kahan) sum by
at most 3e-15 in absolute value. The independent oracles for all three
engines are the dense and brute-force helpers of the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .combinatorics import falling_factorial, set_partitions
from .states import CircuitState, MarkovState, _contract

# ---------------------------------------------------------------------------
# product states
# ---------------------------------------------------------------------------


def center_against(rho: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Center every operator in a (N, n, d, d) stack against rho."""
    d = words.shape[-1]
    exps = np.einsum("ij,wkji->wk", rho, words)
    return words - exps[:, :, None, None] * np.eye(d)


# entries of one chunk's (partition, size, word) terms and (partition, slot, word)
# block traces; the partition guard admits B(12) ~ 4.2M partitions
_PRODUCT_CHUNK_BUDGET = 1 << 16


@lru_cache(maxsize=None)
def _partition_blocks(n: int) -> tuple:
    """The partitions of set_partitions(n) as arrays, in its order.

    Returns the blocks in lexicographic order, so each block's prefix
    comes before it; each partition's block count less one; its blocks
    as positions in that list, padded with 0 after the k-th; and per
    slot j the first partition with more than j blocks (the enumeration
    is sorted by block count). The tuples are enumerated past the cache
    of ``set_partitions`` and dropped: B(11) of them hold about 110 MB.
    """
    parts = set_partitions.__wrapped__(n)
    blocks = sorted({b for part in parts for b in part})
    where = {b: i for i, b in enumerate(blocks)}
    counts = np.array([len(part) for part in parts])
    index = np.zeros((len(parts), n), dtype=np.int16)
    for p, part in enumerate(parts):
        index[p, : len(part)] = [where[b] for b in part]
    starts = np.searchsorted(counts, np.arange(n), side="right").tolist()
    return tuple(blocks), counts - 1, index, starts


def product_moment_batch(
    rho: np.ndarray, sizes: Sequence[int], words: np.ndarray
) -> np.ndarray:
    """Induced moments of a word stack for the product state rho^X, per size.

    ``words`` has shape (N, n, d, d); operators are centered here, so
    callers pass them raw. ``sizes`` ascend, and the result has shape
    (len(sizes), N). Tuples are grouped by their block partition; a
    partition with k blocks occurs with multiplicity |X|(|X|-1)...
    (|X|-k+1) and contributes the product over blocks of tr(rho *
    ordered block product).

    The block traces are taken once for every size, each block's product
    stepped from its prefix's. The partitions form their terms on one
    (partition, size, word) array, chunked under _PRODUCT_CHUNK_BUDGET:
    the multiplicity times each block trace left to right, and a
    sequential accumulate along the partitions carries every size's
    total. A size below k has multiplicity 0; its term is -0, which adds
    nothing to any float. Each row therefore adds the same terms in the
    same order as a loop over the partitions at that size alone, bit for
    bit.
    """
    nwords, n, d, _ = words.shape
    c = center_against(rho, words)
    blocks, kidx, index, starts = _partition_blocks(n)
    traces = np.empty((len(blocks), 1, nwords), dtype=complex)
    prefix = [None] * (n + 1)
    for j, block in enumerate(blocks):
        m = c[:, block[-1] - 1]
        if len(block) > 1:
            m = prefix[len(block) - 1] @ m
        prefix[len(block)] = m
        traces[j, 0] = np.einsum("ij,wji->w", rho, m)

    # the multiplicity of k blocks at each size, in row k - 1
    ff = np.array([complex(falling_factorial(s, k)) for k in range(1, n + 1) for s in sizes])
    ff = ff.reshape(n, len(sizes))
    below = np.array(sizes) if sizes[0] < n else None
    total = 0.0
    step = max(1, _PRODUCT_CHUNK_BUDGET // max(1, (len(sizes) + n) * nwords))
    for lo in range(0, len(kidx), step):
        chunk = slice(lo, lo + step)
        factors = traces[index[chunk]]
        terms = ff[kidx[chunk], :, None] * factors[:, 0]
        for j in range(1, n):
            first = max(starts[j] - lo, 0)
            if first >= len(terms):
                break
            # not in place: numpy takes a one-entry in-place product for a
            # reduction and rounds it without the fused multiply-add
            terms[first:] = terms[first:] * factors[first:, j]
        if below is not None:
            terms[kidx[chunk, None] >= below] = complex(-0.0, -0.0)
        # the carried total; on the first chunk the loop's 0 + first term
        terms[0] += total
        np.add.accumulate(terms, axis=0, out=terms)
        total = terms[-1]
    scales = np.array([float(s) ** (-n / 2.0) for s in sizes])
    return total * scales[:, None]


def product_moment(rho: np.ndarray, size: int, word_mats: Sequence[np.ndarray]) -> complex:
    """Product closed form of one word at one size: a table of one."""
    return complex(product_moment_batch(rho, [size], np.array([word_mats], dtype=complex))[0, 0])


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
    diagonal is the new DP vector, with no table and no subtraction.

    Slot k updates only the entries that can be nonzero and may be read.
    The first site starts from the empty subset, so after slot k only
    subsets of the slots 0..k are nonzero: slot k runs on the 2^k entries
    whose slots above k are clear. The last site is read only at the full
    subset: slot k runs on the 2^(n-1-k) entries whose slots below k are
    all set. A one-site sweep takes both rules; a middle site updates all
    2^(n-1) entries per slot, d x d each. The sweep stops at its last
    readout, max(sizes). For finite words a skipped first-site entry holds
    +0 as the full update leaves it (+0 plus any product of +0 is +0), and
    a skipped last-site entry is never read, so no skip changes a bit; an
    overflow confined to an unread entry no longer raises.

    The matrices sit in one buffer w[i, j, S, word]; its slot views, factor
    rows and half-size scratch are built once per call, and so is the
    slot plan of each kind of site (first, middle, last). Each update adds
    column l of the entries lacking slot k times row l of c_k, in the order
    of a (word, S, i, j) layout, and numpy rounds these alike for any
    strides. The readout sums a contiguous copy, as numpy's pairwise sum
    would otherwise reorder d = 4 entries. Every entry keeps its bits.

    ``sizes`` are ascending lengths k of the sorted positions; the result
    has one row per k, shape (len(sizes), nwords): the moments on the
    first k sites, read out after the k-th site of the one sweep. A call
    on those k sites alone performs the same operations, so each row
    equals it bit for bit.
    """
    nwords, n, d, _ = words.shape
    # no row reads a site past the last readout
    positions = sorted(int(p) for p in positions)[: max(sizes)]
    c = center_against(np.diag(state.pi), words)
    full = (1 << n) - 1
    eye = np.eye(d)

    w = np.empty((d, d, full + 1, nwords), dtype=complex)
    diag = np.einsum("iisw->wsi", w)
    tmp = np.empty(w.size // 2, dtype=complex)
    # axis 2 holds the slots above k, axis 3 slot k and axis 4 the slots below k
    views = [w.reshape(d, d, 1 << (n - k - 1), 2, 1 << k, nwords) for k in range(n)]
    cols = [
        np.ascontiguousarray(c[:, k].transpose(1, 2, 0))[:, None, :, None, None] for k in range(n)
    ]

    def plan(first: bool, last: bool) -> list:
        """Per slot k: the entries gaining slot k, their scratch and factor terms.

        The first site keeps the slots above k clear, the last the slots below k set.
        """
        slots = []
        for k, view in enumerate(views):
            view = view[:, :, : 1 if first else None, :, (1 << k) - 1 if last else 0 :]
            hi = view[:, :, :, 1]
            terms = [(view[:, l, None, :, 0], cols[k][l]) for l in range(d)]
            slots.append((hi, tmp[: hi.size].reshape(hi.shape), terms))
        return slots

    middle = plan(False, False) if len(positions) > 2 else None
    readouts = set(sizes)
    rows = []
    v = np.zeros((nwords, full + 1, d), dtype=complex)
    v[:, 0, :] = state.pi
    prev = None
    for size, x in enumerate(positions, 1):
        if prev is not None:
            v = diag @ state.transition_power(x - prev).T
        # times the identity, so the off-diagonal zeros keep their signs
        np.multiply(v.transpose(2, 1, 0)[:, None], eye[:, :, None, None], out=w)
        first, last = prev is None, size == len(positions)
        for hi, scratch, terms in plan(first, last) if first or last else middle:
            for lo_l, c_kl in terms:
                np.multiply(lo_l, c_kl, out=scratch)
                np.add(hi, scratch, out=hi)
        prev = x
        if size in readouts:
            rows.append(np.ascontiguousarray(diag[:, full]).sum(axis=1) * size ** (-n / 2.0))
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
    Each site's (d, left, right) product is added, transposed, into the
    (left, d, right) view of the C-contiguous accumulator.
    """
    n = words.shape[1]
    d = state.site_dim
    rhos = np.array([state.site_restriction(x).rho for x in positions])
    means = np.einsum("xij,wkji->wk", rhos, words)
    out = np.empty(len(words), dtype=complex)
    for w, word in enumerate(words):
        phi = state.tensor
        for k in range(n - 1, -1, -1):
            acc = -means[w, k] * phi
            for x in positions:
                prod = _contract(phi, word[k], x)
                view = acc.reshape(prod.shape[1], d, -1)
                view += prod.transpose(1, 0, 2)
            phi = acc
        out[w] = state.close(phi)
    return out * float(len(positions)) ** (-n / 2.0)
