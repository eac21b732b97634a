"""Fluctuation moments, CCR transport checks and seminorm searches.

For a region X and a global state, the fluctuation of a single-site
operator a is the |X|^{-1/2}-scaled sum over sites of a minus its local
expectation. The induced moment of a word (a_1, ..., a_n) is the global
expectation of the product of these fluctuations; it is the basic
functional everything in this package measures.

The commutator of two fluctuations differs from a scalar by one more
fluctuation with an extra |X|^{-1/2} factor. That identity is exact at
every finite size when the scalar is computed against the site-averaged
restriction, and ``ccr_decay_table`` verifies it numerically at every
size of a table before bounding the moment of the leftover term. Its
moments are three size tables, each one Markov sweep, taken before any
search, so every cost guard trips first. Sizes whose restrictions are
bit-equal (all of them on product and Markov states) share the search
words, and on the tensor side read their basis tensors from one more
sweep.
``ccr_decay_check`` is the table at one size.

Seminorm values reported here are certified lower bounds. Candidates
are unit-operator-norm words, ranked by contractions of one exact basis
tensor (the functional on the probe-basis words; it is linear in every
slot), or by direct evaluation when that tensor would be the larger
job. On the tensor the direction head is n mode products and the
coordinate ascent steps on contractions; near-ties, the start word and
the ascent's final word are evaluated directly. The reported value is
always a direct evaluation of the reported witness, and the search
only ever takes maxima over candidates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    HERMITIAN_TOL,
    MAX_LOCAL_DIM,
    SiteOperator,
    SiteState,
    _hs_coefficient_stack,
    _unit_basis,
    center,
    commutator,
    expect as site_expect,
    hermitian_basis,
    op_norm,
)
from ._moments import (
    classified_moment,
    markov_moment_batch,
    product_moment,  # no caller here; bench/tracing.py wraps this name
    product_moment_batch,
)
from .errors import CostGuardError
from .lattice import Region
from .states import (
    CircuitState,
    GlobalState,
    MarkovState,
    ProductState,
    _power_exceeds,
    random_hermitian_units,
)

TUPLE_SUM_GUARD = 10**8
MARKOV_DP_GUARD = 2**20
PRODUCT_PARTITION_GUARD = 11
SEARCH_DRAW_GUARD = 2**16
COMPARISON_MAX_DEGREE = 6
TRANSPORT_TOL = 1e-10
CCR_BOUND_SLACK = 1e-12


def check_tuple_sum(size: int, n: int) -> None:
    """Refuse an induced moment whose tuple sum has more than TUPLE_SUM_GUARD terms."""
    if _power_exceeds(int(size), n, TUPLE_SUM_GUARD):
        raise CostGuardError(
            "induced-moment tuple sum",
            f"|X|^n = {size}^{n} exceeds {TUPLE_SUM_GUARD}",
        )


def check_moment_table(state: GlobalState, sizes: Sequence[int], n: int) -> None:
    """Refuse a size table of degree-n induced moments above a cost guard.

    Every size passes the |X|^n guard, in order, a Markov state its
    sweep's subset-DP guard, and a product state the degree guard of its
    closed form, which sums over all B(n) set partitions. Nothing here
    needs the region, so callers run it before one is built.
    """
    for size in sizes:
        check_tuple_sum(size, n)
    # the Markov sweep keeps a d x d matrix per slot subset and word
    d = state.site_dim
    if isinstance(state, MarkovState) and (1 << n) * d * d > MARKOV_DP_GUARD:
        raise CostGuardError(
            "Markov subset DP",
            f"2^n d^2 = 2^{n} * {d}^2 exceeds {MARKOV_DP_GUARD}",
        )
    if isinstance(state, ProductState) and n > PRODUCT_PARTITION_GUARD:
        raise CostGuardError(
            "product set partitions", f"degree {n} exceeds {PRODUCT_PARTITION_GUARD}"
        )


def check_search_draws(search_budget: int, n: int) -> None:
    """Refuse a search whose random words draw more than SEARCH_DRAW_GUARD operators."""
    if search_budget * n > SEARCH_DRAW_GUARD:
        raise CostGuardError(
            "search draws",
            f"search_budget * n = {search_budget} * {n} exceeds {SEARCH_DRAW_GUARD}",
        )


def prefix_sizes(sizes: Sequence[int], region: Region) -> list[int]:
    """A size table's prefix lengths of region's sorted sites: strictly ascending integers."""
    sizes = list(sizes)
    if not (
        sizes
        and all(isinstance(k, (int, np.integer)) for k in sizes)
        and 1 <= sizes[0]
        and sizes[-1] <= len(region)
        and all(a < b for a, b in zip(sizes, sizes[1:]))
    ):
        raise ValueError(f"prefix lengths must be strictly ascending integers in 1..{len(region)}")
    return sizes


def _moments_of(
    state: GlobalState,
    region: Region,
    words: Sequence[Sequence[SiteOperator]],
    sizes: Sequence[int],
) -> np.ndarray:
    """Induced moments of equal-degree words, checked, by the state's engine.

    Every engine gets the region's sites in sorted order. ``sizes`` are
    ``prefix_sizes`` of region, and the result has one row per k: the
    moments on the first k sites. The table passes ``check_moment_table``
    before any engine work.
    """
    sizes = prefix_sizes(sizes, region)
    n = len(words[0]) if words else 0
    if any(len(w) != n for w in words):
        raise ValueError("batch evaluation needs words of equal degree")
    if n == 0:
        out = np.ones((len(sizes), len(words)), dtype=complex)
    else:
        for w in words:
            for a in w:
                if a.dim != state.site_dim:
                    raise ValueError(
                        f"word operator dimension {a.dim} does not match site dimension"
                    )
        for x in region.sites:
            if not state.contains_site(x):
                raise ValueError(f"region site {x!r} outside the state's domain")
        check_moment_table(state, sizes, n)
        sites = region.sorted_sites()[: sizes[-1]]
        stack = np.array([[a.mat for a in w] for w in words])
        # product and Markov tables are one pass; circuits run per size
        if isinstance(state, ProductState):
            out = product_moment_batch(state.site.rho, sizes, stack)
        elif isinstance(state, MarkovState):
            out = markov_moment_batch(state, sites, stack, sizes)
        elif isinstance(state, CircuitState):
            out = np.array([classified_moment(state, sites[:k], stack) for k in sizes])
        else:
            raise TypeError(f"no moment engine for state family {type(state).__name__}")
    return out


def induced_moment(state: GlobalState, region: Region, word: Sequence[SiteOperator]) -> complex:
    """Moment of centered, |X|^{-1/2}-scaled site sums of the word slots.

    Each slot is centered per site against that site's restriction, so
    the value is well defined for inhomogeneous circuit states too.
    """
    return induced_moment_table(state, region, word, [len(region)])[0]


def induced_moment_table(
    state: GlobalState, region: Region, word: Sequence[SiteOperator], sizes: Sequence[int]
) -> list[complex]:
    """``induced_moment`` of one word on the first k sorted sites of region, per k.

    ``sizes`` ascend strictly; each value equals the ``induced_moment``
    call on those k sites bit for bit, and a Markov state computes the
    whole table in one sweep.
    """
    word = tuple(word)
    if not word:
        raise ValueError("induced_moment needs a word of degree >= 1")
    return [complex(row[0]) for row in _moments_of(state, region, [word], sizes)]


class TensorPolynomial:
    """Finite linear combination of tensor words of single-site operators.

    The empty word is the unit; its induced moment is 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms: list[tuple[complex, tuple[SiteOperator, ...]]] = []
        for coeff, word in terms:
            self.terms.append((complex(coeff), tuple(word)))

    @classmethod
    def word(cls, ops: Sequence[SiteOperator]) -> "TensorPolynomial":
        return cls([(1.0, tuple(ops))])

    def __add__(self, other: "TensorPolynomial") -> "TensorPolynomial":
        return TensorPolynomial(self.terms + other.terms)

    def __sub__(self, other: "TensorPolynomial") -> "TensorPolynomial":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "TensorPolynomial":
        return TensorPolynomial([(c * complex(scalar), w) for c, w in self.terms])

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((len(w) for _, w in self.terms), default=0)


def induced_moment_polynomial(
    state: GlobalState, region: Region, poly: TensorPolynomial
) -> complex:
    """Induced moment extended linearly to polynomials; the unit maps to 1."""
    functional = InducedMomentFunctional(state, region)
    return sum((coeff * functional(word) for coeff, word in poly.terms), complex(0.0))


class InducedMomentFunctional:
    """Callable wrapper: word tuple -> induced moment, with batching."""

    def __init__(self, state: GlobalState, region: Region):
        self.state = state
        self.region = region
        self.dim = state.site_dim

    def __call__(self, word: Sequence[SiteOperator]) -> complex:
        return complex(self.batch([tuple(word)])[0])

    def batch(self, words: Sequence[Sequence[SiteOperator]], sizes=None) -> np.ndarray:
        """F of each word; with ``sizes``, its table of prefix lengths k."""
        if sizes is None:
            return _moments_of(self.state, self.region, words, [len(self.region)])[0]
        return _moments_of(self.state, self.region, words, sizes)


def gamma_form(omega: SiteState, a: SiteOperator, b: SiteOperator) -> complex:
    """Commutator form omega([a*, b]) of a single-site state."""
    return site_expect(omega, commutator(a.adjoint(), b))


def ccr_ideal_element(a: SiteOperator, b: SiteOperator, omega: SiteState) -> TensorPolynomial:
    """The commutation defect a (x) b - b (x) a - omega([a*, b]) * unit.

    Induced moments of words containing this element measure how far the
    fluctuations are from exact boson commutation relations at finite
    size.
    """
    g = gamma_form(omega, a, b)
    return (
        TensorPolynomial.word((a, b))
        - TensorPolynomial.word((b, a))
        - g * TensorPolynomial.word(())
    )


@dataclass
class CcrDecayCheck:
    value: complex
    bound: float
    passed: bool
    transport_deviation: float
    c_constant: float
    transport_ok: bool


def _prefix_region(region: Region, size: int) -> Region:
    """The first ``size`` sorted sites of region; the whole region is itself."""
    if size == len(region):
        return region
    return Region(region.metric, region.sorted_sites()[:size])


def ccr_decay_table(
    state: GlobalState,
    region: Region,
    a: SiteOperator,
    b: SiteOperator,
    sizes: Sequence[int],
    prefix: Sequence[SiteOperator] = (),
    suffix: Sequence[SiteOperator] = (),
    c_estimate: float | None = None,
    search_budget: int = 8,
    seed: int = 0,
) -> list[CcrDecayCheck]:
    """``ccr_decay_check`` on the first k sorted sites of region, per k.

    ``sizes`` ascend strictly. The defect words, the degree (n-1) word
    and the transported word are each one size table (one Markov sweep),
    so every cost guard trips before any search. Each size centers
    against its own averaged restriction. Without ``c_estimate``, C is
    the largest seminorm estimate over the sizes, from one search per
    size (``_search_table``).
    """
    prefix = tuple(prefix)
    suffix = tuple(suffix)
    sizes = list(sizes)
    defect = (prefix + (a, b) + suffix, prefix + (b, a) + suffix)
    comm_word = prefix + (commutator(a, b),) + suffix
    if c_estimate is None:
        check_search_draws(search_budget, len(comm_word))
    defect_rows = _moments_of(state, region, list(defect), sizes)
    rest_rows = _moments_of(state, region, [prefix + suffix], sizes)
    comm_rows = _moments_of(state, region, [comm_word], sizes)

    omegas = [state.averaged_restriction(_prefix_region(region, k)) for k in sizes]
    if c_estimate is None:
        ests = _search_table(state, region, len(comm_word), omegas, sizes, search_budget, seed)
        c_estimate = max(est.value for est in ests)
    norms = math.prod(op_norm(op) for op in prefix + (a, b) + suffix)

    out = []
    rows = zip(sizes, omegas, defect_rows, rest_rows, comm_rows)
    for size, omega, (m_ab, m_ba), (m_rest,), (m_comm,) in rows:
        # the defect polynomial a (x) b - b (x) a - omega([a*, b]) inside the word
        g = gamma_form(omega, a, b)
        direct = complex(m_ab) - complex(m_ba) - g * complex(m_rest)
        transported = float(size) ** (-0.5) * complex(m_comm)
        deviation = abs(direct - transported)
        bound = 2.0 * float(size) ** (-0.5) * c_estimate * norms
        # |value| fits the bound, and |value| sqrt(k) fits 2 C norms, each up to the slack
        ratio = abs(transported) * math.sqrt(size)
        transport_ok = deviation <= TRANSPORT_TOL * max(1.0, norms)
        out.append(
            CcrDecayCheck(
                value=transported,
                bound=bound,
                passed=transport_ok
                and abs(transported) <= bound + CCR_BOUND_SLACK
                and ratio <= 2.0 * float(c_estimate) * norms + CCR_BOUND_SLACK,
                transport_deviation=deviation,
                c_constant=float(c_estimate),
                transport_ok=transport_ok,
            )
        )
    return out


def ccr_decay_check(
    state: GlobalState,
    region: Region,
    a: SiteOperator,
    b: SiteOperator,
    prefix: Sequence[SiteOperator] = (),
    suffix: Sequence[SiteOperator] = (),
    c_estimate: float | None = None,
    search_budget: int = 8,
) -> CcrDecayCheck:
    """Moment of a word containing one commutation defect, with its bound.

    The defect moment is evaluated two ways: directly as a polynomial,
    and through the transport identity that trades the defect for a
    single fluctuation of [a, b] times |X|^{-1/2}. With norms the product
    of the word's operator norms, the two must agree to TRANSPORT_TOL
    times max(1, norms), and ``transport_ok`` holds that verdict. The
    reported bound is 2 |X|^{-1/2} C norms, where C is a lower-bound
    estimate of the degree (n-1) restricted seminorm of the induced
    moment functional (or a caller-provided constant), searched with
    seed 0. ``passed`` requires ``transport_ok`` and that |value| fits
    the bound. This is ``ccr_decay_table`` at the one size |X|.
    """
    return ccr_decay_table(
        state, region, a, b, [len(region)], prefix, suffix, c_estimate, search_budget
    )[0]


# ---------------------------------------------------------------------------
# seminorm searches
# ---------------------------------------------------------------------------

BASIS_PRODUCT_CAP = 20000
TIE_TOL = 1e-12
NU_OMEGA_SLACK = 1e-9
NU_SUM_SLACK = 1e-6


@dataclass
class SeminormEstimate:
    value: float
    witness: tuple
    evaluations: int


@lru_cache(maxsize=MAX_LOCAL_DIM)
def _combo_directions(dim: int) -> tuple[SiteOperator, ...]:
    """Unit-norm Hermitian directions: basis elements (identity first) and pairwise sums."""
    base = hermitian_basis(dim)[1:]
    dirs = list(_unit_basis(dim))
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            for sign in (1.0, -1.0):
                # b_i and b_j are distinct and HS-orthogonal, so the sum is never zero
                m = base[i].mat + sign * base[j].mat
                dirs.append(SiteOperator(m / float(np.linalg.norm(m, 2))))
    return tuple(dirs)


def _centered_units(mats: np.ndarray, omega: SiteState) -> tuple[np.ndarray, np.ndarray]:
    """A (k, d, d) operator stack centered against omega and scaled to unit norm.

    Row by row this is center() over op_norm(), bit for bit, with one
    batched norm for the whole stack. The second array marks the rows
    kept: a row whose centered norm is below 1e-9 is refused.
    """
    vals = np.trace(omega.rho @ mats, axis1=-2, axis2=-1)
    # as expect(): a Hermitian operator's value drops its imaginary residue
    dev = np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))).max(axis=(-2, -1), initial=0.0)
    vals.imag[(dev <= HERMITIAN_TOL) & (np.abs(vals.imag) <= 1e-12)] = 0.0
    centered = mats - vals[:, None, None] * np.eye(mats.shape[-1])
    nrm = np.linalg.norm(centered, 2, axis=(-2, -1))
    keep = ~(nrm < 1e-9)
    return centered / np.where(keep, nrm, 1.0)[:, None, None], keep


def _eval_many(functional, words: list[tuple]) -> np.ndarray:
    if not words:
        return np.zeros(0, dtype=complex)
    if hasattr(functional, "batch"):
        return np.asarray(functional.batch(words), dtype=complex)
    return np.array([complex(functional(w)) for w in words])


class _Candidates:
    """Candidate values for a stack of searches, and each item's count of engine words sent.

    The items share n, the probe and the direction set; each has its own
    functional, and every word any of them evaluates goes through
    ``send``. Without a probe, every candidate word is sent. With one,
    each item sends its probe-basis tensor M = F(probe^n) once, and a
    candidate value is the contraction of M with each slot's
    Hilbert-Schmidt coefficients: F is linear in every slot, so
    F(a_1, ..., a_n) = sum M[i_1, ..., i_n] c_1[i_1] ... c_n[i_n]. A
    centered probe is center(h) for h != I; since center(I) = 0, a
    centered operator a = sum_h c_h h equals sum_{h != I} c_h center(h)
    exactly, so its identity coefficient is dropped. The contractions of
    all items run as one matmul/einsum chain with a leading item axis,
    which gives each item the bits of its own chain. With ``sizes``,
    the items are one functional on a region, item k read at the
    ascending prefix length ``sizes[k]``.
    """

    def __init__(self, functionals: list, n: int, probe: list | None, centered: bool, sizes=None):
        self.functionals = functionals
        self.evaluations = [0] * len(functionals)
        self.sizes = sizes
        self.skip = int(centered)
        self.tensors = None
        if probe is not None:
            basis = list(itertools.product(probe, repeat=n))
            rows = self.values(range(len(functionals)), [basis] * len(functionals))
            self.tensors = rows.reshape((len(functionals),) + (len(probe),) * n)

    def send(self, words: dict[int, list[tuple]]) -> dict[int, np.ndarray]:
        """F of ``words[k]`` per item k (ascending), each item's own evaluation.

        Without sizes each item sends its list to its functional. With
        them, items whose lists are equal (the same operator objects in
        the same order) share one ``batch``, read out at each item's
        size: one Markov sweep or product pass. A row
        of a size table is the per-size call bit for bit, so sharing
        changes no value. Distinct lists are sent apart: a product pass
        would evaluate a concatenation at every size, and a Markov table
        whose sizes end at different witnesses pays one sweep per list.
        """
        for k, ws in words.items():
            self.evaluations[k] += len(ws)
        if self.sizes is None:
            return {k: _eval_many(self.functionals[k], ws) for k, ws in words.items()}
        shared: dict = {}
        for k, ws in words.items():
            shared.setdefault(tuple(id(a) for w in ws for a in w), []).append(k)
        out = {}
        for items in shared.values():
            sizes = [self.sizes[k] for k in items]
            out.update(zip(items, self.functionals[0].batch(words[items[0]], sizes)))
        return out

    def _coefficients(self, mats: np.ndarray) -> np.ndarray:
        return _hs_coefficient_stack(mats)[..., self.skip :]

    def values(self, items: Sequence[int], words: list[list[tuple]]) -> np.ndarray:
        """F of ``words[i]``, item ``items[i]``'s equally many words, one row per item.

        Sent, or contracted from one stacked coefficient array; items
        that pass one list object (one seed's random words) share its
        coefficients.
        """
        if self.tensors is None:
            rows = self.send(dict(zip(items, words)))
            return np.array([rows[k] for k in items])
        lists = {id(ws): ws for ws in words}
        mats = np.array([[[a.mat for a in w] for w in ws] for ws in lists.values()])
        coeffs = self._coefficients(mats)
        if len(lists) < len(words):
            row = {key: i for i, key in enumerate(lists)}
            coeffs = coeffs[[row[id(ws)] for ws in words]]
        return self._contract(self.tensors[items], coeffs)

    def head(self, dirs: Sequence[SiteOperator], n: int) -> np.ndarray:
        """F of every n-tuple of ``dirs``, in ``itertools.product`` order, one row per item.

        On the tensor these are n mode products: each contracts the
        leading slot axis of M with the directions' coefficient matrix
        and rotates the new axis to the back, so after n of them the
        axes are back in slot order and the C-order ravel is product
        order.
        """
        count = len(self.functionals)
        if self.tensors is None:
            return self.values(range(count), [list(itertools.product(dirs, repeat=n))] * count)
        coeffs = self._coefficients(np.array([a.mat for a in dirs]))
        out = self.tensors
        for _ in range(n):
            out = np.swapaxes(coeffs @ out.reshape(count, coeffs.shape[1], -1), -1, -2)
        return out.reshape(count, -1)

    @staticmethod
    def _contract(tensors: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Item i's tensor contracted with ``coeffs[i, w, slot]`` in every slot, per word w."""
        count, width, p = len(tensors), coeffs.shape[1], tensors.shape[1]
        out = coeffs[:, :, 0] @ tensors.reshape(count, p, -1)
        for k in range(1, coeffs.shape[2]):
            out = np.einsum("kwi,kwir->kwr", coeffs[:, :, k], out.reshape(count, width, p, -1))
        return out[:, :, 0]

    def argmax(self, values: np.ndarray, word_at, floors: list[float]) -> list[tuple]:
        """Per item k: |F| and the first word of largest |F|, from direct values.

        ``values[k]`` are F of the words ``word_at(k, 0)``, ``word_at(k, 1)``,
        ... Contractions differ from direct values by rounding, and
        reversed or symmetric words tie exactly, so every word whose
        contraction lies within TIE_TOL of the top is built and sent;
        the first maximum is then the one a direct evaluation of all
        words would pick. When no contraction can reach ``floors[k]``,
        nothing is sent. Every item's near list is built before one
        ``send`` of them all.
        """
        mags = np.abs(values)
        tops = mags.max(axis=1).tolist()
        if self.tensors is None:
            return [(top, word_at(k, int(np.argmax(mags[k])))) for k, top in enumerate(tops)]
        near = {}
        for k, (top, floor) in enumerate(zip(tops, floors)):
            slack = TIE_TOL * max(top, 1.0)
            if not top < floor - slack:
                near[k] = [word_at(k, i) for i in np.flatnonzero(mags[k] >= top - slack)]
        rows = self.send(near)
        out = []
        for k in range(len(tops)):
            if k not in near:
                out.append((-1.0, ()))
                continue
            direct = np.abs(rows[k])
            pick = int(np.argmax(direct))
            out.append((float(direct[pick]), near[k][pick]))
        return out

    def value(self, items: list[int], words: list[tuple]) -> list[float]:
        """|F| of one word per item, contracted on the tensor or sent: scalar ``abs`` of each."""
        return [float(abs(complex(row[0]))) for row in self.values(items, [[w] for w in words])]


def _search_words(
    n: int, dim: int, search_budget: int, omega: SiteState | None, seed: int
) -> tuple[list, tuple, list]:
    """The ascent probe, the head directions and the seeded random words.

    Plain searches use the whole Hermitian basis as the probe, centered
    ones its centered traceless part. The head is every n-tuple of the
    unit-norm basis elements and pairwise sums (of the first three,
    when there are more than BASIS_PRODUCT_CAP tuples), centered and
    renormalized in a centered search.
    """
    check_search_draws(search_budget, n)
    dirs = _combo_directions(dim)
    if omega is None:
        probe = hermitian_basis(dim)
    else:
        mats = np.array([a.mat for a in dirs[1:]]).reshape(-1, dim, dim)
        units, keep = _centered_units(mats, omega)
        dirs = tuple(SiteOperator(m) for m in units[keep])
        probe = [center(h, omega) for h in hermitian_basis(dim)[1:]]
    if len(dirs) ** n > BASIS_PRODUCT_CAP:
        dirs = dirs[:3] if len(dirs[:3]) ** n <= BASIS_PRODUCT_CAP else ()

    # an empty centered probe means d = 1: every operator centers to 0,
    # so no centered word exists and redrawing would never end
    count = (search_budget if probe else 0) * n
    rng = np.random.default_rng(seed)
    draws = random_hermitian_units(rng, dim, count)
    if omega is not None:
        units, keep = _centered_units(draws, omega)
        draws = list(units[keep])
        # a refused draw takes the next one; the batch is the head of the
        # stream, so the words equal those of one draw per operator
        while len(draws) < count:
            units, keep = _centered_units(random_hermitian_units(rng, dim, 1), omega)
            draws.extend(units[keep])
    ops = [SiteOperator(m) for m in draws]
    rand_words = [tuple(ops[k : k + n]) for k in range(0, count, n)]
    return probe, dirs, rand_words


def _stack_chunk_items(search_budget: int, n: int, dirs: tuple) -> int:
    """Items per stack chunk: as many as fit in SEARCH_DRAW_GUARD candidate
    words (each item's random draws and head words), at least one, so a
    chunk holds no more than the largest single search inside the guard."""
    return max(1, SEARCH_DRAW_GUARD // max(1, search_budget * n + len(dirs) ** n))


def _search(
    functional,
    n: int,
    dim: int,
    search_budget: int,
    omega: SiteState | None,
    seed: int,
) -> SeminormEstimate:
    """One seminorm search: ``_search_stack`` on a stack of one.

    An array ``np.abs`` and a scalar ``abs()`` of one complex value can
    differ in the last bit, so each |F| has one fixed form: ``np.abs``
    on arrays when ranking words and near-ties, scalar ``abs`` on each
    ascent value and on the final witness. A stack keeps these forms,
    which is what makes its items equal to their searches alone.
    """
    return _search_stack([functional], n, dim, search_budget, omega, [seed])[0]


def _search_stack(
    functionals: Sequence,
    n: int,
    dim: int,
    search_budget: int,
    omega: SiteState | None,
    seeds: Sequence[int],
    sizes: Sequence[int] | None = None,
) -> list[SeminormEstimate]:
    """Seminorm searches that share n, dim, search_budget and centering.

    Item k searches ``functionals[k]`` with ``seeds[k]`` and equals the
    search of that item alone bit for bit, evaluations included. The
    items share the probe, the head directions and the tensor/direct
    switch; items of one seed share one ``_search_words`` draw. The head
    ranking, the random word ranking and every ascent step run once over
    a chunk of items (``_stack_chunk_items``) as batched contractions,
    one ``eigh`` and one 2-norm. Every word a chunk evaluates (the basis
    tensor, near-tie words, the direct side's candidates and the final
    witnesses) goes through ``_Candidates.send``. With ``sizes``, the
    items are one functional on a region, item k read at the ascending
    prefix length ``sizes[k]``, and items that send equal lists share
    one size table. Every |F| takes the form ``_search`` states.
    """
    functionals = list(functionals)
    if not functionals:
        return []
    if n == 0:
        return [SeminormEstimate(abs(complex(f(()))), (), 1) for f in functionals]
    probe, dirs, rand_words = _search_words(n, dim, search_budget, omega, seeds[0])
    # the basis tensor pays off when it has no more words than the direct
    # search would send (the ascent sends 2 n (|probe| + 1)): timed on
    # Markov chains, the tensor won just below this switch (centered d=2,
    # n=5 and 6) and direct won just above it (centered d=3, n=3 and 4;
    # plain d=2, n=5 and 6)
    direct_words = len(dirs) ** n + len(rand_words) + 2 * n * (len(probe) + 1)
    tensor_probe = probe if len(probe) ** n <= direct_words else None
    per_chunk = _stack_chunk_items(search_budget, n, dirs)
    # the first chunk holds item 0, so the first draw is released after it
    pending = {seeds[0]: rand_words}
    del rand_words
    out: list[SeminormEstimate] = []
    for start in range(0, len(functionals), per_chunk):
        chunk = slice(start, start + per_chunk)
        drawn, pending = pending, {}
        for seed in seeds[chunk]:
            if seed not in drawn:
                drawn[seed] = _search_words(n, dim, search_budget, omega, seed)[2]
        chunk_sizes = None if sizes is None else sizes[chunk]
        cands = _Candidates(functionals[chunk], n, tensor_probe, omega is not None, chunk_sizes)
        out += _search_chunk(cands, n, probe, dirs, [drawn[seed] for seed in seeds[chunk]])
    return out


def _search_chunk(
    cands: _Candidates, n: int, probe: list, dirs: tuple, rand_words: list[list]
) -> list[SeminormEstimate]:
    """Rank, ascend and certify every item of ``cands``; ``rand_words[k]`` are item k's."""
    count = len(cands.functionals)
    best = [(-1.0, ())] * count
    if dirs:
        shape = (len(dirs),) * n

        def head_word(k: int, i: int) -> tuple:
            return tuple(dirs[j] for j in np.unravel_index(i, shape))

        best = cands.argmax(cands.head(dirs, n), head_word, [-1.0] * count)
    if rand_words[0]:
        values = cands.values(range(count), rand_words)
        found = cands.argmax(values, lambda k, i: rand_words[k][i], [v for v, _ in best])
        best = [new if new[0] > old[0] else old for new, old in zip(found, best)]

    # coordinate ascent (the higher-order power method): each slot is a
    # linear direction, so probe the basis, take the top eigenvector of
    # the quadratic response, and keep the renormalized candidate only
    # if its value improves. On the tensor, trials and candidates are
    # contractions, and the word they end at is sent once
    live = [k for k in range(count) if best[k][1]]
    vals = {k: best[k][0] for k in live}
    word = {k: list(best[k][1]) for k in live}
    for _pass in range(2 if live else 0):
        for slot in range(n):
            trials = [
                [tuple(word[k][:slot]) + (h,) + tuple(word[k][slot + 1 :]) for h in probe]
                for k in live
            ]
            resp = cands.values(live, trials)
            re, im = resp.real, resp.imag
            m = re[:, :, None] * re[:, None, :] + im[:, :, None] * im[:, None, :]
            vecs = np.linalg.eigh(m)[1][:, :, -1]
            cand_mats = 0
            for j, h in enumerate(probe):
                cand_mats = cand_mats + vecs[:, j, None, None] * h.mat
            # never zero: a unit combination of the Hilbert-Schmidt orthogonal probe (squared
            # norms >= 1; centering adds d w w^T to the Gram matrix) has HS norm >= 1
            nrms = np.linalg.norm(cand_mats, 2, axis=(-2, -1)).tolist()
            ops = [SiteOperator(mat / nrm) for mat, nrm in zip(cand_mats, nrms)]
            cand_words = [
                tuple(word[k][:slot]) + (op,) + tuple(word[k][slot + 1 :])
                for k, op in zip(live, ops)
            ]
            for k, op, val in zip(live, ops, cands.value(live, cand_words)):
                if val > vals[k] + 1e-15:
                    vals[k] = val
                    word[k][slot] = op

    # the reported value is a direct evaluation of the reported word;
    # should rounding have ranked a worse word higher, keep the start
    tensor = cands.tensors is not None
    finals = {k: [tuple(word[k])] for k in live if tensor and tuple(word[k]) != best[k][1]}
    rows = cands.send(finals)
    out = []
    for k in range(count):
        start_val, start_word = best[k]
        if not start_word:
            out.append(SeminormEstimate(0.0, (), cands.evaluations[k]))
            continue
        witness = tuple(word[k])
        val = vals[k]
        if k in finals:
            val = float(abs(complex(rows[k][0])))
            if val < start_val:
                out.append(SeminormEstimate(start_val, start_word, cands.evaluations[k]))
                continue
        out.append(SeminormEstimate(val, witness, cands.evaluations[k]))
    return out


def _search_table(
    state: GlobalState,
    region: Region,
    n: int,
    omegas: Sequence[SiteState],
    sizes: Sequence[int],
    search_budget: int,
    seed: int,
) -> list[SeminormEstimate]:
    """The centered search on the first k sorted sites of region, per k.

    Row i equals ``seminorm_nu_omega_estimate`` on those sites against
    ``omegas[i]`` bit for bit, evaluations included. Each run of sizes
    whose omegas are bit-equal is one stack of the one functional on
    region, read at the run's sizes, on one draw of the search words.
    Its sizes share each word list they have in common (the basis
    tensor; on the direct side the head and random words; near-tie
    words and witnesses that coincide) as one size table, one Markov
    sweep or one product pass; different lists are sent apart.
    """
    functional = InducedMomentFunctional(state, region)
    out: list[SeminormEstimate] = []
    runs = itertools.groupby(zip(sizes, omegas), key=lambda row: row[1].rho.tobytes())
    for _, run in runs:
        group, group_omegas = zip(*run)
        stack, seeds, dim = [functional] * len(group), [seed] * len(group), state.site_dim
        out += _search_stack(stack, n, dim, search_budget, group_omegas[0], seeds, list(group))
    return out


def seminorm_nu_estimate(
    functional,
    n: int,
    search_budget: int = 64,
    seed: int = 0,
) -> SeminormEstimate:
    """Lower bound on sup |F(a_1 (x) ... (x) a_n)| over unit-norm tuples.

    ``functional`` must be linear in each slot: the search ranks
    candidates by contracting its values on basis words. Its ``dim``
    attribute is the local dimension of the search. The reported value
    is a direct evaluation of the witness either way.
    """
    return _search(functional, n, functional.dim, search_budget, None, seed)


def seminorm_nu_omega_estimate(
    functional,
    n: int,
    omega: SiteState,
    search_budget: int = 64,
    seed: int = 0,
) -> SeminormEstimate:
    """Same search restricted to directions centered against omega.

    ``functional`` must be linear in each slot and carry the local
    dimension as ``dim``, as for ``seminorm_nu_estimate``.
    """
    return _search(functional, n, functional.dim, search_budget, omega, seed)


@dataclass
class SeminormComparisonCheck:
    nu_omega: float
    nu: float
    rhs: float
    passed: bool


def check_comparison_table(degrees: Sequence[int], search_budget: int) -> None:
    """Refuse a seminorm comparison above COMPARISON_MAX_DEGREE or over the search draw guard."""
    for n in degrees:
        if n > COMPARISON_MAX_DEGREE:
            raise CostGuardError(
                "seminorm comparison degree", f"degree {n} exceeds {COMPARISON_MAX_DEGREE}"
            )
        check_search_draws(search_budget, n)


def seminorm_comparison_table(
    functional,
    degrees: Sequence[int],
    omega: SiteState,
    search_budget: int = 16,
    seed: int = 0,
) -> list[SeminormComparisonCheck]:
    """``seminorm_comparison_check`` per degree, on one functional.

    Every degree passes the degree guard (at most 6) and the search
    draw guard before any search. nu_n is searched once per degree
    (seed), and each centered nu_k^omega once for k = 0..max(degrees)
    (seed + k + 1, the same for every n), shared by every row.
    """
    degrees = list(degrees)
    check_comparison_table(degrees, search_budget)
    nus = [
        seminorm_nu_estimate(functional, n, search_budget=search_budget, seed=seed)
        for n in degrees
    ]
    parts = [
        seminorm_nu_omega_estimate(
            functional, k, omega, search_budget=search_budget, seed=seed + k + 1
        ).value
        for k in range(max(degrees, default=-1) + 1)
    ]
    out = []
    for n, nu in zip(degrees, nus):
        rhs = sum(math.comb(n, k) * 2.0**k * parts[k] for k in range(n + 1))
        passed = parts[n] <= nu.value + NU_OMEGA_SLACK and nu.value <= rhs + NU_SUM_SLACK
        out.append(
            SeminormComparisonCheck(nu_omega=parts[n], nu=nu.value, rhs=rhs, passed=passed)
        )
    return out


def seminorm_comparison_check(
    functional,
    n: int,
    omega: SiteState,
    search_budget: int = 16,
    seed: int = 0,
) -> SeminormComparisonCheck:
    """Estimated chain nu_n^omega <= nu_n <= sum_k C(n,k) 2^k nu_k^omega.

    All three quantities are lower-bound estimates, so the first
    inequality is checked up to rounding (NU_OMEGA_SLACK) and the second
    with a small additive slack (NU_SUM_SLACK); a genuine violation of
    the second indicates the centered estimates missed mass that the
    plain search found. This is ``seminorm_comparison_table`` at the
    one degree.
    """
    return seminorm_comparison_table(functional, [n], omega, search_budget, seed)[0]
