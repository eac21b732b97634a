"""Global lattice states and correlation queries.

Three state families, sharing one query interface:

* ProductState: one density matrix repeated over every site.
* CircuitState: a product base on a finite chain segment, evolved by a
  brickwork of two-site unitary layers with open boundaries, as one
  statevector; a mixed base is purified with an ancilla per site.
* MarkovState: a classical stationary Markov chain on the integer line;
  operators act through their diagonals in the chain basis.

An expectation query takes a map from sites to single-site operators and
returns the expectation of the corresponding tensor product. Each family
implements only ``expect_rows``, which answers a grid of such queries at
once: S rows, each naming its sites as positions in one list of sites,
by P cells, each placing its own operators on its row's sites.
``expect`` is a grid of one row and one cell.
Truncated pair correlations are exposed through ``correlator`` with the
distance reweighting e^{+d} applied, and ``estimate_G0`` reports a
certified lower bound on the decay constant sup over separated pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .algebra import SiteOperator, SiteState, _unit_basis, pure_state
from .errors import CostGuardError, json_int, json_number
from .lattice import Metric, Region, chain_metric, metric_from_json, region_distance

STATEVEC_MAX_DIM = 2**14
DENSITY_MAX_DIM = 2**20  # squared Hilbert space dimension
# cached Markov transition powers T^0..T^9999: every gap of a region of up to
# cli.REGION_SIZE_GUARD = 10^4 chain sites, 3.2 MB at d = MAX_LOCAL_DIM = 4 with the
# array headers; the cap keeps a library region with one huge gap from holding every
# power below it
POWER_CACHE_SIZE = 10**4

UNITARY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12
STATIONARY_TOL = 1e-10
HOMOGENEITY_TOL = 1e-10
G0_MAX_REGION_SIZE = 2
G0_MAX_SEPARATION = 8


class Assignment:
    """One single-site operator per site of a region."""

    __slots__ = ("support", "ops")

    def __init__(self, support: Region, ops: Dict):
        ops = dict(ops)
        if set(ops.keys()) != set(support.sites):
            raise ValueError("assignment keys must equal the support sites")
        dims = {op.dim for op in ops.values()}
        if len(dims) != 1:
            raise ValueError("assignment operators must share one dimension")
        self.support = support
        self.ops = ops


@dataclass
class CorrelatorValue:
    value: complex
    x_sites: tuple
    y_sites: tuple
    distance: float


@dataclass
class G0Estimate:
    value: float
    samples: int


class GlobalState:
    """Interface shared by the concrete state families."""

    site_dim: int
    metric: Metric

    def expect(self, ops: Dict) -> complex:
        """Expectation of one tensor product: a grid of one row and one cell."""
        sites = list(ops)
        self._check_query(sites, [op.dim for op in ops.values()])
        d = self.site_dim
        mats = np.reshape([op.mat for op in ops.values()], (1, 1, len(sites), d, d))
        return complex(self.expect_rows(sites, np.arange(len(sites))[None], mats)[0, 0])

    def expect_rows(self, sites: Sequence, index, mats) -> np.ndarray:
        """Expectations of an (S, P) grid of tensor products.

        Row s of the integer array ``index``, of shape (S, w), names its w
        sites as positions in ``sites``. ``mats`` has shape (S, P, w, d, d),
        or (1, P, w, d, d) for one stack that every row shares: cell (s, p)
        assigns mats[s, p, j] to sites[index[s, j]]. Rows may differ in
        their sites and their order.
        """
        raise NotImplementedError

    def contains_site(self, x) -> bool:
        try:
            self.metric.check_site(x)
        except ValueError:
            return False
        return True

    def single_site_restriction(self) -> SiteState:
        raise NotImplementedError

    def _check_query(self, sites, dims) -> None:
        for x, dim in zip(sites, dims):
            if not self.contains_site(x):
                raise ValueError(f"site {x!r} outside the state's domain")
            if dim != self.site_dim:
                raise ValueError(
                    f"operator dimension {dim} does not match site dimension {self.site_dim}"
                )

    def _check_grid(self, sites: Sequence, index, mats) -> tuple:
        """The sites the rows use, ``index`` into them, and ``mats`` as a complex array.

        Each used site is checked once, as a query; a row's sites must be
        distinct, which is checked on the index array.
        """
        index = np.asarray(index)
        mats = np.asarray(mats, dtype=complex)
        count, width = index.shape if index.ndim == 2 else (-1, -1)
        if (
            index.dtype.kind not in "iu"
            or mats.ndim != 5
            or mats.shape[0] not in (1, count)
            or mats.shape[2:] != (width, mats.shape[-1], mats.shape[-1])
        ):
            raise ValueError(
                f"operator stack of shape {mats.shape} does not fit index rows of shape {index.shape}"
            )
        if not width:
            raise ValueError("expectation query needs at least one site")
        used, index = np.unique(index, return_inverse=True)
        if used.size and (used[0] < 0 or used[-1] >= len(sites)):
            raise ValueError(f"index rows name positions outside the {len(sites)} sites")
        sites = [sites[i] for i in used.tolist()]
        self._check_query(sites, [mats.shape[-1]] * len(sites))
        index = index.reshape(count, width)
        ordered = np.sort(index, axis=1)
        if len(set(sites)) != len(sites) or (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("expectation sites must be distinct")
        return sites, index, mats


class _HomogeneousState(GlobalState):
    """A state whose every site restricts to the one SiteState ``site``."""

    site: SiteState

    def single_site_restriction(self) -> SiteState:
        return self.site

    def averaged_restriction(self, region: Region) -> SiteState:
        """``site`` itself, after the domain check: the average of equal states.

        The generic ``sum / len`` would move it in the last bit, and a size
        table shares one search per bit-equal restriction.
        """
        for x in region.sites:
            self.metric.check_site(x)
        return self.site


class ProductState(_HomogeneousState):
    """The same single-site density matrix at every site of the metric."""

    def __init__(self, site: SiteState, metric: Metric | None = None):
        self.site = site
        self.site_dim = site.dim
        self.metric = metric if metric is not None else chain_metric(1.0)

    def expect_rows(self, sites: Sequence, index, mats) -> np.ndarray:
        """Per cell, the product of its site traces in the metric's site order.

        Each product is taken as real float operations, the ones Python's
        complex multiplication rounds: numpy's vectorized complex multiply
        can differ from it in the last bit.
        """
        sites, index, mats = self._check_grid(sites, index, mats)
        key = self.metric.site_key
        rank = np.empty(len(sites), dtype=np.intp)
        rank[sorted(range(len(sites)), key=lambda i: key(sites[i]))] = np.arange(len(sites))
        traces = np.trace(self.site.rho @ mats, axis1=-2, axis2=-1)
        traces = np.broadcast_to(traces, (len(index),) + traces.shape[1:])
        traces = np.take_along_axis(traces, np.argsort(rank[index])[:, None], axis=2)
        real, imag = np.ones(traces.shape[:2]), np.zeros(traces.shape[:2])
        for t in np.moveaxis(traces, 2, 0):
            real, imag = real * t.real - imag * t.imag, real * t.imag + imag * t.real
        out = np.empty(traces.shape[:2], dtype=complex)
        out.real, out.imag = real, imag
        return out


class MarkovState(_HomogeneousState):
    """Stationary classical Markov chain on the integer line.

    ``transition`` is column stochastic: transition[i, j] is the
    probability of moving to configuration i from configuration j one
    step to the right. The stationary vector is either supplied or
    computed, and T pi = pi is checked either way. The mixing condition
    |lambda_2| <= e^{-alpha} ties the chain's correlation length to the
    metric scale alpha, and quantum operators act through their diagonal
    entries in the configuration basis.
    """

    def __init__(self, transition, alpha: float, pi=None):
        T = np.asarray(transition, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("transition matrix must be square")
        d = T.shape[0]
        if not (np.min(T) >= -STOCHASTIC_TOL):
            raise ValueError("transition matrix has negative entries")
        colsums = T.sum(axis=0)
        if not (np.max(np.abs(colsums - 1.0)) <= STOCHASTIC_TOL):
            raise ValueError("transition matrix columns must sum to 1")
        if not (alpha > 0.0):
            raise ValueError("alpha must be positive")
        if pi is None:
            eigvals, eigvecs = np.linalg.eig(T)
            idx = int(np.argmin(np.abs(eigvals - 1.0)))
            v = np.real(eigvecs[:, idx])
            if v.sum() < 0:
                v = -v
            if np.min(v) < -1e-10:
                raise ValueError("stationary vector has negative entries")
            pi = np.clip(v, 0.0, None)
            pi = pi / pi.sum()
        else:
            pi = np.asarray(pi, dtype=float)
            if pi.shape != (d,):
                raise ValueError("stationary vector shape mismatch")
            if not (np.min(pi) >= 0.0 and abs(pi.sum() - 1.0) <= STOCHASTIC_TOL):
                raise ValueError("stationary vector must be a distribution")
        if not (np.max(np.abs(T @ pi - pi)) <= STATIONARY_TOL):
            raise ValueError("supplied vector is not stationary for T")
        lams = np.sort(np.abs(np.linalg.eigvals(T)))[::-1]
        self.second_eigenvalue = float(lams[1]) if d > 1 else 0.0
        if self.second_eigenvalue > np.exp(-alpha) + 1e-10:
            raise ValueError(
                f"second eigenvalue {self.second_eigenvalue:.6f} exceeds e^-alpha"
            )
        self.transition = T
        self.pi = pi
        self.site_dim = d
        self.metric = chain_metric(alpha)
        self._powers = {0: np.eye(d), 1: T.copy()}
        self.site = SiteState(np.diag(pi))

    def transition_power(self, g: int) -> np.ndarray:
        """T^g, stepped up as T @ T^(k-1) from the largest cached power.

        The cache holds the contiguous run of powers 0..k below
        POWER_CACHE_SIZE; a larger gap is stepped from the top of the cache.
        """
        if g < 0:
            raise ValueError("gap must be nonnegative")
        top = min(g, len(self._powers) - 1)
        power = self._powers[top]
        for k in range(top + 1, g + 1):
            power = self.transition @ power
            if k < POWER_CACHE_SIZE:
                self._powers[k] = power
        return power

    def expect_rows(self, sites: Sequence, index, mats) -> np.ndarray:
        """One transfer sweep over the grid, each row along its own sorted sites.

        Row s steps from one of its sites to the next by the gap's power,
        gathered from a stack of T^g over the distinct gaps only, and every
        cell of the row takes the step as (G[:, None] @ v[..., None])[..., 0],
        which is bit-identical to the one-vector T^g @ v; T^g @ V.T is not.
        """
        sites, index, mats = self._check_grid(sites, index, mats)
        count, width = index.shape
        d, cells = self.site_dim, mats.shape[1]
        points = np.array(sites, dtype=np.int64)[index]
        order = np.argsort(points, axis=1)
        gaps = np.diff(np.sort(points, axis=1), axis=1)
        distinct, step = np.unique(gaps, return_inverse=True)
        powers = np.array([self.transition_power(g) for g in distinct.tolist()]).reshape(-1, d, d)
        step = step.reshape(gaps.shape)
        diagonals = np.broadcast_to(
            np.diagonal(mats, axis1=-2, axis2=-1), (count, cells, width, d)
        )
        every = np.arange(count)
        v = np.broadcast_to(self.pi.astype(complex), (count, cells, d))
        for j in range(width):
            if j:
                v = (powers[step[:, j - 1]][:, None] @ v[..., None])[..., 0]
            v = diagonals[every, :, order[:, j]] * v
        return v.sum(axis=-1)


def _moved(tensor: np.ndarray, x: int, k: int) -> np.ndarray:
    """The (left, k, right) view of a C-contiguous tensor at axis x, as a
    contiguous (k, left, right) copy: the copy ``np.tensordot`` makes.

    left is the product of the sizes before axis x; k covers one site, or
    two for a gate.
    """
    left = math.prod(tensor.shape[:x])
    return np.ascontiguousarray(tensor.reshape(left, k, -1).transpose(1, 0, 2))


def _contract(tensor: np.ndarray, mat: np.ndarray, x: int) -> np.ndarray:
    """``mat`` applied at axis x, as (k, left, right): the one ``np.dot`` of
    ``np.tensordot``, so every entry keeps its bits."""
    moved = _moved(tensor, x, mat.shape[1])
    k, left, _ = moved.shape
    return np.dot(mat, moved.reshape(k, -1)).reshape(mat.shape[0], left, -1)


def _apply_site(tensor: np.ndarray, mat: np.ndarray, x: int) -> np.ndarray:
    """Apply a matrix at axis x of a C-contiguous tensor; the result is C-contiguous."""
    out = _contract(tensor, np.asarray(mat), x)
    return np.ascontiguousarray(out.transpose(1, 0, 2)).reshape(tensor.shape)


def _power_exceeds(d: int, exponent: int, limit: int) -> bool:
    """d**exponent > limit, unbuilt: from limit's bit length on, any d >= 2 exceeds it."""
    return d > 1 and (exponent >= limit.bit_length() or d**exponent > limit)


class CircuitState(GlobalState):
    """Brickwork circuit on a chain segment of given length, open ends.

    Each layer is (offset, gate): the d^2 x d^2 unitary acts on every
    neighbor pair (i, i+1) with i matching the offset parity. The state
    is evolved once at construction and cached as one statevector. A
    mixed base is purified first, to sum_k F|k> |k> with an ancilla per
    site, where F F^dagger = rho (the Cholesky factor of a positive
    definite base, else sqrt(p_k) |k> from its eigenvectors), and the
    gates act on the system axes only; every expectation is then
    <psi|A|psi>. Correlations vanish
    identically beyond graph distance 2 * depth, since disjoint light
    cones factorize.
    """

    def __init__(
        self,
        base: SiteState,
        length: int,
        layers: Sequence[tuple],
        scale: float = 1.0,
    ):
        if length < 1:
            raise ValueError("segment length must be positive")
        d = base.dim
        self.length = length
        self.site_dim = d
        self.metric = chain_metric(scale)
        self.layers = []
        for offset, gate in layers:
            if offset not in (0, 1):
                raise ValueError("layer offset must be 0 or 1")
            # contiguous, as the (d^2, d^2) matrix np.tensordot would dot
            g = np.ascontiguousarray(gate, dtype=complex)
            if g.shape != (d * d, d * d):
                raise ValueError("gate must be a d^2 x d^2 matrix")
            if not (np.max(np.abs(g @ g.conj().T - np.eye(d * d))) <= UNITARY_TOL):
                raise ValueError("gate is not unitary within tolerance")
            self.layers.append((int(offset), g))

        probs, vecs = np.linalg.eigh(base.rho)
        pure = bool(probs[-1] > 1.0 - 1e-12)
        if pure:
            if _power_exceeds(d, length, STATEVEC_MAX_DIM):
                raise CostGuardError(
                    "circuit statevector size",
                    f"d^L = {d}^{length} exceeds {STATEVEC_MAX_DIM}",
                )
            start = vecs[:, -1]
        else:
            if _power_exceeds(d, 2 * length, DENSITY_MAX_DIM):
                raise CostGuardError(
                    "circuit density-matrix size",
                    f"d^2L = {d}^{2 * length} exceeds {DENSITY_MAX_DIM}",
                )
            # purification: column k of a factor F with F F^dagger = rho, its
            # ancilla index k. A positive definite rho takes its Cholesky
            # factor, whose reconstruction error is below eigh's; a rank-
            # deficient one takes sqrt(p_k) |k>. SiteState admits eigenvalues
            # down to -1e-12; clipped alone they would lift the norm by up to
            # L * 1e-12, past the trace check
            if probs[0] > 1e-12:
                start = np.linalg.cholesky(base.rho) / np.sqrt(np.trace(base.rho).real)
            else:
                p = np.clip(probs, 0.0, None)
                start = vecs * np.sqrt(p / p.sum())
        tensor = start.copy()
        for _ in range(length - 1):
            tensor = np.kron(tensor, start)
        tensor = tensor.reshape((d,) * length + tensor.shape[1:])
        for offset, g in self.layers:
            for i in range(offset, length - 1, 2):
                tensor = _apply_site(tensor, g, i)
        # L system axes; a mixed base adds one axis for all the ancillas
        self.tensor = tensor
        self._restrictions = {}

    def contains_site(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.length

    def close(self, phi: np.ndarray) -> complex:
        """omega(A) from phi = A applied to ``tensor``: <psi|phi>."""
        return complex(np.vdot(self.tensor.reshape(-1), phi.reshape(-1)))

    def expect_rows(self, sites: Sequence, index, mats) -> np.ndarray:
        """Per cell, its site operators applied to ``tensor`` in the row's order."""
        sites, index, mats = self._check_grid(sites, index, mats)
        mats = np.broadcast_to(mats, (len(index),) + mats.shape[1:])
        out = np.empty(mats.shape[:2], dtype=complex)
        for s, row in enumerate(index.tolist()):
            for p, cell in enumerate(mats[s]):
                phi = self.tensor
                for x, a in zip(row, cell):
                    phi = _apply_site(phi, a, sites[x])
                out[s, p] = self.close(phi)
        return out

    def site_restriction(self, x) -> SiteState:
        """The reduced state at site x, computed once per state; its rho is read-only."""
        if not self.contains_site(x):
            raise ValueError(f"site {x!r} outside circuit segment")
        site = self._restrictions.get(x)
        if site is None:
            p = _moved(self.tensor, x, self.site_dim).reshape(self.site_dim, -1)
            site = SiteState(p @ p.conj().T)
            site.rho.flags.writeable = False
            self._restrictions[x] = site
        return site

    def averaged_restriction(self, region: Region) -> SiteState:
        mats = [self.site_restriction(x).rho for x in region.sites]
        return SiteState(sum(mats) / len(mats))

    def single_site_restriction(self) -> SiteState:
        whole = Region(self.metric, range(self.length))
        avg = self.averaged_restriction(whole)
        dev = max(float(np.abs(self.site_restriction(x).rho - avg.rho).max()) for x in whole.sites)
        if not (dev <= HOMOGENEITY_TOL):
            raise ValueError(
                f"circuit restrictions vary across sites (deviation {dev:.3e})"
            )
        return avg


def expect_global(state: GlobalState, assignment: Assignment) -> complex:
    """Expectation of the tensor product an assignment places on its support."""
    return state.expect(assignment.ops)


def correlator(state: GlobalState, x_asg: Assignment, y_asg: Assignment) -> CorrelatorValue:
    """Distance-reweighted truncated correlation of two disjoint regions.

    Returns (omega(AB) - omega(A) omega(B)) e^{+d(X, Y)} together with
    the regions and their distance.
    """
    if x_asg.support.metric != y_asg.support.metric:
        raise ValueError("correlator regions must share one metric")
    if x_asg.support.metric != state.metric:
        raise ValueError("correlator regions must use the state's metric")
    xs = set(x_asg.support.sites)
    ys = set(y_asg.support.sites)
    if xs & ys:
        raise ValueError("correlator regions must be disjoint")
    d = region_distance(x_asg.support, y_asg.support)
    joint = dict(x_asg.ops)
    joint.update(y_asg.ops)
    e_ab = state.expect(joint)
    e_a = state.expect(x_asg.ops)
    e_b = state.expect(y_asg.ops)
    return CorrelatorValue(
        value=(e_ab - e_a * e_b) * float(np.exp(d)),
        x_sites=tuple(x_asg.support.sites),
        y_sites=tuple(y_asg.support.sites),
        distance=d,
    )


def estimate_G0(state: GlobalState, sample_budget: int = 200, seed: int = 0) -> G0Estimate:
    """Certified lower bound on the truncated-correlation decay constant.

    Sweeps single-site Hermitian basis directions over a deterministic
    grid of separations, then spends the sample budget on random
    regions and random Hermitian unit-norm operators. Every candidate is
    an exact correlator evaluation divided by the operator norms, so the
    reported value is a true lower bound on the supremum.
    """
    if sample_budget < 0:
        raise ValueError("estimate_G0 sample_budget must be nonnegative")
    dirs = _unit_basis(state.site_dim)[1:]
    best = 0.0
    count = 0
    metric = state.metric

    def domain_ok(sites) -> bool:
        return all(state.contains_site(int(s)) for s in sites)

    def keep(ops_x: dict, ops_y: dict) -> None:
        nonlocal best, count
        c = correlator(
            state,
            Assignment(Region(metric, ops_x), ops_x),
            Assignment(Region(metric, ops_y), ops_y),
        )
        count += 1
        best = max(best, abs(c.value))

    for m in range(1, G0_MAX_SEPARATION + 1):
        if not domain_ok([0, m]):
            break
        for a in dirs:
            for b in dirs:
                keep({0: a}, {m: b})

    rng = np.random.default_rng(seed)
    for _ in range(sample_budget):
        kx = int(rng.integers(1, G0_MAX_REGION_SIZE + 1))
        ky = int(rng.integers(1, G0_MAX_REGION_SIZE + 1))
        gap = int(rng.integers(1, G0_MAX_SEPARATION + 1))
        xs = list(range(0, kx))
        ys = list(range(kx - 1 + gap, kx - 1 + gap + ky))
        if domain_ok(xs + ys):
            keep(
                {s: random_hermitian_unit(rng, state.site_dim) for s in xs},
                {s: random_hermitian_unit(rng, state.site_dim) for s in ys},
            )
    return G0Estimate(value=best, samples=count)


def random_hermitian_units(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` random Hermitian matrices of unit operator norm, shape (count, d, d).

    One normal draw of shape (count, 2, d, d) holds the real and the
    imaginary part of each raw matrix in turn, so the stream and the
    matrices equal ``count`` draws of one; a zero matrix becomes I.
    """
    raw = rng.normal(size=(count, 2, dim, dim))
    raw = raw[:, 0] + 1j * raw[:, 1]
    h = 0.5 * (raw + np.conj(np.swapaxes(raw, -1, -2)))
    nrm = np.linalg.norm(h, 2, axis=(-2, -1))
    zero = nrm == 0.0
    out = h / np.where(zero, 1.0, nrm)[:, None, None]
    out[zero] = np.eye(dim)
    return out


def random_hermitian_unit(rng: np.random.Generator, dim: int) -> SiteOperator:
    """Random Hermitian operator with unit operator norm."""
    return SiteOperator(random_hermitian_units(rng, dim, 1)[0])


def random_density(rng: np.random.Generator, dim: int) -> SiteState:
    """Random full-rank density matrix."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T + 1e-6 * np.eye(dim)
    return SiteState(rho / np.trace(rho))


def _parse_complex_entry(v) -> complex:
    """A number, or an [re, im] pair of numbers."""
    what = "a matrix or ket entry"
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(json_number(what, v[0]), json_number(what, v[1]))
    return complex(json_number(what, v), 0.0)


def parse_matrix(doc) -> np.ndarray:
    return np.array([[_parse_complex_entry(v) for v in row] for row in doc])


def state_from_json(doc: dict) -> GlobalState:
    """Build a state from a JSON-style dictionary.

    Matrix entries are numbers or [re, im] pairs. Kinds:

    * {"kind": "product", "rho": [[...]], "metric": {...}?}
    * {"kind": "markov", "T": [[...]], "alpha": 0.4, "pi": [...]?}
    * {"kind": "circuit", "base": [[...]] | {"ket": [...]},
       "length": 8, "layers": [{"offset": 0, "gate": [[...]]}],
       "scale": 1.0?}
    """
    if not isinstance(doc, dict):
        raise ValueError(f"state spec must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "product":
        metric = metric_from_json(doc["metric"]) if "metric" in doc else None
        return ProductState(SiteState(parse_matrix(doc["rho"])), metric)
    if kind == "markov":
        T = np.array([[json_number("a 'T' entry", v) for v in row] for row in doc["T"]])
        pi = doc.get("pi")
        if pi is not None:
            pi = [json_number("a 'pi' entry", v) for v in pi]
        return MarkovState(T, json_number("'alpha'", doc["alpha"]), pi)
    if kind == "circuit":
        base_doc = doc["base"]
        if isinstance(base_doc, dict) and "ket" in base_doc:
            base = pure_state([_parse_complex_entry(v) for v in base_doc["ket"]])
        else:
            base = SiteState(parse_matrix(base_doc))
        layers = [
            (json_int("offset", layer["offset"]), parse_matrix(layer["gate"]))
            for layer in doc.get("layers", [])
        ]
        return CircuitState(
            base,
            json_int("length", doc["length"]),
            layers,
            json_number("'scale'", doc.get("scale", 1.0)),
        )
    raise ValueError(f"unknown state kind {kind!r}")
