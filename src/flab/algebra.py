"""Single-site operator algebra.

Dense complex matrices on one site of a spin lattice, plus the primitives
everything downstream is built from:

* an operator wrapper with adjoint, products and operator norm
* density matrices validated at construction time
* expectation, centering against a state, commutators
* a Hilbert-Schmidt orthogonal Hermitian basis used by covariance forms
  and by the seminorm searches

Only small local dimensions are supported (d <= 4); everything is dense.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_LOCAL_DIM = 4

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-12


def _as_matrix(data) -> np.ndarray:
    mat = np.asarray(data, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1 or mat.shape[0] > MAX_LOCAL_DIM:
        raise ValueError(
            f"local dimension {mat.shape[0]} outside supported range 1..{MAX_LOCAL_DIM}"
        )
    return mat


class SiteOperator:
    """A dense operator on one site."""

    __slots__ = ("mat",)

    def __init__(self, data):
        self.mat = _as_matrix(data)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def adjoint(self) -> "SiteOperator":
        return SiteOperator(self.mat.conj().T)

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= HERMITIAN_TOL)

    def __add__(self, other: "SiteOperator") -> "SiteOperator":
        return SiteOperator(self.mat + other.mat)

    def __sub__(self, other: "SiteOperator") -> "SiteOperator":
        return SiteOperator(self.mat - other.mat)

    def __neg__(self) -> "SiteOperator":
        return SiteOperator(-self.mat)

    def __mul__(self, scalar) -> "SiteOperator":
        return SiteOperator(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "SiteOperator") -> "SiteOperator":
        return SiteOperator(self.mat @ other.mat)

    def __repr__(self) -> str:
        return f"SiteOperator(dim={self.dim})"


def identity(dim: int) -> SiteOperator:
    return SiteOperator(np.eye(dim))


# Pauli matrices, the working alphabet for d = 2.
SX = SiteOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SY = SiteOperator(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))
SZ = SiteOperator(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
SI = identity(2)


class SiteState:
    """A density matrix on one site, validated at construction.

    Requires hermiticity and unit trace within 1e-12 and eigenvalues
    above -1e-12. Invalid input fails loudly here rather than surfacing
    as a wrong number three modules later.
    """

    __slots__ = ("rho",)

    def __init__(self, data):
        rho = _as_matrix(data)
        dev = np.max(np.abs(rho - rho.conj().T))
        if dev > HERMITIAN_TOL:
            raise ValueError(f"density matrix not hermitian (deviation {dev:.3e})")
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if float(np.min(eigs)) < PSD_TOL:
            raise ValueError(
                f"density matrix has negative eigenvalue {float(np.min(eigs)):.3e}"
            )
        self.rho = rho

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def __repr__(self) -> str:
        return f"SiteState(dim={self.dim})"


def pure_state(vector) -> SiteState:
    """Density matrix of a normalized ket."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("zero vector has no associated state")
    v = v / nrm
    return SiteState(np.outer(v, v.conj()))


def expect(state: SiteState, a: SiteOperator) -> complex:
    """Expectation tr(rho a). Hermitian input yields a real value up to 1e-12."""
    if state.dim != a.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, operator {a.dim}")
    val = complex(np.trace(state.rho @ a.mat))
    if a.is_hermitian() and abs(val.imag) <= 1e-12:
        return complex(val.real, 0.0)
    return val


def center(a: SiteOperator, state: SiteState) -> SiteOperator:
    """Subtract the expectation: a - tr(rho a) * identity."""
    return SiteOperator(a.mat - expect(state, a) * np.eye(a.dim))


def commutator(a: SiteOperator, b: SiteOperator) -> SiteOperator:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SiteOperator(a.mat @ b.mat - b.mat @ a.mat)


def op_norm(a: SiteOperator) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(a.mat, 2))


def ordered_product(ops: Sequence[SiteOperator]) -> SiteOperator:
    """Product of the operators in the given order. Errors on an empty sequence."""
    if len(ops) == 0:
        raise ValueError("ordered_product requires a nonempty sequence")
    out = ops[0].mat
    for op in ops[1:]:
        if op.dim != out.shape[0]:
            raise ValueError("dimension mismatch inside ordered_product")
        out = out @ op.mat
    return SiteOperator(out)


@lru_cache(maxsize=MAX_LOCAL_DIM)
def _hermitian_basis_mats(dim: int) -> tuple[np.ndarray, ...]:
    mats: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for i in range(dim):
        for j in range(i + 1, dim):
            s = np.zeros((dim, dim), dtype=complex)
            s[i, j] = 1.0
            s[j, i] = 1.0
            mats.append(s)
            t = np.zeros((dim, dim), dtype=complex)
            t[i, j] = -1.0j
            t[j, i] = 1.0j
            mats.append(t)
    for l in range(1, dim):
        dgn = np.zeros((dim, dim), dtype=complex)
        for m in range(l):
            dgn[m, m] = 1.0
        dgn[l, l] = -float(l)
        mats.append(dgn)
    return tuple(m for m in mats)


def hermitian_basis(dim: int) -> list[SiteOperator]:
    """Hilbert-Schmidt orthogonal Hermitian basis; identity first.

    For dim = 2 this is [identity, sigma_x, sigma_y, sigma_z].
    """
    if dim < 1 or dim > MAX_LOCAL_DIM:
        raise ValueError(f"dimension {dim} outside supported range")
    return [SiteOperator(m) for m in _hermitian_basis_mats(dim)]


@lru_cache(maxsize=MAX_LOCAL_DIM)
def _unit_basis(dim: int) -> tuple[SiteOperator, ...]:
    """The Hermitian basis, each element scaled to unit operator norm."""
    return tuple(SiteOperator(h.mat / op_norm(h)) for h in hermitian_basis(dim))


@lru_cache(maxsize=MAX_LOCAL_DIM)
def _hermitian_duals(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate transposes and squared Hilbert-Schmidt norms of the Hermitian basis."""
    mats = np.array(_hermitian_basis_mats(dim))
    return np.conj(np.swapaxes(mats, -1, -2)), np.real(np.einsum("kij,kji->k", mats, mats))


def _hs_coefficient_stack(mats: np.ndarray) -> np.ndarray:
    """Hermitian-basis coefficients of a (..., d, d) operator stack, shape (..., k).

    Every Hermitian basis element has at most one nonzero entry per row,
    so each diagonal entry of h^dagger a is one exact product; summing
    the diagonal last and dividing the real and imaginary parts
    separately reproduces tr(h^dagger a) / tr(h h), computed one
    operator at a time, bit for bit.
    """
    conj_t, norms = _hermitian_duals(mats.shape[-1])
    t = np.einsum("kij,...ji->...ki", conj_t, mats).sum(axis=-1)
    out = np.empty(t.shape, dtype=complex)
    out.real = t.real / norms
    out.imag = t.imag / norms
    return out


def hs_coefficients(a: SiteOperator) -> np.ndarray:
    """Expansion coefficients of ``a`` in the Hermitian basis.

    Coefficients are real exactly when ``a`` is Hermitian; complex input
    is allowed and simply yields complex coefficients.
    """
    return _hs_coefficient_stack(a.mat)
