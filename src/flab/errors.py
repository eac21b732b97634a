"""Error types and small numeric helpers shared across the package."""

from __future__ import annotations

import numbers
import sys

import numpy as np


class CostGuardError(RuntimeError):
    """Raised when a computation would exceed a declared cost guard.

    The ``guard`` attribute names the guard that tripped, so callers
    (notably the CLI) can report which limit was hit.
    """

    def __init__(self, guard: str, message: str):
        super().__init__(message)
        self.guard = guard


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def json_int(key: str, value, minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer (and at least ``minimum``), else ConfigError."""
    # bool is an int subclass, so true would otherwise pass as 1
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{key!r} must be an integer{bound}, got {value!r}")
    return value


def json_number(what: str, value) -> float:
    """``value`` as a float if it is a finite JSON number, else ConfigError.

    Strings and bools are refused: float() would take "0.4" and true. So
    are NaN (it fails both comparisons), the infinities and integers past
    the float range: Python's json reads ``NaN``, ``Infinity`` and ``1e400``.
    """
    big = sys.float_info.max
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not -big <= value <= big:
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


class KahanSum:
    """Compensated accumulator for complex values (Neumaier variant).

    Summation order still matters for bit-level reproducibility; callers
    must feed terms in a fixed order. The compensation just keeps the
    rounding floor flat when many small terms ride on a large partial sum.
    """

    __slots__ = ("_sr", "_si", "_cr", "_ci")

    def __init__(self) -> None:
        self._sr = 0.0
        self._si = 0.0
        self._cr = 0.0
        self._ci = 0.0

    def add(self, z: complex) -> None:
        """Add one term, by Neumaier's step on Python floats (arrays cost more for one)."""
        self._sr, self._cr = _neumaier_step(self._sr, self._cr, z.real)
        self._si, self._ci = _neumaier_step(self._si, self._ci, z.imag)

    def add_terms(self, reals, imags) -> None:
        """Add the terms reals[i] + 1j * imags[i] in index order, bit for bit as ``add`` would.

        ``reals`` and ``imags`` are float arrays of one length; each part
        is summed by ``_neumaier``'s two cumsums.
        """
        self._sr, self._cr = _neumaier(self._sr, self._cr, reals)
        self._si, self._ci = _neumaier(self._si, self._ci, imags)

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)


def _neumaier_step(total: float, comp: float, z: float) -> tuple:
    """Neumaier's step: the running sum and compensation after adding ``z``."""
    t = total + z
    if abs(total) >= abs(z):
        return t, comp + ((total - t) + z)
    return t, comp + ((z - t) + total)


def _neumaier(total: float, comp: float, terms) -> tuple:
    """``_neumaier_step`` over every term in order, as two sequential cumsums.

    ``np.cumsum`` adds in sequence, so one pass from ``total`` gives each
    step's running sum t_i, and a second pass from ``comp`` adds each
    step's error, ``(t_{i-1} - t_i) + z_i`` or ``(z_i - t_i) + t_{i-1}``,
    in the steps' order: every bit is the step loop's.
    """
    terms = np.asarray(terms, dtype=float)
    sums = np.cumsum(np.concatenate(([total], terms)))
    prev, t = sums[:-1], sums[1:]
    errors = np.where(np.abs(prev) >= np.abs(terms), (prev - t) + terms, (terms - t) + prev)
    return float(sums[-1]), float(np.cumsum(np.concatenate(([comp], errors)))[-1])
