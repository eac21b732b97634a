"""Error types and small numeric helpers shared across the package."""

from __future__ import annotations

import numbers


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
    """``value`` as a float if it is a JSON number, else ConfigError.

    Strings and bools are refused: float() would take "0.4" and true.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
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
        self.add_terms((z.real,), (z.imag,))

    def add_terms(self, reals, imags) -> None:
        """Add the terms reals[i] + 1j * imags[i] in index order, as ``add`` would.

        ``reals`` and ``imags`` are iterables of floats of one length.
        """
        self._sr, self._cr = _neumaier(self._sr, self._cr, reals)
        self._si, self._ci = _neumaier(self._si, self._ci, imags)

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)


def _neumaier(total: float, comp: float, terms) -> tuple:
    """Neumaier's step over ``terms`` from the running sum and compensation."""
    for z in terms:
        t = total + z
        if abs(total) >= abs(z):
            comp += (total - t) + z
        else:
            comp += (z - t) + total
        total = t
    return total, comp
