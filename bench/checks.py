"""Independent checks of the workload outputs, run after the timed part.

Nothing here imports flab. Each check either recomputes a value from
the config by a method of its own (classical DP, dense matrices, a
statevector simulation, brute enumeration, a closed form) or tests a
property the method must have. No check compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

TOL = 1e-9

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _close(got: float, want: float, what: str) -> None:
    _require(
        abs(got - want) <= TOL * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r}",
    )


def _table(text: str) -> list[dict]:
    return [
        {k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))
    ]


def _matrix(doc) -> np.ndarray:
    return np.array(
        [[complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in row] for row in doc]
    )


# ---------------------------------------------------------------------------
# reference evaluations
# ---------------------------------------------------------------------------


def _stationary(T: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(T)
    pi = np.real(v[:, int(np.argmin(np.abs(w - 1.0)))])
    return pi / pi.sum()


def z_moment_dp(T: np.ndarray, size: int, degree: int) -> float:
    """E[F(Z)^n] on a two-state chain from the law of the up-spin count.

    A classical DP over (chain state, number of up spins so far); Z is +1
    on state 0 and -1 on state 1, centered against the stationary mean.
    """
    pi = _stationary(T)
    mean = pi[0] - pi[1]
    dist = np.zeros((2, size + 1))
    dist[0, 1] = pi[0]
    dist[1, 0] = pi[1]
    for _ in range(size - 1):
        nxt = np.zeros_like(dist)
        for s_new in range(2):
            moved = T[s_new, 0] * dist[0] + T[s_new, 1] * dist[1]
            if s_new == 0:
                nxt[0, 1:] += moved[:-1]
            else:
                nxt[1] += moved
        dist = nxt
    law = dist.sum(axis=0)
    ups = np.arange(size + 1)
    centered = (2 * ups - size) - size * mean
    return float(np.sum(law * centered**degree)) / size ** (degree / 2.0)


def _embed(op: np.ndarray, site: int, size: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(2**site), op), np.eye(2 ** (size - site - 1)))


def markov_dense_moment(T: np.ndarray, size: int, word: list[np.ndarray]) -> complex:
    """tr(rho F(a_1)...F(a_n)) with rho the diagonal chain law on 2^m configs."""
    pi = _stationary(T)
    law = np.array(pi)
    for _ in range(size - 1):
        last = np.arange(law.size) % 2
        law = (law[:, None] * T[:, last].T).reshape(-1)
    fluct = []
    for a in word:
        mean = np.sum(pi * np.diag(a))
        f = sum(_embed(a, x, size) for x in range(size)) - size * mean * np.eye(2**size)
        fluct.append(f / math.sqrt(size))
    prod = np.eye(2**size, dtype=complex)
    for f in fluct:
        prod = prod @ f
    return complex(np.sum(law * np.diag(prod)))


def markov_dense_defect(T, size, prefix, a, b, suffix) -> complex:
    """Moment of prefix (F(a)F(b) - F(b)F(a) - omega([a*, b])) suffix."""
    pi = _stationary(T)
    gamma = np.sum(pi * np.diag(a.conj().T @ b - b @ a.conj().T))
    direct = markov_dense_moment(T, size, prefix + [a, b] + suffix)
    swapped = markov_dense_moment(T, size, prefix + [b, a] + suffix)
    rest = markov_dense_moment(T, size, prefix + suffix)
    return direct - swapped - gamma * rest


def _apply(op: np.ndarray, psi: np.ndarray, first: int, width: int) -> np.ndarray:
    """Apply a (2^width x 2^width) operator on sites first..first+width-1."""
    length = int(round(math.log2(psi.size)))
    block = psi.reshape(2**first, 2**width, 2 ** (length - first - width))
    return np.einsum("ab,xbz->xaz", op, block).reshape(-1)


def circuit_statevector(state: dict) -> np.ndarray:
    ket = np.array([complex(v) for v in state["base"]["ket"]])
    ket = ket / np.linalg.norm(ket)
    psi = ket
    for _ in range(state["length"] - 1):
        psi = np.kron(psi, ket)
    for layer in state.get("layers", []):
        gate = _matrix(layer["gate"])
        for i in range(layer["offset"], state["length"] - 1, 2):
            psi = _apply(gate, psi, i, 2)
    return psi


def circuit_moment(psi: np.ndarray, size: int, word: list[np.ndarray]) -> complex:
    """<psi| F(a_1)...F(a_n) |psi> with per-site centering, applied right to left."""
    phi = psi
    for a in reversed(word):
        acc = np.zeros_like(phi)
        for x in range(size):
            mean = np.vdot(psi, _apply(a, psi, x, 1))
            acc += _apply(a, phi, x, 1) - mean * phi
        phi = acc / math.sqrt(size)
    return complex(np.vdot(psi, phi))


def _nearest(site: int, others) -> int:
    return min(abs(site - z) for z in others)


def count_spread_subsets(size: int, k: int, r: float) -> int:
    """k-subsets of 0..size-1 in which every point has a neighbour within r."""
    return sum(
        1
        for sub in itertools.combinations(range(size), k)
        if all(_nearest(y, [z for z in sub if z != y]) <= r for y in sub)
    )


def _greedy_order(sites: list[int]) -> list[int]:
    order, rest = [], sorted(sites)
    while len(rest) > 1:
        best = max(rest, key=lambda y: (_nearest(y, [z for z in rest if z != y]), -y))
        order.append(best)
        rest.remove(best)
    return order + rest


def weight_sum_tuples(size: int, n: int) -> float:
    """The spread-decay weight sum of b_n, tuple by tuple."""
    total = 0.0
    for tup in itertools.product(range(size), repeat=n):
        order = _greedy_order(list(set(tup)))
        m = len(order)
        if m < 2:
            continue
        occupancy = [tup.count(y) for y in order]
        first_single = occupancy.index(1) + 1 if 1 in occupancy else m + 1
        for k in range(min(m - 1, first_single)):
            total += math.exp(-_nearest(order[k], order[k + 1 :]))
    return total


# ---------------------------------------------------------------------------
# per-experiment checks
# ---------------------------------------------------------------------------

WEIGHT_TUPLE_LIMIT = 5000


def _sizes(rows: list[dict], cfg: dict, name: str) -> None:
    _require(
        [int(r["region_size"]) for r in rows] == cfg["sizes"],
        f"{name}: rows do not cover the configured sizes",
    )


def check_converge(name: str, cfg: dict, text: str) -> None:
    rows = _table(text)
    _sizes(rows, cfg, name)
    state = cfg["state"]
    word = cfg["word"]
    for r in rows:
        m = int(r["region_size"])
        if state["kind"] == "markov" and set(word) == {"Z"}:
            T = np.array(state["T"], dtype=float)
            mean = float(np.dot(_stationary(T), [1.0, -1.0]))
            want = z_moment_dp(T, m, len(word))
            wick = 3.0 * (1.0 - mean**2) ** 2 if len(word) == 4 else None
        elif state["kind"] == "product" and word == ["X"] * 6:
            rho = _matrix(state["rho"])
            _require(abs(rho[0, 1]) + abs(rho[1, 0]) == 0.0, f"{name}: rho is not diagonal")
            want = 15.0 - 30.0 / m + 16.0 / m**2
            wick = 15.0
        else:
            raise CheckFailure(f"{name}: no reference for this converge table")
        _close(r["moment_re"], want, f"{name} size {m} moment_re")
        _close(r["moment_im"], 0.0, f"{name} size {m} moment_im")
        if wick is not None:
            _close(r["wick_re"], wick, f"{name} size {m} wick_re")
        _close(r["abs_diff"], abs(r["moment_re"] - r["wick_re"]), f"{name} size {m} abs_diff")


def check_moments(name: str, cfg: dict, text: str) -> None:
    rows = _table(text)
    _sizes(rows, cfg, name)
    state = cfg["state"]
    word = [PAULI[w] for w in cfg["word"]]
    psi = circuit_statevector(state) if state["kind"] == "circuit" else None
    for r in rows:
        m = int(r["region_size"])
        _require(int(r["degree"]) == len(word), f"{name}: wrong degree column")
        if state["kind"] == "circuit":
            want = circuit_moment(psi, m, word)
        elif state["kind"] == "markov":
            want = markov_dense_moment(np.array(state["T"], dtype=float), m, word)
        else:
            raise CheckFailure(f"{name}: no reference for state kind {state['kind']}")
        _close(r["moment_re"], want.real, f"{name} size {m} moment_re")
        _close(r["moment_im"], want.imag, f"{name} size {m} moment_im")


def check_ccr_decay(name: str, cfg: dict, text: str) -> None:
    rows = _table(text)
    _sizes(rows, cfg, name)
    T = np.array(cfg["state"]["T"], dtype=float)
    prefix = [PAULI[w] for w in cfg.get("prefix", [])]
    suffix = [PAULI[w] for w in cfg.get("suffix", [])]
    a, b = (PAULI[w] for w in cfg["pair"])
    degree = len(prefix) + 1 + len(suffix)
    for r in rows:
        _require(r["flag"] == 1.0, f"{name} size {int(r['region_size'])}: flag is 0")
    smallest = rows[0]
    m = int(smallest["region_size"])
    dense = markov_dense_defect(T, m, prefix, a, b, suffix)
    _close(smallest["value_abs"], abs(dense), f"{name} size {m} value_abs")
    # Pauli words have unit norms, so bound = 2 C / sqrt(|X|).
    constants = [r["bound"] * math.sqrt(r["region_size"]) / 2.0 for r in rows]
    c_const = constants[0]
    for c in constants:
        _close(c, c_const, f"{name}: implied constant C varies across rows")
    for r in rows:
        z_word = abs(z_moment_dp(T, int(r["region_size"]), degree))
        _require(
            c_const >= z_word - TOL,
            f"{name}: C = {c_const!r} below |F(Z^{degree})| = {z_word!r} "
            f"at size {int(r['region_size'])}",
        )


def check_cluster_verify(name: str, cfg: dict, text: str) -> None:
    rows = _table(text)
    want = [(s, n) for s in cfg["sizes"] for n in cfg["degrees"]]
    _require(
        [(int(r["region_size"]), int(r["n"])) for r in rows] == want,
        f"{name}: rows do not cover sizes x degrees",
    )
    for r in rows:
        _require(r["residual"] <= TOL, f"{name}: residual {r['residual']!r} above 1e-9")


def check_bounds(name: str, cfg: dict, text: str) -> None:
    doc = json.loads(text)
    _require(doc["all_pass"] is True, f"{name}: all_pass is not true")
    records = {rec["name"]: rec for rec in doc["checks"]}
    for rec in doc["checks"]:
        _require(rec["pass"] is True, f"{name}: record {rec['name']!r} failed")
    for n, want in ((2, 1.0), (4, 9.0)):
        _close(records[f"wick-difference scalar n={n}"]["lhs"], want, f"{name} scalar n={n}")
    for size in cfg["counting_sizes"]:
        for k in range(2, 5):
            for r in range(0, 4):
                rec = records[f"counting size={size} k={k} r={r}"]
                _close(rec["lhs"], count_spread_subsets(size, k, r), rec["name"])
    checked = 0
    for size in cfg["weight_sizes"]:
        for n in cfg["weight_degrees"]:
            if size**n <= WEIGHT_TUPLE_LIMIT:
                rec = records[f"weight-sum size={size} n={n}"]
                _close(rec["lhs"], weight_sum_tuples(size, n), rec["name"])
                checked += 1
    _require(checked > 0, f"{name}: no weight-sum record small enough to enumerate")
    degrees = cfg["seminorm_degrees"]
    _require(
        sum(1 for k in records if k.startswith("seminorm-comparison")) == len(degrees),
        f"{name}: missing seminorm-comparison records",
    )
    pairs = cfg["random_pairs"]
    _require(
        sum(1 for k in records if k.startswith("wick-difference random")) == 2 * pairs,
        f"{name}: missing random wick-difference records",
    )


CHECKS = {
    "converge": check_converge,
    "moments": check_moments,
    "ccr-decay": check_ccr_decay,
    "cluster-verify": check_cluster_verify,
    "bounds": check_bounds,
}


def check_outputs(experiments: list, out_dir: str) -> list[str]:
    """Run the check of every experiment; return the failures as messages."""
    failures = []
    for experiment, name, config_path in experiments:
        try:
            with open(config_path) as fh:
                cfg = json.load(fh)
            with open(f"{out_dir}/{name}.out") as fh:
                text = fh.read()
            CHECKS[experiment](name, cfg, text)
        except (CheckFailure, OSError, KeyError, ValueError) as exc:
            failures.append(f"{name}: {exc}")
    return failures
