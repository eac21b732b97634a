"""Workload definitions: the flab experiment list of each workload.

Every input is generated from the workload seed, so the same seed gives
the same configs. Costs do not depend on the seed: the seed picks
operators, a gate and a density, never sizes, degrees or budgets.
Configs are plain JSON for ``flab <experiment> --config``.
"""

from __future__ import annotations

import json
import os

import numpy as np

PAULIS = ("X", "Y", "Z")

# The README Markov chain: symmetric flips, stationary pi = (1/2, 1/2).
MARKOV = {"kind": "markov", "T": [[0.8, 0.2], [0.2, 0.8]], "alpha": 0.4}

CIRCUIT_LENGTH = 12


def _paulis(rng: np.random.Generator, count: int) -> list[str]:
    return [PAULIS[int(k)] for k in rng.integers(0, 3, size=count)]


def _distinct_pair(rng: np.random.Generator) -> list[str]:
    first, second = rng.choice(3, size=2, replace=False)
    return [PAULIS[int(first)], PAULIS[int(second)]]


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _matrix_doc(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _diag_rho(p: float) -> list:
    return [[p, 0.0], [0.0, 1.0 - p]]


def markov_search(rng: np.random.Generator, seed: int) -> list[tuple]:
    deg3 = {
        "state": MARKOV,
        "prefix": _paulis(rng, 1),
        "pair": _distinct_pair(rng),
        "suffix": _paulis(rng, 1),
        "sizes": [8, 16, 24, 32, 40, 48, 56, 64],
        "search_budget": 8,
        "seed": seed,
    }
    deg4 = {
        "state": MARKOV,
        "prefix": _paulis(rng, 2),
        "pair": _distinct_pair(rng),
        "suffix": _paulis(rng, 1),
        "sizes": [4, 12, 20, 28, 36],
        "search_budget": 8,
        "seed": seed,
    }
    table = {"state": MARKOV, "word": ["Z"] * 4, "sizes": list(range(1, 65))}
    return [
        ("ccr-decay", "ccr_deg3", deg3),
        ("ccr-decay", "ccr_deg4", deg4),
        ("converge", "markov_z4", table),
    ]


def moment_tables(rng: np.random.Generator, seed: int) -> list[tuple]:
    gate = _matrix_doc(_random_unitary(rng, 4))
    circuit = {
        "state": {
            "kind": "circuit",
            "base": {"ket": [1, 0]},
            "length": CIRCUIT_LENGTH,
            "layers": [{"offset": 0, "gate": gate}, {"offset": 1, "gate": gate}],
        },
        "word": _paulis(rng, 4),
        "sizes": [4, 8, 12],
    }
    deg10 = {"state": MARKOV, "word": _paulis(rng, 10), "sizes": [1, 2, 3, 4, 5, 6]}
    deg12 = {"state": MARKOV, "word": _paulis(rng, 12), "sizes": [1, 2, 3, 4]}
    product = {
        "state": {"kind": "product", "rho": _diag_rho(float(rng.uniform(0.1, 0.9)))},
        "word": ["X"] * 6,
        "sizes": list(range(1, 22)),
    }
    return [
        ("moments", "circuit_deg4", circuit),
        ("moments", "markov_deg10", deg10),
        ("moments", "markov_deg12", deg12),
        ("converge", "product_x6", product),
    ]


def bound_checks(rng: np.random.Generator, seed: int) -> list[tuple]:
    bounds = {
        "checks": ["counting", "weight-sum", "seminorm-comparison", "wick-difference"],
        "state": {"kind": "product", "rho": _diag_rho(float(rng.uniform(0.1, 0.9)))},
        "counting_sizes": [6, 10, 14, 18],
        "weight_sizes": [4, 8, 12],
        "weight_degrees": [2, 3, 4],
        "seminorm_size": 10,
        "seminorm_degrees": [2, 3, 4],
        "random_pairs": 20,
        "seed": seed,
    }
    cluster = {
        "state": MARKOV,
        "sizes": [2, 4, 6, 8, 10],
        "degrees": [2, 3, 4],
        "op": PAULIS[int(rng.integers(0, 3))],
    }
    return [("bounds", "bounds", bounds), ("cluster-verify", "cluster", cluster)]


WORKLOADS = {
    "markov-search": markov_search,
    "moment-tables": moment_tables,
    "bound-checks": bound_checks,
}


def experiments(workload: str, seed: int) -> list[tuple]:
    """(experiment, name, config) triples of a workload, in run order."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, seed)


def write_configs(workload: str, seed: int, directory: str) -> list[tuple]:
    """Write the workload's configs; return (experiment, name, config path)."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for experiment, name, cfg in experiments(workload, seed):
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        out.append((experiment, name, path))
    return out
