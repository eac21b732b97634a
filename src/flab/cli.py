"""Experiment driver: config parsing, experiment loops, CSV/JSON output.

Every experiment reads one JSON config, computes rows through the
library in order, and writes CSV (tables) or JSON (bound reports). The
``threads`` setting is still read and validated, but rows run one after
another, so output bytes do not depend on it.
Failures print a single line "ERR <code>: message" to stderr and exit
nonzero: 2 for configuration problems, 3 for tripped cost guards, 1 for
checks that ran and failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import SX, SY, SZ, SiteOperator, identity, op_norm
from .cluster import b_hat_bound, b_n_quantity, decomposition_check
from .combinatorics import q_sequence
from .errors import ConfigError, CostGuardError
from .fluctuations import (
    InducedMomentFunctional,
    ccr_decay_check,
    check_tuple_sum,
    induced_moment,  # no caller here; bench/tracing.py wraps this name
    induced_moment_table,
    seminorm_comparison_check,
    seminorm_nu_omega_estimate,
)
from .gaussian import (
    Covariance,
    covariance_from_state,
    wick_difference_bound_check,
    wick_moment,
)
from .lattice import Region, ball_count, chain_metric, count_subsets_with_spread
from .states import CircuitState, GlobalState, random_density, state_from_json

_NAMED_OPS = {"I": None, "X": SX, "Y": SY, "Z": SZ}


def _err(code: int, message: str) -> None:
    sys.stderr.write(f"ERR {code}: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _format_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _checked_int(key: str, value, minimum: int) -> int:
    # bool is an int subclass, so True would otherwise pass as 1
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _config_int(cfg: dict, key: str, default: int, minimum: int) -> int:
    return _checked_int(key, cfg.get(key, default), minimum)


def _config_ints(cfg: dict, key: str, default, minimum: int) -> list[int]:
    values = cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key!r} must be a nonempty list of integers")
    return [_checked_int(key, v, minimum) for v in values]


def _parse_operator(spec, dim: int) -> SiteOperator:
    if isinstance(spec, str):
        name = spec.strip().upper()
        if name not in _NAMED_OPS:
            raise ConfigError(f"unknown operator name {spec!r}")
        if name == "I":
            return identity(dim)
        if dim != 2:
            raise ConfigError("named Pauli operators require dimension 2")
        return _NAMED_OPS[name]
    if isinstance(spec, list):
        from .states import parse_matrix

        try:
            return SiteOperator(parse_matrix(spec))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad inline operator matrix: {exc}") from exc
    raise ConfigError(f"operator spec must be a name or a matrix, got {spec!r}")


def _parse_word(cfg: dict, key: str, dim: int, required: bool = True) -> tuple:
    spec = cfg.get(key)
    if spec is None:
        if required:
            raise ConfigError(f"config is missing the {key!r} word")
        return ()
    if not isinstance(spec, list):
        raise ConfigError(f"{key!r} must be a list of operator specs")
    return tuple(_parse_operator(entry, dim) for entry in spec)


def _parse_sizes(cfg: dict, state: GlobalState) -> list[int]:
    out = _config_ints(cfg, "sizes", None, 1)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError("region sizes must be strictly ascending")
    if isinstance(state, CircuitState) and out[-1] > state.length:
        raise ConfigError(
            f"largest region size {out[-1]} exceeds circuit length {state.length}"
        )
    return out


def _load_state(cfg: dict) -> GlobalState:
    spec = cfg.get("state")
    if spec is None:
        raise ConfigError("config is missing the state spec")
    try:
        return state_from_json(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc


def _segment(state: GlobalState, size: int) -> Region:
    return Region(state.metric, range(size))


def _homogeneous_restriction(state: GlobalState):
    try:
        return state.single_site_restriction()
    except ValueError as exc:
        raise ConfigError(f"experiment needs a homogeneous state: {exc}") from exc


def run_moments(cfg: dict, state: GlobalState) -> str:
    word = _parse_word(cfg, "word", state.site_dim)
    if not word:
        raise ConfigError("word must have at least one factor")
    sizes = _parse_sizes(cfg, state)
    vals = induced_moment_table(state, _segment(state, sizes[-1]), word, sizes)
    rows = [[size, len(word), val.real, val.imag] for size, val in zip(sizes, vals)]
    return _format_csv(["region_size", "degree", "moment_re", "moment_im"], rows)


def run_converge(cfg: dict, state: GlobalState) -> str:
    word = _parse_word(cfg, "word", state.site_dim)
    if not word:
        raise ConfigError("word must have at least one factor")
    sizes = _parse_sizes(cfg, state)
    omega = _homogeneous_restriction(state)
    wick = wick_moment(covariance_from_state(omega), word)
    vals = induced_moment_table(state, _segment(state, sizes[-1]), word, sizes)
    rows = [
        [size, len(word), val.real, val.imag, wick.real, wick.imag, abs(val - wick)]
        for size, val in zip(sizes, vals)
    ]
    return _format_csv(
        [
            "region_size",
            "n",
            "moment_re",
            "moment_im",
            "wick_re",
            "wick_im",
            "abs_diff",
        ],
        rows,
    )


def run_ccr_decay(cfg: dict, state: GlobalState, seed: int) -> str:
    pair = _parse_word(cfg, "pair", state.site_dim)
    if len(pair) != 2:
        raise ConfigError("ccr-decay needs a 'pair' word of exactly two operators")
    prefix = _parse_word(cfg, "prefix", state.site_dim, required=False)
    suffix = _parse_word(cfg, "suffix", state.site_dim, required=False)
    sizes = _parse_sizes(cfg, state)
    budget = _config_int(cfg, "search_budget", 8, 0)
    degree = len(prefix) + 1 + len(suffix)
    # the defect word is the largest moment; refuse it before any search
    check_tuple_sum(sizes[-1], degree + 1)

    def constant(size: int) -> float:
        region = _segment(state, size)
        omega_bar = state.averaged_restriction(region)
        est = seminorm_nu_omega_estimate(
            InducedMomentFunctional(state, region),
            degree,
            omega_bar,
            search_budget=budget,
            seed=seed,
        )
        return est.value

    c_values = list(map(constant, sizes))
    c_const = max(c_values) if c_values else 0.0

    norms = 1.0
    for op in prefix + pair + suffix:
        norms *= op_norm(op)
    cap = 2.0 * c_const * norms

    def row(size: int) -> list:
        check = ccr_decay_check(
            state,
            _segment(state, size),
            pair[0],
            pair[1],
            prefix=prefix,
            suffix=suffix,
            c_estimate=c_const,
        )
        if check.transport_deviation > 1e-10:
            raise RuntimeError(
                f"transport identity violated at size {size}: "
                f"deviation {check.transport_deviation:.3e}"
            )
        value_abs = abs(check.value)
        ratio = value_abs * math.sqrt(size)
        flag = value_abs <= check.bound + 1e-12 and ratio <= cap + 1e-12
        return [size, value_abs, check.bound, ratio, flag]

    rows = list(map(row, sizes))
    return _format_csv(
        ["region_size", "value_abs", "bound", "ratio", "flag"], rows
    )


def run_cluster_verify(cfg: dict, state: GlobalState) -> tuple[str, bool]:
    sizes = _parse_sizes(cfg, state)
    degrees = _config_ints(cfg, "degrees", [2, 3, 4], 1)
    op_spec = cfg.get("op", "Z")
    op = _parse_operator(op_spec, state.site_dim)
    _homogeneous_restriction(state)

    tasks = [(size, n) for size in sizes for n in degrees]

    def row(task: tuple) -> list:
        size, n = task
        check = decomposition_check(state, _segment(state, size), (op,) * n)
        return [size, n, check.residual]

    rows = list(map(row, tasks))
    ok = all(r[2] <= 1e-9 for r in rows)
    return _format_csv(["region_size", "n", "residual"], rows), ok


def _counting_checks(cfg: dict) -> list[dict]:
    sizes = _config_ints(cfg, "counting_sizes", [6, 10, 14], 1)
    max_k = _config_int(cfg, "counting_max_k", 4, 2)
    max_r = _config_int(cfg, "counting_max_r", 3, 0)
    metric = chain_metric(1.0)
    out = []
    for size in sizes:
        region = Region(metric, range(size))
        for k in range(2, max_k + 1):
            for r in range(0, max_r + 1):
                lhs = count_subsets_with_spread(region, k, float(r))
                rhs = (
                    q_sequence(k)
                    * float(size) ** (k / 2.0)
                    * float(ball_count(metric, float(r))) ** (k / 2.0)
                )
                out.append(
                    {
                        "name": f"counting size={size} k={k} r={r}",
                        "lhs": float(lhs),
                        "rhs": rhs,
                        "pass": lhs <= rhs + 1e-9,
                    }
                )
    return out


def _weight_sum_checks(cfg: dict) -> list[dict]:
    sizes = _config_ints(cfg, "weight_sizes", [4, 8], 1)
    degrees = _config_ints(cfg, "weight_degrees", [2, 3], 1)
    metric = chain_metric(1.0)
    out = []
    for size in sizes:
        region = Region(metric, range(size))
        for n in degrees:
            lhs = b_n_quantity(region, n)
            rhs = b_hat_bound(n, metric) * float(size) ** (n / 2.0)
            out.append(
                {
                    "name": f"weight-sum size={size} n={n}",
                    "lhs": lhs,
                    "rhs": rhs,
                    "pass": lhs <= rhs + 1e-9,
                }
            )
    return out


def _seminorm_checks(cfg: dict, state: GlobalState, seed: int) -> list[dict]:
    size = _config_int(cfg, "seminorm_size", 6, 1)
    degrees = _config_ints(cfg, "seminorm_degrees", [2, 3], 0)
    budget = _config_int(cfg, "search_budget", 8, 0)
    omega = _homogeneous_restriction(state)
    region = _segment(state, size)
    functional = InducedMomentFunctional(state, region)
    out = []
    for n in degrees:
        check = seminorm_comparison_check(
            functional, n, omega, search_budget=budget, seed=seed
        )
        out.append(
            {
                "name": f"seminorm-comparison size={size} n={n}",
                "lhs": check.nu,
                "rhs": check.rhs,
                "pass": check.passed,
            }
        )
    return out


def _wick_difference_checks(cfg: dict, seed: int) -> list[dict]:
    budget = _config_int(cfg, "search_budget", 32, 0)
    out = []
    one = identity(1)
    w1 = Covariance(1, [[1.0]])
    w2 = Covariance(1, [[2.0]])
    for n in (2, 4):
        check = wick_difference_bound_check(
            w1, w2, (one,) * n, search_budget=budget, seed=seed
        )
        out.append(
            {
                "name": f"wick-difference scalar n={n}",
                "lhs": check.lhs,
                "rhs": check.rhs,
                "pass": check.passed,
            }
        )
    rng = np.random.default_rng(seed)
    pairs = _config_int(cfg, "random_pairs", 20, 0)
    word4 = (SX, SY, SZ, SX)
    for idx in range(pairs):
        ca = covariance_from_state(random_density(rng, 2))
        cb = covariance_from_state(random_density(rng, 2))
        for n in (2, 4):
            check = wick_difference_bound_check(
                ca, cb, word4[:n], search_budget=budget, seed=seed + idx + 1
            )
            out.append(
                {
                    "name": f"wick-difference random pair {idx} n={n}",
                    "lhs": check.lhs,
                    "rhs": check.rhs_padded,
                    "pass": check.passed,
                }
            )
    return out


def run_bounds(cfg: dict, seed: int) -> tuple[str, bool]:
    known = ["counting", "weight-sum", "seminorm-comparison", "wick-difference"]
    selected = cfg.get("checks", known)
    if not isinstance(selected, list) or not selected:
        raise ConfigError("checks must be a nonempty list")
    for name in selected:
        if name not in known:
            raise ConfigError(f"unknown bounds check {name!r}")
    records: list[dict] = []
    if "counting" in selected:
        records.extend(_counting_checks(cfg))
    if "weight-sum" in selected:
        records.extend(_weight_sum_checks(cfg))
    if "seminorm-comparison" in selected:
        state = _load_state(cfg)
        records.extend(_seminorm_checks(cfg, state, seed))
    if "wick-difference" in selected:
        records.extend(_wick_difference_checks(cfg, seed))
    all_pass = all(r["pass"] for r in records)
    doc = {"experiment": "bounds", "checks": records, "all_pass": all_pass}
    return json.dumps(doc, indent=2) + "\n", all_pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flab", description="fluctuation moment laboratory")
    sub = parser.add_subparsers(dest="experiment")
    for name in ("moments", "converge", "ccr-decay", "cluster-verify", "bounds"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise ConfigError("an experiment subcommand is required")
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        # rows run in order; the thread count is validated but not used
        _checked_int(
            "threads", cfg.get("threads", 1) if args.threads is None else args.threads, 1
        )
        seed = _config_int(cfg, "seed", 0, 0)
        out_path = args.out
        if out_path is None and "out" in cfg:
            out_path = cfg["out"]
            # open() would take an int as a file descriptor
            if not isinstance(out_path, str) or not out_path:
                raise ConfigError(f"'out' must be a nonempty path string, got {out_path!r}")

        if args.experiment == "bounds":
            text, ok = run_bounds(cfg, seed)
            _emit(text, out_path)
            if not ok:
                _err(1, "one or more bound checks failed")
                return 1
            return 0

        state = _load_state(cfg)
        if args.experiment == "moments":
            _emit(run_moments(cfg, state), out_path)
            return 0
        if args.experiment == "converge":
            _emit(run_converge(cfg, state), out_path)
            return 0
        if args.experiment == "ccr-decay":
            _emit(run_ccr_decay(cfg, state, seed), out_path)
            return 0
        if args.experiment == "cluster-verify":
            text, ok = run_cluster_verify(cfg, state)
            _emit(text, out_path)
            if not ok:
                _err(1, "decomposition residual above 1e-9")
                return 1
            return 0
        raise ConfigError(f"unknown experiment {args.experiment!r}")
    except ConfigError as exc:
        _err(2, str(exc))
        return 2
    except CostGuardError as exc:
        _err(3, f"cost guard '{exc.guard}': {exc}")
        return 3
    except Exception as exc:  # noqa: BLE001
        _err(1, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
