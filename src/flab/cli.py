"""Experiment driver: config parsing, experiment loops, CSV/JSON output.

Every experiment is one runner in ``_EXPERIMENTS``: it reads the JSON
config (its state included), computes rows through the library in order,
and returns CSV (tables) or JSON (bound reports) with a failure message
when a check ran and failed; ``main`` writes the text, then reports the
failure. Pass/fail verdicts are the library's own. The ``threads``
setting is still read and validated, but rows run one after another, so
output bytes do not depend on it. A region of size m is the sites
0..m-1 of the state's metric.
Failures print a single line "ERR <code>: message" to stderr and exit
nonzero: 2 for configuration problems, 3 for tripped cost guards, 1 for
checks that ran and failed.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

from .algebra import SX, SY, SZ, SiteOperator, identity
from .cluster import (
    DECOMPOSITION_TOL,
    b_hat_bound,
    b_n_quantity,
    check_correction_tuples,
    check_partition_degree,
    decomposition_check,  # no caller here; bench/tracing.py wraps this name
    decomposition_table,
)
from .combinatorics import MAX_Q_INDEX, q_sequence
from .errors import ConfigError, CostGuardError, json_int
from .fluctuations import (
    InducedMomentFunctional,
    ccr_decay_check,  # no caller here; bench/tracing.py wraps this name
    ccr_decay_table,
    check_comparison_table,
    check_moment_table,
    check_search_draws,
    check_tuple_sum,
    induced_moment,  # no caller here; bench/tracing.py wraps this name
    induced_moment_table,
    seminorm_comparison_table,
)
from .gaussian import (
    Covariance,
    covariance_from_state,
    wick_difference_bound_check,  # no caller here; bench/tracing.py wraps this name
    wick_difference_bound_table,
    wick_moment,
)
from .lattice import (
    Region,
    ball_count,
    chain_metric,
    check_subset_enumeration,
    count_subsets_with_spread,
)
from .states import GlobalState, parse_matrix, random_density, state_from_json

_NAMED_OPS = {"I": None, "X": SX, "Y": SY, "Z": SZ}
# each random pair of the wick-difference check runs three norm searches
RANDOM_PAIRS_GUARD = 1000
# the counting check takes every radius 0..counting_max_r
COUNTING_RADIUS_GUARD = 1000
# a region holds every site as a Python object, about 90 MB per 10^6 sites, and the
# m**n guards admit 10^7 sites or more at degree 1; 10^4 is the m**n guard's edge at n = 2
REGION_SIZE_GUARD = 10**4


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


def _config_int(cfg: dict, key: str, default: int, minimum: int) -> int:
    return json_int(key, cfg.get(key, default), minimum)


def _config_ints(cfg: dict, key: str, default, minimum: int) -> list[int]:
    values = cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key!r} must be a nonempty list of integers")
    return [json_int(key, v, minimum) for v in values]


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
        try:
            op = SiteOperator(parse_matrix(spec))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad inline operator matrix: {exc}") from exc
        if op.dim != dim:
            raise ConfigError(
                f"inline operator dimension {op.dim} does not match site dimension {dim}"
            )
        return op
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
    _check_domain(state, out[-1])
    return out


def _load_state(cfg: dict) -> GlobalState:
    spec = cfg.get("state")
    if spec is None:
        raise ConfigError("config is missing the state spec")
    try:
        # main runs every experiment with numpy's overflow and invalid errors raised
        return state_from_json(spec)
    except (ValueError, KeyError, TypeError, FloatingPointError) as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc


def _check_region_size(size: int) -> None:
    if size > REGION_SIZE_GUARD:
        raise CostGuardError("region size", f"region size {size} exceeds {REGION_SIZE_GUARD}")


def _segment(state: GlobalState, size: int) -> Region:
    _check_region_size(size)
    try:
        return Region(state.metric, range(size))
    except ValueError as exc:
        raise ConfigError(
            f"region size {size} needs the sites 0..{size - 1} of the state's metric: {exc}"
        ) from exc


def _check_domain(state: GlobalState, size: int) -> None:
    """Refuse a region size whose last site, size - 1, the metric has but the state lacks.

    A site the metric lacks is left to ``_segment``, which callers reach
    only after their cost guards; nothing here builds a region.
    """
    # GlobalState.contains_site is the metric's own site check
    if GlobalState.contains_site(state, size - 1) and not state.contains_site(size - 1):
        raise ConfigError(f"region size {size} needs site {size - 1}, outside the state")


def _homogeneous_restriction(state: GlobalState):
    try:
        return state.single_site_restriction()
    except ValueError as exc:
        raise ConfigError(f"experiment needs a homogeneous state: {exc}") from exc


def _record(name: str, lhs, rhs, ok) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "pass": ok}


def _state_word_sizes(cfg: dict) -> tuple:
    """The state, the nonempty 'word' and the region sizes of a moment table."""
    state = _load_state(cfg)
    word = _parse_word(cfg, "word", state.site_dim)
    if not word:
        raise ConfigError("word must have at least one factor")
    return state, word, _parse_sizes(cfg, state)


def run_moments(cfg: dict, seed: int) -> tuple:
    state, word, sizes = _state_word_sizes(cfg)
    check_moment_table(state, sizes, len(word))
    vals = induced_moment_table(state, _segment(state, sizes[-1]), word, sizes)
    rows = [[size, len(word), val.real, val.imag] for size, val in zip(sizes, vals)]
    return _format_csv(["region_size", "degree", "moment_re", "moment_im"], rows), None


def run_converge(cfg: dict, seed: int) -> tuple:
    state, word, sizes = _state_word_sizes(cfg)
    omega = _homogeneous_restriction(state)
    wick = wick_moment(covariance_from_state(omega), word)
    check_moment_table(state, sizes, len(word))
    vals = induced_moment_table(state, _segment(state, sizes[-1]), word, sizes)
    rows = [
        [size, len(word), val.real, val.imag, wick.real, wick.imag, abs(val - wick)]
        for size, val in zip(sizes, vals)
    ]
    header = ["region_size", "n", "moment_re", "moment_im", "wick_re", "wick_im", "abs_diff"]
    return _format_csv(header, rows), None


def run_ccr_decay(cfg: dict, seed: int) -> tuple:
    state = _load_state(cfg)
    pair = _parse_word(cfg, "pair", state.site_dim)
    if len(pair) != 2:
        raise ConfigError("ccr-decay needs a 'pair' word of exactly two operators")
    prefix = _parse_word(cfg, "prefix", state.site_dim, required=False)
    suffix = _parse_word(cfg, "suffix", state.site_dim, required=False)
    sizes = _parse_sizes(cfg, state)
    budget = _config_int(cfg, "search_budget", 8, 0)
    # the defect words have the largest degree of the table's moments, the searches one less
    check_moment_table(state, sizes, len(prefix) + 2 + len(suffix))
    check_search_draws(budget, len(prefix) + 1 + len(suffix))
    checks = ccr_decay_table(
        state,
        _segment(state, sizes[-1]),
        pair[0],
        pair[1],
        sizes,
        prefix=prefix,
        suffix=suffix,
        search_budget=budget,
        seed=seed,
    )
    rows = []
    for size, check in zip(sizes, checks):
        # a broken identity voids the whole table: raise before any output
        if not check.transport_ok:
            raise RuntimeError(
                f"transport identity violated at size {size}: "
                f"deviation {check.transport_deviation:.3e}"
            )
        value_abs = abs(check.value)
        rows.append([size, value_abs, check.bound, value_abs * math.sqrt(size), check.passed])
    return _format_csv(["region_size", "value_abs", "bound", "ratio", "flag"], rows), None


def _exponent_text(x: float) -> str:
    """1e-9 as README writes it; Python's own formats print 1e-09."""
    mantissa, exponent = f"{x:e}".split("e")
    return f"{float(mantissa):g}e{int(exponent)}"


def run_cluster_verify(cfg: dict, seed: int) -> tuple:
    state = _load_state(cfg)
    sizes = _parse_sizes(cfg, state)
    degrees = _config_ints(cfg, "degrees", [2, 3, 4], 1)
    op = _parse_operator(cfg.get("op", "Z"), state.site_dim)
    _homogeneous_restriction(state)
    # every row's tuple and degree guards trip before any region is built or row runs
    for size, n in itertools.product(sizes, degrees):
        check_correction_tuples(size, n)
    for n in degrees:
        check_partition_degree(n)

    # the largest region holds every row's sites: a missing one is ERR 2 before any row
    region = _segment(state, sizes[-1])
    # one table per degree; rows go out in (size, degree) order
    tables = {n: decomposition_table(state, region, (op,) * n, sizes) for n in degrees}
    checks = [(size, n, tables[n][i]) for i, size in enumerate(sizes) for n in degrees]
    text = _format_csv(["region_size", "n", "residual"], [[s, n, c.residual] for s, n, c in checks])
    failure = f"decomposition residual above {_exponent_text(DECOMPOSITION_TOL)}"
    return text, None if all(c.passed for _, _, c in checks) else failure


def _counting(cfg: dict, seed: int):
    max_r = _config_int(cfg, "counting_max_r", 3, 0)
    if max_r > COUNTING_RADIUS_GUARD:
        raise CostGuardError(
            "counting radii", f"counting_max_r = {max_r} exceeds {COUNTING_RADIUS_GUARD}"
        )
    sizes = _config_ints(cfg, "counting_sizes", [6, 10, 14], 1)
    max_k = _config_int(cfg, "counting_max_k", 4, 2)
    if max_k > MAX_Q_INDEX:
        raise ConfigError(f"'counting_max_k' must be at most {MAX_Q_INDEX}, got {max_k}")
    for size, k in itertools.product(sizes, range(2, max_k + 1)):
        check_subset_enumeration(size, k)

    def records() -> list[dict]:
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
                    name = f"counting size={size} k={k} r={r}"
                    out.append(_record(name, float(lhs), rhs, lhs <= rhs + 1e-9))
        return out

    return records


def _weight_sum(cfg: dict, seed: int):
    sizes = _config_ints(cfg, "weight_sizes", [4, 8], 1)
    degrees = _config_ints(cfg, "weight_degrees", [2, 3], 1)
    for size, n in itertools.product(sizes, degrees):
        check_correction_tuples(size, n, "weight-sum enumeration")
    for n in degrees:
        check_partition_degree(n, "weight-majorant degree")
    for size in sizes:
        _check_region_size(size)

    def records() -> list[dict]:
        metric = chain_metric(1.0)
        out = []
        for size in sizes:
            region = Region(metric, range(size))
            for n in degrees:
                lhs = b_n_quantity(region, n)
                rhs = b_hat_bound(n, metric) * float(size) ** (n / 2.0)
                out.append(_record(f"weight-sum size={size} n={n}", lhs, rhs, lhs <= rhs + 1e-9))
        return out

    return records


def _seminorm_comparison(cfg: dict, seed: int):
    size = _config_int(cfg, "seminorm_size", 6, 1)
    degrees = _config_ints(cfg, "seminorm_degrees", [2, 3], 0)
    check_tuple_sum(size, max(degrees))
    state = _load_state(cfg)
    budget = _config_int(cfg, "search_budget", 8, 0)
    omega = _homogeneous_restriction(state)
    _check_domain(state, size)
    check_comparison_table(degrees, budget)
    functional = InducedMomentFunctional(state, _segment(state, size))

    def records() -> list[dict]:
        checks = seminorm_comparison_table(functional, degrees, omega, budget, seed)
        out = []
        for n, check in zip(degrees, checks):
            name = f"seminorm-comparison size={size} n={n}"
            out.append(_record(name, check.nu, check.rhs, check.passed))
        return out

    return records


def _wick_difference(cfg: dict, seed: int):
    pairs = _config_int(cfg, "random_pairs", 20, 0)
    if pairs > RANDOM_PAIRS_GUARD:
        raise CostGuardError(
            "random pairs", f"random_pairs = {pairs} exceeds {RANDOM_PAIRS_GUARD}"
        )
    budget = _config_int(cfg, "search_budget", 32, 0)
    check_search_draws(budget, 2)

    def records() -> list[dict]:
        out = []
        one = identity(1)
        scalar = (Covariance(1, [[1.0]]), Covariance(1, [[2.0]]), seed)
        rng = np.random.default_rng(seed)
        drawn = []
        for idx in range(pairs):
            ca = covariance_from_state(random_density(rng, 2))
            cb = covariance_from_state(random_density(rng, 2))
            drawn.append((ca, cb, seed + idx + 1))
        (checks,) = wick_difference_bound_table([scalar], [(one,) * 2, (one,) * 4], budget)
        for n, check in zip((2, 4), checks):
            name = f"wick-difference scalar n={n}"
            out.append(_record(name, check.lhs, check.rhs, check.passed))
        word4 = (SX, SY, SZ, SX)
        tables = wick_difference_bound_table(drawn, [word4[:2], word4[:4]], budget)
        for idx, checks in enumerate(tables):
            for n, check in zip((2, 4), checks):
                name = f"wick-difference random pair {idx} n={n}"
                out.append(_record(name, check.lhs, check.rhs_padded, check.passed))
        return out

    return records


# in report order: each check takes (cfg, seed), reads all of its keys, trips every
# cost guard they decide, and returns the zero-argument computation of its records
_BOUNDS_CHECKS = {
    "counting": _counting,
    "weight-sum": _weight_sum,
    "seminorm-comparison": _seminorm_comparison,
    "wick-difference": _wick_difference,
}


def run_bounds(cfg: dict, seed: int) -> tuple:
    # a list, so an unhashable entry is an unknown check, not a TypeError
    known = list(_BOUNDS_CHECKS)
    selected = cfg.get("checks", known)
    if not isinstance(selected, list) or not selected:
        raise ConfigError("checks must be a nonempty list")
    for name in selected:
        if name not in known:
            raise ConfigError(f"unknown bounds check {name!r}")
    # every selected check reads its keys and trips their guards before any runs
    runs = [check(cfg, seed) for name, check in _BOUNDS_CHECKS.items() if name in selected]
    records = [record for run in runs for record in run()]
    all_pass = all(r["pass"] for r in records)
    doc = {"experiment": "bounds", "checks": records, "all_pass": all_pass}
    failure = None if all_pass else "one or more bound checks failed"
    return json.dumps(doc, indent=2) + "\n", failure


# each runner takes (cfg, seed) and returns (output text, failure message or None)
_EXPERIMENTS = {
    "moments": run_moments,
    "converge": run_converge,
    "ccr-decay": run_ccr_decay,
    "cluster-verify": run_cluster_verify,
    "bounds": run_bounds,
}


_OPTIONS = ("--config", "--out", "--threads")
_HELP = ("-h", "--help")
_USAGE = "usage: flab {%s} --config PATH [--out PATH] [--threads N]\n" % ",".join(_EXPERIMENTS)


def _read_argv(argv: list[str]) -> tuple | None:
    """The (experiment, config, out, threads) of an argv, or None for help.

    The grammar is ``<experiment> --config P [--out P] [--threads N]``,
    or ``-h``/``--help`` in place of the experiment or of an option. Each
    option is its full name after the experiment, as ``--opt value`` (the
    next word, taken as is) or ``--opt=value``; a repeated option keeps
    its last value. Anything else raises ConfigError.
    """
    if not argv:
        raise ConfigError("an experiment subcommand is required")
    experiment, rest = argv[0], iter(argv[1:])
    if experiment in _HELP:
        return None
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r} (choose from {', '.join(_EXPERIMENTS)})"
        )
    opts = {}
    for arg in rest:
        if arg in _HELP:
            return None
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            raise ConfigError(f"unrecognized argument {arg!r}")
        if not eq:
            value = next(rest, None)
            if value is None:
                raise ConfigError(f"option {name} needs a value")
        opts[name] = value
    if "--config" not in opts:
        raise ConfigError("option --config is required")
    threads = opts.get("--threads")
    if threads is not None:
        try:
            threads = int(threads)
        except ValueError:
            raise ConfigError(f"option --threads needs an integer, got {threads!r}") from None
    return experiment, opts["--config"], opts.get("--out"), threads


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_USAGE)
            return 0
        experiment, config, out_path, threads = args
        try:
            with open(config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # bad JSON, bad UTF-8, an integer past the digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        # rows run in order; the thread count is validated but not used
        json_int("threads", cfg.get("threads", 1) if threads is None else threads, 1)
        seed = _config_int(cfg, "seed", 0, 0)
        if out_path is None and "out" in cfg:
            out_path = cfg["out"]
            # open() would take an int as a file descriptor
            if not isinstance(out_path, str) or not out_path:
                raise ConfigError(f"'out' must be a nonempty path string, got {out_path!r}")

        # numbers past the float range fail here, not as warnings and nan rows
        with np.errstate(over="raise", invalid="raise"):
            text, failure = _EXPERIMENTS[experiment](cfg, seed)
        _emit(text, out_path)
        if failure is not None:
            _err(1, failure)
            return 1
        return 0
    except ConfigError as exc:
        _err(2, str(exc))
        return 2
    except FloatingPointError as exc:
        _err(2, f"config numbers leave the float range: {exc}")
        return 2
    except CostGuardError as exc:
        _err(3, f"cost guard '{exc.guard}': {exc}")
        return 3
    except Exception as exc:  # noqa: BLE001
        _err(1, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
