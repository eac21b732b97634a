"""Experiment driver: configs, CSV/JSON output, exit codes, determinism."""

import dataclasses
import importlib.util
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import (
    brute_induced_moment,
    circuit_dense_density,
    dense_expect,
    dense_site_mean,
)

from flab import SX, SY, SZ, random_density
from flab.cli import COUNTING_RADIUS_GUARD, RANDOM_PAIRS_GUARD, REGION_SIZE_GUARD, main

PRODUCT_GROUND = {"kind": "product", "rho": [[1.0, 0.0], [0.0, 0.0]]}
PRODUCT_TILTED = {"kind": "product", "rho": [[0.75, 0.0], [0.0, 0.25]]}
MARKOV_STD = {"kind": "markov", "T": [[0.8, 0.2], [0.2, 0.8]], "alpha": 0.4}
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# =============================================================================
# converge
# =============================================================================

def test_converge_kurtosis_column(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "state": PRODUCT_GROUND,
            "word": ["X", "X", "X", "X"],
            "sizes": [4, 8, 16, 32, 64],
        },
    )
    code, out, err = run(["converge", "--config", cfg], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "region_size,n,moment_re,moment_im,wick_re,wick_im,abs_diff"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        size = int(fields[0])
        assert int(fields[1]) == 4
        assert float(fields[4]) == 3.0
        assert abs(float(fields[6]) - 2.0 / size) < 1e-10


def test_converge_degree_two_is_exact(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": PRODUCT_GROUND, "word": ["X", "X"], "sizes": [2, 5, 9]},
    )
    code, out, _ = run(["converge", "--config", cfg], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        assert float(line.split(",")[6]) == 0.0


def test_converge_writes_file_with_lf_endings(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    cfg = write_config(
        tmp_path,
        {
            "state": PRODUCT_GROUND,
            "word": ["X", "X"],
            "sizes": [2, 4],
            "out": str(out_path),
        },
    )
    code, out, _ = run(["converge", "--config", cfg], capsys)
    assert code == 0
    assert out == ""  # routed to the file instead of stdout
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode().splitlines()[0].startswith("region_size,")


def test_converge_float_fields_roundtrip(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": PRODUCT_TILTED, "word": ["Z", "Z", "Z"], "sizes": [3, 7]},
    )
    code, out, _ = run(["converge", "--config", cfg], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        for field in line.split(",")[2:]:
            val = float(field)  # every numeric field parses back
            assert "," not in field
            assert format(val, ".17g") == field


# =============================================================================
# moments
# =============================================================================

def test_moments_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": MARKOV_STD, "word": ["Z", "Z"], "sizes": [2, 4, 8]},
    )
    code, out, _ = run(["moments", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "region_size,degree,moment_re,moment_im"
    vals = [float(l.split(",")[2]) for l in lines[1:]]
    # second moments of the markov chain grow toward the infinite sum 4
    assert vals == sorted(vals)
    assert all(1.0 <= v <= 4.0 for v in vals)


def test_moments_inline_matrix_equals_named_operator(tmp_path, capsys):
    """[[0, 1], [1, 0]] in place of "X" prints the same bytes."""
    outs = []
    for x in ("X", [[0, 1], [1, 0]]):
        doc = {"state": PRODUCT_TILTED, "word": [x, "Z", x, "Z"], "sizes": [3, 5, 8]}
        code, out, err = run(["moments", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[1] == outs[0]
    assert all(float(line.split(",")[2]) != 0.0 for line in outs[0].splitlines()[1:])


def _json_matrix(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)]


def test_moments_circuit_on_mixed_base_matches_dense_oracle(tmp_path, capsys):
    """A circuit whose base is a density matrix, against the dense density
    matrix evolved gate by gate and the brute-force tuple sum."""
    rng = np.random.default_rng(41)
    base = random_density(rng, 2).rho
    layers = [
        (k, np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0])
        for k in (0, 1)
    ]
    state = {
        "kind": "circuit",
        "base": _json_matrix(base),
        "length": 4,
        "layers": [{"offset": k, "gate": _json_matrix(g)} for k, g in layers],
    }
    doc = {"state": state, "word": ["Z", "X", "Y"], "sizes": [2, 3, 4]}
    code, out, err = run(["moments", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")
    full = circuit_dense_density(base, 4, layers)
    expectation, mean = dense_expect(full, 4, 2), dense_site_mean(full, 4, 2)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [2, 3, 4]
    for row in rows:
        size = int(row[0])
        want = brute_induced_moment(range(size), [SZ.mat, SX.mat, SY.mat], expectation, mean)
        assert abs(complex(float(row[2]), float(row[3])) - want) < 1e-11


# =============================================================================
# ccr-decay
# =============================================================================

def test_ccr_decay_closed_family(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "state": PRODUCT_TILTED,
            "pair": ["X", "Y"],
            "prefix": ["Z"],
            "sizes": [4, 9, 16, 25],
            "search_budget": 4,
        },
    )
    code, out, _ = run(["ccr-decay", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "region_size,value_abs,bound,ratio,flag"
    for line in lines[1:]:
        fields = line.split(",")
        size = int(fields[0])
        assert abs(float(fields[1]) - 1.5 / math.sqrt(size)) < 1e-10
        assert abs(float(fields[3]) - 1.5) < 1e-10
        assert fields[4] == "1"


def test_ccr_decay_trivial_pair(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "state": PRODUCT_TILTED,
            "pair": ["X", "X"],
            "sizes": [3, 6],
            "search_budget": 2,
        },
    )
    code, out, _ = run(["ccr-decay", "--config", cfg], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        assert float(fields[1]) == 0.0
        assert fields[4] == "1"


def test_ccr_decay_markov_flags(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "state": MARKOV_STD,
            "pair": ["X", "Y"],
            "sizes": [4, 8, 16],
            "search_budget": 3,
        },
    )
    code, out, _ = run(["ccr-decay", "--config", cfg], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[4] == "1"


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    kind=st.sampled_from(["product", "markov"]),
    p=st.floats(min_value=0.2, max_value=0.8),
    pair=st.lists(st.sampled_from(["X", "Y", "Z"]), min_size=2, max_size=2),
    prefix=st.lists(st.sampled_from(["X", "Y", "Z"]), max_size=1),
    suffix=st.lists(st.sampled_from(["X", "Y", "Z"]), max_size=1),
    sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3, unique=True),
    budget=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=1000),
    scale=st.floats(min_value=0.0, max_value=1.5),
)
def test_ccr_decay_flag_is_the_check_verdict(
    tmp_path, capsys, kind, p, pair, prefix, suffix, sizes, budget, seed, scale
):
    """The flag column is ``CcrDecayCheck.passed``, and the CSV bytes equal
    the rows the CLI wrote when it computed its own flag from the check's
    fields: |value| within bound + slack and |value| sqrt(k) within
    2 C norms + slack. With C scaled down so that rows fail, ``passed``
    is still that flag (and the transport clause)."""
    from flab.algebra import op_norm
    from flab.cli import _format_csv, _parse_word
    from flab.fluctuations import CCR_BOUND_SLACK, TRANSPORT_TOL, ccr_decay_table
    from flab.lattice import Region
    from flab.states import state_from_json

    if kind == "product":
        spec = {"kind": "product", "rho": [[p, 0.0], [0.0, 1.0 - p]]}
    else:
        spec = {"kind": "markov", "T": [[p, 1.0 - p], [1.0 - p, p]], "alpha": 0.4}
    sizes = sorted(sizes)
    doc = {
        "state": spec,
        "pair": pair,
        "prefix": prefix,
        "suffix": suffix,
        "sizes": sizes,
        "search_budget": budget,
        "seed": seed,
    }
    code, out, err = run(["ccr-decay", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")

    state = state_from_json(spec)
    a, b = _parse_word(doc, "pair", 2)
    pre, suf = _parse_word(doc, "prefix", 2), _parse_word(doc, "suffix", 2)
    region = Region(state.metric, range(sizes[-1]))
    checks = ccr_decay_table(
        state, region, a, b, sizes, prefix=pre, suffix=suf, search_budget=budget, seed=seed
    )
    flags = [line.split(",")[4] for line in out.splitlines()[1:]]
    assert flags == ["1" if c.passed else "0" for c in checks]
    norms = 1.0
    for op in pre + (a, b) + suf:
        norms *= op_norm(op)

    def row(size, check):
        value_abs = abs(check.value)
        ratio = value_abs * math.sqrt(size)
        cap = 2.0 * check.c_constant * norms
        flag = value_abs <= check.bound + CCR_BOUND_SLACK and ratio <= cap + CCR_BOUND_SLACK
        return [size, value_abs, check.bound, ratio, flag]

    rows = [row(size, check) for size, check in zip(sizes, checks)]
    assert out == _format_csv(["region_size", "value_abs", "bound", "ratio", "flag"], rows)
    c_value = scale * checks[0].c_constant
    scaled = ccr_decay_table(state, region, a, b, sizes, pre, suf, c_estimate=c_value)
    for size, check in zip(sizes, scaled):
        transport = check.transport_deviation <= TRANSPORT_TOL * max(1.0, norms)
        assert check.transport_ok == transport
        assert check.passed == (transport and row(size, check)[4])


def test_ccr_decay_needs_exactly_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": PRODUCT_TILTED, "pair": ["X", "Y", "Z"], "sizes": [4]},
    )
    code, _, err = run(["ccr-decay", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("ERR 2:")


# =============================================================================
# cluster-verify
# =============================================================================

def test_cluster_verify_markov(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": MARKOV_STD, "sizes": [2, 5, 8], "degrees": [2, 3], "op": "Z"},
    )
    code, out, err = run(["cluster-verify", "--config", cfg], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "region_size,n,residual"
    assert len(lines) == 7
    for line in lines[1:]:
        assert float(line.split(",")[2]) <= 1e-9


@pytest.mark.parametrize(
    "experiment, intro",
    [("converge", "Example `converge` config:"), ("cluster-verify", "`cluster-verify` checks:")],
)
def test_readme_examples_reproduce_their_tables(tmp_path, capsys, experiment, intro):
    """The README's example config writes the table printed after it, byte for byte."""
    text = README.read_text()
    config, table = re.findall(r"```(?:json)?\n(.*?)```", text[text.index(intro) :], re.S)[:2]
    cfg = write_config(tmp_path, json.loads(config))
    code, out, err = run([experiment, "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out == table


# =============================================================================
# bounds
# =============================================================================

def test_bounds_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "state": PRODUCT_TILTED,
            "counting_sizes": [6],
            "counting_max_k": 3,
            "counting_max_r": 2,
            "weight_sizes": [4],
            "weight_degrees": [2],
            "random_pairs": 3,
            "search_budget": 4,
            "seed": 11,
        },
    )
    code, out, err = run(["bounds", "--config", cfg], capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["experiment"] == "bounds"
    assert doc["all_pass"] is True
    names = {c["name"].split()[0] for c in doc["checks"]}
    assert names == {"counting", "weight-sum", "seminorm-comparison", "wick-difference"}
    for c in doc["checks"]:
        assert c["pass"] is True
        assert c["lhs"] <= c["rhs"] + 1e-9


BOUNDS_ALL_CHECKS = {
    "checks": ["counting", "weight-sum", "seminorm-comparison", "wick-difference"],
    "state": MARKOV_STD,
    "counting_sizes": [6],
    "counting_max_k": 3,
    "counting_max_r": 1,
    "weight_sizes": [4],
    "weight_degrees": [2, 3],
    "seminorm_size": 4,
    "seminorm_degrees": [2, 3, 4],
    "random_pairs": 2,
    "search_budget": 4,
}


@pytest.mark.parametrize("seed", [0, 5])
def test_bounds_report_bytes_pinned(tmp_path, capsys, seed):
    """The report of a small four-check config, byte for byte as recorded
    before the norm and centered searches were shared across rows."""
    cfg = write_config(tmp_path, {**BOUNDS_ALL_CHECKS, "seed": seed})
    code, out, err = run(["bounds", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    pinned = Path(__file__).resolve().parent / "data" / f"bounds_seed{seed}.json"
    assert out == pinned.read_text()


CCR_DECAY_PINNED = {
    # centered d = 2 at degree 4: four sizes stack on the basis tensor
    "d2": {
        "state": {"kind": "markov", "T": [[0.7, 0.4], [0.3, 0.6]], "alpha": 0.4},
        "prefix": ["Z", "X"],
        "pair": ["X", "Y"],
        "suffix": ["Y"],
        "sizes": [3, 6, 9, 12],
        "search_budget": 6,
    },
    # centered d = 3 at degree 3: three sizes stack on direct evaluations
    "d3": {
        "state": {
            "kind": "markov",
            "T": [[0.6, 0.2, 0.3], [0.3, 0.5, 0.3], [0.1, 0.3, 0.4]],
            "alpha": 0.4,
        },
        "prefix": [[[1, 0, 0], [0, -1, 0], [0, 0, 0]]],
        "pair": [[[1, 1, 0], [1, 0, 0], [0, 0, -1]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
        "suffix": [[[0, 1, 0], [1, 1, 0], [0, 0, 0]]],
        "sizes": [2, 4, 6],
        "search_budget": 4,
    },
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", sorted(CCR_DECAY_PINNED))
def test_ccr_decay_report_bytes_pinned(tmp_path, capsys, case, seed):
    """Two Markov ccr-decay reports whose sizes share one search stack,
    byte for byte as recorded while each size still searched alone."""
    cfg = write_config(tmp_path, {**CCR_DECAY_PINNED[case], "seed": seed})
    code, out, err = run(["ccr-decay", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    pinned = Path(__file__).resolve().parent / "data" / f"ccr_decay_{case}_seed{seed}.csv"
    assert out == pinned.read_text()


def _engine_calls(monkeypatch):
    """Wrap the product and Markov engines and ``_Candidates.send``: each
    engine call appends (word count, sizes, mixed). A call inside a send
    is mixed unless its words are one of the lists that send's items
    passed, byte for byte."""
    from flab import fluctuations

    calls, active = [], []
    real_send = fluctuations._Candidates.send
    real_markov, real_product = fluctuations.markov_moment_batch, fluctuations.product_moment_batch

    def send(self, words):
        stacks = (np.array([[a.mat for a in w] for w in ws]) for ws in words.values())
        active.append({stack.tobytes() for stack in stacks})
        try:
            return real_send(self, words)
        finally:
            active.pop()

    def note(stack, sizes):
        calls.append((len(stack), list(sizes), bool(active) and stack.tobytes() not in active[-1]))

    def markov(state, sites, stack, sizes):
        note(stack, sizes)
        return real_markov(state, sites, stack, sizes)

    def product(rho, sizes, stack):
        note(stack, sizes)
        return real_product(rho, sizes, stack)

    monkeypatch.setattr(fluctuations._Candidates, "send", send)
    monkeypatch.setattr(fluctuations, "markov_moment_batch", markov)
    monkeypatch.setattr(fluctuations, "product_moment_batch", product)
    return calls


@pytest.mark.parametrize("case", ["product", "d3"])
def test_ccr_decay_table_engine_calls_pinned(tmp_path, capsys, monkeypatch, case):
    """The engine calls of a ccr-decay table, seed 0. Items that send equal
    word lists share one size table; distinct lists are sent apart, so no
    call holds words of two lists.

    - product, tensor side: the defect, rest and commutator tables, the
      basis tensor and the near-tie words, each one pass at all 4 sizes.
    - ``CCR_DECAY_PINNED["d3"]``, direct side: the three tables, then the
      head words, the random words and the first ascent trials at all 3
      sizes; once the items' words part, each sends its own at its size.
    """
    doc = {
        "product": {
            "state": PRODUCT_TILTED,
            "prefix": ["Z"],
            "pair": ["X", "Y"],
            "suffix": ["X"],
            "sizes": [2, 4, 6, 8],
            "search_budget": 4,
        },
        "d3": CCR_DECAY_PINNED["d3"],
    }[case]
    calls = _engine_calls(monkeypatch)
    code, _, err = run(["ccr-decay", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")
    sizes = doc["sizes"]
    if case == "product":
        want = [(count, sizes) for count in (2, 1, 1, 27, 4)]
    else:
        want = [(count, sizes) for count in (2, 1, 1, 27, 4, 8)] + [(1, [k]) for k in sizes]
        want += 5 * ([(8, [k]) for k in sizes] + [(1, [k]) for k in sizes])
    assert [(count, table) for count, table, _ in calls] == want
    assert not any(mixed for _, _, mixed in calls)


def _bench_workloads():
    """``bench/workloads.py``, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 7])
def test_bound_checks_cluster_verify_bytes_pinned(tmp_path, capsys, seed):
    """The cluster-verify report of the bound-checks benchmark workload,
    byte for byte as recorded while the correction swept one row per
    (subset, partition) and summed its terms one at a time."""
    (cfg,) = [
        cfg
        for experiment, _, cfg in _bench_workloads().experiments("bound-checks", seed)
        if experiment == "cluster-verify"
    ]
    code, out, err = run(["cluster-verify", "--config", write_config(tmp_path, cfg)], capsys)
    assert (code, err) == (0, "")
    pinned = Path(__file__).resolve().parent / "data" / f"cluster_verify_seed{seed}.csv"
    assert out == pinned.read_text()


def test_bound_checks_cluster_verify_sweeps_once_per_degree(tmp_path, capsys, monkeypatch):
    """The seed-0 cluster-verify config of the bound-checks workload makes
    44 Markov ``expect_rows`` grids: one correction sweep per degree over
    the largest region, read out at every size. Sweeping each (size,
    degree) row's own prefix made 105."""
    from flab.states import MarkovState

    (cfg,) = [
        cfg
        for experiment, _, cfg in _bench_workloads().experiments("bound-checks", 0)
        if experiment == "cluster-verify"
    ]
    grids = []
    real = MarkovState.expect_rows

    def counted(self, *args):
        grids.append(len(args[1]))
        return real(self, *args)

    monkeypatch.setattr(MarkovState, "expect_rows", counted)
    code, _, err = run(["cluster-verify", "--config", write_config(tmp_path, cfg)], capsys)
    assert (code, err) == (0, "")
    assert len(grids) == 44


@pytest.mark.parametrize("seed", [0, 7])
def test_moment_tables_product_converge_bytes_pinned(tmp_path, capsys, seed):
    """The product X^6 converge table of the moment-tables benchmark
    workload (sizes 1..21), byte for byte as recorded while the product
    closed form ran once per size. X^2 = 1, so the table does not depend
    on the seed's diagonal density, and both seeds share one file."""
    (cfg,) = [
        cfg
        for _, name, cfg in _bench_workloads().experiments("moment-tables", seed)
        if name == "product_x6"
    ]
    code, out, err = run(["converge", "--config", write_config(tmp_path, cfg)], capsys)
    assert (code, err) == (0, "")
    pinned = Path(__file__).resolve().parent / "data" / "converge_product_x6.csv"
    assert out == pinned.read_text()


# The Markov tables of the benchmark workloads at seeds 0 and 7, configs
# inline: moment-tables' one-word moments at degrees 10 and 12, and
# markov-search's Z^4 converge table, which does not depend on the seed
MARKOV_TABLES_PINNED = {
    "moments_markov_deg10_seed0": ("moments", list("YXXXXXYYYX"), [1, 2, 3, 4, 5, 6]),
    "moments_markov_deg10_seed7": ("moments", list("ZXYXYXXYZX"), [1, 2, 3, 4, 5, 6]),
    "moments_markov_deg12_seed0": ("moments", list("XXYYYYYYZXYZ"), [1, 2, 3, 4]),
    "moments_markov_deg12_seed7": ("moments", list("ZXYXXXXYZXZY"), [1, 2, 3, 4]),
    "converge_markov_z4": ("converge", list("ZZZZ"), list(range(1, 65))),
}


@pytest.mark.parametrize("name", sorted(MARKOV_TABLES_PINNED))
def test_markov_tables_bytes_pinned(tmp_path, capsys, name):
    """Each table byte for byte as recorded while the Markov sweep kept
    its (word, subset, i, j) layout."""
    experiment, word, sizes = MARKOV_TABLES_PINNED[name]
    cfg = write_config(tmp_path, {"state": MARKOV_STD, "word": word, "sizes": sizes})
    code, out, err = run([experiment, "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).resolve().parent / "data" / f"{name}.csv").read_text()


# The circuit tables, recorded while the circuit engine stepped on
# np.tensordot and np.moveaxis: the moment-tables workload's Pauli word
# (length 12, two layers of one seeded random gate, sizes 4, 8 and 12) at
# seeds 0 and 7, and an inline complex-matrix word on a mixed base, with the
# seed-0 gate on 8 sites
CIRCUIT_MIXED_BASE = [[0.7, [0.1, 0.2]], [[0.1, -0.2], 0.3]]
CIRCUIT_COMPLEX_WORD = [
    [[[0.3, -1.1], [1.7, 0.4]], [[-0.6, 0.9], [0.2, -0.5]]],
    [[[-1.3, 0.2], [0.5, 0.8]], [[0.7, -0.4], [1.1, 1.6]]],
    [[[0.9, 0.6], [-0.8, -1.2]], [[0.4, 0.3], [-0.7, 0.1]]],
]


@pytest.mark.parametrize(
    "name", ["moments_circuit_deg4_seed0", "moments_circuit_deg4_seed7", "moments_circuit_complex"]
)
def test_circuit_tables_bytes_pinned(tmp_path, capsys, name):
    """Each circuit table byte for byte as recorded before the engine
    stepped on (left, d, right) views."""
    seed = 7 if name.endswith("seed7") else 0
    (cfg,) = [
        cfg
        for _, key, cfg in _bench_workloads().experiments("moment-tables", seed)
        if key == "circuit_deg4"
    ]
    if name == "moments_circuit_complex":
        state = dict(cfg["state"], base=CIRCUIT_MIXED_BASE, length=8)
        cfg = {"state": state, "word": CIRCUIT_COMPLEX_WORD, "sizes": [3, 6, 8]}
    code, out, err = run(["moments", "--config", write_config(tmp_path, cfg)], capsys)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).resolve().parent / "data" / f"{name}.csv").read_text()


def _record_searches(monkeypatch):
    """Wrap the stacked search engine; each item of each stack appends its
    (functional, n, budget, omega bytes, seed) key. A covariance functional
    is keyed by its matrix (each norm search builds a new one), a moment
    functional by identity (the list keeps it alive, so no id is reused)."""
    from flab import fluctuations, gaussian

    keys, alive = [], []
    real = fluctuations._search_stack

    def record(functionals, n, dim, budget, omega, seeds, *rest):
        omega_bytes = None if omega is None else omega.rho.tobytes()
        for functional, seed in zip(functionals, seeds):
            cov = getattr(functional, "cov", None)
            alive.append(functional)
            who = ("covariance", cov.matrix.tobytes()) if cov is not None else id(functional)
            keys.append((who, n, budget, omega_bytes, seed))
        return real(functionals, n, dim, budget, omega, seeds, *rest)

    monkeypatch.setattr(fluctuations, "_search_stack", record)
    monkeypatch.setattr(gaussian, "_search_stack", record)
    return keys


def test_bounds_runs_each_search_once(tmp_path, capsys, monkeypatch):
    """Degrees 2, 3, 4 make 3 plain and 5 centered searches (k = 0..4); the
    scalar pair and each of 3 random pairs make 3 norm searches: 20 in all."""
    keys = _record_searches(monkeypatch)
    cfg = write_config(tmp_path, {**BOUNDS_ALL_CHECKS, "random_pairs": 3, "seed": 2})
    code, _, err = run(["bounds", "--config", cfg], capsys)
    assert (code, err) == (0, "")
    assert len(set(keys)) == len(keys) == 3 + 5 + 3 * (1 + 3)


def test_bounds_zero_random_pairs_keeps_the_scalar_records(tmp_path, capsys):
    """random_pairs 0 searches an empty stack of random pairs: the report
    holds only the two scalar wick-difference records, as a run with
    random pairs writes them."""
    reports = []
    for pairs in (0, 2):
        doc = {**BOUNDS_ALL_CHECKS, "checks": ["wick-difference"], "random_pairs": pairs}
        code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    names = [c["name"] for c in reports[0]["checks"]]
    assert names == ["wick-difference scalar n=2", "wick-difference scalar n=4"]
    assert reports[0]["checks"] == reports[1]["checks"][:2]
    assert reports[0]["all_pass"] is True


def test_bounds_seminorm_degree_guard_before_search(tmp_path, capsys, monkeypatch):
    keys = _record_searches(monkeypatch)
    doc = {**BOUNDS_ALL_CHECKS, "seminorm_degrees": [2, 7]}
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3
    assert out == ""
    assert err == "ERR 3: cost guard 'seminorm comparison degree': degree 7 exceeds 6\n"
    assert keys == []


@pytest.mark.parametrize(
    "checks", [["wick-difference"], BOUNDS_ALL_CHECKS["checks"]]
)
def test_random_pairs_guard_exits_three(tmp_path, capsys, monkeypatch, checks):
    """Each random pair runs three searches, so a huge count is refused
    before any check runs, whichever checks come before it."""
    keys = _record_searches(monkeypatch)
    too_many = RANDOM_PAIRS_GUARD + 1
    doc = {**BOUNDS_ALL_CHECKS, "checks": checks, "random_pairs": too_many}
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        f"ERR 3: cost guard 'random pairs': random_pairs = {too_many} exceeds 1000\n"
    )
    assert keys == []


def _refuse_work(monkeypatch, *names):
    """Make each named ``flab.cli`` function record its call and raise."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the guard")

        return call

    for name in names:
        monkeypatch.setattr(f"flab.cli.{name}", refuse(name))
    return calls


@pytest.mark.parametrize(
    "checks", [["seminorm-comparison"], BOUNDS_ALL_CHECKS["checks"]]
)
def test_bounds_seminorm_size_guard_before_region(tmp_path, capsys, monkeypatch, checks):
    """A huge seminorm_size trips the tuple guard at its largest degree
    before any check runs and before its region is built."""
    calls = _refuse_work(monkeypatch, "_segment", "Region", "count_subsets_with_spread")
    doc = {**BOUNDS_ALL_CHECKS, "checks": checks, "seminorm_size": 10**9}
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "ERR 3: cost guard 'induced-moment tuple sum': "
        "|X|^n = 1000000000^4 exceeds 100000000\n"
    )
    assert calls == []


@pytest.mark.parametrize("checks", [["counting"], BOUNDS_ALL_CHECKS["checks"]])
def test_counting_radius_guard_exits_three(tmp_path, capsys, monkeypatch, checks):
    """counting_max_r above its guard is refused before any radius is counted."""
    calls = _refuse_work(monkeypatch, "_segment", "Region", "count_subsets_with_spread")
    doc = {**BOUNDS_ALL_CHECKS, "checks": checks, "counting_max_r": 10**9}
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "ERR 3: cost guard 'counting radii': counting_max_r = 1000000000 exceeds 1000\n"
    )
    assert calls == []


def test_counting_radius_guard_admits_its_limit(tmp_path, capsys):
    doc = {
        "checks": ["counting"],
        "counting_sizes": [3],
        "counting_max_k": 2,
        "counting_max_r": COUNTING_RADIUS_GUARD,
    }
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["checks"]) == COUNTING_RADIUS_GUARD + 1


@pytest.mark.parametrize("alone", [True, False], ids=["alone", "all-checks"])
@pytest.mark.parametrize(
    ("check", "key", "sizes", "message"),
    [
        (
            "counting",
            "counting_sizes",
            [6, 10**9],
            "'subset-spread enumeration': 499999999500000000 subsets exceeds 2000000",
        ),
        (
            "weight-sum",
            "weight_sizes",
            [4, 10**9],
            "'weight-sum enumeration': |X|^n = 1000000000^2 exceeds 10000000",
        ),
    ],
    ids=["counting", "weight-sum"],
)
def test_bounds_enumeration_guards_before_region(
    tmp_path, capsys, monkeypatch, check, key, sizes, message, alone
):
    """Every counting (size, k) and weight-sum (size, n) passes its guard
    before any check runs, so a huge last size builds no region."""
    calls = _refuse_work(
        monkeypatch, "_segment", "Region", "count_subsets_with_spread", "b_n_quantity"
    )
    checks = [check] if alone else BOUNDS_ALL_CHECKS["checks"]
    doc = {**BOUNDS_ALL_CHECKS, "checks": checks, key: sizes}
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3
    assert out == ""
    assert err == f"ERR 3: cost guard {message}\n"
    assert calls == []


@pytest.mark.parametrize(
    ("checks", "change", "error"),
    [
        (None, {"state": None}, "ERR 2: config is missing the state spec"),
        (None, {"state": {"kind": "nope"}}, "ERR 2: bad state spec: unknown state kind 'nope'"),
        (None, {"search_budget": "x"}, "ERR 2: 'search_budget' must be an integer >= 0, got 'x'"),
        (None, {"search_budget": True}, "ERR 2: 'search_budget' must be an integer >= 0, got True"),
        (
            ["counting", "seminorm-comparison"],
            {"search_budget": 10**9},
            "ERR 3: cost guard 'search draws': search_budget * n = 1000000000 * 2 exceeds 65536",
        ),
        (
            ["counting", "wick-difference"],
            {"search_budget": 10**9},
            "ERR 3: cost guard 'search draws': search_budget * n = 1000000000 * 2 exceeds 65536",
        ),
        (
            None,
            {"seminorm_degrees": [2, 7]},
            "ERR 3: cost guard 'seminorm comparison degree': degree 7 exceeds 6",
        ),
        (
            None,
            {"weight_degrees": [2, 9]},
            "ERR 3: cost guard 'weight-majorant degree': degree 9 exceeds 8",
        ),
    ],
    ids=[
        "state-missing",
        "state-unknown",
        "budget-string",
        "budget-bool",
        "draws-seminorm",
        "draws-wick",
        "seminorm-degree",
        "weight-degree",
    ],
)
def test_bounds_key_errors_before_any_check(tmp_path, capsys, monkeypatch, checks, change, error):
    """Each check reads every key it uses, and trips every guard they
    decide, before any check computes a record."""
    calls = _refuse_work(
        monkeypatch,
        "count_subsets_with_spread",
        "b_n_quantity",
        "b_hat_bound",
        "seminorm_comparison_table",
        "wick_difference_bound_table",
    )
    doc = {**BOUNDS_ALL_CHECKS, **change}
    doc = {key: value for key, value in doc.items() if value is not None}
    if checks is not None:
        doc["checks"] = checks
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, err) == (int(error[4]), "", error + "\n")
    assert calls == []


def test_bounds_seminorm_size_outside_circuit_exits_two(tmp_path, capsys, monkeypatch):
    """A seminorm_size past a circuit's last site is a config error, found
    before any check runs (it was ERR 1 from the moment engine)."""
    calls = _refuse_work(monkeypatch, "count_subsets_with_spread", "seminorm_comparison_table")
    circuit = {**CIRCUIT_KET, "length": 4}
    doc = {"checks": ["counting", "seminorm-comparison"], "state": circuit, "search_budget": 1}
    code, out, err = run(["bounds", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == "ERR 2: region size 6 needs site 5, outside the state\n"
    assert calls == []


@pytest.mark.parametrize("experiment", ["moments", "converge", "ccr-decay", "cluster-verify"])
def test_sizes_outside_circuit_exit_two(tmp_path, capsys, experiment):
    """The largest region size must fit the state's domain (a circuit's length)."""
    doc = {"state": CIRCUIT_KET, "word": ["Z", "Z"], "pair": ["X", "Y"], "sizes": [2, 4]}
    code, out, err = run([experiment, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == "ERR 2: region size 4 needs site 3, outside the state\n"


def test_cluster_verify_degree_guard_before_any_row(tmp_path, capsys, monkeypatch):
    """A degree above the product part's limit is refused before any row runs."""
    calls = _refuse_work(monkeypatch, "_segment", "decomposition_table")
    doc = {"state": MARKOV_STD, "sizes": [2], "degrees": [2, 9]}
    code, out, err = run(["cluster-verify", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (3, "")
    assert err == "ERR 3: cost guard 'product-part partition sum': degree 9 exceeds 8\n"
    assert calls == []


def test_cluster_verify_guard_before_any_row(tmp_path, capsys, monkeypatch):
    """Every (size, degree) passes the correction guard before any region
    is built or any row runs, so the huge last size is refused at once,
    also on metrics that lack the sites 0..size-1 (grid2d, explicit)."""
    calls = _refuse_work(monkeypatch, "Region", "_segment", "decomposition_table")
    for state in (MARKOV_STD, GRID_STATE, EXPLICIT_STATE):
        doc = {"state": state, "sizes": [2, 4, 10**9], "degrees": [2, 3]}
        code, out, err = run(["cluster-verify", "--config", write_config(tmp_path, doc)], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "ERR 3: cost guard 'correction tuple sum': "
            "|X|^n = 1000000000^2 exceeds 10000000\n"
        )
        assert calls == []


LOW_DEGREE_HUGE_REGIONS = [
    ("cluster-verify", {"state": MARKOV_STD, "sizes": [2, 10**7], "degrees": [1]}, 10**7),
    ("moments", {"state": PRODUCT_TILTED, "word": ["Z"], "sizes": [2, 10**6]}, 10**6),
    *[
        (
            "bounds",
            {**BOUNDS_ALL_CHECKS, "seminorm_size": 10**8, "seminorm_degrees": [degree]},
            10**8,
        )
        for degree in (0, 1)
    ],
    ("bounds", {**BOUNDS_ALL_CHECKS, "weight_sizes": [4, 10**7], "weight_degrees": [1]}, 10**7),
]


@pytest.mark.parametrize("experiment, doc, size", LOW_DEGREE_HUGE_REGIONS)
def test_low_degree_region_size_guard(tmp_path, capsys, monkeypatch, experiment, doc, size):
    """At degree 0 or 1 the m**n guards admit millions of sites; the region
    guard refuses such a size before any Region is constructed."""
    calls = _refuse_work(
        monkeypatch, "Region", "decomposition_table", "induced_moment_table", "b_n_quantity"
    )
    code, out, err = run([experiment, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, calls) == (3, "", [])
    assert err == (
        f"ERR 3: cost guard 'region size': region size {size} exceeds {REGION_SIZE_GUARD}\n"
    )


@pytest.mark.parametrize(
    "experiment, doc",
    [
        ("moments", {"state": MARKOV_STD, "word": ["Z"] * 3, "sizes": [2, 10**4]}),
        ("converge", {"state": PRODUCT_TILTED, "word": ["X"] * 3, "sizes": [10**4]}),
        (
            "ccr-decay",
            {"state": MARKOV_STD, "pair": ["Z", "X"], "suffix": ["Y"], "sizes": [10**4]},
        ),
    ],
)
def test_moment_tables_guard_before_region(tmp_path, capsys, monkeypatch, experiment, doc):
    """A degree-3 table at the region guard's edge, 10^4 sites, trips the
    |X|^n guard before any Region is built; for ccr-decay the degree is
    that of the defect word."""
    calls = _refuse_work(monkeypatch, "Region", "_segment")
    code, out, err = run([experiment, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, calls) == (3, "", [])
    assert err == (
        "ERR 3: cost guard 'induced-moment tuple sum': |X|^n = 10000^3 exceeds 100000000\n"
    )


def test_region_size_guard_edge(tmp_path, capsys):
    """REGION_SIZE_GUARD sites are admitted, one more is refused."""
    for size, want in ((REGION_SIZE_GUARD, 0), (REGION_SIZE_GUARD + 1, 3)):
        doc = {"state": PRODUCT_TILTED, "word": ["Z"], "sizes": [size]}
        code, out, err = run(["moments", "--config", write_config(tmp_path, doc)], capsys)
        assert code == want, err


def test_cluster_verify_checks_every_region_before_any_row(tmp_path, capsys, monkeypatch):
    """A metric without a middle site of the largest region is ERR 2 before
    the smaller sizes' rows run."""
    calls = _refuse_work(monkeypatch, "decomposition_table")
    state = {
        **PRODUCT_TILTED,
        "metric": {
            "kind": "explicit",
            "sites": [0, 1, 3],
            "distances": [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
        },
    }
    doc = {"state": state, "sizes": [2, 4], "degrees": [2]}
    code, out, err = run(["cluster-verify", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "ERR 2: region size 4 needs the sites 0..3 of the state's metric: "
        "site 2 not in explicit metric\n"
    )
    assert calls == []


def test_bounds_rejects_unknown_check(tmp_path, capsys):
    for bad in ("nonsense", ["counting"]):
        cfg = write_config(tmp_path, {"checks": ["counting", bad]})
        code, _, err = run(["bounds", "--config", cfg], capsys)
        assert code == 2
        assert err.startswith("ERR 2: unknown bounds check")


# =============================================================================
# Error lanes
# =============================================================================

def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(["converge", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert err.startswith("ERR 2:")
    assert err.count("\n") == 1  # single line


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["converge", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("ERR 2:")


def test_empty_sizes_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"state": PRODUCT_GROUND, "word": ["X"], "sizes": []}
    )
    code, _, err = run(["converge", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("ERR 2:")


def test_descending_sizes_rejected(tmp_path, capsys):
    # a bool or float size is refused too, not read as 1 or truncated
    for sizes in ([4, 2], [True, 2], [2.5, 3]):
        cfg = write_config(
            tmp_path, {"state": PRODUCT_GROUND, "word": ["X"], "sizes": sizes}
        )
        code, _, err = run(["converge", "--config", cfg], capsys)
        assert code == 2
        assert err.startswith("ERR 2:")


def test_unknown_operator_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"state": PRODUCT_GROUND, "word": ["Q"], "sizes": [2]}
    )
    code, _, err = run(["converge", "--config", cfg], capsys)
    assert code == 2
    assert "operator" in err


def test_unknown_experiment_rejected(capsys):
    code, _, err = run(["meltdown", "--config", "x.json"], capsys)
    assert code == 2
    assert err.startswith("ERR 2:")


def test_non_object_state_or_metric_rejected(tmp_path, capsys):
    """A state or metric spec that is not a JSON object is a config error."""
    product_on = {"kind": "product", "rho": [[1.0, 0.0], [0.0, 0.0]], "metric": "chain"}
    for state, shown in (([], "[]"), ("markov", "'markov'"), (product_on, "'chain'")):
        cfg = write_config(tmp_path, {"state": state, "word": ["X", "X"], "sizes": [2]})
        code, out, err = run(["moments", "--config", cfg], capsys)
        assert code == 2, state
        assert out == ""
        kind = "metric" if state is product_on else "state"
        assert err == f"ERR 2: bad state spec: {kind} spec must be an object, got {shown}\n"


def test_circuit_float_or_bool_integers_rejected(tmp_path, capsys):
    """A circuit length of 3.7 or an offset of true exits ERR 2, not 3 sites or offset 1."""
    layer = {"offset": 0, "gate": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    circuit = {"kind": "circuit", "base": {"ket": [1, 0]}, "length": 3, "layers": [layer]}
    for key, bad, state in (
        ("length", 3.7, {**circuit, "length": 3.7}),
        ("offset", True, {**circuit, "layers": [{**layer, "offset": True}]}),
    ):
        cfg = write_config(tmp_path, {"state": state, "word": ["Z", "Z"], "sizes": [2]})
        code, out, err = run(["moments", "--config", cfg], capsys)
        assert code == 2, key
        assert out == ""
        assert err == f"ERR 2: bad state spec: {key!r} must be an integer, got {bad!r}\n"


CIRCUIT_KET = {"kind": "circuit", "base": {"ket": [1, 0]}, "length": 3}


@pytest.mark.parametrize(
    "state, shown",
    [
        ({**MARKOV_STD, "alpha": "0.4"}, "'alpha' must be a number, got '0.4'"),
        ({**MARKOV_STD, "alpha": True}, "'alpha' must be a number, got True"),
        (
            {**MARKOV_STD, "T": [["0.8", 0.2], [0.2, 0.8]]},
            "a 'T' entry must be a number, got '0.8'",
        ),
        ({**MARKOV_STD, "pi": [True, False]}, "a 'pi' entry must be a number, got True"),
        (
            {"kind": "product", "rho": [[True, 0], [0, False]]},
            "a matrix or ket entry must be a number, got True",
        ),
        (
            {**PRODUCT_TILTED, "metric": {"kind": "chain", "scale": True}},
            "'scale' must be a number, got True",
        ),
        (
            {**PRODUCT_TILTED, "metric": {"kind": "chain", "scale": "2"}},
            "'scale' must be a number, got '2'",
        ),
        (
            {
                **PRODUCT_TILTED,
                "metric": {"kind": "explicit", "sites": [0, 1], "distances": [[0, "1"], [1, 0]]},
            },
            "a 'distances' entry must be a number, got '1'",
        ),
        ({**CIRCUIT_KET, "scale": "1"}, "'scale' must be a number, got '1'"),
        (
            {**CIRCUIT_KET, "base": {"ket": [True, False]}},
            "a matrix or ket entry must be a number, got True",
        ),
    ],
)
def test_state_spec_numbers_must_be_json_numbers(tmp_path, capsys, state, shown):
    """A string or bool where the spec wants a number exits ERR 2, not a table."""
    cfg = write_config(tmp_path, {"state": state, "word": ["Z", "Z"], "sizes": [2]})
    code, out, err = run(["moments", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == f"ERR 2: bad state spec: {shown}\n"


HUGE_GATE = [[1e200 if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "state",
    [
        {**CIRCUIT_KET, "layers": [{"offset": 0, "gate": HUGE_GATE}]},
        {**MARKOV_STD, "T": [[1e308, 0.2], [1e308, 0.8]]},
        {"kind": "product", "rho": [[1e308, 0.0], [0.0, 1e308]]},
        {**CIRCUIT_KET, "base": {"ket": [1e300, 1e300]}},
    ],
    ids=["gate", "column-sums", "trace", "ket-norm"],
)
def test_overflowing_state_numbers_exit_err_2_alone(tmp_path, capsys, state):
    """Finite entries whose unitarity, column sum, trace or norm overflows
    exit ERR 2 on one stderr line, with no numpy warning before it."""
    cfg = write_config(tmp_path, {"state": state, "word": ["X", "X"], "sizes": [2]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["moments", "--config", cfg], capsys)
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("ERR 2: bad state spec: overflow encountered in ")
    assert err.count("\n") == 1


HUGE_SLOT = [[1e200, 0], [0, 1]]
HUGE_OP = [[1e300, 0], [0, 1]]


@pytest.mark.parametrize(
    "experiment, doc",
    [
        ("converge", {"state": MARKOV_STD, "word": ["X", HUGE_SLOT, HUGE_SLOT, "X"], "sizes": [2]}),
        ("cluster-verify", {"state": MARKOV_STD, "sizes": [3], "degrees": [3], "op": HUGE_OP}),
    ],
    ids=["converge", "cluster-verify"],
)
def test_overflowing_engine_numbers_exit_err_2_alone(tmp_path, capsys, experiment, doc):
    """Finite operator entries whose moments overflow inside an engine exit
    ERR 2 on one stderr line, with no numpy warning and no nan table."""
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([experiment, "--config", cfg], capsys)
    assert (code, out, caught) == (2, "", [])
    shown = r"ERR 2: config numbers leave the float range: \w+ encountered in \w+\n"
    assert re.fullmatch(shown, err)


NAN_GATE = [[float("nan") if i == j == 0 else float(i == j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "experiment, doc, shown",
    [
        (
            "moments",
            {"state": {**MARKOV_STD, "pi": [float("nan"), 0.5]}},
            "bad state spec: a 'pi' entry must be a number, got nan",
        ),
        (
            "moments",
            {"state": {**PRODUCT_TILTED, "rho": [[float("nan"), 0], [0, 0.25]]}},
            "bad state spec: a matrix or ket entry must be a number, got nan",
        ),
        (
            "moments",
            {"state": MARKOV_STD, "word": ["Z", [[float("nan"), 0], [0, 1]]]},
            "bad inline operator matrix: a matrix or ket entry must be a number, got nan",
        ),
        (
            "moments",
            {"state": {**CIRCUIT_KET, "layers": [{"offset": 0, "gate": NAN_GATE}]}},
            "bad state spec: a matrix or ket entry must be a number, got nan",
        ),
        (
            "moments",
            {"state": {**CIRCUIT_KET, "base": {"ket": [float("nan"), 0]}}},
            "bad state spec: a matrix or ket entry must be a number, got nan",
        ),
        (
            "cluster-verify",
            {"state": MARKOV_STD, "degrees": [2], "op": [[float("nan"), 0], [0, 1]]},
            "bad inline operator matrix: a matrix or ket entry must be a number, got nan",
        ),
        (
            "moments",
            {"state": {**PRODUCT_TILTED, "metric": {"kind": "chain", "scale": float("inf")}}},
            "bad state spec: 'scale' must be a number, got inf",
        ),
        (
            "moments",
            {"state": {**CIRCUIT_KET, "scale": float("-inf")}},
            "bad state spec: 'scale' must be a number, got -inf",
        ),
        (
            "moments",
            {"state": {**MARKOV_STD, "alpha": 10**309}},
            f"bad state spec: 'alpha' must be a number, got {10**309}",
        ),
    ],
    ids=["pi", "rho", "inline-op", "gate", "ket", "cluster-op", "metric-scale", "scale", "big-int"],
)
def test_non_finite_config_numbers_exit_err_2(tmp_path, capsys, experiment, doc, shown):
    """Python's json reads NaN, Infinity and -Infinity, which JSON has not,
    and an integer past the float range: each exits ERR 2 before any work."""
    cfg = write_config(tmp_path, {"word": ["Z", "Z"], "sizes": [2], **doc})
    code, out, err = run([experiment, "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert err == f"ERR 2: {shown}\n"


@pytest.mark.parametrize(
    "raw, reason",
    [
        (b'{"word": ["Z"], "sizes": [' + b"9" * 5000 + b"]}", "Exceeds the limit (4300 digits)"),
        (b'{"a": "\xff\xfe"}', "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["long-int", "non-utf8"],
)
def test_unreadable_config_exits_err_2(tmp_path, capsys, raw, reason):
    """json.load raises a plain ValueError on an integer literal past
    Python's digit limit and a UnicodeDecodeError on bytes that are not
    UTF-8; both are config errors, not failed checks."""
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    code, out, err = run(["moments", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"ERR 2: config is not valid JSON: {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "experiment, key, spec",
    [
        ("moments", "word", ["Z", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]),
        ("ccr-decay", "pair", ["X", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]),
        ("cluster-verify", "op", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ],
)
def test_inline_operator_of_wrong_dimension_rejected(tmp_path, capsys, experiment, key, spec):
    """A 3x3 inline matrix on a d=2 state is a config error, not a failed check."""
    doc = {"state": MARKOV_STD, "sizes": [2], "degrees": [2], "search_budget": 1, key: spec}
    cfg = write_config(tmp_path, doc)
    code, out, err = run([experiment, "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == "ERR 2: inline operator dimension 3 does not match site dimension 2\n"


def test_counting_max_k_bounded_by_q_sequence(tmp_path, capsys):
    cfg = write_config(tmp_path, {"checks": ["counting"], "counting_max_k": 31})
    code, out, err = run(["bounds", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert err == "ERR 2: 'counting_max_k' must be at most 30, got 31\n"


GRID_STATE = {**PRODUCT_TILTED, "metric": {"kind": "grid2d"}}
EXPLICIT_STATE = {
    **PRODUCT_TILTED,
    "metric": {
        "kind": "explicit",
        "sites": [0, 1, 2],
        "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    },
}


@pytest.mark.parametrize(
    "experiment", ["moments", "converge", "ccr-decay", "cluster-verify", "bounds"]
)
def test_regions_outside_the_metric_rejected(tmp_path, capsys, experiment):
    """CLI regions are the sites 0..size-1 of the state's metric."""
    base = {
        "word": ["Z", "Z"],
        "pair": ["X", "Y"],
        "degrees": [2],
        "checks": ["seminorm-comparison"],
        "seminorm_degrees": [2],
        "search_budget": 1,
    }
    cases = [
        (GRID_STATE, [2], 2, "grid2d metric expects integer pairs, got 0"),
        (EXPLICIT_STATE, [2, 4], 4, "site 3 not in explicit metric"),
    ]
    for state, sizes, size, reason in cases:
        doc = {**base, "state": state, "sizes": sizes, "seminorm_size": size}
        cfg = write_config(tmp_path, doc)
        code, out, err = run([experiment, "--config", cfg], capsys)
        assert code == 2, (experiment, state)
        assert out == ""
        assert err == (
            f"ERR 2: region size {size} needs the sites 0..{size - 1} "
            f"of the state's metric: {reason}\n"
        )


def test_explicit_metric_regions_inside_the_metric(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"state": EXPLICIT_STATE, "word": ["Z", "Z"], "sizes": [2, 3]}
    )
    code, out, err = run(["moments", "--config", cfg], capsys)
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "region_size,degree,moment_re,moment_im"
    assert len(out.splitlines()) == 3


def test_cost_guard_exit_three(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": PRODUCT_GROUND, "word": ["X"] * 9, "sizes": [10]},
    )
    code, _, err = run(["moments", "--config", cfg], capsys)
    assert code == 3
    assert err.startswith("ERR 3: cost guard '")


@pytest.mark.parametrize(
    "base, shown",
    [
        ({"ket": [1, 0]}, "'circuit statevector size': d^L = 2^10000000 exceeds 16384"),
        (
            [[0.75, 0], [0, 0.25]],
            "'circuit density-matrix size': d^2L = 2^20000000 exceeds 1048576",
        ),
    ],
    ids=["pure", "mixed"],
)
def test_circuit_size_guard_at_ten_million_sites(tmp_path, capsys, base, shown):
    """The circuit size guards compare exponents: no d^L integer is built
    or printed, so a huge length is one short ERR 3 line."""
    state = {"kind": "circuit", "base": base, "length": 10**7}
    cfg = write_config(tmp_path, {"state": state, "word": ["Z", "Z"], "sizes": [2]})
    code, out, err = run(["moments", "--config", cfg], capsys)
    assert (code, out) == (3, "")
    assert err == f"ERR 3: cost guard {shown}\n"


@pytest.mark.parametrize(
    "experiment, keys",
    [
        ("ccr-decay", {"pair": ["Z", "X"], "prefix": ["Z"], "sizes": [4, 8]}),
        ("bounds", {"checks": ["seminorm-comparison"], "seminorm_degrees": [2]}),
    ],
)
def test_search_draw_guard_exits_three(tmp_path, capsys, monkeypatch, experiment, keys):
    """Both searches have degree 2, so a budget of 2^15 + 1 draws one operator
    more than SEARCH_DRAW_GUARD allows: ERR 3 before any region is built, and
    no output is written."""
    calls = _refuse_work(monkeypatch, "_segment", "Region")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"state": MARKOV_STD, "search_budget": 2**15 + 1, **keys})
    code, stdout, err = run([experiment, "--config", cfg, "--out", str(out)], capsys)
    assert code == 3
    assert err == (
        "ERR 3: cost guard 'search draws': search_budget * n = 32769 * 2 exceeds 65536\n"
    )
    assert stdout == ""
    assert not out.exists()
    assert calls == []


def test_ccr_decay_guard_before_search(tmp_path, capsys, monkeypatch):
    """The degree-5 defect word at size 40 trips the guard before any search."""

    def no_search(*args, **kwargs):
        raise AssertionError("seminorm search ran before the cost guard")

    monkeypatch.setattr("flab.fluctuations._search_stack", no_search)
    cfg = write_config(
        tmp_path,
        {
            "state": MARKOV_STD,
            "prefix": ["X", "Z"],
            "pair": ["Z", "X"],
            "suffix": ["Z"],
            "sizes": [8, 40],
        },
    )
    code, _, err = run(["ccr-decay", "--config", cfg], capsys)
    assert code == 3
    assert err.startswith("ERR 3: cost guard '")


def test_ccr_decay_markov_dp_guard_before_search(tmp_path, capsys, monkeypatch):
    """With the DP guard at 32 (d = 2), the degree-3 searches would pass
    and the degree-4 defect word trips: it trips before any search."""
    searches = []

    def no_search(*args, **kwargs):
        searches.append(args)
        raise AssertionError("seminorm search ran before the Markov DP guard")

    monkeypatch.setattr("flab.fluctuations.MARKOV_DP_GUARD", 32)
    monkeypatch.setattr("flab.fluctuations._search_stack", no_search)
    cfg = write_config(
        tmp_path,
        {
            "state": MARKOV_STD,
            "prefix": ["X"],
            "pair": ["Z", "X"],
            "suffix": ["Y"],
            "sizes": [4, 8],
        },
    )
    code, out, err = run(["ccr-decay", "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err == "ERR 3: cost guard 'Markov subset DP': 2^n d^2 = 2^4 * 2^2 exceeds 32\n"
    assert searches == []


def test_moments_table_guard_before_engine_work(tmp_path, capsys, monkeypatch):
    """A table whose last size trips the guard stops before any Markov sweep."""
    sweeps = []
    monkeypatch.setattr(
        "flab.fluctuations.markov_moment_batch", lambda *args: sweeps.append(args)
    )
    cfg = write_config(
        tmp_path, {"state": MARKOV_STD, "word": ["Z"] * 4, "sizes": [2, 4, 101]}
    )
    code, out, err = run(["moments", "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "ERR 3: cost guard 'induced-moment tuple sum': "
        "|X|^n = 101^4 exceeds 100000000\n"
    )
    assert sweeps == []


def test_moments_markov_dp_guard(tmp_path, capsys, monkeypatch):
    """Degree 19 on the two-state chain needs 2^19 * 4 DP entries a word: ERR 3."""
    sweeps = []
    monkeypatch.setattr(
        "flab.fluctuations.markov_moment_batch", lambda *args: sweeps.append(args)
    )
    cfg = write_config(tmp_path, {"state": MARKOV_STD, "word": ["Z"] * 19, "sizes": [2]})
    code, out, err = run(["moments", "--config", cfg], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "ERR 3: cost guard 'Markov subset DP': 2^n d^2 = 2^19 * 2^2 exceeds 1048576\n"
    )
    assert sweeps == []


@pytest.mark.parametrize(
    "experiment, doc",
    [
        ("moments", {"state": PRODUCT_TILTED, "word": ["X"] * 12, "sizes": [1, 2, 3, 4]}),
        ("converge", {"state": PRODUCT_TILTED, "word": ["Z"] * 12, "sizes": [4]}),
        (
            "ccr-decay",
            {
                "state": PRODUCT_TILTED,
                "prefix": ["X"] * 5,
                "pair": ["Z", "X"],
                "suffix": ["Y"] * 5,
                "sizes": [2, 4],
            },
        ),
    ],
)
def test_product_partition_guard_before_region(tmp_path, capsys, monkeypatch, experiment, doc):
    """A product table of degree 12 passes the |X|^n guard at 4 sites, but
    its closed form would sum B(12) = 4,213,597 set partitions: one ERR 3
    line before any Region is built (for ccr-decay, at the defect word's
    degree)."""
    calls = _refuse_work(monkeypatch, "Region", "_segment")
    code, out, err = run([experiment, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, calls) == (3, "", [])
    assert err == "ERR 3: cost guard 'product set partitions': degree 12 exceeds 11\n"


def test_converge_wick_guard_before_product_guard(tmp_path, capsys, monkeypatch):
    """A 13-slot converge word trips the Wick matching guard (12), which
    converge meets before the product closed form's degree guard (11)."""
    calls = _refuse_work(monkeypatch, "Region", "_segment")
    doc = {"state": PRODUCT_TILTED, "word": ["Z"] * 13, "sizes": [1]}
    code, out, err = run(["converge", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out, calls) == (3, "", [])
    assert err == "ERR 3: cost guard 'wick matching enumeration': degree 13 exceeds 12\n"

def test_ccr_decay_dimension_one_returns(tmp_path, capsys):
    """d = 1 has no centered operator; the search must not redraw forever."""

    def stuck(signum, frame):
        pytest.fail("ccr-decay at d = 1 did not return within 30 s")

    cfg = write_config(
        tmp_path,
        {
            "state": {"kind": "product", "rho": [[1.0]]},
            "pair": ["I", "I"],
            "prefix": ["I"],
            "sizes": [2],
            "search_budget": 1,
        },
    )
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(30)
    try:
        code, out, _ = run(["ccr-decay", "--config", cfg], capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert out.splitlines() == ["region_size,value_abs,bound,ratio,flag", "2,0,0,0,1"]


def test_threads_must_be_positive(tmp_path, capsys):
    for threads in (0, "x", True, 1.5):
        cfg = write_config(
            tmp_path,
            {"state": PRODUCT_GROUND, "word": ["X"], "sizes": [2], "threads": threads},
        )
        code, _, err = run(["converge", "--config", cfg], capsys)
        assert code == 2
        assert err.startswith("ERR 2:")


def test_out_key_must_be_a_path(tmp_path, capsys):
    """A non-string out would reach open() as a file descriptor or a TypeError."""
    for bad in ([str(tmp_path / "a.csv")], 7, True, ""):
        cfg = write_config(
            tmp_path, {"state": PRODUCT_GROUND, "word": ["X", "X"], "sizes": [2], "out": bad}
        )
        code, out, err = run(["converge", "--config", cfg], capsys)
        assert code == 2, bad
        assert out == "", bad
        assert err.startswith("ERR 2: 'out' must be"), bad


def test_config_integers_rejected(tmp_path, capsys):
    """Integer keys refuse strings, bools, floats and out-of-range values."""
    cases = [
        ("converge", {"seed": "q"}),
        ("converge", {"seed": -1}),
        ("ccr-decay", {"search_budget": -3}),
        ("ccr-decay", {"search_budget": "8"}),
        ("cluster-verify", {"degrees": [2, True]}),
        ("cluster-verify", {"degrees": [0]}),
        ("bounds", {"checks": ["counting"], "counting_sizes": [6.0]}),
        ("bounds", {"checks": ["counting"], "counting_max_k": "4"}),
        ("bounds", {"checks": ["counting"], "counting_max_r": -1}),
        ("bounds", {"checks": ["weight-sum"], "weight_sizes": [False]}),
        ("bounds", {"checks": ["weight-sum"], "weight_degrees": []}),
        ("bounds", {"checks": ["seminorm-comparison"], "seminorm_size": 0}),
        ("bounds", {"checks": ["seminorm-comparison"], "seminorm_degrees": [2.0]}),
        ("bounds", {"checks": ["wick-difference"], "random_pairs": -2}),
    ]
    base = {
        "state": PRODUCT_TILTED,
        "word": ["X", "X"],
        "pair": ["X", "Y"],
        "sizes": [2, 3],
    }
    for experiment, bad in cases:
        cfg = write_config(tmp_path, {**base, **bad})
        code, _, err = run([experiment, "--config", cfg], capsys)
        assert code == 2, (experiment, bad)
        assert err.startswith("ERR 2:"), (experiment, bad)


# =============================================================================
# Determinism across thread counts
# =============================================================================

def test_converge_bytes_identical_across_threads(tmp_path, capsys):
    outputs = []
    for threads in (1, 2, 8):
        out_path = tmp_path / f"t{threads}.csv"
        cfg = write_config(
            tmp_path,
            {
                "state": MARKOV_STD,
                "word": ["Z", "Z", "Z"],
                "sizes": [2, 3, 5, 8, 13],
            },
            name=f"cfg{threads}.json",
        )
        code, _, _ = run(
            ["converge", "--config", cfg, "--out", str(out_path), "--threads", str(threads)],
            capsys,
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_ccr_decay_bytes_identical_across_threads(tmp_path, capsys):
    outputs = []
    for threads in (1, 4):
        out_path = tmp_path / f"ccr{threads}.csv"
        cfg = write_config(
            tmp_path,
            {
                "state": PRODUCT_TILTED,
                "pair": ["X", "Y"],
                "prefix": ["Z"],
                "sizes": [4, 9, 16],
                "search_budget": 4,
                "seed": 3,
            },
            name=f"ccr{threads}.json",
        )
        code, _, _ = run(
            ["ccr-decay", "--config", cfg, "--out", str(out_path), "--threads", str(threads)],
            capsys,
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


# =============================================================================
# Failed checks: ERR 1, with the table or report written as before
# =============================================================================

def test_cluster_verify_failed_residual_exits_one(tmp_path, capsys, monkeypatch):
    """A failed decomposition still writes the whole CSV, then exits 1."""
    from flab.cluster import decomposition_table

    def failing(*args):
        checks = decomposition_table(*args)
        return [dataclasses.replace(c, residual=1.0, passed=False) for c in checks]

    monkeypatch.setattr("flab.cli.decomposition_table", failing)
    out_path = tmp_path / "cv.csv"
    cfg = write_config(
        tmp_path, {"state": MARKOV_STD, "sizes": [2, 3], "degrees": [2], "op": "Z"}
    )
    code, out, err = run(["cluster-verify", "--config", cfg, "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "ERR 1: decomposition residual above 1e-9\n"
    assert out_path.read_text() == "region_size,n,residual\n2,2,1\n3,2,1\n"


def test_bounds_failed_check_exits_one(tmp_path, capsys, monkeypatch):
    """A failed bound still writes the whole JSON report, then exits 1."""
    monkeypatch.setattr("flab.cli.b_n_quantity", lambda region, n: 1e300)
    out_path = tmp_path / "bounds.json"
    cfg = write_config(
        tmp_path, {"checks": ["weight-sum"], "weight_sizes": [4], "weight_degrees": [2]}
    )
    code, out, err = run(["bounds", "--config", cfg, "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "ERR 1: one or more bound checks failed\n"
    doc = json.loads(out_path.read_text())
    assert doc["all_pass"] is False
    assert [(c["name"], c["lhs"], c["pass"]) for c in doc["checks"]] == [
        ("weight-sum size=4 n=2", 1e300, False)
    ]


def test_ccr_decay_transport_violation_exits_one(tmp_path, capsys, monkeypatch):
    """A transport violation stops the table: nothing is written, exit 1."""
    from flab.fluctuations import ccr_decay_table

    def failing(state, region, a, b, sizes, **kwargs):
        checks = ccr_decay_table(state, region, a, b, sizes, **kwargs)
        return [
            dataclasses.replace(check, transport_deviation=1.0, transport_ok=False)
            if size == 9
            else check
            for size, check in zip(sizes, checks)
        ]

    monkeypatch.setattr("flab.cli.ccr_decay_table", failing)
    out_path = tmp_path / "ccr.csv"
    cfg = write_config(
        tmp_path,
        {"state": PRODUCT_TILTED, "pair": ["X", "Y"], "sizes": [4, 9], "search_budget": 1},
    )
    code, out, err = run(["ccr-decay", "--config", cfg, "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "ERR 1: transport identity violated at size 9: deviation 1.000e+00\n"
    assert not out_path.exists()


# =============================================================================
# Config fuzzing
# =============================================================================

_EXPERIMENT_NAMES = ["moments", "converge", "ccr-decay", "cluster-verify", "bounds"]
# keys that set how much work a config asks for, cut so each fuzzed run stays small
_FUZZ_LIST_KEEP = (
    "sizes", "counting_sizes", "weight_sizes", "weight_degrees", "seminorm_degrees", "degrees"
)
_FUZZ_CAPS = {"random_pairs": 1, "search_budget": 2, "seminorm_size": 4, "counting_max_k": 3}


def _small(cfg: dict) -> dict:
    cfg = {key: value[:2] if key in _FUZZ_LIST_KEEP else value for key, value in cfg.items()}
    return {**cfg, **{key: min(cfg.get(key, cap), cap) for key, cap in _FUZZ_CAPS.items()}}


def _readme_configs() -> list[tuple]:
    out = []
    for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S):
        doc = json.loads(block)
        if "checks" in doc:
            out.append(("bounds", doc))
        elif "pair" in doc:
            out.append(("ccr-decay", doc))
        else:
            out.append(("cluster-verify" if "degrees" in doc else "converge", doc))
    return out


_FUZZ_BASES = [(experiment, _small(cfg)) for experiment, cfg in _readme_configs()] + [
    (experiment, _small(cfg))
    for workload in ("markov-search", "moment-tables", "bound-checks")
    for experiment, _, cfg in _bench_workloads().experiments(workload, 0)
]


def _fields(doc, path=()):
    """The path of doc itself and of every key or list entry inside it."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _fields(value, path + (key,))


_HUGE_OPERATORS = st.lists(
    st.lists(st.sampled_from([0.0, 0.3, 1.0, 1e150, 1e200, 1e300, -1e308]), min_size=2, max_size=2),
    min_size=2,
    max_size=2,
)
_PRODUCT_3LEVEL = {"kind": "product", "rho": [[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.25]]}
_SPECIAL_VALUES = st.sampled_from(
    [
        _PRODUCT_3LEVEL,
        10**6,
        10**400,
        1e300,
        -1e308,
        float("inf"),
        float("nan"),
    ]
)
_SCALARS = st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3)
_JSON_VALUES = (
    _SPECIAL_VALUES
    | _HUGE_OPERATORS
    | st.recursive(
        _SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=6,
    )
)


@st.composite
def _fuzzed_configs(draw):
    """A README or workload config with one field replaced or dropped, run as any experiment."""
    experiment, base = draw(st.sampled_from(_FUZZ_BASES))
    experiment = draw(st.just(experiment) | st.sampled_from(_EXPERIMENT_NAMES))
    doc = json.loads(json.dumps(base))
    # a top-level key first, so the state's many fields do not crowd out the others
    key = draw(st.sampled_from([None, *doc]))
    if key is None:
        return experiment, draw(_JSON_VALUES)
    path = draw(st.sampled_from(list(_fields(doc[key], (key,)))))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON_VALUES)
    return experiment, doc


_VERDICTS = re.compile(
    r"ERR 1: (decomposition residual above 1e-9|one or more bound checks failed"
    r"|transport identity violated at size \d+: deviation \S+)\n"
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_fuzzed_configs())
@example(case=("converge", {"state": _PRODUCT_3LEVEL, "word": ["X", "X"], "sizes": [2]}))
@example(case=("moments", {"state": MARKOV_STD, "word": "X", "sizes": [2]}))
@example(case=("bounds", {"checks": []}))
def test_fuzzed_configs_exit_with_one_err_line(tmp_path, capsys, case):
    """Any one field of a known config, replaced by any JSON value or
    dropped: the exit code is 0 to 3, a nonzero exit writes exactly one
    ERR line to stderr, and ERR 1 is only a check's verdict."""
    experiment, doc = case
    cfg = write_config(tmp_path, doc)
    code, _, err = run([experiment, "--config", cfg], capsys)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert re.fullmatch(f"ERR {code}: [^\n]*\n", err)
    if code == 1:
        assert _VERDICTS.fullmatch(err)


def test_converge_refuses_an_inhomogeneous_circuit(tmp_path, capsys):
    """The edge sites of a brickwork circuit have their own restrictions,
    so there is no single covariance to compare with."""
    gate = np.kron(np.eye(2), [[0, 1], [1, 0]]).tolist()
    state = {**CIRCUIT_KET, "layers": [{"offset": 0, "gate": gate}]}
    cfg = write_config(tmp_path, {"state": state, "word": ["Z", "Z"], "sizes": [2]})
    code, out, err = run(["converge", "--config", cfg], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("ERR 2: experiment needs a homogeneous state: ")


@pytest.mark.parametrize(
    "experiment, doc, guard",
    [
        ("moments", {"state": MARKOV_STD, "word": ["X"] * 700, "sizes": [3]}, "induced-moment"),
        ("cluster-verify", {"state": MARKOV_STD, "sizes": [3], "degrees": [10**6]}, "correction"),
        (
            "bounds",
            {"checks": ["weight-sum"], "weight_sizes": [4], "weight_degrees": [10**6]},
            "weight-sum",
        ),
    ],
    ids=["tuple-sum", "correction-tuples", "weight-sum"],
)
def test_power_guards_past_the_float_range_exit_err_3(tmp_path, capsys, experiment, doc, guard):
    """A size**n past the float range (3**700, 3**(10**6)) trips its guard
    with ERR 3; float ** raised OverflowError, which exited ERR 1."""
    code, out, err = run([experiment, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"ERR 3: cost guard '{guard}") and err.count("\n") == 1


def test_missing_experiment_exits_err_2(capsys):
    assert run([], capsys) == (2, "", "ERR 2: an experiment subcommand is required\n")


BIG_OP, HUGER_OP = [[1e3, 0.3], [0.3, -0.7]], [[1e7, 0.3], [0.3, -0.7]]


@pytest.mark.parametrize(
    "experiment, doc",
    [
        ("cluster-verify", {"state": MARKOV_STD, "sizes": [3, 6, 9], "degrees": [3], "op": BIG_OP}),
        (
            "cluster-verify",
            {"state": MARKOV_STD, "sizes": [3, 6, 9], "degrees": [3], "op": HUGER_OP},
        ),
        (
            "ccr-decay",
            {
                "state": MARKOV_STD,
                "prefix": [[[1e4, 0.3], [0.3, -0.7]]],
                "pair": [[[1e4, 0.3], [0.3, -0.7]], "X"],
                "suffix": ["Y"],
                "sizes": [4, 8, 16],
            },
        ),
    ],
    ids=["decomposition", "centering", "transport"],
)
def test_rounding_level_residues_pass_at_any_operator_scale(tmp_path, capsys, experiment, doc):
    """An exact identity on a large operator passes: the decomposition,
    transport and centering bars scale with the operators' norms."""
    code, out, err = run([experiment, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


def _fresh_process(code, *args):
    """``python -c code args`` with this checkout's ``src`` on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_answers_like_fresh_processes(tmp_path, capsys):
    """``main`` reads each argv afresh, with no state kept between calls.
    An argument error and then a good call write, in one process, the
    bytes that each writes in a fresh interpreter."""
    cfg = write_config(tmp_path, {"state": MARKOV_STD, "word": ["Z", "X"], "sizes": [1, 2, 3]})
    code = "import sys; from flab.cli import main; sys.exit(main(sys.argv[1:]))"
    bad = ["moments", "--config", cfg, "--threads", "two"]
    good = ["moments", "--config", cfg]
    got_bad, got_good = run(bad, capsys), run(good, capsys)
    assert got_bad[0] == 2 and got_bad[2].startswith("ERR 2: ")
    assert got_bad == _fresh_process(code, *bad)
    assert got_good == _fresh_process(code, *good)


def test_import_leaves_argparse_out():
    """``main`` reads its argv without argparse, so the import stays lean."""
    code = "import sys, flab.cli; print('argparse' in sys.modules)"
    assert _fresh_process(code) == (0, "False\n", "")


USAGE = (
    "usage: flab {moments,converge,ccr-decay,cluster-verify,bounds}"
    " --config PATH [--out PATH] [--threads N]\n"
)


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["moments", "--config=CFG"], "same"),
        (["moments", "--config", "/no/such.json", "--threads=1", "--config", "CFG"], "same"),
        (["-h"], "usage"),
        (["--help"], "usage"),
        (["moments", "--config", "CFG", "-h"], "usage"),
        (["moment", "--config", "CFG"], "err"),
        (["moments", "--config", "CFG", "--seed", "1"], "err"),
        (["moments", "--conf", "CFG"], "err"),
        (["moments", "--config"], "err"),
        (["moments", "--threads", "1"], "err"),
        (["moments", "--config", "CFG", "--threads", "two"], "err"),
        (["--config", "CFG", "moments"], "err"),
    ],
    ids=[
        "equals-form",
        "last-repeat-wins",
        "h",
        "help",
        "help-after-options",
        "unknown-experiment",
        "unknown-option",
        "abbreviated-option",
        "option-without-value",
        "missing-config",
        "threads-not-int",
        "option-before-experiment",
    ],
)
def test_argv_grammar(tmp_path, capsys, argv, outcome):
    """``flab <experiment> --config P [--out P] [--threads N]``: ``--opt=value``
    reads like ``--opt value``, help prints the usage line, and every other
    argv exits ERR 2 on one stderr line before any config is read."""
    cfg = write_config(tmp_path, {"state": MARKOV_STD, "word": ["Z", "X"], "sizes": [1, 2, 3]})
    got = run([arg.replace("CFG", cfg) for arg in argv], capsys)
    if outcome == "same":
        assert got == run(["moments", "--config", cfg], capsys)
        assert got[0] == 0 and got[1].count("\n") == 4
    elif outcome == "usage":
        assert got == (0, USAGE, "")
    else:
        code, out, err = got
        assert (code, out) == (2, "")
        assert re.fullmatch(r"ERR 2: [^\n]+\n", err)


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("flab")
    assert exe is not None
    proc = subprocess.run(
        [exe, "converge", "--config", "/definitely/not/there.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("ERR 2:")
