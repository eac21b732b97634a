"""Benchmark of the flab experiments: one workload, end to end or traced.

Run from the root of a flab checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs the workload's experiment list in a fresh interpreter
(``bench/child.py``), single-threaded. Rounds repeat while another round
still fits in ``--seconds``; at least one round runs. Nine more
interpreters only do the set-up, so ``setup_s`` is a median over several
set-ups. After the timed part the outputs of the last round are checked
independently (``bench/checks.py``) and every round must have written
the same bytes. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Each metric is the median over the run's rounds. Outputs go to
``.bench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_ONLY_RUNS = 9
# A run must end within 180 s; no round starts after this point.
LAST_ROUND_START_S = 120.0
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env(src: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, env: dict, workdir: str, tag: str, setup_only: bool) -> dict:
    """Run one interpreter; return its result with setup_s and elapsed_s added."""
    result_path = os.path.join(workdir, f"{tag}.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--dir", workdir,
        "--result", result_path,
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(workdir, f"{tag}.log")
    start = time.monotonic()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                cmd, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} did not finish within {CHILD_TIMEOUT_S} s") from exc
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        with open(log_path) as log:
            raise BenchError(f"{tag} exited with {proc.returncode}:\n{log.read()}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flab", "cli.py")):
        print(f"no flab sources under {src}; run from a flab checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env(src)

    try:
        rounds = []
        begin = time.monotonic()
        while True:
            rounds.append(run_child(args, env, workdir, f"round-{len(rounds)}", False))
            elapsed = time.monotonic() - begin
            longest = max(r["elapsed_s"] for r in rounds)
            if elapsed + longest > args.seconds or elapsed > LAST_ROUND_START_S:
                break
        setups = [r["setup_s"] for r in rounds] + [
            run_child(args, env, workdir, f"setup-{k}", True)["setup_s"]
            for k in range(SETUP_ONLY_RUNS)
        ]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    import checks

    last = rounds[-1]
    attempted = sum(len(r["codes"]) for r in rounds)
    failed = sum(1 for r in rounds for code in r["codes"].values() if code != 0)
    problems = checks.check_outputs(last["experiments"], os.path.join(workdir, "out"))
    if any(r["digests"] != last["digests"] for r in rounds):
        problems.append("rounds wrote different output bytes")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in rounds)
            for name, _unit, _better in PER_LAYER
        }
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = dict(END_TO_END)
    print(
        f"{args.workload} seed={args.seed} rounds={len(rounds)} "
        f"round wall_s={[round(r['wall_s'], 3) for r in rounds]} "
        f"cpu_s={[round(r['cpu_s'], 3) for r in rounds]}",
        file=sys.stderr,
    )
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(report))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
