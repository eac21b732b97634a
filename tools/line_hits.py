"""Which lines of the flab package do tier-1 and the benchmark workloads run?

    python tools/line_hits.py [extra pytest arguments]

Run it from anywhere; it finds the checkout from its own path. With a
line tracer installed (``sys.settrace`` and ``threading.settrace``, the
standard library only), it runs the tier-1 suite in this process through
``pytest.main``, then every experiment of the three benchmark workloads
(``bench/workloads.py``, read as is) at seeds 0 and 7 through
``flab.cli.main``. It then prints, per module of ``src/flab``, the
executable lines (those of ``co_lines`` of every code object) that never
ran: first those outside ``raise`` statements, with their source, then
the line numbers inside ``raise`` statements, which are refusals.

It exits 1 when any line outside ``raise`` statements and outside a
module's ``if __name__ == "__main__":`` block never ran, and 0 otherwise.
The tracer slows tier-1 about threefold, so tier-1 does not run this
script; CI runs it as its own job, with ``HYPOTHESIS_PROFILE=ci`` so
every run draws the same examples. Test failures are reported by pytest
and do not decide the exit status.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "flab")
SEEDS = (0, 7)

hits: dict[str, set[int]] = defaultdict(set)


def _trace_lines(frame, event, arg):
    hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    """Trace the frames of package code only; every other call runs untraced."""
    if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return _trace_lines
    return None


def executable_lines(path: str) -> set[int]:
    """Line numbers of every instruction of the module's code objects."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _spanned(nodes) -> set[int]:
    return {line for node in nodes for line in range(node.lineno, node.end_lineno + 1)}


def raise_lines(path: str) -> set[int]:
    """Line numbers spanned by the module's ``raise`` statements."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return _spanned(node for node in ast.walk(tree) if isinstance(node, ast.Raise))


def main_block_lines(path: str) -> set[int]:
    """Line numbers of the module's top-level ``if __name__ == "__main__":`` blocks."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return _spanned(
        node
        for node in tree.body
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
    )


def run_workloads() -> None:
    """Every experiment of every benchmark workload, at each seed in SEEDS."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads

    import flab.cli

    with tempfile.TemporaryDirectory() as scratch:
        for workload in sorted(workloads.WORKLOADS):
            for seed in SEEDS:
                where = os.path.join(scratch, f"{workload}-{seed}")
                for experiment, name, path in workloads.write_configs(workload, seed, where):
                    out = os.path.join(where, name + ".out")
                    args = [experiment, "--config", path, "--out", out, "--threads", "1"]
                    code = flab.cli.main(args)
                    print(f"{workload} seed {seed} {name}: exit {code}", file=sys.stderr)


def report() -> int:
    """Print the unrun lines per module; return the count outside raise and main blocks."""
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        unrun = sorted(executable_lines(path) - hits[path] - main_block_lines(path))
        refusals = raise_lines(path)
        plain = [line for line in unrun if line not in refusals]
        raised = [line for line in unrun if line in refusals]
        total += len(plain)
        print(f"flab/{name}: {len(plain)} unrun, {len(raised)} more in raise statements")
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in plain:
            print(f"  {line:5d}  {source[line - 1].strip()}")
        if raised:
            print("  raise: " + " ".join(str(line) for line in raised))
    return total


def main(argv: list[str]) -> int:
    import pytest

    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(["--rootdir", ROOT, os.path.join(ROOT, "tests"), "-q", *argv])
        run_workloads()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"tier-1 exit status {int(status)}")
    unrun = report()
    print(f"{unrun} unrun lines outside raise statements and __main__ blocks")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
