"""Which tier-1 tests fail when numpy and OpenBLAS pick other kernels?

    python tools/kernel_matrix.py [-k EXPRESSION]

Run it from anywhere; it finds the checkout from its own path. For each
setting in SETTINGS, one after another, it runs the tier-1 suite (or the
``-k`` selection) in a child ``python -m pytest``, then prints the
child's summary line and the ids of its failing and erroring tests.

A setting only changes environment variables of the child, which
choose the kernels of that process alone: ``OPENBLAS_CORETYPE`` picks
the OpenBLAS core of a ``DYNAMIC_ARCH`` build, and
``NPY_DISABLE_CPU_FEATURES`` lowers numpy's SIMD dispatch level. Both
variables are removed from the child's environment first, so every row
reads as its setting names it. A pin recorded on one kernel can fail
under another when a reduction rounds differently; tests that compare
two implementations in one process should pass under every setting.

The script exits 0 once every setting has run, whatever the tests did.
It is not part of tier-1 or CI.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
# (name, child environment variables)
SETTINGS = [
    ("default", {}),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=SandyBridge", {"OPENBLAS_CORETYPE": "SandyBridge"}),
    ("numpy at x86-64-v3", {"NPY_DISABLE_CPU_FEATURES": AVX512}),
    ("numpy at its SSE baseline", {"NPY_DISABLE_CPU_FEATURES": AVX512 + " X86_V3"}),
]
KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def run_setting(variables: dict, selection: list[str]) -> tuple[str, list[str]]:
    """The child's pytest summary line and its failing test ids, in report order."""
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_VARIABLES}
    env.update(variables)
    args = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
    args += ["--continue-on-collection-errors", *selection]
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in lines
        if line.startswith(("FAILED ", "ERROR "))
    ]
    summary = lines[-1].strip("= ") if lines else f"no output (exit {proc.returncode})"
    return summary, failed


def main(argv: list[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "-k"):
        print("usage: python tools/kernel_matrix.py [-k EXPRESSION]", file=sys.stderr)
        return 2
    for name, variables in SETTINGS:
        summary, failed = run_setting(variables, argv)
        print(f"{name}: {summary}")
        for test_id in failed:
            print(f"  {test_id}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
