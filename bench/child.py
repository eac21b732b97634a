"""One round of a workload in a fresh interpreter.

Set-up imports ``flab.cli`` and writes the workload's configs; the round
then runs every experiment of the workload through ``flab.cli.main``
with ``--threads 1`` and writes a JSON result file for ``run.py``. BLAS
and OpenMP pools are limited to one thread before numpy is imported.
With ``--trace 1`` the layer functions are wrapped after set-up, and the
result carries the per-layer metrics of the round.

    python3 bench/child.py --workload NAME --seed N --dir DIR --result PATH
        [--trace 0|1] [--setup-only]
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _rows(text: str, experiment: str) -> int:
    if experiment == "bounds":
        return len(json.loads(text)["checks"])
    return text.count("\n") - 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import flab.cli
    import workloads

    configs = workloads.write_configs(
        args.workload, args.seed, os.path.join(args.dir, "configs")
    )
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = os.path.join(args.dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    codes = {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for experiment, name, path in configs:
        out = os.path.join(out_dir, name + ".out")
        codes[name] = flab.cli.main(
            [experiment, "--config", path, "--out", out, "--threads", "1"]
        )
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = {}
    rows = 0
    for experiment, name, _path in configs:
        out = os.path.join(out_dir, name + ".out")
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            if codes[name] == 0:
                rows += _rows(data.decode(), experiment)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_rss_mb,
        codes=codes,
        digests=digests,
        experiments=configs,
    )
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update({"cli.rows": rows, "run.wall_s": wall, "run.cpu_s": cpu})
        result["layers"] = layers
        tracer.write_spans(os.path.splitext(args.result)[0] + ".spans.tsv")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
