"""Layer tracing for the traced benchmark run.

The tracer wraps the public functions of each flab layer from outside,
after ``flab.cli`` is imported. Engines are imported by name into
``fluctuations``, ``cluster`` and ``cli``, so each wrap is installed in
every namespace that calls the function, and a call goes through exactly
one wrapper. Each wrapped call records a span (id, parent id, name,
start, end) in memory; self time is a span's duration minus that of its
child spans. The CLI computes rows in a worker thread even with
``--threads 1``, so a span opened on a thread with no open span takes
the open ``cli`` span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# (metric, unit, better): the per-layer metrics of the traced run.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("states.build_s", "s", "lower"),
    ("states.expect_calls", "count", "lower"),
    ("states.expect_s", "s", "lower"),
    ("states.transition_power_calls", "count", "lower"),
    ("moments.markov_calls", "count", "lower"),
    ("moments.markov_words", "count", "lower"),
    ("moments.markov_site_steps", "count", "lower"),
    ("moments.markov_s", "s", "lower"),
    ("moments.classified_calls", "count", "lower"),
    ("moments.classified_s", "s", "lower"),
    ("moments.product_calls", "count", "lower"),
    ("moments.product_words", "count", "lower"),
    ("moments.product_s", "s", "lower"),
    ("fluctuations.induced_moment_calls", "count", "lower"),
    ("fluctuations.induced_moment_s", "s", "lower"),
    ("fluctuations.batch_calls", "count", "lower"),
    ("fluctuations.batch_words", "count", "lower"),
    ("fluctuations.searches", "count", "lower"),
    ("fluctuations.search_evaluations", "count", "lower"),
    ("fluctuations.search_s", "s", "lower"),
    ("fluctuations.ccr_check_s", "s", "lower"),
    ("fluctuations.guard_peak", "ratio", "lower"),
    ("gaussian.wick_calls", "count", "lower"),
    ("gaussian.wick_s", "s", "lower"),
    ("gaussian.norm_estimate_s", "s", "lower"),
    ("gaussian.difference_check_s", "s", "lower"),
    ("algebra.hs_coefficients_calls", "count", "lower"),
    ("algebra.hs_coefficients_s", "s", "lower"),
    ("cluster.correction_calls", "count", "lower"),
    ("cluster.correction_s", "s", "lower"),
    ("cluster.decomposition_s", "s", "lower"),
    ("cluster.b_n_s", "s", "lower"),
    ("cluster.b_hat_s", "s", "lower"),
    ("lattice.count_subsets_s", "s", "lower"),
    ("lattice.spread_enum_calls", "count", "lower"),
    ("lattice.spread_enum_distinct", "count", "lower"),
    ("run.wall_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.guard_peak = 0.0
        self.guard_limit = 1.0
        self.spread_args: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, root=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(tracer, args, result)`` runs after the call to update the
        counters; a ``root`` span becomes the parent of spans opened on
        threads that have no open span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            if root:
                self._root = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = None
                self.spans.append((sid, parent, name, start, end))
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def note_guard(self, size: int, degree: int) -> None:
        self.guard_peak = max(self.guard_peak, float(size) ** degree / self.guard_limit)

    def summary(self) -> tuple[dict, dict]:
        """Span count and total self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
        return calls, self_s

    def write_spans(self, path: str) -> None:
        """Write the spans as tab-separated lines; parent 0 means none."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent or 0}\t{name}\t{start!r}\t{end!r}\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the run-level ones and cli.rows."""
        calls, self_s = self.summary()
        c = self.counters
        return {
            "cli.self_s": self_s["cli"],
            "states.build_s": self_s["states.build"],
            "states.expect_calls": calls["states.expect"],
            "states.expect_s": self_s["states.expect"],
            "states.transition_power_calls": calls["states.transition_power"],
            "moments.markov_calls": calls["moments.markov"],
            "moments.markov_words": c["markov_words"],
            "moments.markov_site_steps": c["markov_site_steps"],
            "moments.markov_s": self_s["moments.markov"],
            "moments.classified_calls": calls["moments.classified"],
            "moments.classified_s": self_s["moments.classified"],
            "moments.product_calls": calls["moments.product"],
            "moments.product_words": c["product_words"],
            "moments.product_s": self_s["moments.product"],
            "fluctuations.induced_moment_calls": calls["fluctuations.induced_moment"],
            "fluctuations.induced_moment_s": self_s["fluctuations.induced_moment"],
            "fluctuations.batch_calls": calls["fluctuations.batch"],
            "fluctuations.batch_words": c["batch_words"],
            "fluctuations.searches": calls["fluctuations.search"],
            "fluctuations.search_evaluations": c["search_evaluations"],
            "fluctuations.search_s": self_s["fluctuations.search"],
            "fluctuations.ccr_check_s": self_s["fluctuations.ccr_check"],
            "fluctuations.guard_peak": self.guard_peak,
            "gaussian.wick_calls": calls["gaussian.wick"],
            "gaussian.wick_s": self_s["gaussian.wick"],
            "gaussian.norm_estimate_s": self_s["gaussian.norm_estimate"],
            "gaussian.difference_check_s": self_s["gaussian.difference_check"],
            "algebra.hs_coefficients_calls": calls["algebra.hs_coefficients"],
            "algebra.hs_coefficients_s": self_s["algebra.hs_coefficients"],
            "cluster.correction_calls": calls["cluster.correction"],
            "cluster.correction_s": self_s["cluster.correction"],
            "cluster.decomposition_s": self_s["cluster.decomposition"],
            "cluster.b_n_s": self_s["cluster.b_n"],
            "cluster.b_hat_s": self_s["cluster.b_hat"],
            "lattice.count_subsets_s": self_s["lattice.count_subsets"],
            "lattice.spread_enum_calls": calls["lattice.spread_enum"],
            "lattice.spread_enum_distinct": len(self.spread_args),
        }


# counters: (tracer, positional args, result) -> None


def _count_markov(t, args, result):
    positions, words = args[1], args[2]
    t.counters["markov_words"] += words.shape[0]
    t.counters["markov_site_steps"] += words.shape[0] * len(positions)


def _count_product_scalar(t, args, result):
    t.counters["product_words"] += 1


def _count_product_batch(t, args, result):
    t.counters["product_words"] += args[2].shape[0]


def _count_induced(t, args, result):
    t.note_guard(len(args[1]), len(args[2]))


def _count_batch(t, args, result):
    functional, words = args[0], args[1]
    t.counters["batch_words"] += len(words)
    if words and len(words[0]):
        t.note_guard(len(functional.region), len(words[0]))


def _count_search(t, args, result):
    t.counters["search_evaluations"] += result.evaluations


def _count_spread(t, args, result):
    region = args[0]
    t.spread_args.add((region.metric, region.sorted_sites()))


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of an imported flab in ``tracer`` spans."""
    import flab._moments as moments
    import flab.cli as cli
    import flab.cluster as cluster
    import flab.fluctuations as fluctuations
    import flab.gaussian as gaussian
    import flab.states as states

    tracer.guard_limit = fluctuations.TUPLE_SUM_GUARD

    def patch(owners, attr, name, count=None, root=False):
        for owner in owners:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count, root))

    patch([cli], "main", "cli", root=True)
    patch([cli], "state_from_json", "states.build")
    patch(
        [states.ProductState, states.MarkovState, states.CircuitState],
        "expect",
        "states.expect",
    )
    patch([states.MarkovState], "transition_power", "states.transition_power")
    patch([moments, fluctuations], "markov_moment_batch", "moments.markov", _count_markov)
    patch([fluctuations], "classified_moment", "moments.classified")
    patch([fluctuations, cluster], "product_moment", "moments.product", _count_product_scalar)
    patch(
        [fluctuations, cluster], "product_moment_batch", "moments.product", _count_product_batch
    )
    patch(
        [cli, fluctuations, cluster],
        "induced_moment",
        "fluctuations.induced_moment",
        _count_induced,
    )
    patch([fluctuations.InducedMomentFunctional], "batch", "fluctuations.batch", _count_batch)
    patch([fluctuations], "_search", "fluctuations.search", _count_search)
    patch([cli], "ccr_decay_check", "fluctuations.ccr_check")
    patch([cli, gaussian, cluster], "wick_moment", "gaussian.wick")
    patch([gaussian], "covariance_norm_estimate", "gaussian.norm_estimate")
    patch([cli], "wick_difference_bound_check", "gaussian.difference_check")
    patch([gaussian], "hs_coefficients", "algebra.hs_coefficients")
    patch([cluster], "f_correction_moment", "cluster.correction")
    patch([cli], "decomposition_check", "cluster.decomposition")
    patch([cli], "b_n_quantity", "cluster.b_n")
    patch([cli], "b_hat_bound", "cluster.b_hat")
    patch([cli], "count_subsets_with_spread", "lattice.count_subsets")
    patch([cluster], "spread_optimal_enumeration", "lattice.spread_enum", _count_spread)
