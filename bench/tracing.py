"""Span tracer for the funcov benchmark.

The tracer wraps public callables of the package at the names their
callers look up (``pipeline`` imports its stages into its own namespace,
so the stages are wrapped there), records one span per call and keeps the
spans in memory. Counters are read from return values at the same
boundaries. Nothing inside the package changes; every wrapper is removed
again when the :func:`installed` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import math
import warnings
from collections import Counter
from time import perf_counter

import funcov.covsmooth
import funcov.crossval
import funcov.fpca
import funcov.mean
import funcov.pipeline
import funcov.predict
import funcov.simulate


class Tracer:
    """In-memory spans ``[name, parent, root, start, end]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.warnings = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][2] if parent is not None else sid
        rec = [name, parent, root, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self.counts, out, args, kwargs)
            return out

        return traced

    def self_times(self):
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = Counter()
        calls = Counter()
        for i, (name, _, _, start, end) in enumerate(self.spans):
            total[name] += (end - start) - child[i]
            calls[name] += 1
        return total, calls

    def root_seconds(self, name=None):
        return sum(
            end - start
            for n, parent, _, start, end in self.spans
            if parent is None and (name is None or n == name)
        )

    def dump(self):
        keys = ("name", "parent", "root", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


def _on_select(counts, res, args, kwargs):
    rho_grid = args[4] if len(args) > 4 else kwargs["rho_grid"]
    scores = [s for _, _, s in res.surface]
    counts["crossval.score.points"] += len(scores)
    counts["crossval.score.nonfinite"] += sum(not math.isfinite(s) for s in scores)
    counts["covsmooth.edge_selections"] += res.rho in (min(rho_grid), max(rho_grid))


def _on_fit_mean(counts, res, args, kwargs):
    grid = res.cv_curve[:, 0]
    counts["mean.edge_selections"] += res.tau in (grid.min(), grid.max())


def _on_build_aux(counts, block, args, kwargs):
    counts["covsmooth.build_aux.rows"] += block.C.size


def _on_fit_auto(counts, fit, args, kwargs):
    counts["covsmooth.sigma2_clipped"] += fit.sigma2 != fit.sigma2_raw


def _on_predict(counts, pred, args, kwargs):
    counts["predict.jitter"] += pred.jitter > 0.0


# (owner, attribute, span name, counter hook)
TARGETS = [
    (funcov.pipeline, "fit_mean", "mean.fit_mean", _on_fit_mean),
    (funcov.pipeline, "build_aux", "covsmooth.build_aux", _on_build_aux),
    (funcov.pipeline, "fit_auto", "covsmooth.fit_auto", _on_fit_auto),
    (funcov.pipeline, "fit_cross", "covsmooth.fit_cross", None),
    (funcov.pipeline, "eigendecompose", "fpca.eigendecompose", None),
    (funcov.pipeline, "refine", "fpca.refine", None),
    (funcov.mean, "loso_shortcut_error", "crossval.loso_shortcut_error", None),
    (funcov.covsmooth, "select_grid", "crossval.select_grid", _on_select),
    (funcov.crossval.GridSelector, "__init__", "crossval.GridSelector.init", None),
    (funcov.crossval.GridSelector, "for_weights", "crossval.GridSelector.for_weights", None),
    (funcov.simulate, "predict_subject", "predict.predict_subject", _on_predict),
] + [
    (module, "eval_basis_matrix", "splines.eval_basis_matrix", None)
    for module in (funcov.covsmooth, funcov.mean, funcov.fpca, funcov.predict)
]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block; capture warnings."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, hook), (_, _, fn) in zip(TARGETS, originals):
            setattr(owner, attr, tracer.wrap(name, fn, hook))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield tracer
        tracer.warnings.extend(str(w.message) for w in caught)
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# Per-layer time metric -> span names whose self time it sums. Together
# they cover every span name, so they add up to the traced time.
SELF_TIME_METRICS = {
    "crossval.score.s": ["crossval.select_grid"],
    "crossval.GridSelector.init.s": ["crossval.GridSelector.init"],
    "crossval.GridSelector.for_weights.s": ["crossval.GridSelector.for_weights"],
    "crossval.loso_shortcut_error.s": ["crossval.loso_shortcut_error"],
    "mean.fit_mean.s": ["mean.fit_mean"],
    "splines.eval_basis_matrix.s": ["splines.eval_basis_matrix"],
    "covsmooth.build_aux.s": ["covsmooth.build_aux"],
    "covsmooth.solve.s": ["covsmooth.fit_auto", "covsmooth.fit_cross"],
    "fpca.eigendecompose.s": ["fpca.eigendecompose"],
    "fpca.refine.s": ["fpca.refine"],
    "pipeline.fit_covariance_model.self_s": ["pipeline.fit_covariance_model"],
    "predict.predict_subject.s": ["predict.predict_subject"],
    "simulate.mise.self_s": ["simulate.mise"],
    "simulate.ape.self_s": ["simulate.ape"],
}

CALL_METRICS = {
    "crossval.GridSelector.init.calls": "crossval.GridSelector.init",
    "crossval.GridSelector.for_weights.calls": "crossval.GridSelector.for_weights",
    "crossval.loso_shortcut_error.calls": "crossval.loso_shortcut_error",
    "splines.eval_basis_matrix.calls": "splines.eval_basis_matrix",
    "predict.predict_subject.calls": "predict.predict_subject",
}

COUNT_METRICS = (
    "crossval.score.points",
    "crossval.score.nonfinite",
    "covsmooth.build_aux.rows",
    "covsmooth.edge_selections",
    "covsmooth.sigma2_clipped",
    "mean.edge_selections",
    "predict.jitter",
)


def span_cost():
    """Seconds a traced wrapper adds to one call, measured on a no-op.

    The fastest of five rounds of 20,000 calls, so the host's slow spells
    do not count; the difference against the bare no-op removes the loop.
    """

    def noop():
        pass

    calls = 20000
    best = math.inf
    for _ in range(5):
        wrapped = Tracer().wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def layer_metrics(tracer, wall_s):
    """Per-layer values (unit, value) from a finished trace.

    ``wall_s`` is the traced work timed outside the tracer; the self
    times must account for it. The tracing overhead is the cost of one
    span on a no-op times the number of spans.
    """
    self_s, calls = tracer.self_times()
    covered = {n for names in SELF_TIME_METRICS.values() for n in names}
    missing = set(self_s) - covered
    if missing:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(missing)}")
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = ("s", sum(self_s[n] for n in names))
    for metric, name in CALL_METRICS.items():
        out[metric] = ("count", calls[name])
    for metric in COUNT_METRICS:
        out[metric] = ("count", int(tracer.counts[metric]))
    points = tracer.counts["crossval.score.points"]
    finite = points - tracer.counts["crossval.score.nonfinite"]
    out["crossval.score.finite_ratio"] = ("ratio", finite / points if points else 1.0)
    total = tracer.root_seconds()
    out["trace.total_s"] = ("s", total)
    out["trace.accounted_share"] = ("ratio", sum(self_s.values()) / wall_s)
    out["trace.spans"] = ("count", len(tracer.spans))
    out["trace.warnings"] = ("count", len(tracer.warnings))
    overhead = span_cost() * len(tracer.spans)
    out["trace.overhead_s"] = ("s", overhead)
    out["trace.overhead_share"] = ("ratio", overhead / (total - overhead))
    return out
