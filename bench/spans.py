"""Per-layer spans for the benchmark's traced runs.

The program itself carries no instrumentation. `traced()` replaces each
public function or method of interest with a wrapper that records a span
around the call, and puts the originals back on exit. Modules import names
directly (`ensemble` calls its own `meta_sample`, `sac` its own `mlp_forward`
and `adam_step`, `sampling` its own `classification_errors`), so a function is
replaced in every program module namespace that holds it, not only in the
module that defines it.

Spans nest. A span's self time is its duration minus the time covered by the
spans opened inside it. Totals, self times, calls and counts are accumulated
per span name in memory; single spans are not stored, so memory stays flat
over a run of some 100k calls.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Accumulates total time, self time, calls and work counts per span name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []  # [name, seconds covered by child spans] per open span

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span called `name`; `count(tracer, result, *args, **kwargs)` adds work counts."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [name, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, result, *args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1

        return spanned


# Count hooks name their parameters after the wrapped function's, so they bind
# the same way whether the program passes an argument by position or keyword.

def _count_cascade(tracer, result, train, valid, *args, **kwargs):
    model, _ = result
    tracer.counts["ensemble.members"] += len(model)
    tracer.counts["ensemble.useful_rows"] += len(model) * (len(train) + len(valid))


def _count_tree_predict(tracer, result, tree, features):
    shape = np.shape(features)
    rows = shape[0] if len(shape) == 2 else 1
    tracer.counts["learners.predict_rows"] += rows
    if tracer.inside("ensemble.train_ensemble"):
        tracer.counts["ensemble.predicted_rows"] += rows


def _count_tree_fit(tracer, result, tree, ds):
    tracer.counts["learners.fit_rows"] += len(ds)
    tracer.counts["learners.fit_nodes"] += len(result.feature)


def _count_draw(tracer, result, train, *args, **kwargs):
    # the sequential weighted draw touches every majority row once per pick
    n_minority = train.minority_count
    n_majority = len(train) - n_minority
    if n_majority > n_minority:
        tracer.counts["sampling.draw_work"] += n_majority * n_minority


def _count_scored_rows(tracer, result, scores, labels):
    tracer.counts["metrics.aucprc_rows"] += len(scores)


def _count_loaded_rows(tracer, result, path, *args, **kwargs):
    tracer.counts["dataset.load_csv_rows"] += len(result)


def _targets():
    """(span name, function, count hook) and (span name, class, method, count hook) lists."""
    from metasampler import dataset, ensemble, learners, metrics, neural, sac, sampling

    functions = [
        ("ensemble.train_ensemble", ensemble.train_ensemble, _count_cascade),
        ("sampling.meta_sample", sampling.meta_sample, _count_draw),
        ("sampling.meta_state", sampling.meta_state, None),
        ("sampling.random_subset", sampling.random_balanced_subset, None),
        ("metrics.aucprc", metrics.aucprc, _count_scored_rows),
        ("metrics.errors", metrics.classification_errors, None),
        ("sac.update", sac.sac_update, None),
        ("sac.action", sac.sample_action, None),
        ("neural.forward", neural.mlp_forward, None),
        ("neural.backward", neural.mlp_backward, None),
        ("neural.adam", neural.adam_step, None),
        ("dataset.load_csv", dataset.load_csv, _count_loaded_rows),
    ]
    methods = [
        ("ensemble.predict", ensemble.EnsembleModel, "predict_proba", None),
        ("learners.predict", learners.DecisionTree, "predict_proba", _count_tree_predict),
        ("learners.fit", learners.DecisionTree, "fit", _count_tree_fit),
        ("sac.replay_sample", sac.ReplayMemory, "sample", None),
        ("dataset.subset", dataset.LabeledDataset, "subset", None),
    ]
    return functions, methods


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "metasampler" or name.startswith("metasampler.")
    ]


@contextlib.contextmanager
def traced():
    """Wrap every target for the duration of the block; yields the Tracer."""
    tracer = Tracer()
    functions, methods = _targets()
    undo = []
    try:
        for name, fn, count in functions:
            wrapper = tracer.wrap(name, fn, count)
            bound = 0
            for module in _program_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"span {name}: no module binds {fn.__qualname__}")
        for name, cls, attr, count in methods:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# (metric, unit, kind, key): kind "total" and "self" read span times, "calls"
# span calls, "count" a work count.
LAYER_METRICS = (
    ("ensemble.train_ensemble_self_s", "s", "self", "ensemble.train_ensemble"),
    ("ensemble.members", "count", "count", "ensemble.members"),
    ("learners.predict_s", "s", "total", "learners.predict"),
    ("learners.predict_calls", "count", "calls", "learners.predict"),
    ("learners.predict_rows", "count", "count", "learners.predict_rows"),
    ("learners.fit_s", "s", "total", "learners.fit"),
    ("learners.fit_calls", "count", "calls", "learners.fit"),
    ("learners.fit_rows", "count", "count", "learners.fit_rows"),
    ("learners.fit_nodes", "count", "count", "learners.fit_nodes"),
    ("sampling.meta_sample_self_s", "s", "self", "sampling.meta_sample"),
    ("sampling.draw_work", "count", "count", "sampling.draw_work"),
    ("sampling.meta_state_self_s", "s", "self", "sampling.meta_state"),
    ("sampling.random_subset_s", "s", "total", "sampling.random_subset"),
    ("metrics.aucprc_s", "s", "total", "metrics.aucprc"),
    ("metrics.aucprc_calls", "count", "calls", "metrics.aucprc"),
    ("metrics.aucprc_rows", "count", "count", "metrics.aucprc_rows"),
    ("metrics.errors_self_s", "s", "self", "metrics.errors"),
    ("sac.update_s", "s", "total", "sac.update"),
    ("sac.update_calls", "count", "calls", "sac.update"),
    ("sac.replay_sample_s", "s", "total", "sac.replay_sample"),
    ("sac.action_s", "s", "total", "sac.action"),
    ("neural.forward_s", "s", "total", "neural.forward"),
    ("neural.backward_s", "s", "total", "neural.backward"),
    ("neural.adam_s", "s", "total", "neural.adam"),
    ("dataset.load_csv_s", "s", "total", "dataset.load_csv"),
    ("dataset.load_csv_rows", "count", "count", "dataset.load_csv_rows"),
    ("dataset.subset_s", "s", "total", "dataset.subset"),
    ("dataset.subset_calls", "count", "calls", "dataset.subset"),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics in the benchmark's output form, {name: {"value", "unit"}}."""
    sources = {
        "total": tracer.total,
        "self": tracer.self_time,
        "calls": tracer.calls,
        "count": tracer.counts,
    }
    out = {
        name: {"value": sources[kind][key], "unit": unit}
        for name, unit, kind, key in LAYER_METRICS
    }
    # members x |train + valid| over the rows trees predicted inside cascades:
    # 1.0 means every tree scored every cascade row exactly once.
    predicted = tracer.counts["ensemble.predicted_rows"]
    useful = tracer.counts["ensemble.useful_rows"]
    out["ensemble.predict_useful_ratio"] = {
        "value": useful / predicted if predicted else 0.0,
        "unit": "ratio",
    }
    return out
