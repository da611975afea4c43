"""In-process tracing of one CLI invocation, from outside the program.

The tracer replaces public functions of the `prestopping` modules with timing
wrappers for the duration of one traced call of `cli.main`, then restores
them. Each wrapper records a span (name, start, end, parent, seed-run id) in
memory; spans are written out once the call returns. A function that a later
version of the program no longer has is skipped and listed in `missing`, so
its metrics read 0 instead of the trace failing.

A layer's self time is its span time minus the time of its child spans, so the
self times of all spans add up to the root span, `cli.main`; the root's own
self time is the part of the traced wall no layer span covers.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import artifacts

# span record fields
NAME, START, END, PARENT, RUN, ROWS, USED, EXTRA = range(8)

TRAINING_SPANS = ("engine.phase1", "engine.phase2", "engine.default", "refurbish.plus")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _path_arg(args, kwargs):
    # every artifact writer takes its destination path last
    return kwargs.get("path", args[-1])


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._run = None
        self._n_runs = 0
        self._restore = []

    # ----- span recording -----

    def _open(self, name, rows=0):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._run, rows, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self):
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def _patch(self, owner, attr, make):
        fn = vars(owner).get(attr)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def _timed(self, name, rows=None, after=None):
        """Wrapper factory: rows(args, kwargs) -> int; after(rec, args, kwargs, result)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = self._open(name, rows(args, kwargs) if rows else 0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                if after is not None:
                    after(rec, args, kwargs, result)
                return result
            return wrapper
        return make

    # ----- instrumentation of the program's modules -----

    def install(self, cli, engine, memorization, metrics, nn, refurbish):
        n_rows = lambda a, k: len(_arg(a, k, 0, "features"))

        def io_bytes(rec, args, kwargs, result):
            # summary.json sizes are counted without wall_seconds, so they repeat
            path = Path(_path_arg(args, kwargs))
            rec[EXTRA] = len(artifacts.canonical_bytes(path)) if path.is_file() else 0

        def train_step(fn):
            def wrapper(*args, **kwargs):
                labels = _arg(args, kwargs, 1, "labels")
                mask = _arg(args, kwargs, 3, "sample_mask")
                rec = self._open("nn.train_step", len(labels))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec)
                    rec[USED] = len(labels) if mask is None else int(np.count_nonzero(mask))
            return wrapper

        def forward(fn):
            # inside a whole-set evaluation forward is part of it; called from a
            # training loop it is the forward-only pass of a batch with no members
            def wrapper(*args, **kwargs):
                name = "nn.eval" if self._parent_name() == "nn.eval" else "nn.skip_forward"
                rec = self._open(name, len(_arg(args, kwargs, 0, "features")))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec)
            return wrapper

        def seed_run(fn):
            def wrapper(*args, **kwargs):
                outer = self._run
                self._n_runs += 1
                self._run = self._n_runs
                rec = self._open("cli.run_single")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec)
                    self._run = outer
            return wrapper

        def refurbished(rec, args, kwargs, result):
            rec[EXTRA] = int(result.refurbished.size)

        def mask_rows(a, k):
            indices = _arg(a, k, 2, "indices")
            return a[0].n_samples if indices is None else len(indices)

        history = memorization.PredictionHistory
        self._patch(nn, "loss_grad_probs", train_step)
        self._patch(nn, "sgd_step", self._timed("nn.sgd_step"))
        self._patch(nn, "forward", forward)
        for attr in ("evaluate_error", "predict_labels", "per_sample_losses"):
            self._patch(nn, attr, self._timed("nn.eval", n_rows))
        if hasattr(nn, "Batch"):
            self._patch(nn.Batch, "__init__", self._timed("nn.Batch"))
        else:
            self.missing.append("nn.Batch")
        self._patch(nn, "save_network", self._timed("metrics.io", after=io_bytes))
        self._patch(history, "record_batch", self._timed("memorization.record_batch"))
        self._patch(history, "memorized_mask",
                    self._timed("memorization.memorized_mask", mask_rows))
        self._patch(history, "label_counts", self._timed("memorization.label_counts"))
        self._patch(history, "save", self._timed("memorization.save", after=io_bytes))
        self._patch(history, "copy", self._timed("memorization.copy"))
        self._patch(engine, "phase1_train", self._timed("engine.phase1"))
        self._patch(engine, "phase2_train", self._timed("engine.phase2"))
        self._patch(engine, "run_default", self._timed("engine.default"))
        self._patch(refurbish, "run_prestopping_plus",
                    self._timed("refurbish.plus", after=refurbished))
        self._patch(refurbish, "refurbish_candidates", self._timed("refurbish.candidates"))
        self._patch(metrics.MetricsCollector, "__call__", self._timed("metrics.observer"))
        self._patch(metrics, "snapshot_epoch", self._timed("metrics.snapshot"))
        self._patch(metrics, "loss_histogram", self._timed("metrics.histogram"))
        for attr in ("write_metrics_csv", "write_histogram_csv", "write_plots_gp",
                     "write_summary_json"):
            self._patch(metrics, attr, self._timed("metrics.io", after=io_bytes))
        self._patch(cli, "_write_refurbished_csv", self._timed("metrics.io", after=io_bytes))
        self._patch(cli, "build_dataset", self._timed("data.build"))
        self._patch(cli, "run_single", seed_run)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def run(self, cli, argv):
        """Call cli.main(argv) under the root span; returns its exit code."""
        rec = self._open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self._close(rec)

    def write(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START] - t0,
                                     "end": s[END] - t0, "parent": s[PARENT],
                                     "run": s[RUN], "rows": s[ROWS]}) + "\n")


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_by_name(spans) -> dict:
    """Summed self time per span name; the values add up to the root span."""
    by_name = {}
    for s, own in zip(spans, self_times(spans)):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + own
    return by_name


def _p90(values):
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation, keyed by metric name."""
    self_s = self_time_by_name(spans)
    calls, rows, total, used, extra = {}, {}, {}, {}, {}
    for s in spans:
        name = s[NAME]
        # evaluate_error -> predict_labels -> forward is one whole-set evaluation
        nested = name == "nn.eval" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "nn.eval"
        if not nested:
            calls[name] = calls.get(name, 0) + 1
            rows[name] = rows.get(name, 0) + s[ROWS]
            total[name] = total.get(name, 0.0) + s[END] - s[START]
        used[name] = used.get(name, 0) + s[USED]
        extra[name] = extra.get(name, 0) + s[EXTRA]

    epochs, intervals = {}, []
    last_tick = {}
    for s in spans:
        if s[NAME] != "metrics.observer":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in TRAINING_SPANS:
            p = spans[p][PARENT]
        if p < 0:
            continue
        epochs[spans[p][NAME]] = epochs.get(spans[p][NAME], 0) + 1
        intervals.append(s[START] - last_tick.get(p, spans[p][START]))
        last_tick[p] = s[START]

    forwarded = rows.get("nn.train_step", 0) + rows.get("nn.skip_forward", 0)
    c, r, own_s, tot = calls.get, rows.get, self_s.get, total.get
    return {
        "nn.train_step.calls": c("nn.train_step", 0),
        "nn.train_step.rows": r("nn.train_step", 0),
        "nn.train_step.self_s": own_s("nn.train_step", 0.0),
        "nn.sgd_step.calls": c("nn.sgd_step", 0),
        "nn.sgd_step.self_s": own_s("nn.sgd_step", 0.0),
        "nn.eval.calls": c("nn.eval", 0),
        "nn.eval.rows": r("nn.eval", 0),
        "nn.eval.self_s": own_s("nn.eval", 0.0),
        "nn.skip_forward.calls": c("nn.skip_forward", 0),
        "nn.Batch.calls": c("nn.Batch", 0),
        "nn.Batch.self_s": own_s("nn.Batch", 0.0),
        "engine.phase1.s": tot("engine.phase1", 0.0),
        "engine.phase1.epochs": epochs.get("engine.phase1", 0),
        "engine.phase2.s": tot("engine.phase2", 0.0),
        "engine.phase2.epochs": epochs.get("engine.phase2", 0),
        "engine.default.s": tot("engine.default", 0.0),
        "engine.epoch_ms.p50": 1e3 * statistics.median(intervals) if intervals else 0.0,
        "engine.epoch_ms.p90": 1e3 * _p90(intervals) if intervals else 0.0,
        "engine.batches.updated": c("nn.sgd_step", 0),
        "engine.batches.skipped": c("nn.skip_forward", 0),
        "engine.samples_used": used.get("nn.train_step", 0),
        "engine.useful_ratio": used.get("nn.train_step", 0) / forwarded if forwarded else 0.0,
        "memorization.record_batch.calls": c("memorization.record_batch", 0),
        "memorization.record_batch.self_s": own_s("memorization.record_batch", 0.0),
        "memorization.memorized_mask.calls": c("memorization.memorized_mask", 0),
        "memorization.memorized_mask.rows": r("memorization.memorized_mask", 0),
        "memorization.memorized_mask.self_s": own_s("memorization.memorized_mask", 0.0),
        "memorization.label_counts.self_s": own_s("memorization.label_counts", 0.0),
        "memorization.save.self_s": own_s("memorization.save", 0.0),
        "memorization.copy.calls": c("memorization.copy", 0),
        "refurbish.candidates.calls": c("refurbish.candidates", 0),
        "refurbish.candidates.self_s": own_s("refurbish.candidates", 0.0),
        "refurbish.plus.s": tot("refurbish.plus", 0.0),
        "refurbish.refurbished.final": extra.get("refurbish.plus", 0),
        "metrics.snapshot.calls": c("metrics.snapshot", 0),
        "metrics.snapshot.self_s": own_s("metrics.snapshot", 0.0),
        "metrics.histogram.self_s": own_s("metrics.histogram", 0.0),
        "metrics.io.self_s": own_s("metrics.io", 0.0),
        "metrics.io.bytes": extra.get("metrics.io", 0),
        "data.build.s": tot("data.build", 0.0),
        "trace.wall_s": tot("cli.main", 0.0),
        "trace.untimed_s": own_s("cli.main", 0.0),
    }
