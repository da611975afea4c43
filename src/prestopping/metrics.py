"""Run instrumentation: per-epoch metrics, loss histograms, run summaries.

True labels cross into the pipeline here and only here. The trainer hands an
EpochContext to a MetricsCollector, which joins it against the full dataset
(noisy and true labels) to score memorization precision/recall and test error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict
from typing import Callable, Optional, get_args, get_type_hints

import numpy as np

from . import nn
from .data import DataView, NoisyDataset
from .engine import EpochContext
from .memorization import mp_mr


def field_table(cls, table: dict, optional=lambda entry: entry) -> dict:
    """Field -> table[X] in declaration order for each field of the dataclass cls
    annotated X, optional(table[X]) for Optional[X]; any other X is a KeyError."""
    out = {}
    for name, tp in get_type_hints(cls).items():
        args = get_args(tp)  # Optional[X] is Union[X, None]
        out[name] = optional(table[args[0]]) if type(None) in args else table[tp]
    return out


@dataclass
class EpochMetrics:
    epoch: int
    train_error: float
    validation_error: Optional[float]
    test_error: float
    mp: float
    mr: float
    safe_set_size: int
    memorized_true_count: int
    memorized_false_count: int
    safe_set_precision: float
    lr: float
    phase: str


# metrics.csv column -> cell parser; an empty Optional cell reads as None
_CELL_PARSERS = field_table(EpochMetrics, {int: int, float: float, str: str},
                            optional=lambda parse: lambda cell: parse(cell) if cell else None)
CSV_FIELDS = tuple(_CELL_PARSERS)


def snapshot_epoch(ctx: EpochContext, train_ds: NoisyDataset,
                   test_view: DataView) -> EpochMetrics:
    """Score one epoch: errors plus the composition of the epoch's memorized set."""
    mask = ctx.memorized
    mp, mr = mp_mr(mask, train_ds.noisy_labels, train_ds.true_labels)
    clean = train_ds.noisy_labels == train_ds.true_labels
    true_count = int(np.count_nonzero(mask & clean))
    size = int(np.count_nonzero(mask))
    # the larger set first, as the scratch buffers grow to it
    train_error = nn.evaluate_error(train_ds.features, train_ds.noisy_labels, ctx.state)
    test_error = nn.evaluate_error(test_view.features, test_view.labels, ctx.state)
    # the safe set's precision is the memorization precision mp
    return EpochMetrics(ctx.epoch, train_error, ctx.validation_error, test_error,
                        mp, mr, size, true_count, size - true_count, mp,
                        ctx.lr, ctx.phase)


@dataclass
class LossHistogram:
    """Normalized per-group loss densities over shared log-spaced bins."""
    epoch: int
    edges: np.ndarray          # (HISTOGRAM_BINS + 1,)
    clean_counts: np.ndarray   # (HISTOGRAM_BINS,) raw counts, correctly-labeled samples
    noisy_counts: np.ndarray   # (HISTOGRAM_BINS,) raw counts, mislabeled samples

    @property
    def clean_density(self) -> np.ndarray:
        total = self.clean_counts.sum()
        return self.clean_counts / total if total else np.zeros_like(self.clean_counts, float)

    @property
    def noisy_density(self) -> np.ndarray:
        total = self.noisy_counts.sum()
        return self.noisy_counts / total if total else np.zeros_like(self.noisy_counts, float)


HISTOGRAM_BINS = 50
LOSS_LO, LOSS_HI = 1e-6, 20.0


def loss_histogram(train_ds: NoisyDataset, state, epoch: int) -> LossHistogram:
    """Training-loss histograms split by label correctness.

    Losses are taken against the noisy labels (the ones trained on) and
    clipped into [LOSS_LO, LOSS_HI], so each group's counts sum to its group
    size; the HISTOGRAM_BINS bins are log-spaced over that range.
    """
    losses = nn.per_sample_losses(train_ds.features, train_ds.noisy_labels, state)
    losses = np.clip(losses, LOSS_LO, LOSS_HI)
    edges = np.logspace(math.log10(LOSS_LO), math.log10(LOSS_HI), HISTOGRAM_BINS + 1)
    clean = train_ds.noisy_labels == train_ds.true_labels
    clean_counts, _ = np.histogram(losses[clean], bins=edges)
    noisy_counts, _ = np.histogram(losses[~clean], bins=edges)
    return LossHistogram(epoch, edges, clean_counts, noisy_counts)


class MetricsCollector:
    """Observer that accumulates EpochMetrics rows for one run.

    Captures a loss histogram once, at the first epoch whose training
    accuracy exceeds 50%.
    """

    def __init__(self, train_ds: NoisyDataset, test_view: DataView):
        self.train_ds = train_ds
        self.test_view = test_view
        self.rows: list[EpochMetrics] = []
        self.histogram: Optional[LossHistogram] = None

    def __call__(self, ctx: EpochContext) -> None:
        row = snapshot_epoch(ctx, self.train_ds, self.test_view)
        self.rows.append(row)
        if self.histogram is None and (1.0 - row.train_error) > 0.5:
            self.histogram = loss_histogram(self.train_ds, ctx.state, ctx.epoch)

    @property
    def best_test_error(self) -> float:
        if not self.rows:
            raise ValueError("no epochs recorded")
        return min(r.test_error for r in self.rows)


# ----- file formats -----

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_metrics_csv(rows: list[EpochMetrics], path) -> None:
    """Header plus one row per epoch, full float precision, stable ordering."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, f)) for f in CSV_FIELDS) + "\n")


def read_metrics_csv(path) -> list[EpochMetrics]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(CSV_FIELDS):
            raise ValueError(f"{path}: unexpected header {header}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(CSV_FIELDS):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 f"{len(CSV_FIELDS)} cells, got {len(cells)}")
            values = {}
            for (name, parse), cell in zip(_CELL_PARSERS.items(), cells):
                try:
                    values[name] = parse(cell)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {name}: {exc}") from None
            rows.append(EpochMetrics(**values))
    return rows


def write_histogram_csv(hist: LossHistogram, path) -> None:
    """Columns: bin_left, bin_right, clean_density, noisy_density."""
    cd, nd = hist.clean_density, hist.noisy_density
    with open(path, "w") as fh:
        fh.write("bin_left,bin_right,clean_density,noisy_density\n")
        for i in range(len(cd)):
            fh.write(f"{_fmt(float(hist.edges[i]))},{_fmt(float(hist.edges[i + 1]))},"
                     f"{_fmt(float(cd[i]))},{_fmt(float(nd[i]))}\n")


# ----- run summaries -----

@dataclass
class RunSummary:
    method: str
    heuristic: Optional[str]
    noise: str
    tau: float
    q: int
    seed: int
    best_test_error: float
    stop_epoch: Optional[int]
    wall_seconds: float

    @classmethod
    def from_dict(cls, d: dict) -> "RunSummary":
        if not isinstance(d, dict):
            raise ValueError(f"run entry must be a JSON object, got {type(d).__name__}")
        missing = [k for k in cls.__dataclass_fields__ if k not in d]
        if missing:
            raise ValueError(f"run entry lacks {', '.join(missing)}")
        for key, types in _JSON_TYPES.items():
            if isinstance(d[key], bool) or not isinstance(d[key], types):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ValueError(f"{key} must be {names}, got {d[key]!r}")
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


# RunSummary field -> the types its JSON value may have; a bool is never a number
_JSON_TYPES = field_table(RunSummary, {str: (str,), int: (int,), float: (int, float)},
                          optional=lambda types: types + (type(None),))


def summarize(runs: list[RunSummary]) -> dict:
    """Per-run records plus grouped aggregates keyed by configuration.

    Groups preserve (method, heuristic, noise, tau, q). Standard error is the
    sample standard deviation over sqrt(n), defined as 0 when n = 1.
    """
    group_keys = ("method", "heuristic", "noise", "tau", "q")
    groups = {}
    for r in runs:
        groups.setdefault(tuple(getattr(r, k) for k in group_keys), []).append(r)
    grouped = []
    for key in sorted(groups, key=lambda k: tuple(str(p) for p in k)):
        errs = np.array([r.best_test_error for r in groups[key]])
        n = len(errs)
        se = float(errs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        grouped.append({**dict(zip(group_keys, key)), "n_runs": n,
                        "mean_best_test_error": float(errs.mean()),
                        "se_best_test_error": se})
    return {"runs": [asdict(r) for r in runs], "groups": grouped}


def write_atomic(path, write: Callable) -> None:
    """Replace path whole or not at all: write(fh) fills a temp file beside it,
    which one rename then moves over path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_summary_json(summary: dict, path) -> None:
    def write(fh):
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_atomic(path, write)


def read_summary_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----- plotting convenience -----

PLOTS_GP = """\
# gnuplot script for one run directory; expects metrics.csv alongside
set datafile separator ","
set key autotitle columnhead outside
set term pngcairo size 1200,480
set output "curves.png"
set multiplot layout 1,2
set xlabel "epoch"
set ylabel "error"
plot "metrics.csv" using 1:2 with lines title "train", \\
     "metrics.csv" using 1:4 with lines title "test"
set ylabel "memorization precision / recall"
set yrange [0:1]
plot "metrics.csv" using 1:5 with lines title "MP", \\
     "metrics.csv" using 1:6 with lines title "MR"
unset multiplot
"""


def write_plots_gp(path) -> None:
    with open(path, "w") as fh:
        fh.write(PLOTS_GP)
