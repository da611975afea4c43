"""Experiment runner: config handling, seeded repetition, q grid, output layout.

Each seed is an isolated job: the data, noise, init and shuffle streams are all
derived from that seed, so reruns reproduce bit-identical metrics files and
seeds can execute in parallel; processes.train_seed trains one. Layout per
run, written whole:

    <out>/<method>/<noise>_<tau>/seed<k>/
        metrics.csv        one row per epoch (all phases)
        summary.json       this run's record plus its one-run aggregate
        hist_<epoch>.csv   loss histogram at the 50%-train-accuracy epoch
        plots.gp           gnuplot convenience script
        checkpoint_net.pstp / checkpoint_hist.psth   stop-point state
        refurbished.csv    final refurbished labels (prestopping_plus only)

Exit codes: 0 success, 1 any run failed, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import sys
import time
import configparser
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import data, memorization, metrics, nn, processes, refurbish, rng

METHODS = ("default", "prestopping", "prestopping_plus")
NOISES = ("none", "symmetric", "pair")
HEURISTICS = ("validation", "noise_rate")
Q_GRID = (1, 5, 10, 15, 20)
# library field -> config key, where the two names differ
LIBRARY_KEYS = {"base_lr": "lr", "total_epochs": "epochs", "layer_sizes": "hidden"}


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending key."""


# list-valued keys: comma-separated cells, a blank cell is an error, a blank value is ()
def _ints(s: str) -> tuple:
    return tuple(int(x) for x in s.split(",")) if s.strip() else ()


def _floats(s: str) -> tuple:
    return tuple(float(x) for x in s.split(",")) if s.strip() else ()


@dataclass
class ExperimentConfig:
    data_csv: Optional[str] = None
    n_classes: int = 4
    per_class: int = 1375
    dim: int = 16
    spread: float = 0.3
    validation_size: int = 500
    test_size: int = 1000
    noise: str = "none"
    tau: Optional[float] = None
    hidden: tuple[int, ...] = (128, 64)
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 128
    epochs: int = 60
    decay_points: tuple[float, ...] = (0.5, 0.75)
    decay_factor: float = 5.0
    method: str = "prestopping"
    heuristic: str = "validation"
    q: int = 10
    epsilon: float = 0.05
    seeds: tuple[int, ...] = (0, 1, 2)
    jobs: int = 1
    out: str = "runs"

    def validate(self) -> None:
        """Check what only the CLI knows, and build the library objects for the rest:
        their messages start with the field's name, which LIBRARY_KEYS maps to a key."""
        def bad(key, msg):
            raise ConfigError(f"{key}: {msg}")

        if self.method not in METHODS:
            bad("method", f"must be one of {METHODS}, got {self.method!r}")
        if self.noise not in NOISES:
            bad("noise", f"must be one of {NOISES}, got {self.noise!r}")
        if self.heuristic not in HEURISTICS:
            bad("heuristic", f"must be one of {HEURISTICS}, got {self.heuristic!r}")
        try:  # placeholder sizes: only the checked fields are known before the data
            self.net_spec(1, 2)
            self.optimizer()
            memorization.PredictionHistory(1, self.q, self.n_classes)
            refurbish.RefurbishConfig(self.epsilon, ())
            if self.tau is not None:
                data.check_tau(self.tau)
        except ValueError as exc:
            field, _, msg = str(exc).partition(" ")
            bad(LIBRARY_KEYS.get(field, field), msg)
        # the synthetic keys are checked even when data_csv replaces them
        if self.per_class < 1:
            bad("per_class", "need at least 1 sample per class")
        if self.dim < 1:
            bad("dim", "need at least 1 feature dimension")
        if not 0 <= self.spread < np.inf:
            bad("spread", f"must be non-negative and finite, got {self.spread}")
        total = self.n_classes * self.per_class
        if self.data_csv is not None:
            try:
                full = _read_csv(self.data_csv)
                memorization.PredictionHistory(1, 1, full.n_classes)
            except OSError as exc:
                bad("data_csv", f"cannot read {self.data_csv}: {exc.strerror or exc}")
            except ValueError as exc:  # a parse error names the file and the line
                bad("data_csv", str(exc))
            total = full.n
        if self.validation_size + self.test_size >= total:
            bad("validation_size", f"validation {self.validation_size} + test "
                f"{self.test_size} leave no training data out of {total}")
        if self.validation_size < 0:
            bad("validation_size", "must be non-negative")
        if self.test_size < 1:
            bad("test_size", "need a test partition to score runs")
        if self.noise != "none" and self.tau is None:
            bad("tau", f"required when noise = {self.noise}")
        if self.method in ("prestopping", "prestopping_plus"):
            if self.heuristic == "noise_rate" and self.tau is None:
                bad("tau", "noise_rate heuristic needs the noise rate")
            if self.heuristic == "validation" and self.validation_size < 1:
                bad("validation_size", "validation heuristic needs a validation set")
        if not self.seeds:
            bad("seeds", "need at least one seed")
        if any(s < 0 for s in self.seeds):
            bad("seeds", f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            bad("seeds", f"duplicate seeds collide on output directories: {self.seeds}")
        if self.jobs < 1:
            bad("jobs", "must be positive")
        existing = next(p for p in (Path(self.out), *Path(self.out).parents) if os.path.lexists(p))
        if not existing.is_dir():
            bad("out", f"{existing} is not a directory")

    def optimizer(self) -> nn.OptimizerConfig:
        return nn.OptimizerConfig(base_lr=self.lr, momentum=self.momentum,
                                  batch_size=self.batch_size, total_epochs=self.epochs,
                                  decay_points=tuple(self.decay_points),
                                  decay_factor=self.decay_factor)

    def net_spec(self, n_features: int, n_classes: int) -> nn.NetworkSpec:
        return nn.NetworkSpec((n_features, *self.hidden, n_classes))

    @property
    def tau_value(self) -> float:
        return 0.0 if self.tau is None else float(self.tau)

    @property
    def noise_dir(self) -> str:
        return f"{self.noise}_{self.tau_value:g}"

    def run_dir(self, seed: int) -> Path:
        return Path(self.out) / self.method / self.noise_dir / f"seed{seed}"


# every key appears in exactly one config-file section and doubles as a flag;
# its annotation picks the parser, Optional[X] parsing as X
CONVERTERS = metrics.field_table(ExperimentConfig, {
    int: int, float: float, str: str, tuple[int, ...]: _ints, tuple[float, ...]: _floats})


def load_config_file(path) -> dict:
    """Flat key = value file with sections; keys are globally unique, values are
    literal (no % interpolation), and [DEFAULT] is an ordinary section."""
    cp = configparser.ConfigParser(interpolation=None, default_section=None)
    cp.optionxform = str  # keys are case-sensitive
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config: cannot parse {path}: {exc}")
    values = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            if key not in CONVERTERS:
                raise ConfigError(f"{key}: unknown key (section [{section}] of {path})")
            if key in values:
                raise ConfigError(f"{key}: set twice in {path}")
            values[key] = raw
    return values


def build_config(config_path, overrides: dict) -> ExperimentConfig:
    """Defaults, then config file, then command-line flags (flag wins)."""
    raw = {}
    if config_path is not None:
        raw.update(load_config_file(config_path))
    raw.update(overrides)
    converted = {}
    for key, value in raw.items():
        try:
            converted[key] = CONVERTERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} ({exc})")
    cfg = ExperimentConfig(**converted)
    cfg.validate()
    return cfg


# ----- single-seed execution -----

@functools.lru_cache(maxsize=1)
def _parsed_csv(path: str, mtime_ns: int, size: int) -> data.NoisyDataset:
    return data.load_csv(path)


def _read_csv(path) -> data.NoisyDataset:
    """data.load_csv(path), cached until the file changes: validate and every seed
    share one parse, which pool workers inherit as they fork after validate."""
    st = os.stat(path)
    return _parsed_csv(str(path), st.st_mtime_ns, st.st_size)


def build_dataset(cfg: ExperimentConfig, seed: int):
    """(train dataset, validation view, test view) for one seed."""
    if cfg.data_csv is not None:
        full = _read_csv(cfg.data_csv)
    else:
        full = data.synth_gaussian(cfg.n_classes, cfg.per_class, cfg.dim, cfg.spread,
                                   seed=rng.derive_seed(seed, "data"))
    if cfg.noise != "none" and full.is_noise_free:
        build = data.build_pair_matrix if cfg.noise == "pair" else data.build_symmetric_matrix
        full = data.inject_noise(full, build(full.n_classes, cfg.tau),
                                 seed=rng.derive_seed(seed, "noise"))
    spec = data.SplitSpec(cfg.validation_size, cfg.test_size,
                          seed=rng.derive_seed(seed, "split"))
    return data.split(full, spec)


def _write_refurbished_csv(refurb, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,refurbished_label,entropy\n")
        for i in np.nonzero(refurb.mask)[0]:
            fh.write(f"{i},{refurb.labels[i]},{repr(float(refurb.entropy[i]))}\n")


@contextlib.contextmanager
def _whole_directory(final: Path):
    """Yield a hidden sibling directory to fill; it replaces final once the block completes.

    The swap is two renames, so final holds either its old files or all the
    new ones; on an error final is left as it was and the sibling is removed.
    """
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
    old = final.with_name(f".{final.name}.{os.getpid()}.old")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        yield tmp
        if final.exists():
            os.rename(final, old)
        os.rename(tmp, final)
        shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_single(cfg: ExperimentConfig, seed: int) -> metrics.RunSummary:
    """One seeded run: train, then write every artifact into the run directory.

    The run directory is written whole: a rerun leaves no stale file behind,
    and a run that fails leaves any earlier run directory untouched.
    """
    t0 = time.perf_counter()
    train_ds, val_view, test_view = build_dataset(cfg, seed)
    collector = metrics.MetricsCollector(train_ds, test_view)
    result, plus = processes.train_seed(cfg, seed, train_ds, val_view, collector)
    ckpt = None if result is None else result.checkpoint
    with _whole_directory(cfg.run_dir(seed)) as run_dir:
        metrics.write_metrics_csv(collector.rows, run_dir / "metrics.csv")
        if collector.histogram is not None:
            metrics.write_histogram_csv(collector.histogram,
                                        run_dir / f"hist_{collector.histogram.epoch}.csv")
        metrics.write_plots_gp(run_dir / "plots.gp")
        if ckpt is not None:
            nn.save_network(ckpt.state, run_dir / "checkpoint_net.pstp")
            ckpt.histories.save(run_dir / "checkpoint_hist.psth")
        if plus is not None:
            _write_refurbished_csv(plus.refurbished, run_dir / "refurbished.csv")
        heuristic = cfg.heuristic if cfg.method != "default" else None
        summary = metrics.RunSummary(cfg.method, heuristic, cfg.noise, cfg.tau_value,
                                     cfg.q, seed, collector.best_test_error,
                                     ckpt.epoch if ckpt is not None else None,
                                     time.perf_counter() - t0)
        metrics.write_summary_json(metrics.summarize([summary]),
                                   run_dir / "summary.json")
    return summary


def _write_aggregate(out, summaries, failures) -> dict:
    """Write <out>/summary.json: the runs, their groups and the failures; returns it."""
    aggregate = metrics.summarize(summaries) if summaries else {"runs": [], "groups": []}
    aggregate["failures"] = failures
    Path(out).mkdir(parents=True, exist_ok=True)
    metrics.write_summary_json(aggregate, Path(out) / "summary.json")
    return aggregate


def execute_run(cfg: ExperimentConfig):
    """All seeds of one configuration; failures are isolated per seed.

    Returns (summaries, failures) and writes <out>/summary.json covering them.
    Each seed's outcome is its RunSummary; anything else is its failure.
    """
    outcomes = []
    if (workers := min(cfg.jobs, len(cfg.seeds))) > 1:  # all forked at the first submit
        with ProcessPoolExecutor(max_workers=workers, initializer=processes.die_with_parent) as pool:
            futures = [pool.submit(run_single, cfg, seed) for seed in cfg.seeds]
            outcomes = [fut.exception() or fut.result() for fut in futures]
    else:
        for seed in cfg.seeds:
            try:
                outcomes.append(run_single(cfg, seed))
            except Exception as exc:
                outcomes.append(exc)
    summaries = [o for o in outcomes if isinstance(o, metrics.RunSummary)]
    failures = [{"seed": seed, "error": f"{type(o).__name__}: {o}"}
                for seed, o in zip(cfg.seeds, outcomes) if not isinstance(o, metrics.RunSummary)]
    for s in summaries:
        stop = "-" if s.stop_epoch is None else str(s.stop_epoch)
        print(f"{s.method} {cfg.noise_dir} q={s.q} seed={s.seed}: "
              f"best_test_error={s.best_test_error:.4f} stop_epoch={stop} "
              f"({s.wall_seconds:.1f}s)")
    for f in failures:
        print(f"{cfg.method} {cfg.noise_dir} q={cfg.q}: seed {f['seed']} failed: "
              f"{f['error']}", file=sys.stderr)
    _write_aggregate(cfg.out, summaries, failures)
    return summaries, failures


def _groups_table(groups) -> str:
    rows = [("method", "heuristic", "noise", "tau", "q", "n", "mean_err", "se")]
    for g in groups:
        rows.append((g["method"], g["heuristic"] or "-", g["noise"],
                     f"{g['tau']:g}", str(g["q"]), str(g["n_runs"]),
                     f"{g['mean_best_test_error']:.4f}",
                     f"{g['se_best_test_error']:.4f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


# ----- subcommands -----

def cmd_run(cfg: ExperimentConfig) -> int:
    summaries, failures = execute_run(cfg)
    if summaries:
        print(_groups_table(metrics.summarize(summaries)["groups"]))
    return 1 if failures or not summaries else 0


def cmd_grid_q(cfg: ExperimentConfig, grid: tuple) -> int:
    if cfg.method not in ("prestopping", "prestopping_plus"):
        raise ConfigError(f"method: grid-q needs prestopping or prestopping_plus, "
                          f"got {cfg.method!r}")
    if not grid or len(set(grid)) != len(grid) \
            or any(not 1 <= qv <= memorization.MAX_Q for qv in grid):
        raise ConfigError(f"grid: history lengths must be distinct and lie in "
                          f"[1, {memorization.MAX_Q}], got {grid}")
    all_summaries, all_failures = [], []
    for qv in grid:
        sub = replace(cfg, q=qv, out=str(Path(cfg.out) / f"q{qv}"))
        summaries, failures = execute_run(sub)
        all_summaries += summaries
        all_failures += [{"q": qv, **f} for f in failures]
    aggregate = _write_aggregate(cfg.out, all_summaries, all_failures)
    by_q = {g["q"]: g for g in aggregate["groups"]}
    lines = ["q,n_runs,mean_best_test_error,se_best_test_error\n"]
    for qv in sorted(grid):
        g = by_q.get(qv)
        lines.append(f"{qv},0,,\n" if g is None else
                     f"{qv},{g['n_runs']},{repr(g['mean_best_test_error'])},"
                     f"{repr(g['se_best_test_error'])}\n")
    metrics.write_atomic(Path(cfg.out) / "grid_q.csv", lambda fh: fh.writelines(lines))
    if all_summaries:
        print(_groups_table(aggregate["groups"]))
    return 1 if all_failures or not all_summaries else 0


def cmd_summarize(root: Path) -> int:
    runs = []
    for path in sorted(root.rglob("seed*/summary.json")):
        try:
            summary = metrics.read_summary_json(path)
            if not isinstance(summary, dict):
                raise ValueError(f"expected a JSON object, got {type(summary).__name__}")
            entries = summary.get("runs", [])
            if not isinstance(entries, list):
                raise ValueError(f"runs must be a JSON list, got {type(entries).__name__}")
            runs += [metrics.RunSummary.from_dict(d) for d in entries]
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
    if not runs:
        print(f"no run summaries found under {root}", file=sys.stderr)
        return 1
    aggregate = metrics.summarize(runs)
    metrics.write_summary_json(aggregate, root / "summary.json")
    print(_groups_table(aggregate["groups"]))
    return 0


# ----- argument parsing -----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prestopping",
        description="Noisy-label training experiments: standard SGD, two-phase "
                    "safe-set training, and its label-refurbishing extension.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are exact: --epo must not pass for --epochs
    add = functools.partial(sub.add_parser, allow_abbrev=False)
    run_p = add("run", help="run one configuration across its seeds")
    grid_p = add("grid-q", help="sweep the prediction-history length q")
    for p in (run_p, grid_p):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for key in CONVERTERS:
            p.add_argument(f"--{key}", metavar="V", help=f"override config key {key}")
    grid_p.add_argument("--grid", metavar="Q,Q,...",
                        default=",".join(str(q) for q in Q_GRID),
                        help="history lengths to sweep (default %(default)s)")
    sum_p = add("summarize", help="re-aggregate run summaries under a directory")
    sum_p.add_argument("--dir", required=True, metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return cmd_summarize(Path(args.dir))
        overrides = {key: value for key in CONVERTERS
                     if (value := getattr(args, key)) is not None}
        cfg = build_config(args.config, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        try:
            grid = _ints(args.grid)
        except ValueError as exc:
            raise ConfigError(f"grid: cannot parse {args.grid!r} ({exc})")
        return cmd_grid_q(cfg, grid)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
