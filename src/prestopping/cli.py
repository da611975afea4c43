"""Experiment runner: config handling, seeded repetition, q grid, output layout.

Each seed is an isolated job: the data, noise, init and shuffle streams are all
derived from that seed, so reruns reproduce bit-identical metrics files and
seeds can execute in parallel. A Prestopping seed also runs its Phase II in a
forked child process beside Phase I (run_prestopping_overlapped). Layout per
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
import ctypes
import multiprocessing
import os
import pickle
import shutil
import sys
import time
import configparser
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import data, engine, memorization, metrics, nn, refurbish, rng

METHODS = ("default", "prestopping", "prestopping_plus")
NOISES = ("none", "symmetric", "pair")
HEURISTICS = ("validation", "noise_rate")
Q_GRID = (1, 5, 10, 15, 20)
# nn.OptimizerConfig / nn.NetworkSpec field -> config key
LIBRARY_KEYS = {"base_lr": "lr", "total_epochs": "epochs", "layer_sizes": "hidden"}


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending key."""


def _ints(s: str) -> tuple:
    return tuple(int(x) for x in s.replace(" ", "").split(",") if x)


def _floats(s: str) -> tuple:
    return tuple(float(x) for x in s.replace(" ", "").split(",") if x)


# every key appears in exactly one config-file section and doubles as a flag
CONVERTERS = {
    "data_csv": str, "n_classes": int, "per_class": int, "dim": int,
    "spread": float, "validation_size": int, "test_size": int,
    "noise": str, "tau": float,
    "hidden": _ints, "lr": float, "momentum": float, "batch_size": int,
    "epochs": int, "decay_points": _floats, "decay_factor": float,
    "method": str, "heuristic": str, "q": int, "epsilon": float,
    "seeds": _ints, "jobs": int, "out": str,
}


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
    hidden: tuple = (128, 64)
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 128
    epochs: int = 60
    decay_points: tuple = (0.5, 0.75)
    decay_factor: float = 5.0
    method: str = "prestopping"
    heuristic: str = "validation"
    q: int = 10
    epsilon: float = 0.05
    seeds: tuple = (0, 1, 2)
    jobs: int = 1
    out: str = "runs"

    def validate(self) -> None:
        def bad(key, msg):
            raise ConfigError(f"{key}: {msg}")

        if self.method not in METHODS:
            bad("method", f"must be one of {METHODS}, got {self.method!r}")
        if self.noise not in NOISES:
            bad("noise", f"must be one of {NOISES}, got {self.noise!r}")
        if self.heuristic not in HEURISTICS:
            bad("heuristic", f"must be one of {HEURISTICS}, got {self.heuristic!r}")
        if self.data_csv is not None and not Path(self.data_csv).is_file():
            bad("data_csv", f"file not found: {self.data_csv}")
        if self.data_csv is None:
            if not 2 <= self.n_classes <= memorization.MAX_CLASSES:
                bad("n_classes", f"must lie in [2, {memorization.MAX_CLASSES}], "
                    f"got {self.n_classes}")
            if self.per_class < 1:
                bad("per_class", "need at least 1 sample per class")
            if self.dim < 1:
                bad("dim", "need at least 1 feature dimension")
            if self.spread < 0:
                bad("spread", "must be non-negative")
            total = self.n_classes * self.per_class
            if self.validation_size + self.test_size >= total:
                bad("validation_size", f"validation {self.validation_size} + test "
                    f"{self.test_size} leave no training data out of {total}")
        if self.validation_size < 0:
            bad("validation_size", "must be non-negative")
        if self.test_size < 1:
            bad("test_size", "need a test partition to score runs")
        if self.noise != "none" and self.tau is None:
            bad("tau", f"required when noise = {self.noise}")
        if self.tau is not None and not 0.0 <= self.tau < 1.0:
            bad("tau", f"must lie in [0, 1), got {self.tau}")
        if self.method in ("prestopping", "prestopping_plus"):
            if self.heuristic == "noise_rate" and self.tau is None:
                bad("tau", "noise_rate heuristic needs the noise rate")
            if self.heuristic == "validation" and self.validation_size < 1:
                bad("validation_size", "validation heuristic needs a validation set")
        try:
            self.net_spec(1, 2)  # only the hidden widths are known before the data
            self.optimizer()
        except ValueError as exc:
            # library messages start with the offending field's name
            field, _, msg = str(exc).partition(" ")
            bad(LIBRARY_KEYS.get(field, field), msg)
        if not 1 <= self.q <= memorization.MAX_Q:
            bad("q", f"history length must lie in [1, {memorization.MAX_Q}], got {self.q}")
        if not 0.0 <= self.epsilon <= 1.0:
            bad("epsilon", f"must lie in [0, 1], got {self.epsilon}")
        if not self.seeds:
            bad("seeds", "need at least one seed")
        if any(s < 0 for s in self.seeds):
            bad("seeds", f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            bad("seeds", f"duplicate seeds collide on output directories: {self.seeds}")
        if self.jobs < 1:
            bad("jobs", "must be positive")

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


def load_config_file(path) -> dict:
    """Flat key = value file with sections; keys are globally unique."""
    cp = configparser.ConfigParser()
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

def build_dataset(cfg: ExperimentConfig, seed: int):
    """(train dataset, validation view, test view) for one seed."""
    if cfg.data_csv is not None:
        full = data.load_csv(cfg.data_csv)
    else:
        full = data.synth_gaussian(cfg.n_classes, cfg.per_class, cfg.dim, cfg.spread,
                                   seed=rng.derive_seed(seed, "data"))
    if cfg.noise != "none" and full.is_noise_free:
        build = data.build_pair_matrix if cfg.noise == "pair" else data.build_symmetric_matrix
        full = data.inject_noise(full, build(full.n_classes, cfg.tau),
                                 seed=rng.derive_seed(seed, "noise"),
                                 kind=cfg.noise, tau=cfg.tau)
    spec = data.SplitSpec(cfg.validation_size, cfg.test_size,
                          seed=rng.derive_seed(seed, "split"))
    return data.split(full, spec)


def _openblas_threads():
    """(get, set) thread-count functions of NumPy's bundled OpenBLAS, or None."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread (a no-op for other BLAS builds).

    The two processes of an overlapped run already occupy two cores; further
    BLAS threads only contend with them for the cores. OpenBLAS splits a GEMM
    over output blocks, not over its sums, so no output byte depends on the
    thread count; the overlap tests compare against serial runs at the
    default count.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _phase2_child(conn, ckpt, view, opt, seed, collector) -> None:
    """Forked child body: Phase II from ckpt, sent back once over conn.

    Sends (outcome, warnings): outcome is (state, safe mask, histories, rows,
    histogram) or the exception Phase II raised; the warnings it issued are
    re-issued by the parent.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            state, safe, histories = engine.phase2_train(ckpt, view, opt, seed,
                                                         observer=collector)
            outcome = (state, safe, histories, collector.rows, collector.histogram)
        except Exception as exc:
            outcome = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that cannot cross travels as its text
                outcome = RuntimeError(f"{type(exc).__name__}: {exc}")
    conn.send((outcome, [(w.message, w.category, w.filename, w.lineno) for w in caught]))


class _Phase2Process:
    """Phase II of one seed in a forked child, restarted from each new checkpoint.

    At most one child is alive: restart kills and reaps the running one first.
    The child starts from a copy-on-write image of this process, so nothing is
    pickled on the way in; its result comes back over a one-way pipe.
    """

    def __init__(self, view, opt, seed: int, collector: metrics.MetricsCollector):
        self.view, self.opt, self.seed, self.collector = view, opt, seed, collector
        self._proc = self._conn = None

    def restart(self, ckpt: engine.Checkpoint) -> None:
        self.stop()
        fork = multiprocessing.get_context("fork")
        self._conn, send = fork.Pipe(duplex=False)
        fresh = metrics.MetricsCollector(self.collector.train_ds, self.collector.test_view)
        self._proc = fork.Process(target=_phase2_child,
                                  args=(send, ckpt, self.view, self.opt, self.seed, fresh))
        self._proc.start()
        send.close()  # the child holds the only write end: its death reads as EOF

    def stop(self) -> None:
        """Kill and reap the running child, if any."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.join()
            self._conn.close()
            self._proc = self._conn = None

    def result(self):
        """Wait for the last started child: (state, safe mask, histories, rows, histogram)."""
        try:
            outcome, caught = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise RuntimeError(f"seed {self.seed}: Phase II process exited with code "
                               f"{self._proc.exitcode} without a result") from None
        self._proc.join()
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def run_prestopping_overlapped(view, heuristic: engine.StopHeuristic, net_spec, opt,
                               q: int, seed: int,
                               collector: metrics.MetricsCollector) -> engine.PrestopResult:
    """engine.run_prestopping, with Phase II run beside the rest of Phase I.

    Each checkpoint Phase I takes restarts Phase II from it in a child
    process, so Phase II from the final checkpoint overlaps Phase I's
    remaining epochs. The child's rows follow Phase I's, and its histogram is
    adopted only when Phase I captured none: the serial observer order, so
    every output is byte-identical to the serial run's. The child is forked,
    so the caller must run no other threads (the CLI process and its pool
    workers run none).
    """
    phase2 = _Phase2Process(view, opt, seed, collector)
    with _one_blas_thread():  # the child inherits the setting
        try:
            ckpt = engine.phase1_train(view, heuristic, net_spec, opt, q, seed, collector,
                                       on_checkpoint=phase2.restart)
            state, safe, histories, rows, histogram = phase2.result()
        finally:
            phase2.stop()
    collector.rows += rows
    if collector.histogram is None:
        collector.histogram = histogram
    return engine.PrestopResult(ckpt, state, safe, histories)


def _train_one(cfg: ExperimentConfig, seed: int, train_ds, val_view, collector):
    """Dispatch on method; returns (checkpoint or None, plus result or None)."""
    view = train_ds.train_view()
    net = cfg.net_spec(view.features.shape[1], view.n_classes)
    opt = cfg.optimizer()
    if cfg.method == "default":
        engine.run_default(view, net, opt, cfg.q, seed, observer=collector)
        return None, None
    heur = engine.StopHeuristic(cfg.heuristic, tau=cfg.tau, validation=val_view)
    result = run_prestopping_overlapped(view, heur, net, opt, cfg.q, seed, collector)
    if cfg.method == "prestopping":
        return result.checkpoint, None
    plus = refurbish.run_prestopping_plus(view, result.safe_set, net, opt,
                                          cfg.q, cfg.epsilon, seed,
                                          observer=collector)
    return result.checkpoint, plus


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
    ckpt, plus = _train_one(cfg, seed, train_ds, val_view, collector)
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


def _seed_job(cfg_dict: dict, seed: int) -> dict:
    # process-pool entry point; must stay module-level picklable
    return run_single(ExperimentConfig(**cfg_dict), seed).to_dict()


def execute_run(cfg: ExperimentConfig):
    """All seeds of one configuration; failures are isolated per seed.

    Returns (summaries, failures) and writes <out>/summary.json covering them.
    """
    summaries, failures = [], []
    if min(cfg.jobs, len(cfg.seeds)) > 1:
        cfg_dict = asdict(cfg)
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [(seed, pool.submit(_seed_job, cfg_dict, seed))
                       for seed in cfg.seeds]
            for seed, fut in futures:
                exc = fut.exception()
                if exc is None:
                    summaries.append(metrics.RunSummary.from_dict(fut.result()))
                else:
                    failures.append({"seed": seed,
                                     "error": f"{type(exc).__name__}: {exc}"})
    else:
        for seed in cfg.seeds:
            try:
                summaries.append(run_single(cfg, seed))
            except Exception as exc:
                failures.append({"seed": seed,
                                 "error": f"{type(exc).__name__}: {exc}"})
    for s in summaries:
        stop = "-" if s.stop_epoch is None else str(s.stop_epoch)
        print(f"{s.method} {cfg.noise_dir} q={s.q} seed={s.seed}: "
              f"best_test_error={s.best_test_error:.4f} stop_epoch={stop} "
              f"({s.wall_seconds:.1f}s)")
    for f in failures:
        print(f"seed {f['seed']} failed: {f['error']}", file=sys.stderr)
    aggregate = metrics.summarize(summaries) if summaries else {"runs": [], "groups": []}
    aggregate["failures"] = failures
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_summary_json(aggregate, out / "summary.json")
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
        all_failures += failures
    by_q = {g["q"]: g for g in metrics.summarize(all_summaries)["groups"]} \
        if all_summaries else {}
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["q,n_runs,mean_best_test_error,se_best_test_error\n"]
    for qv in sorted(grid):
        g = by_q.get(qv)
        lines.append(f"{qv},0,,\n" if g is None else
                     f"{qv},{g['n_runs']},{repr(g['mean_best_test_error'])},"
                     f"{repr(g['se_best_test_error'])}\n")
    metrics.write_atomic(out / "grid_q.csv", lambda fh: fh.writelines(lines))
    if all_summaries:
        aggregate = metrics.summarize(all_summaries)
        aggregate["failures"] = all_failures
        metrics.write_summary_json(aggregate, out / "summary.json")
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
    run_p = sub.add_parser("run", help="run one configuration across its seeds")
    grid_p = sub.add_parser("grid-q", help="sweep the prediction-history length q")
    for p in (run_p, grid_p):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for key in CONVERTERS:
            p.add_argument(f"--{key}", metavar="V", help=f"override config key {key}")
    grid_p.add_argument("--grid", metavar="Q,Q,...",
                        default=",".join(str(q) for q in Q_GRID),
                        help="history lengths to sweep (default %(default)s)")
    sum_p = sub.add_parser("summarize", help="re-aggregate run summaries under a directory")
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
