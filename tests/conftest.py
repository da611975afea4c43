"""Session-wide cache of desk-scale runs shared by the acceptance tests.

Every desk run is deterministic given (method, noise, tau, heuristic, q, seed),
so each configuration is trained once per session and reused by every test
that inspects it.
"""

import os
import time

import numpy as np
import pytest

from prestopping import cli, metrics, processes

DESK = dict(n_classes=4, per_class=1375, dim=16, spread=0.3,
            validation_size=500, test_size=1000, hidden=(128, 64),
            lr=0.1, momentum=0.9, batch_size=128, epochs=60,
            decay_points=(0.5, 0.75), decay_factor=5.0, epsilon=0.05)
SEEDS = (0, 1, 2)


@pytest.fixture(autouse=True)
def no_leaked_children():
    """No test leaves a child process behind, running or exited and unreaped, nor
    this process's end of a child's channels: a leaked spool keeps every message
    it was sent."""
    yield
    with pytest.raises(ChildProcessError):  # this process has no child at all
        os.waitpid(-1, os.WNOHANG)
    assert processes._PARENT_ENDS == set()


class DeskRun:
    """One finished run: metric rows plus dataset composition and timing."""

    def __init__(self, collector, checkpoint, train_ds, wall_seconds):
        self.rows = collector.rows
        self.histogram = collector.histogram
        self.best_test_error = collector.best_test_error
        self.checkpoint = checkpoint
        self.n_train = train_ds.n
        self.n_false = int(np.count_nonzero(train_ds.noisy_labels
                                            != train_ds.true_labels))
        self.wall_seconds = wall_seconds

    def phase_rows(self, phase):
        return [r for r in self.rows if r.phase == phase]

    @property
    def stop_epoch(self):
        return None if self.checkpoint is None else self.checkpoint.epoch

    def memorized_false_fraction(self, row):
        """Fraction of the mislabeled training samples currently memorized."""
        return row.memorized_false_count / self.n_false if self.n_false else 0.0

    def cross_epoch(self):
        """First standard-training epoch where memorization recall >= precision."""
        phase1 = self.phase_rows("phase1")
        for r in phase1:
            if r.mr >= r.mp:
                return r.epoch
        return phase1[-1].epoch


class DeskLab:
    """Lazy per-session trainer; repeated requests hit the cache."""

    def __init__(self):
        self._datasets = {}
        self._runs = {}

    def config(self, method, noise, tau, heuristic="validation", q=10):
        return cli.ExperimentConfig(method=method, noise=noise, tau=tau,
                                    heuristic=heuristic, q=q, **DESK)

    def dataset(self, noise, tau, seed):
        key = (noise, tau, seed)
        if key not in self._datasets:
            cfg = self.config("default", noise, tau)
            self._datasets[key] = cli.build_dataset(cfg, seed)
        return self._datasets[key]

    def run(self, method, noise, tau, seed, heuristic="validation", q=10) -> DeskRun:
        key = (method, noise, tau, seed, heuristic, q)
        if key not in self._runs:
            cfg = self.config(method, noise, tau, heuristic, q)
            train_ds, val_view, test_view = self.dataset(noise, tau, seed)
            collector = metrics.MetricsCollector(train_ds, test_view)
            t0 = time.perf_counter()
            result, _ = processes.train_seed(cfg, seed, train_ds, val_view, collector)
            wall = time.perf_counter() - t0
            ckpt = None if result is None else result.checkpoint
            self._runs[key] = DeskRun(collector, ckpt, train_ds, wall)
        return self._runs[key]


@pytest.fixture(scope="session")
def desk() -> DeskLab:
    return DeskLab()
