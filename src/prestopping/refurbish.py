"""Label refurbishment on top of the safe set: the Prestopping+ second run.

A fresh network retrains from scratch. Samples outside the trusted set whose
prediction history has collapsed onto one label (normalized entropy <= epsilon)
get that label substituted in; trusted samples keep their training labels.
Each mini-batch update sums the losses of both groups and divides by the
number of participating samples. Everything else is excluded but still
forward-passed so histories keep growing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn, rng
from .data import DataView, check_labels, check_mask
from .engine import Observer, run_epochs
from .memorization import PredictionHistory


@dataclass
class RefurbishConfig:
    """Entropy threshold plus the trusted sample mask (the safe set at t_end)."""
    epsilon: float
    trusted_mask: np.ndarray  # (n,) bool

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        self.trusted_mask = check_mask(self.trusted_mask, None, "trusted_mask")


@dataclass
class RefurbishedSet:
    """Per-sample refurbishment outcome; label -1 marks non-members."""
    labels: np.ndarray   # (n,) int64, most frequent history label or -1
    entropy: np.ndarray  # (n,) float64, normalized history entropy (nan if empty)
    mask: np.ndarray     # (n,) bool

    @property
    def size(self) -> int:
        return int(self.mask.sum())


def normalized_entropy(counts: np.ndarray, n_classes: int) -> np.ndarray:
    """-sum p ln p / ln k per row of history label counts; nan for empty rows."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=1)
    out = np.full(len(counts), np.nan)
    filled = totals > 0
    p = counts[filled] / totals[filled, None]
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    out[filled] = -plogp.sum(axis=1) / np.log(n_classes)
    return out


def refurbish_candidates(histories: PredictionHistory,
                         config: RefurbishConfig) -> RefurbishedSet:
    """Non-trusted samples whose history entropy is at most epsilon."""
    n = histories.n_samples
    trusted = check_mask(config.trusted_mask, n, "trusted_mask")
    counts = histories.label_counts()
    ent = normalized_entropy(counts, histories.n_classes)
    mask = ~trusted & (ent <= config.epsilon)  # an empty history's nan is never <=
    labels = np.full(n, -1, dtype=np.int64)
    labels[mask] = np.argmax(counts[mask], axis=1)  # ties: smallest class index
    return RefurbishedSet(labels, ent, mask)


def epoch_targets(refurb: RefurbishedSet, trusted_mask, noisy_labels):
    """(training labels, member mask) of one Prestopping+ epoch.

    Refurbished samples train on their refurbished label, trusted ones on
    their training label; every other sample is excluded from the gradient.
    """
    n = len(refurb.mask)
    trusted_mask = check_mask(trusted_mask, n, "trusted_mask")
    noisy_labels = check_labels(noisy_labels, np.iinfo(np.int64).max, "noisy_labels", n)
    if np.any(refurb.mask & trusted_mask):
        raise ValueError("refurbished set overlaps the trusted set")
    return np.where(refurb.mask, refurb.labels, noisy_labels), trusted_mask | refurb.mask


@dataclass
class PlusResult:
    final_state: nn.NetworkState
    histories: PredictionHistory
    refurbished: RefurbishedSet  # recomputed from the final histories


def run_prestopping_plus(view: DataView, trusted_mask, net_spec: nn.NetworkSpec,
                         config: nn.OptimizerConfig, q: int, epsilon: float,
                         seed: int, observer: Optional[Observer] = None) -> PlusResult:
    """Second run from a fresh network, mixing trusted and refurbished samples.

    trusted_mask is an (n,) bool mask, normally Phase II's final safe set.
    Histories start empty, so early epochs train on the trusted set alone; the
    refurbished set is recomputed at each epoch start from current histories.
    """
    rcfg = RefurbishConfig(epsilon, trusted_mask)
    state = nn.init_state(net_spec, rng.stream(seed, "plus_init"))
    histories = PredictionHistory(view.n, q, view.n_classes)

    def targets(histories, previous):
        return epoch_targets(refurbish_candidates(histories, rcfg), rcfg.trusted_mask,
                             view.labels)

    for _ in run_epochs("plus", view, state, histories, config, seed, 1, targets, observer):
        pass
    return PlusResult(state, histories, refurbish_candidates(histories, rcfg))
