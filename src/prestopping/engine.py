"""Two-phase training: standard SGD until the stop point, then safe-set-only updates.

Phase I trains normally while a stop heuristic watches epoch-end errors. The
validation heuristic trains all epochs and rewinds to the checkpoint with the
lowest validation error (first epoch on ties); the noise-rate heuristic stops
at the first epoch whose training error drops to the noise rate. Phase II
resumes from the checkpoint and, per mini-batch, takes gradients only over the
currently-memorized members of the batch, dividing by their count. Every batch
sample is still forward-passed and recorded, so the safe set can grow.

This module never sees true labels; evaluation against them happens in the
instrumentation layer through the observer callback.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nn, rng
from .data import DataView, check_labels, check_tau
from .memorization import PredictionHistory


@dataclass
class StopHeuristic:
    """Phase I stop rule: kind "validation" (needs a view) or "noise_rate" (needs tau)."""
    kind: str
    tau: Optional[float] = None
    validation: Optional[DataView] = None

    def __post_init__(self):
        if self.kind == "validation":
            if self.validation is None:
                raise ValueError("validation heuristic needs a validation view")
        elif self.kind == "noise_rate":
            if self.tau is None:
                raise ValueError("noise_rate heuristic needs the noise rate tau")
            check_tau(self.tau)
        else:
            raise ValueError(f"unknown heuristic kind {self.kind!r}")


@dataclass
class Checkpoint:
    """Network plus prediction histories frozen at the stop epoch."""
    state: nn.NetworkState
    histories: PredictionHistory
    epoch: int
    trigger_value: float


@dataclass
class EpochContext:
    """Observer payload at each epoch end; state and histories are live references."""
    phase: str
    epoch: int
    state: nn.NetworkState
    histories: Optional[PredictionHistory]
    memorized: np.ndarray  # (n,) bool maximal safe set under the epoch-end histories
    lr: float
    validation_error: Optional[float] = None


@dataclass
class StepRecord:
    """Per-mini-batch trace of one train_epoch update, for exact replay checks."""
    epoch: int
    indices: np.ndarray
    member_mask: np.ndarray
    n_used: int
    lr: float
    before: nn.NetworkState  # copies of the state around the update
    after: nn.NetworkState


class StopPointNotReached(RuntimeError):
    """noise_rate heuristic never saw train_error <= tau within the epoch budget."""


Observer = Callable[[EpochContext], None]
StepHook = Callable[[StepRecord], None]


def is_improvement(value: float, best: Optional[float]) -> bool:
    """Strict improvement, so the first epoch attaining a minimum wins ties."""
    return best is None or value < best


def _make_batches(n: int, batch_size: int, shuffle_rng: np.random.Generator):
    """Seeded shuffle partitioned into consecutive batches (last one may be short)."""
    order = shuffle_rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def train_epoch(view: DataView, state, histories, config, epoch: int, seed: int,
                labels=None, member=None, step_hook: Optional[StepHook] = None) -> bool:
    """One epoch of mini-batch SGD, recording every sample's forward prediction.

    labels are the per-sample training labels (default: the view's), integers
    in [0, n_classes). member, an (n,) bool mask fixed for the epoch,
    restricts each batch's gradient to its members and divides by their
    count; None trains on every sample. Both are checked once, with the
    features' width, before anything trains. Features, labels and member
    mask are gathered once in shuffled order, so each batch is a slice, and
    every batch, with or without members, runs one nn.loss_grad_probs step
    on one nn._TrainKernel; a batch without members stops after its forward
    pass and takes no update. Each sample's prediction comes from its batch's
    forward pass, before that batch's update, and all of them are recorded
    in one write after the last batch: every sample is in exactly one batch,
    and nothing reads the histories mid-epoch. Returns True when at least
    one batch updated the parameters.
    """
    n = view.n
    labels = check_labels(view.labels if labels is None else labels, state.spec.n_classes)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if member is not None:
        member = np.asarray(member)
        if member.shape != (n,) or member.dtype != bool:
            raise ValueError(f"member must be {n} bools, got {member.dtype} of shape "
                             f"{member.shape}")
    nn._check_features(view.features, state.spec)
    batches = _make_batches(n, config.batch_size, rng.stream(seed, "shuffle", epoch))
    order = np.concatenate(batches)
    # gathered onto nn.ALIGN-byte boundaries; order is a permutation, so no index is
    # clipped, and mode="raise" would gather into a temporary first
    features = np.take(view.features, order, axis=0, mode="clip",
                       out=nn.aligned_empty(view.features.shape))
    labels = labels[order]
    if member is not None:
        member = np.take(member, order, mode="clip", out=nn.aligned_empty(n, bool))
    kernel = nn._TrainKernel(state, min(config.batch_size, n), config.lr_at(epoch))
    preds = np.empty(n, dtype=np.intp)
    updated = False
    lo = 0
    for idx in batches:
        hi = lo + len(idx)
        mask = None if member is None else member[lo:hi]
        n_used = hi - lo if mask is None else int(np.count_nonzero(mask))
        before = state.copy() if step_hook is not None else None
        _, grad, _, probs = nn.loss_grad_probs(features[lo:hi], labels[lo:hi], state,
                                               sample_mask=mask, denom=n_used, kernel=kernel)
        probs.argmax(axis=1, out=preds[lo:hi])  # the method skips np.argmax's dispatcher
        if n_used > 0:
            nn.sgd_step(state, grad, config, epoch, kernel=kernel)
            updated = True
        if step_hook is not None:
            used = np.ones(hi - lo, dtype=bool) if mask is None else mask.copy()
            step_hook(StepRecord(epoch, idx.copy(), used, n_used, kernel.lr,
                                 before, state.copy()))
        lo = hi
    histories.record_batch(order, preds)
    return updated


def run_epochs(phase: str, view: DataView, state, histories: PredictionHistory, config,
               seed: int, first: int, targets: Optional[Callable] = None,
               observer: Optional[Observer] = None, validation: Optional[DataView] = None,
               step_hook: Optional[StepHook] = None):
    """The one epoch loop of every run: trains epochs first..total_epochs, yielding contexts.

    targets(histories, last epoch's memorized mask or None) gives the epoch's
    (labels, member mask) for train_epoch; None trains every sample. The
    observer sees each context before the caller does.
    """
    memorized = None
    for epoch in range(first, config.total_epochs + 1):
        labels, member = (None, None) if targets is None else targets(histories, memorized)
        if not train_epoch(view, state, histories, config, epoch, seed,
                           labels, member, step_hook):  # only masked phases can skip all
            what = {"phase2": "safe set empty for every batch, no parameter update",
                    "plus": "trusted and refurbished sets both empty for every batch"}
            warnings.warn(f"epoch {epoch}: {what[phase]}", RuntimeWarning)
        memorized = histories.memorized_mask(view.labels)
        val_err = None if validation is None else \
            nn.evaluate_error(validation.features, validation.labels, state)
        ctx = EpochContext(phase, epoch, state, histories, memorized,
                           config.lr_at(epoch), val_err)
        if observer is not None:
            observer(ctx)
        yield ctx


# ----- phase I -----

def phase1_train(view: DataView, heuristic: StopHeuristic, net_spec: nn.NetworkSpec,
                 config: nn.OptimizerConfig, q: int, seed: int,
                 observer: Optional[Observer] = None,
                 on_checkpoint: Optional[Callable[[Checkpoint], None]] = None) -> Checkpoint:
    """Standard training with the stop heuristic watching epoch-end errors.

    on_checkpoint sees every checkpoint that may become the returned one, as
    soon as it is taken: each new best under the validation heuristic (the
    last call's is returned), the trigger checkpoint under noise_rate.
    """
    state = nn.init_state(net_spec, rng.stream(seed, "init"))
    histories = PredictionHistory(view.n, q, view.n_classes)
    by_validation = heuristic.kind == "validation"
    best: Optional[Checkpoint] = None
    for ctx in run_epochs("phase1", view, state, histories, config, seed, 1, None, observer,
                          heuristic.validation if by_validation else None):
        if by_validation:
            trigger = ctx.validation_error
            taken = is_improvement(trigger, best.trigger_value if best else None)
        else:
            trigger = nn.evaluate_error(view.features, view.labels, state)
            taken = trigger <= heuristic.tau
        if taken:
            best = Checkpoint(state.copy(), histories.copy(), ctx.epoch, trigger)
            if on_checkpoint is not None:
                on_checkpoint(best)
            if not by_validation:
                return best
    if by_validation:
        return best
    raise StopPointNotReached(f"training error never reached tau={heuristic.tau} within "
                              f"{config.total_epochs} epochs (final {trigger:.4f})")


def run_default(view: DataView, net_spec: nn.NetworkSpec, config: nn.OptimizerConfig,
                q: int, seed: int, observer: Optional[Observer] = None):
    """Plain training for all epochs; bitwise identical to Phase I's trajectory."""
    state = nn.init_state(net_spec, rng.stream(seed, "init"))
    histories = PredictionHistory(view.n, q, view.n_classes)
    for _ in run_epochs("phase1", view, state, histories, config, seed, 1, None, observer):
        pass
    return state, histories


# ----- phase II -----

def phase2_train(checkpoint: Checkpoint, view: DataView, config: nn.OptimizerConfig,
                 seed: int, observer: Optional[Observer] = None,
                 step_hook: Optional[StepHook] = None):
    """Resume from the checkpoint; returns (state, final safe-set mask, histories).

    Only safe-set members train. The epoch counter resumes at the checkpoint
    epoch and the LR comes from the global schedule, so the LR at resumption
    equals its value when the checkpoint was taken. The checkpoint itself is
    left untouched.
    """
    if checkpoint.epoch > config.total_epochs:
        raise ValueError(f"checkpoint epoch {checkpoint.epoch} is past "
                         f"total_epochs {config.total_epochs}")
    state = checkpoint.state.copy()
    histories = checkpoint.histories.copy()

    def safe_set(histories, previous):
        # the epoch-start mask is each batch's mask: membership depends only on
        # a sample's own history, and batches partition the epoch
        return None, histories.memorized_mask(view.labels) if previous is None else previous

    for ctx in run_epochs("phase2", view, state, histories, config, seed, checkpoint.epoch,
                          safe_set, observer, step_hook=step_hook):
        pass
    return state, ctx.memorized, histories


@dataclass
class PrestopResult:
    checkpoint: Checkpoint
    final_state: nn.NetworkState
    safe_set: np.ndarray  # (n,) bool, the memorized mask after the last epoch
    histories: PredictionHistory


def run_prestopping(view: DataView, heuristic: StopHeuristic, net_spec: nn.NetworkSpec,
                    config: nn.OptimizerConfig, q: int, seed: int,
                    observer: Optional[Observer] = None,
                    step_hook: Optional[StepHook] = None) -> PrestopResult:
    """Full two-phase run: Phase I to the stop point, Phase II to the end.

    The serial composition; processes.train_seed, which runs Phase II beside Phase I,
    must match it byte for byte.
    """
    ckpt = phase1_train(view, heuristic, net_spec, config, q, seed, observer)
    state, safe, histories = phase2_train(ckpt, view, config, seed, observer, step_hook)
    return PrestopResult(ckpt, state, safe, histories)
