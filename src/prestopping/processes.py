"""A seed's processes: train_seed, with its scorer and Phase II children.

A Prestopping seed runs its Phase II in a forked child process beside
Phase I, and scores its epochs in forked children too (train_seed). Each
child, and each pool worker of the CLI (die_with_parent), ends with the
process that forked it.
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import functools
import multiprocessing
import os
import pickle
import signal
import warnings
from pathlib import Path

import numpy as np

from . import engine, metrics, nn, refurbish


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of NumPy's bundled OpenBLAS, or None.

    Looked up once per process (forked children inherit the lookup): each
    lookup globs numpy.libs and loads the library handle anew.
    """
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

    The desk-scale GEMMs are too small to gain from more threads: a serial
    run gets slower with them, and the two processes of an overlapped phase
    already occupy two cores. Forked children inherit the setting. OpenBLAS
    splits a GEMM over output blocks, not over its sums, so no output byte
    depends on the thread count; the overlap tests compare against serial
    runs at the default count.
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


# pipe capacity of a child's inbox (Linux's default ceiling for an unprivileged
# process): the parent sends without waiting for a child still busy with an
# earlier message, so a scorer that falls behind does not hold up training
INBOX_BYTES = 1 << 20
# niceness a child takes once it only scores, so that it yields the cores to training
SCORING_NICENESS = 19
PR_SET_PDEATHSIG = 1
# this process's ends of the pipes of every running _ForkedChild, process-wide
# because a fork copies every open descriptor: each forked child closes its
# copies, so that it holds no end of another child's pipes
_PARENT_ENDS: set = set()


def die_with_parent() -> None:
    """Have the kernel SIGKILL this forked process when its parent exits.

    Best effort and Linux only, like F_SETPIPE_SZ. A parent that died
    before the call took effect has already left this process to another
    parent, so it exits at once. Without this, a CLI killed by a signal
    would leave its children running, and pool workers writing run
    directories.
    """
    with contextlib.suppress(AttributeError, OSError):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)


def _child_main(result_end, inbox, body, args) -> None:
    """Forked child: runs body(hand_over, inbox, *args) and sends (outcome, warnings)
    over result_end.

    outcome is body's return value or the exception it raised; the warnings
    it issued are re-issued by the parent. hand_over(value) sends value, and
    the warnings issued so far, before the outcome. inbox is the read end of
    the pipe the parent's send() feeds. The child closes its copies of
    _PARENT_ENDS, its own inbox's write end among them, so the parent
    closing its end reads as EOF here, and no other child's inbox waits on
    this one.
    """
    die_with_parent()
    for end in _PARENT_ENDS:
        end.close()
    _PARENT_ENDS.clear()
    with warnings.catch_warnings(record=True) as caught:
        def send(outcome):
            result_end.send((outcome, [(w.message, w.category, w.filename, w.lineno)
                                       for w in caught]))
            caught.clear()

        try:
            outcome = body(send, inbox, *args)
        except Exception as exc:
            outcome = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that cannot cross travels as its text
                outcome = RuntimeError(f"{type(exc).__name__}: {exc}")
        send(outcome)


class _ForkedChild:
    """At most one forked child process of one seed, whose result comes back over a pipe.

    The child starts from a copy-on-write image of this process, so nothing
    is pickled on the way in. The caller must run no other threads (the CLI
    process and its pool workers run none).
    """

    def __init__(self, seed: int, what: str):
        self.seed, self.what = seed, what
        self._proc = self._conn = self._inbox = None

    def start(self, body, *args) -> None:
        """Kill and reap the running child, if any, then fork one running
        body(hand_over, inbox, *args).

        handover() returns the value passed to hand_over before result()
        returns body's. inbox is the read end of a pipe that send() feeds; it
        reads EOF once result() is called.
        """
        self.stop()
        fork = multiprocessing.get_context("fork")
        self._conn, result_end = fork.Pipe(duplex=False)
        reader, self._inbox = fork.Pipe(duplex=False)
        _PARENT_ENDS.update((self._conn, self._inbox))
        self._proc = fork.Process(target=_child_main, name=f"{self.what} of seed {self.seed}",
                                  args=(result_end, reader, body, args))
        self._proc.start()
        # the child holds the only other ends: its death reads as EOF, and
        # sending to a dead child raises BrokenPipeError
        result_end.close()
        reader.close()
        with contextlib.suppress(AttributeError, OSError):  # Linux only, best effort
            fcntl.fcntl(self._inbox.fileno(), fcntl.F_SETPIPE_SZ, INBOX_BYTES)

    def send(self, message) -> None:
        """Send message to the child's inbox; a child that stopped reading fails as in result()."""
        try:
            self._inbox.send(message)
        except BrokenPipeError:
            self.result()
            raise

    def stop(self) -> None:
        """Kill and reap the running child, if any."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.join()
            for end in (self._conn, self._inbox):
                if end is not None:
                    end.close()
                    _PARENT_ENDS.discard(end)
            self._proc = self._conn = self._inbox = None

    def handover(self):
        """Wait for the value the child hands over; it fails as in result()."""
        return self._receive()

    def result(self):
        """Close the inbox, then wait for the child: body's return value, or its exception."""
        if self._inbox is not None:
            self._inbox.close()
            _PARENT_ENDS.discard(self._inbox)
            self._inbox = None
        outcome = self._receive()
        self._proc.join()
        return outcome

    def _receive(self):
        try:
            outcome, caught = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise RuntimeError(f"seed {self.seed}: {self.what} exited with code "
                               f"{self._proc.exitcode} without a result") from None
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def _epoch(ctx: engine.EpochContext) -> tuple:
    """What scoring needs of one epoch; the parameters are copied, as training goes on."""
    return (ctx.phase, ctx.epoch, ctx.lr, ctx.validation_error, ctx.state.params.copy(),
            ctx.memorized)


def _scored(collector: metrics.MetricsCollector, net_spec, epochs):
    """At low priority, feed collector, a fresh one, each _epoch of epochs.

    Returns its rows, its histogram and the phase of the epoch that captured
    the histogram (None without one). Each state is rebuilt with a zero
    velocity and each context carries no histories: no score reads either.
    """
    os.nice(SCORING_NICENESS)
    captured = None
    for phase, number, lr, validation_error, params, memorized in epochs:
        state = nn.NetworkState(net_spec, params, np.zeros_like(params))
        collector(engine.EpochContext(phase, number, state, None, memorized, lr,
                                      validation_error))
        if captured is None and collector.histogram is not None:
            captured = phase
    return collector.rows, collector.histogram, captured


def _score_epochs(hand_over, inbox, net_spec, collector):
    """Scorer body: _scored on one _epoch per inbox message, until EOF."""
    def received():
        while True:
            try:
                yield inbox.recv()
            except EOFError:
                return
    return _scored(collector, net_spec, received())


def _phase2_body(hand_over, inbox, ckpt, view, opt, seed, collector):
    """Phase II child body: hands over (state, safe mask, histories) as soon as
    Phase II has trained, then returns _scored on its epochs."""
    kept = []
    hand_over(engine.phase2_train(ckpt, view, opt, seed,
                                  observer=lambda ctx: kept.append(_epoch(ctx))))
    return _scored(collector, ckpt.state.spec, kept)


def train_seed(cfg, seed: int, train_ds, val_view, collector):
    """Dispatch on method; returns (PrestopResult or None, plus result or None).

    A Prestopping seed is engine.run_prestopping with Phase II run beside the
    rest of Phase I, and no epoch scored in this process. A scorer child,
    forked before Phase I, scores Phase I's and the retrain's epochs as this
    process sends them. Each checkpoint Phase I takes restarts Phase II from
    it in a child, so Phase II from the final checkpoint overlaps Phase I's
    remaining epochs; the retrain starts as soon as that child hands over its
    result, and the child then scores its own epochs. Rows and histogram are
    merged in the serial observer order (Phase I, Phase II, retrain), so
    every output is byte-identical to the serial run's. cfg, the CLI's
    ExperimentConfig, is read by attribute.
    """
    view = train_ds.train_view()
    net = cfg.net_spec(view.features.shape[1], view.n_classes)
    opt = cfg.optimizer()
    with _one_blas_thread():
        if cfg.method == "default":
            engine.run_default(view, net, opt, cfg.q, seed, observer=collector)
            return None, None
        heur = engine.StopHeuristic(cfg.heuristic, tau=cfg.tau, validation=val_view)
        fresh = metrics.MetricsCollector(collector.train_ds, collector.test_view)
        scorer = _ForkedChild(seed, "scorer process")
        phase2 = _ForkedChild(seed, "Phase II process")

        def send(ctx):
            scorer.send(_epoch(ctx))

        try:
            scorer.start(_score_epochs, net, fresh)
            ckpt = engine.phase1_train(
                view, heur, net, opt, cfg.q, seed, send,
                on_checkpoint=lambda c: phase2.start(_phase2_body, c, view, opt, seed, fresh))
            result = engine.PrestopResult(ckpt, *phase2.handover())
            plus = None
            if cfg.method == "prestopping_plus":
                plus = refurbish.run_prestopping_plus(view, result.safe_set, net, opt, cfg.q,
                                                      cfg.epsilon, seed, observer=send)
            phase2_rows, phase2_histogram, _ = phase2.result()
            rows, histogram, captured = scorer.result()
        finally:
            scorer.stop()
            phase2.stop()
    phase1 = sum(r.phase == "phase1" for r in rows)
    collector.rows += rows[:phase1] + phase2_rows + rows[phase1:]
    collector.histogram = histogram if captured == "phase1" or phase2_histogram is None \
        else phase2_histogram
    return result, plus
