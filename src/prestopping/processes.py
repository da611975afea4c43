"""A run's processes: run_seeds, and train_seed with its scorer and Phase II children.

Every seed scores its epochs in forked children (train_seed), and a
Prestopping seed runs its Phase II in one beside Phase I. Every process is
forked through _ForkedChild, with os.fork, and each ends with the process
that forked it. A child and its parent talk over one _Channel each way.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
import pickle
import select
import signal
import sys
import tempfile
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


# bytes of a note, the length of one spooled message, in a channel's pipe
NOTE_BYTES = 8
# niceness a child takes once it only scores, so that it yields the cores to training
SCORING_NICENESS = 19
PR_SET_PDEATHSIG = 1
# this process's ends of the channels of every running _ForkedChild, process-wide
# because a fork copies every open descriptor: each forked child closes its copies,
# so it holds no end of another child's pipes and keeps no other child's spool alive
_PARENT_ENDS: set = set()


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this forked process when parent, its parent, exits
    (best effort, Linux only), and exit at once if parent is gone already:
    else a CLI killed by a signal would leave its children writing run directories."""
    with contextlib.suppress(AttributeError, OSError):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _flush_std_streams() -> None:
    """Flush sys.stdout and sys.stderr: text still buffered at a fork would be written twice."""
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, ValueError, OSError):
            stream.flush()


class _Channel:
    """Messages one way between two processes: each lies pickled in the spool,
    an unlinked file, after the one before, and the pipe carries only its
    length, so a send never waits for the receiver. Iterating yields each
    message in order until every copy of the pipe's write end is closed."""

    def __init__(self):
        reader, writer = os.pipe()
        self.reader, self.writer = open(reader, "rb", buffering=0), open(writer, "wb", buffering=0)
        try:
            self.spool = tempfile.TemporaryFile(buffering=0)
        except OSError:
            self.reader.close()
            self.writer.close()
            raise
        self._passed = 0  # bytes of the spool sent, or received, so far

    def send(self, message) -> None:
        """Spool message; raises BrokenPipeError once no receiver is left."""
        data = pickle.dumps(message)
        rest = memoryview(data)
        while rest:  # a write cut short by a full disk raises on the retry
            written = os.pwrite(self.spool.fileno(), rest, self._passed)
            rest, self._passed = rest[written:], self._passed + written
        # one write of under PIPE_BUF bytes: a read gets the whole note or none of it
        self.writer.write(len(data).to_bytes(NOTE_BYTES, "little"))

    def __iter__(self):
        while len(note := self.reader.read(NOTE_BYTES)) == NOTE_BYTES:
            size = int.from_bytes(note, "little")
            self._passed += size
            yield pickle.loads(os.pread(self.spool.fileno(), size, self._passed - size))

    def close(self) -> None:
        for end in (self.reader, self.writer, self.spool):
            end.close()
        _PARENT_ENDS.discard(self)


def _child_main(parent, inbox, outbox, body, args) -> None:
    """Forked child of parent: sends body(hand_over, inbox, *args), or the exception
    it raised, to outbox with the warnings it issued, which the parent re-issues;
    hand_over(value) sends value first. It closes the parent's ends of its channels,
    so that the parent's close() ends the inbox here, and all of _PARENT_ENDS."""
    _die_with_parent(parent)
    for channel in list(_PARENT_ENDS):
        channel.close()
    inbox.writer.close()
    outbox.reader.close()
    with warnings.catch_warnings(record=True) as caught:
        def send(outcome):
            outbox.send((outcome, [(w.message, w.category, w.filename, w.lineno)
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
    """At most one child process of one seed, forked with os.fork, with a _Channel
    each way. The child starts from a copy-on-write image of this process, so
    nothing is pickled on the way in. The caller must run no other threads (the
    CLI process and its seed processes run none)."""

    def __init__(self, seed: int, what: str):
        self.seed, self.what = seed, what
        # the pid until reaped, the inbox until closed, the outbox until stopped
        self._pid = self._inbox = self._outbox = None

    def start(self, body, *args) -> None:
        """Kill and reap the running child, if any, then fork one running
        body(hand_over, inbox, *args); a failed fork closes what was opened for
        it and raises its OSError. handover() returns the value passed to
        hand_over before result() returns body's. inbox yields each message
        send() sent, in order, until close() or result() is called."""
        self.stop()
        parent = os.getpid()
        try:
            self._inbox = _Channel()
            self._outbox = _Channel()
            _flush_std_streams()
            pid = os.fork()
        except OSError:
            self.stop()
            raise
        if pid == 0:  # the child, which never returns into the caller's stack
            code = 1
            try:
                _child_main(parent, self._inbox, self._outbox, body, args)
                code = 0
            except BaseException:  # reported here: the child never unwinds into the caller
                sys.excepthook(*sys.exc_info())
            finally:
                _flush_std_streams()
                os._exit(code)
        self._pid = pid
        # the child holds the only other ends: its death ends the outbox and breaks the inbox
        self._inbox.reader.close()
        self._outbox.writer.close()
        _PARENT_ENDS.update((self._inbox, self._outbox))

    def send(self, message) -> None:
        """Spool message for the child's inbox without waiting for the child to
        read it; a child that stopped reading fails as in result()."""
        try:
            self._inbox.send(message)
        except BrokenPipeError:
            self.result()
            raise

    def _reap(self) -> int:
        """Wait for the child to exit, forget its pid; its exit code (-N for signal N)."""
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(status)

    def stop(self) -> None:
        """Kill and reap the child, unless it is reaped already, and close both channels."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()
        for channel in filter(None, (self._inbox, self._outbox)):
            channel.close()
        self._inbox = self._outbox = None

    def handover(self):
        """Wait for the value the child hands over, or for body's outcome once
        nothing more is handed over: its return value, or its exception."""
        received = next(iter(self._outbox), None)
        if received is None:
            raise RuntimeError(f"seed {self.seed}: {self.what} exited with code "
                               f"{self._reap()} without a result")
        outcome, caught = received
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def close(self) -> None:
        """Close the inbox: the child's inbox ends once it has yielded every
        message sent. Nothing can be sent after this."""
        if self._inbox is not None:
            self._inbox.close()
        self._inbox = None

    def result(self):
        """Close the inbox, then wait for the child: body's return value, or its exception."""
        self.close()
        outcome = self.handover()
        self._reap()
        return outcome


def _epoch(ctx: engine.EpochContext) -> tuple:
    """What scoring needs of one epoch; the parameters are copied, as training goes on."""
    return (ctx.phase, ctx.epoch, ctx.lr, ctx.validation_error, ctx.state.params.copy(),
            ctx.memorized)


def _scored(collector: metrics.MetricsCollector, net_spec, epochs):
    """At low priority, feed collector, a fresh one, each _epoch of epochs.

    Returns its rows and its histogram. Each state is rebuilt with a zero
    velocity and each context carries no histories: no score reads either.
    """
    os.nice(SCORING_NICENESS)
    for phase, number, lr, validation_error, params, memorized in epochs:
        state = nn.NetworkState(net_spec, params, np.zeros_like(params))
        collector(engine.EpochContext(phase, number, state, None, memorized, lr,
                                      validation_error))
    return collector.rows, collector.histogram


def _score_epochs(hand_over, inbox, net_spec, collector):
    """Scorer body: _scored on one _epoch per inbox message."""
    return _scored(collector, net_spec, inbox)


def _phase2_body(hand_over, inbox, ckpt, view, opt, seed, collector):
    """Phase II child body: hands over (state, safe mask, histories) as soon as
    Phase II has trained, then returns _scored on its epochs followed by one
    _epoch per inbox message."""
    kept = []
    hand_over(engine.phase2_train(ckpt, view, opt, seed,
                                  observer=lambda ctx: kept.append(_epoch(ctx))))
    return _scored(collector, ckpt.state.spec, itertools.chain(kept, inbox))


def train_seed(cfg, seed: int, train_ds, val_view, collector):
    """Dispatch on method; returns (PrestopResult or None, plus result or None).

    This process trains, its children score: it never evaluates the training
    or the test set. A scorer child, forked first, scores the epochs of
    engine.run_default or of Phase I as this process sends them; its inbox
    closes when that training returns, so it exits once they are scored. A
    Prestopping seed is engine.run_prestopping with Phase II run beside the
    rest of Phase I: each checkpoint Phase I takes restarts Phase II from it
    in a child, and the retrain starts as soon as the final one hands over
    its result; that child then scores its own epochs and the retrain's, as
    this process sends them. Each child's rows are thus one stretch of the
    serial observer order (Phase I, Phase II, retrain): concatenated, with
    the first histogram captured, every output is byte-identical to the
    serial run's. cfg, the CLI's ExperimentConfig, is read by attribute.
    """
    view = train_ds.train_view()
    net = cfg.net_spec(view.features.shape[1], view.n_classes)
    opt = cfg.optimizer()
    result = plus = None
    phase2_rows, phase2_histogram = [], None
    with _one_blas_thread():
        fresh = metrics.MetricsCollector(collector.train_ds, collector.test_view)
        scorer = _ForkedChild(seed, "scorer process")
        phase2 = _ForkedChild(seed, "Phase II process")
        try:
            scorer.start(_score_epochs, net, fresh)
            score = lambda ctx: scorer.send(_epoch(ctx))
            if cfg.method == "default":
                engine.run_default(view, net, opt, cfg.q, seed, observer=score)
            else:
                heur = engine.StopHeuristic(cfg.heuristic, tau=cfg.tau, validation=val_view)
                ckpt = engine.phase1_train(
                    view, heur, net, opt, cfg.q, seed, score,
                    on_checkpoint=lambda c: phase2.start(_phase2_body, c, view, opt, seed, fresh))
                scorer.close()  # its last epoch is sent: it scores its backlog and exits
                result = engine.PrestopResult(ckpt, *phase2.handover())
                if cfg.method == "prestopping_plus":
                    plus = refurbish.run_prestopping_plus(
                        view, result.safe_set, net, opt, cfg.q, cfg.epsilon, seed,
                        observer=lambda ctx: phase2.send(_epoch(ctx)))
                phase2_rows, phase2_histogram = phase2.result()
            rows, histogram = scorer.result()
        finally:
            scorer.stop()
            phase2.stop()
    collector.rows += rows + phase2_rows
    collector.histogram = phase2_histogram if histogram is None else histogram
    return result, plus


def _outcome(call, *args):
    """call(*args), or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def _run_seed(hand_over, inbox, fn, seed, args):
    """Seed process body: fn(*args, seed)."""
    return fn(*args, seed)


def run_seeds(fn, seeds, workers: int, *args) -> list:
    """fn(*args, seed), or the exception it raised, for each seed in order.

    With one worker, or one seed, every call runs in this process. Otherwise
    each runs in a seed process, at most workers at once, the next starting
    as soon as any ends; one that dies fails its own seed only.
    """
    if min(workers, len(seeds)) <= 1:
        return [_outcome(fn, *args, seed) for seed in seeds]
    waiting = (_ForkedChild(seed, "seed process") for seed in seeds)
    running, outcomes = {}, {}  # running: each child by its outbox's read end
    try:
        while True:
            while len(running) < workers and (child := next(waiting, None)) is not None:
                try:  # a seed process that cannot fork fails its own seed, as one that dies
                    child.start(_run_seed, fn, child.seed, args)
                    running[child._outbox.reader] = child
                except OSError as exc:
                    outcomes[child.seed] = exc
            if not running:
                return [outcomes[seed] for seed in seeds]
            for reader in select.select(list(running), [], [])[0]:
                child = running.pop(reader)
                outcomes[child.seed] = _outcome(child.result)
                child.stop()
    finally:
        for child in running.values():
            child.stop()
