"""A run's processes: run_seeds, and train_seed with its scorer and Phase II children.

Every seed scores its epochs in forked children (train_seed), and a
Prestopping seed runs its Phase II in one beside Phase I. Every process is
forked through _ForkedChild, and each ends with the process that forked it.
A child's inbox spools its messages to an unlinked file, so the parent never
waits for a child to read one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
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


# bytes of a note, the length of one spooled message, in a child's inbox pipe
NOTE_BYTES = 8
# niceness a child takes once it only scores, so that it yields the cores to training
SCORING_NICENESS = 19
PR_SET_PDEATHSIG = 1
# this process's ends of the pipes, and the spools, of every running
# _ForkedChild, process-wide because a fork copies every open descriptor: each
# forked child closes its copies, so that it holds no end of another child's
# pipes and keeps no other child's spool alive
_PARENT_ENDS: set = set()


def _die_with_parent() -> None:
    """Have the kernel SIGKILL this forked process when its parent exits.

    Best effort and Linux only. A parent that died before the call took
    effect has already left this process to another parent, so it exits at
    once. Without this, a CLI killed by a signal would leave its children
    running, and seed processes writing run directories.
    """
    with contextlib.suppress(AttributeError, OSError):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)


def _inbox(notes, spool):
    """A child's inbox: each message the parent's send() spooled, in the order
    sent, until the parent closes its end of the notes pipe.

    Each message lies pickled in the spool, an unlinked file, right after the
    one before it; the notes pipe carries only its length.
    """
    read = 0
    while len(note := notes.read(NOTE_BYTES)) == NOTE_BYTES:
        size = int.from_bytes(note, "little")
        yield pickle.loads(os.pread(spool.fileno(), size, read))
        read += size


def _child_main(result_end, inbox, body, args) -> None:
    """Forked child: runs body(hand_over, inbox, *args) and sends (outcome, warnings)
    over result_end.

    outcome is body's return value or the exception it raised; the warnings
    it issued are re-issued by the parent. hand_over(value) sends value, and
    the warnings issued so far, before the outcome. inbox is the _inbox the
    parent's send() feeds. The child closes its copies of _PARENT_ENDS, its
    own inbox's write end among them, so the parent closing its end reads as
    EOF here, no other child's inbox waits on this one, and this one keeps no
    other child's spool alive.
    """
    _die_with_parent()
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


def _close(*ends) -> None:
    """Close those of this process's ends that are open, and drop them from _PARENT_ENDS."""
    for end in ends:
        if end is not None:
            end.close()
            _PARENT_ENDS.discard(end)


class _ForkedChild:
    """At most one forked child process of one seed, whose result comes back over a pipe.

    The child starts from a copy-on-write image of this process, so nothing
    is pickled on the way in. The caller must run no other threads (the CLI
    process and its seed processes run none).
    """

    def __init__(self, seed: int, what: str):
        self.seed, self.what = seed, what
        self._proc = self._conn = self._inbox = self._spool = None

    def start(self, body, *args) -> None:
        """Kill and reap the running child, if any, then fork one running
        body(hand_over, inbox, *args).

        handover() returns the value passed to hand_over before result()
        returns body's. inbox yields each message send() sent, in order, and
        ends once close() or result() is called.
        """
        self.stop()
        fork = multiprocessing.get_context("fork")
        self._conn, result_end = fork.Pipe(duplex=False)
        reader, writer = os.pipe()
        self._inbox = open(writer, "wb", buffering=0)
        _PARENT_ENDS.update((self._conn, self._inbox))
        self._spool, self._sent = tempfile.TemporaryFile(buffering=0), 0
        notes = open(reader, "rb")
        self._proc = fork.Process(target=_child_main, name=f"{self.what} of seed {self.seed}",
                                  args=(result_end, _inbox(notes, self._spool), body, args))
        self._proc.start()
        # the child holds the only other ends: its death reads as EOF, and
        # sending to a dead child raises BrokenPipeError
        result_end.close()
        notes.close()
        # only now: this child keeps its copy of the spool, children forked later close theirs
        _PARENT_ENDS.add(self._spool)

    def send(self, message) -> None:
        """Spool message for the child's inbox without waiting for the child to
        read it; a child that stopped reading fails as in result()."""
        data = pickle.dumps(message)
        rest = memoryview(data)
        while rest:  # a write cut short by a full disk raises on the retry
            written = os.pwrite(self._spool.fileno(), rest, self._sent)
            rest, self._sent = rest[written:], self._sent + written
        try:
            self._inbox.write(len(data).to_bytes(NOTE_BYTES, "little"))
        except BrokenPipeError:
            self.result()
            raise

    def stop(self) -> None:
        """Kill and reap the running child, if any."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.join()
            _close(self._conn, self._inbox, self._spool)
            self._proc = self._conn = self._inbox = self._spool = None

    def handover(self):
        """Wait for the value the child hands over, or for body's outcome once
        nothing more is handed over: its return value, or its exception."""
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

    def close(self) -> None:
        """Close the inbox: the child's inbox ends once it has yielded every
        message sent. Nothing can be sent after this."""
        _close(self._inbox, self._spool)
        self._inbox = self._spool = None

    def result(self):
        """Close the inbox, then wait for the child: body's return value, or its exception."""
        self.close()
        outcome = self.handover()
        self._proc.join()
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
    running, outcomes = {}, {}
    try:
        while True:
            for child in itertools.islice(waiting, workers - len(running)):
                child.start(_run_seed, fn, child.seed, args)
                running[child._conn] = child
            if not running:
                return [outcomes[seed] for seed in seeds]
            for conn in multiprocessing.connection.wait(list(running)):
                child = running.pop(conn)
                outcomes[child.seed] = _outcome(child.result)
                child.stop()
    finally:
        for child in running.values():
            child.stop()
