"""Seeded fault matrix for a run's processes.

Two fixed random.Randoms draw the cells, one per matrix (FIRST, SECOND), and
a third, fixed list (STARTS) has the start of a process fail. A cell picks
the process that fails (a seed process of a two-seed --jobs 2 run, at its
start or between two of its sends to its scorer; the scorer; the Phase II
child before the handover, after it while it scores its own kept epochs, or
while it scores the retrain's inbox), the way it fails (it raises, calls
os._exit(3) or sends itself SIGKILL; or its fork fails with EAGAIN, or its
outbox's spool with EMFILE), the message at which it fails, the method, the
failing seed and --jobs (1 or 2; a seed process runs only under 2). The
fault is injected through test-side wrappers of processes._run_seed,
processes.train_seed, engine.phase2_train, processes._ForkedChild.send and
.start, os.fork, tempfile.TemporaryFile and processes._scored's epoch
iterator, which the forked processes inherit. Each cell reruns, into a copy
of a clean run's output, and checks that the run fails with exit code 1
naming the seed and the process (or the raised text), that the failed seed
keeps its earlier run directory, that the other seed writes the clean run's
bytes, that <out>/summary.json lists the failure, and that this process
holds as many descriptors as before; the autouse no_leaked_children fixture
checks that no child, pipe end or spool is left behind.
"""

import errno
import hashlib
import os
import random
import re
import shutil
import signal
import tempfile
from pathlib import Path

import pytest

from prestopping import cli, engine, metrics, processes

EPOCHS = 5
FLAGS = dict(n_classes=3, per_class=50, dim=4, spread=0.4, validation_size=30,
             test_size=30, hidden="8", epochs=EPOCHS, batch_size=32, noise="pair",
             tau=0.3, seeds="0,1")
METHODS = ("default", "prestopping", "prestopping_plus")
PRESTOPPING = METHODS[1:]
# what fails: each process with the name its failures carry
NAMES = {"seed": "seed process", "seed between sends": "seed process",
         "scorer": "scorer process", "phase2 before handover": "Phase II process",
         "phase2 after handover": "Phase II process", "phase2 retrain inbox": "Phase II process"}
# the first matrix, all --jobs 2: four processes and the methods each is drawn under
FIRST = {"seed": ("default", "prestopping_plus"), "scorer": ("default", "prestopping_plus"),
         "phase2 before handover": ("prestopping_plus",),
         "phase2 retrain inbox": ("prestopping_plus",)}
# the second matrix: the methods, --jobs values and most messages k each process is
# drawn under; a Phase II child keeps 3 epochs for seed 0 and 2 for seed 1, whose
# Phase I stops at epoch 4, and it fails before its handover at its first start
SECOND = {"seed between sends": (METHODS, (2,), EPOCHS),
          "scorer": (METHODS, (1, 2), EPOCHS),
          "phase2 before handover": (PRESTOPPING, (1, 2), 1),
          "phase2 after handover": (PRESTOPPING, (1, 2), 2),
          "phase2 retrain inbox": (("prestopping_plus",), (1, 2), EPOCHS)}
MODES = ("raise", "exit", "kill")
# the third list: the fork of a scorer, of a Phase II child and of a second seed
# process fails, and so does the creation of a scorer's outbox spool
STARTS = [("scorer", "fork", 1, "default", 1, 1),
          ("phase2 before handover", "fork", 1, "prestopping_plus", 0, 1),
          ("seed", "fork", 1, "prestopping", 1, 2),
          ("scorer", "spool", 1, "prestopping", 0, 1)]
EAGAIN = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
EMFILE = OSError(errno.EMFILE, os.strerror(errno.EMFILE))
WALL_SECONDS = re.compile(rb'("wall_seconds": )[^,\n}]*')


def draw_cells(rand, extra):
    """The first matrix: each process of FIRST in each mode once, then extra cells
    drawn whole; each cell is (process, mode, message k, method, failing seed, jobs)."""
    pairs = [(p, m) for p in FIRST for m in MODES]
    pairs += [(rand.choice(list(FIRST)), rand.choice(MODES)) for _ in range(extra)]
    return [(p, m, rand.randint(1, EPOCHS), rand.choice(FIRST[p]), rand.randrange(2), 2)
            for p, m in pairs]


def draw_open_cells(rand):
    """The second matrix: each process of SECOND in each mode once, its methods and
    --jobs values taken in turn from a drawn start, so that each of them comes up."""
    cells = []
    for process, (methods, jobs, most) in SECOND.items():
        m, j = rand.randrange(len(methods)), rand.randrange(len(jobs))
        cells += [(process, mode, rand.randint(1, most), methods[(m + i) % len(methods)],
                   rand.randrange(2), jobs[(j + i) % len(jobs)]) for i, mode in enumerate(MODES)]
    return cells


CELLS = draw_cells(random.Random(8), 4) + draw_open_cells(random.Random(9)) + STARTS
IDS = ["-".join(map(str, c[:5])).replace(" ", "_") + ("-jobs1" if c[5] == 1 else "")
       for c in CELLS]
assert len(set(IDS)) == len(IDS)  # pytest would rename a repeated id


def fail(mode, where):
    if mode == "raise":
        raise RuntimeError(f"injected fault in {where}")
    if mode == "exit":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


def inject(monkeypatch, cell):
    """Patch the fault of cell in; forked processes inherit the patches."""
    process, mode, k, _, failing, _ = cell
    if mode in ("fork", "spool"):
        return inject_start(monkeypatch, mode, NAMES[process], failing)
    where = f"the {process} of seed {failing}"
    seed = []  # the seed this process trains or scores, set once train_seed starts it
    run_seed, train_seed, phase2_train, scored = (
        processes._run_seed, processes.train_seed, engine.phase2_train, processes._scored)
    send = processes._ForkedChild.send
    sent = []  # the seed process's sends to its scorer so far

    def seed_process(hand_over, inbox, fn, this, args):
        if process == "seed" and this == failing:
            fail(mode, where)
        return run_seed(hand_over, inbox, fn, this, args)

    def seed_training(cfg, this, *args):
        seed[:] = [this]
        return train_seed(cfg, this, *args)

    def sending(child, message):
        send(child, message)
        if process == "seed between sends" and child.what == "scorer process" \
                and seed == [failing]:
            sent.append(message)
            if len(sent) == k:
                fail(mode, where)

    def phase2_child(*args, **kwargs):
        if process == "phase2 before handover" and seed == [failing]:
            fail(mode, where)
        return phase2_train(*args, **kwargs)

    def scoring(collector, net_spec, epochs):
        # the scorer scores phase1 epochs only, the Phase II child phase2 and plus
        phase = {"scorer": "phase1", "phase2 after handover": "phase2",
                 "phase2 retrain inbox": "plus"}.get(process)

        def counted():
            n = 0
            for epoch in epochs:
                n += epoch[0] == phase
                if n == k and seed == [failing]:
                    fail(mode, where)
                yield epoch
        return scored(collector, net_spec, counted())

    monkeypatch.setattr(processes, "_run_seed", seed_process)
    monkeypatch.setattr(processes, "train_seed", seed_training)
    monkeypatch.setattr(processes._ForkedChild, "send", sending)
    monkeypatch.setattr(engine, "phase2_train", phase2_child)
    monkeypatch.setattr(processes, "_scored", scoring)


def inject_start(monkeypatch, mode, what, failing):
    """Have the start of the named process of seed failing fail: at its fork, or
    at the spool of its outbox, the second spool it creates."""
    start, fork, spool = processes._ForkedChild.start, os.fork, tempfile.TemporaryFile
    starting, spools = [], []  # (what, seed) of the child being started; its spools

    def recorded(child, body, *args):
        starting[:] = [(child.what, child.seed)]
        start(child, body, *args)

    def failing_fork():
        if mode == "fork" and starting == [(what, failing)]:
            raise EAGAIN
        return fork()

    def failing_spool(*args, **kwargs):
        if mode == "spool" and starting == [(what, failing)]:
            spools.append(None)
            if len(spools) == 2:
                raise EMFILE
        return spool(*args, **kwargs)

    monkeypatch.setattr(processes._ForkedChild, "start", recorded)
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(tempfile, "TemporaryFile", failing_spool)


def digests(root: Path) -> dict:
    """{relative path: sha256} of the files below root, wall_seconds masked."""
    def masked(path):
        raw = path.read_bytes()
        return WALL_SECONDS.sub(rb"\1null", raw) if path.name == "summary.json" else raw
    return {p.relative_to(root).as_posix(): hashlib.sha256(masked(p)).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def argv(out, method, jobs=2):
    flags = {**FLAGS, "method": method, "jobs": jobs, "out": str(out)}
    return ["run"] + [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """{method: the output directory of a clean two-seed run}."""
    runs = {}
    for method in METHODS:
        runs[method] = tmp_path_factory.mktemp(method) / "out"
        assert cli.main(argv(runs[method], method)) == 0
    return runs


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_a_failing_process_fails_its_seed_alone(cell, clean_runs, tmp_path, monkeypatch,
                                                capsys):
    process, mode, _, method, failing, jobs = cell
    out = tmp_path / "out"
    shutil.copytree(clean_runs[method], out)
    seed_dirs = [out / method / "pair_0.3" / f"seed{s}" for s in (0, 1)]
    before = [digests(d) for d in seed_dirs]
    inject(monkeypatch, cell)
    capsys.readouterr()
    descriptors = os.listdir("/dev/fd")
    assert cli.main(argv(out, method, jobs)) == 1
    assert len(os.listdir("/dev/fd")) == len(descriptors)
    name = NAMES[process]
    error = {"raise": f"RuntimeError: injected fault in the {process} of seed {failing}",
             "exit": f"RuntimeError: seed {failing}: {name} exited with code 3 without a result",
             "kill": f"RuntimeError: seed {failing}: {name} exited with code -9 without a "
                     f"result",
             "fork": f"BlockingIOError: {EAGAIN}", "spool": f"OSError: {EMFILE}"}[mode]
    assert f"seed {failing} failed: {error}\n" in capsys.readouterr().err
    summary = metrics.read_summary_json(out / "summary.json")
    assert summary["failures"] == [{"seed": failing, "error": error,
                                    "run_dir": f"{method}/pair_0.3/seed{failing}"}]
    assert [run["seed"] for run in summary["runs"]] == [1 - failing]
    assert [digests(d) for d in seed_dirs] == before  # the other seed's: the clean bytes
    assert sorted(p.name for p in seed_dirs[0].parent.iterdir()) == ["seed0", "seed1"]
