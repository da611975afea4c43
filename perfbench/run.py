#!/usr/bin/env python3
"""Benchmark of the `prestopping` CLI on two named workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plus_desk --seed 0 --seconds 45 --trace 0

With --trace 0 the run times untraced CLI invocations (each a subprocess)
for --seconds and prints the end-to-end metrics. With --trace 1 it also runs
the CLI once more with the tracer installed in the same interpreter
(traced_cli.py) and prints the per-layer metrics.
Every invocation's artifacts are hashed and checked against
perfbench/reference.json. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import artifacts
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# inherited values are scrubbed so every process gets exactly one BLAS thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_TAIL = 4
PROCESS_TIMEOUT_S = 150.0
# environment fields that decide float results, hence artifact bytes
DIGEST_ENV_KEYS = ("numpy", "blas", "blas_core", "numpy_simd", "machine")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


# ----- environment -----

def pin_environment(root: Path) -> dict:
    """Scrub thread variables, pin one BLAS thread, point imports at root/src.

    Must run before NumPy is imported in this process. Returns the scrubbed
    inherited values.
    """
    inherited = {v: os.environ.pop(v) for v in THREAD_VARS if v in os.environ}
    os.environ.update(PINNED)
    os.environ["PYTHONPATH"] = str(root / "src")
    sys.path.insert(0, str(root / "src"))
    return inherited


def _blas_core(numpy) -> str | None:
    import ctypes
    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, inherited: dict) -> dict:
    import numpy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = sorted(k for k in __cpu_dispatch__ if __cpu_features__.get(k))
    except ImportError:
        simd = []
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_core": _blas_core(numpy),
        "numpy_simd": simd,
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "threads": dict(PINNED),
        "scrubbed_thread_vars": inherited,
    }


def check_checkout(root: Path) -> None:
    for rel in ("src/prestopping/cli.py", "configs/default.cfg", "BENCHMARK.json"):
        if not (root / rel).is_file():
            raise SetupError(f"{rel} not found under {root}")
    import prestopping
    src = (root / "src").resolve()
    if src not in Path(prestopping.__file__).resolve().parents:
        raise SetupError(f"prestopping imports from {prestopping.__file__}, not {src}")


# ----- processes -----

def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, cwd, log_path, timeout=PROCESS_TIMEOUT_S):
    """Run argv to completion: (wall s, exit code, cpu s, peak RSS MB).

    os.wait4 on this one child gives the user+system time and the peak RSS of
    its own process tree (the child plus the descendants it waited for), not
    of every child this process ever had.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # a crashed CLI must not leave pool workers behind
    return wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def invoke(root: Path, workload: Workload, seed: int, out: Path, jobs=None) -> dict:
    """One untraced CLI invocation, its resource use and its artifact digests."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "prestopping.cli", *workload.argv(seed, str(out), jobs)]
    wall, code, cpu, rss = run_process(argv, root, out.parent / f"{out.name}.log")
    result = {"wall_s": wall, "code": code, "cpu_s": cpu, "peak_rss_mb": rss,
              "digests": {}, "epochs": 0, "seed_walls": []}
    if out.is_dir():
        result["digests"] = artifacts.digest_tree(out)
        result["epochs"] = artifacts.trained_epochs(out)
        if code == 0:
            result["seed_walls"] = artifacts.seed_wall_seconds(out)
        shutil.rmtree(out)
    return result


def setup_probe(root: Path, workload: Workload, seed: int, work: Path) -> float:
    argv = [sys.executable, str(HERE / "probe_setup.py"),
            *workload.argv(seed, str(work / "probe_out"))]
    wall, code, _, _ = run_process(argv, root, work / "probe.log")
    if code != 0:
        raise SetupError(f"set-up probe exited {code}; see {work / 'probe.log'}")
    return wall


def n_train(workload: Workload, seed: int) -> int:
    from prestopping import cli
    from probe_setup import config
    cfg = config(workload.argv(seed, "unused"))
    train_ds, _, _ = cli.build_dataset(cfg, cfg.seeds[0])
    return train_ds.n


# ----- correctness gate -----

def load_reference(env: dict, workload: Workload, seed: int):
    """(reference digests or None, explanation)."""
    if not REFERENCE.is_file():
        return None, "no reference file"
    ref = json.loads(REFERENCE.read_text())
    differs = [k for k in DIGEST_ENV_KEYS if ref["environment"].get(k) != env.get(k)]
    if differs:
        detail = ", ".join(f"{k}: reference {ref['environment'].get(k)!r} vs "
                           f"{env.get(k)!r}" for k in differs)
        return None, f"reference recorded under a different environment ({detail})"
    digests = ref["workloads"].get(workload.name, {}).get(str(seed))
    if digests is None:
        return None, f"no reference digests for {workload.name} seed {seed}"
    return digests, (f"reference digests for {workload.name} seed {seed}, recorded at "
                     f"commit {ref['recorded_at_commit']}")


class Gate:
    """Counts seed-runs and the ones that failed against a digest baseline."""

    def __init__(self, workload: Workload, baseline):
        self.workload = workload
        self.baseline = baseline
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label: str, code: int, digests: dict) -> None:
        n = self.workload.seeds_per_run
        self.attempted += n
        if code != 0:
            self.failed += n
            self.problems.append(f"{label}: exit code {code}")
            return
        if self.baseline is None:
            self.baseline = digests
        bad = artifacts.mismatched_seed_runs(digests, self.baseline)
        if len(artifacts.seed_runs(digests)) != n:
            self.failed += n
            self.problems.append(f"{label}: expected {n} seed-runs, found "
                                 f"{sorted(artifacts.seed_runs(digests))}")
        elif bad:
            self.failed += len(bad)
            self.problems.append(f"{label}: artifacts differ in {sorted(bad)}")


# ----- measurement -----

def _median(values):
    return statistics.median(values) if values else 0.0


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, env: dict) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference, gate_note = load_reference(env, workload, seed)
    baseline_kind = "reference" if reference is not None else "determinism"
    serial = None
    if workload.jobs > 1 and (reference is None or trace):
        # the same seeds run serially: without a reference, the bytes the pool
        # must reproduce; with --trace, the untraced twin of the serial traced call
        serial = invoke(root, workload, seed, work / "serial", jobs=1)
        if reference is None:
            reference = serial["digests"] if serial["code"] == 0 else None
            gate_note += "; parallel runs compared with a --jobs 1 run"
    gate = Gate(workload, reference)
    if serial is not None:
        gate.check("serial invocation", serial["code"], serial["digests"])

    # set-up probes are spread over the run (one before each invocation, a few
    # after the last) so that one slow moment of the machine does not set them
    setup = []
    if not trace:
        setup_probe(root, workload, seed, work)  # warm-up: bytecode and file cache
    # without a baseline, determinism needs two invocations to compare
    min_runs = 1 if reference is not None else 2
    runs = []
    t_start = time.perf_counter()
    while len(runs) < min_runs or time.perf_counter() - t_start < seconds:
        if not trace:
            setup.append(setup_probe(root, workload, seed, work))
        run = invoke(root, workload, seed, work / f"inv{len(runs)}")
        gate.check(f"invocation {len(runs)}", run["code"], run["digests"])
        runs.append(run)
    if not trace:
        setup += [setup_probe(root, workload, seed, work) for _ in range(SETUP_TAIL)]

    samples = n_train(workload, seed)
    ok = [r for r in runs if r["code"] == 0] or runs
    width = min(workload.jobs, workload.seeds_per_run)
    result = {
        "env": env, "gate_note": gate_note, "baseline_kind": baseline_kind,
        "n_invocations": len(runs), "n_setup": len(setup),
        "end_to_end": {
            "setup_s": _median(setup),
            "wall_s": _median([r["wall_s"] for r in ok]),
            "train_samples_per_s": _median([r["epochs"] * samples / r["wall_s"] for r in ok]),
            "cpu_s": _median([r["cpu_s"] for r in ok]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        },
        "wall_samples": [r["wall_s"] for r in runs],
        "setup_samples": setup,
        "gate": gate,
    }
    if trace:
        result["traced"], traced_wall = traced_run(root, workload, seed, work, gate)
        layers = result["traced"]["per_layer"]
        layers["cli.overhead_s"] = _median([r["wall_s"] - sum(r["seed_walls"]) / width
                                            for r in ok if r["seed_walls"]])
        untraced = serial["wall_s"] if serial else result["end_to_end"]["wall_s"]
        layers["trace.overhead_s"] = traced_wall - untraced
    return result


def traced_run(root: Path, workload: Workload, seed: int, work: Path, gate: Gate):
    """One serial CLI call under the tracer, in a process of its own.

    Returns (the tracer's result, process wall s).
    """
    out = work / "traced"
    argv = [sys.executable, str(HERE / "traced_cli.py"), str(work / "traced.json"),
            str(work / "spans.jsonl"), *workload.argv(seed, str(out), jobs=1)]
    wall, code, _, _ = run_process(argv, root, work / "traced.log")
    if code != 0:
        raise SetupError(f"traced run exited {code}; see {work / 'traced.log'}")
    traced = json.loads((work / "traced.json").read_text())
    gate.check("traced invocation", traced["code"],
               artifacts.digest_tree(out) if out.is_dir() else {})
    shutil.rmtree(out, ignore_errors=True)
    return traced, wall


# ----- output -----

def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print the human-readable table; return the final JSON object."""
    gate = result["gate"]
    env = result["env"]
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"correctness gate: {result['baseline_kind']} ({result['gate_note']})")
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"error_rate {rate:.4f} ratio ({gate.failed} of {gate.attempted} seed-runs failed)")
    section = "per_layer" if trace else "end_to_end"
    values = result["traced"]["per_layer"] if trace else result["end_to_end"]
    counts = {"setup_s": result["n_setup"]}
    metrics = {}
    for m in spec[section]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = counts.get(m["name"], result["n_invocations"])
        note = "" if trace else f"  (median of {n})"
        print(f"{m['name']:36s} {value:>14.6g} {m['unit']}{note}")
    print("wall_s samples: " + " ".join(f"{w:.3f}" for w in result["wall_samples"]))
    if result["setup_samples"]:
        print("setup_s samples: " + " ".join(f"{w:.3f}" for w in result["setup_samples"]))
    if trace:
        traced = result["traced"]
        print("self time by span (s): " + ", ".join(
            f"{name} {own:.4f}" for name, own in sorted(traced["self_by_span"].items())))
        print(f"  sum {sum(traced['self_by_span'].values()):.4f} of traced wall "
              f"{values['trace.wall_s']:.4f}; untimed remainder (cli.main self) "
              f"{values['trace.untimed_s']:.4f}; trace overhead {values['trace.overhead_s']:.4f}")
        if traced["missing"]:
            print("not traced (absent from the program): " + ", ".join(traced["missing"]))
    return {"correct": gate.failed == 0 and gate.attempted > 0,
            "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; selects the experiment seeds (default 0)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="untraced invocations are repeated for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        inherited = pin_environment(ROOT)
        check_checkout(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = environment(ROOT, inherited)
        work = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}"
        result = measure(ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work, env)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
