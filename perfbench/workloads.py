"""The benchmark's workloads: which `prestopping` invocation each one runs.

A workload is a fixed `prestopping run` invocation on `configs/default.cfg`
plus a rule that turns the benchmark seed into the experiment seeds passed as
`--seeds`. Why each workload exists is recorded in BENCHMARK.json and
README.md.
Benchmark seed n gives experiment seeds n*k .. n*k+k-1 for a workload with k
seeds per invocation, so distinct benchmark seeds never share an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple              # `run` flags other than --seeds, --jobs and --out
    seeds_per_run: int = 1
    jobs: int = 1

    def seeds(self, bench_seed: int) -> list:
        base = bench_seed * self.seeds_per_run
        return list(range(base, base + self.seeds_per_run))

    def argv(self, bench_seed: int, out: str, jobs: int | None = None) -> list:
        """CLI arguments (after the program name) for one invocation."""
        return ["run", *self.args,
                "--seeds", ",".join(str(s) for s in self.seeds(bench_seed)),
                "--jobs", str(self.jobs if jobs is None else jobs),
                "--out", out]


CONFIG = "configs/default.cfg"

WORKLOADS = {w.name: w for w in (
    Workload("plus_desk", ("--config", CONFIG, "--method", "prestopping_plus")),
    Workload("default_b32_par",
             ("--config", CONFIG, "--method", "default", "--noise", "symmetric",
              "--tau", "0.4", "--batch_size", "32"),
             seeds_per_run=2, jobs=2),
)}
