#!/usr/bin/env python3
"""Record the reference artifact digests the benchmark's correctness gate uses.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py --seeds 0-19 [--workload NAME ...]

Each workload runs once per benchmark seed with `--jobs 1`, so the
default_b32_par reference is a serial run and every benchmark run checks the
process pool against it. Digests are merged into perfbench/reference.json
together with the environment that decides float results; recording under a
different environment than the file's starts the file afresh.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as harness
from workloads import WORKLOADS


def _seed_range(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="benchmark seeds, e.g. 0-19 or 0,3")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = harness.ROOT
    inherited = harness.pin_environment(root)
    harness.check_checkout(root)
    env = harness.environment(root, inherited)
    key_env = {k: env[k] for k in harness.DIGEST_ENV_KEYS}
    ref = {"environment": key_env, "recorded_at_commit": env["git_commit"],
           "workloads": {}}
    if harness.REFERENCE.is_file():
        old = json.loads(harness.REFERENCE.read_text())
        if old["environment"] == key_env:
            ref["workloads"] = old["workloads"]
    work = root / ".perfbench_runs" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        for seed in _seed_range(args.seeds):
            res = harness.invoke(root, WORKLOADS[name], seed, work / "out", jobs=1)
            if res["code"] != 0:
                print(f"{name} seed {seed}: exit code {res['code']}", file=sys.stderr)
                return 1
            ref["workloads"].setdefault(name, {})[str(seed)] = res["digests"]
            harness.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {len(res['digests'])} artifacts "
                  f"({res['wall_s']:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
