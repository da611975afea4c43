#!/usr/bin/env python3
"""Record tests/pinned_artifacts.json, the digests test_pinned_artifacts.py compares.

Run from the root of a checkout of the commit whose outputs are the reference:

    PYTHONPATH=src python tests/record_pinned_artifacts.py

Every case runs once in a temporary directory. The file keeps the digests,
the environment fields perfbench's DIGEST_ENV_KEYS name, and the commit.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_pinned_artifacts as pin  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cases = {case: pin.invoke(case, Path(tmp) / case) for case in sorted(pin.CASES)}
    commit = pin.harness.environment(pin.ROOT, {})["git_commit"]
    record = {"environment": pin.digest_environment(), "recorded_at_commit": commit,
              "cases": cases}
    pin.PINS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{pin.PINS}: {sum(map(len, cases.values()))} files in {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
