"""Artifact digests of one invocation's output tree, and their comparison.

Every file the CLI writes is deterministic except the `wall_seconds` fields of
the summary.json files, which are removed before hashing. A file below a
`seed<k>` directory belongs to that seed-run; any other file (such as the
aggregate summary.json) belongs to every seed-run of the invocation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _strip_wall_seconds(value):
    if isinstance(value, dict):
        return {k: _strip_wall_seconds(v) for k, v in value.items()
                if k != "wall_seconds"}
    if isinstance(value, list):
        return [_strip_wall_seconds(v) for v in value]
    return value


def canonical_bytes(path: Path) -> bytes:
    raw = path.read_bytes()
    if path.name != "summary.json":
        return raw
    try:
        stripped = _strip_wall_seconds(json.loads(raw))
    except ValueError:
        return raw  # a truncated summary stays as written and fails the gate
    return (json.dumps(stripped, indent=2, sort_keys=True) + "\n").encode()


def digest_tree(out_dir) -> dict:
    """{relative posix path: sha256 hex} for every file below out_dir."""
    out_dir = Path(out_dir)
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(canonical_bytes(p)).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def seed_run_of(relpath: str):
    """Directory path of the seed-run owning relpath, or None if invocation-wide."""
    parts = relpath.split("/")
    for i, part in enumerate(parts[:-1]):
        if part.startswith("seed") and part[4:].isdigit():
            return "/".join(parts[:i + 1])
    return None


def seed_runs(digests: dict) -> set:
    return {s for s in map(seed_run_of, digests) if s is not None}


def mismatched_seed_runs(digests: dict, reference: dict) -> set:
    """Seed-runs with a missing, extra or differing artifact.

    A difference in an invocation-wide file fails every seed-run.
    """
    every = seed_runs(digests) | seed_runs(reference)
    bad = set()
    for path in set(digests) | set(reference):
        if digests.get(path) != reference.get(path):
            owner = seed_run_of(path)
            bad |= every if owner is None else {owner}
    return bad


def trained_epochs(out_dir) -> int:
    """Metric rows over every metrics.csv: each row is one trained epoch."""
    total = 0
    for path in Path(out_dir).rglob("metrics.csv"):
        with open(path) as fh:
            total += sum(1 for line in fh if line.strip()) - 1
    return total


def seed_wall_seconds(out_dir) -> list:
    """Per-seed-run wall_seconds from every seed<k>/summary.json."""
    walls = []
    for path in Path(out_dir).rglob("summary.json"):
        if seed_run_of(path.relative_to(out_dir).as_posix()) is None:
            continue
        for run in json.loads(path.read_text())["runs"]:
            walls.append(float(run["wall_seconds"]))
    return walls

