"""Every artifact byte the CLI writes, pinned to digests recorded at a known-good commit.

Each case is a small in-process CLI invocation; together they take every path
that writes bytes: each method, both stop heuristics, pair and symmetric
noise, a data_csv input, grid-q over two q values, summarize, --jobs 2, more
than nn.EVAL_ROWS training rows (so evaluation runs in row blocks) and
batches of 4 (so Phase II holds batches without a safe-set member). A file's
digest is the sha256 of its bytes as written, with only the values of
"wall_seconds" masked; indentation, key order and number spelling all count.

The digests in pinned_artifacts.json hold only under the environment they
were recorded in, keyed by perfbench's DIGEST_ENV_KEYS (NumPy, BLAS, SIMD
and machine). Under another environment each case runs twice, the two trees
must be equal, and the test is then skipped with the reason: the pin was not
compared. Record the file anew, at a commit whose outputs are the reference,
with

    PYTHONPATH=src python tests/record_pinned_artifacts.py

and say in CHANGES.md why the bytes changed.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from helpers import write_csv
from prestopping import cli, data

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).with_name("pinned_artifacts.json")
sys.path.insert(0, str(ROOT / "perfbench"))
import run as harness  # noqa: E402  (read only: DIGEST_ENV_KEYS and environment)

CONFIG = """\
[data]
n_classes = 6
per_class = 110
dim = 8
spread = 0.3
validation_size = 60
test_size = 60
[noise]
noise = pair
tau = 0.4
[network]
hidden = 16
[optimizer]
batch_size = 32
epochs = 12
[method]
method = prestopping
q = 10
[run]
seeds = 0
"""
# 540 training rows; every run is written below <out>/run, and summarize reads <out>
CASES = {
    "default_symmetric": (["run", "--method", "default", "--noise", "symmetric",
                           "--tau", "0.3", "--seeds", "0,1"], ["summarize"]),
    "prestopping_validation_jobs2": (["run", "--seeds", "0,1", "--jobs", "2"],),
    "prestopping_noise_rate": (["run", "--heuristic", "noise_rate", "--tau", "0.45"],),
    "plus_symmetric": (["run", "--method", "prestopping_plus", "--noise", "symmetric",
                        "--tau", "0.3"],),
    "plus_batch4": (["run", "--method", "prestopping_plus", "--batch_size", "4"],),
    "plus_data_csv": (["run", "--method", "prestopping_plus", "--data_csv", "{csv}",
                       "--noise", "none"],),
    "grid_q": (["grid-q", "--grid", "1,10"],),
}
WALL_SECONDS = re.compile(rb'("wall_seconds": )[^,\n}]*')


def invoke(case: str, work: Path) -> dict:
    """Run one case in work; {relative posix path: sha256 hex} of what it wrote."""
    work.mkdir(parents=True)
    config, csv, out = work / "pin.cfg", work / "pin.csv", work / "out"
    config.write_text(CONFIG)
    noisy = data.inject_noise(data.synth_gaussian(6, 110, 8, spread=0.3, seed=7),
                              data.build_pair_matrix(6, 0.3), seed=8)
    write_csv(noisy, csv)
    for argv in CASES[case]:
        argv = [a.format(csv=csv) for a in argv]
        if argv[0] == "summarize":
            argv += ["--dir", str(out)]
        else:
            argv += ["--config", str(config), "--out", str(out / "run")]
        assert cli.main(argv) == 0, argv
    return {p.relative_to(out).as_posix(): hashlib.sha256(masked_bytes(p)).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def masked_bytes(path: Path) -> bytes:
    raw = path.read_bytes()
    return WALL_SECONDS.sub(rb"\1null", raw) if path.name == "summary.json" else raw


def digest_environment() -> dict:
    env = harness.environment(ROOT, {})
    return {key: env[key] for key in harness.DIGEST_ENV_KEYS}


@pytest.fixture(scope="module")
def pins():
    recorded = json.loads(PINS.read_text())
    here = digest_environment()
    differs = {k: (recorded["environment"].get(k), here[k]) for k in here
               if recorded["environment"].get(k) != here[k]}
    return recorded, differs


def test_masking_touches_only_wall_seconds(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text('{\n  "q": 10,\n  "wall_seconds": 0.123,\n  "x": [{"wall_seconds": 1e-05}]\n}\n')
    assert masked_bytes(path) == (b'{\n  "q": 10,\n  "wall_seconds": null,\n'
                                  b'  "x": [{"wall_seconds": null}]\n}\n')


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_bytes_match_the_pin(case, pins, tmp_path):
    recorded, differs = pins
    digests = invoke(case, tmp_path / "a")
    if differs:
        assert invoke(case, tmp_path / "b") == digests, "two runs wrote different bytes"
        detail = ", ".join(f"{k}: recorded {r!r}, here {h!r}" for k, (r, h) in differs.items())
        pytest.skip(f"pin not compared (two runs agreed): recorded under another "
                    f"environment ({detail})")
    assert case in recorded["cases"], f"no digests recorded for {case}"
    expected = recorded["cases"][case]
    changed = sorted(p for p in set(digests) | set(expected)
                     if digests.get(p) != expected.get(p))
    assert not changed, f"bytes differ from the pin (recorded at " \
                        f"{recorded['recorded_at_commit']}): {changed}"
