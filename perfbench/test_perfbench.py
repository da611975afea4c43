"""Tests of the benchmark itself, on tiny configurations (a few seconds in all)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import artifacts  # noqa: E402
import run as harness  # noqa: E402
import tracer  # noqa: E402
from workloads import Workload  # noqa: E402

from prestopping import cli, engine, memorization, metrics, nn, refurbish  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_CFG = """\
[data]
n_classes = 3
per_class = 60
dim = 4
spread = 0.3
validation_size = 30
test_size = 30
[noise]
noise = pair
tau = 0.3
[network]
hidden = 8
[optimizer]
batch_size = 16
epochs = 4
[method]
q = 2
"""


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Tiny versions of the two workload shapes, plus a scratch directory."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    c = ("--config", str(cfg))
    return {
        "plus": Workload("tiny_plus", (*c, "--method", "prestopping_plus")),
        "par": Workload("tiny_par", (*c, "--method", "default"), seeds_per_run=2, jobs=2),
        "tmp": tmp_path,
    }


def _traced(workload, out):
    tr = tracer.Tracer()
    tr.install(cli, engine, memorization, metrics, nn, refurbish)
    try:
        assert tr.run(cli, workload.argv(0, str(out), jobs=1)) == 0
    finally:
        tr.uninstall()
    return tr


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(tiny, trace, capsys):
    result = harness.measure(ROOT, tiny["par"], 0, 0.0, trace, tiny["tmp"] / "work", env={})
    final = harness.report(result, SPEC, trace)
    printed = capsys.readouterr().out.splitlines()
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in printed), m["name"]
    assert final["correct"] and final["failed"] == 0
    # two seeds per invocation: the timed ones, the traced one and, as there is
    # no reference for a tiny workload, the serial baseline
    assert final["attempted"] == 2 * (result["n_invocations"] + trace + 1)
    assert any(line.startswith("error_rate 0.0000") for line in printed)


def test_flipped_artifact_byte_raises_error_rate(tiny):
    out = tiny["tmp"] / "out"
    par = tiny["par"]
    assert cli.main(par.argv(0, str(out), jobs=1)) == 0
    reference = artifacts.digest_tree(out)

    summary = next(out.rglob("seed0/summary.json"))
    summary.write_text(summary.read_text().replace('"wall_seconds": ', '"wall_seconds": 9'))
    gate = harness.Gate(par, reference)
    gate.check("wall_seconds only", 0, artifacts.digest_tree(out))
    assert (gate.attempted, gate.failed) == (2, 0)

    target = out / "default" / "pair_0.3" / "seed1" / "metrics.csv"
    raw = bytearray(target.read_bytes())
    raw[-2] ^= 1
    target.write_bytes(bytes(raw))
    gate.check("one flipped byte", 0, artifacts.digest_tree(out))
    assert (gate.attempted, gate.failed) == (4, 1)

    # the aggregate summary is invocation-wide: a change fails every seed-run
    (out / "summary.json").write_text("{}")
    gate.check("aggregate summary", 0, artifacts.digest_tree(out))
    assert (gate.attempted, gate.failed) == (6, 3)


def test_other_environment_is_reported_not_compared():
    digests, note = harness.load_reference({"numpy": "0.0"},
                                           Workload("plus_desk", ()), 0)
    assert digests is None and "different environment" in note


def test_self_times_account_for_the_traced_wall(tiny):
    tr = _traced(tiny["plus"], tiny["tmp"] / "out")
    assert nn.loss_grad_probs.__name__ == "loss_grad_probs"  # wrappers removed
    own = tracer.self_times(tr.spans)
    for s, o in zip(tr.spans, own):
        assert -1e-9 <= o <= s[tracer.END] - s[tracer.START] + 1e-9
    layers = tracer.layer_metrics(tr.spans)
    assert tr.spans[0][tracer.NAME] == "cli.main"
    assert sum(own) == pytest.approx(layers["trace.wall_s"], abs=1e-6)
    assert 0.0 <= layers["trace.untimed_s"] < layers["trace.wall_s"]
    assert layers["refurbish.candidates.calls"] > 0 and tr.missing == []


@pytest.mark.parametrize("shape", ["plus", "par"])
def test_per_layer_counts_repeat_exactly(tiny, shape):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first = tracer.layer_metrics(_traced(tiny[shape], tiny["tmp"] / "a").spans)
    second = tracer.layer_metrics(_traced(tiny[shape], tiny["tmp"] / "b").spans)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["nn.train_step.calls"] > 0


def test_fails_without_printing_in_a_bare_directory(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plus_desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
