"""Command-line runner: config handling, exit codes, layout, determinism."""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import write_csv
from prestopping import cli, data, engine, metrics, nn, processes, refurbish

ROOT_CFG = "configs/default.cfg"


def tiny_flags(out, **kw):
    base = dict(n_classes=3, per_class=50, dim=4, spread=0.4,
                validation_size=30, test_size=30, hidden="8", epochs=5,
                batch_size=32, noise="pair", tau=0.3, method="prestopping",
                seeds="0,1", out=str(out))
    base.update(kw)
    flags = []
    for key, value in base.items():
        flags += [f"--{key}", str(value)]
    return flags


# ----- config handling -----

def test_flag_beats_file_beats_default(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("[method]\nq = 7\nmethod = default\n")
    cfg = cli.build_config(cfg_file, {"q": "3"})
    assert cfg.q == 3                 # flag wins
    assert cfg.method == "default"    # file beats default
    assert cfg.epochs == 60           # untouched default


def test_config_file_values_are_literal(tmp_path):
    # [DEFAULT] is an ordinary section, alone or beside others, % interpolates
    # nothing, ASCII spaces and tabs around a key or a value go, a comment may
    # hold any whitespace, indentation continues nothing, and a value is split
    # from its key at the first '=' or ':'
    alone, beside, percent, tabbed, indented, colon = (tmp_path / name for name in (
        "alone", "beside", "runs_50%", "tabbed", "indented", "a=b"))
    for text, out in [(f"[DEFAULT]\nq = 5\nout = {alone}\n", alone),
                      (f"[DEFAULT]\nq = 5\n[method]\nmethod = default\n"
                       f"[run]\nout = {beside}\n", beside),
                      (f"[method]\nq = 5\n[run]\nout = {percent}\n", percent),
                      (f"[method]\n# q =\u00a07\nq\t=\t5 \t\n[run]\nout:{tabbed}\t\n", tabbed),
                      (f"[method]\nmethod = default\n  q = 5\n[run]\nout = {indented}\n", indented),
                      (f"[method]\nq = 5\n[run]\nout: {colon}\n", colon)]:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        flags = tiny_flags("unused", method="default", seeds="0", epochs=1)[:-2]  # no --out
        assert cli.main(["run", "--config", str(cfg_file)] + flags) == 0, text
        assert metrics.read_summary_json(out / "summary.json")["runs"][0]["q"] == 5, text


def test_unknown_key_is_named(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("[method]\nwhatever = 3\n")
    with pytest.raises(cli.ConfigError, match="whatever"):
        cli.build_config(cfg_file, {})


def test_unparseable_value_is_named():
    with pytest.raises(cli.ConfigError, match="q"):
        cli.build_config(None, {"q": "ten"})


def test_noise_rate_without_tau_names_tau():
    with pytest.raises(cli.ConfigError, match="tau"):
        cli.build_config(None, {"method": "prestopping", "heuristic": "noise_rate"})


def test_validation_heuristic_needs_validation_split():
    with pytest.raises(cli.ConfigError, match="validation_size"):
        cli.build_config(None, {"validation_size": "0"})


def test_split_error_names_what_counted_the_total(tmp_path):
    small = tmp_path / "small.csv"
    write_csv(data.synth_gaussian(4, 25, 4, spread=0.4, seed=5), small)
    for overrides, total in [({"per_class": "13"}, "52 (n_classes 4 x per_class 13)"),
                             ({"data_csv": str(small)}, f"100 (the rows of data_csv {small})")]:
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config(None, overrides)
        assert str(err.value) == ("validation_size: 500 + test_size 1000 leave no training "
                                  f"samples out of {total}")


def test_shipped_default_config_is_valid():
    cfg = cli.build_config(ROOT_CFG, {})
    assert cfg.noise == "pair" and cfg.tau == 0.4 and cfg.seeds == (0, 1, 2)
    assert cfg.n_classes * cfg.per_class == 5500


def test_config_error_exit_code(tmp_path, capsys):
    # each bad value must surface as a config error naming its key, not as
    # failed runs
    small, wide, malformed, nonfinite, undecodable, fullwidth = (tmp_path / name for name in (
        "small.csv", "wide.csv", "malformed.csv", "nonfinite.csv", "undecodable.cfg",
        "fullwidth.cfg"))
    # only ASCII whitespace goes from around a key or a value: a no-break space, an
    # em space or U+001C there is an error naming the key
    spaced = {line: tmp_path / f"spaced{i}.cfg" for i, line in enumerate(
        ["q = \u00a010", "out = runs\u00a0", "q\u00a0= 10", "\u2003q = 10", "epochs =\x1c5"])}
    for line, path in spaced.items():
        section = "run" if line.startswith("out") else "method"
        path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    write_csv(data.synth_gaussian(4, 25, 4, spread=0.4, seed=5), small)
    wide.write_text("".join(f"0.5,{k % 300}\n" for k in range(1800)))  # 300 classes
    malformed.write_text("0.5,1.5,0\n0.5,1\n")
    nonfinite.write_text("".join(f"{k / 7},{k % 3}\n" for k in range(99)) + "nan,1\n")
    undecodable.write_bytes(b"[run]\nout = runs\xff\n")
    fullwidth.write_text("[method]\nq = \uff11\uff10\n", encoding="utf-8")
    # a line is blank, a comment, a new [section], or key = value after one: a
    # continuation line, a header with more text, a repeated header, [], a line
    # without a key and a key before any header are errors naming their line
    lined = [(tmp_path / f"lined{i}.cfg", text, lineno) for i, (text, lineno) in enumerate(
        [("[run]\njobs = 1\n  2\n", 3), ("[run] jobs = 1\n", 1), ("[run]\n[noise]\n[run]\n", 3),
         ("[]\n", 1), ("[run]\n= 5\n", 2), ("jobs = 1\n[run]\n", 1)])]
    for path, text, _ in lined:
        path.write_text(text)
    for flags, key in [
        (["--method", "prestopping", "--heuristic", "noise_rate", "--noise", "none"], "tau"),
        # without a config file noise defaults to none, so --noise needs a --tau
        (["--noise", "pair", "--seeds", "0"], "tau"),
        (["--q", "300"], "q"),
        (["--decay_points", "1.0"], "decay_points"),
        (["--decay_points", "0.75,0.5"], "decay_points"),
        (["--decay_factor", "0.5"], "decay_factor"),
        (["--hidden", "8,0"], "hidden"),
        # list-valued keys are comma-separated: a space is no separator, a blank
        # cell is no value
        (["--seeds", "0 1 2"], "seeds"),
        (["--hidden", "12 8"], "hidden"),
        (["--decay_points", "0.5 5"], "decay_points"),
        (["--seeds", "0,,1"], "seeds"),
        (["--hidden", "128,64,"], "hidden"),
        # a number is plain ASCII: no '_' between digits, no other script's digits
        (["--epochs", "6_0"], "epochs"),
        (["--hidden", "1_28"], "hidden"),
        (["--q", "\uff11\uff10"], "q"),
        (["--seeds", "\u0660,\u0661"], "seeds"),
        (["--config", str(fullwidth)], "q"),
        # only ASCII whitespace may surround a config file's key or value
        *[(["--config", str(path)], line.split("=")[0].strip())
          for line, path in spaced.items()],
        # a config file is UTF-8 text
        (["--config", str(undecodable)], "config"),
        *[(["--config", str(path)], f"config: {path}: line {lineno}")
          for path, _, lineno in lined],
        # predicted labels are stored as single bytes: 256 classes at most
        (["--method", "default", "--n_classes", "300", "--per_class", "3",
          "--validation_size", "10", "--test_size", "10"], "n_classes"),
        # the library objects own these bounds; validate builds them before it
        # sizes the partitions, so --n_classes 1 names n_classes, not validation_size
        (["--n_classes", "1"], "n_classes"),
        (["--n_classes", "257"], "n_classes"),
        (["--q", "0"], "q"),
        (["--q", "256"], "q"),
        (["--epsilon", "-0.01"], "epsilon"),
        (["--epsilon", "1.01"], "epsilon"),
        (["--epsilon", "nan"], "epsilon"),
        # tau's range is checked whether or not a library object reads tau
        *[(flags + ["--tau", value], "tau")
          for flags in (["--method", "default"],
                        ["--method", "prestopping", "--heuristic", "noise_rate"])
          for value in ("1.5", "-0.1", "1")],
        # a CSV dataset is read before training: too few rows, too many classes, malformed
        (["--data_csv", str(small)], "validation_size"),
        (["--data_csv", str(wide)], "data_csv"),
        (["--data_csv", str(malformed)], "data_csv"),
        (["--data_csv", str(nonfinite), "--validation_size", "10", "--test_size", "10"],
         "data_csv"),
        # non-finite numbers fail every check they meet
        (["--lr", "nan"], "lr"),
        (["--lr", "inf"], "lr"),
        (["--decay_factor", "nan"], "decay_factor"),
        (["--decay_factor", "inf"], "decay_factor"),
        (["--spread", "nan"], "spread"),
        (["--spread", "inf"], "spread"),
        # the synthetic keys are checked even when a CSV replaces the generator
        *[(["--data_csv", str(small), "--validation_size", "10", "--test_size", "10",
            f"--{key}", value], key)
          for key, value in [("n_classes", "999"), ("per_class", "-5"), ("dim", "0"),
                             ("spread", "nan")]],
    ]:
        rc = cli.main(["run"] + flags + ["--out", str(tmp_path)])
        assert rc == 2, flags
        assert f"config error: {key}:" in capsys.readouterr().err, flags


def test_library_bounds_are_inclusive():
    for key, value in [("q", "1"), ("q", "255"), ("n_classes", "2"), ("n_classes", "256"),
                       ("epsilon", "0"), ("epsilon", "1")]:
        assert getattr(cli.build_config(None, {key: value}), key) == float(value), key


def test_out_must_name_a_directory(tmp_path, capsys):
    # a file, or a path through one, fails before any seed trains
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for command in ("run", "grid-q"):
        for out in (taken, taken / "sub"):
            flags = tiny_flags("unused", seeds="0", epochs=2)[:-2] + ["--out", str(out)]
            assert cli.main([command] + flags) == 2, (command, out)
            assert "config error: out:" in capsys.readouterr().err, (command, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert taken.read_text() == "not a directory\n"


def test_keys_and_flags_are_exact(tmp_path, capsys):
    # a key is case-sensitive (Q is not q), and argparse would take --epo for --epochs
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("[method]\nQ = 7\n")
    assert cli.main(["run", "--config", str(cfg_file)]) == 2
    assert "config error: Q: unknown key" in capsys.readouterr().err
    out = tmp_path / "out"
    short = ["--seeds", "0", "--epochs", "1", "--out", str(out)]
    for argv, flag in [(["run", "--epo", "3"] + short, "--epo"),
                       (["run", "--heur", "noise_rate"] + short, "--heur"),
                       (["grid-q", "--val", "7", "--grid", "1"] + short, "--val"),
                       (["summarize", "--dir", str(out), "--di", str(tmp_path)], "--di")]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, argv
    assert not out.exists()


def test_every_config_field_is_a_key_and_a_flag(tmp_path):
    # each default, written as a config file or a flag holds it, parses back to
    # itself with the same types, tuple elements included
    keys = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert list(cli.CONVERTERS) == keys
    default = cli.ExperimentConfig()
    text = {key: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for key in keys if (v := getattr(default, key)) is not None}
    assert text["hidden"] == "128,64" and set(keys) - set(text) == {"data_csv", "tau"}
    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text("[all]\n" + "".join(f"{k} = {v}\n" for k, v in text.items()))
    assert cli.load_config_file(cfg_file) == text
    flags = {**text, "data_csv": "d.csv", "tau": "0.3"}
    args = cli.build_parser().parse_args(
        ["run"] + [arg for key, value in flags.items() for arg in (f"--{key}", value)])
    assert {key: getattr(args, key) for key in keys} == flags
    for cfg in (cli.build_config(cfg_file, {}), cli.build_config(None, text)):
        assert cfg == default
        for key in text:
            value, want = getattr(cfg, key), getattr(default, key)
            assert type(value) is type(want), key
            if isinstance(want, tuple):
                assert [type(x) for x in value] == [type(x) for x in want], key
    # an empty list-valued key is the empty list: a constant LR, no hidden layer
    cfg = cli.build_config(None, {"decay_points": "", "hidden": ""})
    assert cfg.decay_points == () and cfg.hidden == ()
    # the other documented number forms keep their values
    for key, text, value in [("lr", " 0.1 ", 0.1), ("epochs", "+5", 5), ("lr", "1e-1", 0.1),
                             ("seeds", "0, 1", (0, 1)), ("decay_points", " ", ())]:
        assert getattr(cli.build_config(None, {key: text}), key) == value, (key, text)
    # Optional[X] parses as X
    assert cli.CONVERTERS["tau"]("0.3") == 0.3
    assert cli.CONVERTERS["data_csv"]("d.csv") == "d.csv"


# ----- run subcommand -----

def test_default_method_clean_data_single_seed(tmp_path, capsys):
    rc = cli.main(["run"] + tiny_flags(tmp_path, method="default", noise="none",
                                       tau=0.0, seeds="0", epochs=3))
    assert rc == 0
    summary = metrics.read_summary_json(tmp_path / "summary.json")
    assert len(summary["runs"]) == 1 and summary["failures"] == []
    run_dir = tmp_path / "default" / "none_0" / "seed0"
    assert (run_dir / "metrics.csv").is_file()
    assert not (run_dir / "checkpoint_net.pstp").exists()  # no stop point
    assert "default none_0" in capsys.readouterr().out


def test_prestopping_layout_and_artifacts(tmp_path):
    rc = cli.main(["run"] + tiny_flags(tmp_path, seeds="0"))
    assert rc == 0
    run_dir = tmp_path / "prestopping" / "pair_0.3" / "seed0"
    for name in ("metrics.csv", "summary.json", "plots.gp",
                 "checkpoint_net.pstp", "checkpoint_hist.psth"):
        assert (run_dir / name).is_file(), name
    rows = metrics.read_metrics_csv(run_dir / "metrics.csv")
    phases = {r.phase for r in rows}
    assert phases == {"phase1", "phase2"}
    summary = metrics.read_summary_json(run_dir / "summary.json")
    run = summary["runs"][0]
    assert run["stop_epoch"] is not None
    assert run["best_test_error"] == min(r.test_error for r in rows)
    # phase2 rows resume at the stop epoch and reach the end
    p2 = [r.epoch for r in rows if r.phase == "phase2"]
    assert p2 == list(range(run["stop_epoch"], 6))


def test_plus_runs_all_three_phases(tmp_path):
    rc = cli.main(["run"] + tiny_flags(tmp_path, method="prestopping_plus",
                                       seeds="0", epochs=4))
    assert rc == 0
    run_dir = tmp_path / "prestopping_plus" / "pair_0.3" / "seed0"
    rows = metrics.read_metrics_csv(run_dir / "metrics.csv")
    assert {r.phase for r in rows} == {"phase1", "phase2", "plus"}
    assert (run_dir / "refurbished.csv").is_file()
    header = (run_dir / "refurbished.csv").read_text().splitlines()[0]
    assert header == "index,refurbished_label,entropy"


def test_noise_rate_runs_leave_validation_blank(tmp_path):
    rc = cli.main(["run"] + tiny_flags(tmp_path, heuristic="noise_rate",
                                       seeds="0", epochs=8, tau=0.35))
    if rc == 0:
        run_dir = tmp_path / "prestopping" / "pair_0.35" / "seed0"
        rows = metrics.read_metrics_csv(run_dir / "metrics.csv")
        assert all(r.validation_error is None for r in rows)
    else:
        assert rc == 1  # stop point never reached is a run failure, not a crash


# artifacts each method must write besides metrics.csv, summary.json, plots.gp
METHOD_ARTIFACTS = {
    "default": set(),
    "prestopping": {"checkpoint_net.pstp", "checkpoint_hist.psth"},
    "prestopping_plus": {"checkpoint_net.pstp", "checkpoint_hist.psth", "refurbished.csv"},
}


def seed_dir_contents(root, method, seed):
    """{file name: bytes} of one seed directory; summary.json without wall_seconds."""
    contents = {}
    for path in sorted((root / method / "pair_0.3" / f"seed{seed}").iterdir()):
        raw = path.read_bytes()
        if path.name == "summary.json":
            doc = json.loads(raw)
            for run in doc["runs"]:
                del run["wall_seconds"]
            raw = json.dumps(doc, sort_keys=True).encode()
        contents[path.name] = raw
    assert METHOD_ARTIFACTS[method] | {"metrics.csv", "summary.json", "plots.gp"} \
        <= contents.keys()
    return contents


@pytest.mark.parametrize("method", sorted(METHOD_ARTIFACTS))
def test_rerun_is_bit_identical(tmp_path, method):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run"] + tiny_flags(a, seeds="0", method=method)) == 0
    assert cli.main(["run"] + tiny_flags(b, seeds="0", method=method)) == 0
    assert seed_dir_contents(a, method, 0) == seed_dir_contents(b, method, 0)


@pytest.mark.parametrize("method", sorted(METHOD_ARTIFACTS))
def test_parallel_matches_serial(tmp_path, method):
    a, b = tmp_path / "serial", tmp_path / "par"
    assert cli.main(["run"] + tiny_flags(a, seeds="0,1", jobs=1, method=method)) == 0
    assert cli.main(["run"] + tiny_flags(b, seeds="0,1", jobs=2, method=method)) == 0
    for seed in (0, 1):
        assert seed_dir_contents(a, method, seed) == seed_dir_contents(b, method, seed)


def test_seed_processes_never_outnumber_jobs_or_seeds(tmp_path, monkeypatch):
    started, alive, most = [], [0], [0]
    start, stop, real = processes._ForkedChild.start, processes._ForkedChild.stop, \
        cli.build_dataset

    def counted_start(self, body, *args):
        start(self, body, *args)
        started.append(self.seed)
        alive[0] += 1
        most[0] = max(most[0], alive[0])

    def counted_stop(self):
        alive[0] -= self._proc is not None
        stop(self)

    marker = tmp_path / "seed2_started"

    def waiting_for_seed2(cfg, seed):  # runs in the forked seed processes
        if seed == 0:
            deadline = time.monotonic() + 30
            while not marker.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("seed 2 never started")
                time.sleep(0.01)
        if seed == 2:
            marker.touch()
        return real(cfg, seed)

    monkeypatch.setattr(processes._ForkedChild, "start", counted_start)
    monkeypatch.setattr(processes._ForkedChild, "stop", counted_stop)
    flags = dict(method="default", epochs=2)
    assert cli.main(["run"] + tiny_flags(tmp_path / "a", seeds="0,1", jobs=8, **flags)) == 0
    assert started == [0, 1]
    # seed 0 ends only once seed 2 has started: the slot seed 1 frees must go to seed 2
    monkeypatch.setattr(cli, "build_dataset", waiting_for_seed2)
    started.clear()
    assert cli.main(["run"] + tiny_flags(tmp_path / "b", seeds="0,1,2", jobs=2, **flags)) == 0
    assert started == [0, 1, 2] and most[0] == 2 and alive[0] == 0


def test_killed_seed_process_fails_only_its_seed(tmp_path, monkeypatch):
    real = processes.train_seed

    def killed_for_seed1(cfg, seed, *args):
        if seed == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg, seed, *args)

    monkeypatch.setattr(processes, "train_seed", killed_for_seed1)
    flags = tiny_flags(tmp_path, seeds="0,1,2,3", jobs=2, method="default", epochs=2)
    assert cli.main(["run"] + flags) == 1
    summary = metrics.read_summary_json(tmp_path / "summary.json")
    assert [r["seed"] for r in summary["runs"]] == [0, 2, 3]
    assert summary["failures"] == [{
        "seed": 1, "run_dir": "default/pair_0.3/seed1",
        "error": "RuntimeError: seed 1: seed process exited with code -9 without a result"}]
    assert sorted(p.name for p in (tmp_path / "default" / "pair_0.3").iterdir()) == \
        ["seed0", "seed2", "seed3"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("failure", ["RuntimeError: boom",
                                     "StopPointNotReached: training error never reached "
                                     "tau=0.0 within 3 epochs (final 0.5000)"],
                         ids=["RuntimeError", "StopPointNotReached"])
def test_failing_seed_does_not_stop_others(tmp_path, monkeypatch, capsys, jobs, failure):
    # under jobs=2 a seed's exception comes back from its seed process by pickle,
    # and fails that seed alone
    real = cli.build_dataset

    def flaky(cfg, seed):  # forked seed processes inherit the patch
        if seed != 1:
            return real(cfg, seed)
        if failure.startswith("RuntimeError"):
            raise RuntimeError("boom")
        # the library's own raise: conflicting labels never reach tau=0
        view = data.DataView(np.zeros((8, 4)), np.array([0, 1] * 4), 3)
        engine.phase1_train(view, engine.StopHeuristic("noise_rate", tau=0.0),
                            nn.NetworkSpec((4, 3)), nn.OptimizerConfig(total_epochs=3),
                            q=3, seed=0)

    monkeypatch.setattr(cli, "build_dataset", flaky)
    rc = cli.main(["run"] + tiny_flags(tmp_path, seeds="0,1,2", jobs=jobs))
    assert rc == 1
    summary = metrics.read_summary_json(tmp_path / "summary.json")
    assert [r["seed"] for r in summary["runs"]] == [0, 2]
    assert summary["failures"] == [{"seed": 1, "error": failure,
                                    "run_dir": "prestopping/pair_0.3/seed1"}]
    assert f"seed 1 failed: {failure}\n" in capsys.readouterr().err


def test_csv_dataset_input(tmp_path):
    ds = data.synth_gaussian(3, 40, 4, spread=0.4, seed=5)
    csv_path = tmp_path / "blobs.csv"
    write_csv(ds, csv_path)
    rc = cli.main(["run"] + tiny_flags(tmp_path / "out", data_csv=str(csv_path),
                                       noise="pair", tau=0.3, seeds="0", epochs=3))
    assert rc == 0
    rows = metrics.read_metrics_csv(
        tmp_path / "out" / "prestopping" / "pair_0.3" / "seed0" / "metrics.csv")
    assert rows  # ran end to end off the file


def test_csv_is_parsed_once_per_invocation(tmp_path, monkeypatch, capsys):
    csv_path, calls, load = tmp_path / "blobs.csv", [], data.load_csv
    write_csv(data.synth_gaussian(3, 40, 4, spread=0.4, seed=5), csv_path)
    monkeypatch.setattr(data, "load_csv", lambda path: calls.append(path) or load(path))
    flags = tiny_flags(tmp_path / "out", data_csv=str(csv_path), method="default",
                       seeds="0,1,2", epochs=1)
    assert cli.main(["run"] + flags) == 0
    assert len(calls) == 1  # validate's parse serves every seed
    # a file rewritten before the next invocation is read again: now it is too small
    write_csv(data.synth_gaussian(3, 10, 4, spread=0.4, seed=5), csv_path)
    assert cli.main(["run"] + flags) == 2
    assert len(calls) == 2
    assert "config error: validation_size:" in capsys.readouterr().err


def test_missing_csv_is_config_error():
    with pytest.raises(cli.ConfigError, match="data_csv"):
        cli.build_config(None, {"data_csv": "/no/such/file.csv"})


# ----- grid-q subcommand -----

def test_grid_q_single_point_matches_plain_run(tmp_path):
    plain, grid = tmp_path / "plain", tmp_path / "grid"
    assert cli.main(["run"] + tiny_flags(plain, seeds="0", q=10)) == 0
    assert cli.main(["grid-q"] + tiny_flags(grid, seeds="0", q=10)
                    + ["--grid", "10"]) == 0
    rel = "prestopping/pair_0.3/seed0/metrics.csv"
    assert (grid / "q10" / rel).read_bytes() == (plain / rel).read_bytes()
    lines = (grid / "grid_q.csv").read_text().splitlines()
    assert lines[0] == "q,n_runs,mean_best_test_error,se_best_test_error"
    assert len(lines) == 2


def test_grid_q_row_per_point(tmp_path):
    rc = cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0", epochs=3)
                  + ["--grid", "1,5,10"])
    assert rc == 0
    lines = (tmp_path / "grid_q.csv").read_text().splitlines()
    assert len(lines) == 4
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 5, 10]
    summary = metrics.read_summary_json(tmp_path / "summary.json")
    assert sorted({r["q"] for r in summary["runs"]}) == [1, 5, 10]


def test_grid_q_failed_rerun_leaves_no_stale_summary(tmp_path, capsys):
    assert cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0", epochs=3)
                    + ["--grid", "1,2"]) == 0
    # the noise-rate stop point is never reached: every run of the rerun fails
    rc = cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0", epochs=3, tau=0.01,
                                          heuristic="noise_rate") + ["--grid", "1,2"])
    assert rc == 1
    summary = metrics.read_summary_json(tmp_path / "summary.json")
    assert summary["runs"] == [] and summary["groups"] == []
    assert [(f["q"], f["seed"]) for f in summary["failures"]] == [(1, 0), (2, 0)]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": seed 0 failed: ")[0] for line in err] == \
        ["prestopping pair_0.01 q=1", "prestopping pair_0.01 q=2"]
    assert (tmp_path / "grid_q.csv").read_text().splitlines()[1:] == ["1,0,,", "2,0,,"]


def test_grid_q_rejects_repeated_values(tmp_path, capsys):
    # q=5 twice would train twice into one q5/ directory and write two rows
    rc = cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0") + ["--grid", "5,10,5"])
    assert rc == 2
    assert "config error: grid:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing trained


def test_grid_q_rejects_a_space_separated_grid(tmp_path, capsys):
    # "1 5" is no grid of two points, and no q=15 either; "1_0" is no q=10
    for grid in ("1 5", "1_0"):
        rc = cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0") + ["--grid", grid])
        assert rc == 2, grid
        assert "config error: grid:" in capsys.readouterr().err, grid
        assert not any(tmp_path.iterdir()), grid


@pytest.mark.parametrize("grid", ["0,5", "5,256"])
def test_grid_q_rejects_a_value_out_of_range(tmp_path, capsys, grid):
    rc = cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0") + ["--grid", grid])
    assert rc == 2
    assert "config error: grid:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_grid_q_rejects_default_method(capsys):
    rc = cli.main(["grid-q"] + tiny_flags("unused", method="default"))
    assert rc == 2
    assert "method" in capsys.readouterr().err


# ----- summarize subcommand -----

def test_summarize_merges_methods(tmp_path, capsys):
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default",
                                         seeds="0,1")) == 0
    assert cli.main(["run"] + tiny_flags(tmp_path, method="prestopping",
                                         seeds="0,1")) == 0
    capsys.readouterr()
    rc = cli.main(["summarize", "--dir", str(tmp_path)])
    assert rc == 0
    merged = metrics.read_summary_json(tmp_path / "summary.json")
    assert len(merged["runs"]) == 4
    assert {g["method"] for g in merged["groups"]} == {"default", "prestopping"}
    out = capsys.readouterr().out
    assert "default" in out and "prestopping" in out


def test_summarize_names_unreadable_summary(tmp_path, capsys):
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0")) == 0
    broken = tmp_path / "default" / "other" / "seed1" / "summary.json"
    broken.parent.mkdir(parents=True)
    # a run killed mid-write, before atomic writes; then valid JSON that is no object
    # then a runs value that is no list, and run entries that are no object or lack fields
    for text in ('{"runs": [', "[]", '{"runs": 5}', '{"runs": [1]}',
                 '{"runs": [{"method": "default"}]}'):
        broken.write_text(text)
        capsys.readouterr()
        rc = cli.main(["summarize", "--dir", str(tmp_path)])
        assert rc == 1
        assert f"cannot read {broken}" in capsys.readouterr().err
    # NaN, an infinity or a float too large for a double would aggregate into a
    # non-finite mean and be written back as no valid JSON
    good = json.loads((tmp_path / "default" / "pair_0.3" / "seed0" / "summary.json")
                      .read_text())["runs"][0]
    for value in ("NaN", "Infinity", "-Infinity", "1e999"):
        broken.write_text(json.dumps({"runs": [good]}).replace(
            f'"best_test_error": {json.dumps(good["best_test_error"])}',
            f'"best_test_error": {value}'))
        assert value in broken.read_text()
        capsys.readouterr()
        assert cli.main(["summarize", "--dir", str(tmp_path)]) == 1
        assert f"cannot read {broken}: {value} is not a finite number" in \
            capsys.readouterr().err
    assert metrics.read_summary_json(tmp_path / "summary.json")["runs"]  # not rewritten
    # a run entry with every field, one of them of the wrong JSON type
    for field, value in [("best_test_error", "x"), ("q", "10"), ("seed", True),
                         ("heuristic", 3), ("stop_epoch", 2.5), ("wall_seconds", None)]:
        broken.write_text(json.dumps({"runs": [{**good, field: value}]}))
        capsys.readouterr()
        assert cli.main(["summarize", "--dir", str(tmp_path)]) == 1
        assert f"cannot read {broken}: {field} must be" in capsys.readouterr().err


def test_summarize_skips_a_seed_whose_rerun_failed(tmp_path, monkeypatch, capsys):
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default")) == 0
    real = processes.train_seed

    def failing(cfg, seed, *args):
        if seed == 0:
            raise RuntimeError("boom")
        return real(cfg, seed, *args)

    monkeypatch.setattr(processes, "train_seed", failing)
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default")) == 1
    monkeypatch.undo()
    failure = {"seed": 0, "error": "RuntimeError: boom", "run_dir": "default/pair_0.3/seed0"}
    assert metrics.read_summary_json(tmp_path / "summary.json")["failures"] == [failure]
    assert (tmp_path / "default" / "pair_0.3" / "seed0" / "summary.json").exists()  # earlier run
    for _ in range(2):  # the failures it carries over skip the same directory again
        capsys.readouterr()
        assert cli.main(["summarize", "--dir", str(tmp_path)]) == 1
        summary = metrics.read_summary_json(tmp_path / "summary.json")
        assert [r["seed"] for r in summary["runs"]] == [1]
        assert summary["groups"][0]["n_runs"] == 1 and summary["failures"] == [failure]
        err = capsys.readouterr().err
        assert err == f"{tmp_path / 'default' / 'pair_0.3' / 'seed0'} failed: RuntimeError: boom\n"
    # a later run of the other seed alone keeps seed 0's failure, and speaks only of seed 1
    capsys.readouterr()
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="1")) == 0
    assert capsys.readouterr().err == ""
    assert metrics.read_summary_json(tmp_path / "summary.json")["failures"] == [failure]
    assert cli.main(["summarize", "--dir", str(tmp_path)]) == 1
    assert metrics.read_summary_json(tmp_path / "summary.json")["groups"][0]["n_runs"] == 1
    # a successful rerun of seed 0 drops it
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0")) == 0
    assert metrics.read_summary_json(tmp_path / "summary.json")["failures"] == []
    assert cli.main(["summarize", "--dir", str(tmp_path)]) == 0
    assert metrics.read_summary_json(tmp_path / "summary.json")["groups"][0]["n_runs"] == 2


def test_grid_q_failures_name_their_run_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(processes, "train_seed", lambda *args: 1 / 0)
    assert cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0") + ["--grid", "1,2"]) == 1
    failures = metrics.read_summary_json(tmp_path / "summary.json")["failures"]
    assert [f["run_dir"] for f in failures] == ["q1/prestopping/pair_0.3/seed0",
                                                "q2/prestopping/pair_0.3/seed0"]
    assert metrics.read_summary_json(tmp_path / "q2" / "summary.json")["failures"] == \
        [{"seed": 0, "error": "ZeroDivisionError: division by zero",
          "run_dir": "prestopping/pair_0.3/seed0"}]
    # a later sweep of q=1 alone succeeds and keeps only q=2's failure
    monkeypatch.undo()
    assert cli.main(["grid-q"] + tiny_flags(tmp_path, seeds="0") + ["--grid", "1"]) == 0
    assert [f["run_dir"] for f in metrics.read_summary_json(tmp_path / "summary.json")
            ["failures"]] == ["q2/prestopping/pair_0.3/seed0"]
    assert metrics.read_summary_json(tmp_path / "q1" / "summary.json")["failures"] == []


def test_summarize_names_unreadable_failures(tmp_path, capsys):
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0")) == 0
    for failures in ('5', '[{"seed": 0, "error": "x"}]', '[{"run_dir": 3, "error": "x"}]'):
        (tmp_path / "summary.json").write_text(f'{{"runs": [], "failures": {failures}}}')
        capsys.readouterr()
        assert cli.main(["summarize", "--dir", str(tmp_path)]) == 1
        assert f"cannot read {tmp_path / 'summary.json'}: failures must be" in \
            capsys.readouterr().err


def test_summarize_empty_dir_fails(tmp_path, capsys):
    rc = cli.main(["summarize", "--dir", str(tmp_path)])
    assert rc == 1
    assert "no run summaries" in capsys.readouterr().err


# ----- seed directories are written whole -----

def test_rerun_leaves_no_stale_files(tmp_path):
    seed_dir = tmp_path / "default" / "pair_0.3" / "seed0"
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0")) == 0
    assert list(seed_dir.glob("hist_*.csv"))
    # classes this far apart stay below 50% training accuracy: no histogram
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0",
                                         epochs=2, spread=20)) == 0
    assert not list(seed_dir.glob("hist_*.csv"))
    assert len(metrics.read_metrics_csv(seed_dir / "metrics.csv")) == 2
    assert [p.name for p in seed_dir.parent.iterdir()] == ["seed0"]


@pytest.mark.parametrize("old", ["symlink", "dangling symlink", "file"])
def test_rerun_replaces_a_seed_entry_that_is_no_directory(tmp_path, old):
    seed_dir = tmp_path / "out" / "default" / "pair_0.3" / "seed0"
    seed_dir.parent.mkdir(parents=True)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "kept.txt").write_text("not the run's\n")
    if old == "file":
        seed_dir.touch()
    else:
        seed_dir.symlink_to(elsewhere if old == "symlink" else tmp_path / "missing")
    assert cli.main(["run"] + tiny_flags(tmp_path / "out", method="default", seeds="0",
                                         epochs=2)) == 0
    assert seed_dir.is_dir() and not seed_dir.is_symlink()
    assert [p.name for p in seed_dir.parent.iterdir()] == ["seed0"]
    # the link was unlinked, not followed into its target
    assert [p.name for p in elsewhere.iterdir()] == ["kept.txt"]


def test_failed_write_leaves_no_partial_directory(tmp_path, monkeypatch, capsys):
    noise_dir = tmp_path / "default" / "pair_0.3"

    def broken(path):
        raise OSError(f"cannot write {path.name}")

    monkeypatch.setattr(metrics, "write_plots_gp", broken)  # after metrics.csv
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0")) == 1
    assert "OSError: cannot write plots.gp" in capsys.readouterr().err
    assert list(noise_dir.iterdir()) == []

    # a failed rerun leaves the earlier complete directory as it was
    monkeypatch.undo()
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0")) == 0
    before = {p.name: p.read_bytes() for p in (noise_dir / "seed0").iterdir()}
    monkeypatch.setattr(metrics, "write_plots_gp", broken)
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0",
                                         epochs=2)) == 1
    assert {p.name: p.read_bytes() for p in (noise_dir / "seed0").iterdir()} == before
    assert [p.name for p in noise_dir.iterdir()] == ["seed0"]


# ----- Phase II in a child process -----

def tiny_config(**kw):
    flags = tiny_flags("unused", **kw)
    return cli.build_config(None, {k[2:]: v for k, v in zip(flags[::2], flags[1::2])})


def serial_and_overlapped(cfg, seed):
    """[(PrestopResult or None, MetricsCollector)] of the serial run,
    engine.run_default or engine.run_prestopping, then of processes.train_seed;
    a default run's result is None."""
    train_ds, val_view, test_view = cli.build_dataset(cfg, seed)
    view = train_ds.train_view()
    net = cfg.net_spec(view.features.shape[1], view.n_classes)
    serial = metrics.MetricsCollector(train_ds, test_view)
    if cfg.method == "default":
        engine.run_default(view, net, cfg.optimizer(), cfg.q, seed, observer=serial)
        result = None
    else:
        heur = engine.StopHeuristic(cfg.heuristic, tau=cfg.tau, validation=val_view)
        result = engine.run_prestopping(view, heur, net, cfg.optimizer(), cfg.q, seed, serial)
    overlapped = metrics.MetricsCollector(train_ds, test_view)
    o_result, plus = processes.train_seed(cfg, seed, train_ds, val_view, overlapped)
    assert plus is None
    return [(result, serial), (o_result, overlapped)]


def phase2_children() -> list:
    return [p for p in multiprocessing.active_children() if p.name.startswith("Phase II")]


def run_bytes(result, collector, work) -> dict:
    """Every output of one run, as bytes or exact values; work is a new directory.
    result is None for a default run, which has only its rows and histogram."""
    work.mkdir()
    metrics.write_metrics_csv(collector.rows, work / "metrics.csv")
    if result is not None:
        nn.save_network(result.checkpoint.state, work / "ckpt.pstp")
        result.checkpoint.histories.save(work / "ckpt.psth")
        nn.save_network(result.final_state, work / "final.pstp")
    out = {p.name: p.read_bytes() for p in work.iterdir()}
    hist = collector.histogram
    out["histogram"] = hist.epoch, hist.edges.tobytes(), hist.clean_counts.tobytes(), \
        hist.noisy_counts.tobytes()
    if result is None:
        return out
    out["checkpoint"] = result.checkpoint.epoch, result.checkpoint.trigger_value
    out["safe_set"] = result.safe_set.tobytes()
    h = result.histories
    out["histories"] = h.q, h._buf.tobytes(), h._recorded.tobytes()
    return out


@pytest.mark.parametrize("histogram_phase", ["phase1", "phase2"])
def test_overlapped_run_is_byte_identical_to_serial(tmp_path, monkeypatch, histogram_phase):
    restarts, start = [], processes._ForkedChild.start

    def counted(self, body, *args, **kwargs):
        if body is processes._phase2_body:
            restarts.append(args[0].epoch)
        start(self, body, *args, **kwargs)

    monkeypatch.setattr(processes._ForkedChild, "start", counted)
    if histogram_phase == "phase2":
        observe = metrics.MetricsCollector.__call__

        def phase2_histogram(self, ctx):
            observe(self, ctx)
            if ctx.phase == "phase1":
                self.histogram = None  # no capture in Phase I: the child's is adopted

        monkeypatch.setattr(metrics.MetricsCollector, "__call__", phase2_histogram)
    (serial, s_col), (overlapped, o_col) = serial_and_overlapped(tiny_config(epochs=8), 0)
    assert len(restarts) >= 2  # at least one child was killed and replaced
    assert restarts[-1] == serial.checkpoint.epoch
    capture = next(r for r in s_col.rows if r.phase == histogram_phase and r.train_error < 0.5)
    assert s_col.histogram.epoch == capture.epoch
    assert run_bytes(overlapped, o_col, tmp_path / "o") == \
        run_bytes(serial, s_col, tmp_path / "s")


def test_scored_default_run_is_byte_identical_to_serial(tmp_path):
    (serial, s_col), (scored, o_col) = serial_and_overlapped(
        tiny_config(method="default", epochs=8), 0)
    assert serial is None and scored is None
    assert len(s_col.rows) == 8 and s_col.histogram is not None
    assert run_bytes(scored, o_col, tmp_path / "o") == run_bytes(serial, s_col, tmp_path / "s")


def failed_seed(tmp_path, capsys, method="prestopping") -> str:
    """Run one tiny seed of method that must fail; returns its error text."""
    assert cli.main(["run"] + tiny_flags(tmp_path, seeds="0", method=method)) == 1
    error = metrics.read_summary_json(tmp_path / "summary.json")["failures"][0]["error"]
    assert f"seed 0 failed: {error}" in capsys.readouterr().err
    assert not (tmp_path / method / "pair_0.3" / "seed0").exists()
    return error


def test_phase2_error_fails_the_seed_as_in_a_serial_run(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("phase two broke")

    monkeypatch.setattr(engine, "phase2_train", broken)
    assert failed_seed(tmp_path, capsys) == "ValueError: phase two broke"


def test_phase2_process_death_names_seed_and_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(engine, "phase2_train", lambda *args, **kwargs: os._exit(3))
    assert failed_seed(tmp_path, capsys) == \
        "RuntimeError: seed 0: Phase II process exited with code 3 without a result"


def test_phase1_error_kills_the_running_phase2(tmp_path, monkeypatch, capsys):
    phase1 = engine.phase1_train

    def failing_after_checkpoint(*args, on_checkpoint, **kwargs):
        taken = []

        def restart_then_fail(ckpt):
            on_checkpoint(ckpt)
            taken.append(ckpt)
            assert len(phase2_children()) == 1  # the old child is gone
            if len(taken) == 2:
                raise RuntimeError("phase one broke")
        return phase1(*args, on_checkpoint=restart_then_fail, **kwargs)

    monkeypatch.setattr(engine, "phase1_train", failing_after_checkpoint)
    monkeypatch.setattr(engine, "phase2_train", lambda *args, **kwargs: time.sleep(60))
    t0 = time.perf_counter()
    assert failed_seed(tmp_path, capsys) == "RuntimeError: phase one broke"
    assert time.perf_counter() - t0 < 30  # killed, not waited for


def test_phase2_warnings_reach_the_parent(monkeypatch):
    phase2, snapshot, parent = engine.phase2_train, metrics.snapshot_epoch, os.getpid()

    def warning_phase2(*args, **kwargs):
        if os.getpid() != parent:
            warnings.warn("from the Phase II process", RuntimeWarning)
        return phase2(*args, **kwargs)

    def warning_snapshot(ctx, *args):  # Phase II scores after its handover
        if ctx.phase == "phase2" and ctx.epoch == 5 and os.getpid() != parent:
            warnings.warn("from Phase II's scoring", RuntimeWarning)
        return snapshot(ctx, *args)

    monkeypatch.setattr(engine, "phase2_train", warning_phase2)
    monkeypatch.setattr(metrics, "snapshot_epoch", warning_snapshot)
    with pytest.warns(RuntimeWarning) as caught:
        serial_and_overlapped(tiny_config(), 0)
    assert [str(w.message) for w in caught] == ["from the Phase II process",
                                                "from Phase II's scoring"]


@pytest.mark.parametrize("failure", ["raise", "exit"])
def test_phase2_failure_after_the_handover_fails_the_seed(tmp_path, monkeypatch, capsys,
                                                          failure):
    scored, retrain, retrained = processes._scored, refurbish.run_prestopping_plus, []

    def failing_phase2_scoring(collector, net_spec, epochs):
        def checked():  # only the Phase II child scores phase2 epochs, after its handover
            for epoch in epochs:
                if epoch[0] == "phase2":
                    if failure == "exit":
                        os._exit(3)
                    raise ValueError("Phase II scoring broke")
                yield epoch
        return scored(collector, net_spec, checked())

    def counted_retrain(*args, **kwargs):
        retrained.append(None)
        return retrain(*args, **kwargs)

    monkeypatch.setattr(processes, "_scored", failing_phase2_scoring)
    monkeypatch.setattr(refurbish, "run_prestopping_plus", counted_retrain)
    expected = {"raise": "ValueError: Phase II scoring broke",
                "exit": "RuntimeError: seed 0: Phase II process exited with code 3 "
                        "without a result"}
    assert failed_seed(tmp_path, capsys, "prestopping_plus") == expected[failure]
    assert retrained == [None]  # the handover came first


# ----- an invocation's processes end with it -----

def session_members(sid) -> list:
    """PIDs of the live processes in session sid (zombies are not live)."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _, _, session = fh.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):  # gone meanwhile, or not a process entry
            continue
        if int(session) == sid and state != "Z":
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
@pytest.mark.parametrize("seeds", ["5", "5,6"])
def test_killed_cli_takes_its_processes_along(tmp_path, sig, seeds):
    # the CLI runs in a session of its own, so the session holds exactly the
    # processes it started, even those it forks after the last look
    n_seeds = len(seeds.split(","))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    # each seed's children: a scorer, and a Prestopping seed's Phase II child
    for method, children in [("default", 1), ("prestopping_plus", 2)]:
        flags = tiny_flags(tmp_path / method, method=method, seeds=seeds, jobs=n_seeds,
                           epochs=20000)
        proc = subprocess.Popen([sys.executable, "-m", "prestopping.cli", "run", *flags],
                                env=env, start_new_session=True, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            # the CLI, a seed process per seed when there are two, and each seed's children
            started = 1 + (n_seeds if n_seeds > 1 else 0) + children * n_seeds
            deadline = time.monotonic() + 60
            while len(session_members(proc.pid)) < started:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            os.kill(proc.pid, sig)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while left := session_members(proc.pid):
                assert time.monotonic() < deadline, f"still running: {left}"
                time.sleep(0.05)
            assert not any(tmp_path.rglob("*seed*"))
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


# ----- the Prestopping+ retrain scored in a child process -----

def plus_bytes(plus, collector, work) -> dict:
    """Every output of one Prestopping+ seed, as bytes or exact values; work is a new directory."""
    work.mkdir()
    metrics.write_metrics_csv(collector.rows, work / "metrics.csv")
    nn.save_network(plus.final_state, work / "final.pstp")
    plus.histories.save(work / "final.psth")
    out = {p.name: p.read_bytes() for p in work.iterdir()}
    hist = collector.histogram
    out["histogram"] = hist.epoch, hist.edges.tobytes(), hist.clean_counts.tobytes(), \
        hist.noisy_counts.tobytes()
    refurb = plus.refurbished
    out["refurbished"] = refurb.labels.tobytes(), refurb.entropy.tobytes(), \
        refurb.mask.tobytes()
    return out


PHASES = ("phase1", "phase2", "plus")


@pytest.mark.parametrize("histogram_phase", PHASES)
def test_scored_retrain_is_byte_identical_to_serial(tmp_path, monkeypatch, histogram_phase):
    observe = metrics.MetricsCollector.__call__

    def late_histogram(self, ctx):
        observe(self, ctx)
        if PHASES.index(ctx.phase) < PHASES.index(histogram_phase):
            self.histogram = None  # no capture before histogram_phase

    monkeypatch.setattr(metrics.MetricsCollector, "__call__", late_histogram)
    cfg = tiny_config(method="prestopping_plus", epochs=8)
    train_ds, val_view, test_view = cli.build_dataset(cfg, 0)
    view = train_ds.train_view()
    net = cfg.net_spec(view.features.shape[1], view.n_classes)
    heur = engine.StopHeuristic(cfg.heuristic, tau=cfg.tau, validation=val_view)
    serial = metrics.MetricsCollector(train_ds, test_view)
    result = engine.run_prestopping(view, heur, net, cfg.optimizer(), cfg.q, 0, serial)
    plus = refurbish.run_prestopping_plus(view, result.safe_set, net, cfg.optimizer(), cfg.q,
                                          cfg.epsilon, 0, observer=serial)
    scored = metrics.MetricsCollector(train_ds, test_view)
    scored_result, scored_plus = processes.train_seed(cfg, 0, train_ds, val_view, scored)
    capture = next(r for r in serial.rows if r.phase == histogram_phase and r.train_error < 0.5)
    assert serial.histogram.epoch == capture.epoch
    assert [r.phase for r in serial.rows].count("plus") == cfg.epochs
    # the Phase II process also captures one in the retrain, which the merge must drop
    assert any(r.phase == "plus" and r.train_error < 0.5 for r in serial.rows)
    assert scored_result.checkpoint.epoch == result.checkpoint.epoch
    assert scored_result.safe_set.tobytes() == result.safe_set.tobytes()
    assert plus_bytes(scored_plus, scored, tmp_path / "c") == \
        plus_bytes(plus, serial, tmp_path / "s")


def test_noise_rate_run_is_byte_identical_to_serial(tmp_path):
    # the stop rule reads the train error in this process; the scorer evaluates it again
    cfg = tiny_config(method="prestopping_plus", heuristic="noise_rate", tau=0.3,
                      epochs=12, spread=0.2)
    train_ds, val_view, test_view = cli.build_dataset(cfg, 0)
    view = train_ds.train_view()
    net = cfg.net_spec(view.features.shape[1], view.n_classes)
    heur = engine.StopHeuristic("noise_rate", tau=cfg.tau)
    serial = metrics.MetricsCollector(train_ds, test_view)
    result = engine.run_prestopping(view, heur, net, cfg.optimizer(), cfg.q, 0, serial)
    plus = refurbish.run_prestopping_plus(view, result.safe_set, net, cfg.optimizer(), cfg.q,
                                          cfg.epsilon, 0, observer=serial)
    scored = metrics.MetricsCollector(train_ds, test_view)
    scored_result, scored_plus = processes.train_seed(cfg, 0, train_ds, val_view, scored)
    assert scored_result.checkpoint.epoch == result.checkpoint.epoch < cfg.epochs
    assert plus_bytes(scored_plus, scored, tmp_path / "c") == \
        plus_bytes(plus, serial, tmp_path / "s")


def test_parent_makes_no_evaluation_during_the_retrain(tmp_path, monkeypatch):
    # nor any other evaluation than the validation set's, which the stop rule reads
    parent, retraining, calls = os.getpid(), [False], []
    evaluate, losses = nn.evaluate_error, nn.per_sample_losses
    retrain = refurbish.run_prestopping_plus

    def counted(evaluation):
        def wrapper(features, *args, **kwargs):
            if os.getpid() == parent:
                calls.append((retraining[0], len(features)))
            return evaluation(features, *args, **kwargs)
        return wrapper

    def flagged_retrain(*args, **kwargs):
        retraining[0] = True
        try:
            return retrain(*args, **kwargs)
        finally:
            retraining[0] = False

    monkeypatch.setattr(nn, "evaluate_error", counted(evaluate))
    monkeypatch.setattr(nn, "per_sample_losses", counted(losses))
    monkeypatch.setattr(refurbish, "run_prestopping_plus", flagged_retrain)
    # 30 validation, 40 test and 80 training samples: the row counts tell them apart
    assert cli.main(["run"] + tiny_flags(tmp_path, method="prestopping_plus", seeds="0",
                                         test_size=40)) == 0
    rows = metrics.read_metrics_csv(
        tmp_path / "prestopping_plus" / "pair_0.3" / "seed0" / "metrics.csv")
    assert [r.phase for r in rows].count("plus") == 5  # scored, by the child
    assert {r.phase for r in rows} == set(PHASES)
    assert calls == [(False, 30)] * 5  # one per Phase I epoch


@pytest.mark.parametrize("method", sorted(METHOD_ARTIFACTS))
def test_no_method_scores_in_the_training_process(tmp_path, monkeypatch, method):
    # the training process evaluates only the validation set, which the stop rule reads
    parent, calls = os.getpid(), []
    snapshot, histogram, evaluate = metrics.snapshot_epoch, metrics.loss_histogram, \
        nn.evaluate_error

    def counted(name, call):
        def wrapper(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(name if name != "evaluate_error" else (name, len(args[0])))
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "snapshot_epoch", counted("snapshot_epoch", snapshot))
    monkeypatch.setattr(metrics, "loss_histogram", counted("loss_histogram", histogram))
    monkeypatch.setattr(nn, "evaluate_error", counted("evaluate_error", evaluate))
    # 30 validation, 40 test and 80 training samples: the row counts tell them apart
    assert cli.main(["run"] + tiny_flags(tmp_path, method=method, seeds="0",
                                         test_size=40)) == 0
    run_dir = tmp_path / method / "pair_0.3" / "seed0"
    assert len(metrics.read_metrics_csv(run_dir / "metrics.csv")) >= 5  # scored, by children
    assert any(run_dir.glob("hist_*.csv"))
    validation_passes = [] if method == "default" else [("evaluate_error", 30)] * 5
    assert calls == validation_passes  # one per Phase I epoch


def test_each_child_is_sent_one_stretch_of_epochs(tmp_path, monkeypatch):
    sent, send = [], processes._ForkedChild.send

    def recorded(self, message):
        sent.append((self.what, message[0]))
        send(self, message)

    monkeypatch.setattr(processes._ForkedChild, "send", recorded)
    assert cli.main(["run"] + tiny_flags(tmp_path, method="prestopping_plus", seeds="0")) == 0
    # Phase II's own epochs never cross: its process keeps them
    assert sent == [("scorer process", "phase1")] * 5 + [("Phase II process", "plus")] * 5


def test_the_scorer_is_done_with_before_the_retrain(tmp_path, monkeypatch):
    children, start = {}, processes._ForkedChild.start
    retrain, seen = refurbish.run_prestopping_plus, []

    def recorded(self, body, *args):
        children[self.what] = self
        start(self, body, *args)

    def checked(*args, **kw):
        scorer = children["scorer process"]
        # nothing reaches the scorer after Phase I: it scores its backlog and sends its result
        seen.append((scorer._inbox is None, scorer._conn.poll(30)))
        return retrain(*args, **kw)

    monkeypatch.setattr(processes._ForkedChild, "start", recorded)
    monkeypatch.setattr(refurbish, "run_prestopping_plus", checked)
    assert cli.main(["run"] + tiny_flags(tmp_path, method="prestopping_plus", seeds="0")) == 0
    assert seen == [(True, True)]


def test_scorer_death_names_seed_and_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(processes, "_score_epochs", lambda *args: os._exit(3))
    for method in ("default", "prestopping_plus"):
        assert failed_seed(tmp_path / method, capsys, method) == \
            "RuntimeError: seed 0: scorer process exited with code 3 without a result"


def test_send_to_a_dead_child_names_seed_and_exit_code():
    child = processes._ForkedChild(0, "scorer process")
    child.start(lambda hand_over, inbox: os._exit(3))
    while multiprocessing.active_children():
        time.sleep(0.01)
    with pytest.raises(RuntimeError) as err:
        child.send(np.zeros(100_000))  # more than a pipe buffer holds
    assert str(err.value) == "seed 0: scorer process exited with code 3 without a result"
    child.stop()


def test_sends_do_not_wait_for_a_busy_child():
    child = processes._ForkedChild(0, "scorer process")
    child.start(lambda hand_over, inbox: time.sleep(60))
    t0 = time.perf_counter()
    for _ in range(64):  # about 5.6 MB, past the 1 MiB a pipe holds at most
        child.send(np.zeros(11_000))  # about one desk-scale parameter vector
    assert time.perf_counter() - t0 < 10  # spooled, not read: the child never reads
    child.stop()


def test_a_child_reading_late_gets_every_message_intact_and_in_order():
    messages = [(i, np.random.default_rng(i).random(11_000)) for i in range(64)]
    go_read, go_write = os.pipe()

    def body(hand_over, inbox):
        # wait until the parent has sent every message; a parent still blocked
        # in send after 30 s finds this child gone
        if not select.select([go_read], [], [], 30)[0]:
            return "never told to read"
        return [(i, np.array_equal(values, messages[i][1])) for i, values in inbox]

    child = processes._ForkedChild(0, "scorer process")
    try:
        child.start(body)
        for message in messages:
            child.send(message)
        os.write(go_write, b"x")
        assert child.result() == [(i, True) for i in range(64)]
    finally:
        child.stop()
        os.close(go_read)
        os.close(go_write)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
def test_a_second_child_holds_no_descriptor_on_the_first_childs_spool():
    def files_held(hand_over, inbox):
        held = set()
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):  # the directory listing's own descriptor
                stat = os.fstat(int(fd))
                held.add((stat.st_dev, stat.st_ino))
        return held

    first = processes._ForkedChild(0, "scorer process")
    second = processes._ForkedChild(0, "Phase II process")
    try:
        first.start(lambda hand_over, inbox: time.sleep(60))
        second.start(files_held)
        spools = [os.fstat(child._spool.fileno()) for child in (first, second)]
        held = second.result()
        assert [(s.st_dev, s.st_ino) in held for s in spools] == [False, True]
    finally:
        first.stop()
        second.stop()


@pytest.mark.parametrize("hand_over_first", [False, True], ids=["raise", "hand-over-then-raise"])
def test_an_exception_that_cannot_be_pickled_arrives_as_its_text(hand_over_first):
    class Local(Exception):  # a local class and a lambda: neither pickles
        pass

    def body(hand_over, inbox):
        if hand_over_first:
            hand_over("handed over")
        exc = Local("held a lambda")
        exc.callback = lambda: None
        raise exc

    child = processes._ForkedChild(0, "scorer process")
    child.start(body)
    try:
        if hand_over_first:
            assert child.handover() == "handed over"
        with pytest.raises(RuntimeError) as err:
            child.result()
        assert type(err.value) is RuntimeError and str(err.value) == "Local: held a lambda"
    finally:
        child.stop()


def test_processes_does_not_import_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(processes.__file__).parents[1]))
    code = "import sys, prestopping.processes; sys.exit('prestopping.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_does_not_import_concurrent_futures():
    # every process the CLI starts is a _ForkedChild: no executor is loaded; and
    # load_config_file reads a config file's lines itself: no configparser either
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, prestopping.cli; "
            "sys.exit(any(m in sys.modules for m in ('concurrent.futures', 'configparser')))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_scorer_error_fails_the_seed_as_in_a_serial_run(tmp_path, monkeypatch, capsys):
    snapshot = metrics.snapshot_epoch

    def failing_in(phase):
        def snapshot_or_fail(ctx, *args):
            if ctx.phase == phase:
                raise ValueError("scoring broke")
            return snapshot(ctx, *args)
        return snapshot_or_fail

    # a default seed's scorer, and the retrain's, scored in the Phase II process
    for method, phase in [("default", "phase1"), ("prestopping_plus", "plus")]:
        monkeypatch.setattr(metrics, "snapshot_epoch", failing_in(phase))
        assert failed_seed(tmp_path / method, capsys, method) == "ValueError: scoring broke"


def test_retrain_error_kills_the_scorer(tmp_path, monkeypatch, capsys):
    candidates, calls = refurbish.refurbish_candidates, []

    def failing_at_epoch_three(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("retrain broke")
        return candidates(*args, **kwargs)

    monkeypatch.setattr(refurbish, "refurbish_candidates", failing_at_epoch_three)
    monkeypatch.setattr(processes, "_score_epochs", lambda *args: time.sleep(60))
    t0 = time.perf_counter()
    assert failed_seed(tmp_path, capsys, "prestopping_plus") == "ValueError: retrain broke"
    assert time.perf_counter() - t0 < 30  # killed, not waited for


# ----- BLAS threads -----

def test_openblas_is_looked_up_once_per_process(tmp_path, monkeypatch):
    loads, globs, load, glob = [], [], processes.ctypes.CDLL, processes.Path.glob

    def counted_load(*args, **kwargs):
        loads.append(args[0])
        return load(*args, **kwargs)

    def counted_glob(self, pattern):
        globs.append(pattern)
        return glob(self, pattern)

    monkeypatch.setattr(processes.ctypes, "CDLL", counted_load)
    monkeypatch.setattr(processes.Path, "glob", counted_glob)
    processes._openblas_threads.cache_clear()
    threads = processes._openblas_threads()
    after_first = len(loads), len(globs)
    assert after_first[1] == 1 and after_first[0] == (threads is not None)
    assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0,1",
                                         epochs=2)) == 0
    assert (len(loads), len(globs)) == after_first  # neither seed looked it up again
    assert processes._openblas_threads() is threads


@pytest.mark.skipif(processes._openblas_threads() is None, reason="NumPy's BLAS is not OpenBLAS")
def test_training_runs_on_one_blas_thread(tmp_path, monkeypatch):
    get, put = processes._openblas_threads()
    before, seen, run_default = get(), [], engine.run_default

    def reading_threads(*args, **kwargs):
        seen.append(get())
        return run_default(*args, **kwargs)

    monkeypatch.setattr(engine, "run_default", reading_threads)
    put(2)
    try:
        outside = get()
        assert cli.main(["run"] + tiny_flags(tmp_path, method="default", seeds="0",
                                             epochs=2)) == 0
        assert seen == [1] and get() == outside  # restored afterwards
    finally:
        put(before)
