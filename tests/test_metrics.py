"""Instrumentation: epoch snapshots, loss histograms, summaries, file round-trips."""

import dataclasses
import math

import numpy as np
import pytest

from prestopping import data, engine, memorization as mem, metrics, nn, rng


def scored_problem(tau=0.3, seed=3, n_per=40):
    ds = data.synth_gaussian(3, n_per, 4, spread=0.4, seed=seed)
    full = data.inject_noise(ds, data.build_symmetric_matrix(3, tau), seed=seed + 1)
    train, _, test = data.split(full, data.SplitSpec(0, 30, seed=seed + 2))
    return train, test


# ----- epoch snapshots -----

def test_snapshot_counts_add_up():
    train, test = scored_problem()
    hist = mem.PredictionHistory(train.n, 3, 3)
    g = rng.stream(5, "votes")
    hist.record_batch(np.arange(train.n), g.integers(0, 3, size=train.n))
    state = nn.init_state(nn.NetworkSpec((4, 6, 3)), rng.stream(1, "init"))
    mask = hist.memorized_mask(train.noisy_labels)
    ctx = engine.EpochContext("phase1", 4, state, hist, mask.copy(), 0.1)
    row = metrics.snapshot_epoch(ctx, train, test)
    assert row.train_error == nn.evaluate_error(train.features, train.noisy_labels, state)
    clean = train.noisy_labels == train.true_labels
    assert row.safe_set_size == mask.sum()
    assert row.memorized_true_count == np.count_nonzero(mask & clean)
    assert row.memorized_false_count == np.count_nonzero(mask & ~clean)
    assert row.memorized_true_count + row.memorized_false_count == row.safe_set_size
    want_mp, want_mr = mem.mp_mr(mask, train.noisy_labels, train.true_labels)
    assert row.mp == want_mp and row.mr == want_mr
    assert row.safe_set_precision == want_mp
    assert row.epoch == 4 and row.phase == "phase1" and row.lr == 0.1
    assert row.validation_error is None


def test_collector_tracks_epochs_and_histogram_trigger():
    train, test = scored_problem()
    collector = metrics.MetricsCollector(train, test)
    cfg = nn.OptimizerConfig(base_lr=0.1, batch_size=32, total_epochs=6)
    engine.run_default(train.train_view(), nn.NetworkSpec((4, 8, 3)), cfg,
                       q=3, seed=9, observer=collector)
    assert len(collector.rows) == 6
    assert collector.best_test_error == min(r.test_error for r in collector.rows)
    crossing = [r.epoch for r in collector.rows if r.train_error < 0.5]
    if crossing:
        assert collector.histogram is not None
        assert collector.histogram.epoch == crossing[0]
    else:
        assert collector.histogram is None


# ----- loss histogram -----

def test_histogram_bins_and_group_sizes():
    train, _ = scored_problem()
    state = nn.init_state(nn.NetworkSpec((4, 8, 3)), rng.stream(2, "init"))
    hist = metrics.loss_histogram(train, state, epoch=1)
    assert len(hist.edges) == 51
    assert hist.edges[0] == pytest.approx(1e-6)
    assert hist.edges[-1] == pytest.approx(20.0)
    ratios = hist.edges[1:] / hist.edges[:-1]
    assert np.allclose(ratios, ratios[0])  # log spacing
    clean = np.count_nonzero(train.noisy_labels == train.true_labels)
    assert hist.clean_counts.sum() == clean
    assert hist.noisy_counts.sum() == train.n - clean
    assert hist.clean_density.sum() == pytest.approx(1.0)
    assert hist.noisy_density.sum() == pytest.approx(1.0)


def test_histogram_clips_extreme_losses():
    train, _ = scored_problem()
    state = nn.init_state(nn.NetworkSpec((4, 8, 3)), rng.stream(2, "init"))
    for w in state.weights:  # push losses far beyond the top edge
        w *= 50.0
    hist = metrics.loss_histogram(train, state, epoch=1)
    assert hist.clean_counts.sum() + hist.noisy_counts.sum() == train.n


def test_histogram_noise_free_group_is_empty():
    ds = data.synth_gaussian(3, 30, 4, spread=0.4, seed=8)
    state = nn.init_state(nn.NetworkSpec((4, 8, 3)), rng.stream(2, "init"))
    hist = metrics.loss_histogram(ds, state, epoch=1)
    assert hist.noisy_counts.sum() == 0
    assert np.all(hist.noisy_density == 0.0)


def test_clean_losses_sit_below_noisy_losses_early():
    # after a few epochs on blob data, mislabeled samples keep higher loss
    train, test = scored_problem(tau=0.3, seed=12, n_per=80)
    cfg = nn.OptimizerConfig(base_lr=0.1, batch_size=32, total_epochs=5)
    state, _ = engine.run_default(train.train_view(), nn.NetworkSpec((4, 16, 3)),
                                  cfg, q=3, seed=12)
    losses = nn.per_sample_losses(train.features, train.noisy_labels, state)
    clean = train.noisy_labels == train.true_labels
    assert losses[clean].mean() < losses[~clean].mean()


# ----- CSV round trips -----

def make_rows():
    return [
        metrics.EpochMetrics(1, 0.5, 0.4, 0.45, 1.0, 0.0, 0, 0, 0, 1.0, 0.1, "phase1"),
        metrics.EpochMetrics(2, 1 / 3, None, 0.2812500000000001, 0.9, 0.8,
                             120, 108, 12, 0.9, 0.02, "phase2"),
    ]


def test_metrics_csv_round_trip(tmp_path):
    rows = make_rows()
    path = tmp_path / "metrics.csv"
    metrics.write_metrics_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ("epoch,train_error,validation_error,test_error,mp,mr,"
                      "safe_set_size,memorized_true_count,memorized_false_count,"
                      "safe_set_precision,lr,phase")
    back = metrics.read_metrics_csv(path)
    assert back == rows  # exact, including the float that needs 17 digits


def test_metrics_csv_write_is_deterministic(tmp_path):
    rows = make_rows()
    metrics.write_metrics_csv(rows, tmp_path / "a.csv")
    metrics.write_metrics_csv(rows, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_metrics_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(ValueError):
        metrics.read_metrics_csv(path)


def test_metrics_csv_bad_cell_names_file_line_and_column(tmp_path):
    path = tmp_path / "metrics.csv"
    metrics.write_metrics_csv(make_rows(), path)
    header, first, second = path.read_text().splitlines()
    for lines, where in [([header, first, "x" + second[1:]], "line 3: epoch:"),
                         ([header, first.replace(",0.45,", ",,"), second],
                          "line 2: test_error:")]:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            metrics.read_metrics_csv(path)
        assert str(info.value).startswith(f"{path}: {where} "), str(info.value)


def test_field_table_fails_on_an_annotation_it_cannot_map():
    @dataclasses.dataclass
    class Row:
        n: int
        tags: list

    assert metrics.field_table(Row, {int: int, list: list}) == {"n": int, "tags": list}
    with pytest.raises(KeyError):
        metrics.field_table(Row, {int: int})


def test_histogram_csv(tmp_path):
    train, _ = scored_problem()
    state = nn.init_state(nn.NetworkSpec((4, 8, 3)), rng.stream(2, "init"))
    hist = metrics.loss_histogram(train, state, epoch=3)
    path = tmp_path / "hist_3.csv"
    metrics.write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,clean_density,noisy_density"
    assert len(lines) == 51  # header + 50 bins


# ----- summaries -----

def run_summaries():
    return [
        metrics.RunSummary("prestopping", "validation", "pair", 0.4, 10, s,
                           err, 20, 1.0)
        for s, err in zip([0, 1, 2], [0.1, 0.2, 0.3])
    ] + [metrics.RunSummary("default", None, "pair", 0.4, 10, 0, 0.25, None, 1.0)]


def test_summarize_groups_and_se():
    out = metrics.summarize(run_summaries())
    assert len(out["runs"]) == 4
    assert len(out["groups"]) == 2
    by_method = {g["method"]: g for g in out["groups"]}
    g = by_method["prestopping"]
    assert g["n_runs"] == 3
    assert g["mean_best_test_error"] == pytest.approx(0.2)
    assert g["se_best_test_error"] == pytest.approx(0.1 / math.sqrt(3))
    assert {"method", "heuristic", "noise", "tau", "q"} <= set(g)
    solo = by_method["default"]
    assert solo["n_runs"] == 1 and solo["se_best_test_error"] == 0.0


def test_summary_json_round_trip(tmp_path):
    out = metrics.summarize(run_summaries())
    path = tmp_path / "summary.json"
    metrics.write_summary_json(out, path)
    back = metrics.read_summary_json(path)
    assert back == out
    runs = [metrics.RunSummary.from_dict(d) for d in back["runs"]]
    assert runs[0].stop_epoch == 20 and runs[-1].stop_epoch is None


def test_summary_json_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "summary.json"
    metrics.write_summary_json({"runs": []}, path)
    before = path.read_bytes()

    def dies_mid_write(obj, fh, **kwargs):
        fh.write('{"runs": [')
        raise KeyboardInterrupt

    monkeypatch.setattr(metrics.json, "dump", dies_mid_write)
    with pytest.raises(KeyboardInterrupt):
        metrics.write_summary_json(metrics.summarize(run_summaries()), path)
    assert path.read_bytes() == before  # the old file survives whole
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]  # no temp left
    monkeypatch.undo()
    metrics.write_summary_json({"runs": [1]}, path)
    assert metrics.read_summary_json(path) == {"runs": [1]}
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
    # the same writer puts grid_q.csv down whole
    csv_path = tmp_path / "grid_q.csv"
    metrics.write_atomic(csv_path, lambda fh: fh.write("q,n_runs\n3,2\n"))

    def dies_mid_row(fh):
        fh.write("q,n_runs\n1")
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        metrics.write_atomic(csv_path, dies_mid_row)
    assert csv_path.read_text() == "q,n_runs\n3,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid_q.csv", "summary.json"]


def test_plots_script_mentions_metrics(tmp_path):
    metrics.write_plots_gp(tmp_path / "plots.gp")
    text = (tmp_path / "plots.gp").read_text()
    assert "metrics.csv" in text and "MP" in text
