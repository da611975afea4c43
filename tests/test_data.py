"""Dataset synthesis, label-noise injection, splitting, CSV round-trips."""

import re

import numpy as np
import pytest
from scipy import stats

from helpers import write_csv
from prestopping import data, engine, memorization, nn, refurbish, rng


def make_ds(n=40, d=3, k=4, seed=0):
    return data.synth_gaussian(k, n // k, d, spread=0.5, seed=seed)


# ----- synthesis -----

def test_synth_shapes_and_counts():
    ds = data.synth_gaussian(4, 25, 16, spread=0.3, seed=7)
    assert ds.features.shape == (100, 16)
    assert ds.is_noise_free
    assert np.array_equal(np.bincount(ds.true_labels), [25, 25, 25, 25])
    again = data.synth_gaussian(4, 25, 16, spread=0.3, seed=7)
    assert np.array_equal(ds.features, again.features)


def test_synth_spread_zero_is_linearly_separable():
    # two point clusters: every sample sits exactly on its unit-norm center,
    # and a bias-free softmax regression drives training error to 0
    ds = data.synth_gaussian(2, 30, 8, spread=0.0, seed=3)
    for c in range(2):
        block = ds.features[ds.true_labels == c]
        assert np.all(block == block[0])
        assert np.linalg.norm(block[0]) == pytest.approx(1.0, abs=1e-12)
    state = nn.init_state(nn.NetworkSpec((8, 2)), rng.stream(0, "init"))
    cfg = nn.OptimizerConfig(base_lr=0.5, momentum=0.0, total_epochs=100)
    for _ in range(50):
        _, grads, _, _ = nn.loss_grad_probs(ds.features, ds.true_labels, state)
        nn.sgd_step(state, grads, cfg, epoch=1)
    assert nn.evaluate_error(ds.features, ds.true_labels, state) == 0.0


def test_synth_rejects_bad_params():
    with pytest.raises(ValueError):
        data.synth_gaussian(1, 10, 4, 0.1, 0)
    with pytest.raises(ValueError):
        data.synth_gaussian(3, 10, 4, -0.1, 0)
    for spread in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="spread"):
            data.synth_gaussian(3, 10, 4, spread, 0)


# ----- transition matrices -----

def test_symmetric_matrix_entries():
    # k=4, tau=0.4: diagonal 0.6, every off-diagonal 0.4/3
    m = data.build_symmetric_matrix(4, 0.4).entries
    assert np.allclose(np.diag(m), 0.6, atol=1e-15)
    off = m[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.4 / 3, atol=1e-15)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_pair_matrix_entries():
    m = data.build_pair_matrix(4, 0.4).entries
    for i in range(4):
        assert m[i, i] == pytest.approx(0.6)
        assert m[i, (i + 1) % 4] == pytest.approx(0.4)
    assert m.sum() == pytest.approx(4.0)
    # wraparound row: last class flips to class 0
    assert m[3, 0] == pytest.approx(0.4)


def test_matrix_validation():
    with pytest.raises(ValueError, match=r"must be square, got \(2, 3\)"):
        data.TransitionMatrix(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError):
        data.TransitionMatrix(np.array([[0.5, 0.4], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        data.TransitionMatrix(np.array([[1.5, -0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        data.build_symmetric_matrix(4, 1.0)


# ----- injection -----

def test_identity_matrix_keeps_labels():
    ds = make_ds()
    out = data.inject_noise(ds, data.TransitionMatrix(np.eye(4)), seed=5)
    assert np.array_equal(out.noisy_labels, ds.true_labels)


def test_inject_refuses_double_noise():
    ds = make_ds()
    noisy = data.inject_noise(ds, data.build_symmetric_matrix(4, 0.4), seed=5)
    assert not noisy.is_noise_free
    with pytest.raises(ValueError):
        data.inject_noise(noisy, data.build_symmetric_matrix(4, 0.4), seed=6)


def test_inject_rejects_class_mismatch():
    ds = make_ds(k=4)
    with pytest.raises(ValueError):
        data.inject_noise(ds, data.build_symmetric_matrix(3, 0.4), seed=5)


def test_symmetric_noise_fidelity():
    # N=10,000, tau=0.4: flip fraction within 3 binomial sigmas; flipped
    # destinations uniform over the other classes (chi-squared p > 0.001)
    k, tau, n = 10, 0.4, 10000
    ds = data.synth_gaussian(k, n // k, 4, spread=0.5, seed=11)
    out = data.inject_noise(ds, data.build_symmetric_matrix(k, tau), seed=13)
    flipped = out.noisy_labels != out.true_labels
    assert abs(flipped.mean() - tau) < 0.015
    dest = (out.noisy_labels[flipped] - out.true_labels[flipped]) % k
    counts = np.bincount(dest, minlength=k)[1:]  # offsets 1..k-1
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_pair_noise_fidelity():
    # every flip lands exactly on (true + 1) mod k, flip fraction near tau
    k, tau, n = 10, 0.4, 10000
    ds = data.synth_gaussian(k, n // k, 4, spread=0.5, seed=17)
    out = data.inject_noise(ds, data.build_pair_matrix(k, tau), seed=19)
    flipped = out.noisy_labels != out.true_labels
    assert abs(flipped.mean() - tau) < 0.015
    assert np.array_equal(out.noisy_labels[flipped],
                          (out.true_labels[flipped] + 1) % k)


def test_confusion_matrix_converges_to_transition():
    # chi-squared goodness of fit per true class against the matrix row
    k, tau, n = 4, 0.3, 10000
    ds = data.synth_gaussian(k, n // k, 4, spread=0.5, seed=23)
    matrix = data.build_symmetric_matrix(k, tau)
    out = data.inject_noise(ds, matrix, seed=29)
    for c in range(k):
        rows = out.noisy_labels[out.true_labels == c]
        counts = np.bincount(rows, minlength=k)
        _, p = stats.chisquare(counts, matrix.entries[c] * len(rows))
        assert p > 0.001


def test_stream_keys_are_non_negative():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        rng.stream(-1, "noise")
    with pytest.raises(ValueError, match=r"extra key parts must be non-negative, got \(1, -2\)"):
        rng.derive_seed(0, "shuffle", 1, -2)


def test_noise_deterministic_per_seed():
    ds = make_ds(n=400)
    m = data.build_pair_matrix(4, 0.4)
    a = data.inject_noise(ds, m, seed=31)
    b = data.inject_noise(ds, m, seed=31)
    c = data.inject_noise(ds, m, seed=32)
    assert np.array_equal(a.noisy_labels, b.noisy_labels)
    assert not np.array_equal(a.noisy_labels, c.noisy_labels)


# ----- views and splits -----

def test_train_view_cannot_expose_true_labels():
    ds = data.inject_noise(make_ds(), data.build_pair_matrix(4, 0.4), seed=5)
    view = ds.train_view()
    assert not hasattr(view, "true_labels")
    assert not hasattr(view, "noisy_labels")
    assert np.array_equal(view.labels, ds.noisy_labels)


def test_datasets_reject_features_and_labels_that_disagree():
    x = np.zeros((2, 3))
    for call, message in [
            (lambda: data.DataView(x, [0, 1, 0], 4),
             r"labels must have length 2, got shape \(3,\)"),
            (lambda: data.NoisyDataset(x, [0, 0], [0, 0], 1), "need at least 2 classes, got 1"),
            (lambda: data.NoisyDataset(np.zeros(2), [0, 1], [0, 1], 4),
             r"^features must be a 2-D array, got shape \(2,\)$"),
            (lambda: data.NoisyDataset(x, [0, 1, 0], [0, 1, 0], 4),
             r"noisy_labels must have length 2, got shape \(3,\)")]:
        with pytest.raises(ValueError, match=message):
            call()


def test_split_partitions_are_disjoint_and_clean():
    ds = make_ds(n=200)
    train, val, test = data.split(ds, data.SplitSpec(30, 50, seed=3))
    assert train.n == 120 and val.n == 30 and test.n == 50
    # all rows accounted for exactly once: match feature rows back to source
    stacked = np.vstack([train.features, val.features, test.features])
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(ds.features, axis=0))
    # views are clean by protocol (split precedes injection)
    assert train.is_noise_free
    noisy_train = data.inject_noise(train, data.build_pair_matrix(4, 0.4), seed=7)
    assert not noisy_train.is_noise_free
    assert np.array_equal(noisy_train.true_labels, train.true_labels)


def test_split_zero_validation_gives_none():
    ds = make_ds(n=200)
    train, val, test = data.split(ds, data.SplitSpec(0, 50, seed=3))
    assert val is None and train.n == 150 and test.n == 50


def test_split_rejects_oversized_partitions():
    ds = make_ds(n=40)
    with pytest.raises(ValueError):
        data.split(ds, data.SplitSpec(30, 10, seed=0))


def test_split_deterministic():
    ds = make_ds(n=200)
    a = data.split(ds, data.SplitSpec(20, 20, seed=9))[0]
    b = data.split(ds, data.SplitSpec(20, 20, seed=9))[0]
    assert np.array_equal(a.features, b.features)


# ----- CSV -----

def test_csv_round_trip_identity(tmp_path):
    ds = data.inject_noise(make_ds(n=60), data.build_symmetric_matrix(4, 0.4), seed=41)
    path = tmp_path / "ds.csv"
    write_csv(ds, path)
    back = data.load_csv(path, n_classes=4)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.noisy_labels, ds.noisy_labels)
    assert np.array_equal(back.true_labels, ds.true_labels)


def test_csv_single_label_column(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0.5,1.5,2\n-1.0,0.25,0\n")
    ds = data.load_csv(path, n_classes=3)
    assert ds.features.shape == (2, 2)
    assert np.array_equal(ds.noisy_labels, [2, 0])
    assert ds.is_noise_free  # single column counts as both labels


def test_parse_number_reads_plain_ascii_numbers_only():
    assert data.parse_number(" +1e-1\n") == 0.1 and data.parse_number("-5", int) == -5
    assert type(data.parse_number("5")) is float and type(data.parse_number("5", int)) is int
    # Python's int and float would read each of these as a number
    for text in ("6_0", "\uff11\uff10", "\u0663", "\u00a05", "5\u2003"):
        for kind in (int, float):
            with pytest.raises(ValueError, match="not a plain ASCII number"):
                data.parse_number(text, kind)
    with pytest.raises(ValueError):
        data.parse_number("2.0", int)


def test_csv_errors_name_lines(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.5,1.5,2\n0.1,3\n")
    with pytest.raises(ValueError, match="line 2"):
        data.load_csv(ragged)

    badfloat = tmp_path / "badfloat.csv"
    badfloat.write_text("0.5,1.5,2\nabc,1.5,0\n")
    with pytest.raises(ValueError, match="line 2"):
        data.load_csv(badfloat)

    badlabel = tmp_path / "badlabel.csv"
    badlabel.write_text("0.5,1.5,2\n0.5,1.5,7\n")
    with pytest.raises(ValueError, match="line 2.*7"):
        data.load_csv(badlabel, n_classes=4)

    for cell in ("nan", "-inf"):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(f"0.5,1.5,2\n0.5,{cell},0\n")
        with pytest.raises(ValueError, match=f"nonfinite.csv: line 2: feature {cell}"):
            data.load_csv(nonfinite)

    # a label is a plain integer that fits int64: no '_', no other script's
    # digit, no '.0'; in the first row the error names line 1 as well
    for cell in ("1_0", "\u0663", "2.0", "99999999999999999999"):
        for text, where in [(f"0.5,1.5,2\n0.5,1.5,{cell}\n", "line 2: "),
                            (f"0.5,1.5,{cell}\n0.5,1.5,2\n", "line 1: ")]:
            labels = tmp_path / "labels.csv"
            labels.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"labels.csv: {where}"):
                data.load_csv(labels)
    # and a feature a plain number
    features = tmp_path / "features.csv"
    features.write_text("0.5,1.5,2\n0_5,1.5,0\n")
    with pytest.raises(ValueError, match="features.csv: line 2: invalid feature '0_5'"):
        data.load_csv(features)

    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"0.5,1.5,2\n0.5,1.5,0\n0.5,1\xff.5,0\n")
    with pytest.raises(ValueError, match=r"undecodable.csv: line 3: a CSV file is ASCII, "
                                         r"got b'0.5,1\\xff.5,0'"):
        data.load_csv(undecodable)

    header_only = tmp_path / "header_only.csv"
    header_only.write_text("feature_0,noisy_label\n")
    with pytest.raises(ValueError, match="header_only.csv: no data rows"):
        data.load_csv(header_only)


def test_csv_documented_header_names_the_label_columns(tmp_path):
    ds = data.inject_noise(make_ds(n=20), data.build_pair_matrix(4, 0.4), seed=3)
    plain = tmp_path / "plain.csv"
    write_csv(ds, plain)
    two = tmp_path / "two.csv"
    two.write_text("feature_0,feature_1,feature_2,noisy_label,true_label\n"
                   + plain.read_text())
    back = data.load_csv(two, n_classes=4)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.noisy_labels, ds.noisy_labels)
    assert np.array_equal(back.true_labels, ds.true_labels)

    # with a header, integer-valued features are not mistaken for labels
    one = tmp_path / "one.csv"
    one.write_text("feature_0,feature_1,noisy_label\n0.5,3,1\n0.25,2,0\n")
    back = data.load_csv(one)
    assert np.array_equal(back.features, [[0.5, 3.0], [0.25, 2.0]])
    assert np.array_equal(back.noisy_labels, [1, 0]) and back.is_noise_free

    for header in ("feature_0,label", "feature_1,feature_0,noisy_label",
                   "noisy_label,true_label", "x,y,noisy_label,true_label"):
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n0.5,1.5,0,0\n")
        with pytest.raises(ValueError, match="line 1"):
            data.load_csv(bad)


def test_csv_headerless_layout_is_fixed_by_the_first_row(tmp_path):
    # the first row has one label column, so the second row's integer cell
    # is a feature, not a label
    one_first = tmp_path / "one_first.csv"
    one_first.write_text("0.5,1.5,0\n0.25,3,1\n")
    ds = data.load_csv(one_first)
    assert np.array_equal(ds.features, [[0.5, 1.5], [0.25, 3.0]])
    assert np.array_equal(ds.noisy_labels, [0, 1]) and ds.is_noise_free

    # the first row has two label columns, so a non-integer label disagrees
    two_first = tmp_path / "two_first.csv"
    two_first.write_text("0.25,3,1\n0.5,1.5,0\n")
    with pytest.raises(ValueError, match="line 2"):
        data.load_csv(two_first)


# ----- the label rule -----

X2 = np.zeros((2, 3))  # two samples; every label input below is 4-class


def two_sample_history():
    h = memorization.PredictionHistory(2, 3, 4)
    h.record_batch([0, 1], [0, 1])  # label_probability needs a history
    return h


def small_state():
    return nn.init_state(nn.NetworkSpec((3, 5, 4)), rng.stream(0, "init"))


def train_one_epoch(labels):
    engine.train_epoch(data.DataView(X2, [0, 1], 4), small_state(),
                       memorization.PredictionHistory(2, 3, 4),
                       nn.OptimizerConfig(batch_size=2), epoch=1, seed=0, labels=labels)


# entry point -> (name its messages start with, takes one label, call)
LABEL_INPUTS = {
    "DataView": ("labels", False, lambda y: data.DataView(X2, y, 4)),
    "NoisyDataset-noisy": ("noisy_labels", False, lambda y: data.NoisyDataset(X2, y, [0, 1], 4)),
    "NoisyDataset-true": ("true_labels", False, lambda y: data.NoisyDataset(X2, [0, 1], y, 4)),
    "per_sample_losses": ("labels", False, lambda y: nn.per_sample_losses(X2, y, small_state())),
    "evaluate_error": ("labels", False, lambda y: nn.evaluate_error(X2, y, small_state())),
    "loss_grad_probs": ("labels", False, lambda y: nn.loss_grad_probs(X2, y, small_state())),
    "train_epoch": ("labels", False, train_one_epoch),
    "record_batch": ("labels", False, lambda y: two_sample_history().record_batch([0, 1], y)),
    "record": ("labels", True, lambda y: two_sample_history().record(0, y)),
    "memorized_mask": ("noisy_labels", False, lambda y: two_sample_history().memorized_mask(y)),
    "is_memorized": ("noisy_labels", True, lambda y: two_sample_history().is_memorized(0, y)),
    "label_probability": ("label", True, lambda y: two_sample_history().label_probability(0, y)),
}
# bad input -> (two labels, one label)
BAD_LABELS = {
    "floats": ([0.9, 1.7], 1.7),
    "bools": (np.array([True, False]), True),
    "2-D": ([[0], [1]], [[1]]),
    "too-large": ([0, 4], 4),
    "negative": ([-1, 0], -1),
}


@pytest.mark.parametrize("bad", BAD_LABELS.values(), ids=BAD_LABELS.keys())
@pytest.mark.parametrize("entry", LABEL_INPUTS.values(), ids=LABEL_INPUTS.keys())
def test_every_label_input_follows_one_rule(entry, bad):
    # no float is truncated, no bool read as a class, no 2-D mask broadcast,
    # and no label outside [0, n_classes) read or silently not matched
    name, single, call = entry
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(bad[single])


def test_label_rule_keeps_int64_and_converts_other_integers():
    labels = np.array([0, 3, 1])
    assert data.check_labels(labels, 4) is labels
    small = data.check_labels(labels.astype(np.uint8), 4)
    assert small.dtype == np.int64 and np.array_equal(small, labels)
    assert data.check_labels([], 4).dtype == np.int64


def test_feature_rule_keeps_float64_and_names_the_width():
    x = np.zeros((3, 4))
    assert data.check_features(x) is x and data.check_features(x, 4) is x
    ints = data.check_features([[1, 2]])
    assert ints.dtype == np.float64 and np.array_equal(ints, [[1.0, 2.0]])
    for value, width, message in [
            (np.zeros(4), None, "features must be a 2-D array, got shape (4,)"),
            (x, 5, "features must be a 2-D array of 5 columns, got shape (3, 4)"),
            (np.zeros((3, 4, 1)), 4,
             "features must be a 2-D array of 4 columns, got shape (3, 4, 1)")]:
        with pytest.raises(ValueError) as exc:
            data.check_features(value, width)
        assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: nn.evaluate_error(X2, [0], small_state()), "labels must have length 2"),
    (lambda: nn.per_sample_losses(X2, [0], small_state()), "labels must have length 2"),
    (lambda: nn.loss_grad_probs(X2, [0, 1, 0], small_state()), "labels must have length 2"),
    (lambda: nn.forward(np.zeros((2, 4)), small_state()),
     "features must be a 2-D array of 3 columns"),
    (lambda: memorization.mp_mr([True, True, False], [0, 1, 2], [1]),
     "true_labels must have length 3"),
    (lambda: memorization.mp_mr([True, False], [0.0, 1.0], [0, 1]),
     "noisy_labels must be integers"),
    (lambda: refurbish.epoch_targets(refurbish.RefurbishedSet(
        np.full(3, -1), np.full(3, np.nan), np.zeros(3, dtype=bool)), np.array([1, 0, 2]),
        np.array([0, 1, 2])), "trusted_mask must be a 1-D bool array"),
    (lambda: refurbish.epoch_targets(refurbish.RefurbishedSet(
        np.full(3, -1), np.full(3, np.nan), np.zeros(3, dtype=bool)), np.zeros(3, bool),
        np.array([0, 1])), "noisy_labels must have length 3"),
], ids=["evaluate_error", "per_sample_losses", "loss_grad_probs", "forward", "mp_mr-length",
        "mp_mr-floats", "epoch_targets-mask", "epoch_targets-labels"])
def test_per_sample_inputs_are_tied_to_one_length_by_name(call, message):
    # one label is never broadcast over every row, and no NumPy error stands in
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
