"""Refurbishment: entropy rule, candidate selection, mixed-batch epochs."""

import warnings

import numpy as np
import pytest
from scipy import stats

from helpers import empty_refurbished, straight_line_forward, straight_line_step
from prestopping import data, engine, memorization as mem, nn, refurbish, rng


def hist_with(sequences, q=4, k=4):
    h = mem.PredictionHistory(len(sequences), q, k)
    for i, seq in enumerate(sequences):
        for label in seq:
            h.record(i, label)
    return h


# ----- entropy -----

def test_entropy_extremes():
    counts = np.array([[4, 0, 0, 0],   # constant history
                       [1, 1, 1, 1],   # uniform history
                       [0, 0, 0, 0]])  # empty
    u = refurbish.normalized_entropy(counts, 4)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(u[2])


def test_entropy_matches_formula_oracle():
    # independent oracle via scipy.stats.entropy on the frequency vector
    g = rng.stream(6, "entropy")
    for _ in range(200):
        k = int(g.integers(2, 7))
        counts = g.integers(0, 9, size=k)
        if counts.sum() == 0:
            counts[0] = 1
        u = refurbish.normalized_entropy(counts[None, :], k)[0]
        want = stats.entropy(counts / counts.sum()) / np.log(k)
        assert u == pytest.approx(want, abs=1e-12)


# ----- candidate selection -----

def test_constant_history_is_refurbished():
    h = hist_with([[1, 1, 1, 1], [0, 1, 2, 3]])
    cfg = refurbish.RefurbishConfig(0.05, np.zeros(2, dtype=bool))
    out = refurbish.refurbish_candidates(h, cfg)
    assert out.mask[0] and not out.mask[1]
    assert out.labels[0] == 1 and out.labels[1] == -1
    assert out.entropy[0] == 0.0
    assert out.size == 1


def test_trusted_samples_never_refurbished():
    h = hist_with([[2, 2, 2, 2], [3, 3, 3, 3]])
    cfg = refurbish.RefurbishConfig(0.05, np.array([True, False]))
    out = refurbish.refurbish_candidates(h, cfg)
    assert not out.mask[0] and out.mask[1]


def test_empty_history_never_refurbished():
    h = mem.PredictionHistory(3, 4, 4)
    h.record(0, 2)
    cfg = refurbish.RefurbishConfig(1.0, np.zeros(3, dtype=bool))
    out = refurbish.refurbish_candidates(h, cfg)
    assert out.mask[0] and not out.mask[1] and not out.mask[2]


def test_epsilon_zero_selects_only_collapsed_histories():
    h = hist_with([[1, 1, 1, 1], [2, 2], [0, 0, 0, 1], [3]])
    cfg = refurbish.RefurbishConfig(0.0, np.zeros(4, dtype=bool))
    out = refurbish.refurbish_candidates(h, cfg)
    assert np.array_equal(out.mask, [True, True, False, True])
    assert np.array_equal(out.labels, [1, 2, -1, 3])


def test_candidate_invariants_random():
    g = rng.stream(8, "cand")
    for _ in range(50):
        n, q, k = int(g.integers(2, 30)), int(g.integers(1, 6)), int(g.integers(2, 5))
        h = mem.PredictionHistory(n, q, k)
        for _ in range(int(g.integers(0, 40))):
            h.record(int(g.integers(0, n)), int(g.integers(0, k)))
        trusted = g.random(n) < 0.3
        eps = float(g.random())
        out = refurbish.refurbish_candidates(h, refurbish.RefurbishConfig(eps, trusted))
        for i in np.nonzero(out.mask)[0]:
            assert not trusted[i]
            assert h.history_length(i) > 0
            assert out.entropy[i] <= eps
            counts = h.label_counts(np.array([i]))[0]
            assert out.labels[i] == np.argmax(counts)
        # non-members carry no label
        assert np.all(out.labels[~out.mask] == -1)


def test_candidates_reject_length_mismatch():
    h = mem.PredictionHistory(3, 2, 3)
    with pytest.raises(ValueError, match="trusted_mask covers 2 samples, histories cover 3"):
        refurbish.refurbish_candidates(h, refurbish.RefurbishConfig(0.1, np.zeros(2, bool)))
    with pytest.raises(ValueError, match="trusted_mask must be one-dimensional"):
        refurbish.RefurbishConfig(0.1, np.zeros((3, 1), bool))


# ----- mixed-batch epoch -----

def mixed_setup(seed=9):
    g = rng.stream(seed, "mix")
    view = data.DataView(g.normal(size=(8, 4)), g.integers(0, 3, size=8), 3)
    state = nn.init_state(nn.NetworkSpec((4, 6, 3)), rng.stream(seed, "init"))
    cfg = nn.OptimizerConfig(base_lr=0.1, momentum=0.9, batch_size=8, total_epochs=10)
    return view, state, cfg


def test_mixed_batch_denominator_and_loss():
    # 3 trusted + 2 refurbished members of an 8-sample batch: denominator 5,
    # loss = (refurbished-label losses + trusted-label losses) / 5
    view, state, cfg = mixed_setup()
    trusted = np.zeros(8, dtype=bool)
    trusted[[0, 1, 2]] = True
    refurb = empty_refurbished(8)
    refurb.mask[[3, 4]] = True
    refurb.labels[[3, 4]] = [(view.labels[3] + 1) % 3, (view.labels[4] + 2) % 3]
    labels, member = refurbish.epoch_targets(refurb, trusted, view.labels)
    assert np.array_equal(member, trusted | refurb.mask)
    assert np.array_equal(labels[[3, 4]], refurb.labels[[3, 4]])
    assert np.array_equal(np.delete(labels, [3, 4]), np.delete(view.labels, [3, 4]))
    before = state.copy()
    loss = nn.loss_grad_probs(view.features, labels, before, sample_mask=member, denom=5)[0]
    oracle_probs, _ = straight_line_forward(before.weights, before.biases, view.features)
    want = sum(-np.log(oracle_probs[i, refurb.labels[i]]) for i in (3, 4))
    want += sum(-np.log(oracle_probs[i, view.labels[i]]) for i in (0, 1, 2))
    assert loss == pytest.approx(want / 5, rel=1e-12)
    # excluded samples (5, 6, 7) influenced nothing: replay the update without them
    records = []
    hist = mem.PredictionHistory(8, 2, 3)
    assert engine.train_epoch(view, state, hist, cfg, 1, 9, labels, member,
                              step_hook=records.append)
    (rec,) = records
    assert rec.n_used == 5
    idx = rec.indices
    new_w, new_b, _, _, _ = straight_line_step(
        before.weights, before.biases, before.vel_w, before.vel_b,
        view.features[idx], np.where(refurb.mask, refurb.labels, view.labels)[idx],
        (trusted | refurb.mask)[idx], 5, cfg.lr_at(1), cfg.momentum)
    for a, b in zip(new_w + new_b, state.weights + state.biases):
        assert np.array_equal(a, b)


def test_step_rejects_overlapping_sets():
    view, _, _ = mixed_setup()
    trusted = np.zeros(8, dtype=bool)
    trusted[0] = True
    refurb = empty_refurbished(8)
    refurb.mask[0] = True
    refurb.labels[0] = 1
    with pytest.raises(ValueError):
        refurbish.epoch_targets(refurb, trusted, view.labels)


def test_step_with_empty_union_skips_update():
    view, state, cfg = mixed_setup()
    before = state.copy()
    labels, member = refurbish.epoch_targets(empty_refurbished(8),
                                             np.zeros(8, dtype=bool), view.labels)
    hist = mem.PredictionHistory(8, 2, 3)
    assert not engine.train_epoch(view, state, hist, cfg, 1, 9, labels, member)
    assert all(hist.history_length(i) == 1 for i in range(8))  # still forward-passed
    for a, b in zip(before.weights, state.weights):
        assert np.array_equal(a, b)


# ----- full second run -----

def plus_problem(seed=33):
    ds = data.synth_gaussian(3, 40, 4, spread=0.4, seed=seed)
    ds = data.inject_noise(ds, data.build_pair_matrix(3, 0.3), seed=seed + 1)
    return ds


def test_plus_run_uses_fresh_network_init():
    ds = plus_problem()
    view = ds.train_view()
    init_a = nn.init_state(nn.NetworkSpec((4, 8, 3)), rng.stream(3, "init"))
    init_b = nn.init_state(nn.NetworkSpec((4, 8, 3)), rng.stream(3, "plus_init"))
    assert not np.array_equal(init_a.weights[0], init_b.weights[0])


def test_plus_run_deterministic_and_records_everyone():
    ds = plus_problem()
    view = ds.train_view()
    cfg = nn.OptimizerConfig(base_lr=0.1, batch_size=32, total_epochs=5)
    trusted = np.zeros(view.n, dtype=bool)
    trusted[:60] = True  # arbitrary subset
    a = refurbish.run_prestopping_plus(view, trusted, nn.NetworkSpec((4, 8, 3)),
                                       cfg, q=3, epsilon=0.05, seed=41)
    b = refurbish.run_prestopping_plus(view, trusted, nn.NetworkSpec((4, 8, 3)),
                                       cfg, q=3, epsilon=0.05, seed=41)
    assert all(np.array_equal(x, y) for x, y in zip(a.final_state.weights,
                                                    b.final_state.weights))
    assert np.array_equal(a.refurbished.mask, b.refurbished.mask)
    # every sample was forward-passed every epoch
    assert all(a.histories.history_length(i) == 3 for i in range(view.n))
    # disjointness held through to the final report
    assert not np.any(a.refurbished.mask[trusted])


def test_plus_run_empty_everything_warns():
    ds = plus_problem()
    view = ds.train_view()
    cfg = nn.OptimizerConfig(base_lr=0.1, batch_size=32, total_epochs=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = refurbish.run_prestopping_plus(view, np.zeros(view.n, dtype=bool),
                                             nn.NetworkSpec((4, 8, 3)), cfg,
                                             q=3, epsilon=0.0, seed=43)
    assert any("empty" in str(w.message) for w in caught)
