"""Two-phase trainer: stop heuristics, safe-set updates, exact step replay."""

import pickle
import warnings

import numpy as np
import pytest

from helpers import straight_line_step, window_memorized
from prestopping import data, engine, memorization as mem, metrics, nn, refurbish, rng


def toy_problem(n_per=30, k=3, d=4, tau=0.3, seed=5, spread=0.4):
    ds = data.synth_gaussian(k, n_per, d, spread=spread, seed=seed)
    if tau > 0:
        ds = data.inject_noise(ds, data.build_symmetric_matrix(k, tau), seed=seed + 1)
    return ds


SMALL_SPEC = nn.NetworkSpec((4, 8, 3))


def small_config(epochs=6, batch=16):
    return nn.OptimizerConfig(base_lr=0.1, momentum=0.9, batch_size=batch,
                              total_epochs=epochs)


# ----- stop rule basics -----

def test_first_minimum_wins_ties():
    # validation sequence .5 .3 .4 .3 selects epoch 2
    best_val, best_epoch = None, None
    for epoch, err in enumerate([0.5, 0.3, 0.4, 0.3], start=1):
        if engine.is_improvement(err, best_val):
            best_val, best_epoch = err, epoch
    assert best_epoch == 2 and best_val == 0.3


def test_heuristic_validation():
    with pytest.raises(ValueError):
        engine.StopHeuristic("validation")
    with pytest.raises(ValueError):
        engine.StopHeuristic("noise_rate")
    with pytest.raises(ValueError):
        engine.StopHeuristic("noise_rate", tau=1.0)
    with pytest.raises(ValueError):
        engine.StopHeuristic("oracle", tau=0.5)


def test_batches_partition_every_sample_once():
    batches = engine._make_batches(50, 16, rng.stream(0, "shuffle", 1))
    assert [len(b) for b in batches] == [16, 16, 16, 2]
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(50))
    again = engine._make_batches(50, 16, rng.stream(0, "shuffle", 1))
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))
    other = engine._make_batches(50, 16, rng.stream(0, "shuffle", 2))
    assert not all(np.array_equal(a, b) for a, b in zip(batches, other))


def test_train_epoch_records_each_sample_once_with_its_pre_update_prediction():
    # one history entry per sample per epoch: the argmax of its batch's forward
    # pass under the parameters before that batch's update
    view = toy_problem(tau=0.3, seed=17).train_view()
    cfg = small_config(epochs=3)
    state = nn.init_state(SMALL_SPEC, rng.stream(17, "init"))
    hist = mem.PredictionHistory(view.n, 3, view.n_classes)
    member = rng.stream(17, "member").random(view.n) < 0.5
    for epoch in (1, 2, 3):
        records = []
        engine.train_epoch(view, state, hist, cfg, epoch, 17,
                           member=member if epoch == 2 else None, step_hook=records.append)
        seen = np.concatenate([rec.indices for rec in records])
        assert np.array_equal(np.sort(seen), np.arange(view.n))
        assert all(hist.history_length(i) == epoch for i in range(view.n))
        for rec in records:
            want = np.argmax(nn.forward(view.features[rec.indices], rec.before), axis=1)
            got = [hist.history_of(i)[-1] for i in rec.indices]
            assert np.array_equal(got, want), (epoch, rec.indices)


# ----- phase I -----

def test_noise_rate_stops_at_zero_error_on_separable_data():
    ds = toy_problem(tau=0.0, spread=0.05)
    view = ds.train_view()
    ckpt = engine.phase1_train(view, engine.StopHeuristic("noise_rate", tau=0.0),
                               SMALL_SPEC, small_config(epochs=40), q=3, seed=1)
    assert ckpt.trigger_value == 0.0
    assert nn.evaluate_error(view.features, view.labels, ckpt.state) == 0.0
    assert ckpt.epoch <= 40


def test_noise_rate_stop_is_first_qualifying_epoch():
    ds = toy_problem(tau=0.3)
    view = ds.train_view()
    errors = []
    ckpt = engine.phase1_train(view, engine.StopHeuristic("noise_rate", tau=0.5),
                               SMALL_SPEC, small_config(epochs=30), q=3, seed=2,
                               observer=lambda ctx: errors.append(
                                   nn.evaluate_error(view.features, view.labels, ctx.state)))
    qualifying = [e for e, err in enumerate(errors, start=1) if err <= 0.5]
    assert ckpt.epoch == qualifying[0]
    assert len(errors) == ckpt.epoch  # heuristic broke the loop right there


def test_noise_rate_unreachable_raises():
    # identical features with conflicting labels can never reach zero error
    feats = np.zeros((8, 4))
    labels = np.array([0, 1] * 4)
    view = data.DataView(feats, labels, 3)
    with pytest.raises(engine.StopPointNotReached) as info:
        engine.phase1_train(view, engine.StopHeuristic("noise_rate", tau=0.0),
                            SMALL_SPEC, small_config(epochs=3), q=3, seed=0)
    message = "training error never reached tau=0.0 within 3 epochs (final 0.5000)"
    assert str(info.value) == message
    # a pool worker hands its exception back to the parent by pickle
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is engine.StopPointNotReached and str(back) == message


def test_validation_checkpoint_is_first_minimum():
    ds = toy_problem(tau=0.3)
    train, val, _ = data.split(ds, data.SplitSpec(20, 0, seed=3))
    view = train.train_view()
    seen = []
    ckpt = engine.phase1_train(view, engine.StopHeuristic("validation", validation=val),
                               SMALL_SPEC, small_config(epochs=8), q=3, seed=3,
                               observer=lambda ctx: seen.append(ctx.validation_error))
    assert len(seen) == 8  # trains to completion, then rewinds
    best = min(seen)
    assert ckpt.trigger_value == best
    assert ckpt.epoch == seen.index(best) + 1


def test_on_checkpoint_sees_each_validation_improvement_in_order():
    ds = toy_problem(tau=0.3)
    train, val, _ = data.split(ds, data.SplitSpec(20, 0, seed=3))
    seen, calls = [], []
    ckpt = engine.phase1_train(train.train_view(),
                               engine.StopHeuristic("validation", validation=val),
                               SMALL_SPEC, small_config(epochs=8), q=3, seed=3,
                               observer=lambda ctx: seen.append(ctx.validation_error),
                               on_checkpoint=calls.append)
    improved = [epoch for epoch, err in enumerate(seen, start=1)
                if err < min(seen[:epoch - 1], default=np.inf)]
    assert len(improved) >= 2
    assert [c.epoch for c in calls] == improved
    assert [c.trigger_value for c in calls] == [seen[e - 1] for e in improved]
    assert calls[-1] is ckpt


def test_on_checkpoint_sees_the_noise_rate_trigger_once():
    calls = []
    ckpt = engine.phase1_train(toy_problem(tau=0.3).train_view(),
                               engine.StopHeuristic("noise_rate", tau=0.5),
                               SMALL_SPEC, small_config(epochs=30), q=3, seed=2,
                               on_checkpoint=calls.append)
    assert calls == [ckpt]


def test_on_checkpoint_never_called_without_a_stop_point():
    view = data.DataView(np.zeros((8, 4)), np.array([0, 1] * 4), 3)
    calls = []
    with pytest.raises(engine.StopPointNotReached):
        engine.phase1_train(view, engine.StopHeuristic("noise_rate", tau=0.0),
                            SMALL_SPEC, small_config(epochs=3), q=3, seed=0,
                            on_checkpoint=calls.append)
    assert calls == []


def test_default_run_matches_phase1_trajectory_bitwise():
    ds = toy_problem(tau=0.3)
    train, val, _ = data.split(ds, data.SplitSpec(20, 0, seed=3))
    view = train.train_view()
    cfg = small_config(epochs=5)
    traj_a, traj_b = [], []
    engine.run_default(view, SMALL_SPEC, cfg, q=3, seed=7,
                       observer=lambda c: traj_a.append([w.copy() for w in c.state.weights]))
    engine.phase1_train(view, engine.StopHeuristic("validation", validation=val),
                        SMALL_SPEC, cfg, q=3, seed=7,
                        observer=lambda c: traj_b.append([w.copy() for w in c.state.weights]))
    for wa, wb in zip(traj_a, traj_b):
        assert all(np.array_equal(x, y) for x, y in zip(wa, wb))


# ----- phase II -----

def run_two_phase(seed=11, epochs=8, tau=0.3, q=3, step_hook=None):
    ds = toy_problem(tau=tau, seed=seed)
    view = ds.train_view()
    cfg = small_config(epochs=epochs)
    ckpt = engine.phase1_train(view, engine.StopHeuristic("noise_rate", tau=tau + 0.15),
                               SMALL_SPEC, cfg, q=q, seed=seed)
    state, safe, hist = engine.phase2_train(ckpt, view, cfg, seed=seed, step_hook=step_hook)
    return ds, view, cfg, ckpt, state, safe, hist


def test_phase2_leaves_checkpoint_untouched():
    _, _, _, ckpt, _, _, _ = run_two_phase()
    frozen = [w.copy() for w in ckpt.state.weights]
    hist_before = [ckpt.histories.history_of(i).tolist() for i in range(5)]
    # a second phase-2 replay from the same checkpoint is bit-identical
    _, view, cfg, ckpt2, state2, _, _ = run_two_phase()
    assert all(np.array_equal(a, b) for a, b in zip(frozen, ckpt2.state.weights))
    assert hist_before == [ckpt2.histories.history_of(i).tolist() for i in range(5)]


def test_phase2_replay_is_deterministic():
    _, _, _, _, s1, safe1, _ = run_two_phase(seed=13)
    _, _, _, _, s2, safe2, _ = run_two_phase(seed=13)
    assert all(np.array_equal(a, b) for a, b in zip(s1.weights, s2.weights))
    assert np.array_equal(safe1, safe2)


def test_phase2_first_batch_uses_checkpoint_memorization():
    records = []
    _, view, _, ckpt, _, _, _ = run_two_phase(step_hook=records.append)
    first = records[0]
    expect = ckpt.histories.memorized_mask(view.labels[first.indices], first.indices)
    assert np.array_equal(first.member_mask, expect)


def test_phase2_full_safe_set_step_equals_standard_step():
    # when every sample is memorized, a safe-set epoch is bitwise a plain epoch
    ds = toy_problem(tau=0.3, seed=17)
    view = ds.train_view()
    hist = mem.PredictionHistory(view.n, 1, view.n_classes)
    hist.record_batch(np.arange(view.n), view.labels)  # everyone votes its own label
    state = nn.init_state(SMALL_SPEC, rng.stream(21, "init"))
    cfg = small_config(epochs=4)
    ckpt = engine.Checkpoint(state.copy(), hist.copy(), epoch=4, trigger_value=0.0)
    got, safe, _ = engine.phase2_train(ckpt, view, cfg, seed=21)
    want = state.copy()
    want_hist = hist.copy()
    engine.train_epoch(view, want, want_hist, cfg, epoch=4, seed=21)
    assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
    assert all(np.array_equal(a, b) for a, b in zip(got.biases, want.biases))


def test_phase2_empty_safe_set_skips_and_warns():
    ds = toy_problem(tau=0.0, seed=19)
    view = ds.train_view()
    hist = mem.PredictionHistory(view.n, 1, view.n_classes)
    wrong = (view.labels + 1) % view.n_classes
    hist.record_batch(np.arange(view.n), wrong)  # nobody votes its own label
    state = nn.init_state(SMALL_SPEC, rng.stream(23, "init"))
    cfg = small_config(epochs=3)
    ckpt = engine.Checkpoint(state.copy(), hist.copy(), epoch=3, trigger_value=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, safe, _ = engine.phase2_train(ckpt, view, cfg, seed=23)
    assert any("safe set empty" in str(w.message) for w in caught)
    assert all(np.array_equal(a, b) for a, b in zip(got.weights, state.weights))


def test_phase2_epoch_past_total_rejected():
    _, view, cfg, ckpt, _, _, _ = run_two_phase(epochs=8)
    bad = engine.Checkpoint(ckpt.state, ckpt.histories, epoch=9, trigger_value=0.0)
    with pytest.raises(ValueError):
        engine.phase2_train(bad, view, cfg, seed=0)


# ----- independent straight-line replay of phase II steps -----

def test_phase2_steps_match_straight_line_oracle_bitwise():
    records = []
    ds, view, cfg, ckpt, state, safe, _ = run_two_phase(seed=29, epochs=8,
                                                        step_hook=records.append)
    assert records, "phase 2 executed no steps"
    q = ckpt.histories.q
    logs = [ckpt.histories.history_of(i).tolist() for i in range(view.n)]
    momentum = cfg.momentum
    for rec in records:
        labels = view.labels[rec.indices]
        # membership must equal the full-log predicate over replayed histories
        want_mask = np.array([window_memorized(logs[i], q, labels[j])
                              for j, i in enumerate(rec.indices)])
        assert np.array_equal(rec.member_mask, want_mask)
        assert rec.n_used == want_mask.sum()
        new_w, new_b, _, _, preds = straight_line_step(
            rec.before.weights, rec.before.biases, rec.before.vel_w, rec.before.vel_b,
            view.features[rec.indices], labels, rec.member_mask, rec.n_used,
            rec.lr, momentum)
        for a, b in zip(new_w + new_b, rec.after.weights + rec.after.biases):
            assert np.array_equal(a, b)
        for i, p in zip(rec.indices, preds):
            logs[i].append(int(p))
    # the returned safe set is the memorized set under the final histories
    final_mask = np.array([window_memorized(logs[i], q, view.labels[i])
                           for i in range(view.n)])
    assert np.array_equal(np.nonzero(safe)[0], np.nonzero(final_mask)[0])
    assert safe.sum() == final_mask.sum()


# ----- one memorized mask per epoch, shared by every reader -----

def test_memorized_mask_is_shared_across_all_three_phases():
    ds = toy_problem(tau=0.3, seed=11)
    view = ds.train_view()
    cfg = small_config(epochs=8)
    events = []

    def observe(ctx):
        assert np.array_equal(ctx.memorized, ctx.histories.memorized_mask(view.labels)), \
            (ctx.phase, ctx.epoch)
        events.append(ctx)

    res = engine.run_prestopping(view, engine.StopHeuristic("noise_rate", tau=0.45),
                                 SMALL_SPEC, cfg, q=3, seed=11, observer=observe,
                                 step_hook=events.append)
    refurbish.run_prestopping_plus(view, res.safe_set, SMALL_SPEC, cfg, q=3,
                                   epsilon=0.05, seed=11, observer=observe)
    contexts = [e for e in events if isinstance(e, engine.EpochContext)]
    assert {c.phase for c in contexts} == {"phase1", "phase2", "plus"}
    assert contexts[-1].phase == "plus"
    # each Phase II batch trains on the previous epoch's mask; for the first
    # Phase II epoch that is the checkpoint epoch's Phase I mask
    previous, steps = None, 0
    for e in events:
        if isinstance(e, engine.EpochContext):
            previous = e
            continue
        assert previous.phase == "phase2" or previous.epoch == res.checkpoint.epoch
        assert np.array_equal(e.member_mask, previous.memorized[e.indices])
        steps += 1
    assert steps
    last_phase2 = [c for c in contexts if c.phase == "phase2"][-1]
    assert np.array_equal(res.safe_set, last_phase2.memorized)


def test_phase2_computes_the_mask_once_per_epoch(monkeypatch):
    ds, view, cfg, ckpt, _, _, _ = run_two_phase()
    epochs = cfg.total_epochs - ckpt.epoch + 1
    assert epochs >= 2
    calls = []
    original = mem.PredictionHistory.memorized_mask

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(mem.PredictionHistory, "memorized_mask", counting)
    collector = metrics.MetricsCollector(ds, data.DataView(ds.features, ds.true_labels,
                                                           ds.n_classes))
    engine.phase2_train(ckpt, view, cfg, seed=11, observer=collector)
    assert len(collector.rows) == epochs
    assert len(calls) == epochs + 1  # one per epoch end, plus the checkpoint's


def test_run_prestopping_composes():
    ds = toy_problem(tau=0.3, seed=31)
    train, val, _ = data.split(ds, data.SplitSpec(15, 0, seed=1))
    view = train.train_view()
    res = engine.run_prestopping(view, engine.StopHeuristic("validation", validation=val),
                                 SMALL_SPEC, small_config(epochs=6), q=3, seed=31)
    assert res.checkpoint.epoch <= 6
    assert res.safe_set.shape == (view.n,) and res.safe_set.dtype == bool
