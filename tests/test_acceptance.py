"""Acceptance gate: ten criteria, one test (hence one pass/fail line) each.

Thresholds are pinned here and do not track the implementation. Desk-scale
runs (4 classes, 16 features, 4000 train / 500 validation / 1000 test, 60
epochs) come from the session cache in conftest; the supporting trend checks
sit between criteria 9 and 10 so the final timing criterion covers everything
in this module.
"""

import time

MODULE_T0 = time.perf_counter()

from collections import Counter

import numpy as np
import scipy.stats

from prestopping import cli, data, engine, memorization as mem, metrics, nn
from prestopping import refurbish, rng
from helpers import (empty_refurbished, straight_line_forward, straight_line_step,
                     window_memorized)

SEEDS = (0, 1, 2)


# ----- criterion 1: gradient correctness -----

def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _kink_margin(state, x):
    # finite differences are invalid across relu kinks; measure the closest
    # hidden preactivation to zero
    a = x
    margin = np.inf
    for w, b in zip(state.weights[:-1], state.biases[:-1]):
        z = a @ w + b
        margin = min(margin, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return margin


def test_c01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    h = 1e-5
    g = rng.stream(99, "acceptance_gradcheck")
    worst = 0.0
    for case in range(100):
        sizes = [int(g.integers(2, 6))]
        sizes += [int(g.integers(2, 7)) for _ in range(int(g.integers(1, 3)))]
        sizes.append(int(g.integers(2, 5)))
        state = nn.init_state(nn.NetworkSpec(tuple(sizes)), g)
        n = int(g.integers(2, 6))
        x = g.normal(size=(n, sizes[0])) * 2.0
        while _kink_margin(state, x) < 1e-3:
            x = g.normal(size=(n, sizes[0])) * 2.0
        y = g.integers(0, sizes[-1], size=n)
        _, grad, _, _ = nn.loss_grad_probs(x, y, state)
        gw, gb = nn._layer_views(state.spec, grad)
        for kind, arrs, grads in (("w", state.weights, gw), ("b", state.biases, gb)):
            for arr, grad in zip(arrs, grads):
                flat, gflat = arr.ravel(), grad.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = nn.loss_grad_probs(x, y, state)[0]
                    flat[i] = orig - h
                    lm = nn.loss_grad_probs(x, y, state)[0]
                    flat[i] = orig
                    worst = max(worst, _rel_err(gflat[i], (lp - lm) / (2 * h)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5, f"max relative error {worst:.3e} exceeds 1e-5"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s (budget 10s)"
    print(f"ACCEPTANCE 01 PASS - 100 cases, all coordinates, "
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ----- criterion 2: noise injection fidelity -----

def test_c02_noise_injection_fidelity():
    t0 = time.perf_counter()
    k, n_per, tau = 10, 1000, 0.4
    base = data.NoisyDataset(np.zeros((k * n_per, 1)),
                             np.repeat(np.arange(k), n_per),
                             np.repeat(np.arange(k), n_per), k)
    sym = data.inject_noise(base, data.build_symmetric_matrix(k, tau), seed=11)
    flipped = sym.noisy_labels != sym.true_labels
    frac = flipped.mean()
    assert abs(frac - tau) <= 0.015, f"symmetric flip fraction {frac:.4f}"
    # destination offset within the 9 non-source classes must be uniform
    offsets = (sym.noisy_labels[flipped] - sym.true_labels[flipped]) % k
    counts = np.bincount(offsets, minlength=k)[1:]
    p = scipy.stats.chisquare(counts).pvalue
    assert p > 0.001, f"destination uniformity rejected, p={p:.5f}"
    pair = data.inject_noise(base, data.build_pair_matrix(k, tau), seed=12)
    moved = pair.noisy_labels != pair.true_labels
    assert np.all(pair.noisy_labels[moved] == (pair.true_labels[moved] + 1) % k), \
        "pair flips left the (i+1) mod k destination"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"noise fidelity check took {elapsed:.1f}s (budget 5s)"
    print(f"ACCEPTANCE 02 PASS - flip fraction {frac:.4f}, chi2 p={p:.3f}, "
          f"pair flips exact, {elapsed:.1f}s")


# ----- criterion 3: memorization oracles -----

def test_c03_memorization_oracles_exact():
    g = rng.stream(17, "acceptance_mem")
    # 1000 randomized histories vs exhaustive counting over the trailing window
    for case in range(1000):
        k = int(g.integers(2, 7))
        q = int(g.integers(1, 13))
        n_rec = int(g.integers(0, 3 * q))
        hist = mem.PredictionHistory(1, q, k)
        log = []
        for _ in range(n_rec):
            label = int(g.integers(0, k))
            hist.record(0, label)
            log.append(label)
        window = log[-q:]
        noisy = int(g.integers(0, k))
        assert hist.is_memorized(0, noisy) == window_memorized(log, q, noisy)
        if window:
            for y in range(k):
                want = Counter(window)[y] / len(window)
                assert hist.label_probability(0, y) == want  # exact rationals
    # 100 randomized 100-sample configurations vs set-arithmetic MP/MR
    for case in range(100):
        memorized = g.random(100) < g.random()
        noisy = g.integers(0, 4, size=100)
        true = np.where(g.random(100) < 0.6, noisy, g.integers(0, 4, size=100))
        mp, mr = mem.mp_mr(memorized, noisy, true)
        m_set = {i for i in range(100) if memorized[i]}
        clean = {i for i in range(100) if noisy[i] == true[i]}
        want_mp = len(m_set & clean) / len(m_set) if m_set else 1.0
        want_mr = len(m_set & clean) / len(clean) if clean else 1.0
        assert mp == want_mp and mr == want_mr
    print("ACCEPTANCE 03 PASS - 1000 history cases and 100 MP/MR configs, exact")


# ----- criterion 4: safe-set exclusion, bitwise -----

def small_noisy_problem(seed, n_per=150, tau=0.3):
    ds = data.synth_gaussian(3, n_per, 6, spread=0.35, seed=rng.derive_seed(seed, "data"))
    noisy = data.inject_noise(ds, data.build_pair_matrix(3, tau),
                              seed=rng.derive_seed(seed, "noise"))
    return noisy.train_view(), noisy


def test_c04_phase2_updates_equal_masked_renormalized_oracle():
    view, _ = small_noisy_problem(seed=5)
    cfg = nn.OptimizerConfig(base_lr=0.1, batch_size=64, total_epochs=12)
    heur = engine.StopHeuristic("noise_rate", tau=0.5)
    records = []
    result = engine.run_prestopping(view, heur, nn.NetworkSpec((6, 16, 3)), cfg,
                                    q=4, seed=5, step_hook=records.append)
    stop = result.checkpoint.epoch
    epochs = sorted({r.epoch for r in records})
    assert len(epochs) >= 10, f"phase II covered {len(epochs)} epochs, need >= 10"
    # independent history replay: trailing-window logs seeded from the checkpoint
    logs = [list(result.checkpoint.histories.history_of(i)) for i in range(view.n)]
    q = result.checkpoint.histories.q
    checked = 0
    for rec in records:
        labels = view.labels[rec.indices]
        want_mask = np.array([window_memorized(logs[i], q, int(lbl))
                              for i, lbl in zip(rec.indices, labels)])
        assert np.array_equal(want_mask, rec.member_mask)
        assert rec.n_used == int(want_mask.sum())
        w, b, vw, vb, preds = straight_line_step(
            rec.before.weights, rec.before.biases, rec.before.vel_w,
            rec.before.vel_b, view.features[rec.indices], labels,
            rec.member_mask, rec.n_used, rec.lr, cfg.momentum)
        assert all(np.array_equal(x, y) for x, y in zip(w, rec.after.weights))
        assert all(np.array_equal(x, y) for x, y in zip(b, rec.after.biases))
        for i, pred in zip(rec.indices, preds):
            logs[i].append(int(pred))
        checked += 1
    print(f"ACCEPTANCE 04 PASS - {checked} phase-II steps over epochs "
          f"{stop}..{epochs[-1]}, updates bitwise equal to the masked oracle")


# ----- criteria 5-8: desk-scale trends (cached runs) -----

def test_c05_error_prone_period(desk):
    growths, ok = [], 0
    for seed in SEEDS:
        run = desk.run("default", "pair", 0.4, seed)
        assert run.wall_seconds < 120.0, \
            f"seed {seed} took {run.wall_seconds:.0f}s (budget 120s/seed)"
        rows = run.phase_rows("phase1")
        cross = run.cross_epoch()
        at_cross = next(r for r in rows if r.epoch == cross)
        growth = (run.memorized_false_fraction(rows[-1])
                  - run.memorized_false_fraction(at_cross))
        growths.append(growth)
        ok += growth >= 0.10
    assert ok >= 2, f"memorized-false growth {growths} cleared 0.10 in {ok}/3 seeds"
    print(f"ACCEPTANCE 05 PASS - memorized-false growth after the MP/MR cross: "
          f"{[f'{v:+.3f}' for v in growths]} (threshold +0.10, {ok}/3 seeds)")


def test_c06_prestopping_beats_default(desk):
    gains, wins = [], 0
    for seed in SEEDS:
        d = desk.run("default", "pair", 0.4, seed).best_test_error
        p = desk.run("prestopping", "pair", 0.4, seed).best_test_error
        gains.append(d - p)
        wins += p < d
    mean_gain = float(np.mean(gains))
    assert wins >= 2, f"prestopping won only {wins}/3 seeds ({gains})"
    assert mean_gain >= 0.02, f"mean improvement {mean_gain:.4f} below 2pp"
    print(f"ACCEPTANCE 06 PASS - best-test-error gains {[f'{v:+.4f}' for v in gains]}, "
          f"mean {mean_gain * 100:.2f}pp, wins {wins}/3")


def test_c07_safe_set_purity(desk):
    precisions, recalls = [], []
    for seed in SEEDS:
        final = desk.run("prestopping", "pair", 0.4, seed).rows[-1]
        assert final.phase == "phase2"
        precisions.append(final.safe_set_precision)
        recalls.append(final.mr)
    p_ok = sum(p >= 0.85 for p in precisions)
    r_ok = sum(r >= 0.70 for r in recalls)
    assert p_ok >= 2, f"final precision {precisions} cleared 0.85 in {p_ok}/3"
    assert r_ok >= 2, f"final recall {recalls} cleared 0.70 in {r_ok}/3"
    print(f"ACCEPTANCE 07 PASS - final safe-set precision "
          f"{[f'{v:.3f}' for v in precisions]}, recall {[f'{v:.3f}' for v in recalls]}")


def test_c08_heuristic_ordering(desk):
    margins = {}
    for tau in (0.2, 0.4):
        val = [desk.run("prestopping", "pair", tau, s, "validation").best_test_error
               for s in SEEDS]
        nr = []
        for seed in SEEDS:
            run = desk.run("prestopping", "pair", tau, seed, "noise_rate")
            rows = run.phase_rows("phase1")
            first = next(r.epoch for r in rows if r.train_error <= tau)
            assert run.stop_epoch == first == rows[-1].epoch, \
                f"tau={tau} seed={seed}: stop {run.stop_epoch}, first crossing {first}"
            assert all(r.validation_error is None for r in run.rows)
            nr.append(run.best_test_error)
        margins[tau] = float(np.mean(nr) - (np.mean(val) - 0.01))
        assert margins[tau] >= 0.0, \
            f"tau={tau}: noise-rate mean {np.mean(nr):.4f} beats validation " \
            f"mean {np.mean(val):.4f} by more than 1pp"
    print(f"ACCEPTANCE 08 PASS - stop epochs exact; margins vs (validation - 1pp): "
          f"tau 0.2 {margins[0.2]:+.4f}, tau 0.4 {margins[0.4]:+.4f}")


# ----- criterion 9: refurbishment consistency -----

def test_c09_plus_collapses_to_phase2_on_trusted_set():
    view, _ = small_noisy_problem(seed=8)
    net = nn.NetworkSpec((6, 16, 3))
    cfg = nn.OptimizerConfig(base_lr=0.1, batch_size=64, total_epochs=12)
    heur = engine.StopHeuristic("noise_rate", tau=0.5)
    result = engine.run_prestopping(view, heur, net, cfg, q=4, seed=8)
    trusted = result.safe_set

    # epsilon = 0 on fresh histories: the refurbished set is provably empty
    fresh = mem.PredictionHistory(view.n, 4, 3)
    rcfg = refurbish.RefurbishConfig(0.0, trusted)
    assert refurbish.refurbish_candidates(fresh, rcfg).size == 0

    # (a) a one-epoch plus run equals a straight-line phase-II-style replay
    # restricted to the trusted set, bitwise
    one = nn.OptimizerConfig(base_lr=0.1, batch_size=64, total_epochs=1)
    plus = refurbish.run_prestopping_plus(view, trusted, net, one, q=4,
                                          epsilon=0.0, seed=8)
    w = [a.copy() for a in nn.init_state(net, rng.stream(8, "plus_init")).weights]
    b_ = [a.copy() for a in nn.init_state(net, rng.stream(8, "plus_init")).biases]
    vw = [np.zeros_like(a) for a in w]
    vb = [np.zeros_like(a) for a in b_]
    shuffle = rng.stream(8, "shuffle", 1)
    for idx in engine._make_batches(view.n, 64, shuffle):
        mask = trusted[idx]
        w, b_, vw, vb, _ = straight_line_step(w, b_, vw, vb, view.features[idx],
                                              view.labels[idx], mask,
                                              int(mask.sum()), one.lr_at(1),
                                              one.momentum)
    assert all(np.array_equal(x, y) for x, y in zip(w, plus.final_state.weights))
    assert all(np.array_equal(x, y) for x, y in zip(b_, plus.final_state.biases))

    # (b) ten plus epochs on the targets of an explicitly empty refurbished
    # set match both the library's masked phase-II update and the oracle,
    # stepwise
    empty = empty_refurbished(view.n)
    labels, member = refurbish.epoch_targets(empty, trusted, view.labels)
    state_a = nn.init_state(net, rng.stream(8, "plus_init"))
    state_b = state_a.copy()
    hist_a = mem.PredictionHistory(view.n, 4, 3)
    w, b_ = [a.copy() for a in state_a.weights], [a.copy() for a in state_a.biases]
    vw = [np.zeros_like(a) for a in w]
    vb = [np.zeros_like(a) for a in b_]
    steps = 0
    for epoch in range(1, 11):
        records = []
        engine.train_epoch(view, state_a, hist_a, cfg, epoch, 8, labels, member,
                           step_hook=records.append)
        shuffle = rng.stream(8, "shuffle", epoch)
        batches = engine._make_batches(view.n, 64, shuffle)
        assert len(records) == len(batches)
        for rec, idx in zip(records, batches):
            assert np.array_equal(rec.indices, idx)
            mask = trusted[idx]
            n_used = rec.n_used
            assert n_used == int(mask.sum())
            if n_used:
                _, grads, _, _ = nn.loss_grad_probs(view.features[idx], view.labels[idx],
                                                    state_b, sample_mask=mask,
                                                    denom=n_used)
                nn.sgd_step(state_b, grads, cfg, epoch)
            w, b_, vw, vb, _ = straight_line_step(w, b_, vw, vb, view.features[idx],
                                                  view.labels[idx], mask, n_used,
                                                  cfg.lr_at(epoch), cfg.momentum)
            for got, via_lib, via_oracle in ((rec.after.weights, state_b.weights, w),
                                             (rec.after.biases, state_b.biases, b_)):
                assert all(np.array_equal(x, y) for x, y in zip(got, via_lib))
                assert all(np.array_equal(x, y) for x, y in zip(got, via_oracle))
            steps += 1

    # disjointness: enforced on overlap, and holds throughout a real run
    overlap = refurbish.RefurbishedSet(np.full(view.n, 1, dtype=np.int64),
                                       np.zeros(view.n), trusted.copy())
    try:
        refurbish.epoch_targets(overlap, trusted, view.labels)
        raise AssertionError("overlapping refurbished/trusted sets were accepted")
    except ValueError:
        pass
    seen = []
    real_cfg = refurbish.RefurbishConfig(0.05, trusted)
    refurbish.run_prestopping_plus(
        view, trusted, net, cfg, q=4, epsilon=0.05, seed=8,
        observer=lambda ctx: seen.append(
            refurbish.refurbish_candidates(ctx.histories, real_cfg).mask))
    assert seen and all(not np.any(m & trusted) for m in seen)

    # mixed two-term loss: refurbished plus trusted members, summed and
    # divided by the union count, computed independently
    hist = mem.PredictionHistory(view.n, 4, 3)
    for _ in range(4):
        hist.record_batch(np.arange(view.n), np.zeros(view.n, dtype=np.int64))
    cand = refurbish.refurbish_candidates(hist, refurbish.RefurbishConfig(0.0, trusted))
    idx = np.concatenate([np.nonzero(cand.mask)[0][:2], np.nonzero(trusted)[0][:3],
                          np.nonzero(~cand.mask & ~trusted)[0][:3]])
    labels, member = refurbish.epoch_targets(cand, trusted, view.labels)
    sub = data.DataView(view.features[idx], view.labels[idx], view.n_classes)
    state = nn.init_state(net, rng.stream(9, "init"))
    records = []
    engine.train_epoch(sub, state.copy(), mem.PredictionHistory(len(idx), 4, 3), cfg,
                       1, 9, labels[idx], member[idx], step_hook=records.append)
    (rec,) = records
    n_used = rec.n_used
    assert n_used == 5
    got_loss = nn.loss_grad_probs(sub.features, labels[idx], state,
                                  sample_mask=member[idx], denom=n_used)[0]
    probs, _ = straight_line_forward(state.weights, state.biases, sub.features)
    total = 0.0
    want_labels, want_mask = view.labels[idx].copy(), np.zeros(len(idx), dtype=bool)
    for row, i in enumerate(idx):
        if cand.mask[i]:
            total += -np.log(probs[row, cand.labels[i]])
            want_labels[row], want_mask[row] = cand.labels[i], True
        elif trusted[i]:
            total += -np.log(probs[row, view.labels[i]])
            want_mask[row] = True
    assert got_loss == float(total) / 5
    # the same batch through the epoch loop: one update with the substituted
    # labels, divided by the union count
    order = rec.indices
    w, b_, _, _, _ = straight_line_step(state.weights, state.biases, state.vel_w,
                                        state.vel_b, sub.features[order],
                                        want_labels[order], want_mask[order], 5,
                                        cfg.lr_at(1), cfg.momentum)
    assert all(np.array_equal(x, y) for x, y in zip(w + b_,
                                                    rec.after.weights + rec.after.biases))
    print(f"ACCEPTANCE 09 PASS - empty-refurbishment collapse bitwise over "
          f"{steps} steps, disjointness enforced, mixed loss exact")


# ----- supporting trend checks (measured examples, frozen at calibration) -----

def test_trend_stop_epoch_tracks_memorization_cross(desk):
    gaps = []
    for seed in SEEDS:
        run = desk.run("prestopping", "pair", 0.4, seed)
        gaps.append(abs(run.stop_epoch - run.cross_epoch()))
    assert all(gap <= 5 for gap in gaps), f"stop-vs-cross gaps {gaps} exceed 5 epochs"


def test_trend_phase2_keeps_improving_safe_set(desk):
    for seed in SEEDS:
        p2 = desk.run("prestopping", "pair", 0.4, seed).phase_rows("phase2")
        assert p2[-1].mp >= p2[0].mp
        assert p2[-1].mr >= p2[0].mr


def test_trend_loss_separation_cleaner_under_symmetric_noise(desk):
    for seed in SEEDS:
        overlaps = {}
        for noise in ("symmetric", "pair"):
            hist = desk.run("default", noise, 0.4, seed).histogram
            assert hist is not None
            overlaps[noise] = float(np.minimum(hist.clean_density,
                                               hist.noisy_density).sum())
        assert overlaps["symmetric"] < overlaps["pair"], overlaps


def test_trend_short_history_is_not_better(desk):
    means = {}
    for q in (1, 10):
        means[q] = float(np.mean([
            desk.run("prestopping", "symmetric", 0.4, s, q=q).best_test_error
            for s in SEEDS]))
    assert means[1] >= means[10], f"q=1 outperformed q=10: {means}"


# ----- criterion 10: determinism and budget (keep this test last) -----

def test_c10_determinism_and_time_budget(tmp_path):
    flags = []
    for key, value in dict(noise="pair", tau=0.4, method="prestopping",
                           seeds="0", epochs=60, hidden="128,64", spread=0.3,
                           q=10).items():
        flags += [f"--{key}", str(value)]
    assert cli.main(["run"] + flags + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run"] + flags + ["--out", str(tmp_path / "b")]) == 0
    rel = "prestopping/pair_0.4/seed0/metrics.csv"
    a = (tmp_path / "a" / rel).read_bytes()
    assert a == (tmp_path / "b" / rel).read_bytes(), "reruns differ"
    assert len(a) > 0
    elapsed = time.perf_counter() - MODULE_T0
    assert elapsed < 1800.0, f"acceptance suite took {elapsed:.0f}s (budget 30min)"
    print(f"ACCEPTANCE 10 PASS - rerun bit-identical, suite elapsed {elapsed:.0f}s "
          f"of 1800s budget")
