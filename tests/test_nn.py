"""Network core: forward/gradient oracles, optimizer arithmetic, checkpoint IO."""

import contextlib
import copy
import pickle
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import flat_vector, straight_line_forward
from prestopping import nn, processes, rng

# ----- fixtures / helpers -----

def small_state(seed=123, sizes=(3, 5, 4)):
    return nn.init_state(nn.NetworkSpec(sizes), rng.stream(seed, "init"))


def rel_err(a, b):
    # guarded relative error; exact-zero pairs count as zero error
    return abs(a - b) / max(1.0, abs(a), abs(b))


def numeric_grad(features, labels, state, arr, idx, h=1e-5):
    """Central finite difference of the mean loss wrt one parameter entry."""
    orig = arr[idx]
    arr[idx] = orig + h
    lp = nn.loss_grad_probs(features, labels, state)[0]
    arr[idx] = orig - h
    lm = nn.loss_grad_probs(features, labels, state)[0]
    arr[idx] = orig
    return (lp - lm) / (2.0 * h)


# ----- spec / config validation -----

def test_spec_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        nn.NetworkSpec((4,))
    with pytest.raises(ValueError):
        nn.NetworkSpec((4, 0, 2))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        nn.OptimizerConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        nn.OptimizerConfig(momentum=1.0)
    with pytest.raises(ValueError):
        nn.OptimizerConfig(decay_points=(0.75, 0.5))
    with pytest.raises(ValueError):
        nn.OptimizerConfig(decay_points=(0.0, 0.5))
    with pytest.raises(ValueError, match="^decay_factor"):
        nn.OptimizerConfig(decay_factor=0.5)
    for value in (float("nan"), float("inf")):  # each message starts with its field
        with pytest.raises(ValueError, match="^base_lr"):
            nn.OptimizerConfig(base_lr=value)
        with pytest.raises(ValueError, match="^decay_factor"):
            nn.OptimizerConfig(decay_factor=value)


def test_lr_schedule_values():
    # base 0.1 divided by 5 at 50% and 75% of 120 epochs
    cfg = nn.OptimizerConfig(total_epochs=120)
    assert cfg.lr_at(1) == 0.1
    assert cfg.lr_at(59) == 0.1
    assert cfg.lr_at(60) == pytest.approx(0.02, rel=1e-12)
    assert cfg.lr_at(89) == pytest.approx(0.02, rel=1e-12)
    assert cfg.lr_at(90) == pytest.approx(0.004, rel=1e-12)
    assert cfg.lr_at(120) == pytest.approx(0.004, rel=1e-12)


def test_batch_validation():
    with pytest.raises(ValueError):
        nn.Batch([0, 0], np.zeros((2, 3)), [0, 1])
    with pytest.raises(ValueError):
        nn.Batch([0, 1], np.zeros((3, 3)), [0, 1])
    with pytest.raises(ValueError):
        nn.Batch([0, 1], np.zeros((2, 3)), [0, -1])
    # the one label rule: floats are not truncated, bools are not classes, no 2-D
    for labels in ([0.9, 1.7], [True, False], [[0], [1]]):
        with pytest.raises(ValueError, match="^labels must"):
            nn.Batch([0, 1], np.zeros((2, 3)), labels)


# ----- init -----

def test_init_bounds_and_zero_biases():
    state = small_state()
    for (fi, fo), w, b, vw, vb in zip(
        [(3, 5), (5, 4)], state.weights, state.biases, state.vel_w, state.vel_b
    ):
        limit = np.sqrt(6.0 / (fi + fo))
        assert w.shape == (fi, fo)
        assert np.all(np.abs(w) <= limit)
        assert np.all(b == 0.0) and np.all(vw == 0.0) and np.all(vb == 0.0)


def test_init_deterministic_per_seed():
    a, b = small_state(7), small_state(7)
    c = small_state(8)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


# ----- forward -----

# frozen output of a straight-line init+forward oracle (uniform glorot draws from
# stream(123, "init"), relu hidden layer, softmax) for spec (3, 5, 4)
GOLDEN_INPUT = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
GOLDEN_PROBS = np.array([
    [0.22491936421962405, 0.3136412632445817, 0.16213946053839381, 0.2992999119974005],
    [0.25, 0.25, 0.25, 0.25],
])


def test_forward_matches_golden_vector():
    state = small_state(123)
    probs = nn.forward(GOLDEN_INPUT, state)
    assert np.allclose(probs, GOLDEN_PROBS, rtol=0.0, atol=1e-12)


def test_forward_is_pure_and_deterministic():
    state = small_state()
    before = [w.copy() for w in state.weights] + [b.copy() for b in state.biases]
    p1 = nn.forward(GOLDEN_INPUT, state)
    p2 = nn.forward(GOLDEN_INPUT, state)
    after = [w.copy() for w in state.weights] + [b.copy() for b in state.biases]
    assert np.array_equal(p1, p2)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_forward_rows_sum_to_one():
    state = small_state(5, sizes=(4, 6, 6, 3))
    x = rng.stream(9, "x").normal(size=(40, 4)) * 3.0
    probs = nn.forward(x, state)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0
    # one output column: the softmax of any logit is exactly 1
    assert np.array_equal(nn.forward(x[:, :3], small_state(5, sizes=(3, 1))), np.ones((40, 1)))


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError):
        nn.forward(np.zeros((2, 4)), small_state())


def test_forward_stable_under_large_logits():
    # scale weights so logits are huge; probabilities must stay finite
    state = small_state()
    for w in state.weights:
        w *= 400.0
    probs = nn.forward(GOLDEN_INPUT, state)
    assert np.all(np.isfinite(probs))


def test_column_row_max_is_bitwise_a_row_reduction():
    g = rng.stream(3, "row-max")
    logits = g.standard_normal((500, 4)) * 30.0
    logits[:100, 1] = logits[:100, 3]  # tied maxima
    logits[100:200] = np.round(logits[100:200])  # ties among small integers
    logits[200:220] = 0.0
    logits[220:240, ::2] = -0.0  # signed zeros, some rows all zero
    logits[230:240, 1::2] = -1.0
    labels = g.integers(0, 4, size=500)
    probs = logits.copy()
    ce = nn._softmax_ce(probs, labels)
    m = logits.max(axis=1, keepdims=True)  # the row reduction it replaces
    expected = np.exp(logits - m)
    s = expected.sum(axis=1, keepdims=True)
    expected /= s
    expected_ce = (m[:, 0] + np.log(s[:, 0])) - logits[np.arange(500), labels]
    assert probs.tobytes() == expected.tobytes()
    assert ce.tobytes() == expected_ce.tobytes()
    no_labels = logits.copy()
    assert nn._softmax_ce(no_labels) is None
    assert no_labels.tobytes() == expected.tobytes()


# ----- loss -----

def test_zero_weight_loss_is_log_k():
    state = small_state()
    for w in state.weights:
        w[:] = 0.0
    loss, _, per_sample, _ = nn.loss_grad_probs(GOLDEN_INPUT, [3, 1], state)
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)
    assert np.allclose(per_sample, np.log(4.0), atol=1e-12)


def test_per_sample_loss_is_neg_log_prob():
    state = small_state()
    labels = np.array([2, 0])
    _, _, per_sample, _ = nn.loss_grad_probs(GOLDEN_INPUT, labels, state)
    probs = nn.forward(GOLDEN_INPUT, state)
    expect = -np.log(probs[np.arange(2), labels])
    assert np.allclose(per_sample, expect, atol=1e-12)


def test_loss_rejects_out_of_range_labels():
    state = small_state()
    with pytest.raises(ValueError):
        nn.loss_grad_probs(GOLDEN_INPUT, [0, 4], state)
    with pytest.raises(ValueError, match="empty batch"):
        nn.loss_grad_probs(np.empty((0, 3)), np.empty(0, dtype=int), state)


@pytest.mark.parametrize("labels", [[0.9, 1.7], np.array([True, False])],
                         ids=["floats", "bools"])
@pytest.mark.parametrize("call", [
    lambda labels, state: nn.per_sample_losses(GOLDEN_INPUT, labels, state),
    lambda labels, state: nn.evaluate_error(GOLDEN_INPUT, labels, state),
    lambda labels, state: nn.loss_grad_probs(GOLDEN_INPUT, labels, state),
], ids=["per_sample_losses", "evaluate_error", "loss_grad_probs"])
def test_label_functions_reject_non_integer_labels(call, labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        call(labels, small_state())


# ----- gradient oracle -----

def away_from_kinks(x, state, margin=1e-3):
    # central differences are invalid across relu kinks; require every hidden
    # preactivation to clear zero by more than any h-sized probe can shift it
    a = x
    for w, b in zip(state.weights[:-1], state.biases[:-1]):
        z = a @ w + b
        if np.any(np.abs(z) < margin):
            return False
        a = np.maximum(z, 0.0)
    return True


def test_gradient_matches_central_differences():
    # >=100 randomized (spec, input, label) cases, 20 probed coordinates each
    meta = rng.stream(2024, "gradcheck")
    for case in range(100):
        depth = meta.integers(1, 3)
        sizes = [int(meta.integers(2, 7))]
        sizes += [int(meta.integers(2, 7)) for _ in range(depth)]
        sizes.append(int(meta.integers(2, 6)))
        state = nn.init_state(nn.NetworkSpec(tuple(sizes)), rng.stream(case, "init"))
        b = int(meta.integers(1, 6))
        x = meta.normal(size=(b, sizes[0])) * 2.0
        while not away_from_kinks(x, state):
            x = meta.normal(size=(b, sizes[0])) * 2.0
        y = meta.integers(0, sizes[-1], size=b)
        _, grad, _, _ = nn.loss_grad_probs(x, y, state)
        gw, gb = nn._layer_views(state.spec, grad)
        for _ in range(20):
            layer = int(meta.integers(0, len(state.weights)))
            if meta.random() < 0.8:
                i = int(meta.integers(0, state.weights[layer].shape[0]))
                j = int(meta.integers(0, state.weights[layer].shape[1]))
                analytic = gw[layer][i, j]
                numeric = numeric_grad(x, y, state, state.weights[layer], (i, j))
            else:
                j = int(meta.integers(0, len(state.biases[layer])))
                analytic = gb[layer][j]
                numeric = numeric_grad(x, y, state, state.biases[layer], (j,))
            assert rel_err(analytic, numeric) < 1e-5


def test_masked_gradient_zero_mask_rows_do_not_leak():
    # gradient with half the batch masked out must ignore those rows entirely
    state = small_state(11)
    x = rng.stream(3, "x").normal(size=(6, 3))
    y = np.array([0, 1, 2, 3, 0, 1])
    mask = np.array([True, False, True, False, True, False])
    _, grad, _, _ = nn.loss_grad_probs(x, y, state, sample_mask=mask, denom=3)
    _, grad2, _, _ = nn.loss_grad_probs(x[mask], y[mask], state)
    assert np.allclose(grad, grad2, atol=1e-14)
    # an integer mask of 2s would double the gradient but not the loss
    with pytest.raises(ValueError, match="sample_mask must be a bool array"):
        nn.loss_grad_probs(x, y, state, sample_mask=2 * mask.astype(int), denom=3)


def test_masked_gradient_full_mask_is_bitwise_plain():
    state = small_state(13)
    x = rng.stream(4, "x").normal(size=(5, 3))
    y = np.array([0, 1, 2, 3, 1])
    l1, grad1, ps1, _ = nn.loss_grad_probs(x, y, state)
    l2, grad2, ps2, _ = nn.loss_grad_probs(x, y, state,
                                           sample_mask=np.ones(5, dtype=bool), denom=5)
    assert l1 == l2
    assert np.array_equal(ps1, ps2)
    assert np.array_equal(grad1, grad2)


def test_gradient_vectors_do_not_share_memory():
    # each call returns a fresh vector: a reused buffer would overwrite the
    # gradient a caller still holds
    state = small_state(13)
    x = rng.stream(4, "x").normal(size=(5, 3))
    grad1 = nn.loss_grad_probs(x, [0, 1, 2, 3, 1], state)[1]
    kept = grad1.copy()
    grad2 = nn.loss_grad_probs(x, [3, 2, 1, 0, 0], state)[1]
    assert grad1.shape == grad2.shape == state.params.shape
    assert not np.shares_memory(grad1, grad2)
    assert not np.shares_memory(grad1, state.params)
    assert np.array_equal(grad1, kept) and not np.array_equal(grad1, grad2)


def test_masked_gradient_requires_positive_denom():
    state = small_state()
    with pytest.raises(ValueError):
        nn.loss_grad_probs(GOLDEN_INPUT, [0, 1], state,
                           sample_mask=np.zeros(2, dtype=bool), denom=0)


# ----- optimizer -----

def test_momentum_two_steps_hand_computed():
    # lr 0.1 momentum 0.9, scalar layer: g1=2.0 -> v=2.0, w=0.8; g2=1.0 -> v=2.8, w=0.52
    spec = nn.NetworkSpec((1, 1))
    state = nn.NetworkState(spec, np.array([1.0, 0.0]), np.zeros(2))  # W0 = [[1]], b0 = [0]
    cfg = nn.OptimizerConfig(base_lr=0.1, momentum=0.9, total_epochs=100)
    nn.sgd_step(state, np.array([2.0, 0.5]), cfg, epoch=1)
    assert state.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)
    assert state.vel_w[0][0, 0] == 2.0
    nn.sgd_step(state, np.array([1.0, 0.25]), cfg, epoch=1)
    assert state.vel_w[0][0, 0] == pytest.approx(2.8, abs=1e-15)
    assert state.weights[0][0, 0] == pytest.approx(0.52, abs=1e-15)
    assert state.biases[0][0] == pytest.approx(-0.12, abs=1e-15)


def test_sgd_step_rejects_mismatched_shapes():
    state = small_state()
    cfg = nn.OptimizerConfig()
    before = state.params.copy()
    for grad in (np.zeros(state.params.size - 1), np.zeros(state.params.size + 4),
                 np.zeros((1, state.params.size))):
        with pytest.raises(ValueError, match="gradient shape"):
            nn.sgd_step(state, grad, cfg, 1)
    assert np.array_equal(state.params, before) and not state.velocity.any()


def test_full_batch_loss_non_increasing_on_separable_toy():
    # two linearly separable clusters, momentum 0, small lr: 50 monotone steps
    g = rng.stream(42, "toy")
    x = np.vstack([g.normal(size=(20, 2)) * 0.1 + [2, 0],
                   g.normal(size=(20, 2)) * 0.1 + [-2, 0]])
    y = np.array([0] * 20 + [1] * 20)
    state = nn.init_state(nn.NetworkSpec((2, 8, 2)), rng.stream(0, "init"))
    cfg = nn.OptimizerConfig(base_lr=0.01, momentum=0.0, total_epochs=1000)
    losses = []
    for _ in range(50):
        loss, grads, _, _ = nn.loss_grad_probs(x, y, state)
        losses.append(loss)
        nn.sgd_step(state, grads, cfg, epoch=1)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# ----- evaluation -----

def test_evaluate_error_and_argmax_tie_break():
    state = small_state()
    for w in state.weights:
        w[:] = 0.0  # uniform probabilities: argmax tie breaks to class 0
    preds = nn.predict_labels(GOLDEN_INPUT, state)
    assert np.array_equal(preds, [0, 0])
    assert nn.evaluate_error(GOLDEN_INPUT, np.array([0, 1]), state) == 0.5
    with pytest.raises(ValueError):
        nn.evaluate_error(np.empty((0, 3)), np.empty(0, dtype=int), state)


def test_evaluation_with_reused_scratch_matches_numpy_oracle():
    # row counts grow and then shrink between calls; two networks alternate,
    # and hidden (64, 64) gives two layers one width
    g = rng.stream(4, "x")
    states = [small_state(1, sizes=(16, 64, 64, 4)), small_state(2, sizes=(16, 128, 64, 4))]
    for state in states:
        for b in state.biases:
            b[...] = g.normal(size=b.shape)
    kept = []
    for n in (1, 32, 500, 4000, 5500, 7):
        for state in states:
            x = g.normal(size=(n, 16)) * 2.0
            labels = g.integers(0, 4, size=n)
            probs, acts = straight_line_forward(state.weights, state.biases, x)
            logits = acts[-1] @ state.weights[-1] + state.biases[-1]
            m = logits.max(axis=1)
            lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
            losses = lse - logits[np.arange(n), labels]
            preds = np.argmax(probs, axis=1)

            got = (nn.forward(x, state), nn.predict_labels(x, state),
                   nn.per_sample_losses(x, labels, state))
            for out, want in zip(got, (probs, preds, losses)):
                assert np.array_equal(out, want)
            assert nn.evaluate_error(x, labels, state) == float(np.mean(preds != labels))
            kept.append((got, [out.copy() for out in got]))
    # no returned array is overwritten by a later call
    for got, frozen in kept:
        assert all(np.array_equal(a, b) for a, b in zip(got, frozen))


# hidden widths that are all multiples of 8 run in row blocks; other widths, and
# the output layer of every network, in one block of all rows
BLOCKED_SIZES = [(16, 128, 64, 4), (16, 256, 128, 10), (16, 128, 128, 128, 4)]
WHOLE_SIZES = [(16, 128, 4, 4), (16, 100, 50, 4), (16, 64, 12, 4), (16, 4)]


@pytest.mark.parametrize("one_thread", [True, False], ids=["one-blas-thread", "default-threads"])
def test_blocked_evaluation_is_bitwise_the_straight_line_pass(one_thread):
    # row counts around one and two blocks, where an uneven split would leave a
    # one-row block, and desk-scale sets of several blocks
    r = nn.EVAL_ROWS
    g = rng.stream(5, "x")
    with processes._one_blas_thread() if one_thread else contextlib.nullcontext():
        for sizes in BLOCKED_SIZES + WHOLE_SIZES:
            state = small_state(3, sizes=sizes)
            for b in state.biases:
                b[...] = g.normal(size=b.shape)
            k = sizes[-1]
            for n in (1, 2, r - 1, r, r + 1, 2 * r + 1, 4000, 5500):
                x = g.normal(size=(n, 16)) * 2.0
                labels = g.integers(0, k, size=n)
                probs, acts = straight_line_forward(state.weights, state.biases, x)
                logits = acts[-1] @ state.weights[-1] + state.biases[-1]
                m = logits.max(axis=1)
                losses = (m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
                          - logits[np.arange(n), labels])
                got = (nn.forward(x, state), nn.predict_labels(x, state),
                       nn.per_sample_losses(x, labels, state))
                for out, want in zip(got, (probs, np.argmax(probs, axis=1), losses)):
                    assert out.tobytes() == want.tobytes(), (sizes, n)


def test_evaluation_holds_one_block_before_the_last_hidden_layer():
    # the whole-set pass keeps only the last hidden layer (4000x64) for all rows;
    # a pass that also held layer 0 for all rows would need a 4000x128 array more
    state = small_state(1, sizes=(16, 128, 64, 4))
    g = rng.stream(6, "x")
    x, labels = g.normal(size=(4000, 16)), g.integers(0, 4, size=4000)
    calls = {"forward": lambda: nn.forward(x, state),
             "per_sample_losses": lambda: nn.per_sample_losses(x, labels, state),
             "evaluate_error": lambda: nn.evaluate_error(x, labels, state)}
    for call in calls.values():
        call()  # warm-up
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 4000 * 128 * 8, (name, peak)
    finally:
        tracemalloc.stop()


def test_concurrent_evaluation_is_bitwise_the_serial_one():
    # two threads evaluating two networks at once share no arrays
    g = rng.stream(7, "x")
    states = [small_state(1, sizes=(16, 128, 64, 4)), small_state(2, sizes=(16, 64, 64, 4))]
    inputs = [(g.normal(size=(1500, 16)), g.integers(0, 4, size=1500)) for _ in states]

    def evaluate(i):
        (x, labels), state = inputs[i], states[i]
        return (nn.forward(x, state).tobytes(), nn.per_sample_losses(x, labels, state).tobytes(),
                nn.evaluate_error(x, labels, state))

    serial = [evaluate(i) for i in range(len(states))]
    start = threading.Barrier(len(states))

    def repeat(i):
        start.wait(timeout=30)
        return [evaluate(i) for _ in range(30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often inside the Python parts of a pass
    try:
        with ThreadPoolExecutor(len(states)) as pool:
            for i, results in enumerate(pool.map(repeat, range(len(states)), timeout=120)):
                assert all(result == serial[i] for result in results), i
    finally:
        sys.setswitchinterval(interval)


# ----- checkpoint format -----

def test_checkpoint_round_trip_bitwise(tmp_path):
    state = small_state(99)
    # make momentum buffers non-trivial before saving
    g = rng.stream(1, "x")
    x, y = g.normal(size=(8, 3)), g.integers(0, 4, size=8)
    cfg = nn.OptimizerConfig()
    for _ in range(3):
        _, grads, _, _ = nn.loss_grad_probs(x, y, state)
        nn.sgd_step(state, grads, cfg, epoch=1)
    path = tmp_path / "net.pstp"
    nn.save_network(state, path)
    back = nn.load_network(path)
    assert back.spec == state.spec
    for a, b in zip(state.weights + state.biases + state.vel_w + state.vel_b,
                    back.weights + back.biases + back.vel_w + back.vel_b):
        assert np.array_equal(a, b)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    state = small_state()
    path = tmp_path / "net.pstp"
    nn.save_network(state, path)
    raw = path.read_bytes()
    (tmp_path / "bad.pstp").write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(ValueError):
        nn.load_network(tmp_path / "bad.pstp")
    (tmp_path / "trunc.pstp").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError):
        nn.load_network(tmp_path / "trunc.pstp")
    # cut inside the header (magic plus 2 of the 4 layer-count bytes) and
    # inside the parameters: a ValueError naming the file, not struct/NumPy errors
    for name, cut in (("head.pstp", raw[:7]), ("body.pstp", raw[:-8])):
        (tmp_path / name).write_bytes(cut)
        with pytest.raises(ValueError, match=name):
            nn.load_network(tmp_path / name)
    # headers NetworkSpec rejects: one layer width (13 bytes), and a zero width
    for name, header in (("one.pstp", struct.pack("<II", 1, 3)),
                         ("zero.pstp", struct.pack("<III", 2, 3, 0))):
        (tmp_path / name).write_bytes(nn.CHECKPOINT_MAGIC + header)
        with pytest.raises(ValueError, match=name):
            nn.load_network(tmp_path / name)


def straight_line_checkpoint(state):
    """PSTP1 bytes written field by field: per layer W then b, then the momentum."""
    sizes = state.spec.layer_sizes
    out = [b"PSTP1", struct.pack("<I", len(sizes)), struct.pack(f"<{len(sizes)}I", *sizes)]
    for arrays in ((state.weights, state.biases), (state.vel_w, state.vel_b)):
        for w, b in zip(*arrays):
            out += [np.asarray(w, dtype="<f8").tobytes(), np.asarray(b, dtype="<f8").tobytes()]
    return b"".join(out)


def test_checkpoint_bytes_are_per_layer_w_then_b(tmp_path):
    state = small_state(5, sizes=(3, 6, 5, 4))
    g = rng.stream(2, "x")
    x, y = g.normal(size=(10, 3)), g.integers(0, 4, size=10)
    cfg = nn.OptimizerConfig()
    for _ in range(3):
        _, grads, _, _ = nn.loss_grad_probs(x, y, state)
        nn.sgd_step(state, grads, cfg, epoch=1)
    path = tmp_path / "net.pstp"
    want = straight_line_checkpoint(state)
    nn.save_network(state, path)
    assert path.read_bytes() == want
    # the same numbers laid out all W first, then all b, are a different file
    all_w_first = [np.concatenate([w.ravel() for w in ws] + list(bs))
                   for ws, bs in ((state.weights, state.biases), (state.vel_w, state.vel_b))]
    state.params[:], state.velocity[:] = all_w_first
    nn.save_network(state, path)
    assert path.read_bytes() != want


def test_state_lists_are_views_of_the_flat_vectors():
    state = small_state(3, sizes=(3, 6, 5, 4))
    layers = [a for pair in zip(state.weights, state.biases) for a in pair]
    assert np.array_equal(state.params, np.concatenate([a.ravel() for a in layers]))
    assert all(np.shares_memory(a, state.params) for a in layers)
    assert all(np.shares_memory(v, state.velocity) for v in state.vel_w + state.vel_b)
    for dup in (state.copy(), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert np.array_equal(dup.params, state.params)
        dup.params += 1.0
        dup.velocity += 1.0
        assert np.array_equal(dup.weights[0], state.weights[0] + 1.0)
        assert np.all(dup.vel_b[-1] == 1.0) and not state.vel_b[-1].any()


def test_state_rejects_vectors_of_the_wrong_length():
    spec = nn.NetworkSpec((3, 5, 4))  # 3*5 + 5 + 5*4 + 4 = 44 parameters
    good = np.zeros(44)
    state = nn.NetworkState(spec, flat_vector([np.ones((3, 5)), np.ones((5, 4))],
                                              [np.zeros(5), np.zeros(4)]), good)
    assert [w.shape for w in state.weights] == [(3, 5), (5, 4)]
    assert all(np.all(w == 1.0) for w in state.weights) and not any(b.any() for b in state.biases)
    for params, velocity, name in ((np.zeros(43), good, "params"),
                                   (good, np.zeros(45), "velocity"),
                                   (good.reshape(4, 11), good, "params")):
        with pytest.raises(ValueError, match=f"^{name} must have shape \\(44,\\)"):
            nn.NetworkState(spec, params, velocity)


# ----- memory layout -----

DESK_SPEC = nn.NetworkSpec((16, 128, 64, 4))  # configs/default.cfg's widths


def kernel_buffers(kernel) -> list:
    """Every array a _TrainKernel allocates."""
    outs, deltas, masks, m, s, index = kernel._full
    return [kernel.grad, kernel.update, *outs, *deltas, *masks, m, s, index]


def on_boundary(arrays) -> list:
    return [a.ctypes.data % 64 == 0 for a in arrays]


def test_aligned_empty_starts_on_a_boundary():
    for shape, dtype in (((), np.float64), (1, bool), ((3, 5), np.intp),
                         ((7, 1), np.float64), (10_692, np.float64)):
        for _ in range(8):  # malloc leaves each at some 16-byte offset
            a = nn.aligned_empty(shape, dtype)
            assert a.shape == np.empty(shape).shape and a.dtype == dtype
            assert a.flags.c_contiguous and a.flags.writeable and a.ctypes.data % 64 == 0


@pytest.mark.parametrize("sizes", [(16, 128, 64, 4), (3, 5, 4), (16, 4)],
                         ids=["desk", "small", "no-hidden"])
@pytest.mark.parametrize("rows", [1, 7, 32, 128])
def test_every_kernel_buffer_starts_on_a_boundary(sizes, rows):
    state = small_state(5, sizes)
    for _ in range(4):
        buffers = kernel_buffers(nn._TrainKernel(state, rows, 0.1))
        assert len(buffers) == 3 * (len(sizes) - 1) + 4  # outputs, deltas, masks per layer
        assert all(on_boundary(buffers))


def test_state_vectors_start_on_a_boundary(tmp_path):
    state = small_state(5, DESK_SPEC.layer_sizes)
    nn.save_network(state, tmp_path / "net.pstp")
    for _ in range(4):
        for dup in (small_state(5, DESK_SPEC.layer_sizes), state.copy(),
                    nn.load_network(tmp_path / "net.pstp")):
            assert all(on_boundary([dup.params, dup.velocity]))
            # 10,692 values, every layer's offset a multiple of 8 values: each view is aligned
            assert all(on_boundary(dup.weights + dup.biases + dup.vel_w + dup.vel_b))
    for sizes in ((3, 5, 4), (16, 4)):
        fresh = small_state(5, sizes)
        assert all(on_boundary([fresh.params, fresh.velocity]))
