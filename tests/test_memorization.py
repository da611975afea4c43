"""Prediction histories and the memorization predicate against a full-log oracle."""

import struct
from collections import Counter

import numpy as np
import pytest

from prestopping import memorization as mem
from prestopping import rng


class FullLogOracle:
    """Keeps every recorded label and recomputes everything from scratch."""

    def __init__(self, n, q, k):
        self.q, self.k = q, k
        self.logs = [[] for _ in range(n)]

    def record(self, i, label):
        self.logs[i].append(int(label))

    def window(self, i):
        return self.logs[i][-self.q:]

    def probability(self, i, label):
        w = self.window(i)
        return Counter(w)[label] / len(w)

    def memorized(self, i, noisy):
        w = self.window(i)
        if not w:
            return False
        counts = Counter(w)
        best = max(counts.values())
        top = min(label for label, c in counts.items() if c == best)
        return top == noisy


# ----- hand-checked basics -----

def test_majority_label_memorized():
    h = mem.PredictionHistory(1, q=3, n_classes=4)
    for label in (2, 2, 1):
        h.record(0, label)
    assert h.is_memorized(0, 2)
    assert not h.is_memorized(0, 1)
    assert h.label_probability(0, 2) == pytest.approx(2 / 3)
    assert h.label_probability(0, 1) == pytest.approx(1 / 3)


def test_tie_breaks_to_smallest_class():
    h = mem.PredictionHistory(1, q=4, n_classes=4)
    h.record(0, 1)
    h.record(0, 0)
    assert h.is_memorized(0, 0)
    assert not h.is_memorized(0, 1)


def test_empty_history_not_memorized():
    h = mem.PredictionHistory(2, q=5, n_classes=3)
    assert not h.is_memorized(0, 0)
    with pytest.raises(ValueError):
        h.label_probability(0, 0)


def test_partial_history_uses_current_length():
    h = mem.PredictionHistory(1, q=10, n_classes=3)
    for label in (1, 1, 2):
        h.record(0, label)
    assert h.history_length(0) == 3
    assert h.label_probability(0, 1) == pytest.approx(2 / 3)


def test_ring_evicts_oldest():
    h = mem.PredictionHistory(1, q=3, n_classes=4)
    for label in (0, 1, 2, 3):
        h.record(0, label)
    assert np.array_equal(h.history_of(0), [1, 2, 3])
    assert h.history_length(0) == 3
    # the evicted 0 no longer counts
    assert h.label_probability(0, 0) == 0.0


def test_q1_tracks_latest_prediction():
    h = mem.PredictionHistory(1, q=1, n_classes=5)
    g = rng.stream(3, "q1")
    last = None
    for _ in range(30):
        label = int(g.integers(0, 5))
        h.record(0, label)
        last = label
        for y in range(5):
            assert h.is_memorized(0, y) == (y == last)


# ----- randomized agreement with the oracle -----

def test_random_histories_match_full_log_oracle():
    g = rng.stream(2025, "histories")
    for trial in range(40):
        n = int(g.integers(1, 8))
        q = int(g.integers(1, 7))
        k = int(g.integers(2, 6))
        h = mem.PredictionHistory(n, q, k)
        oracle = FullLogOracle(n, q, k)
        for _ in range(int(g.integers(1, 60))):
            i = int(g.integers(0, n))
            label = int(g.integers(0, k))
            h.record(i, label)
            oracle.record(i, label)
        for i in range(n):
            assert np.array_equal(h.history_of(i), oracle.window(i))
            for y in range(k):
                assert h.is_memorized(i, y) == oracle.memorized(i, y)
                if oracle.window(i):
                    assert h.label_probability(i, y) == pytest.approx(
                        oracle.probability(i, y), abs=1e-12)


def test_memorized_mask_matches_per_sample_calls():
    g = rng.stream(7, "mask")
    h = mem.PredictionHistory(50, q=5, n_classes=4)
    for _ in range(12):
        idx = g.permutation(50)[:25]
        h.record_batch(idx, g.integers(0, 4, size=25))
    noisy = g.integers(0, 4, size=50)
    mask = h.memorized_mask(noisy)
    for i in range(50):
        assert mask[i] == h.is_memorized(i, noisy[i])
    with pytest.raises(ValueError, match="noisy_labels must align with 50 samples, got 49"):
        h.memorized_mask(noisy[1:])


# ----- precision / recall -----

def test_mp_mr_hand_case():
    # 6 samples: memorized {0,1,2}; correct labels {0,1,4}
    memorized = np.array([True, True, True, False, False, False])
    noisy = np.array([0, 1, 2, 0, 1, 2])
    true = np.array([0, 1, 3, 2, 0, 1])  # samples 0, 1 correct; 4 would be if memorized
    mp, mr = mem.mp_mr(memorized, noisy, true)
    assert mp == pytest.approx(2 / 3)
    assert mr == pytest.approx(2 / 2)


def test_mp_empty_memorized_set_is_one():
    memorized = np.zeros(4, dtype=bool)
    noisy = np.array([0, 1, 2, 3])
    true = np.array([0, 0, 2, 2])
    mp, mr = mem.mp_mr(memorized, noisy, true)
    assert mp == 1.0
    assert mr == 0.0


def test_mp_mr_matches_set_arithmetic_oracle():
    g = rng.stream(11, "mpmr")
    for _ in range(100):
        n = int(g.integers(1, 101))
        memorized = g.random(n) < g.random()
        noisy = g.integers(0, 5, size=n)
        true = g.integers(0, 5, size=n)
        m_set = {i for i in range(n) if memorized[i]}
        clean_set = {i for i in range(n) if noisy[i] == true[i]}
        inter = len(m_set & clean_set)
        want_mp = inter / len(m_set) if m_set else 1.0
        want_mr = inter / len(clean_set) if clean_set else 1.0
        mp, mr = mem.mp_mr(memorized, noisy, true)
        assert mp == pytest.approx(want_mp, abs=1e-15)
        assert mr == pytest.approx(want_mr, abs=1e-15)


# ----- bulk state -----

def test_constructor_messages_start_with_the_field():
    # the CLI reports these under the config key of the same name
    for args, field in [((0, 3, 3), "n_samples"), ((5, 0, 3), "q"),
                        ((5, mem.MAX_Q + 1, 3), "q"), ((5, 3, 1), "n_classes"),
                        ((5, 3, mem.MAX_CLASSES + 1), "n_classes")]:
        with pytest.raises(ValueError, match=f"^{field} must"):
            mem.PredictionHistory(*args)
    mem.PredictionHistory(1, mem.MAX_Q, mem.MAX_CLASSES)


def test_record_batch_validation():
    h = mem.PredictionHistory(5, q=3, n_classes=3)
    for indices, labels, message in [
            ([0, 0], [1, 2], "duplicate sample indices"),
            ([3, 1, 3], [1, 2, 0], "duplicate sample indices"),
            ([0, 9], [1, 2], "out of range"),
            ([0, 1], [1, 3], "^labels must"),
            ([0, 1], [1], "indices and labels disagree on shape"),
            ([0.0, 1.0], [1, 2], "sample indices must be integers, got float64")]:
        with pytest.raises(ValueError, match=message):
            h.record_batch(indices, labels)
    assert h.history_length(0) == 0 and h.history_length(3) == 0  # nothing recorded


@pytest.mark.parametrize("index", [-1, -3, 3, 4])
@pytest.mark.parametrize("query", [
    lambda h, i: h.history_length(i),
    lambda h, i: h.history_of(i),
    lambda h, i: h.label_probability(i, 1),
    lambda h, i: h.is_memorized(i, 1),
    lambda h, i: h.label_counts([0, i]),
    lambda h, i: h.memorized_mask([1, 1], [0, i]),
], ids=["history_length", "history_of", "label_probability", "is_memorized",
        "label_counts", "memorized_mask"])
def test_queries_reject_indices_outside_the_samples(query, index):
    h = mem.PredictionHistory(3, q=3, n_classes=3)
    h.record_batch([0, 1, 2], [1, 1, 1])
    with pytest.raises(ValueError, match="out of range"):
        query(h, index)


def from_scratch_counts(h) -> np.ndarray:
    """(n, k) label counts of every sample's current history, recounted."""
    return np.array([np.bincount(h.history_of(i), minlength=h.n_classes)
                     for i in range(h.n_samples)], dtype=np.int64)


@pytest.mark.parametrize("q", [1, 2, 5, 10])
def test_kept_label_counts_equal_a_recount(tmp_path, q):
    # enough rounds of random subsets to fill and wrap every ring, some of
    # them with repeated labels, so evicted and new labels often coincide
    n, k = 40, 4
    g = rng.stream(q, "kept-counts")
    h = mem.PredictionHistory(n, q, k)
    for round_ in range(3 * q + 4):
        idx = g.permutation(n)[:g.integers(1, n + 1)]
        h.record_batch(idx, g.integers(0, 1 if round_ % 3 == 0 else k, size=len(idx)))
        counts = h.label_counts()
        assert counts.dtype == np.int64
        assert np.array_equal(counts, from_scratch_counts(h))
        assert np.array_equal(h.label_counts(idx), counts[idx])
    assert np.all(h.label_counts().sum(axis=1) == [h.history_length(i) for i in range(n)])
    dup = h.copy()
    dup.record_batch(np.arange(n), np.zeros(n, dtype=np.int64))
    assert np.array_equal(h.label_counts(), from_scratch_counts(h))
    assert np.array_equal(dup.label_counts(), from_scratch_counts(dup))
    h.save(tmp_path / "hist.psth")
    back = mem.PredictionHistory.load(tmp_path / "hist.psth", n_classes=k)
    assert np.array_equal(back.label_counts(), h.label_counts())
    back.record_batch(np.arange(n), g.integers(0, k, size=n))
    assert np.array_equal(back.label_counts(), from_scratch_counts(back))


def test_copy_is_independent():
    h = mem.PredictionHistory(2, q=3, n_classes=3)
    h.record(0, 1)
    dup = h.copy()
    dup.record(0, 2)
    assert h.history_length(0) == 1
    assert dup.history_length(0) == 2


# ----- sidecar file -----

def test_sidecar_round_trip(tmp_path):
    g = rng.stream(13, "sidecar")
    h = mem.PredictionHistory(20, q=4, n_classes=5)
    # mix of empty, partial and wrapped histories
    for _ in range(9):
        idx = g.permutation(20)[:10]
        h.record_batch(idx, g.integers(0, 5, size=10))
    path = tmp_path / "hist.psth"
    h.save(path)
    back = mem.PredictionHistory.load(path, n_classes=5)
    assert back.q == h.q and back.n_samples == h.n_samples
    for i in range(20):
        assert np.array_equal(back.history_of(i), h.history_of(i))
    noisy = g.integers(0, 5, size=20)
    assert np.array_equal(back.memorized_mask(noisy), h.memorized_mask(noisy))


def reference_sidecar(oracle, n, q) -> bytes:
    """PSTH1 bytes written record by record from the full-log oracle."""
    out = bytearray(mem.HISTORY_MAGIC + struct.pack("<II", n, q))
    for i in range(n):
        window = oracle.window(i)
        out += bytes([len(window)]) + bytes(window)
    return bytes(out)


@pytest.mark.parametrize("q,rounds", [(4, 2), (4, 4), (4, 9), (1, 3), (5, 23)])
def test_sidecar_bytes_match_record_by_record_writer(tmp_path, q, rounds):
    # rounds < q leaves every ring partly filled; more rounds wrap some rings
    # at varying write positions, since each round records a random subset
    n, k = 30, 6
    g = rng.stream(q * 100 + rounds, "sidecar-bytes")
    h, oracle = mem.PredictionHistory(n, q, k), FullLogOracle(n, q, k)
    for _ in range(rounds):
        idx = g.permutation(n)[:g.integers(1, n)]
        labels = g.integers(0, k, size=len(idx))
        h.record_batch(idx, labels)
        for i, label in zip(idx, labels):
            oracle.record(i, label)
    h.save(tmp_path / "hist.psth")
    assert (tmp_path / "hist.psth").read_bytes() == reference_sidecar(oracle, n, q)


def test_sidecar_rejects_corruption(tmp_path):
    h = mem.PredictionHistory(3, q=2, n_classes=3)
    h.record(0, 2)
    path = tmp_path / "hist.psth"
    h.save(path)
    raw = path.read_bytes()
    (tmp_path / "bad.psth").write_bytes(b"WRONG" + raw[5:])
    with pytest.raises(ValueError):
        mem.PredictionHistory.load(tmp_path / "bad.psth", 3)
    (tmp_path / "trunc.psth").write_bytes(raw[:-1])
    with pytest.raises(ValueError):
        mem.PredictionHistory.load(tmp_path / "trunc.psth", 3)
    # cut inside the 13-byte header, and after sample 0's length byte but
    # before its one label: a ValueError naming the file
    for name, cut in (("head.psth", raw[:8]), ("body.psth", raw[:14])):
        (tmp_path / name).write_bytes(cut)
        with pytest.raises(ValueError, match=name):
            mem.PredictionHistory.load(tmp_path / name, 3)
    with pytest.raises(ValueError):
        mem.PredictionHistory.load(path, 2)  # stored label 2 exceeds declared k=2


def test_sidecar_header_errors_name_the_file(tmp_path):
    # headers no history can have, and a sample count far beyond the body,
    # which must fail before buffers for that many samples are allocated
    for n, q, body in ((3, 0, bytes(3)), (0, 2, b""), (3, 300, bytes(3)),
                       (2**32 - 1, 2, b"")):
        path = tmp_path / f"n{n}_q{q}.psth"
        path.write_bytes(mem.HISTORY_MAGIC + struct.pack("<II", n, q) + body)
        with pytest.raises(ValueError, match=path.name):
            mem.PredictionHistory.load(path, 3)
