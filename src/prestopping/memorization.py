"""Per-sample prediction histories and the memorization diagnostic.

A sample counts as memorized when the most frequent label in its recent
prediction history equals its (noisy) training label. Histories are ring
buffers of the last q predicted labels; until q predictions exist, label
frequencies use the current history length as denominator. Each sample keeps
three things: its ring, its label counts over the ring, and one counter of
the predictions it has recorded. The counter alone gives the history length,
min(recorded, q), and the next write slot, recorded % q. The label counts are
kept up to date as labels are recorded, so no query recounts the rings.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import check_labels

HISTORY_MAGIC = b"PSTH1"
MAX_Q = 255  # history entries and lengths are stored as single bytes
MAX_CLASSES = 256  # so are the predicted labels


class PredictionHistory:
    """Fixed-capacity prediction ring buffers for n_samples samples."""

    def __init__(self, n_samples: int, q: int, n_classes: int):
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        if not 1 <= q <= MAX_Q:
            raise ValueError(f"q must lie in [1, {MAX_Q}], got {q}")
        if not 2 <= n_classes <= MAX_CLASSES:
            raise ValueError(f"n_classes must lie in [2, {MAX_CLASSES}], got {n_classes}")
        self.n_samples = int(n_samples)
        self.q = int(q)
        self.n_classes = int(n_classes)
        self._buf = np.zeros((n_samples, q), dtype=np.uint8)
        self._recorded = np.zeros(n_samples, dtype=np.int64)  # predictions so far
        # (n, k) occurrences of each label in each ring; a count never exceeds q
        self._counts = np.zeros((n_samples, n_classes), dtype=np.uint8)

    # ----- recording -----

    def record(self, index: int, label: int) -> None:
        """Append one predicted label, evicting the oldest once q are stored."""
        self.record_batch(np.array([index]), np.array([label]))

    def record_batch(self, indices, labels) -> None:
        indices = self._checked(indices)
        labels = check_labels(labels, self.n_classes)
        if indices.shape != labels.shape:
            raise ValueError("indices and labels disagree on shape")
        if len(indices) == 0:
            return
        if np.bincount(indices).max() > 1:
            raise ValueError("duplicate sample indices in one recording call")
        recorded = self._recorded[indices]
        slot = recorded % self.q
        cells = indices * self.n_classes  # row starts in the flat count table
        counts = self._counts.reshape(-1)
        # a full ring's write evicts its oldest label; distinct indices never
        # repeat a cell within one statement
        counts[cells + self._buf[indices, slot]] -= recorded >= self.q
        counts[cells + labels] += 1
        self._buf[indices, slot] = labels
        self._recorded[indices] = recorded + 1

    def _checked(self, indices) -> np.ndarray:
        """indices, one sample index or an array of them, as int64 in [0, n_samples)."""
        indices = np.asarray(indices)
        if indices.size and indices.dtype.kind not in "iu":
            raise ValueError(f"sample indices must be integers, got {indices.dtype}")
        indices = indices.astype(np.int64, copy=False)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_samples):
            raise ValueError(f"sample index out of range [0, {self.n_samples})")
        return indices

    # ----- queries -----

    def history_length(self, index: int) -> int:
        return min(int(self._recorded[self._checked(index)]), self.q)

    def history_of(self, index: int) -> np.ndarray:
        """Recorded labels oldest to newest."""
        index = self._checked(index)
        recorded = self._recorded[index]
        if recorded < self.q:
            return self._buf[index, :recorded].astype(np.int64)
        return np.roll(self._buf[index], -(recorded % self.q)).astype(np.int64)

    def label_counts(self, indices=None) -> np.ndarray:
        """(m, n_classes) occurrence counts over each sample's current history."""
        counts = self._counts if indices is None else self._counts[self._checked(indices)]
        return counts.astype(np.int64)

    def label_probability(self, index: int, label: int) -> float:
        """Frequency of label in the sample's history; error when history is empty."""
        label = check_labels([label], self.n_classes, "label")[0]
        index = self._checked(index)
        recorded = self._recorded[index]
        if recorded == 0:
            raise ValueError(f"sample {index} has an empty history")
        return float(self._counts[index, label]) / float(min(recorded, self.q))

    def is_memorized(self, index: int, noisy_label: int) -> bool:
        """Most frequent history label equals the training label (ties: smallest)."""
        return bool(self.memorized_mask(np.array([noisy_label]), np.array([index]))[0])

    def memorized_mask(self, noisy_labels, indices=None) -> np.ndarray:
        """Vectorized memorization predicate; empty histories are never memorized.

        noisy_labels align with indices, or with every sample when indices is None.
        """
        counts, recorded = self._counts, self._recorded
        if indices is not None:
            indices = self._checked(indices)
            counts, recorded = counts[indices], recorded[indices]
        noisy_labels = check_labels(noisy_labels, self.n_classes, "noisy_labels")
        if len(noisy_labels) != len(recorded):
            raise ValueError(f"noisy_labels must align with {len(recorded)} samples, "
                             f"got {len(noisy_labels)}")
        top = np.argmax(counts, axis=1)  # first max = smallest class on ties
        return (recorded > 0) & (top == noisy_labels)

    # ----- lifecycle -----

    def copy(self) -> "PredictionHistory":
        dup = PredictionHistory(self.n_samples, self.q, self.n_classes)
        dup._buf = self._buf.copy()
        dup._recorded = self._recorded.copy()
        dup._counts = self._counts.copy()
        return dup

    # ----- sidecar file format -----
    # header: magic "PSTH1", u32 n_samples, u32 q; then per sample a u8 length
    # followed by that many u8 labels, oldest first

    def save(self, path) -> None:
        # row i of table is sample i's length byte, then its ring oldest first
        # (the oldest stored prediction, number recorded - length, sits in
        # slot (recorded - length) % q); the cells past each length are
        # masked out, and row-major order concatenates the records
        length = np.minimum(self._recorded, self.q)
        ring = (self._recorded - length)[:, None] + np.arange(self.q)
        table = np.empty((self.n_samples, self.q + 1), dtype=np.uint8)
        table[:, 0] = length
        table[:, 1:] = np.take_along_axis(self._buf, ring % self.q, axis=1)
        body = table[np.arange(self.q + 1) <= length[:, None]]
        with open(path, "wb") as fh:
            fh.write(HISTORY_MAGIC)
            fh.write(struct.pack("<II", self.n_samples, self.q))
            fh.write(body.tobytes())

    @classmethod
    def load(cls, path, n_classes: int) -> "PredictionHistory":
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:5] != HISTORY_MAGIC:
            raise ValueError(f"{path}: bad magic {raw[:5]!r}, expected {HISTORY_MAGIC!r}")
        if len(raw) < 13:
            raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
        n, q = struct.unpack_from("<II", raw, 5)
        if len(raw) < 13 + n:  # a length byte per sample; checked before allocating
            raise ValueError(f"{path}: truncated: {n} samples in {len(raw) - 13} body bytes")
        try:
            hist = cls(n, q, n_classes)
        except ValueError as exc:
            raise ValueError(f"{path}: bad header: {exc}") from None
        lengths = np.zeros(n, dtype=np.int64)
        table = np.zeros((n, q), dtype=np.uint8)  # row i: sample i's labels, oldest first
        off = 13
        for i in range(n):
            if off >= len(raw) or off + 1 + raw[off] > len(raw):
                raise ValueError(f"{path}: truncated at sample {i}")
            length = raw[off]
            off += 1
            if length > q:
                raise ValueError(f"{path}: sample {i} claims {length} entries, q={q}")
            seq = raw[off:off + length]
            off += length
            if seq and max(seq) >= n_classes:
                raise ValueError(f"{path}: sample {i} has label {max(seq)} "
                                 f">= n_classes {n_classes}")
            table[i, :length] = np.frombuffer(seq, dtype=np.uint8)
            lengths[i] = length
        if off != len(raw):
            raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
        for j in range(q):  # one recording call per slot, over the samples that stored one
            indices = np.flatnonzero(lengths > j)
            hist.record_batch(indices, table[indices, j])
        return hist


def mp_mr(memorized, noisy_labels, true_labels) -> tuple[float, float]:
    """Memorization precision and recall against the true labels.

    Precision: fraction of memorized samples whose noisy label is correct
    (defined as 1.0 when nothing is memorized). Recall: fraction of
    correctly-labeled samples that are memorized.
    """
    memorized = np.asarray(memorized, dtype=bool)
    noisy_labels = np.asarray(noisy_labels)
    true_labels = np.asarray(true_labels)
    clean = noisy_labels == true_labels
    hit = int(np.count_nonzero(memorized & clean))
    m_count = int(np.count_nonzero(memorized))
    c_count = int(np.count_nonzero(clean))
    precision = hit / m_count if m_count else 1.0
    recall = hit / c_count if c_count else 1.0
    return precision, recall
