"""Per-sample prediction histories and the memorization diagnostic.

A sample counts as memorized when the most frequent label in its recent
prediction history equals its (noisy) training label. Histories are ring
buffers of the last q predicted labels; until q predictions exist, label
frequencies use the current history length as denominator. Each sample's
label counts over its ring are kept up to date as labels are recorded, so
no query recounts the rings.
"""

from __future__ import annotations

import struct

import numpy as np

HISTORY_MAGIC = b"PSTH1"
MAX_Q = 255  # history entries and lengths are stored as single bytes
MAX_CLASSES = 256  # so are the predicted labels


class PredictionHistory:
    """Fixed-capacity prediction ring buffers for n_samples samples."""

    def __init__(self, n_samples: int, q: int, n_classes: int):
        if n_samples < 1 or q < 1:
            raise ValueError(f"need n_samples >= 1 and q >= 1, got {n_samples}, {q}")
        if not 2 <= n_classes <= MAX_CLASSES:
            raise ValueError(f"n_classes must be in [2, {MAX_CLASSES}], got {n_classes}")
        if q > MAX_Q:
            raise ValueError(f"q must be at most {MAX_Q}, got {q}")
        self.n_samples = int(n_samples)
        self.q = int(q)
        self.n_classes = int(n_classes)
        self._buf = np.zeros((n_samples, q), dtype=np.uint8)
        self._fill = np.zeros(n_samples, dtype=np.int64)
        self._pos = np.zeros(n_samples, dtype=np.int64)
        # (n, k) occurrences of each label in each ring; a count never exceeds q
        self._counts = np.zeros((n_samples, n_classes), dtype=np.uint8)

    # ----- recording -----

    def record(self, index: int, label: int) -> None:
        """Append one predicted label, evicting the oldest once q are stored."""
        self.record_batch(np.array([index]), np.array([label]))

    def record_batch(self, indices, labels) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if indices.shape != labels.shape:
            raise ValueError("indices and labels disagree on shape")
        if len(indices) == 0:
            return
        ordered = np.sort(indices)  # duplicates end up next to each other
        if ordered[0] < 0 or ordered[-1] >= self.n_samples:
            raise ValueError(f"sample index out of range [0, {self.n_samples})")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError(f"label out of range [0, {self.n_classes})")
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate sample indices in one recording call")
        pos = self._pos[indices]
        cells = indices * self.n_classes  # row starts in the flat count table
        counts = self._counts.reshape(-1)
        # a full ring's write evicts its oldest label; distinct indices never
        # repeat a cell within one statement
        counts[cells + self._buf[indices, pos]] -= self._fill[indices] == self.q
        counts[cells + labels] += 1
        self._buf[indices, pos] = labels
        self._pos[indices] = (pos + 1) % self.q
        self._fill[indices] = np.minimum(self._fill[indices] + 1, self.q)

    # ----- queries -----

    def history_length(self, index: int) -> int:
        return int(self._fill[index])

    def history_of(self, index: int) -> np.ndarray:
        """Recorded labels oldest to newest."""
        fill = self._fill[index]
        if fill < self.q:
            return self._buf[index, :fill].astype(np.int64)
        pos = self._pos[index]
        return np.concatenate([self._buf[index, pos:], self._buf[index, :pos]]).astype(np.int64)

    def label_counts(self, indices=None) -> np.ndarray:
        """(m, n_classes) occurrence counts over each sample's current history."""
        counts = self._counts if indices is None \
            else self._counts[np.asarray(indices, dtype=np.int64)]
        return counts.astype(np.int64)

    def _recount(self) -> None:
        """Rebuild the label counts from the rings."""
        n, k = self.n_samples, self.n_classes
        valid = np.arange(self.q)[None, :] < self._fill[:, None]  # ring order irrelevant
        cells = np.arange(n)[:, None] * k + self._buf  # flat (row, label) cell
        counts = np.bincount(cells[valid], minlength=n * k)
        self._counts = counts.reshape(n, k).astype(np.uint8)

    def label_probability(self, index: int, label: int) -> float:
        """Frequency of label in the sample's history; error when history is empty."""
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label out of range [0, {self.n_classes})")
        fill = self._fill[index]
        if fill == 0:
            raise ValueError(f"sample {index} has an empty history")
        counts = self.label_counts(np.array([index]))[0]
        return float(counts[label]) / float(fill)

    def probabilities(self, index: int) -> np.ndarray:
        """Full label-frequency vector for one sample (sums to 1)."""
        if self._fill[index] == 0:
            raise ValueError(f"sample {index} has an empty history")
        counts = self.label_counts(np.array([index]))[0]
        return counts / float(self._fill[index])

    def is_memorized(self, index: int, noisy_label: int) -> bool:
        """Most frequent history label equals the training label (ties: smallest)."""
        return bool(self.memorized_mask(np.array([noisy_label]), np.array([index]))[0])

    def memorized_mask(self, noisy_labels, indices=None) -> np.ndarray:
        """Vectorized memorization predicate; empty histories are never memorized."""
        if indices is None:
            indices = np.arange(self.n_samples)
        indices = np.asarray(indices, dtype=np.int64)
        noisy_labels = np.asarray(noisy_labels, dtype=np.int64)
        if len(noisy_labels) != len(indices):
            raise ValueError("noisy_labels must align with indices")
        top = np.argmax(self._counts[indices], axis=1)  # first max = smallest class on ties
        return (self._fill[indices] > 0) & (top == noisy_labels)

    # ----- lifecycle -----

    def copy(self) -> "PredictionHistory":
        dup = PredictionHistory(self.n_samples, self.q, self.n_classes)
        dup._buf = self._buf.copy()
        dup._fill = self._fill.copy()
        dup._pos = self._pos.copy()
        dup._counts = self._counts.copy()
        return dup

    # ----- sidecar file format -----
    # header: magic "PSTH1", u32 n_samples, u32 q; then per sample a u8 length
    # followed by that many u8 labels, oldest first

    def save(self, path) -> None:
        # row i of table is sample i's length byte, then its ring oldest first
        # (a full ring starts at the write position); the cells past each
        # length are masked out, and row-major order concatenates the records
        start = np.where(self._fill == self.q, self._pos, 0)
        ring = (start[:, None] + np.arange(self.q)) % self.q
        table = np.empty((self.n_samples, self.q + 1), dtype=np.uint8)
        table[:, 0] = self._fill
        table[:, 1:] = np.take_along_axis(self._buf, ring, axis=1)
        body = table[np.arange(self.q + 1) <= self._fill[:, None]]
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
        hist = cls(n, q, n_classes)
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
            # what recording the labels one by one into an empty buffer leaves
            hist._buf[i, :length] = np.frombuffer(seq, dtype=np.uint8)
            hist._fill[i] = length
            hist._pos[i] = length % q
        if off != len(raw):
            raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
        hist._recount()
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
