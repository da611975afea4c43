"""Datasets with paired noisy/true labels, label-noise injection, splits, CSV IO.

True labels ride along for evaluation only. Training code receives a DataView,
which structurally cannot expose them; the split's validation and test views
are clean by protocol (split happens before noise injection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DataView:
    """What training is allowed to see: features and one label per sample."""
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree on length")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class NoisyDataset:
    """Features with noisy and true labels; immutable after construction."""
    features: np.ndarray      # (n, d) float64
    noisy_labels: np.ndarray  # (n,) int64
    true_labels: np.ndarray   # (n,) int64
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "noisy_labels", np.asarray(self.noisy_labels, dtype=np.int64))
        object.__setattr__(self, "true_labels", np.asarray(self.true_labels, dtype=np.int64))
        n = len(self.features)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if len(self.noisy_labels) != n or len(self.true_labels) != n:
            raise ValueError("label arrays disagree with feature count")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        for name, arr in (("noisy", self.noisy_labels), ("true", self.true_labels)):
            if len(arr) and (arr.min() < 0 or arr.max() >= self.n_classes):
                raise ValueError(f"{name} labels must lie in [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return len(self.noisy_labels)

    @property
    def is_noise_free(self) -> bool:
        return bool(np.array_equal(self.noisy_labels, self.true_labels))

    def train_view(self) -> DataView:
        """Training-facing view: features plus noisy labels, nothing else."""
        return DataView(self.features, self.noisy_labels, self.n_classes)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic label corruption matrix: entry [i, j] = P(noisy=j | true=i)."""
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got {m.shape}")
        if m.min() < 0.0:
            raise ValueError("transition probabilities must be non-negative")
        if not np.allclose(m.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition matrix rows must sum to 1")

    @property
    def n_classes(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    validation_size: int
    test_size: int
    seed: int

    def __post_init__(self):
        if self.validation_size < 0 or self.test_size < 0:
            raise ValueError("partition sizes must be non-negative")


# ----- synthesis -----

def synth_gaussian(n_classes: int, per_class: int, dim: int, spread: float,
                   seed: int) -> NoisyDataset:
    """Gaussian blobs: class centers on the unit sphere, isotropic spread around them."""
    if n_classes < 2 or per_class < 1 or dim < 1:
        raise ValueError("need n_classes >= 2, per_class >= 1, dim >= 1")
    if not 0 <= spread < np.inf:
        raise ValueError(f"spread must be non-negative and finite, got {spread}")
    g = np.random.default_rng(seed)
    centers = g.normal(size=(n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_classes), per_class)
    feats = centers[labels] + spread * g.normal(size=(len(labels), dim))
    return NoisyDataset(feats, labels, labels.copy(), n_classes)


# ----- noise -----

def build_symmetric_matrix(n_classes: int, tau: float) -> TransitionMatrix:
    """1 - tau on the diagonal, tau spread uniformly over the other classes."""
    _check_tau(tau)
    k = n_classes
    m = np.full((k, k), tau / (k - 1))
    np.fill_diagonal(m, 1.0 - tau)
    return TransitionMatrix(m)


def build_pair_matrix(n_classes: int, tau: float) -> TransitionMatrix:
    """1 - tau on the diagonal, tau on the next class (wrapping around)."""
    _check_tau(tau)
    k = n_classes
    m = np.zeros((k, k))
    for i in range(k):
        m[i, i] = 1.0 - tau
        m[i, (i + 1) % k] = tau
    return TransitionMatrix(m)


def _check_tau(tau: float):
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"noise rate must lie in [0, 1), got {tau}")


def inject_noise(dataset: NoisyDataset, matrix: TransitionMatrix, seed: int) -> NoisyDataset:
    """Draw each noisy label from the matrix row of its true label."""
    if not dataset.is_noise_free:
        raise ValueError("dataset already carries injected noise")
    if matrix.n_classes != dataset.n_classes:
        raise ValueError(f"matrix is {matrix.n_classes}-class, dataset is "
                         f"{dataset.n_classes}-class")
    g = np.random.default_rng(seed)
    noisy = dataset.true_labels.copy()
    for c in range(dataset.n_classes):
        idx = np.nonzero(dataset.true_labels == c)[0]
        if len(idx):
            noisy[idx] = g.choice(dataset.n_classes, size=len(idx), p=matrix.entries[c])
    return NoisyDataset(dataset.features, noisy, dataset.true_labels, dataset.n_classes)


# ----- partitioning -----

def split(dataset: NoisyDataset, spec: SplitSpec):
    """Disjoint (train dataset, validation view, test view); views are clean."""
    n = dataset.n
    if spec.validation_size + spec.test_size >= n:
        raise ValueError(f"validation {spec.validation_size} + test {spec.test_size} "
                         f"leave no training samples out of {n}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    val_idx = np.sort(perm[:spec.validation_size])
    test_idx = np.sort(perm[spec.validation_size:spec.validation_size + spec.test_size])
    train_idx = np.sort(perm[spec.validation_size + spec.test_size:])
    train = NoisyDataset(dataset.features[train_idx], dataset.noisy_labels[train_idx],
                         dataset.true_labels[train_idx], dataset.n_classes)
    val = (DataView(dataset.features[val_idx], dataset.true_labels[val_idx],
                    dataset.n_classes) if spec.validation_size else None)
    test = (DataView(dataset.features[test_idx], dataset.true_labels[test_idx],
                     dataset.n_classes) if spec.test_size else None)
    return train, val, test


# ----- CSV files -----
# columns: d feature columns, then the noisy label, then optionally the true label;
# an optional first line names them feature_0..feature_{d-1},noisy_label[,true_label]

def write_csv(dataset: NoisyDataset, path) -> None:
    """Full-precision text dump; load_csv(path, n_classes=dataset.n_classes)
    reproduces the dataset exactly."""
    with open(path, "w") as fh:
        for i in range(dataset.n):
            cells = [repr(float(v)) for v in dataset.features[i]]
            cells.append(str(int(dataset.noisy_labels[i])))
            cells.append(str(int(dataset.true_labels[i])))
            fh.write(",".join(cells) + "\n")


def load_csv(path, n_classes: int | None = None) -> NoisyDataset:
    """Parse a feature+label CSV; errors name the offending 1-indexed line.

    A header line fixes the label columns by name. Without one, the first
    data row fixes them for the whole file: two trailing integer cells (in a
    row of at least three) are the noisy and true label; otherwise the last
    cell is the only label, read as both noisy and true.
    """
    feats, noisy, true, linenos = [], [], [], []
    width = n_labels = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                if len(cells) < 2:
                    raise ValueError(f"{path}: line {lineno}: need at least one "
                                     f"feature column and a label")
                width = len(cells)
                if not all(_float_like(c) for c in cells):
                    n_labels = _header_labels(cells, path, lineno)
                    continue
                two = len(cells) >= 3 and all(_int_like(c) for c in cells[-2:])
                n_labels = 2 if two else 1
            if len(cells) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} columns, "
                                 f"got {len(cells)}")
            feats_part, labels_part = _split_row(cells, n_labels, path, lineno)
            feats.append(feats_part)
            noisy.append(labels_part[0])
            true.append(labels_part[-1])
            linenos.append(lineno)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    features = np.array(feats, dtype=np.float64)
    rows, cols = np.nonzero(~np.isfinite(features))
    if len(rows):
        raise ValueError(f"{path}: line {linenos[rows[0]]}: feature "
                         f"{features[rows[0], cols[0]]} is not finite")
    noisy = np.array(noisy, dtype=np.int64)
    true = np.array(true, dtype=np.int64)
    k = int(max(noisy.max(), true.max())) + 1 if n_classes is None else int(n_classes)
    for name, arr in (("noisy", noisy), ("true", true)):
        bad = np.nonzero((arr < 0) | (arr >= k))[0]
        if len(bad):
            raise ValueError(f"{path}: line {linenos[bad[0]]}: {name} label "
                             f"{arr[bad[0]]} out of range for {k} classes")
    return NoisyDataset(features, noisy, true, max(k, 2))


def _header_labels(cells, path, lineno) -> int:
    """Number of label columns a header names; any other header is rejected."""
    names = [c.strip() for c in cells]
    n_labels = 2 if names[-1] == "true_label" else 1
    d = len(names) - n_labels
    expected = [f"feature_{j}" for j in range(d)] + ["noisy_label", "true_label"][:n_labels]
    if d < 1 or names != expected:
        raise ValueError(f"{path}: line {lineno}: expected numbers or the header "
                         f"feature_0,...,feature_<d-1>,noisy_label[,true_label], "
                         f"got {','.join(names)!r}")
    return n_labels


def _split_row(cells, n_labels, path, lineno):
    """Feature floats plus the n_labels trailing integer labels."""
    def parse_int(cell):
        try:
            v = float(cell)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: invalid label {cell!r}") from None
        if not v.is_integer():
            raise ValueError(f"{path}: line {lineno}: label {cell!r} is not an integer")
        return int(v)

    try:
        feats = [float(c) for c in cells[:-n_labels]]
    except ValueError as exc:
        bad = next(c for c in cells[:-n_labels] if not _float_like(c))
        raise ValueError(f"{path}: line {lineno}: invalid feature {bad!r}") from exc
    labels = [parse_int(c) for c in cells[-n_labels:]]
    return feats, labels


def _int_like(cell: str) -> bool:
    try:
        int(cell)
        return True
    except ValueError:
        return False


def _float_like(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
