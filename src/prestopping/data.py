"""Datasets with paired noisy/true labels, label-noise injection, splits, CSV IO.

True labels ride along for evaluation only. Training code receives a DataView,
which structurally cannot expose them; the split's validation and test views
are clean by protocol (split happens before noise injection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def parse_number(text: str, kind=float):
    """kind(text) for ASCII text without '_': the one grammar for every number read
    from text. Python's int and float alone would read '6_0' as 60 and any Unicode
    digit ('１０', '٣') as its value; here both are a ValueError. Surrounding
    spaces, a sign, an exponent and the nan/inf spellings pass as kind reads them."""
    if not _plain(text):
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def _plain(text: str) -> bool:
    """parse_number's rule for the characters of a number: ASCII without '_'."""
    return text.isascii() and "_" not in text


def format_cell(value) -> str:
    """The one rule for every number written as text, the twin of parse_number: a
    float by repr, which parse_number reads back exactly, None as an empty cell,
    anything else by str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_table(fh, header, rows) -> None:
    """The header line, if any, then each row as one line of comma-separated cells."""
    if header:
        fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(map(format_cell, row)) + "\n")


def check_labels(labels, n_classes: int, name: str = "labels", n=None) -> np.ndarray:
    """labels as a 1-D int64 array in [0, n_classes); int64 input is not copied.

    The one rule for every label input: a non-empty one must be of an integer
    dtype (floats are not truncated, bools are not classes), 1-D and in range;
    with n given, any must hold n labels. Each message starts with name.
    """
    labels = np.asarray(labels)
    if labels.size:
        if labels.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integers, got {labels.dtype}")
        if labels.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {labels.shape}")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError(f"{name} must lie in [0, {n_classes}), got range "
                             f"[{labels.min()}, {labels.max()}]")
    return _sized(labels.astype(np.int64, copy=False), n, name)


def check_mask(mask, n, name: str) -> np.ndarray:
    """mask as a 1-D bool array of length n (any length when n is None); bool input
    is not copied. The one rule for every per-sample mask: a non-empty input must be
    1-D bool, so no integer or float mask is read as truthy; an empty input of any
    dtype is an empty mask. Each message starts with name."""
    mask = np.asarray(mask)
    if mask.size and (mask.dtype != bool or mask.ndim != 1):
        raise ValueError(f"{name} must be a 1-D bool array, got {mask.dtype} of shape "
                         f"{mask.shape}")
    return _sized(mask.astype(bool, copy=False), n, name)


def _sized(values: np.ndarray, n, name: str) -> np.ndarray:
    """values, once they are n entries along one axis (any number when n is None)."""
    if n is not None and values.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {values.shape}")
    return values


def check_features(features, width=None) -> np.ndarray:
    """features as a 2-D float64 array, of width columns unless width is None;
    float64 input is not copied. The one rule for every feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or width is not None and features.shape[1] != width:
        columns = "" if width is None else f" of {width} columns"
        raise ValueError(f"features must be a 2-D array{columns}, got shape {features.shape}")
    return features


@dataclass(frozen=True)
class DataView:
    """What training is allowed to see: features and one label per sample."""
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", check_features(self.features))
        object.__setattr__(self, "labels", check_labels(self.labels, self.n_classes,
                                                        n=len(self.features)))

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
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        object.__setattr__(self, "features", check_features(self.features))
        for name in ("noisy_labels", "true_labels"):
            object.__setattr__(self, name, check_labels(getattr(self, name), self.n_classes,
                                                        name, len(self.features)))

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
        for name in ("validation_size", "test_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


# ----- synthesis -----

def synth_gaussian(n_classes: int, per_class: int, dim: int, spread: float,
                   seed: int) -> NoisyDataset:
    """Gaussian blobs: class centers on the unit sphere, isotropic spread around them."""
    check_synthetic(n_classes, per_class, dim, spread)
    g = np.random.default_rng(seed)
    centers = g.normal(size=(n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_classes), per_class)
    feats = centers[labels] + spread * g.normal(size=(len(labels), dim))
    return NoisyDataset(feats, labels, labels.copy(), n_classes)


def check_synthetic(n_classes: int, per_class: int, dim: int, spread: float) -> None:
    """The one rule for synth_gaussian's parameters; each message starts with its name."""
    for name, value, least in (("n_classes", n_classes, 2), ("per_class", per_class, 1),
                               ("dim", dim, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if not 0 <= spread < np.inf:
        raise ValueError(f"spread must be non-negative and finite, got {spread}")


# ----- noise -----

def build_symmetric_matrix(n_classes: int, tau: float) -> TransitionMatrix:
    """1 - tau on the diagonal, tau spread uniformly over the other classes."""
    check_tau(tau)
    k = n_classes
    m = np.full((k, k), tau / (k - 1))
    np.fill_diagonal(m, 1.0 - tau)
    return TransitionMatrix(m)


def build_pair_matrix(n_classes: int, tau: float) -> TransitionMatrix:
    """1 - tau on the diagonal, tau on the next class (wrapping around)."""
    check_tau(tau)
    k = n_classes
    m = np.zeros((k, k))
    for i in range(k):
        m[i, i] = 1.0 - tau
        m[i, (i + 1) % k] = tau
    return TransitionMatrix(m)


def check_tau(tau: float) -> None:
    """The one range rule for the noise rate tau."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")


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

def check_split(spec: SplitSpec, n: int) -> None:
    """The one rule for a split's total: spec leaves training samples out of n."""
    if spec.validation_size + spec.test_size >= n:
        raise ValueError(f"validation_size {spec.validation_size} + test_size "
                         f"{spec.test_size} leave no training samples out of {n}")


def split(dataset: NoisyDataset, spec: SplitSpec):
    """Disjoint (train dataset, validation view, test view); views are clean."""
    n = dataset.n
    check_split(spec, n)
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

def load_csv(path, n_classes: int | None = None) -> NoisyDataset:
    """Parse a feature+label CSV; errors name the offending 1-indexed line.

    A header line fixes the label columns by name. Without one, the first
    data row fixes them for the whole file: two trailing integer cells (in a
    row of at least three) are the noisy and true label; otherwise the last
    cell is the only label, read as both noisy and true.
    """
    feats, noisy, true, linenos = [], [], [], []
    width = n_labels = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():  # an undecodable byte reads as a lone surrogate
                raise ValueError(f"{path}: line {lineno}: a CSV file is ASCII, got "
                                 f"{line.rstrip().encode(errors='surrogateescape')!r}")
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                if len(cells) < 2:
                    raise ValueError(f"{path}: line {lineno}: need at least one "
                                     f"feature column and a label")
                width = len(cells)
                if not all(_is_number(c, float) for c in cells):
                    n_labels = _header_labels(cells, path, lineno)
                    continue
                two = len(cells) >= 3 and all(_is_number(c, int) for c in cells[-2:])
                n_labels = 2 if two else 1
            if len(cells) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} columns, "
                                 f"got {len(cells)}")
            try:  # parse_number on each cell, its character rule checked once per line
                if not _plain(line):
                    raise ValueError(line)
                row = [float(c) for c in cells[:-n_labels]]
                labels = [np.int64(c) for c in cells[-n_labels:]]
            except (ValueError, OverflowError):
                raise _cell_error(cells, n_labels, path, lineno) from None
            feats.append(row)
            noisy.append(labels[0])
            true.append(labels[-1])
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


def _cell_error(cells, n_labels, path, lineno) -> ValueError:
    """The error naming a row's first cell that parse_number cannot read: a feature
    float, or one of the n_labels trailing labels, plain integers that fit int64."""
    for j, cell in enumerate(cells):
        what, kind = ("feature", float) if j < len(cells) - n_labels else ("label", np.int64)
        try:
            parse_number(cell, kind)
        except (ValueError, OverflowError):
            return ValueError(f"{path}: line {lineno}: invalid {what} {cell!r}")


def _is_number(cell: str, kind) -> bool:
    try:
        parse_number(cell, kind)
        return True
    except ValueError:
        return False
