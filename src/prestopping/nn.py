"""Small ReLU MLP classifier: exact backprop, momentum SGD, step-decay LR.

All math is float64. The forward pass is pure; training mutates a
NetworkState that is exclusively owned by one training run. Evaluation
writes its layer outputs into per-thread scratch arrays and returns only
fresh arrays; every matrix product keeps the operands and shape of a plain
`a @ w`, so results are bitwise those of an allocating pass.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"PSTP1"
# per-thread evaluation buffers; see _scratch
_SCRATCH = threading.local()


# ----- configuration types -----

@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths input..output; hidden activations are ReLU, output is softmax."""
    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output widths")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer_sizes must all be positive, got {sizes}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class OptimizerConfig:
    """Momentum SGD with the LR divided by decay_factor at each decay point."""
    base_lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 128
    total_epochs: int = 120
    decay_points: tuple[float, ...] = (0.5, 0.75)
    decay_factor: float = 5.0

    def __post_init__(self):
        if not 0 < self.base_lr < np.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.total_epochs <= 0:
            raise ValueError(f"total_epochs must be positive, got {self.total_epochs}")
        pts = tuple(float(p) for p in self.decay_points)
        object.__setattr__(self, "decay_points", pts)
        if any(not 0.0 < p < 1.0 for p in pts) or list(pts) != sorted(set(pts)):
            raise ValueError(f"decay_points must be strictly increasing in (0, 1), got {pts}")
        if not 1.0 <= self.decay_factor < np.inf:
            raise ValueError(f"decay_factor must be finite and >= 1, got {self.decay_factor}")

    def lr_at(self, epoch: int) -> float:
        """LR for a 1-indexed epoch on the global schedule clock."""
        passed = sum(1 for p in self.decay_points if epoch >= p * self.total_epochs)
        return self.base_lr / self.decay_factor ** passed


@dataclass
class Batch:
    """Mini-batch with the dataset indices it was drawn from."""
    indices: np.ndarray   # (b,) int
    features: np.ndarray  # (b, d) float64
    labels: np.ndarray    # (b,) int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        b = len(self.indices)
        if self.features.ndim != 2 or self.features.shape[0] != b or len(self.labels) != b:
            raise ValueError("batch arrays disagree on length")
        if len(np.unique(self.indices)) != b:
            raise ValueError("batch indices must be distinct")
        if b and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")


def _n_params(spec: NetworkSpec) -> int:
    return sum(fan_in * fan_out + fan_out
               for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]))


def _layer_views(spec: NetworkSpec, flat: np.ndarray):
    """Per-layer (weights, biases) views into a flat vector laid out W0, b0, W1, b1, ..."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        weights.append(flat[off:off + fan_in * fan_out].reshape(fan_in, fan_out))
        off += fan_in * fan_out
        biases.append(flat[off:off + fan_out])
        off += fan_out
    return weights, biases


class NetworkState:
    """Parameters plus momentum buffers; exclusively owned by one training run.

    params and velocity are flat float64 vectors in the checkpoint body order
    W0, b0, W1, b1, ...; weights, biases, vel_w and vel_b are per-layer views
    into them, so they always agree with the vectors. The state takes the two
    vectors it is built from as its own; it does not copy them.
    """

    def __init__(self, spec: NetworkSpec, params, velocity):
        count = _n_params(spec)
        for name, vec in (("params", params), ("velocity", velocity)):
            if np.shape(vec) != (count,):
                raise ValueError(f"{name} must have shape ({count},) for {spec.layer_sizes}, "
                                 f"got {np.shape(vec)}")
        self.spec = spec
        self.params = np.asarray(params, dtype=np.float64)
        self.velocity = np.asarray(velocity, dtype=np.float64)
        # per layer (fan_in, fan_out) and (fan_out,); the momentum views match
        self.weights, self.biases = _layer_views(spec, self.params)
        self.vel_w, self.vel_b = _layer_views(spec, self.velocity)

    def copy(self) -> "NetworkState":
        return NetworkState(*self.__reduce__()[1])

    def __reduce__(self):
        # pickle and deepcopy rebuild the views; pickled views would be loose copies
        return NetworkState, (self.spec, self.params.copy(), self.velocity.copy())

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_state(spec: NetworkSpec, rng: np.random.Generator) -> NetworkState:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases and momentum."""
    count = _n_params(spec)
    state = NetworkState(spec, np.zeros(count), np.zeros(count))
    for w in state.weights:  # one draw per layer, in layer order: the bytes depend on it
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return state


# ----- forward / loss / gradient -----

def _check_features(features: np.ndarray, spec: NetworkSpec) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected features of shape (n, {spec.input_dim}), got {x.shape}")
    return x


def _scratch(layer: int, n: int, width: int) -> np.ndarray:
    """(n, width) view of this thread's scratch array for one layer, grown to fit.

    Keyed by layer index as well as width, so that a layer's input and output
    never share an array even when two consecutive layers have one width.
    """
    arrays = vars(_SCRATCH).setdefault("arrays", {})
    buf = arrays.get((layer, width))
    if buf is None or len(buf) < n:
        buf = arrays[(layer, width)] = np.empty((n, width))
    return buf[:n]


def _layer_outputs(features, state: NetworkState, scratch: bool = False) -> list:
    """Every layer's post-activation: [input, hidden..., logits].

    With scratch, the outputs live in this thread's scratch arrays and are
    overwritten by the next scratch pass; otherwise each one is a fresh array.
    """
    x = _check_features(features, state.spec)
    acts = [x]
    last = state.n_layers - 1
    for layer, (w, b) in enumerate(zip(state.weights, state.biases)):
        out = _scratch(layer, len(x), w.shape[1]) if scratch else None
        z = np.matmul(acts[-1], w, out=out)
        z += b
        if layer < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def _softmax_ce(logits, labels=None):
    """Overwrite logits with softmax probabilities; per-sample CE when labels given.

    The row max, shifted exponentials and row sums serve both results, so the
    cross-entropy is the log-sum-exp guarded lse(z) - z[y]. The row max is
    taken column by column: for few classes that is much faster than
    max(axis=1), and both results are bitwise the same.
    """
    m = logits[:, :1].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(m, logits[:, j:j + 1], out=m)
    picked = None if labels is None else logits[np.arange(len(labels)), labels]
    logits -= m
    np.exp(logits, out=logits)
    s = logits.sum(axis=1, keepdims=True)
    logits /= s
    if labels is None:
        return None
    return (m[:, 0] + np.log(s[:, 0])) - picked


def forward(features, state: NetworkState) -> np.ndarray:
    """Class probabilities, shape (n, k), as a fresh array; no side effects on state.

    Evaluation reuses this thread's internal scratch arrays; the result never
    aliases them.
    """
    logits = _layer_outputs(features, state, scratch=True)[-1]
    _softmax_ce(logits)
    return logits.copy()


def _check_labels(labels, k: int):
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels


def _backprop(acts, delta, state: NetworkState) -> np.ndarray:
    """Gradient from the output-layer delta (delta already carries loss scaling).

    Each layer's gradient is written into its views of one fresh flat vector
    laid out like state.params; the products keep the operands and shapes of
    a plain acts.T @ delta, so the values are bitwise those.
    """
    grad = np.empty_like(state.params)
    grad_w, grad_b = _layer_views(state.spec, grad)
    for layer in reversed(range(state.n_layers)):
        np.matmul(acts[layer].T, delta, out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        if layer > 0:
            # acts[layer] > 0 is the ReLU mask of this layer's preactivation
            delta = delta @ state.weights[layer].T
            delta *= acts[layer] > 0.0
    return grad


def loss_grad_probs(features, labels, state: NetworkState, sample_mask=None, denom=None):
    """Training-loop entry point: loss, gradient and forward probabilities.

    The loss is the cross-entropy summed over sample_mask members (every
    sample when no mask is given) and divided by denom, which defaults to the
    batch size and must be given with a mask. Excluded samples contribute
    exactly zero, which realizes training restricted to a sample subset.
    Returns (loss, grad, per_sample_losses, probs); grad is a fresh flat
    vector laid out like state.params.
    """
    labels = _check_labels(labels, state.spec.n_classes)
    n = len(labels)
    if n == 0:
        raise ValueError("cannot take a gradient over an empty batch")
    if denom is None and sample_mask is None:
        denom = n
    if denom is None or denom <= 0:
        raise ValueError(f"gradient needs a positive denom, got {denom}")
    acts = _layer_outputs(features, state)
    probs = acts.pop()  # logits until _softmax_ce overwrites them
    per_sample = _softmax_ce(probs, labels)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    used = per_sample
    if sample_mask is not None:
        sample_mask = np.asarray(sample_mask)
        if sample_mask.shape != (n,):
            raise ValueError(f"sample_mask must have shape ({n},), got {sample_mask.shape}")
        delta *= sample_mask.astype(np.float64)[:, None]
        used = per_sample[sample_mask.astype(bool, copy=False)]
    delta /= float(denom)
    loss = float(used.sum()) / float(denom)
    return loss, _backprop(acts, delta, state), per_sample, probs


def sgd_step(state: NetworkState, grad, config: OptimizerConfig, epoch: int) -> NetworkState:
    """v <- momentum*v + grad; params <- params - lr(epoch)*v. Mutates state.

    grad is a flat vector laid out like state.params, as loss_grad_probs returns it.
    """
    if np.shape(grad) != state.params.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} != parameter shape "
                         f"{state.params.shape}")
    v = state.velocity
    v *= config.momentum
    v += grad
    state.params -= config.lr_at(epoch) * v
    return state


def per_sample_losses(features, labels, state: NetworkState) -> np.ndarray:
    """Cross-entropy of each sample against the given labels; no gradients."""
    labels = _check_labels(labels, state.spec.n_classes)
    return _softmax_ce(_layer_outputs(features, state, scratch=True)[-1], labels)


def predict_labels(features, state: NetworkState) -> np.ndarray:
    """Argmax class per row; ties break to the smallest class index."""
    return np.argmax(forward(features, state), axis=1)


def evaluate_error(features, labels, state: NetworkState) -> float:
    """0-1 error of argmax predictions against the given labels."""
    labels = _check_labels(labels, state.spec.n_classes)
    if len(labels) == 0:
        raise ValueError("cannot evaluate on an empty set")
    return float(np.mean(predict_labels(features, state) != labels))


# ----- checkpoint file format -----
# header: magic "PSTP1", u32 layer count, u32 layer sizes
# body:   per layer W row-major then b, as little-endian f64; then the
#         momentum buffers in the same order

def save_network(state: NetworkState, path) -> None:
    """Write parameters + momentum buffers in the binary checkpoint format."""
    sizes = state.spec.layer_sizes
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(np.asarray(state.params, dtype="<f8").tobytes())
        fh.write(np.asarray(state.velocity, dtype="<f8").tobytes())


def load_network(path) -> NetworkState:
    """Read a checkpoint written by save_network."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:5]!r}, expected {CHECKPOINT_MAGIC!r}")
    try:
        (n_sizes,) = struct.unpack_from("<I", raw, 5)
        sizes = struct.unpack_from(f"<{n_sizes}I", raw, 9)
    except struct.error:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)") from None
    try:
        spec = NetworkSpec(tuple(int(s) for s in sizes))
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from None
    off = 9 + 4 * n_sizes
    count = _n_params(spec)
    if len(raw) - off != 16 * count:  # parameters, then momentum buffers of the same shapes
        raise ValueError(f"{path}: expected {16 * count} bytes of parameters and momentum "
                         f"after the header, got {len(raw) - off}")
    body = np.frombuffer(raw, dtype="<f8", count=2 * count, offset=off)
    return NetworkState(spec, body[:count].copy(), body[count:].copy())
