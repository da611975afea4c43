"""Small ReLU MLP classifier: exact backprop, momentum SGD, step-decay LR.

All math is float64. The forward pass is pure; training mutates a
NetworkState that is exclusively owned by one training run. Evaluation
allocates its arrays on each call, so concurrent calls share nothing; a
training epoch's steps write into the buffers of one _TrainKernel. Every
product of a training step, and the output-layer product of an evaluation
pass, keeps the operands and shape of a plain `a @ w`. An evaluation pass
runs its hidden layers in row blocks (_row_blocks): on NumPy's OpenBLAS,
with one or two threads, a hidden product over a block of rows matched the
rows of the whole product in all 5,108 comparisons made, for hidden widths
8-1024 in steps of 8 and fan-ins 1-1000. Blocks are not used where that
failed: a width that is not a multiple of 8 (2, 3, 4 and 12 differed at
fan-in 64 and up, as did every 64 -> 4 output product) and a one-row block
(computed as a matrix-vector product). So every result is bitwise that of
an unblocked pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import check_labels

CHECKPOINT_MAGIC = b"PSTP1"
EVAL_ROWS = 512  # most rows per block of an evaluation pass's hidden layers
ALIGN = 64  # byte boundary every array of a training step starts on (aligned_empty)


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
        self.labels = check_labels(self.labels, np.iinfo(np.int64).max)  # no class count here
        b = len(self.indices)
        if self.features.ndim != 2 or self.features.shape[0] != b or len(self.labels) != b:
            raise ValueError("batch arrays disagree on length")
        if len(np.unique(self.indices)) != b:
            raise ValueError("batch indices must be distinct")


def aligned_empty(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array whose data starts on an ALIGN-byte boundary.

    Over-allocates by ALIGN bytes and slices from the first boundary. The
    training step's arrays all come from here (state vectors, kernel
    buffers, train_epoch's gathered rows), so its speed does not depend on
    where malloc left them; no value depends on the boundary.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _aligned_copy(a: np.ndarray) -> np.ndarray:
    out = aligned_empty(a.shape, a.dtype)
    out[...] = a
    return out


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
        return NetworkState, (self.spec, _aligned_copy(self.params),
                              _aligned_copy(self.velocity))

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_state(spec: NetworkSpec, rng: np.random.Generator) -> NetworkState:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases and momentum."""
    count = _n_params(spec)
    # two allocations, not one split in two: the first vector need not end on a boundary
    params, velocity = aligned_empty(count), aligned_empty(count)
    params.fill(0.0)
    velocity.fill(0.0)
    state = NetworkState(spec, params, velocity)
    for w in state.weights:  # one draw per layer, in layer order: the bytes depend on it
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return state


# ----- forward / loss / gradient -----

def _check_features(features: np.ndarray, spec: NetworkSpec) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"features must have shape (n, {spec.input_dim}), got {x.shape}")
    return x


def _layer_outputs(x, state: NetworkState, outs) -> list:
    """Post-activations [x, outs[0], ...] of the first len(outs) layers, layer l into
    outs[l], or into a fresh array where outs[l] is None.

    Every layer but the network's last is ReLU, so given a buffer for every
    layer the last output is the logits.
    """
    acts = [x]
    last = state.n_layers - 1
    for layer, (w, b, out) in enumerate(zip(state.weights, state.biases, outs)):
        z = np.matmul(acts[-1], w, out=out)
        z += b
        if layer < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def _row_blocks(n: int, hidden_widths) -> list:
    """Row slices over which an n-row evaluation pass runs its hidden layers.

    At most EVAL_ROWS rows each, split evenly so that no block of a split has
    a single row. A hidden width that is not a multiple of 8 gets one block of
    all n rows (see the module docstring for both rules).
    """
    if any(width % 8 for width in hidden_widths):
        return [slice(0, n)]
    count = -(-n // EVAL_ROWS)
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def _logits(features, state: NetworkState) -> np.ndarray:
    """Logits of an evaluation pass, in arrays allocated for this call.

    Each row block's hidden products, bias adds and ReLUs run while the block
    is in cache, and only the last hidden layer is kept for all n rows; the
    output layer is one product over all of them. Memory is thus
    O(EVAL_ROWS * widest + n * (last hidden width + classes)), held only
    during the call.
    """
    x = _check_features(features, state.spec)
    last = state.n_layers - 1
    hidden = x
    if last:
        widths = state.spec.layer_sizes[1:last + 1]
        hidden = np.empty((len(x), widths[-1]))
        for rows in _row_blocks(len(x), widths):
            _layer_outputs(x[rows], state, [None] * (last - 1) + [hidden[rows]])
    logits = hidden @ state.weights[last]
    logits += state.biases[last]
    return logits


def _softmax_ce(logits, labels=None, m=None, s=None, row_max=None):
    """Overwrite logits with softmax probabilities; per-sample CE when labels given.

    The row max, shifted exponentials and row sums serve both results, so the
    cross-entropy is the log-sum-exp guarded lse(z) - z[y]. The row max is
    folded column by column with np.maximum over 1-D views: for few classes
    that is much faster than max(axis=1), and both results are bitwise the
    same. m and s, (n, 1) arrays, receive the row max and row sums; by
    default they are fresh. row_max, (m[:, 0], [logits[:, j] for each j]),
    are the 1-D views the row max goes through; by default they are made here.
    """
    if m is None:
        m = np.empty((len(logits), 1))
    if row_max is None:
        row_max = m[:, 0], [logits[:, j] for j in range(logits.shape[1])]
    m0, columns = row_max
    if len(columns) == 1:
        np.copyto(m0, columns[0])
    else:
        np.maximum(columns[0], columns[1], out=m0)
        for column in columns[2:]:
            np.maximum(m0, column, out=m0)
    picked = None if labels is None else logits[np.arange(len(labels)), labels]
    logits -= m
    np.exp(logits, out=logits)
    s = np.add.reduce(logits, axis=1, keepdims=True, out=s)  # logits.sum, without its wrapper
    logits /= s
    if labels is None:
        return None
    return (m0 + np.log(s[:, 0])) - picked


def forward(features, state: NetworkState) -> np.ndarray:
    """Class probabilities, shape (n, k), as a fresh array; no side effects on state."""
    probs = _logits(features, state)
    _softmax_ce(probs)
    return probs


class _TrainKernel:
    """Buffers and LR of the batch steps on one state: train_epoch builds one per epoch.

    Each step writes its layer outputs, deltas, ReLU masks, row max and row
    sums, its gradient and lr * velocity into arrays allocated here, each on
    an ALIGN-byte boundary, for batches of up to `rows` rows; a shorter batch
    uses their leading rows.
    The gradient and probabilities a step returns are overwritten by the
    next step. Every product keeps the operands and shape of a plain a @ b,
    so each value is bitwise that of an allocating pass. loss_grad_probs
    called without a kernel builds a fresh one, with no LR, for its one step.
    """

    def __init__(self, state: NetworkState, rows: int, lr: float | None = None):
        widths = state.spec.layer_sizes[1:]
        self.lr = lr
        self.grad = aligned_empty(state.params.shape)
        self.grad_w, self.grad_b = _layer_views(state.spec, self.grad)
        self.weights_t = [w.T for w in state.weights]
        self.update = aligned_empty(state.params.shape)
        self._full = ([aligned_empty((rows, w)) for w in widths],             # layer outputs
                      [aligned_empty((rows, w)) for w in widths],             # deltas
                      [aligned_empty((rows, w), bool) for w in widths[:-1]],  # ReLU masks
                      aligned_empty((rows, 1)), aligned_empty((rows, 1)),
                      _aligned_copy(np.arange(rows)))
        self._cut = {}

    def rows(self, n: int) -> tuple:
        """The buffers' first n rows: (outputs, deltas, masks, row max, row sums,
        row index, _softmax_ce's row_max views of the row max and the logits)."""
        cut = self._cut.get(n)
        if cut is None:
            outs, deltas, masks, m, s, index = self._full
            outs = [a[:n] for a in outs]
            row_max = m[:n, 0], [outs[-1][:, j] for j in range(outs[-1].shape[1])]
            cut = self._cut[n] = (outs, [d[:n] for d in deltas], [k[:n] for k in masks],
                                  m[:n], s[:n], index[:n], row_max)
        return cut


def _backprop(acts, deltas, masks, kernel: _TrainKernel) -> np.ndarray:
    """Gradient from the output-layer delta, deltas[-1] (already carrying loss scaling).

    Each layer's gradient is written into its views of kernel.grad, laid out
    like state.params, and each hidden layer's delta into deltas; the products
    keep the operands and shapes of plain acts.T @ delta and delta @ W.T, so
    the values are bitwise those.
    """
    delta = deltas[-1]
    for layer in reversed(range(len(acts))):
        np.matmul(acts[layer].T, delta, out=kernel.grad_w[layer])
        np.add.reduce(delta, axis=0, out=kernel.grad_b[layer])  # delta.sum, without its wrapper
        if layer > 0:
            # acts[layer] > 0 is the ReLU mask of this layer's preactivation
            delta = np.matmul(delta, kernel.weights_t[layer], out=deltas[layer - 1])
            delta *= np.greater(acts[layer], 0.0, out=masks[layer - 1])
    return kernel.grad


def loss_grad_probs(features, labels, state: NetworkState, sample_mask=None, denom=None,
                    *, kernel: _TrainKernel | None = None):
    """Training-loop entry point: loss, gradient and forward probabilities.

    The loss is the cross-entropy summed over sample_mask members (every
    sample when no mask is given) and divided by denom, which defaults to the
    batch size and must be given with a mask. sample_mask is a bool array.
    Excluded samples contribute exactly zero, which realizes training
    restricted to a sample subset. Returns (loss, grad, per_sample_losses,
    probs); grad is a fresh flat vector laid out like state.params.

    With train_epoch's kernel, the step writes into the kernel's buffers and
    makes the same calls in the same order, but checks none of its inputs
    (train_epoch checks them once per epoch) and computes no loss: it returns
    (None, grad, None, probs), and the next step overwrites grad and probs.
    A kernel step with denom 0, a batch without members, stops after the
    softmax and returns (None, None, None, probs).
    """
    reference = kernel is None
    if reference:
        labels = check_labels(labels, state.spec.n_classes)
        n = len(labels)
        if n == 0:
            raise ValueError("cannot take a gradient over an empty batch")
        if denom is None and sample_mask is None:
            denom = n
        if denom is None or denom <= 0:
            raise ValueError(f"gradient needs a positive denom, got {denom}")
        features = _check_features(features, state.spec)
        if sample_mask is not None:
            sample_mask = np.asarray(sample_mask)
            if sample_mask.dtype != bool or sample_mask.shape != (n,):
                raise ValueError(f"sample_mask must be a bool array of shape ({n},), "
                                 f"got {sample_mask.dtype} of shape {sample_mask.shape}")
        kernel = _TrainKernel(state, n)
    outs, deltas, masks, m, s, rows, row_max = kernel.rows(len(labels))
    acts = _layer_outputs(features, state, outs)
    probs = acts.pop()  # logits until _softmax_ce overwrites them
    per_sample = _softmax_ce(probs, labels if reference else None, m, s, row_max)
    if denom == 0:  # only a kernel step gets here with no member: no gradient to take
        return None, None, None, probs
    delta = deltas[-1]
    delta[...] = probs
    delta[rows, labels] -= 1.0
    if sample_mask is not None:
        delta *= sample_mask[:, None]
    delta /= float(denom)
    grad = _backprop(acts, deltas, masks, kernel)
    if not reference:
        return None, grad, None, probs
    used = per_sample if sample_mask is None else per_sample[sample_mask]
    return float(used.sum()) / float(denom), grad, per_sample, probs


def sgd_step(state: NetworkState, grad, config: OptimizerConfig, epoch: int,
             *, kernel: _TrainKernel | None = None) -> NetworkState:
    """v <- momentum*v + grad; params <- params - lr(epoch)*v. Mutates state.

    grad is a flat vector laid out like state.params, as loss_grad_probs returns it.
    With train_epoch's kernel, lr(epoch) is the kernel's, taken once per epoch,
    lr*v is written into its buffer, and grad's shape is not checked again.
    """
    if kernel is None and np.shape(grad) != state.params.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} != parameter shape "
                         f"{state.params.shape}")
    lr, update = (config.lr_at(epoch), None) if kernel is None else (kernel.lr, kernel.update)
    v = state.velocity
    v *= config.momentum
    v += grad
    state.params -= np.multiply(lr, v, out=update)
    return state


def per_sample_losses(features, labels, state: NetworkState) -> np.ndarray:
    """Cross-entropy of each sample against the given labels; no gradients."""
    labels = check_labels(labels, state.spec.n_classes)
    return _softmax_ce(_logits(features, state), labels)


def predict_labels(features, state: NetworkState) -> np.ndarray:
    """Argmax class per row; ties break to the smallest class index."""
    return np.argmax(forward(features, state), axis=1)


def evaluate_error(features, labels, state: NetworkState) -> float:
    """0-1 error of argmax predictions against the given labels."""
    labels = check_labels(labels, state.spec.n_classes)
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
    return NetworkState(spec, _aligned_copy(body[:count]), _aligned_copy(body[count:]))
