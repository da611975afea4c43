"""Independent straight-line oracles shared across test modules.

These deliberately avoid calling library code: explicit numpy on the same
array shapes the trainer uses, so exact (bitwise) comparisons are meaningful.
Two fixtures build on the library: empty_refurbished, an object for a test to
fill, and write_csv, which dumps a dataset through data.write_table.
"""

from collections import Counter

import numpy as np

from prestopping import data, refurbish


def straight_line_forward(weights, biases, x):
    """Explicit relu-MLP forward; returns (probs, per-layer activations)."""
    acts = [x]
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    logits = a @ weights[-1] + biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True), acts


def flat_vector(weights, biases):
    """Per-layer arrays laid out W0 row-major, b0, W1, b1, ... in one vector."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def straight_line_step(weights, biases, vel_w, vel_b, x, labels, mask, n_used,
                       lr, momentum):
    """Recompute one masked momentum-SGD update with explicit numpy.

    Returns (weights, biases, vel_w, vel_b, predicted_labels). When n_used is
    zero the parameters pass through unchanged (the step is skipped).
    """
    probs, acts = straight_line_forward(weights, biases, x)
    preds = np.argmax(probs, axis=1)
    if n_used == 0:
        return weights, biases, vel_w, vel_b, preds
    delta = probs.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    delta *= np.asarray(mask).astype(np.float64)[:, None]
    delta /= float(n_used)
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    for layer in reversed(range(len(weights))):
        gw[layer] = acts[layer].T @ delta
        gb[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
    new_w, new_b, new_vw, new_vb = [], [], [], []
    for w, b, vw, vb, dw, db in zip(weights, biases, vel_w, vel_b, gw, gb):
        vw = momentum * vw + dw
        vb = momentum * vb + db
        new_vw.append(vw)
        new_vb.append(vb)
        new_w.append(w - lr * vw)
        new_b.append(b - lr * vb)
    return new_w, new_b, new_vw, new_vb, preds


def window_memorized(log, q, noisy_label):
    """Memorization predicate over a full prediction log's trailing window."""
    w = log[-q:]
    if not w:
        return False
    counts = Counter(w)
    best = max(counts.values())
    return min(lbl for lbl, c in counts.items() if c == best) == noisy_label


def empty_refurbished(n):
    """A RefurbishedSet of n samples with no member: labels -1, entropies nan."""
    return refurbish.RefurbishedSet(np.full(n, -1, dtype=np.int64), np.full(n, np.nan),
                                    np.zeros(n, dtype=bool))


def write_csv(dataset, path):
    """Full-precision text dump of a NoisyDataset, one row per sample: features,
    noisy label, true label. data.load_csv(path, n_classes=dataset.n_classes)
    reproduces the dataset exactly."""
    with open(path, "w") as fh:
        data.write_table(fh, (), ((*f, noisy, true) for f, noisy, true in zip(
            dataset.features.tolist(), dataset.noisy_labels.tolist(),
            dataset.true_labels.tolist())))
