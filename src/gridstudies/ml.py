"""Small supervised-learning toolkit: kNN, RBF-SVM, logistic feed-forward net.

Everything here is deterministic. kNN breaks voting ties by the smaller mean
distance and then the lower label; the SVM trains with a sequential pair
optimizer whose working pair is the maximal violating pair, the second index
by second-order gain (no random draws), and which stops on the duality-gap
rule, so it converges for every positive C; the network trains full-batch
from a seeded initialization.

The network trains in a workspace allocated once per call (a flat parameter
vector with per-layer views, a gradient vector laid out alike, per-layer
activation, delta and scratch buffers) that every operation writes in place.
kNN takes the distances of a block of queries in one pass and one sort.  Both
give the bits of the per-array network and per-query scan they replaced.

Models serialize to JSON so a trained predictor can be reloaded bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class ConvergenceError(RuntimeError):
    """Optimizer gave up; message carries the residual."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; message carries the epoch."""


# -- data handling ------------------------------------------------------------

@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple = ()
    label_name: str = "label"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.labels):
            raise ValueError("feature and label counts differ")
        if len(self.features) < 1:
            raise ValueError("dataset is empty")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if not self.feature_names:
            self.feature_names = tuple(f"x{i}" for i in range(self.features.shape[1]))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx],
                       self.feature_names, self.label_name)


def split(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random disjoint + exhaustive train/test split, train size round(f*n)."""
    if not 0 < fraction < 1:
        raise ValueError("fraction must be strictly between 0 and 1")
    n = dataset.n
    n_train = int(round(fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(f"fraction {fraction} leaves an empty side for n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


class MinMaxScaler:
    """Affine map sending each training column onto [0, 1]."""

    def __init__(self):
        self.lo = None
        self.hi = None

    def fit(self, features) -> "MinMaxScaler":
        x = np.asarray(features, dtype=float)
        self.lo = x.min(axis=0)
        self.hi = x.max(axis=0)
        return self

    def _span(self):
        span = self.hi - self.lo
        return np.where(span == 0.0, 1.0, span)  # constant columns map to 0

    def transform(self, features) -> np.ndarray:
        if self.lo is None:
            raise RuntimeError("scaler not fitted")
        return (np.asarray(features, dtype=float) - self.lo) / self._span()


def one_hot(values) -> tuple[np.ndarray, list]:
    """0/1 columns for the sorted distinct values."""
    values = list(values)
    cats = sorted(set(values))
    index = {c: j for j, c in enumerate(cats)}
    out = np.zeros((len(values), len(cats)))
    for i, v in enumerate(values):
        out[i, index[v]] = 1.0
    return out, cats


@dataclass
class Agreement:
    """Fractions of mismatching / matching predictions (they sum to one)."""

    false_fraction: float
    true_fraction: float
    n: int


def evaluate(model, dataset: Dataset) -> Agreement:
    if dataset.n == 0:
        raise ValueError("empty test set")
    pred = model.predict(dataset.features)
    hit = float(np.mean(pred == dataset.labels))
    return Agreement(1.0 - hit, hit, dataset.n)


# -- k nearest neighbours -----------------------------------------------------

KNN_BLOCK_BYTES = 1 << 18  # 0.25 MB of query-to-train differences at a time


@dataclass
class KnnModel:
    k: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= len(self.labels):
            raise ValueError(f"k={self.k} outside 1..{len(self.labels)}")

    def predict(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        n_train, dim = self.features.shape
        # query rows per block: one buffer of (rows, n_train, dim)
        # differences, within KNN_BLOCK_BYTES, serves every block
        block = max(1, min(len(x), KNN_BLOCK_BYTES // (8 * n_train * dim)))
        buffer = np.empty((block, n_train, dim))
        out = []
        for start in range(0, len(x), block):
            queries = x[start:start + block, None, :]
            diff = np.subtract(self.features, queries, out=buffer[:len(queries)])
            dist = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
            order = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
            near_dist = np.take_along_axis(dist, order, axis=1).tolist()
            for labels, dists in zip(self.labels[order].tolist(), near_dist):
                votes: dict = {}
                for label, dist_k in zip(labels, dists):
                    votes.setdefault(label, []).append(dist_k)
                # most votes, then smaller mean distance, then lower label
                ranked = sorted(votes.items(), key=lambda kv: (
                    -len(kv[1]), _mean(kv[1]), kv[0]))
                out.append(ranked[0][0])
        return np.asarray(out, dtype=self.labels.dtype)


def _mean(values: list[float]) -> float:
    # np.mean of one value is that value; a single vote is the common case
    return values[0] if len(values) == 1 else float(np.mean(values))


def knn_fit(train: Dataset, k: int) -> KnnModel:
    return KnnModel(k, train.features.copy(), train.labels.copy())


# -- support vector machine ---------------------------------------------------

def rbf_kernel(a, b, sigma: float) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * sigma * sigma))


def median_pairwise_distance(features) -> float:
    x = np.asarray(features, dtype=float)
    d2 = (np.sum(x * x, axis=1)[:, None] + np.sum(x * x, axis=1)[None, :]
          - 2.0 * x @ x.T)
    iu = np.triu_indices(len(x), k=1)
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0)))) if len(iu[0]) else 0.0
    return med if med > 0 else 1.0


@dataclass
class BinarySvm:
    """Two-class margin classifier; labels map (lower, higher) -> (-1, +1)."""

    neg_label: object
    pos_label: object
    sigma: float
    C: float
    sv_features: np.ndarray
    sv_coeff: np.ndarray  # alpha_i * y_i
    b: float
    kkt_residual: float = 0.0

    def decision(self, features) -> np.ndarray:
        k = rbf_kernel(features, self.sv_features, self.sigma)
        return k @ self.sv_coeff + self.b

    def predict(self, features) -> np.ndarray:
        d = self.decision(features)
        out = np.where(d >= 0, self.pos_label, self.neg_label)
        return out


def _smo(x, y, C, sigma, tol, max_sweeps):
    """Pairwise dual descent with maximal-violating-pair working sets
    (Keerthi et al. 2001), the second index by second-order gain (Fan, Chen
    & Lin 2005).  Stops once the gap m - M of -y*grad between the up- and
    low-sets is at most tol, or gives up after max_sweeps * n pair steps.
    Returns (alpha, b, kkt_residual)."""
    n = len(y)
    K = rbf_kernel(x, x, sigma)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective 0.5 a'Qa - sum(a)
    # an up-step moves alpha_i by +y_i, a low-step alpha_j by -y_j; each
    # multiplier may take one while it is off the bound that step heads to
    up_end = np.where(y > 0, C, 0.0)
    low_end = C - up_end
    k_diag = K.diagonal()
    cap = max(max_sweeps, 0) * n
    for steps in range(cap + 1):
        f = -y * grad
        i = int(np.argmax(np.where(alpha != up_end, f, -np.inf)))
        low = alpha != low_end
        m, M = f[i], np.min(f[low])
        if not m - M > tol or steps == cap:  # a NaN gap stops too
            break
        gain = np.where(low & (f < m), m - f, 0.0)
        curv = np.maximum(K[i, i] + k_diag - 2.0 * K[i], 1e-12)
        j = int(np.argmax(gain * gain / curv))
        room_i, room_j = abs(up_end[i] - alpha[i]), abs(low_end[j] - alpha[j])
        t = min(gain[j] / curv[j], room_i, room_j)
        alpha[i] = up_end[i] if t == room_i else alpha[i] + y[i] * t
        alpha[j] = low_end[j] if t == room_j else alpha[j] - y[j] * t
        grad += t * y * (K[i] - K[j])
    free = (alpha > 0.0) & (alpha < C)
    b = float(np.mean(f[free]) if free.any() else 0.5 * (m + M))
    r = y * b + grad  # y * (decision - y), as y * y = 1
    lower = np.where(alpha < C - 1e-9, np.maximum(0.0, -r), 0.0)
    upper = np.where(alpha > 1e-9, np.maximum(0.0, r), 0.0)
    res = float(np.max(np.maximum(lower, upper)))
    if not m - M <= tol:
        raise ConvergenceError(
            f"pair optimizer stopped with KKT residual {res:.3e} "
            f"(tolerance {tol}) after {steps} pair steps")
    return alpha, b, res


@dataclass
class SvmModel:
    """One binary machine per class pair; prediction is a vote with ties
    falling to the lowest class."""

    classes: list
    C: float
    sigma: float
    machines: list = field(default_factory=list)

    @property
    def kkt_residual(self) -> float:
        return max(m.kkt_residual for m in self.machines)

    def predict(self, features) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        votes = np.zeros((len(features), len(self.classes)), dtype=int)
        col = {c: j for j, c in enumerate(self.classes)}
        for m in self.machines:
            pred = m.predict(features)
            for j, c in ((col[m.neg_label], m.neg_label), (col[m.pos_label], m.pos_label)):
                votes[:, j] += pred == c
        winner = np.argmax(votes, axis=1)  # argmax takes the first = lowest class
        return np.asarray([self.classes[w] for w in winner])


def svm_train(train: Dataset, C: float = 1.0, sigma="auto",
              tol: float = 1e-4, max_sweeps: int = 200) -> SvmModel:
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")
    classes = sorted(set(train.labels.tolist()))
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if sigma == "auto":
        sigma = median_pairwise_distance(train.features)
    # the kernel divides by 2 sigma^2, which must neither underflow to 0
    # nor overflow
    if not (sigma > 0 and 0 < 2.0 * sigma * sigma < math.inf):
        raise ValueError(f"sigma must be finite and positive, and 2*sigma**2 "
                         f"a positive finite number, got {sigma}")
    model = SvmModel(classes, C, float(sigma))
    for a_i in range(len(classes)):
        for b_i in range(a_i + 1, len(classes)):
            neg, pos = classes[a_i], classes[b_i]
            mask = (train.labels == neg) | (train.labels == pos)
            x = train.features[mask]
            y = np.where(train.labels[mask] == pos, 1.0, -1.0)
            alpha, b, res = _smo(x, y, C, float(sigma), tol, max_sweeps)
            keep = alpha > 1e-10
            model.machines.append(BinarySvm(
                neg, pos, float(sigma), C,
                x[keep], (alpha * y)[keep], float(b), res))
    return model


# -- feed-forward network -----------------------------------------------------

def _sigmoid(z):
    """Logistic function of z, computed in place in z (an array the caller
    owns) and returned: clip, negate, exp, add 1 and reciprocal round exactly
    as 1 / (1 + exp(-clip(z, -500, 500))) does."""
    np.maximum(z, -500.0, out=z)
    np.minimum(z, 500.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


@dataclass
class MlpModel:
    """Fully-connected logistic layers with one output unit: at or above
    0.5 it names the second of the two classes."""

    layout: tuple
    weights: list
    biases: list
    classes: list
    loss_history: list = field(default_factory=list)

    def forward(self, features) -> list:
        acts = [np.atleast_2d(np.asarray(features, dtype=float))]
        for w, b in zip(self.weights, self.biases):
            z = acts[-1] @ w.T
            z += b
            acts.append(_sigmoid(z))
        return acts

    def predict(self, features) -> np.ndarray:
        out = self.forward(features)[-1]
        idx = (out[:, 0] >= 0.5).astype(int)
        return np.asarray([self.classes[i] for i in idx])

    def targets_for(self, labels) -> np.ndarray:
        col = {c: j for j, c in enumerate(self.classes)}
        return np.asarray([[float(col[v])] for v in labels])


class _MlpWorkspace:
    """Every array one full-batch loss-and-gradient pass touches, allocated
    once for a network and a feature matrix.

    flat holds the parameters layer by layer, weights then biases, and
    weights/biases are views into it; grad is laid out the same way, with
    gw/gb its views.  acts[k + 1], deltas[k] and scratch[k] have shape
    (rows, layout[k + 1]); acts[0] is the feature matrix itself."""

    def __init__(self, model: MlpModel, features):
        params = [p for pair in zip(model.weights, model.biases) for p in pair]
        self.flat = np.empty(sum(p.size for p in params))
        self.grad = np.empty_like(self.flat)
        views, grads = [], []
        at = 0
        for p in params:
            span = slice(at, at + p.size)
            at += p.size
            views.append(self.flat[span].reshape(p.shape))
            grads.append(self.grad[span].reshape(p.shape))
            views[-1][...] = p
        self.weights, self.biases = views[0::2], views[1::2]
        self.gw, self.gb = grads[0::2], grads[1::2]
        x = np.atleast_2d(np.asarray(features, dtype=float))
        widths = model.layout[1:]
        self.acts = [x] + [np.empty((len(x), w)) for w in widths]
        self.deltas = [np.empty((len(x), w)) for w in widths]
        self.scratch = [np.empty((len(x), w)) for w in widths]

    def loss(self, targets) -> float:
        """Forward pass and half the summed squared error; the output error
        stays in scratch[-1] for the backward pass."""
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(self.acts[k], w.T, out=self.acts[k + 1])
            z += b
            _sigmoid(z)
        err, sq = self.scratch[-1], self.deltas[-1]
        np.subtract(self.acts[-1], targets, out=err)
        np.multiply(err, err, out=sq)
        # np.add.reduce is np.sum without its Python wrapper: same reduction
        return 0.5 * float(np.add.reduce(sq, axis=None))

    def loss_and_grads(self, targets) -> float:
        """loss(targets), with its gradient written into grad."""
        loss = self.loss(targets)
        out = self.acts[-1]
        delta = np.multiply(self.scratch[-1], out, out=self.deltas[-1])
        delta *= np.subtract(1.0, out, out=self.scratch[-1])
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.T, self.acts[layer], out=self.gw[layer])
            # a sequential axis-0 sum; a ones-vector product rounds otherwise
            np.add.reduce(delta, axis=0, out=self.gb[layer])
            if layer > 0:
                act = self.acts[layer]
                delta = np.matmul(delta, self.weights[layer],
                                  out=self.deltas[layer - 1])
                delta *= act
                delta *= np.subtract(1.0, act, out=self.scratch[layer - 1])
        return loss


def mlp_init(layout, classes, seed: int) -> MlpModel:
    layout = tuple(int(s) for s in layout)
    if len(layout) < 2 or any(s < 1 for s in layout):
        raise ValueError(f"bad layout {layout}")
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.5, size=(layout[i + 1], layout[i]))
               for i in range(len(layout) - 1)]
    biases = [rng.uniform(-0.5, 0.5, size=layout[i + 1])
              for i in range(len(layout) - 1)]
    return MlpModel(layout, weights, biases, list(classes))


def mlp_train(train: Dataset, layout, seed: int, epochs: int,
              lr: float) -> MlpModel:
    """Full-batch gradient descent on the summed squared error."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    classes = sorted(set(train.labels.tolist()))
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {len(classes)}")
    layout = tuple(int(s) for s in layout)
    if layout[0] != train.d or layout[-1] != 1:
        raise ValueError(
            f"layout {layout} does not match {train.d} inputs / 1 output")
    model = mlp_init(layout, classes, seed)
    targets = model.targets_for(train.labels)
    ws = _MlpWorkspace(model, train.features)
    step = np.empty_like(ws.flat)
    model.loss_history.append(ws.loss_and_grads(targets))
    # non-finite states are detected explicitly below, so silence the
    # intermediate overflow/NaN warnings they would spray
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            np.multiply(ws.grad, lr, out=step)
            ws.flat -= step
            loss = ws.loss_and_grads(targets)
            if not (math.isfinite(loss) and np.isfinite(ws.flat).all()):
                raise DivergenceError(f"training diverged at epoch {epoch}")
            model.loss_history.append(loss)
    model.weights = [w.copy() for w in ws.weights]
    model.biases = [b.copy() for b in ws.biases]
    return model


def gradient_check(model: MlpModel, features, labels, h: float = 1e-5) -> float:
    """Max relative gap between backprop and central finite differences."""
    targets = model.targets_for(labels)
    ws = _MlpWorkspace(model, features)
    ws.loss_and_grads(targets)
    analytic = ws.grad.copy()
    flat = ws.flat
    worst = 0.0
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + h
        up = ws.loss(targets)
        flat[idx] = keep - h
        dn = ws.loss(targets)
        flat[idx] = keep
        numeric = (up - dn) / (2.0 * h)
        a = analytic[idx]
        scale = abs(a) + abs(numeric)
        # absolute gap when both vanish, relative otherwise
        gap = abs(a - numeric) / (scale if scale > 1e-8 else 1.0)
        worst = max(worst, gap)
    return worst


# -- persistence ----------------------------------------------------------------

def save_model(model, path):
    if isinstance(model, SvmModel):
        blob = {"kind": "svm", "C": model.C, "sigma": model.sigma,
                "classes": model.classes,
                "machines": [{
                    "neg": m.neg_label, "pos": m.pos_label,
                    "sv_features": m.sv_features.tolist(),
                    "sv_coeff": m.sv_coeff.tolist(),
                    "b": m.b, "kkt_residual": m.kkt_residual,
                } for m in model.machines]}
    elif isinstance(model, MlpModel):
        blob = {"kind": "mlp", "layout": list(model.layout),
                "classes": model.classes,
                "weights": [w.tolist() for w in model.weights],
                "biases": [b.tolist() for b in model.biases]}
    else:
        raise TypeError(f"cannot save {type(model).__name__}")
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_model(path):
    # the only check that the svm/mlp/mlp_small.json `ml` writes hold its models
    with open(path) as fh:
        blob = json.load(fh)
    kind = blob.get("kind")
    if kind == "svm":
        model = SvmModel(blob["classes"], blob["C"], blob["sigma"])
        for m in blob["machines"]:
            model.machines.append(BinarySvm(
                m["neg"], m["pos"], blob["sigma"], blob["C"],
                np.asarray(m["sv_features"], dtype=float),
                np.asarray(m["sv_coeff"], dtype=float),
                m["b"], m["kkt_residual"]))
        return model
    if kind == "mlp":
        return MlpModel(tuple(blob["layout"]),
                        [np.asarray(w, dtype=float) for w in blob["weights"]],
                        [np.asarray(b, dtype=float) for b in blob["biases"]],
                        blob["classes"])
    raise ValueError(f"unknown model kind {kind!r}")
