"""Small supervised-learning toolkit: kNN, RBF-SVM, logistic feed-forward net.

Everything here is deterministic. kNN breaks voting ties by the smaller mean
distance and then the lower label; the SVM trains with a sequential pair
optimizer whose working-pair choice is a fixed heuristic (no random draws);
the network trains full-batch from a seeded initialization.

Models serialize to JSON so a trained predictor can be reloaded bit-exactly.
"""

from __future__ import annotations

import json
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

@dataclass
class KnnModel:
    k: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= len(self.labels):
            raise ValueError(f"k={self.k} outside 1..{len(self.labels)}")

    def predict(self, features) -> np.ndarray:
        out = []
        for x in np.asarray(features, dtype=float):
            diff = self.features - x
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            nearest = np.argsort(dist, kind="stable")[: self.k]
            votes: dict = {}
            for idx in nearest:
                votes.setdefault(self.labels[idx], []).append(dist[idx])
            # most votes, then smaller mean distance, then lower label
            ranked = sorted(votes.items(), key=lambda kv: (
                -len(kv[1]), float(np.mean(kv[1])), kv[0]))
            out.append(ranked[0][0])
        return np.asarray(out)


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
    """Pairwise dual ascent; deterministic partner choice by largest |E_i-E_j|
    with an in-order fallback. Returns (alpha, b, kkt_residual)."""
    n = len(y)
    K = rbf_kernel(x, x, sigma)
    alpha = np.zeros(n)
    b = 0.0
    E = -y.astype(float)  # decision minus target, all-zero model

    def try_pair(i, j):
        nonlocal b, E
        if i == j:
            return False
        if y[i] != y[j]:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        if H - L < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False
        aj = alpha[j] + y[j] * (E[i] - E[j]) / eta
        aj = min(H, max(L, aj))
        dj = aj - alpha[j]
        if abs(dj) < 1e-12:
            return False
        ai = alpha[i] - y[i] * y[j] * dj
        di = ai - alpha[i]
        b1 = b - E[i] - y[i] * di * K[i, i] - y[j] * dj * K[i, j]
        b2 = b - E[j] - y[i] * di * K[i, j] - y[j] * dj * K[j, j]
        if 0.0 < ai < C:
            nb = b1
        elif 0.0 < aj < C:
            nb = b2
        else:
            nb = 0.5 * (b1 + b2)
        E += y[i] * di * K[i] + y[j] * dj * K[j] + (nb - b)
        alpha[i], alpha[j] = ai, aj
        b = nb
        return True

    def residual():
        r = y * E
        lower = np.where(alpha < C - 1e-9, np.maximum(0.0, -r), 0.0)
        upper = np.where(alpha > 1e-9, np.maximum(0.0, r), 0.0)
        return float(np.max(np.maximum(lower, upper))) if n else 0.0

    for _sweep in range(max_sweeps):
        violations = 0
        progressed = 0
        for i in range(n):
            r = y[i] * E[i]
            # Bound slack must match residual(): an alpha pinned within 1e-9
            # of a box edge cannot be moved by any pair step.
            if (r < -tol and alpha[i] < C - 1e-9) or (r > tol and alpha[i] > 1e-9):
                violations += 1
                order = np.argsort(-np.abs(E - E[i]), kind="stable")
                if any(try_pair(i, int(j)) for j in order):
                    progressed += 1
        if violations == 0:
            return alpha, b, residual()
        if progressed == 0:
            break  # violating but unimprovable by pair steps: degenerate data
    res = residual()
    if res <= tol:
        return alpha, b, res
    raise ConvergenceError(
        f"pair optimizer stopped with KKT residual {res:.3e} "
        f"(tolerance {tol}) after {max_sweeps} sweeps")


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
              tol: float = 1e-3, max_sweeps: int = 200) -> SvmModel:
    if C <= 0:
        raise ValueError("C must be positive")
    classes = sorted(set(train.labels.tolist()))
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if sigma == "auto":
        sigma = median_pairwise_distance(train.features)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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
    """Logistic function of z, computed in place in z (a fresh array) and
    returned: clip, negate, exp, add 1 and reciprocal round exactly as
    1 / (1 + exp(-clip(z, -500, 500))) does."""
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


def _mlp_loss_and_grads(model: MlpModel, features, targets):
    acts = model.forward(features)
    err = acts[-1] - targets
    loss = 0.5 * float(np.sum(err * err))
    delta = err * acts[-1]
    delta *= 1.0 - acts[-1]
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[layer])
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = delta @ model.weights[layer]
            delta *= acts[layer]
            delta *= 1.0 - acts[layer]
    grads_w.reverse()
    grads_b.reverse()
    return loss, grads_w, grads_b


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
    if epochs < 0 or lr <= 0:
        raise ValueError("need epochs >= 0 and lr > 0")
    classes = sorted(set(train.labels.tolist()))
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {len(classes)}")
    layout = tuple(int(s) for s in layout)
    if layout[0] != train.d or layout[-1] != 1:
        raise ValueError(
            f"layout {layout} does not match {train.d} inputs / 1 output")
    model = mlp_init(layout, classes, seed)
    targets = model.targets_for(train.labels)
    loss, gw, gb = _mlp_loss_and_grads(model, train.features, targets)
    model.loss_history.append(loss)
    params = model.weights + model.biases  # updated in place
    # non-finite states are detected explicitly below, so silence the
    # intermediate overflow/NaN warnings they would spray
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            for p, g in zip(params, gw + gb):
                p -= lr * g
            loss, gw, gb = _mlp_loss_and_grads(model, train.features, targets)
            if not (np.isfinite(loss) and all(np.isfinite(p).all() for p in params)):
                raise DivergenceError(f"training diverged at epoch {epoch}")
            model.loss_history.append(loss)
    return model


def gradient_check(model: MlpModel, features, labels, h: float = 1e-5) -> float:
    """Max relative gap between backprop and central finite differences."""
    targets = model.targets_for(labels)
    _, gw, gb = _mlp_loss_and_grads(model, features, targets)
    worst = 0.0

    def probe(array, analytic):
        nonlocal worst
        flat = array.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = _mlp_loss_and_grads(model, features, targets)[0]
            flat[idx] = keep - h
            dn = _mlp_loss_and_grads(model, features, targets)[0]
            flat[idx] = keep
            numeric = (up - dn) / (2.0 * h)
            a = analytic.ravel()[idx]
            scale = abs(a) + abs(numeric)
            # absolute gap when both vanish, relative otherwise
            gap = abs(a - numeric) / (scale if scale > 1e-8 else 1.0)
            worst = max(worst, gap)

    for layer in range(len(model.weights)):
        probe(model.weights[layer], gw[layer])
        probe(model.biases[layer], gb[layer])
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
