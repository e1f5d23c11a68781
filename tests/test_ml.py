"""Learner checks.

Oracles in play:
  1. kNN against an exhaustive plain-Python distance scan with the same
     documented tie rule, and the block predict against the per-row
     predict it replaced, bit for bit
  2. SVM against capacity facts (RBF separates XOR, linear blobs are easy),
     the KKT conditions recomputed from a fresh kernel, and permutation
     invariance of the fitted decision
  3. MLP gradients against central finite differences, plus the classical
     XOR trainability result
  4. round-trip identities: split partitions, scaler bijectivity, JSON
     save/load preserving predictions exactly
  5. the MLP training workspace against the per-array network it
     replaced, bit for bit
"""

import numpy as np
import pytest

from gridstudies import faultlab, ml
from gridstudies.ml import (
    Agreement,
    ConvergenceError,
    Dataset,
    DivergenceError,
    KnnModel,
    MinMaxScaler,
    DivergenceError as _,  # noqa: F401  (re-exported name sanity)
    _smo,
    evaluate,
    gradient_check,
    knn_fit,
    load_model,
    median_pairwise_distance,
    mlp_init,
    mlp_train,
    one_hot,
    rbf_kernel,
    save_model,
    split,
    svm_train,
)


def blob_dataset(n_per=25, centers=((0.0, 0.0), (6.0, 6.0)), seed=7, spread=0.8):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for code, c in enumerate(centers):
        rows.append(rng.normal(c, spread, size=(n_per, len(c))))
        labels.extend([code] * n_per)
    return Dataset(np.vstack(rows), np.asarray(labels))

XOR = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
              np.array([0, 1, 1, 0]))


# -- dataset plumbing ---------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([1, 2]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.array([]))

def test_split_sizes():
    big = Dataset(np.arange(4418 * 2, dtype=float).reshape(4418, 2),
                  np.zeros(4418, dtype=int))
    train, test = split(big, 0.5, seed=1)
    assert (train.n, test.n) == (2209, 2209)
    grid = Dataset(np.arange(335 * 2, dtype=float).reshape(335, 2),
                   np.zeros(335, dtype=int))
    train, test = split(grid, 0.8, seed=1)
    assert (train.n, test.n) == (268, 67)

def test_split_partition_and_determinism():
    data = blob_dataset()
    a_train, a_test = split(data, 0.6, seed=42)
    b_train, b_test = split(data, 0.6, seed=42)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.labels, b_test.labels)
    merged = np.vstack([a_train.features, a_test.features])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(data.features, axis=0))

def test_split_rejects_empty_side():
    tiny = Dataset(np.zeros((10, 1)), np.zeros(10, dtype=int))
    with pytest.raises(ValueError):
        split(tiny, 0.01, seed=0)
    with pytest.raises(ValueError):
        split(tiny, 1.5, seed=0)

def test_scaler_range_and_bijection():
    rng = np.random.default_rng(3)
    x = rng.normal(5.0, 20.0, size=(40, 3))
    sc = MinMaxScaler()
    s = sc.fit(x).transform(x)
    assert s.min() == 0.0 and s.max() == 1.0
    back = s * (x.max(axis=0) - x.min(axis=0)) + x.min(axis=0)
    assert np.allclose(back, x, rtol=0, atol=1e-9)

def test_scaler_constant_column_and_unfitted():
    x = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
    s = MinMaxScaler().fit(x).transform(x)
    assert np.all(s[:, 0] == 0.0)
    with pytest.raises(RuntimeError):
        MinMaxScaler().transform(x)

def test_one_hot_sorted():
    mat, cats = one_hot(["b", "a", "b", "c"])
    assert cats == ["a", "b", "c"]
    assert mat.tolist() == [[0, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]

def test_evaluate_fractions():
    class Constant:
        def predict(self, x):
            return np.zeros(len(x), dtype=int)
    data = Dataset(np.zeros((10, 1)), np.array([0] * 5 + [1] * 5))
    table = evaluate(Constant(), data)
    assert table == Agreement(0.5, 0.5, 10)
    assert table.false_fraction + table.true_fraction == 1.0
    with pytest.raises(ValueError):
        evaluate(Constant(), Dataset(np.zeros((1, 1)), np.array([0])).subset([]))


# -- kNN ------------------------------------------------------------------------

def knn_oracle(train_x, train_y, x, k):
    # plain-python exhaustive scan with the documented tie rule
    dists = sorted((float(np.linalg.norm(row - x)), i)
                   for i, row in enumerate(train_x))
    chosen = dists[:k]
    per_label = {}
    for d, i in chosen:
        per_label.setdefault(train_y[i], []).append(d)
    return sorted(per_label.items(),
                  key=lambda kv: (-len(kv[1]), sum(kv[1]) / len(kv[1]), kv[0]))[0][0]

def knn_rowwise(model, features):
    # the per-row predict that the block predict replaced, kept as its oracle
    out = []
    for x in np.asarray(features, dtype=float):
        diff = model.features - x
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        nearest = np.argsort(dist, kind="stable")[: model.k]
        votes: dict = {}
        for idx in nearest:
            votes.setdefault(model.labels[idx], []).append(dist[idx])
        ranked = sorted(votes.items(), key=lambda kv: (
            -len(kv[1]), float(np.mean(kv[1])), kv[0]))
        out.append(ranked[0][0])
    return np.asarray(out)

def assert_knn_matches_oracles(train, queries, ks):
    for k in ks:
        model = knn_fit(train, k)
        got = model.predict(queries)
        rowwise = knn_rowwise(model, queries)
        assert got.dtype == rowwise.dtype
        assert got.tobytes() == rowwise.tobytes(), k
        assert got.tolist() == [knn_oracle(train.features, train.labels, q, k)
                                for q in queries], k

def test_knn_self_match():
    data = blob_dataset()
    model = knn_fit(data, k=1)
    assert np.array_equal(model.predict(data.features), data.labels)

def test_knn_global_vote():
    data = Dataset(np.array([[0.0], [1.0], [2.0], [10.0]]),
                   np.array([7, 7, 7, 9]))
    model = knn_fit(data, k=4)
    assert model.predict(np.array([[9.9]]))[0] == 7

def test_knn_matches_exhaustive_oracle():
    data = blob_dataset(n_per=25, centers=((0, 0), (3, 3)), spread=1.5)
    rng = np.random.default_rng(11)
    queries = rng.uniform(-2, 5, size=(60, 2))
    for k in (1, 2, 3, 5):
        model = knn_fit(data, k=k)
        for q in queries:
            assert model.predict(q[None, :])[0] == knn_oracle(
                data.features, data.labels, q, k)

def test_knn_ties_keep_the_vote_rule():
    # around the origin: index 0 (label 9) and index 1 (label 2) at distance
    # 1, label 4 at distances 1 and 3, label 6 twice at distance 2
    train = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -3.0],
                              [2.0, 0.0], [0.0, 2.0]]),
                    np.array([9, 2, 4, 4, 6, 6]))
    origin = np.zeros((1, 2))
    # equal distances: the lower index is nearer, then the lower label wins
    assert knn_fit(train, 1).predict(origin)[0] == 9
    assert knn_fit(train, 2).predict(origin)[0] == 2
    assert knn_fit(train, 3).predict(origin)[0] == 2
    # two votes each for 4 (mean 2) and 6 (mean 2): equal means, lower label
    assert knn_fit(train, 6).predict(origin)[0] == 4
    queries = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.0, -1.0]])
    assert_knn_matches_oracles(train, queries, range(1, 7))

def test_knn_blocks_match_rowwise_oracle(monkeypatch):
    data = blob_dataset(n_per=25, centers=((0, 0), (3, 3), (0, 3)), spread=1.5)
    queries = np.random.default_rng(12).uniform(-2, 5, size=(37, 2))
    # one query per block, a remainder block, and one block for all
    for block_bytes in (1, 8 * 75 * 2 * 5, ml.KNN_BLOCK_BYTES):
        monkeypatch.setattr(ml, "KNN_BLOCK_BYTES", block_bytes)
        assert_knn_matches_oracles(data, queries, (1, 2, 3, 4, 7))

def test_knn_blocks_match_oracles_on_fault_lab():
    train = faultlab.rows_to_dataset(
        faultlab.build_dataset(faultlab.enumerate_train_cases()))
    for seed, r_max in ((1, 1.0), (2, 5.0)):
        test = faultlab.rows_to_dataset(
            faultlab.build_dataset(faultlab.sample_test_cases(seed, r_max)))
        assert_knn_matches_oracles(train, test.features, range(1, 5))

def test_knn_scale_invariance():
    data = blob_dataset(seed=5)
    queries = np.random.default_rng(6).uniform(-1, 7, size=(40, 2))
    base = knn_fit(data, k=3).predict(queries)
    scaled = knn_fit(Dataset(data.features * 3.7, data.labels), k=3)
    assert np.array_equal(scaled.predict(queries * 3.7), base)

def test_knn_rejects_bad_k():
    data = blob_dataset(n_per=3)
    with pytest.raises(ValueError):
        knn_fit(data, k=0)
    with pytest.raises(ValueError):
        knn_fit(data, k=7)


# -- SVM ------------------------------------------------------------------------

def test_svm_separable_blobs():
    data = blob_dataset()
    model = svm_train(data, C=1.0)
    table = evaluate(model, data)
    assert table.true_fraction == 1.0
    assert model.kkt_residual < 1e-3

def test_svm_xor_needs_rbf():
    model = svm_train(XOR, C=10.0, sigma=0.7)
    assert np.array_equal(model.predict(XOR.features), XOR.labels)

def test_svm_permutation_invariant_verdicts():
    data = blob_dataset(seed=9)
    queries = np.random.default_rng(10).uniform(-2, 8, size=(50, 2))
    base = svm_train(data, C=1.0).predict(queries)
    perm = np.random.default_rng(12).permutation(data.n)
    shuffled = svm_train(data.subset(perm), C=1.0).predict(queries)
    assert np.array_equal(base, shuffled)

def test_svm_three_class_vote():
    data = blob_dataset(n_per=20, centers=((0, 0), (6, 0), (0, 6)), seed=13)
    model = svm_train(data, C=1.0)
    assert evaluate(model, data).true_fraction == 1.0
    assert len(model.machines) == 3

def test_svm_auto_sigma_is_median_distance():
    data = blob_dataset(n_per=5, seed=2)
    model = svm_train(data, C=1.0)
    assert model.sigma == median_pairwise_distance(data.features)

def test_svm_reports_non_convergence():
    with pytest.raises(ConvergenceError, match="residual"):
        svm_train(blob_dataset(), C=1.0, max_sweeps=0)

@pytest.mark.parametrize("C,sigma,name", [
    (float("nan"), "auto", "C"), (float("inf"), "auto", "C"),
    (1.0, float("nan"), "sigma"), (1.0, float("inf"), "sigma"),
    # 2*sigma**2 underflows to 0 or overflows to inf
    (1.0, 1e-300, "sigma"), (1.0, 1e300, "sigma"), (1.0, "tiny", "sigma")])
def test_svm_rejects_non_finite_parameters_before_training(monkeypatch, C,
                                                          sigma, name):
    monkeypatch.setattr(ml, "_smo", None)  # any training call would fail
    if sigma == "tiny":  # an "auto" sigma whose 2*sigma**2 underflows
        monkeypatch.setattr(ml, "median_pairwise_distance", lambda x: 1e-300)
        sigma = "auto"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        svm_train(blob_dataset(), C=C, sigma=sigma)

def test_svm_single_class_rejected():
    data = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError):
        svm_train(data)


# -- MLP ------------------------------------------------------------------------

def test_mlp_learns_xor():
    model = mlp_train(XOR, layout=(2, 2, 1), seed=4, epochs=20000, lr=0.5)
    assert model.loss_history[-1] < 0.01
    assert np.array_equal(model.predict(XOR.features), XOR.labels)

def test_mlp_final_loss_not_above_initial():
    data = blob_dataset(seed=20)
    sc = MinMaxScaler()
    scaled = Dataset(sc.fit(data.features).transform(data.features),
                     data.labels)
    model = mlp_train(scaled, layout=(2, 4, 1), seed=1, epochs=500, lr=0.05)
    assert model.loss_history[-1] <= model.loss_history[0]

def test_mlp_zero_epochs_is_deterministic_init():
    a = mlp_train(XOR, layout=(2, 3, 1), seed=99, epochs=0, lr=0.1)
    b = mlp_train(XOR, layout=(2, 3, 1), seed=99, epochs=0, lr=0.1)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.predict(XOR.features), b.predict(XOR.features))
    assert len(a.loss_history) == 1

def test_mlp_divergence_reports_epoch():
    # Full-batch gradients on 400 points exceed 2 in magnitude, so this rate
    # overflows the very first weight update; the trainer must say so rather
    # than march on with non-finite parameters.
    data = blob_dataset(n_per=200)
    with pytest.raises(DivergenceError, match="epoch"):
        mlp_train(data, layout=(2, 2, 1), seed=0, epochs=50, lr=1e308)

@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_mlp_rejects_non_finite_lr_before_training(monkeypatch, lr):
    monkeypatch.setattr(ml, "mlp_init", None)  # any training call would fail
    with pytest.raises(ValueError, match="lr must be finite"):
        mlp_train(XOR, layout=(2, 2, 1), seed=0, epochs=1, lr=lr)

def test_mlp_rejects_mismatched_layout():
    with pytest.raises(ValueError):
        mlp_train(XOR, layout=(3, 2, 1), seed=0, epochs=1, lr=0.1)
    with pytest.raises(ValueError):
        mlp_train(XOR, layout=(2, 2, 2), seed=0, epochs=1, lr=0.1)
    # the network has one output unit, so it takes two classes only
    three = blob_dataset(n_per=5, centers=((0, 0), (6, 0), (0, 6)), seed=13)
    with pytest.raises(ValueError, match="exactly two classes"):
        mlp_train(three, layout=(2, 2, 1), seed=0, epochs=1, lr=0.1)

def test_gradient_check_fresh_model():
    rng = np.random.default_rng(17)
    features = rng.uniform(0, 1, size=(10, 2))
    labels = np.asarray(rng.integers(0, 2, size=10))
    model = mlp_init((2, 3, 1), classes=[0, 1], seed=3)
    assert gradient_check(model, features, labels) < 1e-4

def test_gradient_check_zero_weights():
    model = mlp_init((2, 3, 1), classes=[0, 1], seed=3)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    features = np.random.default_rng(8).uniform(0, 1, size=(6, 2))
    labels = np.array([0, 1, 0, 1, 0, 1])
    assert gradient_check(model, features, labels) < 1e-4

def test_gradient_check_degrades_with_h():
    rng = np.random.default_rng(21)
    features = rng.uniform(0, 1, size=(10, 2))
    labels = np.asarray(rng.integers(0, 2, size=10))
    model = mlp_init((2, 3, 1), classes=[0, 1], seed=5)
    errs = [gradient_check(model, features, labels, h=h)
            for h in (1e-5, 1e-3, 1e-2)]
    assert errs[0] <= errs[1] <= errs[2]


# -- SVM optimizer against the KKT conditions ---------------------------------------
#
# _smo is checked by what any optimum of the dual must satisfy, recomputed
# from a fresh kernel rather than read from the optimizer's own state.

TOL = 1e-4  # svm_train's default tolerance


def kkt_residual(x, y, C, sigma, alpha, b):
    """Largest per-sample KKT violation of (alpha, b) on (x, y)."""
    r = y * (rbf_kernel(x, x, sigma) @ (alpha * y) + b - y)
    lower = np.where(alpha < C - 1e-9, np.maximum(0.0, -r), 0.0)
    upper = np.where(alpha > 1e-9, np.maximum(0.0, r), 0.0)
    return float(np.max(np.maximum(lower, upper)))


def assert_smo_meets_kkt(data, C, sigma="auto"):
    """Every class pair svm_train would solve: alpha in the box, on the
    equality constraint, and within TOL of the KKT conditions."""
    if sigma == "auto":
        sigma = median_pairwise_distance(data.features)
    classes = sorted(set(data.labels.tolist()))
    pairs = 0
    for a, neg in enumerate(classes):
        for pos in classes[a + 1:]:
            mask = (data.labels == neg) | (data.labels == pos)
            x = data.features[mask]
            y = np.where(data.labels[mask] == pos, 1.0, -1.0)
            alpha, b, _ = _smo(x, y, C, sigma, TOL, 200)
            assert np.all((alpha >= 0.0) & (alpha <= C)), (neg, pos)
            assert abs(np.sum(alpha * y)) <= 1e-9 * C * len(y), (neg, pos)
            assert kkt_residual(x, y, C, sigma, alpha, b) <= TOL, (neg, pos)
            pairs += 1
    return pairs


def scaled_split(data, seed, fraction=0.5):
    """The training side of `ml`'s split, min-max scaled as `ml` scales it."""
    train, _ = split(data, fraction, seed)
    scaler = MinMaxScaler().fit(train.features)
    return Dataset(scaler.transform(train.features), train.labels)


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_smo_meets_kkt_on_stability_grid(stability_grid, seed):
    from gridstudies.stability import sweep_to_dataset

    train = scaled_split(sweep_to_dataset(stability_grid), seed)
    for C in (1.0, 10.0, 100.0, 1000.0):
        assert_smo_meets_kkt(train, C)
    if seed == 1:
        # no pair step allowed: the optimizer gives up and names the residual
        y = np.where(train.labels == max(train.labels), 1.0, -1.0)
        sigma = median_pairwise_distance(train.features)
        with pytest.raises(ConvergenceError, match="KKT residual"):
            _smo(train.features, y, 100.0, sigma, TOL, 0)


def test_smo_meets_kkt_on_small_sets():
    assert assert_smo_meets_kkt(XOR, 10.0, sigma=0.7) == 1
    assert assert_smo_meets_kkt(blob_dataset(), 1.0) == 1
    assert assert_smo_meets_kkt(blob_dataset(seed=9), 1.0) == 1
    three = blob_dataset(n_per=20, centers=((0, 0), (6, 0), (0, 6)), seed=13)
    assert assert_smo_meets_kkt(three, 1.0) == 3


def test_smo_gives_up_on_a_nan_kernel():
    # sigma this small underflows 2*sigma**2 to 0, so the kernel's diagonal
    # is 0/0; the optimizer must not report such a run as converged
    with pytest.warns(RuntimeWarning), pytest.raises(ConvergenceError):
        _smo(XOR.features, np.array([-1.0, 1.0, 1.0, -1.0]), 1.0, 1e-300,
             TOL, 1)


# (split seed, C) pairs of the split-0.5 survey (seeds 0-39, C 1-1000) on
# which the partner-scan optimizer this one replaced gave up
STALLED_PAIRS = [(1, 100), (2, 300), (4, 1000), (10, 1000), (12, 1000),
                 (18, 300), (21, 1000), (22, 1000), (25, 300), (26, 300),
                 (29, 1000), (31, 1000), (35, 1000), (39, 300)]


@pytest.mark.parametrize("seed,C", STALLED_PAIRS)
def test_svm_converges_where_partner_scan_stalled(stability_grid, seed, C):
    from gridstudies.stability import sweep_to_dataset

    train = scaled_split(sweep_to_dataset(stability_grid), seed)
    assert svm_train(train, C=float(C)).kkt_residual <= TOL
    assert_smo_meets_kkt(train, float(C))


# -- the network against its per-array oracle ---------------------------------------
#
# The network trains in one preallocated workspace.  The oracle below is the
# per-array network it replaced; both must give the same bits.

def oracle_loss_and_grads(model, features, targets):
    """Loss and gradients with fresh arrays for every intermediate."""
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


def oracle_mlp_train(train, layout, seed, epochs, lr):
    model = mlp_init(layout, sorted(set(train.labels.tolist())), seed)
    targets = model.targets_for(train.labels)
    loss, gw, gb = oracle_loss_and_grads(model, train.features, targets)
    model.loss_history.append(loss)
    params = model.weights + model.biases
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            for p, g in zip(params, gw + gb):
                p -= lr * g
            loss, gw, gb = oracle_loss_and_grads(model, train.features, targets)
            if not (np.isfinite(loss) and all(np.isfinite(p).all() for p in params)):
                raise DivergenceError(f"training diverged at epoch {epoch}")
            model.loss_history.append(loss)
    return model


def oracle_gradient_check(model, features, labels, h=1e-5):
    targets = model.targets_for(labels)
    _, gw, gb = oracle_loss_and_grads(model, features, targets)
    worst = 0.0
    for params, grads in zip(model.weights + model.biases, gw + gb):
        flat = params.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = oracle_loss_and_grads(model, features, targets)[0]
            flat[idx] = keep - h
            dn = oracle_loss_and_grads(model, features, targets)[0]
            flat[idx] = keep
            numeric = (up - dn) / (2.0 * h)
            a = grads.ravel()[idx]
            scale = abs(a) + abs(numeric)
            worst = max(worst, abs(a - numeric) / (scale if scale > 1e-8 else 1.0))
    return worst


def assert_same_network(train, layout, seed, epochs, lr):
    model = mlp_train(train, layout, seed=seed, epochs=epochs, lr=lr)
    oracle = oracle_mlp_train(train, layout, seed, epochs, lr)
    assert np.asarray(model.loss_history).tobytes() == \
        np.asarray(oracle.loss_history).tobytes()
    assert len(model.loss_history) == epochs + 1
    for mine, theirs in zip(model.weights + model.biases,
                            oracle.weights + oracle.biases):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        assert mine.flags.owndata  # plain arrays, not views of the workspace


def test_mlp_workspace_matches_per_array_oracle_on_stability_grid(stability_grid):
    from gridstudies.stability import sweep_to_dataset

    train = scaled_split(sweep_to_dataset(stability_grid), 7)
    for layout in ((2, 8, 8, 1), (2, 1, 1)):
        assert_same_network(train, layout, seed=8, epochs=2000, lr=1.0)
    fresh = mlp_init((2, 8, 8, 1), classes=(0, 1), seed=8)
    got = gradient_check(fresh, train.features[:10], train.labels[:10])
    assert got == oracle_gradient_check(fresh, train.features[:10],
                                        train.labels[:10])


def test_mlp_workspace_matches_per_array_oracle_on_xor():
    assert_same_network(XOR, (2, 2, 1), seed=4, epochs=5000, lr=0.5)
    assert_same_network(XOR, (2, 3, 1), seed=99, epochs=0, lr=0.1)
    assert_same_network(XOR, (2, 4, 1), seed=1, epochs=500, lr=0.5)


def test_gradient_check_matches_per_array_oracle():
    rng = np.random.default_rng(17)
    features = rng.uniform(0, 1, size=(10, 2))
    labels = np.asarray(rng.integers(0, 2, size=10))
    for layout, seed in (((2, 3, 1), 3), ((2, 4, 3, 1), 5)):
        model = mlp_init(layout, classes=[0, 1], seed=seed)
        before = [p.copy() for p in model.weights + model.biases]
        for h in (1e-5, 1e-2):
            assert gradient_check(model, features, labels, h=h) == \
                oracle_gradient_check(model, features, labels, h=h)
        # the probe perturbs its own copy of the parameters
        for p, q in zip(model.weights + model.biases, before):
            assert p.tobytes() == q.tobytes()


def test_mlp_divergence_epoch_matches_per_array_oracle():
    data = blob_dataset(n_per=200)
    messages = []
    for train in (mlp_train, oracle_mlp_train):
        with pytest.raises(DivergenceError) as info:
            train(data, (2, 2, 1), 0, 50, 1e308)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "training diverged at epoch 1"


# -- persistence ------------------------------------------------------------------

def test_save_load_round_trips(tmp_path):
    data = blob_dataset(seed=30)
    queries = np.random.default_rng(31).uniform(-2, 8, size=(30, 2))
    scaler = MinMaxScaler().fit(data.features)
    models = [
        svm_train(data, C=1.0),
        mlp_train(Dataset(scaler.transform(data.features), data.labels),
                  layout=(2, 4, 1), seed=2, epochs=200, lr=0.05),
    ]
    inputs = [queries, scaler.transform(queries)]
    for i, model in enumerate(models):
        path = tmp_path / f"model{i}.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.array_equal(clone.predict(inputs[i]), model.predict(inputs[i]))


# -- flashover prediction on the lightning study frame -----------------------------

def test_svm_classifies_lightning_flashovers(lightning_reference):
    from gridstudies.lightning import flashover_dataset

    frame = flashover_dataset(lightning_reference)
    majority = max(np.mean(frame.labels == 0), np.mean(frame.labels == 1))
    train, test = split(frame, 0.5, seed=11)
    model = svm_train(train, C=10.0)
    agreement = evaluate(model, test).true_fraction
    # the frame must actually be learnable, not just majority-guessable
    assert agreement >= 0.90
    assert agreement > majority


def test_flashover_frame_shape(lightning_reference):
    from gridstudies.lightning import flashover_dataset

    result = lightning_reference
    frame = flashover_dataset(result)
    assert frame.n == int(result.impacts.on_line.sum())
    assert frame.label_name == "Flashover"
    assert frame.feature_names[:4] == ("PhaseAngle", "StrokePeak",
                                       "FrontTime", "HalfPeak")
    assert all(name.startswith(("Wire=", "Tower=")) for name in frame.feature_names[4:])
    assert int(frame.labels.sum()) == int(result.flashover.sum())
