"""Learner checks.

Oracles in play:
  1. kNN against an exhaustive plain-Python distance scan with the same
     documented tie rule, and the block predict against the per-row
     predict it replaced, bit for bit
  2. SVM against capacity facts (RBF separates XOR, linear blobs are easy),
     KKT residuals, and permutation invariance of the fitted decision
  3. MLP gradients against central finite differences, plus the classical
     XOR trainability result
  4. round-trip identities: split partitions, scaler bijectivity, JSON
     save/load preserving predictions exactly
  5. the SMO partner scan and the MLP training workspace against the
     pair-by-pair loop and the per-array network they replaced, bit for bit
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


# -- learners against their scalar oracles ----------------------------------------
#
# _smo judges every partner of a violating i in one array pass, and the
# network trains in one preallocated workspace.  The oracles below are the
# pair-by-pair loop and the per-array network they replaced; both must give
# the same bits.

def smo_oracle(x, y, C, sigma, tol, max_sweeps):
    """Pair-by-pair dual ascent: each partner in order is tried alone."""
    n = len(y)
    K = rbf_kernel(x, x, sigma)
    alpha = np.zeros(n)
    b = 0.0
    E = -y.astype(float)

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
            if (r < -tol and alpha[i] < C - 1e-9) or (r > tol and alpha[i] > 1e-9):
                violations += 1
                order = np.argsort(-np.abs(E - E[i]), kind="stable")
                if any(try_pair(i, int(j)) for j in order):
                    progressed += 1
        if violations == 0:
            return alpha, b, residual()
        if progressed == 0:
            break
    res = residual()
    if res <= tol:
        return alpha, b, res
    raise ConvergenceError(
        f"pair optimizer stopped with KKT residual {res:.3e} "
        f"(tolerance {tol}) after {max_sweeps} sweeps")


def smo_outcome(solver, x, y, C, sigma, max_sweeps=200):
    """(alpha, b, residual) bytes, or the ConvergenceError message."""
    try:
        alpha, b, res = solver(x, y, C, sigma, 1e-3, max_sweeps)
    except ConvergenceError as exc:
        return str(exc)
    return alpha.tobytes(), np.float64(b).tobytes(), np.float64(res).tobytes()


def assert_smo_matches_oracle(data, C, sigma="auto", max_sweeps=200):
    """Every class pair svm_train would solve, scan against oracle."""
    if sigma == "auto":
        sigma = median_pairwise_distance(data.features)
    classes = sorted(set(data.labels.tolist()))
    outcomes = []
    for a, neg in enumerate(classes):
        for pos in classes[a + 1:]:
            mask = (data.labels == neg) | (data.labels == pos)
            x = data.features[mask]
            y = np.where(data.labels[mask] == pos, 1.0, -1.0)
            outcome = smo_outcome(_smo, x, y, C, sigma, max_sweeps)
            assert outcome == smo_outcome(smo_oracle, x, y, C, sigma,
                                          max_sweeps), (neg, pos)
            outcomes.append(outcome)
    return outcomes


def scaled_split(data, seed, fraction=0.5):
    """The training side of `ml`'s split, min-max scaled as `ml` scales it."""
    train, _ = split(data, fraction, seed)
    scaler = MinMaxScaler().fit(train.features)
    return Dataset(scaler.transform(train.features), train.labels)


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_smo_scan_matches_pairwise_oracle_on_stability_grid(stability_grid, seed):
    from gridstudies.stability import sweep_to_dataset

    train = scaled_split(sweep_to_dataset(stability_grid), seed)
    for C in (1.0, 10.0, 100.0):
        assert_smo_matches_oracle(train, C)
    if seed == 1:
        # ten sweeps leave a KKT residual of 0.2-0.4 at every SIMD level,
        # far above the 1e-3 tolerance: the optimizer gives up, and the
        # scan must say so alike
        (outcome,) = assert_smo_matches_oracle(train, 100.0, max_sweeps=10)
        assert outcome.startswith("pair optimizer stopped")


def test_smo_scan_matches_pairwise_oracle_on_small_sets():
    assert_smo_matches_oracle(XOR, 10.0, sigma=0.7)
    assert_smo_matches_oracle(blob_dataset(), 1.0)
    assert_smo_matches_oracle(blob_dataset(seed=9), 1.0)
    three = blob_dataset(n_per=20, centers=((0, 0), (6, 0), (0, 6)), seed=13)
    assert len(assert_smo_matches_oracle(three, 1.0)) == 3


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
