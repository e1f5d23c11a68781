"""Learner checks.

Oracles in play:
  1. kNN against an exhaustive plain-Python distance scan with the same
     documented tie rule
  2. SVM against capacity facts (RBF separates XOR, linear blobs are easy),
     KKT residuals, and permutation invariance of the fitted decision
  3. MLP gradients against central finite differences, plus the classical
     XOR trainability result
  4. round-trip identities: split partitions, scaler bijectivity, JSON
     save/load preserving predictions exactly
"""

import numpy as np
import pytest

from gridstudies.ml import (
    Agreement,
    ConvergenceError,
    Dataset,
    DivergenceError,
    KnnModel,
    MinMaxScaler,
    DivergenceError as _,  # noqa: F401  (re-exported name sanity)
    evaluate,
    gradient_check,
    knn_fit,
    load_model,
    median_pairwise_distance,
    mlp_init,
    mlp_train,
    one_hot,
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
