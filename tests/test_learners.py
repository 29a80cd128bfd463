"""Classifier portfolio: hyperparameter space, each learner's math, shared
predict contract, determinism, and the JSON serialization round-trip."""

import collections
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special

from sentigram import learners
from sentigram.automl import EnsembleMember, TrainedEnsemble
from sentigram.features import FeatureMatrix, vectorize
from sentigram.learners import (
    DEFAULT_HP,
    HP_SPACE,
    KINDS,
    _LBFGS_MAX_ITER,
    _LBFGS_REL_GRAD,
    ConstantModel,
    MultinomialNB,
    RandomForest,
    _Bins,
    _dot,
    _lbfgs,
    _NodeTable,
    _Tree,
    _nonnegative,
    _one_vs_best_rest,
    _softmax,
    default_hp,
    model_from_dict,
    model_to_dict,
    sample_hp,
    softmax_xent_loss_grad,
    squared_hinge_loss_grad,
    train,
    validate_hp,
)
from sentigram.ngrams import build_dictionary
from sentigram.preprocess import load_stoplist, preprocess

FP = "fingerprint-of-test-dictionary"


def json_roundtrip(model):
    """The model rebuilt from its serialized JSON text."""
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))))


def probe_matrix(X):
    """Raw sparse rows as a matrix of the test dictionary."""
    return FeatureMatrix(X=X, y=None, fingerprint=FP, scheme="count")


def separable_matrix(n_per_class=8, noise=0.05, seed=0, classes=(0, 1, 2)):
    """Linearly separable sparse data: class c loads on feature pair (2c, 2c+1)."""
    rng = np.random.default_rng(seed)
    n_features = 2 * max(classes) + 2
    rows, labels = [], []
    for c in classes:
        for _ in range(n_per_class):
            row = rng.uniform(0, noise, size=n_features)
            row[2 * c] = rng.uniform(3, 5)
            row[2 * c + 1] = rng.uniform(3, 5)
            rows.append(row)
            labels.append(c)
    X = sp.csr_matrix(np.asarray(rows))
    return FeatureMatrix(X=X, y=np.asarray(labels, dtype=np.int64), fingerprint=FP, scheme="count")


def _workloads():
    """The benchmark's corpus generators, ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def se_like_rows(n_train, n_test, seed):
    """Labeled phrase-IDF rows of the benchmark's SE-like corpus: training
    rows and held-out rows vectorized against the training dictionary."""
    workloads = _workloads()
    docs = workloads.se_like_documents(n_train + n_test, seed)
    stoplist = load_stoplist()
    tokens = [preprocess(text, stoplist) for text, _ in docs]
    y = np.array([workloads.LABELS.index(label) for _, label in docs])
    dictionary = build_dictionary(tokens[:n_train], max_n=10, min_freq=2)
    X = vectorize(tokens, dictionary, "count_x_weight")
    return (X[:n_train], y[:n_train]), (X[n_train:], y[n_train:])


def planted_rows(counts, seed):
    """Labeled phrase-IDF rows of the benchmark's planted corpus (unigrams
    and bigrams, no stop list), ``counts`` documents per class."""
    workloads = _workloads()
    docs = workloads.planted_documents(counts, seed)
    tokens = [preprocess(text) for text, _ in docs]
    y = np.array([workloads.LABELS.index(label) for _, label in docs])
    dictionary = build_dictionary(tokens, max_n=2, min_freq=2)
    return vectorize(tokens, dictionary, "count_x_weight"), y


def fast_hp(kind):
    """Defaults shrunk where they only cost time."""
    hp = default_hp(kind)
    if kind == "random_forest":
        hp.update(n_trees=10, max_depth=8)
    return hp


class TestHyperparameterSpace:
    def test_default_hp_is_a_fresh_copy(self):
        hp = default_hp("multinomial_nb")
        hp["alpha"] = 99.0
        assert DEFAULT_HP["multinomial_nb"]["alpha"] == 1.0

    def test_validate_fills_missing_values(self):
        full = validate_hp("random_forest", {"n_trees": 20})
        assert full["n_trees"] == 20
        assert full["max_depth"] == DEFAULT_HP["random_forest"]["max_depth"]

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            validate_hp("multinomial_nb", {"depth": 3})

    def test_validate_range_checks(self):
        with pytest.raises(ValueError, match="alpha"):
            validate_hp("multinomial_nb", {"alpha": 100.0})
        with pytest.raises(ValueError, match="l2"):
            validate_hp("linear_svm", {"l2": 1.0})
        with pytest.raises(ValueError, match="n_trees"):
            validate_hp("random_forest", {"n_trees": 5})
        with pytest.raises(ValueError, match="n_trees"):
            validate_hp("random_forest", {"n_trees": 20.5})
        with pytest.raises(ValueError, match="feature_fraction"):
            validate_hp("random_forest", {"feature_fraction": 0.3})

    def test_unknown_kind_rejected_everywhere(self):
        for fn in (default_hp, lambda k: validate_hp(k, {})):
            with pytest.raises(ValueError, match="kind"):
                fn("gradient_boost")

    def test_sample_hp_respects_declared_ranges(self):
        rng = np.random.default_rng(50)
        for kind in KINDS:
            for _ in range(100):
                hp = sample_hp(kind, rng)
                assert set(hp) == set(HP_SPACE[kind])
                validated = validate_hp(kind, hp)
                assert validated == {**hp, **validated}

    def test_sample_hp_deterministic_in_rng_state(self):
        a = sample_hp("random_forest", np.random.default_rng(7))
        b = sample_hp("random_forest", np.random.default_rng(7))
        assert a == b


class TestMultinomialNB:
    def test_matches_hand_computed_laplace_estimates(self):
        X = sp.csr_matrix(np.asarray([[2.0, 0.0], [0.0, 3.0]]))
        fm = FeatureMatrix(X=X, y=np.asarray([0, 1]), fingerprint=FP, scheme="count")
        model = train("multinomial_nb", {"alpha": 1.0}, fm)
        # class 0: counts (2, 0), total 2, 2 features, alpha 1
        expected_0 = [math.log(3 / 4), math.log(1 / 4)]
        expected_1 = [math.log(1 / 5), math.log(4 / 5)]
        np.testing.assert_allclose(model.feature_log_prob_[0], expected_0, atol=1e-9)
        np.testing.assert_allclose(model.feature_log_prob_[1], expected_1, atol=1e-9)
        np.testing.assert_allclose(model.class_log_prior_, [math.log(0.5)] * 2, atol=1e-9)

    def test_scores_are_exact_posteriors(self):
        X = sp.csr_matrix(np.asarray([[2.0, 0.0], [0.0, 3.0]]))
        fm = FeatureMatrix(X=X, y=np.asarray([0, 1]), fingerprint=FP, scheme="count")
        model = train("multinomial_nb", {"alpha": 1.0}, fm)
        probe = probe_matrix(sp.csr_matrix(np.asarray([[1.0, 0.0]])))
        # posterior ratio for [1, 0]: p(c) * p(f0 | c)
        post = np.asarray([0.5 * 3 / 4, 0.5 * 1 / 5])
        np.testing.assert_allclose(
            model.predict_scores(probe)[0], post / post.sum(), atol=1e-12
        )
        assert model.predict(probe)[0] == 0

    def test_alpha_changes_smoothing_per_formula(self):
        X = sp.csr_matrix(np.asarray([[4.0, 1.0], [1.0, 6.0]]))
        fm = FeatureMatrix(X=X, y=np.asarray([0, 1]), fingerprint=FP, scheme="count")
        model = train("multinomial_nb", {"alpha": 0.5}, fm)
        np.testing.assert_allclose(
            model.feature_log_prob_[0],
            [math.log(4.5 / 6.0), math.log(1.5 / 6.0)],
            atol=1e-12,
        )

    def test_negative_values_are_clamped_to_zero(self):
        X_neg = sp.csr_matrix(np.asarray([[2.0, -1.0], [-0.5, 3.0]]))
        X_clamped = sp.csr_matrix(np.asarray([[2.0, 0.0], [0.0, 3.0]]))
        y = np.asarray([0, 1])
        a = train("multinomial_nb", {}, FeatureMatrix(X_neg, y, FP, "count_x_weight"))
        b = train("multinomial_nb", {}, FeatureMatrix(X_clamped, y, FP, "count_x_weight"))
        np.testing.assert_allclose(a.feature_log_prob_, b.feature_log_prob_, atol=1e-15)
        probe = probe_matrix(sp.csr_matrix(np.asarray([[1.0, -2.0]])))
        clamped = probe_matrix(sp.csr_matrix(np.asarray([[1.0, 0.0]])))
        np.testing.assert_allclose(a.predict_scores(probe), b.predict_scores(clamped), atol=1e-15)

    def test_clamp_shares_the_index_arrays_and_leaves_the_rows_be(self):
        # the clamped rows are new values over the caller's own index arrays,
        # equal in every array and dtype to the copy-and-clamp they replace
        rows = sp.csr_matrix(np.asarray([[2.0, -1.0, 0.0], [-0.5, 0.0, 3.0]]))
        X = probe_matrix(rows).X
        before = X.copy()
        clamped = _nonnegative(X)
        assert clamped.indices is X.indices and clamped.indptr is X.indptr
        assert clamped.has_canonical_format
        reference = X.copy()
        np.maximum(reference.data, 0, out=reference.data)
        for name in ("data", "indices", "indptr"):
            assert getattr(clamped, name).dtype == getattr(reference, name).dtype
        assert_same_storage(clamped, reference)
        assert_same_storage(X, before)
        assert clamped.shape == X.shape and clamped.data.tolist() == [2.0, 0.0, 0.0, 3.0]

    def test_prior_reflects_class_imbalance(self):
        X = sp.csr_matrix(np.ones((4, 1)))
        fm = FeatureMatrix(X=X, y=np.asarray([0, 0, 0, 2]), fingerprint=FP, scheme="count")
        model = train("multinomial_nb", {}, fm)
        np.testing.assert_allclose(
            model.class_log_prior_, [math.log(0.75), math.log(0.25)], atol=1e-12
        )


def central_differences(loss_grad, W, b, X, y, l2, h=1e-6):
    """The gradients of ``loss_grad``'s loss in W and in b by central finite differences."""
    theta = np.concatenate((W.ravel(), b))

    def loss(t):
        return loss_grad(t[: W.size].reshape(W.shape), t[W.size :], X, y, l2)[0]

    fd = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        fd[i] = (loss(theta + step) - loss(theta - step)) / (2 * h)
    return fd[: W.size].reshape(W.shape), fd[W.size :]


def gradient_fixture(sparse):
    rng = np.random.default_rng(51)
    n, F, k = 12, 5, 3
    X = rng.normal(size=(n, F))
    X[rng.random((n, F)) < 0.3] = 0.0
    if sparse:
        X = sp.csr_matrix(X)
    W = rng.normal(scale=0.5, size=(k, F))
    b = rng.normal(scale=0.5, size=k)
    y = rng.integers(0, k, size=n)
    return W, b, X, y


class TestSoftmaxGradient:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_gradient_matches_central_finite_differences(self, sparse):
        W, b, X, y = gradient_fixture(sparse)
        l2 = 0.01
        loss, gW, gb = softmax_xent_loss_grad(W, b, X, y, l2)
        fd_W, fd_b = central_differences(softmax_xent_loss_grad, W, b, X, y, l2)
        np.testing.assert_allclose(gW, fd_W, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(gb, fd_b, rtol=1e-5, atol=1e-8)

    def test_sparse_and_dense_agree_exactly_on_loss(self):
        W, b, X, y = gradient_fixture(sparse=False)
        loss_d, gW_d, gb_d = softmax_xent_loss_grad(W, b, X, y, 0.01)
        loss_s, gW_s, gb_s = softmax_xent_loss_grad(W, b, sp.csr_matrix(X), y, 0.01)
        assert loss_d == pytest.approx(loss_s, abs=1e-12)
        np.testing.assert_allclose(gW_d, gW_s, atol=1e-12)
        np.testing.assert_allclose(gb_d, gb_s, atol=1e-12)

    def test_zero_weights_loss_is_log_k(self):
        rng = np.random.default_rng(52)
        X = sp.csr_matrix(rng.normal(size=(9, 4)))
        y = rng.integers(0, 3, size=9)
        loss, _, _ = softmax_xent_loss_grad(np.zeros((3, 4)), np.zeros(3), X, y, 0.0)
        assert loss == pytest.approx(math.log(3), abs=1e-12)


class TestSoftmax:
    """The learners' row softmax is scipy's, bit for bit."""

    @pytest.mark.parametrize(
        "z",
        [
            np.random.default_rng(3).normal(0.0, 4.0, size=(50, 3)),
            np.random.default_rng(4).normal(0.0, 1.0, size=(7, 1)),
            np.random.default_rng(5).uniform(-700.0, 700.0, size=(40, 4)),
            np.asarray([[700.0, -700.0, 0.0], [-700.0, -699.5, -701.0], [709.0, 708.0, -745.0]]),
            np.full((4, 3), 2.5),
            np.zeros((2, 5)),
            np.zeros((0, 3)),
        ],
        ids=["random", "one-class", "margins-700", "extremes", "equal", "zeros", "no-rows"],
    )
    def test_equals_scipys_softmax(self, z):
        before = z.copy()
        got, expected = _softmax(z), scipy.special.softmax(z, axis=1)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(z, before)


class TestSquaredHingeGradient:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_gradient_matches_central_finite_differences(self, sparse):
        W, b, X, y = gradient_fixture(sparse)
        margins = X @ W.T + b
        Y = np.where(np.arange(3) == y[:, None], 1.0, -1.0)
        assert 0 < np.sum(Y * margins < 1) < Y.size  # rows on both sides of the hinge
        l2 = 0.01
        loss, gW, gb = squared_hinge_loss_grad(W, b, X, y, l2)
        slack = np.maximum(0.0, 1.0 - Y * margins)
        assert loss == pytest.approx(np.sum(slack**2) / len(y) + 0.005 * np.sum(W**2), abs=1e-12)
        fd_W, fd_b = central_differences(squared_hinge_loss_grad, W, b, X, y, l2)
        np.testing.assert_allclose(gW, fd_W, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(gb, fd_b, rtol=1e-5, atol=1e-8)


LINEAR_OBJECTIVES = {
    "logistic_regression": softmax_xent_loss_grad,
    "linear_svm": squared_hinge_loss_grad,
}


class TestLinearTraining:
    @pytest.mark.parametrize("kind", LINEAR_OBJECTIVES)
    def test_fit_ends_at_a_stationary_point(self, kind):
        fm = separable_matrix(noise=1.5, seed=6)
        model = train(kind, fast_hp(kind), fm, seed=0)
        y_local = np.searchsorted(model.classes_, fm.y)
        loss_grad = LINEAR_OBJECTIVES[kind]
        l2 = model.hp["l2"]
        # the largest gradient entry: above 0.1 at the starting point, below 1e-3 at the fit
        _, gW, gb = loss_grad(np.zeros_like(model.W_), np.zeros(3), fm.X, y_local, l2)
        assert max(np.abs(gW).max(), np.abs(gb).max()) > 0.1
        _, gW, gb = loss_grad(model.W_, model.b_, fm.X, y_local, l2)
        assert max(np.abs(gW).max(), np.abs(gb).max()) < 1e-3

    @pytest.mark.parametrize("kind", LINEAR_OBJECTIVES)
    def test_fit_is_lbfgs_over_the_public_objective_bit_for_bit(self, kind):
        """The transpose and targets a fit builds once change no bit of the
        documented objective's minimizer."""
        (X, y), _ = se_like_rows(200, 0, seed=8)
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        model = train(kind, {"l2": 1e-3}, fm, seed=0)
        k, F = model.W_.shape
        y_local = np.searchsorted(model.classes_, y)

        def objective(theta):
            W = theta[k:].reshape(F, k).T
            loss, grad_W, grad_b = LINEAR_OBJECTIVES[kind](W, theta[:k], X, y_local, 1e-3)
            return loss, np.concatenate((grad_b, grad_W.T.ravel()))

        theta = _lbfgs(objective, np.zeros(k + k * F))
        assert model.b_.tobytes() == theta[:k].tobytes()
        assert model.W_.T.tobytes() == theta[k:].tobytes()

    @pytest.mark.parametrize("kind", LINEAR_OBJECTIVES)
    def test_fit_stops_on_the_relative_gradient_norm(self, kind, monkeypatch):
        """LIBLINEAR's stop ends the fit well within the step cap, at the first
        point whose gradient norm is at most _LBFGS_REL_GRAD of the start point's."""
        (X, y), _ = se_like_rows(200, 0, seed=8)
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        points, gradients, fits = [], [], []

        def observed_lbfgs(fun, x):
            def observed(theta):
                value, gradient = fun(theta)
                points.append(theta)
                gradients.append(gradient)
                return value, gradient

            fits.append(_lbfgs(observed, x))
            return fits[-1]

        monkeypatch.setattr(learners, "_lbfgs", observed_lbfgs)
        train(kind, {}, fm)
        [theta] = fits
        assert len(points) < _LBFGS_MAX_ITER  # each step evaluates the objective at least once
        norms = [math.sqrt(_dot(g, g)) for g in gradients]
        met = [norm <= _LBFGS_REL_GRAD * norms[0] for norm in norms]
        assert points[-1] is theta and met == [False] * (len(met) - 1) + [True]

    def test_a_start_at_a_zero_gradient_is_returned_unchanged(self):
        x, calls = np.array([1.0, -2.0, 3.0]), []

        def flat(theta):
            calls.append(theta)
            return 5.0, np.zeros_like(theta)

        assert _lbfgs(flat, x) is x
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", LINEAR_OBJECTIVES)
    def test_fit_on_zero_features_predicts(self, kind):
        # only the biases can move; class 0 holds half the rows and wins
        fm = FeatureMatrix(
            X=sp.csr_matrix((4, 0)), y=np.asarray([0, 1, 0, 2]), fingerprint=FP, scheme="count"
        )
        model = train(kind, {}, fm)
        assert model.W_.shape == (3, 0)
        np.testing.assert_array_equal(model.predict(fm), [0, 0, 0, 0])
        np.testing.assert_allclose(model.predict_scores(fm).sum(axis=1), 1.0)

    @pytest.mark.parametrize("kind", LINEAR_OBJECTIVES)
    def test_fit_is_bit_identical_across_runs_and_seeds(self, kind):
        fm = separable_matrix(noise=1.5, seed=6)
        a, b, c = (train(kind, fast_hp(kind), fm, seed=seed) for seed in (0, 0, 9))
        for other in (b, c):
            np.testing.assert_array_equal(other.W_, a.W_)
            np.testing.assert_array_equal(other.b_, a.b_)


class TestSharedPredictContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reaches_full_training_accuracy_on_separable_data(self, kind):
        fm = separable_matrix()
        model = train(kind, fast_hp(kind), fm, seed=0)
        np.testing.assert_array_equal(model.predict(fm), fm.y)

    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_are_distributions_and_argmax_equals_predict(self, kind):
        fm = separable_matrix(seed=4)
        model = train(kind, fast_hp(kind), fm, seed=0)
        scores = model.predict_scores(fm)
        assert scores.shape == (fm.n_documents, len(model.classes_))
        assert np.all(scores >= 0)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(
            model.classes_[np.argmax(scores, axis=1)], model.predict(fm)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_classes_are_the_observed_subset(self, kind):
        fm = separable_matrix(classes=(0, 2), seed=5)  # no neutral documents
        model = train(kind, fast_hp(kind), fm, seed=0)
        np.testing.assert_array_equal(model.classes_, [0, 2])
        assert set(model.predict(fm)) <= {0, 2}
        assert model.predict_scores(fm).shape[1] == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_given_seed(self, kind):
        fm = separable_matrix(noise=1.5, seed=6)  # noisy enough to be nontrivial
        a = train(kind, fast_hp(kind), fm, seed=9)
        b = train(kind, fast_hp(kind), fm, seed=9)
        np.testing.assert_array_equal(
            a.predict_scores(fm), b.predict_scores(fm)
        )
        assert model_to_dict(a) == model_to_dict(b)

    def test_score_tie_breaks_to_lowest_label(self):
        # equal priors and identical likelihood rows: an all-zero probe ties
        X = sp.csr_matrix(np.asarray([[1.0], [1.0]]))
        fm = FeatureMatrix(X=X, y=np.asarray([0, 2]), fingerprint=FP, scheme="count")
        model = train("multinomial_nb", {}, fm)
        probe = probe_matrix(sp.csr_matrix(np.zeros((1, 1))))
        scores = model.predict_scores(probe)
        assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
        assert model.predict(probe)[0] == 0

    def test_single_class_training_yields_constant_model(self):
        fm = separable_matrix(classes=(1,), seed=7)
        for kind in KINDS:
            model = train(kind, {}, fm, seed=0)
            assert isinstance(model, ConstantModel)
            assert model.kind == kind
            np.testing.assert_array_equal(model.predict(fm), np.ones(fm.n_documents))
            np.testing.assert_array_equal(model.predict_scores(fm), 1.0)
            assert model.class_margins(fm) is None

    def test_train_argument_validation(self):
        fm = separable_matrix()
        with pytest.raises(ValueError, match="kind"):
            train("adaboost", {}, fm)
        unlabeled = FeatureMatrix(X=fm.X, y=None, fingerprint=FP, scheme="count")
        with pytest.raises(ValueError, match="labels"):
            train("multinomial_nb", {}, unlabeled)
        empty = FeatureMatrix(
            X=sp.csr_matrix((0, 4)), y=np.empty(0, dtype=np.int64), fingerprint=FP, scheme="count"
        )
        with pytest.raises(ValueError, match="empty"):
            train("multinomial_nb", {}, empty)

    def test_fingerprint_mismatch_rejected_at_predict_time(self):
        fm = separable_matrix()
        model = train("multinomial_nb", {}, fm)
        other = FeatureMatrix(X=fm.X, y=fm.y, fingerprint="other", scheme="count")
        with pytest.raises(ValueError, match="different dictionary"):
            model.predict(other)

    @pytest.mark.parametrize("kind", KINDS)
    def test_raw_rows_are_refused_by_every_entry_point(self, kind):
        # only a FeatureMatrix carries the fingerprint the guard compares
        fm = separable_matrix()
        model = train(kind, fast_hp(kind), fm, seed=0)
        calls = [model.predict, model.predict_scores, model.class_margins]
        if kind == "random_forest":
            calls.append(model.permutation_importance)
        for call in calls:
            for raw in (fm.X, fm.X.toarray()):
                with pytest.raises(AttributeError, match="fingerprint"):
                    call(raw)

    def test_wrong_column_count_rejected(self):
        fm = separable_matrix()
        model = train("multinomial_nb", {}, fm)
        with pytest.raises(ValueError, match="column"):
            model.predict(probe_matrix(sp.csr_matrix((2, 3))))

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_rows_rejected(self, kind):
        fm = separable_matrix()
        model = train(kind, fast_hp(kind), fm, seed=0)
        with pytest.raises(ValueError, match="sparse"):
            model.predict_scores(probe_matrix(fm.X.toarray()))


class TestClassMargins:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_row_per_observed_class_and_one_column_per_feature(self, kind):
        fm = separable_matrix(classes=(0, 2), seed=14)  # 2 classes, 6 features
        model = train(kind, fast_hp(kind), fm, seed=0)
        assert model.class_margins(fm).shape == (2, fm.n_features)

    def test_one_vs_best_rest_margins_by_hand(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        expected = np.array([[-2.0, -2.0], [2.0, 2.0], [-3.0, -4.0]])
        np.testing.assert_allclose(_one_vs_best_rest(M), expected)


class TestRandomForest:
    def test_low_cardinality_feature_splits_exactly(self):
        # <= 33 unique values keep every candidate midpoint, so one split
        # separates the classes perfectly
        x = np.concatenate([np.arange(-15.0, 0.0), np.arange(1.0, 16.0)]).repeat(3)
        y = np.asarray([0] * 45 + [1] * 45)
        fm = FeatureMatrix(
            X=sp.csr_matrix(x[:, None]), y=y, fingerprint=FP, scheme="count"
        )
        hp = {"n_trees": 10, "max_depth": 3, "bootstrap": False, "feature_fraction": 1.0}
        model = train("random_forest", hp, fm, seed=0)
        np.testing.assert_array_equal(model.predict(fm), y)
        # without bootstrap every tree sees the same rows and full feature set,
        # so the consensus is unanimous
        np.testing.assert_allclose(model.predict_scores(fm).max(axis=1), 1.0)

    def test_high_cardinality_feature_still_informative_after_binning(self):
        # > 32 unique values trigger threshold subsampling: splits become
        # approximate near the class boundary but the column must stay useful
        rng = np.random.default_rng(53)
        x = np.concatenate([rng.uniform(-5, -1, 50), rng.uniform(1, 5, 50)])
        y = np.asarray([0] * 50 + [1] * 50)
        fm = FeatureMatrix(
            X=sp.csr_matrix(x[:, None]), y=y, fingerprint=FP, scheme="count"
        )
        hp = {"n_trees": 10, "max_depth": 3, "bootstrap": False, "feature_fraction": 1.0}
        model = train("random_forest", hp, fm, seed=0)
        assert np.mean(model.predict(fm) == y) >= 0.95

    def test_vote_fractions_are_tree_consensus(self):
        fm = separable_matrix(seed=8)
        hp = {"n_trees": 11, "max_depth": 8, "bootstrap": True, "feature_fraction": 1.0}
        model = train("random_forest", hp, fm, seed=2)
        scores = model.predict_scores(fm)
        votes = scores * 11
        np.testing.assert_allclose(votes, np.round(votes), atol=1e-9)

    def test_permutation_importance_ranks_informative_feature(self):
        rng = np.random.default_rng(54)
        n = 60
        informative = np.where(np.arange(n) < n // 2, -2.0, 2.0) + rng.normal(0, 0.1, n)
        noise = rng.normal(size=(n, 3))
        X = sp.csr_matrix(np.column_stack([noise[:, :2], informative, noise[:, 2]]))
        y = np.asarray([0] * (n // 2) + [1] * (n // 2))
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        hp = {"n_trees": 15, "max_depth": 4, "feature_fraction": 1.0, "bootstrap": True}
        model = train("random_forest", hp, fm, seed=3)
        imp = model.permutation_importance(fm, seed=0)
        assert imp.shape == (4,)
        assert imp[2] > 0.2
        assert imp[2] > max(imp[0], imp[1], imp[3])

    def test_permutation_importance_subsamples(self):
        fm = separable_matrix(seed=9)
        hp = {"n_trees": 10, "max_depth": 6, "feature_fraction": 1.0, "bootstrap": True}
        model = train("random_forest", hp, fm, seed=1)
        first = model.permutation_importance(fm, seed=0, max_rows=8)
        assert first.shape == (fm.n_features,)
        np.testing.assert_array_equal(
            model.permutation_importance(fm, seed=0, max_rows=8), first
        )

    def test_reloaded_forest_predicts_and_ranks_identically(self):
        fm = separable_matrix(seed=10)
        model = train("random_forest", fast_hp("random_forest"), fm, seed=4)
        back = json_roundtrip(model)
        np.testing.assert_array_equal(
            back.predict_scores(fm), model.predict_scores(fm)
        )
        np.testing.assert_array_equal(
            back.permutation_importance(fm), model.permutation_importance(fm)
        )


def split_fixture(seed, full_column=False, n=60, F=10, k=3):
    """Sparse rows for the split search's edge cases: negative values (so a
    zero code above 0), stored 0.0 entries, all-zero rows 7 and 8 or, with
    ``full_column``, a column stored in every row, and a column with more
    than 33 distinct values."""
    rng = np.random.default_rng(seed)
    dense = rng.choice([0.0, 1.0, 2.0, -1.5, 3.0], size=(n, F), p=[0.7, 0.1, 0.1, 0.05, 0.05])
    dense[:, 0] = rng.normal(size=n) * (rng.random(n) < 0.8)
    dense[:, 1] = -rng.integers(1, 4, size=n) * (rng.random(n) < 0.5)  # only values <= 0
    if full_column:
        dense[:, 2] = rng.uniform(1.0, 2.0, size=n).round(1)
    else:
        dense[[7, 8]] = 0.0
    coo = sp.coo_matrix(dense)
    zeros = [(r, 3) for r in range(0, n, 5) if dense[r, 3] == 0.0]
    X = sp.csr_matrix(
        (
            np.append(coo.data, [0.0] * len(zeros)),
            (np.append(coo.row, [r for r, _ in zeros]), np.append(coo.col, [c for _, c in zeros])),
        ),
        shape=(n, F),
    )
    assert X.nnz > np.count_nonzero(dense)  # stored zeros survive
    y = rng.integers(0, k, size=n)
    y[[7, 8]] = [0, 1]
    return X, y


def dense_binning(X):
    """Every row's code per feature, from the dense matrix: the reference binning."""
    dense = X.toarray()
    codes = np.zeros(dense.shape[::-1], dtype=np.int64)
    thresholds = []
    for j, col in enumerate(dense.T):
        uniq = np.unique(col)
        mids = (uniq[:-1] + uniq[1:]) / 2.0
        if len(mids) > 32:
            mids = mids[np.linspace(0, len(mids) - 1, 32).round().astype(int)]
        codes[j] = np.searchsorted(mids, col, side="left")
        thresholds.append(mids)
    return codes, thresholds


def dense_split(codes, thresholds, y, k, rows, candidates, min_leaf):
    """Reference split search: a dense (candidates, codes, classes) histogram
    filled with np.add.at over every row of the node."""
    counts = np.bincount(y[rows], minlength=k)
    n_node = len(rows)
    parent = n_node - np.sum(counts.astype(float) ** 2) / n_node
    n_codes = np.asarray([len(thresholds[f]) + 1 for f in candidates])
    width = int(n_codes.max())
    if width < 2:
        return None
    hist = np.zeros((len(candidates), width, k))
    sub = codes[np.ix_(candidates, rows)]
    np.add.at(hist, (np.arange(len(candidates))[:, None], sub, y[rows][None, :]), 1.0)
    left = np.cumsum(hist, axis=1)[:, :-1, :]
    nl = left.sum(axis=2)
    nr = n_node - nl
    right = counts.astype(float)[None, None, :] - left
    impurity = (nl - (left**2).sum(axis=2) / np.maximum(nl, 1.0)) + (
        nr - (right**2).sum(axis=2) / np.maximum(nr, 1.0)
    )
    padding = np.arange(width - 1)[None, :] >= (n_codes - 1)[:, None]
    impurity[(nl < min_leaf) | (nr < min_leaf) | padding] = np.inf
    fi, code = divmod(int(np.argmin(impurity)), width - 1)
    gain = (parent - impurity[fi, code]) / n_node
    if not np.isfinite(gain) or gain <= 1e-12:
        return None
    feat = int(candidates[fi])
    return feat, code, float(thresholds[feat][code])


def dense_best_split(X, min_leaf):
    """A stand-in for ``RandomForest._best_split`` on X: the same candidate
    draw, then the dense reference's split."""
    codes, thresholds = dense_binning(X)

    def best_split(self, bins, y_local, k, rows, m, rng, counts):
        candidates = np.sort(rng.choice(self.n_features_, size=m, replace=False))
        split = dense_split(codes, thresholds, y_local, k, rows, candidates, min_leaf)
        return None if split is None else (split[0], split[2], codes[split[0], rows] <= split[1])

    return best_split


class TestSparseSplitSearch:
    """The split search over a node's stored entries equals the dense reference."""

    FRACTIONS = HP_SPACE["random_forest"]["feature_fraction"][1]

    @staticmethod
    def _forest(n_features, **hp):
        return RandomForest(
            "random_forest", validate_hp("random_forest", hp), 0, np.arange(3), n_features, FP
        )

    @pytest.mark.parametrize("full_column", [False, True])
    def test_random_nodes_split_like_the_dense_reference(self, full_column):
        X, y = split_fixture(20 + full_column, full_column)
        codes, thresholds = dense_binning(X)
        bins = RandomForest._bin_entries(X)
        assert bins.zero_code[1] > 0
        rng = np.random.default_rng(58)
        splits = 0
        for trial in range(160):
            frac = self.FRACTIONS[trial % 4]
            leaf = 1 + trial % 4 if trial % 8 < 4 else 4 - trial % 4
            model = self._forest(X.shape[1], feature_fraction=frac, min_samples_leaf=leaf)
            size = int(rng.integers(2, X.shape[0] + 1))
            if trial % 2:  # a bootstrap node repeats rows
                rows = np.sort(rng.integers(0, X.shape[0], size))
            else:
                rows = np.sort(rng.choice(X.shape[0], size, replace=False))
            counts = np.bincount(y[rows], minlength=3)
            m = model._features_per_node()
            got = model._best_split(bins, y, 3, rows, m, np.random.default_rng(trial), counts)
            candidates = np.sort(
                np.random.default_rng(trial).choice(X.shape[1], size=m, replace=False)
            )
            want = dense_split(codes, thresholds, y, 3, rows, candidates, leaf)
            if want is None:
                assert got is None
                continue
            splits += 1
            feat, code, thr = want
            assert got[:2] == (feat, thr)
            np.testing.assert_array_equal(got[2], codes[feat, rows] <= code)
        assert splits > 80

    @pytest.mark.parametrize("full_column", [False, True])
    def test_binning_matches_the_dense_reference(self, full_column):
        X, _ = split_fixture(24, full_column)
        codes, thresholds = dense_binning(X)
        assert max(len(t) for t in thresholds) == 32  # column 0 is thinned
        bins = RandomForest._bin_entries(X)
        for j, want in enumerate(thresholds):
            np.testing.assert_array_equal(
                bins.thresholds[bins.offsets[j] : bins.offsets[j + 1]], want
            )
        np.testing.assert_array_equal(bins.n_codes, [len(t) + 1 for t in thresholds])
        np.testing.assert_array_equal(
            bins.zero_code, [np.searchsorted(t, 0.0, side="left") for t in thresholds]
        )
        rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
        np.testing.assert_array_equal(bins.codes, codes[X.indices, rows])
        # the column view: each feature's entries in row order, rows in the CSR's index dtype
        by_column = X.tocsc()
        np.testing.assert_array_equal(bins.stored, np.diff(by_column.indptr))
        np.testing.assert_array_equal(bins.col_ptr, by_column.indptr)
        np.testing.assert_array_equal(bins.col_rows, by_column.indices)
        assert bins.col_rows.dtype == X.indices.dtype
        feature = np.repeat(np.arange(X.shape[1]), bins.stored)
        np.testing.assert_array_equal(bins.col_codes, codes[feature, by_column.indices])

    def test_node_without_a_splittable_feature_has_no_split(self):
        X, y = split_fixture(22)
        all_zero = np.asarray([7, 7, 8, 8])  # rows without a stored entry
        constant = sp.csr_matrix(np.ones((X.shape[0], 2)))  # one code per feature
        for X, rows in ((X, all_zero), (constant, np.arange(X.shape[0]))):
            model = self._forest(X.shape[1], feature_fraction=1.0)
            counts = np.bincount(y[rows], minlength=3)
            split = model._best_split(
                RandomForest._bin_entries(X), y, 3, rows, X.shape[1],
                np.random.default_rng(0), counts,
            )
            assert split is None

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("frac", FRACTIONS)
    def test_whole_forest_equals_dense_reference(self, monkeypatch, bootstrap, frac):
        X, y = split_fixture(23, full_column=bootstrap)
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        leaf = 1 + self.FRACTIONS.index(frac)
        hp = {"n_trees": 10, "max_depth": 8, "feature_fraction": frac,
              "min_samples_leaf": leaf, "bootstrap": bootstrap}
        sparse_forest = model_to_dict(train("random_forest", hp, fm, seed=6))
        monkeypatch.setattr(RandomForest, "_best_split", dense_best_split(X, leaf))
        assert model_to_dict(train("random_forest", hp, fm, seed=6)) == sparse_forest
        assert sum(len(t["feature"]) for t in sparse_forest["params"]["trees"]) > 10 * 3

    @pytest.mark.parametrize("corpus", ["planted", "se_like"])
    def test_forest_grid_equals_dense_reference_by_rows_and_by_columns(self, monkeypatch, corpus):
        """Every ``feature_fraction`` x bootstrap x two depths grows the trees
        of the dense reference, and the grid reads a node's entries both ways,
        by columns also where the bootstrap repeats a node's rows."""
        if corpus == "planted":
            X, y = planted_rows((40, 30, 20), seed=5)
        else:
            (X, y), _ = se_like_rows(100, 0, seed=5)
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        grid = [{"n_trees": 10, "max_depth": depth, "feature_fraction": frac,
                 "min_samples_leaf": 1, "bootstrap": bootstrap}
                for frac in self.FRACTIONS for bootstrap in (True, False) for depth in (3, 8)]
        reads = collections.Counter()
        by_rows, by_columns = _Bins.by_rows, _Bins.by_columns

        def counted_by_rows(bins, rows, *args):
            reads["rows"] += 1
            return by_rows(bins, rows, *args)

        def counted_by_columns(bins, rows, *args):
            reads["columns"] += 1
            reads["columns, rows repeated"] += bool(np.any(rows[1:] == rows[:-1]))
            return by_columns(bins, rows, *args)

        monkeypatch.setattr(_Bins, "by_rows", counted_by_rows)
        monkeypatch.setattr(_Bins, "by_columns", counted_by_columns)
        forests = [model_to_dict(train("random_forest", hp, fm, seed=6)) for hp in grid]
        assert min(reads.values()) > 0 and len(reads) == 3
        monkeypatch.setattr(RandomForest, "_best_split", dense_best_split(X, 1))
        for hp, forest in zip(grid, forests):
            assert model_to_dict(train("random_forest", hp, fm, seed=6)) == forest, hp
            assert max(len(t["feature"]) for t in forest["params"]["trees"]) > 1

    def test_fitted_forest_holds_only_what_reloading_restores(self):
        model = train("random_forest", fast_hp("random_forest"), separable_matrix(seed=14), seed=2)
        assert vars(model).keys() == vars(model_from_dict(model_to_dict(model))).keys()


def reference_votes(model, dense):
    """Vote counts from walking each tree's own node arrays, one tree at a
    time, on the full dense matrix: the reference for the packed table."""
    n = dense.shape[0]
    votes = np.zeros((n, len(model.classes_)))
    for tree in model.trees_:
        node = np.zeros(n, dtype=np.int64)
        active = tree.leaf_class[node] < 0
        while np.any(active):
            rows = np.nonzero(active)[0]
            at = node[rows]
            vals = dense[rows, tree.feature[at]]
            node[rows] = np.where(vals <= tree.threshold[at], tree.left[at], tree.right[at])
            active = tree.leaf_class[node] < 0
        votes[np.arange(n), np.searchsorted(model.classes_, tree.leaf_class[node])] += 1.0
    return votes


def reference_importance(model, X, y, seed=0, max_rows=256):
    """Permutation importance that re-predicts every row with every tree
    after each shuffle, drawing the same subsample and permutations."""
    rng = np.random.default_rng(seed)
    if X.shape[0] > max_rows:
        keep = np.sort(rng.choice(X.shape[0], size=max_rows, replace=False))
        X, y = X[keep], y[keep]
    dense = X.toarray()
    n = dense.shape[0]

    def accuracy(matrix):
        return np.mean(model.classes_[np.argmax(reference_votes(model, matrix), axis=1)] == y)

    base = accuracy(dense)
    importance = np.zeros(model.n_features_)
    for feat in sorted({int(f) for t in model.trees_ for f in t.feature if f >= 0}):
        shuffled = dense.copy()
        shuffled[:, feat] = dense[rng.permutation(n), feat]
        importance[feat] = base - accuracy(shuffled)
    return importance


class TestPackedForest:
    """The packed node table routes every row to the leaves the per-tree walk reaches."""

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("frac", TestSparseSplitSearch.FRACTIONS)
    def test_scores_and_importance_equal_the_per_tree_walk(self, frac, bootstrap):
        X, y = split_fixture(30, full_column=not bootstrap)
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        unseen, _ = split_fixture(31)  # all-zero rows 7 and 8, values between the thresholds
        rows = sp.vstack([X, unseen, sp.csr_matrix((2, X.shape[1]))]).toarray()
        for leaf in (1, 2, 3, 4):
            hp = {"n_trees": 10, "max_depth": 20 if leaf % 2 else 6, "feature_fraction": frac,
                  "min_samples_leaf": leaf, "bootstrap": bootstrap}
            model = train("random_forest", hp, fm, seed=leaf)
            # and per split node, a row holding exactly that node's threshold
            at_threshold = []
            for tree in model.trees_:
                for f, thr in zip(tree.feature, tree.threshold):
                    if f >= 0:
                        at_threshold.append(rows[len(at_threshold) % len(rows)].copy())
                        at_threshold[-1][f] = thr
            probe = sp.csr_matrix(np.vstack([rows, *at_threshold]))
            y_probe = np.arange(probe.shape[0]) % 3
            probe_fm = FeatureMatrix(X=probe, y=y_probe, fingerprint=FP, scheme="count")
            for forest in (model, json_roundtrip(model)):
                votes = reference_votes(forest, probe.toarray())
                np.testing.assert_array_equal(forest.predict_scores(probe_fm), votes / 10)
                np.testing.assert_array_equal(
                    forest.predict(probe_fm), forest.classes_[np.argmax(votes, axis=1)]
                )
                for max_rows in (256, 50):
                    np.testing.assert_array_equal(
                        forest.permutation_importance(probe_fm, seed=leaf, max_rows=max_rows),
                        reference_importance(forest, probe, y_probe, seed=leaf, max_rows=max_rows),
                    )
        assert forest._table.depth > 3

    def test_forest_on_all_zero_rows_is_root_leaves(self):
        fm = FeatureMatrix(
            X=sp.csr_matrix((12, 5)), y=np.arange(12) % 3, fingerprint=FP, scheme="count"
        )
        model = train("random_forest", fast_hp("random_forest"), fm, seed=0)
        assert model._table.used.size == 0 and model._table.depth == 0
        assert all(len(t.feature) == 1 for t in model.trees_)
        probe = sp.csr_matrix(np.eye(3, 5))
        votes = reference_votes(model, probe.toarray())
        np.testing.assert_array_equal(model.predict_scores(probe_matrix(probe)), votes / 10)
        for i in range(3):  # one row is walked
            np.testing.assert_array_equal(
                model.predict_scores(probe_matrix(probe[i])), votes[i : i + 1] / 10
            )
        np.testing.assert_array_equal(model.permutation_importance(fm), np.zeros(5))
        margins = model.class_margins(fm)
        assert margins.shape == (3, 5) and np.all(margins == -np.inf)


class TestZeroPathRouting:
    """Rows start from each tree's zero-path vote; only the trees whose zero
    path tests a column a row stores are visited (walked for one row, routed
    for a batch), and the scores equal the per-tree walk's."""

    @staticmethod
    def _forest(seed=40, n=80, F=30, labels=4):
        """A deep forest on signed rows, two of its trees replaced by single
        leaves through the loading path, and non-canonical probe rows: some
        duplicate, explicit zeros, negative values and three rows storing
        nothing. Its training labels are 0..3, or folded into 0..labels-1."""
        rng = np.random.default_rng(seed)
        train_rows, _ = non_canonical_csr(rng, n=n, F=F)
        y = (train_rows[:, :3].toarray().sum(axis=1) > 0).astype(np.int64) + 2 * (
            np.arange(n) % 3 == 0
        )
        y %= labels
        fm = FeatureMatrix(X=train_rows, y=y, fingerprint=FP, scheme="count")
        hp = {"n_trees": 12, "max_depth": 20, "feature_fraction": 0.5, "bootstrap": True}
        payload = model_to_dict(train("random_forest", hp, fm, seed=seed))
        for t, cls in ((3, 0), (7, 2)):
            payload["params"]["trees"][t] = {
                "feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                "leaf_class": [cls],
            }
        model = model_from_dict(payload)
        _, shuffled = non_canonical_csr(rng, n=40, F=F)
        probe = sp.vstack([shuffled, sp.csr_matrix((3, F))], format="csr")
        assert not probe.has_canonical_format and np.diff(probe.indptr)[-3:].sum() == 0
        return model, probe

    def test_batch_scores_equal_the_per_tree_walk(self):
        model, probe = self._forest()
        split_thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees_])
        assert np.any(split_thresholds < 0)  # zero goes right at these nodes
        assert sum(len(t.feature) == 1 for t in model.trees_) == 2
        assert model._table.depth > 3
        empty = sp.csr_matrix((0, probe.shape[1]))
        for forest in (model, json_roundtrip(model)):
            votes = reference_votes(forest, probe.toarray())
            np.testing.assert_array_equal(forest.predict_scores(probe_matrix(probe)), votes / 12)
            np.testing.assert_array_equal(
                forest.predict(probe_matrix(probe)), forest.classes_[np.argmax(votes, axis=1)]
            )
            assert forest.predict_scores(probe_matrix(empty)).shape == (0, len(forest.classes_))

    def test_batch_scores_equal_row_by_row_scores(self):
        # one row is walked and a batch routed in lock step: the forest, its
        # reloaded copy and an ensemble holding it score each row alike
        model, probe = self._forest(seed=41)
        forest, _ = self._forest(seed=41, labels=3)
        labeled = FeatureMatrix(X=probe, y=np.arange(probe.shape[0]) % 3, fingerprint=FP,
                                scheme="count")
        ensemble = TrainedEnsemble(
            members=[EnsembleMember(forest, 2),
                     EnsembleMember(train("multinomial_nb", {}, labeled), 1),
                     EnsembleMember(train("logistic_regression", {}, labeled), 1)],
            fingerprint=FP,
        )
        for scorer in (model, json_roundtrip(model), ensemble):
            batch = scorer.predict_scores(probe_matrix(probe))
            for i in range(probe.shape[0]):
                single = scorer.predict_scores(probe_matrix(probe[i]))
                np.testing.assert_array_equal(single, batch[i : i + 1])

    def test_a_trained_forest_scores_se_like_rows_one_at_a_time_as_in_a_batch(self):
        (X, y), (held_out, _) = se_like_rows(300, 120, seed=3)
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count_x_weight")
        ensemble = TrainedEnsemble(
            members=[
                EnsembleMember(train(kind, {}, fm, seed=i), 1) for i, kind in enumerate(KINDS)
            ],
            fingerprint=FP,
        )
        forest = ensemble.members[-1].model
        for scorer in (forest, ensemble):
            batch = scorer.predict_scores(probe_matrix(held_out))
            for i in range(held_out.shape[0]):
                single = scorer.predict_scores(probe_matrix(held_out[i]))
                np.testing.assert_array_equal(single, batch[i : i + 1])
        np.testing.assert_array_equal(
            forest.predict_scores(probe_matrix(held_out)),
            reference_votes(forest, held_out.toarray()) / forest.hp["n_trees"],
        )
        _, diverting, _ = forest._table.diverted(held_out)
        assert len(set(diverting.tolist())) > 20  # rows whose walk leaves a zero path

    @staticmethod
    def _spy_on_visits(monkeypatch):
        """The (row, tree) pairs routed or walked from here on, in a list."""
        visited = []
        route, descend = _NodeTable.route, _NodeTable.descend

        def spy_route(table, dense, rows, trees):
            visited.extend(zip(rows.tolist(), trees.tolist()))
            return route(table, dense, rows, trees)

        def spy_descend(table, row, node):
            visited.append((0, node))  # a walk starts at the tree's root
            return descend(table, row, node)

        monkeypatch.setattr(_NodeTable, "route", spy_route)
        monkeypatch.setattr(_NodeTable, "descend", spy_descend)
        return visited

    @staticmethod
    def _zero_path_trees(model):
        """Per feature, the trees whose zero path tests it, read off the
        saved trees."""
        trees = [set() for _ in range(model.n_features_)]
        for t, tree in enumerate(model.trees_):
            node = 0
            while tree.feature[node] >= 0:
                trees[tree.feature[node]].add(t)
                node = tree.left[node] if 0.0 <= tree.threshold[node] else tree.right[node]
        return trees

    def test_only_pairs_a_stored_entry_touches_are_routed(self, monkeypatch):
        model, probe = self._forest(seed=42)
        visited = self._spy_on_visits(monkeypatch)
        F = probe.shape[1]
        for zero_rows in (sp.csr_matrix((5, F)), sp.csr_matrix((1, F))):
            np.testing.assert_array_equal(
                model.predict_scores(probe_matrix(zero_rows)),
                reference_votes(model, zero_rows.toarray()) / 12,
            )
        assert visited == []
        splitting = [{t for t, tree in enumerate(model.trees_) if f in tree.feature}
                     for f in range(F)]
        on_zero_path = self._zero_path_trees(model)
        assert 0 in map(len, on_zero_path) and max(map(len, on_zero_path)) > 1
        assert all(z <= s for z, s in zip(on_zero_path, splitting))
        assert sum(map(len, on_zero_path)) < sum(map(len, splitting))
        for f, trees in enumerate(on_zero_path):
            for value in (-1.5, 0.0, 2.0):
                row = sp.csr_matrix(([value], ([0], [f])), shape=(1, F))
                # alone it is walked; below an all-zero row it is routed
                for X, at in ((row, 0), (sp.vstack([sp.csr_matrix((1, F)), row]), 1)):
                    visited.clear()
                    np.testing.assert_array_equal(
                        model.predict_scores(probe_matrix(X)),
                        reference_votes(model, X.toarray()) / 12,
                    )
                    assert sorted(visited) == [(at, t) for t in sorted(trees)]

    def test_a_row_storing_only_columns_off_every_zero_path_gets_the_zero_path_votes(
        self, monkeypatch
    ):
        model, _ = self._forest(seed=43)
        F = model.n_features_
        on_zero_path = self._zero_path_trees(model)
        # columns the forest splits on, but on no tree's zero path
        off = [f for f in model._table.used.tolist() if not on_zero_path[f]]
        assert len(off) >= 2
        zero_votes = reference_votes(model, np.zeros((1, F)))
        # every value a split on those columns tests, and values on both sides
        thresholds = [thr for tree in model.trees_
                      for f, thr in zip(tree.feature, tree.threshold) if f in off]
        rows = np.zeros((len(thresholds) + 2, F))
        rows[:-2, off] = np.array(thresholds)[:, None]
        rows[-2, off], rows[-1, off] = -1e6, 1e6
        zero_path_votes = np.tile(zero_votes, (len(rows), 1))
        np.testing.assert_array_equal(reference_votes(model, rows), zero_path_votes)
        visited = self._spy_on_visits(monkeypatch)
        X = sp.csr_matrix(rows)
        np.testing.assert_array_equal(model.predict_scores(probe_matrix(X)), zero_path_votes / 12)
        for i in range(len(rows)):
            np.testing.assert_array_equal(model.predict_scores(probe_matrix(X[i])), zero_votes / 12)
        assert visited == []


class TestLeafMap:
    """``_NodeTable.leaves`` equals routing every (row, tree) pair from its
    root: the pairs it leaves on the zero-path leaf would end there."""

    @staticmethod
    def _stumps(rng, F=30, n_trees=15):
        """A loaded forest of depth-1 trees on random features, some
        thresholds negative (zero goes right), some exactly 0.0, and one
        single-leaf tree."""
        fm = separable_matrix(seed=44)
        payload = model_to_dict(train("random_forest", fast_hp("random_forest"), fm, seed=44))
        payload["n_features"] = F
        thresholds = np.r_[rng.normal(0.0, 1.0, n_trees - 3), 0.0, -0.5]
        trees = [
            {"feature": [int(rng.integers(F)), -1, -1], "threshold": [float(thr), 0.0, 0.0],
             "left": [1, -1, -1], "right": [2, -1, -1],
             "leaf_class": [-1, *map(int, rng.choice(3, 2))]}
            for thr in thresholds
        ]
        trees.append({"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                      "leaf_class": [1]})
        payload["params"] = {"trees": trees}
        return model_from_dict(json.loads(json.dumps(payload)))

    def test_leaves_equal_routing_every_pair_from_its_root(self):
        rng = np.random.default_rng(45)
        deep, _ = TestZeroPathRouting._forest(seed=45)
        stumps = self._stumps(rng)
        assert stumps._table.depth == 1
        for model in (deep, stumps, json_roundtrip(deep)):
            table, F = model._table, model.n_features_
            n_trees = len(model.trees_)
            for _ in range(3):
                canonical, shuffled = non_canonical_csr(rng, F=F)
                zero_rows = sp.csr_matrix((4, F))
                for X in (canonical, shuffled, sp.vstack([zero_rows, shuffled, zero_rows]),
                          zero_rows, sp.csr_matrix((0, F))):
                    X = probe_matrix(X).X  # the form every row takes before a model reads it
                    leaves, dense = table.leaves(X)
                    expected_dense = table.gather(X)[0]
                    n = expected_dense.shape[0]
                    every = table.route(
                        expected_dense, np.repeat(np.arange(n), n_trees),
                        np.tile(np.arange(n_trees), n),
                    )
                    assert leaves.shape == (n, n_trees)
                    np.testing.assert_array_equal(leaves, every.reshape(n, n_trees))
                    np.testing.assert_array_equal(dense, expected_dense)


def non_canonical_csr(rng, n=40, F=30):
    """Random CSR rows with negative values and explicit zeros; the second
    copy stores each row's entries in reverse, some split into two
    duplicate entries whose values sum to the original."""
    dense = rng.normal(0.0, 2.0, size=(n, F))
    dense[rng.random((n, F)) < 0.7] = 0.0
    canonical = sp.csr_matrix(dense)
    canonical.data[rng.random(canonical.nnz) < 0.1] = 0.0  # explicit zeros
    indices, data, indptr = [], [], [0]
    for r in range(n):
        lo, hi = canonical.indptr[r], canonical.indptr[r + 1]
        for col, value in zip(canonical.indices[lo:hi][::-1], canonical.data[lo:hi][::-1]):
            if rng.random() < 0.3:
                part = rng.normal()
                indices += [col, col]
                data += [part, value - part]
            else:
                indices.append(col)
                data.append(value)
        indptr.append(len(indices))
    shuffled = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(n, F))
    assert not shuffled.has_canonical_format
    return canonical, shuffled


class TestPredictShortcuts:
    """The forest's column gather and NB's clamp equal the scipy expressions
    they replace, on canonical rows and on non-canonical rows once a
    FeatureMatrix has made them canonical."""

    def test_gather_equals_column_indexing(self):
        rng = np.random.default_rng(5)
        fm = separable_matrix(n_per_class=20, seed=5)
        X = sp.hstack([fm.X, sp.random(60, 24, density=0.3, random_state=5)], format="csr")
        wide = FeatureMatrix(X=X, y=fm.y, fingerprint=FP, scheme="count")
        table = train("random_forest", fast_hp("random_forest"), wide, seed=0)._table
        for used in (table.used, np.array([0, 3, 17, 29]), np.array([], dtype=np.int64)):
            position = np.full(X.shape[1], -1)
            position[used] = np.arange(len(used))
            table = table._replace(used=used, position=position)
            for rows in non_canonical_csr(rng):
                expected = rows.tocsr()[:, used]
                expected.sum_duplicates()  # on a copy: column indexing made one
                unchanged = rows.copy()
                got, entry_rows, at = table.gather(probe_matrix(rows).X)
                assert got.shape == expected.shape
                np.testing.assert_array_equal(got, expected.toarray())
                # each stored entry in a used column once, explicit zeros included
                coo = expected.tocoo()
                np.testing.assert_array_equal(
                    np.lexsort((at, entry_rows)), np.arange(len(at))
                )
                np.testing.assert_array_equal(entry_rows, coo.row[np.lexsort((coo.col, coo.row))])
                np.testing.assert_array_equal(at, coo.col[np.lexsort((coo.col, coo.row))])
                assert_same_storage(rows, unchanged)

    def test_nb_clamp_equals_maximum(self):
        rng = np.random.default_rng(6)
        fm = separable_matrix(n_per_class=10, seed=6, classes=(0, 1, 2))
        model = train("multinomial_nb", default_hp("multinomial_nb"), fm, seed=0)
        for _ in range(5):
            for rows in non_canonical_csr(rng, F=fm.n_features):
                expected = (
                    rows.copy().maximum(0) @ model.feature_log_prob_.T + model.class_log_prior_
                )
                unchanged = rows.copy()
                got = model._log_posterior(probe_matrix(rows))
                np.testing.assert_array_equal(got, expected)
                assert_same_storage(rows, unchanged)


def assert_same_storage(a, b):
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("kind", KINDS)
def test_no_entry_point_changes_its_input_rows(kind):
    rng = np.random.default_rng(7)
    _, rows = non_canonical_csr(rng)
    fm = FeatureMatrix(X=rows, y=np.arange(rows.shape[0]) % 3, fingerprint=FP, scheme="count")
    unchanged = rows.copy()
    model = train(kind, fast_hp(kind), fm, seed=0)
    assert_same_storage(rows, unchanged)
    model.predict_scores(fm)
    model.class_margins(fm)
    if kind == "random_forest":
        model.permutation_importance(fm, max_rows=16)
    assert_same_storage(rows, unchanged)
    assert not rows.has_canonical_format


@pytest.mark.parametrize("kind", KINDS)
def test_train_refuses_labels_that_do_not_fit_the_rows(kind):
    # the matrix refuses them when it is made, before any learner reads them
    fm = separable_matrix(n_per_class=10, seed=16)
    with pytest.raises(ValueError, match=r"labels of shape \(30,\), one per row, got \(29,\)"):
        train(kind, fast_hp(kind), FeatureMatrix(fm.X, fm.y[:-1], FP, "count"), seed=0)


def test_forest_margins_count_a_duplicated_entry_once():
    # feature 0 is 1.0 on ten class-1 rows and 3.0 on four class-0 rows, each
    # of those stored as three duplicate 1.0 entries: the feature's majority
    # class is 1 (10 rows against 4), and 0 only if each duplicate were a row
    values = np.r_[np.ones(10), np.full(4, 3.0), np.zeros(8)]
    y = np.r_[np.ones(10), np.zeros(12)].astype(np.int64)
    canonical = sp.csr_matrix(values[:, None])
    indptr = np.r_[0, np.cumsum(np.r_[np.ones(10), np.full(4, 3), np.zeros(8)])].astype(int)
    raw = sp.csr_matrix((np.ones(22), np.zeros(22, dtype=int), indptr), shape=(22, 1))
    assert not raw.has_canonical_format and (raw.toarray() == canonical.toarray()).all()
    hp = {"n_trees": 10, "max_depth": 3, "feature_fraction": 1.0, "bootstrap": False}
    fm = FeatureMatrix(X=canonical, y=y, fingerprint=FP, scheme="count")
    model = train("random_forest", hp, fm, seed=0)
    expected = model.class_margins(fm)
    assert expected[1, 0] > 0 and expected[0, 0] == -np.inf
    got = model.class_margins(FeatureMatrix(X=raw, y=y, fingerprint=FP, scheme="count"))
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_predicts_zero_rows_and_an_all_zero_row(kind):
    fm = separable_matrix(seed=15)
    model = train(kind, fast_hp(kind), fm, seed=0)
    empty = model.predict_scores(probe_matrix(sp.csr_matrix((0, fm.n_features))))
    assert empty.shape == (0, len(model.classes_))
    assert model.predict(probe_matrix(sp.csr_matrix((0, fm.n_features)))).shape == (0,)
    zero = model.predict_scores(probe_matrix(sp.csr_matrix((1, fm.n_features))))
    assert zero.shape == (1, len(model.classes_))
    assert zero.sum() == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_preserves_scores(self, kind):
        fm = separable_matrix(seed=11)
        model = train(kind, fast_hp(kind), fm, seed=5)
        back = json_roundtrip(model)
        assert back.fingerprint == FP
        assert back.kind == kind
        assert back.hp == model.hp
        np.testing.assert_array_equal(back.classes_, model.classes_)
        np.testing.assert_allclose(
            back.predict_scores(fm), model.predict_scores(fm), atol=1e-15
        )

    @pytest.mark.parametrize("kind", ["multinomial_nb", "logistic_regression", "linear_svm"])
    def test_weight_table_transpose_is_c_contiguous(self, kind):
        # scipy's sparse @ dense product copies a strided dense operand on every call
        fm = separable_matrix(seed=14)
        model = train(kind, fast_hp(kind), fm, seed=3)
        back = json_roundtrip(model)
        table = "feature_log_prob_" if kind == "multinomial_nb" else "W_"
        for m in (model, back):
            assert getattr(m, table).T.flags.c_contiguous
        np.testing.assert_array_equal(back.predict_scores(fm), model.predict_scores(fm))

    def test_constant_model_roundtrip(self):
        fm = separable_matrix(classes=(2,), seed=12)
        model = train("linear_svm", {}, fm)
        back = json_roundtrip(model)
        assert isinstance(back, ConstantModel)
        np.testing.assert_array_equal(back.predict(fm), 2)

    def test_foreign_payload_rejected(self):
        with pytest.raises(ValueError, match="format"):
            model_from_dict({"format": "nonsense/9", "kind": "multinomial_nb"})

    def test_payload_without_a_fingerprint_rejected(self):
        # a model without its dictionary's fingerprint would score any matrix
        payload = model_to_dict(train("multinomial_nb", {}, separable_matrix(seed=17)))
        for fingerprint in ("", None):
            with pytest.raises(ValueError, match="fingerprint"):
                model_from_dict({**payload, "fingerprint": fingerprint})
        del payload["fingerprint"]
        with pytest.raises(ValueError, match="fingerprint"):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "hp, match",
        [
            (
                {"learning_rate": 0.05, "l2": 1e-4, "epochs": 60, "batch_size": 32},
                r"\['batch_size', 'epochs', 'learning_rate'\]",
            ),
            ({"l2": 5.0}, r"linear_svm\.l2=5\.0 outside"),
        ],
        ids=["mini-batch-era-hp", "out-of-range-l2"],
    )
    def test_payload_with_invalid_hp_rejected(self, hp, match):
        payload = model_to_dict(train("linear_svm", {}, separable_matrix(seed=18)))
        with pytest.raises(ValueError, match=match):
            model_from_dict(json.loads(json.dumps({**payload, "hp": hp})))

    @pytest.mark.parametrize(
        "kind, hp, match",
        [
            ("multinomial_nb", {"alpha": True}, r"alpha=True is a bool"),
            ("random_forest", {"min_samples_leaf": True}, r"min_samples_leaf=True is a bool"),
            ("random_forest", {"bootstrap": 1}, r"bootstrap=1 not in"),
            ("random_forest", {"feature_fraction": True}, r"feature_fraction=True not in"),
        ],
        ids=["bool-alpha", "bool-min-samples-leaf", "int-bootstrap", "bool-feature-fraction"],
    )
    def test_payload_with_wrongly_typed_hp_rejected(self, kind, hp, match):
        # each value equals a valid one (True == 1 == 1.0) but has another type
        hp_in_range = {"n_trees": 10, "max_depth": 3} if kind == "random_forest" else {}
        payload = model_to_dict(train(kind, hp_in_range, separable_matrix(seed=19)))
        with pytest.raises(ValueError, match=match):
            model_from_dict(json.loads(json.dumps({**payload, "hp": {**payload["hp"], **hp}})))

    def test_unknown_kind_rejected_on_load(self):
        payload = model_to_dict(train("multinomial_nb", {}, separable_matrix(seed=16)))
        payload["kind"] = "svm_rbf"
        with pytest.raises(ValueError, match="unknown learner kind 'svm_rbf'"):
            model_from_dict(json.loads(json.dumps(payload)))

    def test_a_payload_that_is_not_an_object_is_refused(self):
        for payload in ([], "model", None):
            with pytest.raises(ValueError, match="model payload is not a JSON object"):
                model_from_dict(payload)

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda d: d.update(classes=[2, 1, 0]), r"classes=\[2, 1, 0\] are not ascending"),
            (lambda d: d.update(classes=[0, 0, 1]), r"classes=\[0, 0, 1\] are not ascending"),
            (lambda d: d.update(classes=[-1, 0, 1]), r"classes=\[-1, 0, 1\] are not ascending"),
            (lambda d: d.update(classes=[0, 1.0, 2]), r"classes=\[0, 1\.0, 2\] are not ascending"),
            (lambda d: d.update(classes=[]), r"classes=\[\] are not ascending"),
            (lambda d: d.update(classes="012"), r"classes='012' are not ascending"),
            (lambda d: d.update(constant=True), r"constant=True does not match classes=\[0, 1, "),
            (lambda d: d.update(constant=1), r"constant=1 does not match"),
            (lambda d: d.update(classes=[2], constant=False), r"constant=False does not match"),
            (lambda d: d.pop("n_features"), "multinomial_nb payload has no 'n_features'"),
            (lambda d: d.pop("constant"), "multinomial_nb payload has no 'constant'"),
            (lambda d: d.pop("params"), "multinomial_nb payload has no 'params'"),
            (lambda d: d.pop("hp"), "multinomial_nb payload has no 'hp'"),
            (lambda d: d.update(seed="x"), r"seed='x' is not a non-negative int"),
            (lambda d: d.update(seed=True), r"seed=True is not a non-negative int"),
            (lambda d: d.update(n_features=-1), r"n_features=-1 is not a non-negative int"),
            (lambda d: d.update(n_features=6.0), r"n_features=6\.0 is not a non-negative int"),
            (lambda d: d.update(hp=[]), r"hp=\[\] is not a JSON object"),
            (lambda d: d.update(classes=[0, 1, 10**30]),
             r"classes=\[0, 1, 10{30}\] are not ascending non-negative int64s"),
            (lambda d: d.update(seed=2**63),
             r"seed=9223372036854775808 is not a non-negative int64"),
        ],
        ids=["descending-classes", "repeated-class", "negative-class", "float-class",
             "no-classes", "string-classes", "constant-with-three-classes", "int-constant",
             "one-class-not-constant", "no-n-features", "no-constant", "no-params", "no-hp",
             "string-seed", "bool-seed", "negative-n-features", "float-n-features", "list-hp",
             "class-above-int64", "seed-above-int64"],
    )
    def test_a_malformed_head_is_refused_naming_its_field(self, change, match):
        model = train("multinomial_nb", {}, separable_matrix(seed=21))
        payload = json.loads(json.dumps(model_to_dict(model)))
        change(payload)
        with pytest.raises(ValueError, match=match):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "kind, change, match",
        [
            ("multinomial_nb", lambda d: d["params"]["feature_log_prob"].pop(),
             r"'feature_log_prob': shape \(2, 6\), not \(3, 6\)"),
            ("multinomial_nb", lambda d: d["params"]["class_log_prior"].pop(),
             r"'class_log_prior': shape \(2,\), not \(3,\)"),
            ("logistic_regression", lambda d: d["params"]["W"].pop(),
             r"'W': shape \(2, 6\), not \(3, 6\)"),
            ("linear_svm", lambda d: d["params"]["b"].pop(), r"'b': shape \(2,\), not \(3,\)"),
            ("linear_svm", lambda d: d.update(n_features=7), r"'W': shape \(3, 6\), not \(3, 7\)"),
            ("logistic_regression", lambda d: d["params"]["W"][1].pop(), r"'W': unreadable"),
            ("multinomial_nb", lambda d: d["params"].pop("class_log_prior"),
             r"'class_log_prior': unreadable \(KeyError"),
            ("linear_svm", lambda d: d["params"]["b"].__setitem__(0, "x"), r"'b': unreadable"),
            ("logistic_regression", lambda d: d.update(params=[]), r"'W': unreadable \(TypeError"),
            ("linear_svm", lambda d: d["params"]["b"].__setitem__(0, 10**400),
             r"'b': unreadable \(OverflowError"),
        ],
        ids=["nb-table-row-short", "nb-prior-short", "lr-weights-row-short", "svm-bias-short",
             "n-features-disagrees-with-weights", "ragged-weights", "no-prior", "string-bias",
             "list-params", "bias-beyond-float64"],
    )
    def test_a_malformed_array_is_refused_naming_its_key(self, kind, change, match):
        payload = json.loads(json.dumps(model_to_dict(train(kind, {}, separable_matrix(seed=22)))))
        change(payload)
        with pytest.raises(ValueError, match=f"{kind} params {match}"):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "kind, change, key",
        [
            ("logistic_regression", lambda d: d["params"]["W"][0].__setitem__(0, math.nan), "W"),
            ("linear_svm", lambda d: d["params"]["b"].__setitem__(2, math.inf), "b"),
            ("multinomial_nb", lambda d: d["params"]["feature_log_prob"][1].__setitem__(
                3, -math.inf), "feature_log_prob"),
        ],
        ids=["nan-weight", "infinite-bias", "minus-infinite-log-prob"],
    )
    def test_a_non_finite_array_is_refused_naming_its_key(self, kind, change, key):
        # json writes and reads NaN and Infinity, so a saved model can hold them
        payload = model_to_dict(train(kind, {}, separable_matrix(seed=23)))
        change(payload)
        payload = json.loads(json.dumps(payload))
        with pytest.raises(ValueError, match=f"{kind} params '{key}': a value is not finite"):
            model_from_dict(payload)


class TestLoadedForestCheck:
    """A model file is outside input: each tree of a loaded forest is checked
    once, and a malformed one is refused with the tree's index."""

    @staticmethod
    def _payload():
        model = train("random_forest", fast_hp("random_forest"), separable_matrix(seed=20), seed=1)
        payload = json.loads(json.dumps(model_to_dict(model)))
        tree = payload["params"]["trees"][1]
        assert tree["feature"][0] >= 0 and len(tree["feature"]) >= 5  # the root splits
        return payload

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda t: t["right"].__setitem__(0, 0), "children do not form one tree"),
            (lambda t: t["right"].__setitem__(0, len(t["right"]) + 5), "children do not form"),
            (lambda t: (t["left"].__setitem__(0, t["right"][0]), t["right"].__setitem__(0, 1)),
             "children do not form one tree"),
            (lambda t: t.update(feature=[0, -1, 0, -1, -1], threshold=[0.5] * 5,
                                left=[1, -1, 3, -1, -1], right=[4, -1, 2, -1, -1],
                                leaf_class=[-1, 0, -1, 1, 2]), "children do not form one tree"),
            (lambda t: t["leaf_class"].__setitem__(t["feature"].index(-1), 3), "leaf class"),
            (lambda t: t["leaf_class"].__setitem__(t["feature"].index(-1), -1), "leaf class"),
            (lambda t: t["threshold"].pop(), "differ in length"),
            (lambda t: t.update({name: [] for name in t}), "empty or differ in length"),
            (lambda t: t["feature"].__setitem__(0, 6), r"split feature is not below n_features=6"),
            (lambda t: t.pop("left"), r"unreadable node columns \(KeyError\('left'\)\)"),
            (lambda t: t.update(feature="root"), "unreadable node columns"),
            (lambda t: t["threshold"].__setitem__(0, math.nan), "split threshold is not finite"),
            (lambda t: t["threshold"].__setitem__(0, -math.inf), "split threshold is not finite"),
            (lambda t: t["threshold"].__setitem__(0, 10**400),
             r"unreadable node columns \(OverflowError"),
        ],
        ids=["cycle", "child-out-of-range", "children-swapped", "right-before-left",
             "leaf-class-not-a-class", "leaf-without-class", "short-threshold", "no-nodes",
             "feature-out-of-range", "no-left-column", "non-numeric-column", "nan-threshold",
             "infinite-threshold", "threshold-beyond-float64"],
    )
    def test_a_malformed_tree_is_refused_with_its_index(self, change, match):
        payload = self._payload()
        change(payload["params"]["trees"][1])
        payload = json.loads(json.dumps(payload))  # json writes and reads NaN and Infinity
        with pytest.raises(ValueError, match=r"random forest tree 1: .*" + match):
            model_from_dict(payload)

    @pytest.mark.parametrize("value", [math.inf, 10**30, 1.5], ids=["infinity", "1e30", "1.5"])
    @pytest.mark.parametrize("field", ["feature", "left", "right", "leaf_class"])
    def test_an_integer_node_value_int64_cannot_hold_is_refused(self, field, value):
        # the int64 cast would overflow on the first two and truncate 1.5 to 1
        payload = self._payload()
        payload["params"]["trees"][1][field][0] = value
        payload = json.loads(json.dumps(payload))  # json writes and reads Infinity
        with pytest.raises(ValueError, match=f"random forest tree 1: node column '{field}' holds "
                                             "a value that is not an int64"):
            model_from_dict(payload)

    def test_trees_that_are_not_a_list_are_refused(self):
        payload = self._payload()
        payload["params"]["trees"] = 5
        with pytest.raises(ValueError, match="random forest params 'trees': 5 is not a list"):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "params", [{}, {"trees": []}, {"trees": None}, []], ids=["no-trees", "empty-trees",
                                                                  "null-trees", "list-params"]
    )
    def test_a_forest_without_trees_is_refused(self, params):
        payload = self._payload()
        payload["params"] = params
        with pytest.raises(ValueError, match="random forest payload has no trees"):
            model_from_dict(payload)

    def test_growing_a_tree_does_not_run_the_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a grown tree was checked")

        monkeypatch.setattr(_Tree, "fault", refuse)
        model = train("random_forest", fast_hp("random_forest"), separable_matrix(seed=20), seed=1)
        assert all(isinstance(t, _Tree) for t in model.trees_)
        with pytest.raises(AssertionError, match="was checked"):
            json_roundtrip(model)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
