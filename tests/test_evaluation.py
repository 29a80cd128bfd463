"""Tests for confusion-matrix metrics, the experiment driver, and the
per-class discriminative n-gram reports."""

import json
import warnings

import numpy as np
import pytest

from sentigram.automl import EnsembleMember, TrainedEnsemble
from sentigram.corpus import (
    LABELS,
    LabeledDataset,
    LabeledDocument,
    class_distribution,
    stratified_shuffle_splits,
)
from sentigram.evaluation import (
    EvalReport,
    RunConfig,
    fuse_rankings,
    run_experiment,
    top_ngrams_per_class,
)
from sentigram.features import FeatureMatrix, vectorize
from sentigram.learners import train
from sentigram.metrics import (
    ClassMetrics,
    confusion_matrix,
    per_class_prf,
    weighted_f1,
    weighted_f1_labels,
)
from sentigram.ngrams import build_dictionary
from sentigram.preprocess import preprocess

# ---------------------------------------------------------------------------
# hand-computed confusion-matrix fixtures
#
# Each case: (name, confusion rows in (true, predicted) order,
# {label: (precision, recall, f1, support, predicted, defined)}, weighted F1).
# All fractions were worked out by hand from tp / column sum / row sum.

_METRIC_CASES = [
    (
        "perfect_diagonal",
        [[5, 0, 0], [0, 3, 0], [0, 0, 2]],
        {
            "positive": (1.0, 1.0, 1.0, 5, 5, True),
            "neutral": (1.0, 1.0, 1.0, 3, 3, True),
            "negative": (1.0, 1.0, 1.0, 2, 2, True),
        },
        1.0,
    ),
    (
        "everything_wrong",
        [[0, 5, 0], [0, 0, 3], [2, 0, 0]],
        {
            "positive": (0.0, 0.0, 0.0, 5, 2, True),
            "neutral": (0.0, 0.0, 0.0, 3, 5, True),
            "negative": (0.0, 0.0, 0.0, 2, 3, True),
        },
        0.0,
    ),
    (
        "constant_majority_guess",
        [[9, 0, 0], [1, 0, 0], [0, 0, 0]],
        {
            "positive": (0.9, 1.0, 1.8 / 1.9, 9, 10, True),
            "neutral": (0.0, 0.0, 0.0, 1, 0, True),
            "negative": (0.0, 0.0, 0.0, 0, 0, False),
        },
        0.9 * (1.8 / 1.9),
    ),
    (
        "mixed_three_class",
        [[4, 1, 0], [2, 3, 1], [0, 1, 3]],
        {
            "positive": (4 / 6, 4 / 5, 8 / 11, 5, 6, True),
            "neutral": (3 / 5, 3 / 6, 6 / 11, 6, 5, True),
            "negative": (3 / 4, 3 / 4, 3 / 4, 4, 4, True),
        },
        109 / 165,
    ),
    (
        "phantom_predictions_keep_class_defined",
        [[3, 0, 1], [0, 2, 0], [0, 0, 0]],
        {
            "positive": (1.0, 3 / 4, 6 / 7, 4, 3, True),
            "neutral": (1.0, 1.0, 1.0, 2, 2, True),
            "negative": (0.0, 0.0, 0.0, 0, 1, True),
        },
        19 / 21,
    ),
    (
        "single_class_perfect",
        [[0, 0, 0], [0, 7, 0], [0, 0, 0]],
        {
            "positive": (0.0, 0.0, 0.0, 0, 0, False),
            "neutral": (1.0, 1.0, 1.0, 7, 7, True),
            "negative": (0.0, 0.0, 0.0, 0, 0, False),
        },
        1.0,
    ),
    (
        "asymmetric_bulk",
        [[10, 2, 3], [1, 20, 4], [2, 0, 8]],
        {
            "positive": (10 / 13, 10 / 15, 5 / 7, 15, 13, True),
            "neutral": (20 / 22, 20 / 25, 40 / 47, 25, 22, True),
            "negative": (8 / 15, 8 / 10, 16 / 25, 10, 15, True),
        },
        (15 * (5 / 7) + 25 * (40 / 47) + 10 * (16 / 25)) / 50,
    ),
    (
        "zero_precision_class",
        [[0, 3, 0], [4, 1, 0], [0, 0, 2]],
        {
            "positive": (0.0, 0.0, 0.0, 3, 4, True),
            "neutral": (1 / 4, 1 / 5, 2 / 9, 5, 4, True),
            "negative": (1.0, 1.0, 1.0, 2, 2, True),
        },
        14 / 45,
    ),
    (
        "uniform_confusion",
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        {
            "positive": (1 / 3, 1 / 3, 1 / 3, 3, 3, True),
            "neutral": (1 / 3, 1 / 3, 1 / 3, 3, 3, True),
            "negative": (1 / 3, 1 / 3, 1 / 3, 3, 3, True),
        },
        1 / 3,
    ),
    (
        "two_class_skew",
        [[8, 2, 0], [3, 12, 0], [0, 0, 0]],
        {
            "positive": (8 / 11, 8 / 10, 16 / 21, 10, 11, True),
            "neutral": (12 / 14, 12 / 15, 24 / 29, 15, 14, True),
            "negative": (0.0, 0.0, 0.0, 0, 0, False),
        },
        (10 * (16 / 21) + 15 * (24 / 29)) / 25,
    ),
    (
        "recall_heavy_column",
        [[6, 0, 0], [5, 5, 0], [4, 0, 1]],
        {
            "positive": (6 / 15, 1.0, 4 / 7, 6, 15, True),
            "neutral": (1.0, 5 / 10, 2 / 3, 10, 5, True),
            "negative": (1.0, 1 / 5, 1 / 3, 5, 1, True),
        },
        247 / 441,
    ),
]


class TestConfusionMatrix:
    def test_hand_counted_entries(self):
        cm = confusion_matrix([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 0, 2])
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [1, 0, 2]])

    def test_label_names_are_refused(self):
        # labels are indices into LABELS; the pipeline never passes names
        with pytest.raises(ValueError):
            confusion_matrix(["positive", "negative"], ["neutral", "negative"])

    def test_empty_inputs_give_all_zero_matrix(self):
        np.testing.assert_array_equal(confusion_matrix([], []), np.zeros((3, 3)))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion_matrix([0, 1], [0])

    @pytest.mark.parametrize("bad", [[3], [-1]])
    def test_out_of_range_label_raises(self, bad):
        with pytest.raises(ValueError, match="outside the fixed class set"):
            confusion_matrix(bad, [0])

    def test_marginal_and_transpose_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            t = rng.integers(0, 3, size=n)
            p = rng.integers(0, 3, size=n)
            cm = confusion_matrix(t, p)
            assert cm.sum() == n
            assert np.trace(cm) == int((t == p).sum())
            np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(t, minlength=3))
            np.testing.assert_array_equal(cm.sum(axis=0), np.bincount(p, minlength=3))
            np.testing.assert_array_equal(cm.T, confusion_matrix(p, t))


class TestMetricFixtures:
    @pytest.mark.parametrize(
        ("cm", "expected", "expected_weighted"),
        [case[1:] for case in _METRIC_CASES],
        ids=[case[0] for case in _METRIC_CASES],
    )
    def test_hand_computed_fixture(self, cm, expected, expected_weighted):
        metrics = per_class_prf(np.asarray(cm))
        assert set(metrics) == set(LABELS)
        for label, (p, r, f1, support, predicted, defined) in expected.items():
            m = metrics[label]
            np.testing.assert_allclose(
                [m.precision, m.recall, m.f1], [p, r, f1], rtol=0, atol=1e-9
            )
            assert (m.support, m.predicted, m.defined) == (support, predicted, defined)
        np.testing.assert_allclose(
            weighted_f1(metrics), expected_weighted, rtol=0, atol=1e-9
        )

    def test_defined_flag_semantics(self):
        assert not ClassMetrics(0.0, 0.0, 0.0, support=0, predicted=0).defined
        assert ClassMetrics(0.0, 0.0, 0.0, support=0, predicted=3).defined
        assert ClassMetrics(0.0, 0.0, 0.0, support=2, predicted=0).defined

    def test_metric_ranges_on_random_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            cm = rng.integers(0, 9, size=(3, 3))
            cm[0, 0] += 1  # guarantee some support
            metrics = per_class_prf(cm)
            for m in metrics.values():
                assert 0.0 <= m.precision <= 1.0
                assert 0.0 <= m.recall <= 1.0
                assert 0.0 <= m.f1 <= 1.0
            assert 0.0 <= weighted_f1(metrics) <= 1.0


def _class_f1s(supports, f1_values):
    """Per-class metrics that carry only the given supports and F1 values."""
    return {
        label: ClassMetrics(0.0, 0.0, f1, support=support, predicted=0)
        for label, support, f1 in zip(LABELS, supports, f1_values)
    }


class TestWeightedF1:
    def test_external_f1_values_weighted_by_support(self):
        value = weighted_f1(_class_f1s([178, 1191, 131], [0.418, 0.904, 0.514]))
        np.testing.assert_allclose(value, 0.812268, rtol=0, atol=1e-9)
        assert abs(value - 0.812) < 1e-3

    def test_zero_support_classes_are_excluded(self):
        assert weighted_f1(_class_f1s([0, 10, 0], [0.9, 0.5, 0.7])) == pytest.approx(0.5)

    def test_no_support_anywhere_raises(self):
        with pytest.raises(ValueError, match="at least one class"):
            weighted_f1(_class_f1s([0, 0, 0], [0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="at least one class"):
            weighted_f1(per_class_prf(np.zeros((3, 3), dtype=int)))

    def test_labels_convenience_matches_hand_value(self):
        value = weighted_f1_labels([0] * 9 + [1], [0] * 10)
        np.testing.assert_allclose(value, 0.9 * (1.8 / 1.9), rtol=0, atol=1e-12)


class TestRunConfigAndReport:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.rounds == 10
        assert cfg.test_fraction == 0.1
        assert cfg.folds == 5
        assert cfg.scheme == "count_x_weight"
        assert cfg.smote and cfg.use_stopwords
        assert cfg.max_candidates is None and cfg.budget_seconds is None
        assert cfg.ensemble_size == 10 and cfg.top_ngrams == 10

    def test_rejects_bad_ensemble_size_and_top_ngrams(self):
        with pytest.raises(ValueError, match="ensemble_size"):
            RunConfig(ensemble_size=0)
        with pytest.raises(ValueError, match="top_ngrams"):
            RunConfig(top_ngrams=-1)
        assert RunConfig(ensemble_size=1, top_ngrams=0).top_ngrams == 0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"folds": 1}, "folds"),
            ({"smote_k": 0}, "smote_k"),
            ({"max_candidates": 0}, "max_candidates"),
            ({"budget_seconds": 0.0}, "budget_seconds"),
            ({"budget_seconds": -1.0}, "budget_seconds"),
            ({"max_candidates": 3, "budget_seconds": 10.0}, "not both"),
            # and the protocol and feature settings, checked before any work too
            ({"max_n": 0}, "max_n"),
            ({"max_n": 11}, "max_n"),
            ({"min_freq": 0}, "min_freq"),
            ({"rounds": 0}, "rounds"),
            ({"test_fraction": 0.0}, "test_fraction"),
            ({"test_fraction": 1.0}, "test_fraction"),
            ({"scheme": "tfidf"}, "scheme"),
            ({"seed": -1}, "seed"),
            ({"use_stopwords": False, "stoplist_path": "stop.txt"}, "stoplist_path"),
            ({"stoplist_path": "no/such/stop.txt"}, "stoplist_path"),
        ],
    )
    def test_rejects_bad_search_settings(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)

    def test_accepts_the_smallest_search_settings(self):
        cfg = RunConfig(folds=2, smote_k=1, max_candidates=1)
        assert (cfg.folds, cfg.smote_k, cfg.max_candidates) == (2, 1, 1)
        assert RunConfig(budget_seconds=1e-9).budget_seconds == 1e-9

    def test_to_dict_is_a_detached_copy(self):
        cfg = RunConfig(rounds=3)
        d = cfg.to_dict()
        assert d["rounds"] == 3 and d["smote"] is True
        d["rounds"] = 99
        assert cfg.rounds == 3

    def test_report_json_is_sorted_indented_and_newline_terminated(self):
        report = EvalReport(payload={"b": 1, "a": {"z": [1, 2]}})
        text = report.to_json()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": [1, 2]}}
        assert "\n  " in text  # indent=2
        assert report.to_dict() is report.payload


class TestRankingHelpers:
    def test_fusion_borda_points_and_lexicographic_ties(self):
        fused = fuse_rankings(
            [{"positive": ["b", "a"]}, {"positive": ["a", "b"]}], k=2
        )
        assert fused["positive"] == ["a", "b"]  # 3 points each; tie broken by phrase
        assert fused["neutral"] == [] and fused["negative"] == []

    def test_fusion_counts_votes_across_rankings(self):
        rankings = [{"positive": ["x"]}, {"positive": ["y"]}, {"positive": ["y"]}]
        assert fuse_rankings(rankings, k=5)["positive"] == ["y", "x"]

    def test_fusion_k_truncates_or_returns_all(self):
        rankings = [{"positive": ["x", "y", "z"]}]
        assert fuse_rankings(rankings, k=2)["positive"] == ["x", "y"]
        assert fuse_rankings(rankings, k=0)["positive"] == []
        assert fuse_rankings(rankings, k=-1)["positive"] == ["x", "y", "z"]


def solo(model):
    """A one-member ensemble of ``model``."""
    return TrainedEnsemble(
        members=[EnsembleMember(model=model, multiplicity=1)], fingerprint=model.fingerprint
    )


def _two_word_fixture():
    """Dictionary {bad, good} plus a matrix where good marks class 0, bad class 2."""
    tokens = [["good", "good"], ["good"], ["bad", "bad"], ["bad"]]
    dictionary = build_dictionary(tokens, max_n=2, min_freq=2)
    assert [" ".join(p) for p in dictionary.feature_order] == ["bad", "good"]
    fm = FeatureMatrix(
        X=vectorize(tokens, dictionary, "count_x_weight"),
        y=np.array([0, 0, 2, 2]),
        fingerprint=dictionary.fingerprint,
        scheme="count_x_weight",
    )
    return dictionary, fm


class TestTopNgrams:
    def test_naive_bayes_ranks_planted_words_first(self):
        dictionary, fm = _two_word_fixture()
        model = train("multinomial_nb", {"alpha": 1.0}, fm, seed=0)
        tops = top_ngrams_per_class(solo(model), dictionary, k=2, training=fm)
        assert tops["positive"] == ["good", "bad"]
        assert tops["negative"] == ["bad", "good"]
        assert tops["neutral"] == []  # class never observed

    def test_linear_model_ranks_planted_words_first(self):
        dictionary, fm = _two_word_fixture()
        model = train("logistic_regression", {"l2": 1e-4}, fm, seed=0)
        tops = top_ngrams_per_class(solo(model), dictionary, k=1, training=fm)
        assert tops["positive"] == ["good"]
        assert tops["negative"] == ["bad"]

    def test_k_zero_empties_every_list(self):
        dictionary, fm = _two_word_fixture()
        model = train("multinomial_nb", {"alpha": 1.0}, fm, seed=0)
        assert top_ngrams_per_class(solo(model), dictionary, k=0, training=fm) == {
            label: [] for label in LABELS
        }

    def test_constant_model_has_no_discrimination_signal(self):
        tokens = [["good"], ["good", "good"], ["good"]]
        dictionary = build_dictionary(tokens, max_n=1, min_freq=2)
        fm = FeatureMatrix(
            X=vectorize(tokens, dictionary, "count_x_weight"),
            y=np.zeros(3, dtype=np.int64),
            fingerprint=dictionary.fingerprint,
            scheme="count_x_weight",
        )
        model = train("multinomial_nb", {"alpha": 1.0}, fm, seed=0)
        assert top_ngrams_per_class(solo(model), dictionary, k=5, training=fm) == {
            label: [] for label in LABELS
        }

    def test_forest_attributes_features_to_their_nonzero_class(self):
        # Pure one-hot columns would let trees infer one class by eliminating
        # the other two, leaving its column unsplit (zero importance). Giving
        # every class a couple of indistinguishable "dd" filler rows breaks
        # that shortcut, so each marker column must be split on directly.
        tokens = (
            [["aa"]] * 12
            + [["dd"]] * 3
            + [["bb"]] * 12
            + [["dd"]] * 3
            + [["cc"]] * 12
            + [["dd"]] * 3
        )
        dictionary = build_dictionary(tokens, max_n=1, min_freq=2)
        fm = FeatureMatrix(
            X=vectorize(tokens, dictionary, "count_x_weight"),
            y=np.repeat([0, 1, 2], 15),
            fingerprint=dictionary.fingerprint,
            scheme="count_x_weight",
        )
        hp = {
            "n_trees": 10,
            "max_depth": 4,
            "feature_fraction": 1.0,
            "min_samples_leaf": 1,
            "bootstrap": False,
        }
        model = train("random_forest", hp, fm, seed=0)
        tops = top_ngrams_per_class(solo(model), dictionary, k=3, training=fm)
        assert tops == {"positive": ["aa"], "neutral": ["bb"], "negative": ["cc"]}

    def test_ensemble_fusion_weights_members_by_multiplicity(self):
        dictionary, fm = _two_word_fixture()
        forward = train("multinomial_nb", {"alpha": 1.0}, fm, seed=0)
        swapped_fm = FeatureMatrix(
            X=fm.X, y=np.array([2, 2, 0, 0]), fingerprint=fm.fingerprint, scheme=fm.scheme
        )
        swapped = train("multinomial_nb", {"alpha": 1.0}, swapped_fm, seed=0)

        def ensemble(m_forward, m_swapped):
            return TrainedEnsemble(
                members=[
                    EnsembleMember(model=forward, multiplicity=m_forward),
                    EnsembleMember(model=swapped, multiplicity=m_swapped),
                ],
                fingerprint=dictionary.fingerprint,
            )

        tops = top_ngrams_per_class(ensemble(3, 1), dictionary, k=2, training=fm)
        assert tops["positive"] == ["good", "bad"]
        tops = top_ngrams_per_class(ensemble(1, 3), dictionary, k=2, training=fm)
        assert tops["positive"] == ["bad", "good"]

    def test_dictionary_fingerprint_mismatch_raises(self):
        dictionary, fm = _two_word_fixture()
        model = train("multinomial_nb", {"alpha": 1.0}, fm, seed=0)
        other = build_dictionary([["good"], ["good"], ["fine"], ["fine"]], max_n=1, min_freq=2)
        with pytest.raises(ValueError, match="different dictionary"):
            top_ngrams_per_class(solo(model), other, k=2, training=fm)
        unmarked = TrainedEnsemble(members=solo(model).members, fingerprint="")
        with pytest.raises(ValueError, match="different dictionary"):
            top_ngrams_per_class(unmarked, dictionary, k=2, training=fm)
        foreign = FeatureMatrix(X=fm.X, y=fm.y, fingerprint="other", scheme=fm.scheme)
        with pytest.raises(ValueError, match="different dictionary"):
            top_ngrams_per_class(solo(model), dictionary, k=2, training=foreign)


# ---------------------------------------------------------------------------
# experiment driver on a small planted dataset

_PLANTED_VOCAB = {
    "positive": ("great", "love", "nice"),
    "neutral": ("install", "version", "update"),
    "negative": ("crash", "terrible", "bug"),
}
_SHARED_WORDS = ("app", "phone", "screen", "menu")


def _planted_dataset(counts=(24, 18, 18), seed=5) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    documents = []
    for label, n in zip(LABELS, counts):
        words = _PLANTED_VOCAB[label]
        for _ in range(n):
            tokens = list(rng.choice(words, size=3)) + list(rng.choice(_SHARED_WORDS, size=2))
            documents.append(
                LabeledDocument(doc_id=len(documents), text=" ".join(tokens), label=label)
            )
    return LabeledDataset(name="planted", documents=tuple(documents))


def _small_config() -> RunConfig:
    return RunConfig(
        rounds=3,
        test_fraction=0.25,
        seed=11,
        use_stopwords=False,
        max_n=2,
        min_freq=2,
        smote=True,
        smote_k=3,
        folds=3,
        max_candidates=4,
        ensemble_size=3,
        top_ngrams=5,
    )


@pytest.fixture(scope="module")
def small_run():
    ds = _planted_dataset()
    cfg = _small_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the run must be warning-free
        report = run_experiment(ds, cfg)
    return ds, cfg, report


_ROUND_KEYS = {
    "round",
    "n_train",
    "n_train_oversampled",
    "n_test",
    "dictionary_size",
    "dictionary_fingerprint",
    "confusion",
    "per_class",
    "weighted_f1",
    "correct",
    "candidates_evaluated",
    "best_cv_score",
    "oof_trajectory",
    "ensemble",
    "top_ngrams",
}


class TestExperimentDriver:
    def test_payload_structure(self, small_run):
        ds, cfg, report = small_run
        payload = report.to_dict()
        assert set(payload) == {"config", "dataset", "rounds", "averaged", "pooled", "top_ngrams"}
        assert payload["config"] == cfg.to_dict()
        assert payload["dataset"] == {
            "name": "planted",
            "n_documents": 60,
            "class_distribution": class_distribution(ds),
        }
        assert len(payload["rounds"]) == cfg.rounds

    def test_round_payload_contract(self, small_run):
        _, cfg, report = small_run
        for r in report.payload["rounds"]:
            assert set(r) == _ROUND_KEYS
            assert r["n_train"] + r["n_test"] == 60
            assert r["n_train_oversampled"] >= r["n_train"]
            cm = np.asarray(r["confusion"])
            assert cm.shape == (3, 3) and cm.sum() == r["n_test"]
            assert np.trace(cm) == r["correct"]
            np.testing.assert_allclose(
                r["weighted_f1"], weighted_f1(per_class_prf(cm)), atol=1e-12
            )
            assert r["candidates_evaluated"] == 4
            assert 0.0 <= r["best_cv_score"] <= 1.0
            assert len(r["oof_trajectory"]) == cfg.ensemble_size
            assert all(0.0 <= v <= 1.0 for v in r["oof_trajectory"])
            assert sum(m["multiplicity"] for m in r["ensemble"]) == cfg.ensemble_size
            for member in r["ensemble"]:
                assert member["kind"] in (
                    "multinomial_nb",
                    "logistic_regression",
                    "linear_svm",
                    "random_forest",
                )
                assert isinstance(member["hp"], dict)
                assert 0.0 <= member["cv_score"] <= 1.0
            assert set(r["top_ngrams"]) == set(LABELS)
            assert all(len(v) <= cfg.top_ngrams for v in r["top_ngrams"].values())

    def test_dictionary_built_from_training_rows_only(self, small_run):
        ds, cfg, report = small_run
        plan = stratified_shuffle_splits(
            ds, rounds=cfg.rounds, test_fraction=cfg.test_fraction, seed=cfg.seed
        )
        by_id = {doc.doc_id: doc for doc in ds.documents}
        full = build_dictionary(
            [preprocess(doc.text) for doc in ds.documents], max_n=cfg.max_n, min_freq=cfg.min_freq
        )
        for r, (train_ids, _) in zip(report.payload["rounds"], plan.rounds):
            train_only = build_dictionary(
                [preprocess(by_id[i].text) for i in train_ids],
                max_n=cfg.max_n,
                min_freq=cfg.min_freq,
            )
            assert r["dictionary_fingerprint"] == train_only.fingerprint
            assert r["dictionary_fingerprint"] != full.fingerprint

    def test_averaged_block_matches_round_values(self, small_run):
        _, _, report = small_run
        rounds = report.payload["rounds"]
        avg = report.payload["averaged"]
        np.testing.assert_allclose(
            avg["weighted_f1_mean"], np.mean([r["weighted_f1"] for r in rounds]), atol=1e-12
        )
        assert avg["correct_total"] == sum(r["correct"] for r in rounds)
        np.testing.assert_allclose(
            avg["correct_mean"], np.mean([r["correct"] for r in rounds]), atol=1e-12
        )
        assert avg["n_test_total"] == sum(r["n_test"] for r in rounds)
        np.testing.assert_allclose(
            avg["dictionary_size_mean"],
            np.mean([r["dictionary_size"] for r in rounds]),
            atol=1e-12,
        )
        for label in LABELS:
            entries = [r["per_class"][label] for r in rounds]
            defined = [e for e in entries if e["defined"]]
            stats = avg["per_class"][label]
            assert stats["rounds_defined"] == len(defined)
            np.testing.assert_allclose(
                stats["support_mean"], np.mean([e["support"] for e in entries]), atol=1e-12
            )
            for metric in ("precision", "recall", "f1"):
                np.testing.assert_allclose(
                    stats[metric], np.mean([e[metric] for e in defined]), atol=1e-12
                )

    def test_pooled_confusion_is_the_sum_over_rounds(self, small_run):
        _, _, report = small_run
        summed = np.sum([r["confusion"] for r in report.payload["rounds"]], axis=0)
        pooled = report.payload["pooled"]
        np.testing.assert_array_equal(pooled["confusion"], summed)
        np.testing.assert_allclose(
            pooled["weighted_f1"], weighted_f1(per_class_prf(summed)), atol=1e-12
        )

    def test_planted_vocabulary_is_recovered(self, small_run):
        _, _, report = small_run
        assert report.payload["averaged"]["weighted_f1_mean"] >= 0.9
        fused = report.payload["top_ngrams"]
        for label in LABELS:
            assert fused[label], f"no discriminative phrases reported for {label}"
            own = _PLANTED_VOCAB[label]
            foreign = {
                w for other, ws in _PLANTED_VOCAB.items() if other != label for w in ws
            }
            top_tokens = fused[label][0].split()
            assert any(t in own for t in top_tokens)
            assert not any(t in foreign for t in top_tokens)

    def test_rerun_is_byte_identical(self, small_run):
        ds, cfg, report = small_run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = run_experiment(ds, cfg)
        assert again.to_json() == report.to_json()


class TestRendering:
    def test_table_shows_headline_numbers(self, small_run):
        _, cfg, report = small_run
        text = report.render_table()
        assert text.endswith("\n")
        assert "dataset: planted  (60 documents; positive 24 / neutral 18 / negative 18)" in text
        assert f"max candidates {cfg.max_candidates}" in text
        assert "weighted F1 (mean over rounds):" in text
        assert "smote: on" in text
        per_round = [line for line in text.splitlines() if line.startswith("      ")]
        assert len(per_round) >= cfg.rounds

    def test_absent_class_renders_dashes_and_nulls(self):
        documents = []
        for label, word in (("positive", "good"), ("negative", "bad")):
            for _ in range(8):
                documents.append(
                    LabeledDocument(doc_id=len(documents), text=f"{word} {word} app", label=label)
                )
        ds = LabeledDataset(name="two-class", documents=tuple(documents))
        cfg = RunConfig(
            rounds=1,
            test_fraction=0.25,
            seed=3,
            use_stopwords=False,
            max_n=1,
            min_freq=2,
            smote=False,
            folds=2,
            max_candidates=1,
            ensemble_size=1,
            top_ngrams=3,
        )
        with pytest.warns(RuntimeWarning, match="partial"):
            report = run_experiment(ds, cfg)
        neutral = report.payload["averaged"]["per_class"]["neutral"]
        assert neutral["precision"] is None and neutral["f1"] is None
        assert neutral["rounds_defined"] == 0 and neutral["support_mean"] == 0.0
        assert report.payload["top_ngrams"]["neutral"] == []
        assert not report.payload["pooled"]["per_class"]["neutral"]["defined"]
        text = report.render_table()
        neutral_row = next(
            line for line in text.splitlines() if line.strip().startswith("neutral")
        )
        assert neutral_row.count("-") >= 3
        assert '"f1": null' in report.to_json()
