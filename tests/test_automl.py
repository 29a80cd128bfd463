"""Cross-validated candidate scoring, random search, and greedy ensemble selection."""

import itertools
import json
import multiprocessing
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from sentigram import automl
from sentigram.automl import (
    CandidateConfig,
    EnsembleMember,
    EnsembleSelection,
    Leaderboard,
    LeaderboardEntry,
    TrainedEnsemble,
    ensemble_select,
    ensemble_to_dict,
    evaluate_candidate,
    export_leaderboard,
    fit_final,
    fold_assignments,
    load_ensemble,
    search,
)
from sentigram.features import FeatureMatrix
from sentigram.learners import DEFAULT_HP, KINDS, train
from sentigram.metrics import weighted_f1_labels

FP = "fingerprint-of-test-dictionary"


def separable_matrix(n_per_class=8, noise=0.05, seed=0, classes=(0, 1, 2)):
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


def make_leaderboard(y, archives):
    """Hand-built leaderboard; archives must already be in solo-score order."""
    y = np.asarray(y)
    entries = []
    for i, arch in enumerate(archives):
        arch = np.asarray(arch, dtype=float)
        score = weighted_f1_labels(y, np.argmax(arch, axis=1))
        entries.append(
            LeaderboardEntry(
                config=CandidateConfig(kind="multinomial_nb", hp={}, seed=i),
                score=score,
                oof=arch,
                index=i,
            )
        )
    assert [e.index for e in sorted(entries, key=lambda e: (-e.score, e.index))] == list(
        range(len(entries))
    ), "fixture archives must be ordered by descending solo score"
    return Leaderboard(entries=entries, y=y, fingerprint=FP)


def brute_force_best_score(lb, size):
    best = -1.0
    for combo in itertools.combinations_with_replacement(range(len(lb.entries)), size):
        total = sum(lb.entries[p].oof for p in combo)
        score = weighted_f1_labels(lb.y, np.argmax(total, axis=1))
        best = max(best, score)
    return best


class TestCandidateConfig:
    def test_hp_normalized_with_defaults(self):
        config = CandidateConfig(kind="random_forest", hp={"n_trees": 20})
        assert config.hp["max_depth"] == DEFAULT_HP["random_forest"]["max_depth"]
        assert config.hp["n_trees"] == 20

    def test_invalid_hp_rejected_at_construction(self):
        with pytest.raises(ValueError, match="alpha"):
            CandidateConfig(kind="multinomial_nb", hp={"alpha": -1.0})

    def test_to_dict_round_trips_fields(self):
        config = CandidateConfig(kind="multinomial_nb", hp={"alpha": 2.0}, seed=7)
        assert config.to_dict() == {"kind": "multinomial_nb", "hp": {"alpha": 2.0}, "seed": 7}


class TestFoldAssignments:
    def test_partition_covers_all_rows(self):
        rng = np.random.default_rng(60)
        y = rng.integers(0, 3, size=47)
        assign = fold_assignments(y, folds=5, seed=1)
        assert assign.shape == (47,)
        assert set(np.unique(assign)) <= set(range(5))

    def test_per_class_fold_counts_balanced_within_one(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            y = rng.integers(0, 3, size=int(rng.integers(10, 80)))
            folds = int(rng.integers(2, 6))
            assign = fold_assignments(y, folds=folds, seed=3)
            for class_id in np.unique(y):
                counts = np.bincount(assign[y == class_id], minlength=folds)
                assert counts.max() - counts.min() <= 1

    def test_deterministic_and_label_only(self):
        y = np.asarray([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        a = fold_assignments(y, folds=3, seed=9)
        b = fold_assignments(y.copy(), folds=3, seed=9)
        np.testing.assert_array_equal(a, b)
        c = fold_assignments(y, folds=3, seed=10)
        assert not np.array_equal(a, c)

    def test_folds_validation(self):
        with pytest.raises(ValueError, match="folds"):
            fold_assignments(np.asarray([0, 1]), folds=1)


class TestEvaluateCandidate:
    def test_archive_rows_are_distributions_in_global_order(self):
        fm = separable_matrix()
        config = CandidateConfig(kind="multinomial_nb", hp={})
        score, archive = evaluate_candidate(config, fm, folds=5, fold_seed=0)
        assert archive.shape == (fm.n_documents, 3)
        assert np.all(archive >= 0)
        np.testing.assert_allclose(archive.sum(axis=1), 1.0, atol=1e-9)
        assert score >= 0.95  # separable data: near-perfect out-of-fold score

    def test_constant_features_fall_back_to_majority_class(self):
        # 9 majority / 1 minority rows with a constant feature: every fold
        # model predicts the majority class, so the pooled weighted F1 is
        # 0.9 * F1(precision=0.9, recall=1.0) = 0.9 * 18/19
        X = sp.csr_matrix(np.ones((10, 1)))
        y = np.asarray([0] * 9 + [2])
        fm = FeatureMatrix(X=X, y=y, fingerprint=FP, scheme="count")
        config = CandidateConfig(kind="multinomial_nb", hp={})
        score, archive = evaluate_candidate(config, fm, folds=5, fold_seed=0)
        assert score == pytest.approx(0.9 * (1.8 / 1.9), abs=1e-9)
        np.testing.assert_array_equal(np.argmax(archive, axis=1), 0)

    def test_unobserved_class_rows_stay_zero(self):
        fm = separable_matrix(classes=(0, 2), seed=1)
        config = CandidateConfig(kind="multinomial_nb", hp={})
        _, archive = evaluate_candidate(config, fm, folds=4, fold_seed=0)
        np.testing.assert_array_equal(archive[:, 1], 0.0)

    def test_deterministic_in_fold_seed(self):
        fm = separable_matrix(noise=1.0, seed=2)
        config = CandidateConfig(kind="random_forest", hp={"n_trees": 10}, seed=5)
        s1, a1 = evaluate_candidate(config, fm, folds=3, fold_seed=4)
        s2, a2 = evaluate_candidate(config, fm, folds=3, fold_seed=4)
        assert s1 == s2
        np.testing.assert_array_equal(a1, a2)

    def test_requires_labels_and_leaves_warning_to_search(self):
        fm = separable_matrix()
        unlabeled = FeatureMatrix(X=fm.X, y=None, fingerprint=FP, scheme="count")
        config = CandidateConfig(kind="multinomial_nb", hp={})
        with pytest.raises(ValueError, match="labels"):
            evaluate_candidate(config, unlabeled)
        single = separable_matrix(classes=(1,), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_candidate(config, single, folds=2)


class TestSearch:
    def test_count_capped_search_runs_defaults_first(self):
        fm = separable_matrix(seed=4)
        lb = search(fm, folds=3, seed=0, max_candidates=6)
        assert len(lb) == 6
        by_index = sorted(lb.entries, key=lambda e: e.index)
        assert [e.config.kind for e in by_index[:4]] == list(KINDS)
        for e in by_index[:4]:
            assert e.config.hp == {**DEFAULT_HP[e.config.kind]}

    def test_refuses_labels_that_do_not_fit_the_rows(self):
        fm = separable_matrix(n_per_class=10, seed=4)
        with pytest.raises(ValueError, match=r"labels of shape \(30,\), one per row, got \(29,\)"):
            search(FeatureMatrix(fm.X, fm.y[:-1], fm.fingerprint, fm.scheme), folds=3, seed=0,
                   max_candidates=4)

    def test_refuses_a_label_outside_the_labels_before_the_first_candidate(
        self, monkeypatch, pools
    ):
        calls = []
        monkeypatch.setattr(automl, "evaluate_candidate", lambda *a, **k: calls.append(a))
        fm = separable_matrix(n_per_class=6, classes=(0, 1, 3))
        with pytest.raises(ValueError, match=r"^label 3 is not one of the 3 labels 0\.\.2$"):
            search(fm, folds=3, seed=0, max_candidates=4)
        assert calls == [] and pools == []

    def test_leaderboard_sorted_by_score_then_index(self):
        fm = separable_matrix(noise=2.0, seed=5)
        lb = search(fm, folds=3, seed=1, max_candidates=7)
        keys = [(-e.score, e.index) for e in lb.entries]
        assert keys == sorted(keys)
        assert lb.best().score == max(e.score for e in lb.entries)

    def test_two_runs_are_identical(self):
        fm = separable_matrix(noise=1.0, seed=6)
        a = search(fm, folds=3, seed=2, max_candidates=6)
        b = search(fm, folds=3, seed=2, max_candidates=6)
        assert [(e.config.to_dict(), e.score, e.index) for e in a.entries] == [
            (e.config.to_dict(), e.score, e.index) for e in b.entries
        ]
        for ea, eb in zip(a.entries, b.entries):
            np.testing.assert_array_equal(ea.oof, eb.oof)

    def test_budget_arguments_are_mutually_exclusive_and_validated(self):
        fm = separable_matrix()
        with pytest.raises(ValueError, match="not both"):
            search(fm, max_candidates=3, budget_seconds=10.0)
        with pytest.raises(ValueError, match="max_candidates"):
            search(fm, max_candidates=0)
        with pytest.raises(ValueError, match="budget_seconds"):
            search(fm, budget_seconds=0.0)

    def test_one_row_per_class_fails_before_the_first_candidate(self, monkeypatch):
        # stratified dealing puts each class's only row in fold 0, which
        # leaves that fold's training part empty
        calls = []
        monkeypatch.setattr(automl, "evaluate_candidate", lambda *a, **k: calls.append(a))
        fm = separable_matrix(n_per_class=1)
        with pytest.raises(ValueError, match="single training row"):
            search(fm, folds=5, seed=0, max_candidates=1)
        assert calls == []

    def test_tiny_time_budget_still_runs_one_candidate_and_warns(self):
        fm = separable_matrix()
        with pytest.warns(RuntimeWarning, match="partial"):
            lb = search(fm, folds=2, seed=0, budget_seconds=1e-9)
        assert len(lb) == 1
        assert lb.entries[0].config.kind == KINDS[0]

    def test_partial_default_coverage_warns_in_count_mode(self):
        fm = separable_matrix()
        with pytest.warns(RuntimeWarning, match="partial"):
            lb = search(fm, folds=2, seed=0, max_candidates=2)
        assert len(lb) == 2

    def test_export_leaderboard_format(self, tmp_path):
        fm = separable_matrix(seed=7)
        lb = search(fm, folds=2, seed=3, max_candidates=4)
        path = tmp_path / "leaderboard.tsv"
        export_leaderboard(lb, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank\tkind\thp\tscore"
        assert len(lines) == 5
        for rank, line in enumerate(lines[1:], start=1):
            fields = line.split("\t")
            assert int(fields[0]) == rank
            assert fields[1] in KINDS
            assert fields[3] == f"{lb.entries[rank - 1].score:.6f}"


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def _entry_keys(lb):
    return [(e.config.to_dict(), e.score, e.index) for e in lb.entries]


def _search_keys(fm, folds, seed, max_candidates):
    return _entry_keys(search(fm, folds=folds, seed=seed, max_candidates=max_candidates))


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs; records each pool the search creates and checks that
    no worker process outlives the test and no pool had more than two
    candidates in flight."""
    created = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.futures, self.most_in_flight = [], 0
            created.append(self)

        def submit(self, *args, **kwargs):
            self.futures.append(super().submit(*args, **kwargs))
            in_flight = sum(not f.done() for f in self.futures)
            self.most_in_flight = max(self.most_in_flight, in_flight)
            return self.futures[-1]

    monkeypatch.setattr(automl, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(automl, "ProcessPoolExecutor", RecordingPool)
    yield created
    assert multiprocessing.active_children() == []
    assert all(pool.most_in_flight <= 2 for pool in created)
    assert automl._worker_task is None  # set in the workers only


@needs_fork
class TestParallelSearch:
    def test_one_and_two_workers_give_the_same_leaderboard(self, monkeypatch, pools):
        fm = separable_matrix(noise=1.0, seed=6)
        monkeypatch.setattr(automl, "_usable_cpus", lambda: 1)
        serial = search(fm, folds=3, seed=2, max_candidates=6)
        assert pools == []
        monkeypatch.setattr(automl, "_usable_cpus", lambda: 2)
        pooled = search(fm, folds=3, seed=2, max_candidates=6)
        assert len(pools) == 1
        assert _entry_keys(pooled) == _entry_keys(serial)
        for a, b in zip(serial.entries, pooled.entries):
            np.testing.assert_array_equal(a.oof, b.oof)

    def test_one_candidate_runs_in_process(self, pools):
        with pytest.warns(RuntimeWarning, match="partial"):
            lb = search(separable_matrix(), folds=2, seed=0, max_candidates=1)
        assert len(lb) == 1 and pools == []

    def test_budgeted_search_keeps_a_prefix_of_the_sequence(self, pools):
        fm = separable_matrix(seed=8)
        lb = search(fm, folds=2, seed=1, budget_seconds=0.5)
        assert len(pools) == 1
        assert sorted(e.index for e in lb.entries) == list(range(len(lb)))
        # the same candidates as the count-capped search of that length
        assert _entry_keys(lb) == _entry_keys(search(fm, folds=2, seed=1, max_candidates=len(lb)))

    def test_single_class_warning_is_given_once_by_the_caller(self, monkeypatch, pools):
        single = separable_matrix(classes=(1,), seed=3)
        shown = {}
        for workers in (1, 2):
            monkeypatch.setattr(automl, "_usable_cpus", lambda: workers)
            forked = len(pools)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RuntimeWarning, match="single class"):
                    search(single, folds=2, seed=0, max_candidates=4)
            assert len(pools) == forked  # raised before any pool was forked
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")  # shown once per location
                lb = search(single, folds=2, seed=0, max_candidates=4)
                search(single, folds=2, seed=0, max_candidates=4)
                warnings.filterwarnings(
                    "ignore", category=RuntimeWarning, module="sentigram.automl"
                )
                search(single, folds=2, seed=0, max_candidates=4)
            assert len(lb) == 4
            shown[workers] = [(str(w.message), w.filename) for w in caught]
        assert len(pools) == 3  # each two-worker search that ran forked one
        assert shown[1] == shown[2] == [
            (
                "training data contains a single class; cross-validation is degenerate",
                automl.__file__,
            )
        ]

    def test_unlabeled_matrix_is_refused_before_a_pool_is_forked(self, pools):
        fm = separable_matrix()
        unlabeled = FeatureMatrix(X=fm.X, y=None, fingerprint=FP, scheme="count")
        with pytest.raises(ValueError, match="search requires labels"):
            search(unlabeled, folds=2, seed=0, max_candidates=4)
        assert pools == []

    def test_search_in_a_daemon_process_runs_in_process(self, pools):
        fm = separable_matrix(noise=1.0, seed=6)
        expected = _entry_keys(search(fm, folds=3, seed=2, max_candidates=6))
        # multiprocessing.Pool workers are daemons, which may not start a pool
        with multiprocessing.get_context("fork").Pool(1) as daemon:
            keys = daemon.apply(_search_keys, (fm, 3, 2, 6))
        assert keys == expected

    def test_worker_failure_propagates(self, monkeypatch, pools):
        def broken_train(*args, **kwargs):
            raise RuntimeError("training failed")

        monkeypatch.setattr(automl, "train", broken_train)  # fork carries the patch
        with pytest.raises(RuntimeError, match="training failed"):
            search(separable_matrix(), folds=2, seed=0, max_candidates=4)
        assert len(pools) == 1


class TestEnsembleSelect:
    def _dominant_fixture(self):
        # index 0 is perfect on every row; 1 and 2 are single-class guessers
        y = [0, 0, 1, 1, 2, 2]
        perfect = [
            [0.8, 0.1, 0.1], [0.7, 0.2, 0.1],
            [0.1, 0.8, 0.1], [0.2, 0.7, 0.1],
            [0.1, 0.1, 0.8], [0.1, 0.2, 0.7],
        ]
        all_zero = [[0.9, 0.05, 0.05]] * 6
        all_one = [[0.05, 0.9, 0.05]] * 6
        return make_leaderboard(y, [perfect, all_zero, all_one])

    def _complementary_fixture(self):
        # two specialists: each perfect on its own class, a weak lean elsewhere,
        # so any mixture containing both predicts every row correctly
        y = [0, 0, 0, 1, 1]
        spec_a = [
            [0.90, 0.08, 0.02], [0.90, 0.08, 0.02], [0.90, 0.08, 0.02],
            [0.54, 0.44, 0.02], [0.54, 0.44, 0.02],
        ]
        spec_b = [
            [0.44, 0.53, 0.03], [0.44, 0.53, 0.03], [0.44, 0.53, 0.03],
            [0.05, 0.93, 0.02], [0.05, 0.93, 0.02],
        ]
        never_right = [[0.2, 0.1, 0.7]] * 5
        return make_leaderboard(y, [spec_a, spec_b, never_right])

    def test_dominant_member_selected_at_full_multiplicity(self):
        lb = self._dominant_fixture()
        sel = ensemble_select(lb, size=4)
        assert sel.members == [(lb.entries[0].config, 4)]
        assert sel.oof_trajectory == [1.0] * 4
        assert sel.oof_score == 1.0

    def test_complementary_pair_beats_best_individual_and_matches_brute_force(self):
        lb = self._complementary_fixture()
        sel = ensemble_select(lb, size=3)
        best_solo = max(e.score for e in lb.entries)
        assert sel.oof_score > best_solo
        assert sel.oof_score == pytest.approx(brute_force_best_score(lb, 3), abs=1e-12)
        # step 1: specialist A alone (all-0 predictions, weighted F1 0.45);
        # step 2: adding B turns every row correct; step 3 ties and re-adds
        # the earlier rank
        np.testing.assert_allclose(sel.oof_trajectory, [0.45, 1.0, 1.0], atol=1e-12)
        members = {config.seed: mult for config, mult in sel.members}
        assert members == {0: 2, 1: 1}

    def test_size_one_returns_leaderboard_best(self):
        lb = self._dominant_fixture()
        sel = ensemble_select(lb, size=1)
        assert sel.members == [(lb.best().config, 1)]
        assert sel.oof_trajectory == [lb.best().score]

    def test_exact_tie_goes_to_earlier_rank(self):
        y = [0, 0, 1, 1]
        arch = [[0.7, 0.3, 0.0], [0.7, 0.3, 0.0], [0.3, 0.7, 0.0], [0.3, 0.7, 0.0]]
        lb = make_leaderboard(y, [arch, list(arch)])  # identical twins
        sel = ensemble_select(lb, size=3)
        assert sel.members == [(lb.entries[0].config, 3)]

    def test_trajectory_never_decreases_at_step_two(self):
        # re-adding the sole incumbent always preserves step 1's score, so the
        # second step can never fall below the first
        rng = np.random.default_rng(62)
        for _ in range(50):
            y = rng.integers(0, 3, size=12)
            if len(np.unique(y)) < 2:
                continue
            archives = rng.dirichlet(np.ones(3), size=(3, 12))
            order = np.argsort(
                [-weighted_f1_labels(y, np.argmax(a, axis=1)) for a in archives],
                kind="stable",
            )
            lb = make_leaderboard(y, [archives[i] for i in order])
            sel = ensemble_select(lb, size=2)
            assert sel.oof_trajectory[1] >= sel.oof_trajectory[0] - 1e-12

    def test_validation(self):
        lb = self._dominant_fixture()
        with pytest.raises(ValueError, match="size"):
            ensemble_select(lb, size=0)
        empty = Leaderboard(entries=[], y=np.asarray([0]), fingerprint=FP)
        with pytest.raises(ValueError, match="empty"):
            ensemble_select(empty, size=2)


class TestFitFinalAndSerialization:
    def _pipeline(self, tmp_path_factory=None):
        fm = separable_matrix(seed=8)
        lb = search(fm, folds=3, seed=4, max_candidates=5)
        sel = ensemble_select(lb, size=3)
        ensemble = fit_final(sel, fm)
        return fm, sel, ensemble

    def test_refit_preserves_members_and_reaches_training_accuracy(self):
        fm, sel, ensemble = self._pipeline()
        assert [
            (CandidateConfig(m.model.kind, m.model.hp, m.model.seed), m.multiplicity)
            for m in ensemble.members
        ] == sel.members
        assert sum(m.multiplicity for m in ensemble.members) == 3
        np.testing.assert_array_equal(ensemble.predict(fm), fm.y)
        scores = ensemble.predict_scores(fm)
        assert scores.shape == (fm.n_documents, 3)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_refit_rejects_mismatched_matrix(self):
        fm, sel, _ = self._pipeline()
        other = FeatureMatrix(X=fm.X, y=fm.y, fingerprint="other", scheme="count")
        with pytest.raises(ValueError, match="does not match"):
            fit_final(sel, other)

    def test_refit_refuses_a_label_outside_the_labels(self, monkeypatch):
        calls = []
        monkeypatch.setattr(automl, "train", lambda *a, **k: calls.append(a))
        fm = separable_matrix(classes=(0, 1, 3))
        selection = EnsembleSelection(
            members=[(CandidateConfig(kind, {}), 1) for kind in KINDS], oof_trajectory=[0.5],
            fingerprint=FP,
        )
        with pytest.raises(ValueError, match=r"^label 3 is not one of the 3 labels 0\.\.2$"):
            fit_final(selection, fm)
        assert calls == []

    def test_members_missing_a_class_sum_as_the_indexed_reference(self):
        # full-class members are added in place, the others at their
        # classes' columns; the sums equal indexed adds in member order
        full, partial = separable_matrix(noise=2.0, seed=9), separable_matrix(
            noise=2.0, seed=9, classes=(0, 2)
        )
        members = [
            EnsembleMember(train("linear_svm", {}, full), 3),
            EnsembleMember(train("multinomial_nb", {}, partial), 2),
            EnsembleMember(train("random_forest", {"n_trees": 10}, full, seed=1), 1),
            EnsembleMember(train("logistic_regression", {}, partial), 5),
            EnsembleMember(train("multinomial_nb", {}, full), 1),
        ]
        assert [m.model.classes_.tolist() for m in members][:2] == [[0, 1, 2], [0, 2]]
        ensemble = TrainedEnsemble(members=members, fingerprint=FP)
        for fm in (full, FeatureMatrix(full.X[:1], None, FP, "count")):
            total = np.zeros((fm.n_documents, 3))
            for m in members:
                total[:, m.model.classes_] += m.multiplicity * m.model.predict_scores(fm)
            np.testing.assert_array_equal(ensemble.predict_scores(fm), total / 12)

    def test_ensemble_roundtrip(self, tmp_path):
        fm, _, ensemble = self._pipeline()
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(ensemble_to_dict(ensemble)), encoding="utf-8")
        back = load_ensemble(path)
        assert back.fingerprint == ensemble.fingerprint
        assert back.oof_trajectory == ensemble.oof_trajectory
        np.testing.assert_allclose(
            back.predict_scores(fm), ensemble.predict_scores(fm), atol=1e-15
        )

    def test_raw_rows_are_refused(self):
        fm, _, ensemble = self._pipeline()
        for raw in (fm.X, fm.X.toarray()):
            for call in (ensemble.predict, ensemble.predict_scores):
                with pytest.raises(AttributeError):
                    call(raw)

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda d: d.update(members=[]), "no members"),
            (lambda d: d.pop("members"), "no members"),
            (lambda d: d.pop("fingerprint"), "no fingerprint"),
            (
                lambda d: d["members"][0].update(multiplicity=0),
                "member 0 multiplicity 0 is below 1",
            ),
            (lambda d: d["members"][0]["model"].update(fingerprint=""), "fingerprint"),
            (lambda d: d["members"][0].pop("model"), "member 0 has no model"),
            (lambda d: d["members"][0].pop("multiplicity"), "member 0 has no multiplicity"),
            (
                lambda d: d["members"][0].update(multiplicity=1.5),
                "member 0 multiplicity 1.5 is not an integer",
            ),
            (
                lambda d: d["members"][0].update(multiplicity="2"),
                "member 0 multiplicity '2' is not an integer",
            ),
            (
                lambda d: d["members"][0].update(multiplicity=True),
                "member 0 multiplicity True is not an integer",
            ),
            (
                lambda d: d["members"][-1]["model"].update(fingerprint="B"),
                r"member \d+ \(\w+\) has dictionary fingerprint 'B', not the container's",
            ),
        ],
        ids=["empty-members", "no-members", "no-fingerprint", "zero-multiplicity",
             "member-without-fingerprint", "member-without-model",
             "member-without-multiplicity", "fractional-multiplicity", "string-multiplicity",
             "boolean-multiplicity", "member-with-another-fingerprint"],
    )
    def test_load_rejects_a_malformed_container(self, tmp_path, change, match):
        _, _, ensemble = self._pipeline()
        payload = ensemble_to_dict(ensemble)
        change(payload)
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda d: [], "ensemble container is not a JSON object"),
            (lambda d: "ensemble", "ensemble container is not a JSON object"),
            (lambda d: {**d, "members": [[]]}, "ensemble member 0 is not a JSON object"),
            (
                lambda d: {**d, "members": [{**d["members"][0], "model": []}]},
                "ensemble member 0's model is not a JSON object",
            ),
        ],
        ids=["list-container", "string-container", "list-member", "list-model"],
    )
    def test_load_rejects_a_container_that_is_not_an_object(self, tmp_path, change, match):
        _, _, ensemble = self._pipeline()
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(change(ensemble_to_dict(ensemble))), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {match}"):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "change, match",
        [
            (
                lambda d: d["members"][0]["model"].update(classes=[0, 1, 5]),
                r"ensemble member 0 \(multinomial_nb\) has classes \[0, 1, 5\], not all below",
            ),
            (
                lambda d: d["members"][1]["model"]["params"]["trees"][0]["threshold"].pop(),
                r"ensemble member 1 \(random_forest\): random forest tree 0: its node columns",
            ),
            (
                lambda d: d["members"][0]["model"].pop("n_features"),
                r"ensemble member 0 \(multinomial_nb\): multinomial_nb payload has no 'n_features'",
            ),
        ],
        ids=["classes-outside-labels", "malformed-tree", "member-without-n-features"],
    )
    def test_load_names_the_file_and_member_of_a_malformed_model(self, tmp_path, change, match):
        fm = separable_matrix(seed=8)
        forest = train("random_forest", {"n_trees": 10, "max_depth": 3}, fm, seed=1)
        members = [EnsembleMember(train("multinomial_nb", {}, fm), 1), EnsembleMember(forest, 2)]
        payload = ensemble_to_dict(TrainedEnsemble(members=members, fingerprint=FP))
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        np.testing.assert_array_equal(load_ensemble(path).predict(fm), fm.y)
        change(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {match}"):
            load_ensemble(path)

    def test_load_names_the_file_that_is_not_valid_json(self, tmp_path):
        _, _, ensemble = self._pipeline()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ensemble_to_dict(ensemble))[:99], encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: not valid JSON"):
            load_ensemble(path)

    def test_load_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else/1"}', encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_ensemble(path)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
