"""Release gate: each test pins one shipped guarantee of the package, from
exact brute-force oracles for the n-gram statistics up to a timed end-to-end
recovery of a planted vocabulary.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
guarantee. The final test replicates published class distributions and scores
and is skipped unless the external benchmark CSVs are supplied via the
``SENTIGRAM_BENCHMARK_DATA`` environment variable.
"""

import csv
import io
import itertools
import json
import math
import os
import time
import warnings
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sentigram.automl import (
    CandidateConfig,
    Leaderboard,
    LeaderboardEntry,
    ensemble_select,
)
from sentigram.cli import main as cli_main
from sentigram.corpus import (
    LABELS,
    LabeledDataset,
    LabeledDocument,
    class_distribution,
    load_dataset,
    stratified_shuffle_splits,
)
from sentigram.evaluation import RunConfig, run_experiment
from sentigram.features import FeatureMatrix, smote_oversample
from sentigram.learners import softmax_xent_loss_grad, train
from sentigram.metrics import ClassMetrics, per_class_prf, weighted_f1, weighted_f1_labels
from sentigram.ngrams import build_dictionary, export_dictionary, import_dictionary

# ---------------------------------------------------------------------------
# brute-force n-gram oracle (independent of the package implementation)


def _oracle_stats(docs, max_n=10):
    """(freq, df_phrase, df_terms) per n-gram via nested loops and set scans."""
    freq, df_phrase = Counter(), Counter()
    for tokens in docs:
        grams = Counter(
            tuple(tokens[i : i + n])
            for n in range(1, max_n + 1)
            for i in range(len(tokens) - n + 1)
        )
        freq.update(grams)
        df_phrase.update(grams.keys())
    doc_sets = [set(tokens) for tokens in docs]
    df_terms_cache: dict[frozenset, int] = {}
    out = {}
    for gram in freq:
        terms = frozenset(gram)
        if terms not in df_terms_cache:
            df_terms_cache[terms] = sum(1 for s in doc_sets if terms <= s)
        out[gram] = (freq[gram], df_phrase[gram], df_terms_cache[terms])
    return out


def _random_corpora(n_corpora=200, seed=12345):
    """Random corpora within the oracle bounds: <=50 docs x <=30 tokens, alphabet <=8."""
    rng = np.random.default_rng(seed)
    alphabet = "abcdefgh"
    corpora = []
    for _ in range(n_corpora):
        n_docs = int(rng.integers(2, 51))
        a = int(rng.integers(2, 9))
        corpora.append(
            [
                [alphabet[j] for j in rng.integers(0, a, size=int(rng.integers(0, 31)))]
                for _ in range(n_docs)
            ]
        )
    return corpora


def test_01_ngram_statistics_match_bruteforce_oracle():
    started = time.monotonic()
    for docs in _random_corpora():
        oracle = _oracle_stats(docs)
        dictionary = build_dictionary(docs, max_n=10, min_freq=1)
        assert set(dictionary.entries) == set(oracle)
        n = len(docs)
        for phrase, entry in dictionary.entries.items():
            freq, dfp, dft = oracle[phrase]
            assert (entry.freq, entry.df_phrase, entry.df_terms) == (freq, dfp, dft)
            assert entry.weight == math.log(n * dfp / (dft * dft))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"


def test_02_unigram_weights_reduce_to_plain_idf():
    for docs in _random_corpora(n_corpora=60, seed=777):
        dictionary = build_dictionary(docs, max_n=10, min_freq=1)
        n = len(docs)
        checked = 0
        for phrase, entry in dictionary.entries.items():
            if len(phrase) != 1:
                continue
            assert abs(entry.weight - math.log(n / entry.df_phrase)) < 1e-12
            checked += 1
        assert checked > 0


def test_03_rare_phrase_pruning_and_bitexact_tsv_roundtrip(tmp_path):
    exported = tmp_path / "dict.tsv"
    reexported = tmp_path / "dict2.tsv"
    for i, docs in enumerate(_random_corpora(n_corpora=60, seed=31337)):
        pruned = build_dictionary(docs, max_n=10, min_freq=2)
        unpruned = build_dictionary(docs, max_n=10, min_freq=1)
        survivors = {p for p, e in unpruned.entries.items() if e.freq >= 2}
        assert set(pruned.entries) == survivors, f"corpus {i}"

        export_dictionary(pruned, exported)
        lines = exported.read_text(encoding="utf-8").splitlines()
        assert all(int(line.split("\t")[2]) >= 2 for line in lines[1:]), f"corpus {i}"
        export_dictionary(import_dictionary(exported), reexported)
        assert exported.read_bytes() == reexported.read_bytes(), f"corpus {i}"


# Hand-computed confusion matrices: (rows in (true, predicted) order,
# {label: (precision, recall, f1)}, weighted F1). Derived from
# tp / column-sum / row-sum arithmetic, worked out by hand.
_HAND_FIXTURES = [
    (
        [[5, 0, 0], [0, 3, 0], [0, 0, 2]],
        {"positive": (1, 1, 1), "neutral": (1, 1, 1), "negative": (1, 1, 1)},
        1.0,
    ),
    (
        [[0, 5, 0], [0, 0, 3], [2, 0, 0]],
        {"positive": (0, 0, 0), "neutral": (0, 0, 0), "negative": (0, 0, 0)},
        0.0,
    ),
    (
        [[9, 0, 0], [1, 0, 0], [0, 0, 0]],
        {"positive": (0.9, 1.0, 1.8 / 1.9), "neutral": (0, 0, 0), "negative": (0, 0, 0)},
        0.9 * (1.8 / 1.9),
    ),
    (
        [[4, 1, 0], [2, 3, 1], [0, 1, 3]],
        {
            "positive": (4 / 6, 4 / 5, 8 / 11),
            "neutral": (3 / 5, 3 / 6, 6 / 11),
            "negative": (3 / 4, 3 / 4, 3 / 4),
        },
        109 / 165,
    ),
    (
        [[3, 0, 1], [0, 2, 0], [0, 0, 0]],
        {"positive": (1.0, 3 / 4, 6 / 7), "neutral": (1, 1, 1), "negative": (0, 0, 0)},
        19 / 21,
    ),
    (
        [[0, 0, 0], [0, 7, 0], [0, 0, 0]],
        {"positive": (0, 0, 0), "neutral": (1, 1, 1), "negative": (0, 0, 0)},
        1.0,
    ),
    (
        [[10, 2, 3], [1, 20, 4], [2, 0, 8]],
        {
            "positive": (10 / 13, 10 / 15, 5 / 7),
            "neutral": (20 / 22, 20 / 25, 40 / 47),
            "negative": (8 / 15, 8 / 10, 16 / 25),
        },
        (15 * (5 / 7) + 25 * (40 / 47) + 10 * (16 / 25)) / 50,
    ),
    (
        [[0, 3, 0], [4, 1, 0], [0, 0, 2]],
        {"positive": (0, 0, 0), "neutral": (1 / 4, 1 / 5, 2 / 9), "negative": (1, 1, 1)},
        14 / 45,
    ),
    (
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        {
            "positive": (1 / 3, 1 / 3, 1 / 3),
            "neutral": (1 / 3, 1 / 3, 1 / 3),
            "negative": (1 / 3, 1 / 3, 1 / 3),
        },
        1 / 3,
    ),
    (
        [[8, 2, 0], [3, 12, 0], [0, 0, 0]],
        {
            "positive": (8 / 11, 8 / 10, 16 / 21),
            "neutral": (12 / 14, 12 / 15, 24 / 29),
            "negative": (0, 0, 0),
        },
        (10 * (16 / 21) + 15 * (24 / 29)) / 25,
    ),
    (
        [[6, 0, 0], [5, 5, 0], [4, 0, 1]],
        {
            "positive": (6 / 15, 1.0, 4 / 7),
            "neutral": (1.0, 5 / 10, 2 / 3),
            "negative": (1.0, 1 / 5, 1 / 3),
        },
        247 / 441,
    ),
]


def test_04_metric_fixtures_match_hand_computations():
    assert len(_HAND_FIXTURES) >= 10
    for i, (cm, expected, expected_weighted) in enumerate(_HAND_FIXTURES):
        metrics = per_class_prf(np.asarray(cm))
        for label, (p, r, f1) in expected.items():
            m = metrics[label]
            np.testing.assert_allclose(
                [m.precision, m.recall, m.f1], [p, r, f1], rtol=0, atol=1e-9,
                err_msg=f"fixture {i}, class {label}",
            )
        np.testing.assert_allclose(
            weighted_f1(metrics), expected_weighted, rtol=0, atol=1e-9,
            err_msg=f"fixture {i}",
        )
    # support-weighted combination of externally reported per-class F1 scores
    reported = {
        label: ClassMetrics(0.0, 0.0, f1, support=support, predicted=0)
        for label, support, f1 in zip(LABELS, (178, 1191, 131), (0.418, 0.904, 0.514))
    }
    assert abs(weighted_f1(reported) - 0.812) < 1e-3


def test_05_stratified_splits_hit_per_class_targets():
    rng = np.random.default_rng(20_24)
    for i in range(1000):
        counts = rng.integers(2, 41, size=3)
        counts[int(rng.integers(0, 3))] = int(rng.integers(10, 41))  # keep tests nonempty
        if rng.random() < 0.2:
            counts[int(rng.integers(0, 3))] = 0  # sometimes a class is absent
        fraction = float(rng.uniform(0.1, 0.5))
        rounds = int(rng.integers(1, 5))
        documents = []
        for label, count in zip(LABELS, counts):
            for _ in range(int(count)):
                documents.append(
                    LabeledDocument(doc_id=len(documents), text="w", label=label)
                )
        ds = LabeledDataset(name=f"gen{i}", documents=tuple(documents))
        by_id = {d.doc_id: d.label for d in ds.documents}

        plan = stratified_shuffle_splits(ds, rounds=rounds, test_fraction=fraction, seed=i)
        again = stratified_shuffle_splits(ds, rounds=rounds, test_fraction=fraction, seed=i)
        assert plan.rounds == again.rounds, f"dataset {i}: seed not reproducible"

        target = {
            label: round(count * fraction) for label, count in zip(LABELS, counts)
        }
        for train_ids, test_ids in plan.rounds:
            assert set(train_ids) | set(test_ids) == set(by_id)
            assert not set(train_ids) & set(test_ids)
            got = Counter(by_id[t] for t in test_ids)
            for label in LABELS:
                assert abs(got.get(label, 0) - target[label]) <= 1, (
                    f"dataset {i}: class {label} test count {got.get(label, 0)} "
                    f"vs target {target[label]}"
                )


def _separable_matrix(n_per_class=20, noise=0.05, seed=0, classes=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    k = len(classes)
    n = n_per_class * k
    X = rng.uniform(0.0, noise, size=(n, 2 * k))
    y = np.repeat(np.asarray(classes), n_per_class)
    for i, c in enumerate(classes):
        rows = slice(i * n_per_class, (i + 1) * n_per_class)
        X[rows, 2 * i : 2 * i + 2] = rng.uniform(3.0, 5.0, size=(n_per_class, 2))
    order = rng.permutation(n)
    return sp.csr_matrix(X[order]), y[order]


def test_06_every_learner_fits_the_separable_toy():
    X, y = _separable_matrix(seed=42)
    fm = FeatureMatrix(X=X, y=y, fingerprint="toy", scheme="count_x_weight")
    hp_by_kind = {
        "multinomial_nb": {"alpha": 1.0},
        "logistic_regression": {"l2": 1e-5},
        "linear_svm": {"l2": 1e-5},
        "random_forest": {
            "n_trees": 10,
            "max_depth": 8,
            "feature_fraction": 1.0,
            "min_samples_leaf": 1,
            "bootstrap": False,
        },
    }
    for kind, hp in hp_by_kind.items():
        model = train(kind, hp, fm, seed=1)
        accuracy = float((model.predict(fm) == y).mean())
        assert accuracy == 1.0, f"{kind} reached only {accuracy:.3f} on the separable toy"

    # softmax cross-entropy gradient vs. central finite differences
    rng = np.random.default_rng(3)
    Xd = rng.normal(size=(12, 5))
    yd = rng.integers(0, 3, size=12)
    W = rng.normal(scale=0.5, size=(3, 5))
    b = rng.normal(scale=0.5, size=3)
    _, gW, gb = softmax_xent_loss_grad(W, b, Xd, yd, l2=1e-3)
    eps = 1e-6
    for grad, params in ((gW, W), (gb, b)):
        flat_grad = np.asarray(grad).ravel()
        flat = params.ravel()
        for j in range(flat.size):
            old = flat[j]
            flat[j] = old + eps
            up = softmax_xent_loss_grad(W, b, Xd, yd, l2=1e-3)[0]
            flat[j] = old - eps
            down = softmax_xent_loss_grad(W, b, Xd, yd, l2=1e-3)[0]
            flat[j] = old
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - flat_grad[j]) <= 1e-5 * max(1.0, abs(numeric))

    # naive Bayes vs. hand-computed Laplace estimates
    Xnb = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]]))
    fm_nb = FeatureMatrix(
        X=Xnb, y=np.array([0, 0, 1, 1]), fingerprint="nb", scheme="count_x_weight"
    )
    nb = train("multinomial_nb", {"alpha": 1.0}, fm_nb, seed=0)
    np.testing.assert_allclose(
        nb.feature_log_prob_,
        [[math.log(3 / 4), math.log(1 / 4)], [math.log(1 / 5), math.log(4 / 5)]],
        rtol=0,
        atol=1e-9,
    )


# ---------------------------------------------------------------------------
# frozen leaderboard families with a provable brute-force optimum
#
# Generic random score archives do NOT make greedy forward selection optimal
# (measured mismatch rates of 7-18% depending on the score distribution), so
# the oracle draws from two families where optimality is provable:
#   * dominant: one member ranks the true class first on every row, so greedy
#     re-adds it forever and no multiset can beat a perfect score;
#   * calibrated specialists: two members cover disjoint class regions with
#     an own-class argmax margin (>= 0.71) more than four times any foreign
#     lean (<= 0.14), so every multiset of total size <= 5 containing both
#     predicts perfectly, and constant-class distractors can tie but never
#     strictly beat a specialist.
# A 10,000-instance sweep of this generator showed zero greedy/brute-force
# mismatches and zero trajectory drops, while seeded selection bugs
# (no-replacement, single-pass top-k) are flagged on 34-61% of instances.


def _entry(archive, y, index):
    config = CandidateConfig(kind="multinomial_nb", hp={}, seed=index)
    score = weighted_f1_labels(y, np.argmax(archive, axis=1))
    return LeaderboardEntry(config=config, score=score, oof=archive, index=index)


def _constant_member(rng, n, q):
    """Score rows that always argmax to class q."""
    archive = np.zeros((n, 3))
    u = rng.uniform(0.6, 0.9, size=n)
    f = rng.uniform(0.2, 0.8, size=n)
    others = [c for c in range(3) if c != q]
    archive[:, q] = u
    archive[:, others[0]] = (1 - u) * f
    archive[:, others[1]] = (1 - u) * (1 - f)
    return archive


def _specialists_instance(rng):
    a, b = rng.choice(3, size=2, replace=False)
    n_a, n_b = rng.integers(5, 31, size=2)
    y = np.asarray([a] * n_a + [b] * n_b)
    n = len(y)
    c = 3 - a - b

    def specialist(own, other):
        archive = np.zeros((n, 3))
        own_rows = y == own
        h = rng.uniform(0.85, 0.95, size=int(own_rows.sum()))
        z1 = rng.uniform(0.01, 0.04, size=int(own_rows.sum()))
        archive[own_rows, own] = h
        archive[own_rows, c] = z1
        archive[own_rows, other] = 1 - h - z1
        m = rng.uniform(0.52, 0.55, size=int((~own_rows).sum()))
        z2 = rng.uniform(0.01, 0.04, size=int((~own_rows).sum()))
        archive[~own_rows, own] = m
        archive[~own_rows, c] = z2
        archive[~own_rows, other] = 1 - m - z2
        return archive

    archives = [specialist(a, b), specialist(b, a)]
    for _ in range(rng.integers(0, 3)):
        archives.append(_constant_member(rng, n, int(rng.choice([a, b, c]))))
    return y, archives


def _dominant_instance(rng):
    counts = 3 + rng.multinomial(int(rng.integers(15, 52)), [1 / 3] * 3)
    y = rng.permutation(np.repeat(np.arange(3), counts))
    n = len(y)
    perfect = np.zeros((n, 3))
    p = rng.uniform(0.55, 0.95, size=n)
    f = rng.uniform(0.25, 0.75, size=n)
    for i in range(n):
        others = [cl for cl in range(3) if cl != y[i]]
        perfect[i, y[i]] = p[i]
        perfect[i, others[0]] = (1 - p[i]) * f[i]
        perfect[i, others[1]] = (1 - p[i]) * (1 - f[i])
    archives = [perfect]
    alpha = rng.uniform(0.3, 3.0, size=3)
    for _ in range(rng.integers(1, 4)):
        archives.append(rng.dirichlet(alpha, size=n))
    return y, archives


def _frozen_leaderboard(seed):
    rng = np.random.default_rng(seed)
    y, archives = (_dominant_instance if seed % 2 == 0 else _specialists_instance)(rng)
    entries = [_entry(archive, y, i) for i, archive in enumerate(archives)]
    entries.sort(key=lambda e: (-e.score, e.index))
    size = int(rng.integers(1, 6))
    return Leaderboard(entries=entries, y=y, fingerprint="oracle"), size


def _bruteforce_best_score(lb, size):
    best = -1.0
    for combo in itertools.combinations_with_replacement(range(len(lb.entries)), size):
        total = sum(lb.entries[p].oof for p in combo)
        best = max(best, weighted_f1_labels(lb.y, np.argmax(total, axis=1)))
    return best


def test_07_greedy_selection_matches_bruteforce_on_frozen_leaderboards():
    for seed in range(60):
        lb, size = _frozen_leaderboard(seed)
        assert len(lb.entries) <= 4 and size <= 5
        selection = ensemble_select(lb, size=size)
        np.testing.assert_allclose(
            selection.oof_score,
            _bruteforce_best_score(lb, size),
            rtol=0,
            atol=1e-12,
            err_msg=f"greedy != brute force at seed {seed}",
        )
        trajectory = selection.oof_trajectory
        assert len(trajectory) == size
        assert all(
            later >= earlier - 1e-12
            for earlier, later in zip(trajectory, trajectory[1:])
        ), f"score trajectory drops at seed {seed}: {trajectory}"
        assert sum(m for _, m in selection.members) == size


def test_08_smote_balances_classes_inside_bounding_boxes():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        counts = rng.integers(3, 15, size=3)
        counts[int(rng.integers(0, 3))] += int(rng.integers(10, 25))  # force imbalance
        y = np.repeat(np.arange(3), counts)
        X = np.zeros((len(y), 4))
        for c in range(3):
            rows = y == c
            center = rng.uniform(-5, 5, size=4)
            X[rows] = center + rng.uniform(-1, 1, size=(int(rows.sum()), 4))
        fm = FeatureMatrix(
            X=sp.csr_matrix(X), y=y.copy(), fingerprint="smote", scheme="count_x_weight"
        )
        X_before = fm.X.toarray().copy()

        out = smote_oversample(fm, k=5, seed=seed)

        np.testing.assert_array_equal(fm.X.toarray(), X_before)  # input unmutated
        np.testing.assert_array_equal(fm.y, y)
        n = len(y)
        dense = out.X.toarray()
        np.testing.assert_array_equal(dense[:n], X_before)  # originals verbatim
        np.testing.assert_array_equal(out.y[:n], y)
        balanced = Counter(out.y.tolist())
        assert set(balanced.values()) == {int(counts.max())}
        for c in range(3):
            lo = X[y == c].min(axis=0) - 1e-12
            hi = X[y == c].max(axis=0) + 1e-12
            synth = dense[n:][out.y[n:] == c]
            assert np.all(synth >= lo) and np.all(synth <= hi), f"seed {seed} class {c}"


# ---------------------------------------------------------------------------
# end-to-end planted-vocabulary runs

_PLANTED_TOKEN = {"positive": "stellar", "neutral": "routine", "negative": "dreadful"}
_NOISE_POOL = (
    "app", "phone", "screen", "menu", "button", "page", "update", "account",
    "photo", "file", "list", "view", "window", "search", "widget", "profile",
    "setting", "message", "signal", "batch", "cache", "panel", "field", "form",
    "icon", "label", "modal", "popup", "query", "tab",
)


def _planted_documents(counts, seed):
    """Docs of shared noise words; the label is determined by one planted token."""
    rng = np.random.default_rng(seed)
    documents = []
    for label, n in zip(LABELS, counts):
        for _ in range(n):
            tokens = list(rng.choice(_NOISE_POOL, size=7))
            tokens.insert(int(rng.integers(0, 8)), _PLANTED_TOKEN[label])
            documents.append(
                LabeledDocument(doc_id=len(documents), text=" ".join(tokens), label=label)
            )
    return documents


@pytest.mark.slow
def test_09_planted_signal_recovered_end_to_end():
    ds = LabeledDataset(
        name="planted-600", documents=tuple(_planted_documents((300, 200, 100), seed=99))
    )
    assert len(ds) == 600
    cfg = RunConfig(
        rounds=10,
        test_fraction=0.1,
        seed=2026,
        use_stopwords=False,
        max_n=2,
        min_freq=2,
        smote=True,
        smote_k=5,
        folds=5,
        max_candidates=20,
        ensemble_size=10,
        top_ngrams=10,
    )
    started = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(ds, cfg)
    elapsed = time.monotonic() - started

    payload = report.payload
    assert all(r["candidates_evaluated"] == 20 for r in payload["rounds"])
    score = payload["averaged"]["weighted_f1_mean"]
    assert score >= 0.90, f"averaged weighted F1 {score:.3f} below 0.90"
    for label in LABELS:
        top = payload["top_ngrams"][label]
        assert top and top[0] == _PLANTED_TOKEN[label], (
            f"{label}: expected {_PLANTED_TOKEN[label]!r} first, got {top[:3]}"
        )
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.1f}s"


def test_10_identical_evaluate_runs_are_byte_identical(tmp_path):
    data = tmp_path / "reviews.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for doc in _planted_documents((10, 8, 8), seed=17):
            writer.writerow([doc.text, doc.label])

    outputs = []
    for run_dir in ("a", "b"):
        argv = [
            "evaluate",
            "--data", str(data),
            "--no-stopwords",
            "--max-n", "1",
            "--folds", "3",
            "--max-candidates", "4",
            "--ensemble-size", "3",
            "--rounds", "2",
            "--test-fraction", "0.25",
            "--seed", "21",
            "--out-dir", str(tmp_path / run_dir),
        ]
        with redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 0
        outputs.append((tmp_path / run_dir / "report.json").read_bytes())
    assert outputs[0] == outputs[1]


_BENCHMARK_ENV = "SENTIGRAM_BENCHMARK_DATA"
_BENCHMARK_EXPECTED = {
    "stackoverflow.csv": {"positive": 178, "neutral": 1191, "negative": 131},
    "appreviews.csv": {"positive": 186, "neutral": 25, "negative": 130},
    "jira.csv": {"positive": 290, "neutral": 0, "negative": 636},
}


def test_11_external_benchmark_replication_when_data_present():
    root = os.environ.get(_BENCHMARK_ENV)
    if not root:
        pytest.skip(f"set ${_BENCHMARK_ENV} to a directory with the benchmark CSVs to enable")
    root = Path(root)
    missing = [name for name in _BENCHMARK_EXPECTED if not (root / name).exists()]
    if missing:
        pytest.skip(f"benchmark CSVs missing from {root}: {missing}")

    datasets = {}
    for name, expected in _BENCHMARK_EXPECTED.items():
        ds = load_dataset(root / name)
        assert class_distribution(ds) == expected, name
        datasets[name] = ds

    jira = datasets["jira.csv"]
    cfg = RunConfig(rounds=10, test_fraction=0.1, seed=7, max_candidates=200)
    report = run_experiment(jira, cfg)
    table = report.render_table()
    neutral_row = next(
        line for line in table.splitlines() if line.strip().startswith("neutral")
    )
    assert neutral_row.count("-") >= 3  # class absent from the corpus
    averaged = report.payload["averaged"]["per_class"]
    assert abs(averaged["positive"]["f1"] - 0.893) <= 0.10
    assert abs(averaged["negative"]["f1"] - 0.956) <= 0.10
