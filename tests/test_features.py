"""Vectorization against a fixed dictionary and SMOTE oversampling behavior."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from sentigram.features import (
    SCHEMES,
    FeatureMatrix,
    _knn_indices,
    smote_oversample,
    vectorize,
)
from sentigram.ngrams import build_dictionary, export_dictionary, import_dictionary


def toy_dictionary():
    docs = [["good", "work"], ["good", "work"], ["not", "good"], ["work"]]
    return build_dictionary(docs, max_n=2, min_freq=2), docs


def naive_phrase_count(tokens, phrase):
    n = len(phrase)
    return sum(1 for i in range(len(tokens) - n + 1) if tuple(tokens[i : i + n]) == phrase)


def random_matrix(rng, counts, n_features=6):
    """Labeled FeatureMatrix with the given per-class row counts."""
    rows = []
    labels = []
    for class_id, count in counts.items():
        center = rng.normal(3.0 * class_id, 0.5, size=n_features)
        for _ in range(count):
            row = center + rng.normal(0, 0.3, size=n_features)
            row[rng.random(n_features) < 0.4] = 0.0  # keep it sparse-ish
            rows.append(row)
            labels.append(class_id)
    X = sp.csr_matrix(np.asarray(rows))
    return FeatureMatrix(
        X=X, y=np.asarray(labels, dtype=np.int64), fingerprint="fp", scheme="count"
    )


def csr_fixture(rng, counts, n_features=12, density=0.3):
    """Labeled sparse FeatureMatrix whose rows exercise the sparse SMOTE path:
    negative values, all-zero rows, and the smallest subnormal in one column,
    where interpolating toward a row without it cancels to an exact 0 for
    every lam above one half."""
    blocks, labels = [], []
    for class_id, count in counts.items():
        dense = rng.normal(0.0, 2.0, size=(count, n_features))
        dense[rng.random(dense.shape) > density] = 0.0
        dense[rng.random(count) < 0.2] = 0.0  # all-zero member rows
        dense[rng.random(count) < 0.5, 0] = 5e-324
        blocks.append(dense)
        labels += [class_id] * count
    return FeatureMatrix(
        X=sp.csr_matrix(np.vstack(blocks)),
        y=np.asarray(labels, dtype=np.int64),
        fingerprint="fp",
        scheme="count_x_weight",
    )


def reference_vectorize(token_docs, dictionary, scheme):
    """Naive per-phrase counts over every column, scaled entry by entry, exact
    zeros dropped."""
    indptr, indices, data = [0], [], []
    for tokens in token_docs:
        for col, phrase in enumerate(dictionary.feature_order):
            count = naive_phrase_count(tokens, phrase)
            if not count:
                continue
            value = 1.0 if scheme == "binary_x_weight" else float(count)
            if scheme != "count":
                value *= dictionary.entries[phrase].weight
            if value != 0.0:
                indices.append(col)
                data.append(value)
        indptr.append(len(indices))
    return np.asarray(data), np.asarray(indices), np.asarray(indptr)


def reference_smote(fm, k, seed):
    """The dense SMOTE smote_oversample replaced: dense class rows, dense
    distances and one dense synthetic row at a time."""
    rng = np.random.default_rng(seed)
    y = fm.y
    class_ids, counts = np.unique(y, return_counts=True)
    blocks, labels = [fm.X], [y]
    for class_id, count in zip(class_ids, counts):
        need = int(counts.max()) - int(count)
        if need == 0 or count == 1:
            continue
        dense = fm.X[np.nonzero(y == class_id)[0]].toarray()
        k_eff = min(k, len(dense) - 1)
        sq = np.sum(dense * dense, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (dense @ dense.T)
        np.fill_diagonal(d2, np.inf)
        neighbours = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
        base = rng.integers(0, len(dense), size=need)
        pick = rng.integers(0, k_eff, size=need)
        lam = rng.random(need)
        synthetic = np.empty((need, dense.shape[1]))
        for j in range(need):
            x_i = dense[base[j]]
            x_nn = dense[neighbours[base[j], pick[j]]]
            synthetic[j] = x_i + lam[j] * (x_nn - x_i)
        blocks.append(sp.csr_matrix(synthetic))
        labels.append(np.full(need, class_id, dtype=np.int64))
    X = sp.vstack(blocks, format="csr")
    X.eliminate_zeros()
    return X, np.concatenate(labels)


class TestVectorize:
    def test_counts_times_weights(self):
        d, docs = toy_dictionary()
        X = vectorize(docs, d, "count_x_weight")
        assert X.shape == (4, len(d.feature_order))
        dense = X.toarray()
        for row, tokens in enumerate(docs):
            for col, phrase in enumerate(d.feature_order):
                expected = naive_phrase_count(tokens, phrase) * d.entries[phrase].weight
                assert dense[row, col] == pytest.approx(expected, abs=1e-12)

    def test_binary_scheme_ignores_multiplicity(self):
        docs = [["a", "a", "a"], ["a", "a", "a"]]
        d = build_dictionary(docs, max_n=2, min_freq=2)
        col_a = d.feature_index[("a",)]
        counts = vectorize(docs, d, "count").toarray()
        binary = vectorize(docs, d, "binary_x_weight").toarray()
        assert counts[0, col_a] == 3.0
        assert counts[0, d.feature_index[("a", "a")]] == 2.0  # overlaps counted
        assert binary[0, col_a] == pytest.approx(d.entries[("a",)].weight)

    def test_out_of_dictionary_tokens_ignored(self):
        d, _ = toy_dictionary()
        X = vectorize([["unseen", "tokens", "only"]], d, "count")
        assert X.nnz == 0
        assert X.shape == (1, len(d.feature_order))

    def test_rows_follow_input_order(self):
        d, _ = toy_dictionary()
        X = vectorize([["work"], [], ["good"]], d, "count").toarray()
        assert X[0, d.feature_index[("work",)]] == 1.0
        assert not X[1].any()
        assert X[2, d.feature_index[("good",)]] == 1.0

    def test_unknown_scheme_rejected(self):
        d, docs = toy_dictionary()
        with pytest.raises(ValueError, match="scheme"):
            vectorize(docs, d, "tfidf")

    def test_matches_naive_matching_on_random_corpora(self):
        rng = np.random.default_rng(31)
        vocab = [f"t{i}" for i in range(5)]
        for _ in range(10):
            docs = [
                [vocab[i] for i in rng.integers(0, 5, size=rng.integers(1, 15))]
                for _ in range(12)
            ]
            d = build_dictionary(docs, max_n=3, min_freq=2)
            dense = vectorize(docs, d, "count").toarray()
            for row, tokens in enumerate(docs):
                for phrase, col in d.feature_index.items():
                    assert dense[row, col] == naive_phrase_count(tokens, phrase)

    def test_equals_the_reference_loop_under_every_scheme(self):
        rng = np.random.default_rng(42)
        vocab = [f"t{i}" for i in range(6)]
        for _ in range(8):
            docs = [
                ["every"] + [vocab[i] for i in rng.integers(0, 6, size=rng.integers(0, 18))]
                for _ in range(15)
            ]
            d = build_dictionary(docs, max_n=4, min_freq=2)
            assert d.entries[("every",)].weight == 0.0  # its entries must be dropped
            for scheme in SCHEMES:
                X = vectorize(docs, d, scheme)
                data, indices, indptr = reference_vectorize(docs, d, scheme)
                np.testing.assert_array_equal(X.data, data)
                np.testing.assert_array_equal(X.indices, indices)
                np.testing.assert_array_equal(X.indptr, indptr)
                assert X.shape == (len(docs), len(d))


def assert_same_csr(X, data, indices, indptr):
    np.testing.assert_array_equal(X.data, data)
    np.testing.assert_array_equal(X.indices, indices)
    np.testing.assert_array_equal(X.indptr, indptr)


def built_and_reimported(docs, tmp_path, **kw):
    d = build_dictionary(docs, **kw)
    path = tmp_path / "dictionary.tsv"
    export_dictionary(d, path)
    return d, import_dictionary(path)


class TestBatchCounting:
    """A batch is counted in array passes over integer ids, one document by
    the walk; both must give the reference's matrix bit for bit."""

    def _assert_paths_agree(self, docs, d):
        for scheme in SCHEMES:
            reference = reference_vectorize(docs, d, scheme)
            batch = vectorize(docs, d, scheme)
            assert batch.shape == (len(docs), len(d))
            assert_same_csr(batch, *reference)
            if docs:
                singles = sp.vstack([vectorize([doc], d, scheme) for doc in docs], format="csr")
                assert_same_csr(singles, *reference)

    def test_random_corpora_with_built_and_reimported_dictionaries(self, tmp_path):
        rng = np.random.default_rng(17)
        vocab = [f"t{i}" for i in range(7)]
        for max_n in (1, 3, 10):
            docs = [
                [vocab[i] for i in rng.integers(0, 7, size=rng.integers(0, 25))]
                for _ in range(20)
            ]
            docs[3] = []  # empty
            docs[7] = ["unseen", "words"]  # unknown tokens only
            held_out = [
                [vocab[i] for i in rng.integers(0, 7, size=rng.integers(0, 25))] + ["unseen"]
                for _ in range(10)
            ]
            for d in built_and_reimported(docs, tmp_path, max_n=max_n, min_freq=2):
                self._assert_paths_agree(docs, d)
                self._assert_paths_agree(held_out, d)

    def test_long_repeats_at_max_n_ten(self, tmp_path):
        # runs of one token overlap themselves at every length up to max_n
        docs = [["a"] * 14, ["a"] * 9 + ["b"], ["b", "a", "a", "a"], ["a"] * 12]
        for d in built_and_reimported(docs, tmp_path, max_n=10, min_freq=2):
            assert max(map(len, d.entries)) == 10
            self._assert_paths_agree(docs, d)
            self._assert_paths_agree([["a"] * 30, [], ["a"]], d)

    def test_windows_end_at_their_document(self):
        d = build_dictionary([["x", "y", "z"], ["x", "y", "z"]], max_n=3, min_freq=2)
        # "x y z" occurs only if counted across the two documents' boundary
        docs = [["x"], ["y", "z"], ["x", "y"], ["z"], [], ["x", "y", "z"]]
        X = vectorize(docs, d, "count")
        assert X[:, d.feature_index[("x", "y", "z")]].toarray().ravel().tolist() == [
            0, 0, 0, 0, 0, 1
        ]
        self._assert_paths_agree(docs, d)

    def test_reimported_dictionary_without_suffix_unigrams(self, tmp_path):
        # prefix-closed, but "y" and "z" have no line of their own: only the
        # prefix column leads to them
        path = tmp_path / "dictionary.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\n"
            "x\t1\t4\t3\t3\t0.5\n"
            "x y\t2\t3\t2\t3\t1.25\n"
            "x y z\t3\t2\t2\t2\t-0.75\n",
            encoding="utf-8",
        )
        d = import_dictionary(path)
        docs = [["y", "x", "y", "z"], ["y", "z"], ["x", "x", "y"], ["z", "x"]]
        self._assert_paths_agree(docs, d)
        assert vectorize(docs, d, "count").sum(axis=1).A1.tolist() == [3, 0, 3, 1]

    def test_empty_batch_and_zero_phrase_dictionary(self):
        d, docs = toy_dictionary()
        empty = vectorize([], d, "count")
        assert empty.shape == (0, len(d)) and empty.indptr.tolist() == [0]
        nothing = build_dictionary(docs, max_n=2, min_freq=99)
        assert len(nothing) == 0
        self._assert_paths_agree(docs, nothing)
        assert vectorize(docs, nothing).shape == (len(docs), 0)
        assert vectorize([], nothing).shape == (0, 0)

    def test_counts_arrays_are_sorted_by_row_then_column(self):
        d, docs = toy_dictionary()
        rows, cols, counts = d.batch_phrase_counts(docs + [["work", "good", "work"]])
        cells = list(zip(rows.tolist(), cols.tolist()))
        assert cells == sorted(set(cells))
        for row, tokens in enumerate(docs):
            walked = d.phrase_counts(tokens)
            mine = {c: n for r, c, n in zip(rows, cols, counts) if r == row}
            assert mine == walked


class TestFeatureMatrix:
    def test_subset_slices_rows_and_labels(self):
        d, docs = toy_dictionary()
        X = vectorize(docs, d, "count")
        fm = FeatureMatrix(X=X, y=np.asarray([0, 1, 2, 0]), fingerprint=d.fingerprint, scheme="count")
        sub = fm.subset([2, 0])
        np.testing.assert_array_equal(sub.y, [2, 0])
        np.testing.assert_array_equal(sub.X.toarray(), X.toarray()[[2, 0]])
        assert sub.fingerprint == fm.fingerprint and sub.scheme == fm.scheme
        unlabeled = FeatureMatrix(X=X, y=None, fingerprint=d.fingerprint, scheme="count")
        assert unlabeled.subset([1]).y is None


class TestKnnIndices:
    def test_self_excluded_and_sorted_by_distance(self):
        members = sp.csr_matrix([[0.0], [1.0], [3.0]])
        nn = _knn_indices(members, k=2)
        np.testing.assert_array_equal(nn[0], [1, 2])
        np.testing.assert_array_equal(nn[1], [0, 2])
        np.testing.assert_array_equal(nn[2], [1, 0])

    def test_distance_ties_resolve_to_lower_index(self):
        members = sp.csr_matrix([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])  # 1 and 2 tie from 0
        nn = _knn_indices(members, k=2)
        np.testing.assert_array_equal(nn[0], [1, 2])
        # 40 equal rows: long enough that an unstable sort would reorder the ties
        members = sp.csr_matrix(np.vstack([np.zeros((1, 3)), np.tile([1.0, 2.0, 0.0], (40, 1))]))
        nn = _knn_indices(members, k=40)
        np.testing.assert_array_equal(nn[0], np.arange(1, 41))
        np.testing.assert_array_equal(nn[5], [*range(1, 5), *range(6, 41), 0])


class TestSmote:
    def test_balances_to_majority_count(self):
        rng = np.random.default_rng(32)
        fm = random_matrix(rng, {0: 12, 1: 5, 2: 3})
        out = smote_oversample(fm, k=2, seed=0)
        _, counts = np.unique(out.y, return_counts=True)
        assert counts.tolist() == [12, 12, 12]
        assert out.fingerprint == fm.fingerprint and out.scheme == fm.scheme

    def test_originals_preserved_verbatim_and_input_unmutated(self):
        rng = np.random.default_rng(33)
        fm = random_matrix(rng, {0: 10, 1: 4})
        before = fm.X.toarray().copy()
        y_before = fm.y.copy()
        out = smote_oversample(fm, k=3, seed=1)
        np.testing.assert_array_equal(fm.X.toarray(), before)  # no mutation
        np.testing.assert_array_equal(fm.y, y_before)
        np.testing.assert_array_equal(out.X.toarray()[: len(before)], before)
        np.testing.assert_array_equal(out.y[: len(before)], y_before)

    def test_synthetic_rows_stay_in_class_bounding_box(self):
        rng = np.random.default_rng(34)
        for seed in range(10):
            fm = random_matrix(rng, {0: 9, 1: 4, 2: 6})
            out = smote_oversample(fm, k=3, seed=seed)
            n_orig = fm.n_documents
            dense = out.X.toarray()
            for class_id in (1, 2):
                originals = fm.X.toarray()[fm.y == class_id]
                lo, hi = originals.min(axis=0), originals.max(axis=0)
                synthetic = dense[n_orig:][out.y[n_orig:] == class_id]
                assert len(synthetic)
                assert np.all(synthetic >= lo - 1e-9)
                assert np.all(synthetic <= hi + 1e-9)

    def test_synthetic_rows_lie_on_segments_between_parents(self):
        # 2 features keep the geometry checkable: each synthetic point must be
        # collinear with (and between) some pair of same-class originals
        rng = np.random.default_rng(35)
        fm = random_matrix(rng, {0: 8, 1: 3}, n_features=2)
        out = smote_oversample(fm, k=2, seed=7)
        originals = fm.X.toarray()[fm.y == 1]
        synthetic = out.X.toarray()[fm.n_documents :]
        for s in synthetic:
            on_some_segment = False
            for i in range(len(originals)):
                for j in range(len(originals)):
                    if i == j:
                        continue
                    a, b = originals[i], originals[j]
                    span = b - a
                    denom = float(span @ span)
                    if denom == 0.0:
                        continue
                    lam = float((s - a) @ span) / denom
                    if -1e-9 <= lam <= 1 + 1e-9 and np.allclose(a + lam * span, s, atol=1e-9):
                        on_some_segment = True
            assert on_some_segment, s

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(36)
        fm = random_matrix(rng, {0: 10, 1: 4})
        a = smote_oversample(fm, k=2, seed=5)
        b = smote_oversample(fm, k=2, seed=5)
        assert (a.X != b.X).nnz == 0
        np.testing.assert_array_equal(a.y, b.y)
        c = smote_oversample(fm, k=2, seed=6)
        assert (a.X != c.X).nnz != 0

    def test_balanced_input_is_returned_unchanged(self):
        rng = np.random.default_rng(37)
        fm = random_matrix(rng, {0: 6, 1: 6})
        out = smote_oversample(fm, k=2, seed=0)
        assert out.n_documents == fm.n_documents
        assert (out.X != fm.X).nnz == 0

    def test_k_shrinks_to_class_size_minus_one(self):
        rng = np.random.default_rng(38)
        fm = random_matrix(rng, {0: 9, 1: 2})  # k_eff = 1 for class 1
        out = smote_oversample(fm, k=5, seed=0)
        assert (out.y == 1).sum() == 9

    def test_single_member_class_warns_and_keeps_its_row(self):
        rng = np.random.default_rng(39)
        fm = random_matrix(rng, {0: 5, 1: 1, 2: 3})
        with pytest.warns(RuntimeWarning, match="class 1 has a single member"):
            out = smote_oversample(fm, k=3, seed=0)
        np.testing.assert_array_equal(np.bincount(out.y), [5, 1, 5])
        assert (out.X[: fm.n_documents] != fm.X).nnz == 0
        # the skipped class draws nothing, so the other classes' rows are
        # those of the same input without it
        keep = fm.y != 1
        rest = smote_oversample(fm.subset(np.nonzero(keep)[0]), k=3, seed=0)
        assert (out.X[fm.n_documents :] != rest.X[keep.sum() :]).nnz == 0

    def test_argument_validation(self):
        rng = np.random.default_rng(40)
        fm = random_matrix(rng, {0: 5, 1: 3})
        with pytest.raises(ValueError, match="k must be"):
            smote_oversample(fm, k=0, seed=0)
        unlabeled = FeatureMatrix(X=fm.X, y=None, fingerprint="fp", scheme="count")
        with pytest.raises(ValueError, match="labels"):
            smote_oversample(unlabeled, k=2, seed=0)

    def test_equals_the_dense_reference(self):
        rng = np.random.default_rng(43)
        cases = [
            ({0: 20, 1: 7, 2: 4}, 5),
            ({0: 9, 1: 3, 2: 2}, 5),  # k at least the class size
            ({0: 6, 1: 1, 2: 4}, 3),  # a single-member class
            ({0: 30, 1: 12}, 1),
        ]
        cancelled = 0
        for trial in range(6):
            for counts, k in cases:
                fm = csr_fixture(rng, counts)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    out = smote_oversample(fm, k=k, seed=trial)
                    X, y = reference_smote(fm, k, trial)
                np.testing.assert_array_equal(out.X.data, X.data)
                np.testing.assert_array_equal(out.X.indices, X.indices)
                np.testing.assert_array_equal(out.X.indptr, X.indptr)
                np.testing.assert_array_equal(out.y, y)
                assert out.X.shape == X.shape
                synthetic = out.X[fm.n_documents :]
                cancelled += synthetic.shape[0] - synthetic[:, 0].nnz
        assert cancelled  # some interpolants cancelled to an exact 0 and were dropped

    def test_builds_no_dense_block(self):
        # 400 rows x 50k columns, about 20 stored values a row: the dense
        # (need, F) block of the 100 synthetic rows would be 40 MB
        rng = np.random.default_rng(44)
        n_rows, n_features = 400, 50_000
        X = sp.random(n_rows, n_features, density=20 / n_features, format="csr", random_state=rng)
        y = np.asarray([0] * 250 + [1] * 150, dtype=np.int64)
        fm = FeatureMatrix(X=X, y=y, fingerprint="fp", scheme="count")
        dense_block = 100 * n_features * 8
        tracemalloc.start()
        try:
            out = smote_oversample(fm, k=5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.n_documents == 500
        assert peak < 0.05 * dense_block, peak

    def test_no_stored_zeros_in_output(self):
        rng = np.random.default_rng(41)
        fm = random_matrix(rng, {0: 10, 1: 4})
        out = smote_oversample(fm, k=3, seed=2)
        assert np.all(out.X.data != 0.0)


def test_schemes_constant_is_closed():
    assert SCHEMES == ("count_x_weight", "binary_x_weight", "count")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
