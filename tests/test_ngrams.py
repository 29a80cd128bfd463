"""N-gram counting, document-frequency statistics, IDF weighting, TSV round-trip."""

import math
import re
from collections import Counter

import numpy as np
import pytest

from sentigram.features import vectorize
from sentigram.ngrams import (
    MAX_NGRAM_LEN,
    build_dictionary,
    export_dictionary,
    import_dictionary,
    ngram_idf_weight,
)
from sentigram.preprocess import preprocess


# --- independent brute-force oracle (no shared code with the implementation) ---

def oracle_enumerate(tokens, max_n):
    counts = Counter()
    for start in range(len(tokens)):
        for end in range(start + 1, min(start + max_n, len(tokens)) + 1):
            counts[tuple(tokens[start:end])] += 1
    return counts


def oracle_contains_phrase(doc, phrase):
    n = len(phrase)
    return any(tuple(doc[i : i + n]) == phrase for i in range(len(doc) - n + 1))


def oracle_stats(docs, max_n, min_freq):
    """phrase -> (freq, df_phrase, df_terms) over the whole corpus."""
    freq = Counter()
    for doc in docs:
        freq.update(oracle_enumerate(doc, max_n))
    stats = {}
    for phrase, total in freq.items():
        if total < min_freq:
            continue
        dfp = sum(1 for doc in docs if oracle_contains_phrase(doc, phrase))
        dft = sum(1 for doc in docs if set(phrase) <= set(doc))
        stats[phrase] = (total, dfp, dft)
    return stats


def random_corpus(rng, n_docs=30, max_len=20, alphabet=6):
    vocab = [f"t{i}" for i in range(alphabet)]
    return [
        [vocab[i] for i in rng.integers(0, alphabet, size=rng.integers(1, max_len + 1))]
        for _ in range(n_docs)
    ]


class TestNgramIdfWeight:
    def test_hand_values(self):
        assert ngram_idf_weight(2, 2, 4) == pytest.approx(math.log(2.0), abs=1e-15)
        assert ngram_idf_weight(3, 3, 4) == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)
        assert ngram_idf_weight(1, 1, 1) == 0.0

    def test_unigram_reduction(self):
        for n_docs in (1, 3, 10, 500):
            for df in range(1, n_docs + 1):
                assert abs(ngram_idf_weight(df, df, n_docs) - math.log(n_docs / df)) < 1e-12

    def test_monotone_in_df_phrase(self):
        weights = [ngram_idf_weight(dfp, 9, 20) for dfp in range(1, 10)]
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_antitone_in_df_terms(self):
        weights = [ngram_idf_weight(3, dft, 20) for dft in range(3, 21)]
        assert all(b < a for a, b in zip(weights, weights[1:]))

    def test_precondition_violations(self):
        with pytest.raises(AssertionError):
            ngram_idf_weight(0, 1, 4)
        with pytest.raises(AssertionError):
            ngram_idf_weight(3, 2, 4)  # df_phrase > df_terms
        with pytest.raises(AssertionError):
            ngram_idf_weight(2, 5, 4)  # df_terms > corpus size


class TestBuildDictionary:
    def test_small_corpus_by_hand(self):
        docs = [["good", "work"], ["good", "work"], ["not", "good"], ["work"]]
        d = build_dictionary(docs, max_n=2, min_freq=2)
        assert set(d.entries) == {("good",), ("work",), ("good", "work")}
        gw = d.entries[("good", "work")]
        assert (gw.freq, gw.df_phrase, gw.df_terms) == (2, 2, 2)
        assert gw.weight == pytest.approx(math.log(2.0), abs=1e-12)
        good = d.entries[("good",)]
        assert (good.freq, good.df_phrase, good.df_terms) == (3, 3, 3)
        assert good.weight == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_single_doc_repeated_token(self):
        d = build_dictionary([["x", "x"]], max_n=2, min_freq=2)
        assert set(d.entries) == {("x",)}
        assert d.entries[("x",)].freq == 2
        assert d.entries[("x",)].weight == 0.0  # ln(1 * 1 / 1)

    def test_empty_document_is_tolerated(self):
        d = build_dictionary([[], ["a", "a"]], max_n=2, min_freq=2)
        assert set(d.entries) == {("a",)}
        assert d.entries[("a",)].weight == pytest.approx(math.log(2.0), abs=1e-12)

    def _assert_matches_oracle(self, docs, max_n, min_freq, label=""):
        d = build_dictionary(docs, max_n=max_n, min_freq=min_freq)
        expected = oracle_stats(docs, max_n, min_freq)
        assert set(d.entries) == set(expected), label
        for phrase, (freq, dfp, dft) in expected.items():
            e = d.entries[phrase]
            assert (e.freq, e.df_phrase, e.df_terms) == (freq, dfp, dft), (label, phrase)
            assert e.weight == pytest.approx(math.log(len(docs) * dfp / dft**2), abs=1e-12)
        # prefix closure, which phrase lookup relies on, holds by construction
        assert all(p[:-1] in d.entries for p in d.entries if len(p) > 1), label

    def test_matches_bruteforce_oracle_on_random_corpora(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            docs = random_corpus(rng, n_docs=int(rng.integers(5, 31)))
            max_n = int(rng.integers(1, 5))
            min_freq = int(rng.integers(1, 4))
            self._assert_matches_oracle(docs, max_n, min_freq, f"trial {trial}")

    def test_levelwise_counting_matches_oracle_at_every_max_n_and_min_freq(self):
        # level n counts only where both (n-1)-subgrams survived; runs such
        # as [a, a, a, a] overlap themselves and documents shorter than max_n
        # end a level early, so both are mixed into every corpus
        rng = np.random.default_rng(27)
        runs = [["a"] * 4, ["a"] * 7, ["b", "a", "b", "a", "b"], ["a"], []]
        for trial in range(12):
            docs = random_corpus(rng, n_docs=int(rng.integers(4, 16)), max_len=14, alphabet=3)
            docs += [runs[i] for i in rng.permutation(len(runs))[: int(rng.integers(1, 6))]]
            for max_n in range(1, MAX_NGRAM_LEN + 1):
                for min_freq in range(1, 5):
                    self._assert_matches_oracle(
                        docs, max_n, min_freq, f"trial {trial} max_n {max_n} min_freq {min_freq}"
                    )

    def test_three_distinct_tokens(self):
        d = build_dictionary([["a", "b", "c"]], max_n=2, min_freq=1)
        assert {p: e.freq for p, e in d.entries.items()} == {
            ("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): 1, ("b", "c"): 1
        }

    def test_overlapping_occurrences_all_count(self):
        d = build_dictionary([["a", "a", "a"]], max_n=2, min_freq=1)
        assert {p: e.freq for p, e in d.entries.items()} == {("a",): 3, ("a", "a"): 2}
        assert d.entries[("a", "a")].df_phrase == 1

    def test_position_count_formula(self):
        # a length-L doc has L - n + 1 n-gram positions for each n <= L
        tokens = [f"u{i}" for i in range(8)]  # all distinct
        d = build_dictionary([tokens], max_n=3, min_freq=1)
        assert sum(e.freq for e in d.entries.values()) == 8 + 7 + 6

    def test_max_n_bounds(self):
        with pytest.raises(ValueError, match="max_n"):
            build_dictionary([["a"]], max_n=0)
        with pytest.raises(ValueError, match="max_n"):
            build_dictionary([["a"]], max_n=MAX_NGRAM_LEN + 1)

    def test_pruning_never_alters_survivors(self):
        rng = np.random.default_rng(23)
        docs = random_corpus(rng, n_docs=15)
        full = build_dictionary(docs, max_n=3, min_freq=1)
        pruned = build_dictionary(docs, max_n=3, min_freq=3)
        assert set(pruned.entries) <= set(full.entries)
        for phrase, entry in pruned.entries.items():
            assert entry.freq >= 3
            assert entry == full.entries[phrase]

    def test_entry_invariants_hold(self):
        rng = np.random.default_rng(24)
        docs = random_corpus(rng, n_docs=25)
        d = build_dictionary(docs, max_n=4, min_freq=2)
        for e in d.entries.values():
            assert 1 <= e.df_phrase <= e.df_terms <= d.corpus_size
            assert e.freq >= e.df_phrase
            if len(e.phrase) == 1:
                assert e.df_phrase == e.df_terms

    def test_phrase_containment_property(self):
        rng = np.random.default_rng(25)
        docs = random_corpus(rng, n_docs=12, alphabet=4)
        d = build_dictionary(docs, max_n=4, min_freq=1)
        for phrase, entry in d.entries.items():
            for n in range(1, len(phrase)):
                for start in range(len(phrase) - n + 1):
                    sub = phrase[start : start + n]
                    assert entry.df_phrase <= d.entries[sub].df_phrase

    def test_rejects_empty_corpus_and_bad_min_freq(self):
        with pytest.raises(ValueError):
            build_dictionary([])
        with pytest.raises(ValueError):
            build_dictionary([["a"]], min_freq=0)

    def test_all_documents_empty(self):
        d = build_dictionary([[], []])
        assert d.entries == {} and d.corpus_size == 2
        assert vectorize([[], []], d).shape == (2, 0)

    def test_min_freq_above_every_count_keeps_nothing(self):
        d = build_dictionary([["a", "b", "a"], ["a", "b"]], max_n=3, min_freq=4)
        assert d.entries == {} and d.corpus_size == 2

    def test_run_longer_than_max_n(self):
        # a run of 12 copies of one token holds 12 - n + 1 overlapping n-grams,
        # all in one document, whose one distinct term occurs in both
        d = build_dictionary([["a"] * 12, ["b", "a"]], max_n=MAX_NGRAM_LEN, min_freq=2)
        runs = {("a",) * n: (13 - n, 1, 2) for n in range(2, MAX_NGRAM_LEN + 1)}
        assert {p: (e.freq, e.df_phrase, e.df_terms) for p, e in d.entries.items()} == {
            ("a",): (13, 2, 2), **runs
        }

    def test_entries_run_level_by_level_in_order_of_first_occurrence(self):
        # "y z" occurs before "z x" but once, so it is pruned and does not
        # take a place; "x y w" occurs once and ends the count at level 3
        docs = [["x", "y", "z", "x", "y"], ["z", "x", "y", "w"], ["y", "w", "z"]]
        d = build_dictionary(docs, max_n=4, min_freq=2)
        assert list(d.entries) == [
            ("x",), ("y",), ("z",), ("w",),
            ("x", "y"), ("z", "x"), ("y", "w"),
            ("z", "x", "y"),
        ]
        assert [(e.freq, e.df_phrase, e.df_terms) for e in d.entries.values()] == [
            (3, 2, 2), (4, 3, 3), (3, 3, 3), (2, 2, 2), (3, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2)
        ]


class TestDictionaryStructure:
    def test_feature_order_is_sorted_and_indexed(self):
        docs = [["b", "a"], ["b", "a"]]
        d = build_dictionary(docs, max_n=2, min_freq=2)
        assert d.feature_order == tuple(sorted(d.entries))
        assert all(d.feature_order[i] == p for p, i in d.feature_index.items())

    def test_joined_feature_order_is_sorted(self, tmp_path):
        # phrase rankings break ties by column, which must be phrase-string
        # order: preprocessed tokens are [a-z0-9]+, all above the joining space
        texts = ["a b ab", "a b ab", "a1 a b9 a", "a1 a b9 a", "ab a 0", "ab a 0", "b a", "b a"]
        d = build_dictionary([preprocess(t) for t in texts], max_n=4, min_freq=2)
        path = tmp_path / "dict.tsv"
        export_dictionary(d, path)
        for dictionary in (d, import_dictionary(path)):
            joined = [" ".join(p) for p in dictionary.feature_order]
            assert {"a b", "ab", "a1", "a b ab", "ab a", "ab a 0"} <= set(joined)
            assert joined == sorted(joined)

    def test_fingerprint_is_reproducible_and_content_sensitive(self):
        docs = [["a", "b"], ["a", "b"], ["a"]]
        d1 = build_dictionary(docs, max_n=2, min_freq=2)
        d2 = build_dictionary(docs, max_n=2, min_freq=2)
        assert d1.fingerprint == d2.fingerprint
        # the fingerprint hashes content only: settings that keep the same
        # entries keep the same fingerprint
        d3 = build_dictionary(docs, max_n=2, min_freq=1)
        assert d3.entries == d1.entries
        assert d3.fingerprint == d1.fingerprint
        assert build_dictionary(docs, max_n=3, min_freq=2).fingerprint == d1.fingerprint
        d4 = build_dictionary(docs + [["a", "b"]], max_n=2, min_freq=2)
        assert d4.fingerprint != d1.fingerprint
        # here min_freq=1 keeps the singletons "c" and "a c"
        other = [["a", "b"], ["a", "b"], ["a", "c"]]
        pruned = build_dictionary(other, max_n=2, min_freq=2)
        unpruned = build_dictionary(other, max_n=2, min_freq=1)
        assert set(unpruned.entries) - set(pruned.entries) == {("c",), ("a", "c")}
        assert unpruned.fingerprint != pruned.fingerprint


class TestExportImport:
    def _sample_dictionary(self, seed=26):
        rng = np.random.default_rng(seed)
        return build_dictionary(random_corpus(rng, n_docs=20), max_n=3, min_freq=2)

    def test_roundtrip_is_byte_identical(self, tmp_path):
        d = self._sample_dictionary()
        first = tmp_path / "dict.tsv"
        export_dictionary(d, first)
        imported = import_dictionary(first)
        second = tmp_path / "dict2.tsv"
        export_dictionary(imported, second)
        assert first.read_bytes() == second.read_bytes()

    def test_import_leaves_the_build_settings_unset(self, tmp_path):
        # the TSV records no build settings, so none is guessed from its lines
        d = self._sample_dictionary()
        first, second = tmp_path / "dict.tsv", tmp_path / "dict2.tsv"
        export_dictionary(d, first)
        back = import_dictionary(first)
        assert (back.corpus_size, back.max_n, back.min_freq) == (None, None, None)
        export_dictionary(back, second)
        assert second.read_bytes() == first.read_bytes()

    def test_import_preserves_statistics(self, tmp_path):
        d = self._sample_dictionary()
        path = tmp_path / "dict.tsv"
        export_dictionary(d, path)
        back = import_dictionary(path)
        assert back.corpus_size is None
        assert set(back.entries) == set(d.entries)
        for phrase, entry in d.entries.items():
            got = back.entries[phrase]
            assert (got.freq, got.df_phrase, got.df_terms, got.weight) == (
                entry.freq,
                entry.df_phrase,
                entry.df_terms,
                entry.weight,
            )
        assert back.fingerprint == d.fingerprint

    def test_export_sorted_by_weight_then_phrase(self, tmp_path):
        d = self._sample_dictionary()
        path = tmp_path / "dict.tsv"
        export_dictionary(d, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight"
        rows = [line.split("\t") for line in lines[1:]]
        keys = [(-float(r[5]), r[0]) for r in rows]
        assert keys == sorted(keys)
        assert all(int(r[2]) >= 2 for r in rows)  # pruning visible in the artifact

    def test_import_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("phrase\tweight\nx\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            import_dictionary(path)

    def test_import_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\nx\t1\t2\t2\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="line 2"):
            import_dictionary(path)

    def test_import_rejects_phrase_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\na b\t1\t2\t2\t2\t0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="length"):
            import_dictionary(path)

    def test_import_rejects_inconsistent_counts(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\nx\t1\t2\t3\t2\t0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="inconsistent"):
            import_dictionary(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_import_rejects_non_finite_weight(self, tmp_path, weight):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\n"
            f"x\t1\t2\t2\t2\t0.5\ny\t1\t2\t2\t2\t{weight}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="line 3: non-finite weight"):
            import_dictionary(path)

    def test_import_rejects_phrase_without_its_prefix(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\n"
            "a b c\t3\t2\t2\t2\t0.5\na\t1\t2\t2\t2\t0.4\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as excinfo:
            import_dictionary(path)
        assert str(excinfo.value) == (
            f"{path}: line 2: phrase 'a b c' has no line for its prefix 'a b'"
        )

    def test_import_skips_a_byte_order_mark(self, tmp_path):
        d = self._sample_dictionary()
        path = tmp_path / "dict.tsv"
        export_dictionary(d, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = import_dictionary(path)
        assert back.fingerprint == d.fingerprint
        assert set(back.entries) == set(d.entries)

    def test_import_names_the_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "dict.tsv"
        export_dictionary(self._sample_dictionary(), path)
        path.write_bytes(path.read_bytes() + "caf\xe9\t1\t2\t2\t2\t0.5\n".encode("latin-1"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text: .*0xe9"):
            import_dictionary(path)

    @pytest.mark.parametrize(
        "line", ["x\t1\tx\t2\t2\t0.5", "x\t1\t2\t2\t2\theavy"], ids=["count", "weight"]
    )
    def test_import_names_the_file_and_line_of_a_non_numeric_field(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text(
            f"phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\ny\t1\t2\t2\t2\t0.5\n{line}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 3: non-numeric field"):
            import_dictionary(path)

    @pytest.mark.parametrize("bad, token", [("Good!", "Good!"), ("a\x01", "a\x01"), ("a B", "B")])
    def test_import_refuses_tokens_preprocess_cannot_emit(self, tmp_path, bad, token):
        # such a phrase never matches preprocessed text, and its joined form
        # would not sort with the others ("Good!" < "a" < "a b" < "a\x01" as
        # token tuples, not as strings)
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\n"
            f"a\t1\t4\t3\t3\t0.5\n{bad}\t{len(bad.split())}\t2\t2\t2\t0.75\n"
            "a b\t2\t2\t2\t3\t0.25\nb\t1\t2\t2\t2\t0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as excinfo:
            import_dictionary(path)
        assert str(excinfo.value) == f"{path}: line 3: token {token!r} is not [a-z0-9]+"

    def test_import_rejects_duplicate_phrase(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "phrase\tn\tfreq\tdf_phrase\tdf_terms\tweight\n"
            "x\t1\t2\t2\t2\t0.5\nx\t1\t3\t3\t3\t0.4\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            import_dictionary(path)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
