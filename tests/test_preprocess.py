"""Character cleaning, tokenization, and stop-word removal behavior."""

import re
import string

import numpy as np
import pytest

from sentigram.preprocess import (
    clean_text,
    load_stoplist,
    preprocess,
    remove_stopwords,
    tokenize,
)

TOKEN_RE = re.compile(r"^[a-z0-9]+$")


def random_raw_strings(rng, count=200, max_len=40):
    """Raw strings mixing letters, digits, punctuation, and non-ASCII."""
    alphabet = string.ascii_letters + string.digits + string.punctuation + " \t\n" + "éßλ漢"
    out = []
    for _ in range(count):
        n = int(rng.integers(0, max_len))
        out.append("".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n)))
    return out


class TestCleanText:
    def test_each_non_alphanumeric_becomes_one_space(self):
        assert clean_text("a.b") == "a b"
        assert clean_text("doesn't") == "doesn t"
        assert clean_text("@#$%") == "    "

    def test_alphanumerics_pass_through(self):
        assert clean_text("abc123") == "abc123"

    def test_output_alphabet(self):
        rng = np.random.default_rng(7)
        for raw in random_raw_strings(rng):
            cleaned = clean_text(raw)
            assert all(ch.isascii() and (ch.isalnum() or ch == " ") for ch in cleaned)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for raw in random_raw_strings(rng):
            once = clean_text(raw)
            assert clean_text(once) == once

    def test_non_ascii_letters_removed(self):
        assert tokenize(clean_text("café")) == ["caf"]

    def test_equals_the_regex_it_replaced(self):
        # one space per code point: fullwidth digits, combining marks, lone
        # surrogates, astral characters, NUL and other control characters
        tricky = "１２Ａｚ\u0301\u0308\ud800\udfff\U0001f600\x00\x01\x1f\x7f\x80\xa0\xff\u2028"
        alphabet = string.printable + tricky + "éßλ漢"
        rng = np.random.default_rng(11)
        for n in range(300):
            raw = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n % 60))
            assert clean_text(raw) == re.sub(r"[^A-Za-z0-9]", " ", raw), repr(raw)
        assert clean_text(tricky) == " " * len(tricky)
        every_byte = "".join(map(chr, range(256)))
        assert clean_text(every_byte) == re.sub(r"[^A-Za-z0-9]", " ", every_byte)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Does N T Work") == ["does", "n", "t", "work"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_space_runs_collapse(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_tokens_match_closed_alphabet(self):
        rng = np.random.default_rng(9)
        for raw in random_raw_strings(rng):
            for token in tokenize(clean_text(raw)):
                assert TOKEN_RE.match(token), token


class TestRemoveStopwords:
    def test_drops_listed_tokens(self):
        sl = frozenset({"this", "is"})
        assert remove_stopwords(["this", "is", "awesome"], sl) == ["awesome"]

    def test_empty_input(self):
        sl = frozenset({"a"})
        assert remove_stopwords([], sl) == []

    def test_identity_when_no_match(self):
        sl = frozenset({"the"})
        assert remove_stopwords(["bug"], sl) == ["bug"]

    def test_output_is_subsequence_of_input(self):
        rng = np.random.default_rng(10)
        vocab = [f"w{i}" for i in range(12)]
        sl = frozenset(vocab[:4])
        for _ in range(100):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 20))]
            survivors = remove_stopwords(tokens, sl)
            it = iter(tokens)
            assert all(s in it for s in survivors)  # order-preserving subsequence
            assert not set(survivors) & sl


class TestLoadStoplist:
    def test_builtin_list(self):
        sl = load_stoplist()
        assert len(sl) > 50
        assert {"the", "is", "a", "of"} <= sl
        assert all(w == w.lower() and w for w in sl)

    def test_contraction_stems_present(self):
        # character cleaning splits "doesn't" into [doesn, t]; the bare stem
        # must be removable like any other function word
        sl = load_stoplist()
        assert "t" in sl
        assert "s" in sl

    def test_custom_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# a comment\nFoo\n\nbar # trailing\n", encoding="utf-8")
        sl = load_stoplist(path)
        assert sl == frozenset({"foo", "bar"})

    def test_a_file_that_is_not_utf8_is_refused_naming_it(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes("caf\xe9\nthe\n".encode("latin-1"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text: .*0xe9"):
            load_stoplist(path)


class TestPreprocessPipeline:
    def test_full_pipeline(self):
        sl = frozenset({"t", "does"})
        assert preprocess("Doesn't WORK!", sl) == ["doesn", "work"]

    def test_without_stoplist_keeps_everything(self):
        assert preprocess("The app is great") == ["the", "app", "is", "great"]

    def test_punctuation_only_input(self):
        assert preprocess(":-) !!") == []

    def test_deterministic(self):
        sl = load_stoplist()
        raw = "This release FIXES the crash (#123), thanks!"
        assert preprocess(raw, sl) == preprocess(raw, sl)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
