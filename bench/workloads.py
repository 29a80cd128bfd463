"""Seeded corpus generators for the benchmark workloads.

Two generators, both pure functions of their seed:

  * ``planted_documents`` reproduces the planted-vocabulary corpus of the
    end-to-end acceptance test (``tests/test_acceptance.py::_planted_documents``)
    draw for draw: seven shared noise words plus one class-defining token.
  * ``se_like_documents`` shapes sentences like software-engineering Q&A text:
    a Zipf(1.1) vocabulary of about 4000 words (function words at the top
    ranks, so the builtin stop list has work to do), 8-40 tokens per document,
    and multiword expressions of 2-8 tokens spliced in, some shared by every
    class and some specific to one. Class shares default to 12/79/9
    (positive/neutral/negative), the StackOverflow skew.

The lexicon and the expression inventory are fixed; only the documents
depend on the seed.
"""

from __future__ import annotations

from functools import cache

import numpy as np

LABELS = ("positive", "neutral", "negative")

# -- planted corpus (mirrors the acceptance test exactly) --------------------

PLANTED_TOKEN = {"positive": "stellar", "neutral": "routine", "negative": "dreadful"}
_NOISE_POOL = (
    "app", "phone", "screen", "menu", "button", "page", "update", "account",
    "photo", "file", "list", "view", "window", "search", "widget", "profile",
    "setting", "message", "signal", "batch", "cache", "panel", "field", "form",
    "icon", "label", "modal", "popup", "query", "tab",
)


def planted_documents(counts, seed):
    """(text, label) pairs: shared noise words plus one planted token per class."""
    rng = np.random.default_rng(seed)
    documents = []
    for label, n in zip(LABELS, counts):
        for _ in range(n):
            tokens = list(rng.choice(_NOISE_POOL, size=7))
            tokens.insert(int(rng.integers(0, 8)), PLANTED_TOKEN[label])
            documents.append((" ".join(tokens), label))
    return documents


# -- software-engineering-like corpus ----------------------------------------

_FUNCTION_WORDS = (
    "the", "i", "to", "a", "it", "is", "and", "this", "in", "of", "you", "that",
    "for", "with", "on", "my", "but", "not", "be", "have", "can", "do", "if",
    "when", "so", "are", "was", "just", "what", "there", "an", "or", "at", "as",
    "from", "all", "me", "your", "about", "how",
)
_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "cl", "dr", "fl", "gr", "pl", "pr", "sk",
           "sl", "st", "tr", "sp")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou", "y")
_CODAS = ("", "", "n", "r", "s", "t", "x", "ck", "ng", "m")

VOCABULARY_SIZE = 4000
ZIPF_EXPONENT = 1.1
SE_CLASS_SHARES = (0.12, 0.79, 0.09)
_SHARED_EXPRESSIONS = 600
_CLASS_EXPRESSIONS = 150


@cache
def _lexicon():
    rng = np.random.default_rng(20190426)
    words = list(_FUNCTION_WORDS)
    seen = set(words)
    while len(words) < VOCABULARY_SIZE:
        syllables = int(rng.integers(1, 4))
        word = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        ) + _CODAS[int(rng.integers(len(_CODAS)))]
        if len(word) >= 3 and word not in seen:
            seen.add(word)
            words.append(word)
    ranks = np.arange(1, VOCABULARY_SIZE + 1, dtype=float)
    weights = ranks**-ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0

    def expression():
        length = int(rng.integers(2, 9))
        # content words from the middle ranks, so expressions are neither
        # stop-listed away nor swamped by the head of the distribution
        return tuple(words[int(i)] for i in rng.integers(60, 1500, size=length))

    shared = [expression() for _ in range(_SHARED_EXPRESSIONS)]
    specific = {label: [expression() for _ in range(_CLASS_EXPRESSIONS)] for label in LABELS}
    return words, cdf, shared, specific


def _class_counts(n_docs, shares=SE_CLASS_SHARES):
    """Per-class document counts for ``shares``; rounding slack goes to the largest class."""
    counts = [int(round(n_docs * s)) for s in shares]
    counts[int(np.argmax(shares))] += n_docs - sum(counts)
    return counts


def se_like_documents(n_docs, seed, shares=SE_CLASS_SHARES):
    """(text, label) pairs; labels in the given shares, order shuffled by the seed."""
    words, cdf, shared, specific = _lexicon()
    rng = np.random.default_rng(seed)
    labels = [label for label, n in zip(LABELS, _class_counts(n_docs, shares)) for _ in range(n)]
    labels = [labels[i] for i in rng.permutation(n_docs)]
    documents = []
    for label in labels:
        length = int(rng.integers(8, 41))
        tokens = [words[int(i)] for i in np.searchsorted(cdf, rng.random(length), side="right")]
        if rng.random() < 0.8:
            _splice(tokens, shared[int(rng.integers(len(shared)))], rng)
        if rng.random() < 0.4:
            _splice(tokens, shared[int(rng.integers(len(shared)))], rng)
        if rng.random() < 0.6:
            own = specific[label]
            _splice(tokens, own[int(rng.integers(len(own)))], rng)
        if rng.random() < 0.1:
            other = specific[LABELS[int(rng.integers(len(LABELS)))]]
            _splice(tokens, other[int(rng.integers(len(other)))], rng)
        text = " ".join(tokens)
        documents.append((text[0].upper() + text[1:] + ".", label))
    return documents


def _splice(tokens, phrase, rng):
    at = int(rng.integers(0, len(tokens) + 1))
    tokens[at:at] = list(phrase)
