"""N-gram dictionary construction: level-wise counting, document frequencies, IDF weights.

A dictionary is built from a training corpus only. For each surviving phrase g
over a corpus of N documents it records

    freq       total occurrence count (overlapping occurrences all counted),
    df_phrase  documents containing g contiguously at least once,
    df_terms   documents containing all of g's distinct tokens in any order,
    weight     ln(N * df_phrase / df_terms**2).

For unigrams df_phrase == df_terms and the weight reduces to plain IDF,
ln(N / df). Multi-token phrases whose tokens co-occur mostly as that phrase
get weights above their tokens' IDF; token sets that rarely form the phrase
get low or negative weights, which is what demotes non-dominant overlaps.
Phrases occurring fewer than ``min_freq`` times in the whole corpus are
dropped before weighting (default 2: singletons carry no training signal).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_NGRAM_LEN = 10

Phrase = tuple[str, ...]

DICTIONARY_COLUMNS = ("phrase", "n", "freq", "df_phrase", "df_terms", "weight")


def ngram_idf_weight(df_phrase: int, df_terms: int, corpus_size: int) -> float:
    """ln(corpus_size * df_phrase / df_terms**2); natural log throughout."""
    assert 1 <= df_phrase <= df_terms <= corpus_size, (df_phrase, df_terms, corpus_size)
    return math.log(corpus_size * df_phrase / (df_terms * df_terms))


@dataclass(frozen=True)
class NGramEntry:
    phrase: Phrase
    freq: int
    df_phrase: int
    df_terms: int
    weight: float


def _entry_line(entry: NGramEntry) -> str:
    """The entry's TSV line; ``repr`` writes the weight so it parses back exactly."""
    return (
        f"{' '.join(entry.phrase)}\t{len(entry.phrase)}\t{entry.freq}"
        f"\t{entry.df_phrase}\t{entry.df_terms}\t{entry.weight!r}"
    )


@dataclass
class NGramDictionary:
    """The learned feature space: one entry per surviving phrase.

    ``feature_order`` (phrases sorted lexicographically) fixes the feature
    index space shared with vectorization; ``fingerprint`` is the SHA-256 of
    the entries' TSV lines in that order, so it hashes content only and an
    exported dictionary re-imports with the same fingerprint. Matrices and
    models carry it to verify they were produced against this dictionary.
    """

    corpus_size: int | None  # None for dictionaries re-imported from TSV
    entries: dict[Phrase, NGramEntry]
    max_n: int = MAX_NGRAM_LEN
    min_freq: int = 2

    def __post_init__(self) -> None:
        self.feature_order: tuple[Phrase, ...] = tuple(sorted(self.entries))
        self.feature_index: dict[Phrase, int] = {p: i for i, p in enumerate(self.feature_order)}
        self.fingerprint: str = self._compute_fingerprint()
        self._prefixes: frozenset[Phrase] | None = None
        self._weights: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def phrase_prefixes(self) -> frozenset[Phrase]:
        """All non-empty prefixes of dictionary phrases (cached; used to prune matching)."""
        if self._prefixes is None:
            prefixes = set()
            for phrase in self.entries:
                for i in range(1, len(phrase) + 1):
                    prefixes.add(phrase[:i])
            self._prefixes = frozenset(prefixes)
        return self._prefixes

    def weights(self) -> np.ndarray:
        """Phrase weights as float64, in ``feature_order`` (cached; used to scale features)."""
        if self._weights is None:
            weights = np.array(
                [self.entries[p].weight for p in self.feature_order], dtype=np.float64
            )
            weights.flags.writeable = False  # shared by every caller
            self._weights = weights
        return self._weights

    def _compute_fingerprint(self) -> str:
        lines = "".join(_entry_line(self.entries[p]) + "\n" for p in self.feature_order)
        return hashlib.sha256(lines.encode()).hexdigest()


def build_dictionary(docs, max_n: int = MAX_NGRAM_LEN, min_freq: int = 2) -> NGramDictionary:
    """Aggregate per-document n-gram statistics, prune, and weight the survivors.

    ``docs`` is a sequence of token sequences (training documents only; feeding
    test documents here leaks evaluation data into the feature space).

    Counting is level-wise (Apriori: Agrawal & Srikant, VLDB 1994). Every
    occurrence of an n-gram g contains one of g[:-1] and one of g[1:], so g
    can reach ``min_freq`` only if both did: level n counts only the
    occurrences whose two (n-1)-grams both survived, and a level that keeps
    nothing ends the count. Each survivor still gets its full count.
    """
    docs = [tuple(doc) for doc in docs]
    if not docs:
        raise ValueError("build_dictionary requires at least one document")
    if not 1 <= max_n <= MAX_NGRAM_LEN:
        raise ValueError(f"max_n must be in 1..{MAX_NGRAM_LEN}, got {max_n}")
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")

    corpus_size = len(docs)
    postings: dict[str, set[int]] = {}
    for doc_id, tokens in enumerate(docs):
        for token in set(tokens):
            postings.setdefault(token, set()).add(doc_id)

    survivors: list[tuple[Phrase, int, int]] = []  # (phrase, freq, df_phrase)
    # starts[d]: ascending positions in document d where a surviving
    # (n-1)-gram begins; at level 1 every position is a candidate
    starts = [range(len(tokens)) for tokens in docs]
    for n in range(1, max_n + 1):
        freq: Counter = Counter()
        df_phrase: Counter = Counter()
        level = []
        for tokens, alive in zip(docs, starts):
            if n > 1:
                alive = [s for s, nxt in zip(alive, alive[1:]) if nxt == s + 1]
            grams = [tokens[s : s + n] for s in alive]
            freq.update(grams)
            df_phrase.update(set(grams))  # per-document seen set
            level.append((alive, grams))
        kept = {g: total for g, total in freq.items() if total >= min_freq}
        if not kept:
            break
        survivors.extend((g, total, df_phrase[g]) for g, total in kept.items())
        starts = [[s for s, g in zip(alive, grams) if g in kept] for alive, grams in level]

    entries: dict[Phrase, NGramEntry] = {}
    df_terms_cache: dict[frozenset, int] = {}
    for phrase, total, dfp in survivors:
        terms = frozenset(phrase)
        df_terms = df_terms_cache.get(terms)
        if df_terms is None:
            df_terms = _count_docs_containing_terms(terms, postings)
            df_terms_cache[terms] = df_terms
        entries[phrase] = NGramEntry(
            phrase=phrase,
            freq=total,
            df_phrase=dfp,
            df_terms=df_terms,
            weight=ngram_idf_weight(dfp, df_terms, corpus_size),
        )
    return NGramDictionary(
        corpus_size=corpus_size, entries=entries, max_n=max_n, min_freq=min_freq
    )


def _count_docs_containing_terms(terms: frozenset, postings: dict[str, set[int]]) -> int:
    # Intersect posting sets smallest-first; terms all exist because the phrase occurred.
    sets = sorted((postings[t] for t in terms), key=len)
    if len(sets) == 1:
        return len(sets[0])
    smallest, rest = sets[0], sets[1:]
    return sum(1 for doc_id in smallest if all(doc_id in s for s in rest))


def export_dictionary(dictionary: NGramDictionary, path: str | Path) -> None:
    """Write the dictionary as TSV: descending weight, then lexicographic phrase."""
    entries = sorted(dictionary.entries.values(), key=lambda e: (-e.weight, e.phrase))
    lines = ["\t".join(DICTIONARY_COLUMNS), *map(_entry_line, entries)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def import_dictionary(path: str | Path) -> NGramDictionary:
    """Re-load an exported dictionary TSV.

    The result has the exported dictionary's exact weights and fingerprint.
    The TSV schema has no corpus-size column, so ``corpus_size`` is None;
    ``max_n`` and ``min_freq`` are the longest phrase and the lowest freq seen.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != DICTIONARY_COLUMNS:
        raise ValueError(f"{path}: not a dictionary TSV (bad header)")
    entries: dict[Phrase, NGramEntry] = {}
    max_len = 1
    min_freq_seen = None
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(DICTIONARY_COLUMNS):
            raise ValueError(f"{path}: line {lineno}: expected {len(DICTIONARY_COLUMNS)} fields")
        phrase = tuple(fields[0].split(" "))
        n, freq, dfp, dft = (int(v) for v in fields[1:5])
        weight = float(fields[5])
        if len(phrase) != n or not all(phrase):
            raise ValueError(f"{path}: line {lineno}: phrase does not match its length field")
        if not 1 <= dfp <= dft or freq < dfp:
            raise ValueError(f"{path}: line {lineno}: inconsistent frequency columns")
        if not math.isfinite(weight):
            raise ValueError(f"{path}: line {lineno}: non-finite weight {fields[5]!r}")
        if phrase in entries:
            raise ValueError(f"{path}: line {lineno}: duplicate phrase {' '.join(phrase)!r}")
        entries[phrase] = NGramEntry(phrase, freq, dfp, dft, weight)
        max_len = max(max_len, n)
        min_freq_seen = freq if min_freq_seen is None else min(min_freq_seen, freq)
    return NGramDictionary(
        corpus_size=None,
        entries=entries,
        max_n=max(max_len, 1),
        min_freq=min_freq_seen if min_freq_seen is not None else 2,
    )
