"""N-gram dictionary construction: level-wise counting on integer-coded tokens,
document frequencies, IDF weights.

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

Counting maps each token to an integer id once and works on one flat id
array: each level's n-grams are integer keys counted with numpy sorts, and
``df_terms`` intersects per-token posting sets at C level.

A dictionary is prefix-closed: every (n-1)-prefix of an entry is an entry.
The build guarantees it (an n-gram is counted only where its prefix
survived) and ``import_dictionary`` checks it. So the dictionary finds its
own phrases in a document (``phrase_counts``) with its feature index alone,
growing each window one token at a time until the first miss.
"""

from __future__ import annotations

import hashlib
import math
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
    ``entries`` must be prefix-closed, or ``phrase_counts`` misses phrases.
    """

    corpus_size: int | None  # None for dictionaries re-imported from TSV
    entries: dict[Phrase, NGramEntry]
    max_n: int = MAX_NGRAM_LEN
    min_freq: int = 2

    def __post_init__(self) -> None:
        self.feature_order: tuple[Phrase, ...] = tuple(sorted(self.entries))
        self.feature_index: dict[Phrase, int] = {p: i for i, p in enumerate(self.feature_order)}
        self.fingerprint: str = self._compute_fingerprint()
        # phrase weights in ``feature_order``, read-only: shared by every caller
        self.weights: np.ndarray = np.array(
            [self.entries[p].weight for p in self.feature_order], dtype=np.float64
        )
        self.weights.flags.writeable = False

    def __len__(self) -> int:
        return len(self.entries)

    def phrase_counts(self, tokens) -> dict[int, int]:
        """Occurrences of dictionary phrases in ``tokens``, keyed by feature column.

        Each window grows one token at a time and stops at its first miss:
        the dictionary is prefix-closed, so no longer window can be an entry.
        Overlapping occurrences all count.
        """
        index = self.feature_index
        tokens = tuple(tokens)
        size = len(tokens)
        counts: dict[int, int] = {}
        for start in range(size):
            for end in range(start + 1, size + 1):
                col = index.get(tokens[start:end])
                if col is None:
                    break
                counts[col] = counts.get(col, 0) + 1
        return counts

    def _compute_fingerprint(self) -> str:
        lines = "".join(_entry_line(self.entries[p]) + "\n" for p in self.feature_order)
        return hashlib.sha256(lines.encode()).hexdigest()


def build_dictionary(docs, max_n: int = MAX_NGRAM_LEN, min_freq: int = 2) -> NGramDictionary:
    """Aggregate per-document n-gram statistics, prune, and weight the survivors.

    ``docs`` is a sequence of token sequences (training documents only; feeding
    test documents here leaks evaluation data into the feature space).

    Counting runs on integer-coded text: every token gets an id, and the
    corpus becomes one flat id array. It is level-wise (Apriori: Agrawal &
    Srikant, VLDB 1994). Every occurrence of an n-gram g contains one of
    g[:-1] and one of g[1:], so g can reach ``min_freq`` only if both did:
    level n counts only the positions whose two (n-1)-grams both survived,
    and a level that keeps nothing ends the count. Each survivor still gets
    its full count. An n-gram's key is (id of its (n-1)-gram prefix, id of
    its last token), so one sort per level yields ``freq`` and one more over
    (n-gram, document) pairs yields ``df_phrase``. ``df_terms`` intersects
    the documents of each of a phrase's tokens, smallest set first.
    ``entries`` runs level by level, each level in order of first occurrence.
    """
    if not 1 <= max_n <= MAX_NGRAM_LEN:
        raise ValueError(f"max_n must be in 1..{MAX_NGRAM_LEN}, got {max_n}")
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    vocab: dict[str, int] = {}
    ids: list[int] = []
    lengths: list[int] = []
    for doc in docs:
        before = len(ids)
        ids.extend(vocab.setdefault(token, len(vocab)) for token in doc)
        lengths.append(len(ids) - before)
    if not lengths:
        raise ValueError("build_dictionary requires at least one document")

    corpus_size, n_vocab = len(lengths), len(vocab)
    words = list(vocab)
    tok = np.array(ids, dtype=np.int64)
    doc_of = np.repeat(np.arange(corpus_size, dtype=np.int64), lengths)
    doc_end = np.repeat(np.cumsum(lengths, dtype=np.int64), lengths)
    # token postings: the sorted distinct (token, document) pairs, split by token
    pairs = np.unique(tok * corpus_size + doc_of)
    cuts = np.searchsorted(pairs // corpus_size, np.arange(1, n_vocab))
    postings = {w: set(p.tolist()) for w, p in zip(words, np.split(pairs % corpus_size, cuts))}

    entries: dict[Phrase, NGramEntry] = {}
    # level n counts the ascending positions ``starts``; ``prefix`` holds the id
    # of the (n-1)-gram there, an index into ``prev``, level n-1's survivors.
    # Level 1 extends the empty phrase at every position.
    prev: list[Phrase] = [()]
    starts = np.arange(len(tok), dtype=np.int64)
    prefix = np.zeros(len(tok), dtype=np.int64)
    for n in range(1, max_n + 1):
        keys = prefix * n_vocab + tok[starts + n - 1]
        grams, first, inverse, freq = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        gram_docs = np.unique(inverse * corpus_size + doc_of[starts]) // corpus_size
        df_phrase = np.bincount(gram_docs, minlength=len(grams))
        kept = np.flatnonzero(freq >= min_freq)
        if not len(kept):
            break
        kept = kept[np.argsort(first[kept])]  # in order of first occurrence
        level = []
        for key, total, dfp in zip(
            grams[kept].tolist(), freq[kept].tolist(), df_phrase[kept].tolist()
        ):
            prefix_id, last = divmod(key, n_vocab)
            phrase = prev[prefix_id] + (words[last],)
            level.append(phrase)
            # intersect smallest-first; every term occurs because the phrase did
            sets = sorted((postings[t] for t in set(phrase)), key=len)
            df_terms = len(set.intersection(*sets))
            entries[phrase] = NGramEntry(
                phrase=phrase,
                freq=total,
                df_phrase=dfp,
                df_terms=df_terms,
                weight=ngram_idf_weight(dfp, df_terms, corpus_size),
            )
        prev = level
        new_id = np.full(len(grams), -1, dtype=np.int64)
        new_id[kept] = np.arange(len(kept))
        ids_here = new_id[inverse]
        live = ids_here >= 0
        alive, alive_ids = starts[live], ids_here[live]
        # level n+1: both n-grams survived and the (n+1)-gram ends inside its document
        s = alive[:-1]
        ok = (alive[1:] == s + 1) & (s + n < doc_end[s])
        starts, prefix = s[ok], alive_ids[:-1][ok]
    return NGramDictionary(
        corpus_size=corpus_size, entries=entries, max_n=max_n, min_freq=min_freq
    )


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
    The file must be prefix-closed, as every exported dictionary is: a phrase
    whose (n-1)-prefix has no line is rejected.
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
    # phrase lookup relies on prefix closure; entries follow the file's lines
    for lineno, phrase in enumerate(entries, start=2):
        if len(phrase) > 1 and phrase[:-1] not in entries:
            raise ValueError(
                f"{path}: line {lineno}: phrase {' '.join(phrase)!r} has no line "
                f"for its prefix {' '.join(phrase[:-1])!r}"
            )
    return NGramDictionary(
        corpus_size=None,
        entries=entries,
        max_n=max(max_len, 1),
        min_freq=min_freq_seen if min_freq_seen is not None else 2,
    )
