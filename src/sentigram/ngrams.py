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
survived) and ``import_dictionary`` checks it. So every window of a document
that is an entry grows, one token at a time, through entries only, and the
first miss ends it. The dictionary finds its own phrases in two ways:

    phrase_counts        one document: grow each window over the feature
                         index, hashing one token tuple per step;
    batch_phrase_counts  many documents: the same growth on integer ids,
                         level by level over the whole batch at once.

The second walks a step table built once per dictionary, built or
re-imported alike. Every token of an entry gets an id >= 1 (0 stands for an
unknown token and for a document's end); each id has its unigram's column,
if any; and every entry p is one sorted integer key, (column of p[:-1] + 1,
id of p[-1]), with the empty prefix as column -1, mapped to p's column.
Level 1 reads each known token's unigram column; level n extends each
window that survived level n-1 by its next token with one ``searchsorted``
over the keys.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from itertools import chain, repeat
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
    ``entries`` must be prefix-closed: both phrase lookups rely on it.
    """

    entries: dict[Phrase, NGramEntry]
    # the build's settings: None for dictionaries re-imported from TSV
    corpus_size: int | None
    max_n: int | None
    min_freq: int | None

    def __post_init__(self) -> None:
        self.feature_order: tuple[Phrase, ...] = tuple(sorted(self.entries))
        self.feature_index: dict[Phrase, int] = {p: i for i, p in enumerate(self.feature_order)}
        self.fingerprint: str = self._compute_fingerprint()
        # phrase weights in ``feature_order``, read-only: shared by every caller
        self.weights: np.ndarray = np.array(
            [self.entries[p].weight for p in self.feature_order], dtype=np.float64
        )
        self.weights.flags.writeable = False
        # the step table: by prefix closure, every token of an entry is the
        # last token of one of its prefixes, so the last tokens name them all
        index = self.feature_index
        ids = {t: i for i, t in enumerate(dict.fromkeys(p[-1] for p in self.feature_order), 1)}
        self._token_ids: dict[str, int] = ids
        self._radix = len(ids) + 1
        # level 1 needs no search: each token id's unigram column, -1 if none
        self._unigram_cols: np.ndarray = np.array(
            [-1, *(index.get((t,), -1) for t in ids)], dtype=np.int64
        )
        keys = np.fromiter(
            (
                (index[p[:-1]] + 1 if len(p) > 1 else 0) * self._radix + ids[p[-1]]
                for p in self.feature_order
            ),
            dtype=np.int64,
            count=len(self.feature_order),
        )
        order = np.argsort(keys)
        # a key above every real one, with no column, keeps each search in range
        self._step_keys: np.ndarray = np.append(keys[order], np.iinfo(np.int64).max)
        self._step_cols: np.ndarray = np.append(order, -1)

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

    def batch_phrase_counts(self, token_docs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Occurrences of dictionary phrases in a sequence of token sequences,
        as ``(rows, cols, counts)`` int64 arrays sorted by row, then column.

        The batch becomes one id buffer with a 0 after each document, so no
        window runs past its document's end. Level 1 looks up every known
        token; level n extends the windows that survived level n-1 by the id
        after them, all in one ``searchsorted``, until none survives. The
        counts equal ``phrase_counts`` applied to each document.
        """
        lengths = np.fromiter(map(len, token_docs), dtype=np.int64, count=len(token_docs))
        ends = np.cumsum(lengths + 1) - 1  # the position of each document's 0
        get = self._token_ids.get
        ids = np.fromiter(
            chain.from_iterable(chain(map(get, doc, repeat(0)), (0,)) for doc in token_docs),
            dtype=np.int64,
            count=int(lengths.sum()) + len(lengths),
        )
        width = len(self.feature_order)
        # each occurrence as one cell, row * width + column
        cells = [np.zeros(0, dtype=np.int64)]
        start = np.flatnonzero(ids)
        col = self._unigram_cols[ids[start]]
        n = 1
        while True:
            hit = col >= 0
            start, col = start[hit], col[hit]
            if not len(start):
                break
            cells.append(np.searchsorted(ends, start) * width + col)
            col = self._step(col, ids[start + n])  # level n + 1
            n += 1
        cells, counts = np.unique(np.concatenate(cells), return_counts=True)
        return cells // width, cells % width, counts  # width 0: no cells

    def _step(self, prefix: np.ndarray, token: np.ndarray) -> np.ndarray:
        """The column of each prefix column's extension by a token id; -1
        where no entry is that extension.

        The keys are searched in ascending order: each binary search then
        starts where the last one ended. For 20k lookups into features-wide's
        15.6k keys that is about five times faster than in text order.
        """
        key = (prefix + 1) * self._radix + token
        order = np.argsort(key)
        at = np.empty_like(order)
        at[order] = np.searchsorted(self._step_keys, key[order])
        return np.where(self._step_keys[at] == key, self._step_cols[at], -1)

    def _compute_fingerprint(self) -> str:
        lines = "".join(_entry_line(self.entries[p]) + "\n" for p in self.feature_order)
        return hashlib.sha256(lines.encode()).hexdigest()


def build_dictionary(docs, max_n: int = MAX_NGRAM_LEN, min_freq: int = 2) -> NGramDictionary:
    """Aggregate per-document n-gram statistics, prune, and weight the survivors.

    ``docs`` is a sequence of token sequences (training documents only; feeding
    test documents here leaks evaluation data into the feature space), its
    tokens in the form ``preprocess`` emits them, ``[a-z0-9]+``.

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
    The TSV schema records none of the build's settings, so ``corpus_size``,
    ``max_n`` and ``min_freq`` are None.
    The file must be prefix-closed, as every exported dictionary is: a phrase
    whose (n-1)-prefix has no line is rejected, and so is a token other than
    ``[a-z0-9]+``. A leading UTF-8 byte-order mark is skipped, and a
    malformed line is refused naming the file and line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    if not lines or tuple(lines[0].split("\t")) != DICTIONARY_COLUMNS:
        raise ValueError(f"{path}: not a dictionary TSV (bad header)")
    entries: dict[Phrase, NGramEntry] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(DICTIONARY_COLUMNS):
            raise ValueError(f"{path}: line {lineno}: expected {len(DICTIONARY_COLUMNS)} fields")
        phrase = tuple(fields[0].split(" "))
        try:
            n, freq, dfp, dft = (int(v) for v in fields[1:5])
            weight = float(fields[5])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: non-numeric field ({exc})") from None
        if len(phrase) != n or not all(phrase):
            raise ValueError(f"{path}: line {lineno}: phrase does not match its length field")
        for token in phrase:  # as preprocess emits them: no other token can match text
            if not re.fullmatch("[a-z0-9]+", token):
                raise ValueError(f"{path}: line {lineno}: token {token!r} is not [a-z0-9]+")
        if not 1 <= dfp <= dft or freq < dfp:
            raise ValueError(f"{path}: line {lineno}: inconsistent frequency columns")
        if not math.isfinite(weight):
            raise ValueError(f"{path}: line {lineno}: non-finite weight {fields[5]!r}")
        if phrase in entries:
            raise ValueError(f"{path}: line {lineno}: duplicate phrase {' '.join(phrase)!r}")
        entries[phrase] = NGramEntry(phrase, freq, dfp, dft, weight)
    # phrase lookup relies on prefix closure; entries follow the file's lines
    for lineno, phrase in enumerate(entries, start=2):
        if len(phrase) > 1 and phrase[:-1] not in entries:
            raise ValueError(
                f"{path}: line {lineno}: phrase {' '.join(phrase)!r} has no line "
                f"for its prefix {' '.join(phrase[:-1])!r}"
            )
    return NGramDictionary(corpus_size=None, entries=entries, max_n=None, min_freq=None)
