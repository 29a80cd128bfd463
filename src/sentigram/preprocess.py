"""Text normalization: character cleaning, whitespace tokenization, stop-word removal.

Cleaning replaces every character outside [A-Za-z0-9] with a single space, so
punctuation-driven tokenization differences disappear before splitting. All
downstream stages consume the resulting lowercase alphanumeric token streams.

Cleaning is one C-level pass per document: the ASCII encoder turns each
non-ASCII code point (lone surrogates included) into one ``?``, and a
256-byte table keeps the bytes of [A-Za-z0-9] and maps every other byte to a
space. The result equals ``re.sub(r"[^A-Za-z0-9]", " ", raw)``.
"""

from __future__ import annotations

import string
from importlib import resources
from pathlib import Path

_ALNUM = (string.ascii_letters + string.digits).encode("ascii")
_KEEP_ALNUM = bytes(b if b in _ALNUM else ord(" ") for b in range(256))


def clean_text(raw: str) -> str:
    """Replace every character outside [A-Za-z0-9] with a single space."""
    return raw.encode("ascii", "replace").translate(_KEEP_ALNUM).decode("ascii")


def tokenize(clean: str) -> list[str]:
    """Lowercase and split on whitespace runs; empty tokens are dropped."""
    return clean.lower().split()


def remove_stopwords(tokens: list[str], stoplist: frozenset[str]) -> list[str]:
    """Drop tokens present in the stop list, keeping order of the survivors."""
    return [t for t in tokens if t not in stoplist]


def load_stoplist(path: str | Path | None = None) -> frozenset[str]:
    """Load a stop-word list: one word per line, UTF-8, ``#`` comments allowed.

    Without a path this returns the packaged English list.
    Entries are lowercased; blank lines and comment-only lines are skipped.
    A file that is not UTF-8 is refused with a ValueError naming it.
    """
    if path is None:
        text = resources.files("sentigram.data").joinpath("stopwords_en.txt").read_text("utf-8")
    else:
        try:
            text = Path(path).read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def preprocess(raw: str, stoplist: frozenset[str] | None = None) -> list[str]:
    """Full pipeline: clean, tokenize, and (if a stop list is given) filter."""
    tokens = tokenize(clean_text(raw))
    if stoplist is not None:
        tokens = remove_stopwords(tokens, stoplist)
    return tokens
