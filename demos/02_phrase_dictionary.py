"""Phrase-IDF weighting: multiword expressions versus incidental word pairs.

The dictionary scores a phrase g by ln(N * df(g) / df(terms(g))^2), where
df(g) counts documents containing the contiguous phrase and df(terms(g))
counts documents containing all its tokens anywhere. A phrase whose tokens
rarely meet outside the phrase ("service pack") beats one whose tokens float
around independently ("cloud backup"), which can even go negative.
"""

import tempfile
from pathlib import Path

from sentigram.ngrams import build_dictionary, export_dictionary, import_dictionary
from sentigram.preprocess import load_stoplist, preprocess

TEXTS = [
    "install service pack two before anything else",
    "the service pack update failed midway",
    "restart after the service pack finishes",
    "service pack two broke my printer driver",
    "cloud backup runs every night",
    "backup the files then sync the cloud folder",
    "my cloud account lost one backup",
    "the cloud icon shows a backup arrow",
    "restore the cloud backup from the tab",
    "pack the service logs and attach them",
]


def main() -> None:
    stoplist = load_stoplist()
    docs = [preprocess(text, stoplist) for text in TEXTS]
    dictionary = build_dictionary(docs, max_n=3, min_freq=2)
    print(f"{len(docs)} documents -> {len(dictionary)} phrases (length <= 3, freq >= 2)")
    print()

    entries = sorted(dictionary.entries.values(), key=lambda e: -e.weight)
    header = f"{'phrase':<18}{'freq':>6}{'df_phrase':>11}{'df_terms':>10}{'weight':>9}"
    print(header)
    print("-" * len(header))
    shown = entries[:8] + [e for e in entries[-4:] if e not in entries[:8]]
    for e in shown:
        print(
            f"{' '.join(e.phrase):<18}{e.freq:>6}{e.df_phrase:>11}"
            f"{e.df_terms:>10}{e.weight:>9.3f}"
        )
    print()

    sp = dictionary.entries[("service", "pack")]
    cb = dictionary.entries[("cloud", "backup")]
    print("the headline contrast:")
    print(
        f"  'service pack'  appears as a phrase in {sp.df_phrase} of the "
        f"{sp.df_terms} docs holding both words -> weight {sp.weight:+.3f}"
    )
    print(
        f"  'cloud backup'  appears as a phrase in {cb.df_phrase} of the "
        f"{cb.df_terms} docs holding both words -> weight {cb.weight:+.3f}"
    )
    print()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dictionary.tsv"
        export_dictionary(dictionary, path)
        reloaded = import_dictionary(path)
        print(f"dictionaries round-trip through TSV: {len(reloaded)} phrases reloaded,")
        print(
            f"  weights exact: {reloaded.entries == dictionary.entries}, "
            f"same fingerprint: {reloaded.fingerprint == dictionary.fingerprint}"
        )


if __name__ == "__main__":
    main()
