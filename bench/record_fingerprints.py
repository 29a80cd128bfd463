"""Record the features-wide dictionary statistics fingerprint for a range of seeds.

    python3 bench/record_fingerprints.py FIRST LAST

Rebuilds, for each seed in FIRST..LAST, the dictionary that round 0 of the
features-wide evaluation builds (same corpus, split, stop list and n-gram
settings) and merges its statistics fingerprint into
``bench/fingerprints.json``. Run it on a commit whose dictionary statistics
are trusted; every later features-wide run on a recorded seed must match.
"""

from __future__ import annotations

import json
import sys

from run import FINGERPRINTS, _dataset, _se_config, prep, stats_fingerprint
from sentigram.corpus import stratified_shuffle_splits
from sentigram.ngrams import build_dictionary
from workloads import se_like_documents


def fingerprint(seed: int) -> str:
    cfg = _se_config()
    ds = _dataset("se-like-4000", se_like_documents(4000, seed))
    plan = stratified_shuffle_splits(ds, rounds=1, test_fraction=cfg.test_fraction, seed=cfg.seed)
    stoplist = prep.load_stoplist()
    train_ids = plan.rounds[0][0]
    tokens = [prep.preprocess(ds.documents[i].text, stoplist) for i in train_ids]
    return stats_fingerprint(build_dictionary(tokens, max_n=cfg.max_n, min_freq=cfg.min_freq))


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    recorded = table.setdefault("features-wide", {})
    for seed in range(first, last + 1):
        recorded[str(seed)] = fingerprint(seed)
    table["features-wide"] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    FINGERPRINTS.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
