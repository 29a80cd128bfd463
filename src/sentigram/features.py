"""Document vectorization against a fixed n-gram dictionary, plus SMOTE.

Three feature schemes over the dictionary's phrase space:

    count_x_weight   occurrence count * phrase weight   (default)
    binary_x_weight  presence indicator * phrase weight
    count            raw occurrence count

Matrices are CSR sparse; rows are documents in input order, columns follow
``dictionary.feature_order``. The dictionary finds its own phrases; vectorizing
only scales the counts. A single document goes through the dictionary's
per-document walk (``phrase_counts``) and a batch of two or more through its
array passes on integer ids (``batch_phrase_counts``): the array passes have
a fixed cost per call that only a batch repays (numbers in ``vectorize``).
Both give the same counts, so a document's row does not depend on the path.
Out-of-dictionary phrases are ignored, so test documents vectorize into the
training feature space without refitting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ngrams import NGramDictionary

SCHEMES = ("count_x_weight", "binary_x_weight", "count")


@dataclass
class FeatureMatrix:
    """A vectorized document set tied to the dictionary that produced it."""

    X: sp.csr_matrix
    y: np.ndarray | None  # label indices aligned with rows, or None for unlabeled text
    fingerprint: str  # of the producing dictionary
    scheme: str

    def __post_init__(self) -> None:
        if not sp.issparse(self.X) or self.X.ndim != 2:
            raise ValueError(f"expected 2-D scipy sparse rows, got {type(self.X).__name__}")

    @property
    def n_documents(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, rows) -> "FeatureMatrix":
        """Row-sliced view sharing scheme and dictionary fingerprint."""
        rows = np.asarray(rows)
        return FeatureMatrix(
            X=self.X[rows],
            y=None if self.y is None else self.y[rows],
            fingerprint=self.fingerprint,
            scheme=self.scheme,
        )


def vectorize(
    token_docs, dictionary: NGramDictionary, scheme: str = "count_x_weight"
) -> sp.csr_matrix:
    """Vectorize pre-tokenized documents; rows in input order.

    One document is counted by ``phrase_counts``'s walk, two or more by
    ``batch_phrase_counts``'s array passes; both give the same counts. The
    split follows their costs, measured on the benchmark's features-wide
    dictionary (15.6k phrases, documents of about 19 tokens): the array
    passes cost about 95 us per call before any document, so one document
    takes 98 us against 39 us walked; the walk costs about 17 us per
    document, so 1000 documents take 16.6 ms walked against 4.0 ms in arrays.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    token_docs = list(token_docs)
    if len(token_docs) == 1:
        doc_counts = dictionary.phrase_counts(token_docs[0])
        cols = np.array(sorted(doc_counts), dtype=np.int64)
        counts = np.array([doc_counts[c] for c in cols.tolist()], dtype=np.int64)
        indptr = np.array([0, len(cols)], dtype=np.int64)
    else:
        rows, cols, counts = dictionary.batch_phrase_counts(token_docs)
        indptr = np.searchsorted(rows, np.arange(len(token_docs) + 1))
    data = counts.astype(np.float64)
    if scheme == "binary_x_weight":
        data[:] = 1.0
    if scheme != "count":
        data *= dictionary.weights[cols]
    X = sp.csr_matrix(
        (data, cols, indptr), shape=(len(token_docs), len(dictionary.feature_order))
    )
    X.eliminate_zeros()  # a phrase weight can be exactly 0.0
    return X


def smote_oversample(fm: FeatureMatrix, k: int = 5, seed: int = 0) -> FeatureMatrix:
    """Grow every minority class to the majority size with SMOTE interpolants.

    Each synthetic row is x_i + lam * (x_nn - x_i) for a random same-class
    member x_i, one of its k nearest same-class neighbours x_nn (Euclidean;
    distance ties resolved toward the lower row index; k shrinks to the class
    size minus one when needed), and lam ~ U[0, 1). Original rows are
    preserved verbatim; synthetic rows append after them in generation order.
    Classes absent from y are skipped; a class with a single member cannot be
    interpolated, so it keeps its one row and a RuntimeWarning names it.

    The interpolation runs on sparse rows: every stored value is the same
    IEEE expression a + lam*(b - a) a dense row would compute, and positions
    that are 0 in both parents stay 0, so no dense (rows, features) block is
    ever built.
    """
    if fm.y is None:
        raise ValueError("smote_oversample requires labels")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    y = fm.y
    class_ids, counts = np.unique(y, return_counts=True)
    majority = int(counts.max())

    blocks = [fm.X]
    new_labels = [y]
    for class_id, count in zip(class_ids, counts):
        need = majority - int(count)
        if need == 0:
            continue
        if count == 1:
            warnings.warn(
                f"class {int(class_id)} has a single member; SMOTE needs at least 2 "
                "to interpolate, so it keeps its one row",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        rows = np.nonzero(y == class_id)[0]
        members = fm.X[rows]
        k_eff = min(k, len(rows) - 1)
        neighbours = _knn_indices(members, k_eff)
        base = rng.integers(0, len(rows), size=need)
        pick = rng.integers(0, k_eff, size=need)
        lam = rng.random(need)
        x_i = members[base]
        step = members[neighbours[base, pick]] - x_i
        step.data *= np.repeat(lam, np.diff(step.indptr))
        blocks.append(x_i + step)
        new_labels.append(np.full(need, class_id, dtype=np.int64))

    X = sp.vstack(blocks, format="csr")
    X.eliminate_zeros()  # interpolation can cancel to exact zeros; keep storage canonical
    return FeatureMatrix(
        X=X, y=np.concatenate(new_labels), fingerprint=fm.fingerprint, scheme=fm.scheme
    )


def _knn_indices(members: sp.csr_matrix, k: int) -> np.ndarray:
    """Row-wise k nearest neighbour indices of sparse rows, self excluded,
    ties to lower index.

    Squared distances come from the sparse Gram matrix members @ members.T,
    so only a (rows, rows) block is dense.
    """
    sq = np.asarray(members.multiply(members).sum(axis=1)).ravel()
    d2 = sq[:, None] + sq[None, :] - 2.0 * (members @ members.T).toarray()
    np.fill_diagonal(d2, np.inf)
    # stable argsort => equal distances order by row index
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]
