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
from scipy.sparse._base import MAXPRINT

from .ngrams import NGramDictionary

SCHEMES = ("count_x_weight", "binary_x_weight", "count")
_INT32_MAX = 2**31 - 1


@dataclass
class FeatureMatrix:
    """A vectorized document set tied to the dictionary that produced it.

    Rows are canonical CSR (sorted columns, no entry stored twice); the
    constructor makes them so on a copy, never in the caller's matrix.
    ``y`` is None or one non-negative integer label per row.
    """

    X: sp.csr_matrix
    y: np.ndarray | None  # label indices aligned with rows, or None for unlabeled text
    fingerprint: str  # of the producing dictionary
    scheme: str

    def __post_init__(self) -> None:
        if not sp.issparse(self.X) or self.X.ndim != 2:
            raise ValueError(f"expected 2-D scipy sparse rows, got {type(self.X).__name__}")
        X = self.X.tocsr()
        if not X.has_canonical_format:
            X = X.copy() if X is self.X else X
            X.sum_duplicates()
        self.X, y, n = X, self.y, X.shape[0]
        if y is None:
            return
        shape = getattr(y, "shape", type(y).__name__)
        if shape != (n,):
            raise ValueError(f"expected labels of shape ({n},), one per row, got {shape}")
        if y.dtype.kind not in "iu":
            raise ValueError(f"expected integer labels, got dtype {y.dtype}")
        if n and y.min() < 0:
            raise ValueError(f"expected non-negative labels, got {y.min()}")

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


def canonical_csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """Wrap arrays that already form canonical CSR rows as a ``csr_matrix``
    marked canonical, sharing ``data`` (and the index arrays when their dtype
    is already the chosen one).

    The caller guarantees what scipy's checked constructor would verify:
    1-D arrays, ``indptr`` of length rows + 1, starting at 0 and
    non-decreasing up to ``len(data) == len(indices)``, and each row's columns
    sorted, unique and below ``shape[1]``. Skipping that constructor's index
    scan, ``check_format`` and ``prune`` saves about 12 us a call. The index
    dtype follows scipy's rule for ``(data, indices, indptr)`` input: int64
    only when a dimension exceeds int32 (a shape with a 0 in it is not
    counted) or the stored entries do, else int32.
    """
    wide = len(data) > _INT32_MAX or (0 not in shape and max(shape) > _INT32_MAX)
    idx = np.int64 if wide else np.int32
    X = sp.csr_matrix.__new__(sp.csr_matrix)
    X.__dict__.update(
        _shape=shape,
        maxprint=MAXPRINT,
        data=data,
        indices=indices.astype(idx, copy=False),
        indptr=indptr.astype(idx, copy=False),
        _has_sorted_indices=True,
        _has_canonical_format=True,
    )
    return X


def vectorize(
    token_docs, dictionary: NGramDictionary, scheme: str = "count_x_weight"
) -> sp.csr_matrix:
    """Vectorize pre-tokenized documents; rows in input order, canonical CSR.

    One document is counted by ``phrase_counts``'s walk, two or more by
    ``batch_phrase_counts``'s array passes; both give the same counts. The
    split follows their costs, measured on the benchmark's features-wide
    dictionary (16.1k phrases, documents of about 19 tokens; 2-core x86-64,
    Python 3.11, numpy 2.4, scipy 1.17): the array passes cost about 100 us
    per call before any document, so one document takes about 27 us walked
    (15 us of it counting) against about 105 us in arrays. Each further
    document costs about 15 us walked and 5-10 us in arrays, so the two cross
    near 16 documents: a batch of 2-15 would be faster walked (a batch of 2
    takes about 125 us in arrays), and 1000 documents take about 5.3 ms in
    arrays against about 15 ms walked.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    token_docs = list(token_docs)
    if len(token_docs) == 1:
        doc_counts = dictionary.phrase_counts(token_docs[0])
        n = len(doc_counts)
        cols = np.fromiter(doc_counts, dtype=np.int64, count=n)
        order = cols.argsort()  # the columns are unique, so any sort gives one order
        cols = cols[order]
        counts = np.fromiter(doc_counts.values(), dtype=np.int64, count=n)[order]
        indptr = np.array([0, n], dtype=np.int64)
    else:
        rows, cols, counts = dictionary.batch_phrase_counts(token_docs)
        indptr = np.searchsorted(rows, np.arange(len(token_docs) + 1))
    data = counts.astype(np.float64)
    if scheme == "binary_x_weight":
        data[:] = 1.0
    if scheme != "count":
        data *= dictionary.weights[cols]
    X = canonical_csr(data, cols, indptr, (len(token_docs), len(dictionary.feature_order)))
    if not data.all():  # a phrase weight can be exactly 0.0
        X.eliminate_zeros()
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
