"""From-scratch classifier portfolio: multinomial NB, softmax regression,
linear SVM (one-vs-rest), and a random forest.

Shared contracts:

  * models train on the label indices present in y and predict only those
    (``classes_``, ascending global label order);
  * ``predict_scores`` returns one row per document over ``classes_``, rows
    summing to 1 (NB: normalised posteriors; linear models: softmax of
    margins; forest: vote fractions), and argmax of a row equals ``predict``;
  * argmax ties resolve to the lowest label index;
  * training is deterministic given (kind, hyperparameters, matrix, seed);
  * rows are scipy sparse (CSR, as the package builds them); dense rows
    raise ValueError;
  * ``class_margins(training)`` is per-class phrase evidence of shape
    (len(classes_), n_features): larger is more indicative of the class,
    ``-inf`` is none; a constant model returns None.

Models serialize to a self-describing JSON container carrying kind, hp, class
set, parameters, and the dictionary fingerprint of the training matrix;
loading verifies the fingerprint when the caller supplies one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import softmax

from .features import FeatureMatrix

KINDS = ("multinomial_nb", "logistic_regression", "linear_svm", "random_forest")

# name -> ("log", lo, hi) | ("int", lo, hi) | ("choice", options)
HP_SPACE = {
    "multinomial_nb": {
        "alpha": ("log", 1e-2, 10.0),
    },
    "logistic_regression": {
        "learning_rate": ("log", 1e-3, 1.0),
        "l2": ("log", 1e-7, 1e-1),
        "epochs": ("int", 10, 200),
        "batch_size": ("choice", (16, 32, 64, 128)),
    },
    "linear_svm": {
        "learning_rate": ("log", 1e-3, 0.5),
        "l2": ("log", 1e-7, 1e-1),
        "epochs": ("int", 10, 200),
        "batch_size": ("choice", (16, 32, 64, 128)),
    },
    "random_forest": {
        "n_trees": ("int", 10, 80),
        "max_depth": ("int", 3, 20),
        "feature_fraction": ("choice", ("sqrt", 0.2, 0.5, 1.0)),
        "min_samples_leaf": ("int", 1, 4),
        "bootstrap": ("choice", (True, False)),
    },
}

DEFAULT_HP = {
    "multinomial_nb": {"alpha": 1.0},
    "logistic_regression": {"learning_rate": 0.1, "l2": 1e-4, "epochs": 60, "batch_size": 32},
    "linear_svm": {"learning_rate": 0.05, "l2": 1e-4, "epochs": 60, "batch_size": 32},
    "random_forest": {
        "n_trees": 40,
        "max_depth": 12,
        "feature_fraction": "sqrt",
        "min_samples_leaf": 1,
        "bootstrap": True,
    },
}

_MODEL_FORMAT = "sentigram-model/1"
_REL_TOL = 1e-6  # relative objective change below which linear-model epochs stop


def default_hp(kind: str) -> dict:
    _check_kind(kind)
    return dict(DEFAULT_HP[kind])


def sample_hp(kind: str, rng: np.random.Generator) -> dict:
    """Draw one hyperparameter setting uniformly from the kind's declared space."""
    _check_kind(kind)
    hp = {}
    for name, spec in HP_SPACE[kind].items():
        tag = spec[0]
        if tag == "log":
            lo, hi = spec[1], spec[2]
            hp[name] = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
        elif tag == "int":
            lo, hi = spec[1], spec[2]
            hp[name] = int(rng.integers(lo, hi + 1))
        else:
            options = spec[1]
            hp[name] = options[int(rng.integers(len(options)))]
    return hp


def validate_hp(kind: str, hp: dict) -> dict:
    """Fill unspecified values from the defaults and range-check everything."""
    _check_kind(kind)
    space = HP_SPACE[kind]
    unknown = set(hp) - set(space)
    if unknown:
        raise ValueError(f"unknown hyperparameters for {kind}: {sorted(unknown)}")
    full = {**DEFAULT_HP[kind], **hp}
    for name, spec in space.items():
        value, tag = full[name], spec[0]
        if tag == "log":
            if not (isinstance(value, (int, float)) and spec[1] <= value <= spec[2]):
                raise ValueError(f"{kind}.{name}={value!r} outside [{spec[1]}, {spec[2]}]")
            full[name] = float(value)
        elif tag == "int":
            if not (isinstance(value, (int, np.integer)) and spec[1] <= value <= spec[2]):
                raise ValueError(f"{kind}.{name}={value!r} outside integer [{spec[1]}, {spec[2]}]")
            full[name] = int(value)
        elif value not in spec[1]:
            raise ValueError(f"{kind}.{name}={value!r} not in {spec[1]}")
    return full


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown learner kind {kind!r}; expected one of {KINDS}")


# ---------------------------------------------------------------------------
# training entry point


def train(kind: str, hp: dict, fm: FeatureMatrix, seed: int = 0) -> "TrainedModel":
    """Fit one model of the given kind on a labeled FeatureMatrix."""
    if fm.y is None:
        raise ValueError("training requires labels")
    if fm.n_documents == 0:
        raise ValueError("training matrix is empty")
    hp = validate_hp(kind, hp)
    classes = np.unique(fm.y)
    cls = ConstantModel if len(classes) == 1 else _MODEL_CLASSES[kind]
    model = cls(kind, hp, int(seed), classes, fm.n_features, fm.fingerprint)
    model._fit(model._coerce(fm), fm.y)
    return model


class TrainedModel:
    """Base class: bookkeeping plus the shared predict contract."""

    def __init__(self, kind, hp, seed, classes, n_features, fingerprint):
        self.kind = kind
        self.hp = dict(hp)
        self.seed = seed
        self.classes_ = np.asarray(classes, dtype=np.int64)
        self.n_features_ = int(n_features)
        self.fingerprint = fingerprint

    def _coerce(self, rows):
        if isinstance(rows, FeatureMatrix):
            if self.fingerprint and rows.fingerprint != self.fingerprint:
                raise ValueError(
                    "matrix was vectorized against a different dictionary than this model"
                )
            rows = rows.X
        if not sp.issparse(rows):
            raise ValueError(f"expected scipy sparse rows, got {type(rows).__name__}")
        if rows.ndim != 2 or rows.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_}-column rows, got shape {tuple(rows.shape)}"
            )
        return rows

    def predict(self, rows) -> np.ndarray:
        scores = self.predict_scores(rows)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_scores(self, rows) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def class_margins(self, training: FeatureMatrix) -> np.ndarray | None:  # pragma: no cover
        """Per-class phrase evidence; ``training`` is the matrix this model was fit on."""
        raise NotImplementedError

    def _params(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


class ConstantModel(TrainedModel):
    """Single-class degenerate fit: predicts its only observed class."""

    def _fit(self, X, y):
        pass

    def predict_scores(self, rows):
        rows = self._coerce(rows)
        return np.ones((rows.shape[0], 1))

    def class_margins(self, training):
        return None  # one class: no discrimination signal

    def _params(self):
        return {"constant": True}

    @classmethod
    def _from_params(cls, head, params):
        return cls(*head)


class MultinomialNB(TrainedModel):
    """Laplace-smoothed multinomial naive Bayes over nonnegative evidence.

    Weighted feature schemes can produce negative values (phrase weights can
    be negative); those are clamped to 0 here because multinomial likelihoods
    need nonnegative counts. Other kinds consume raw values.
    """

    def _fit(self, X, y):
        alpha = self.hp["alpha"]
        Xc = X.maximum(0)
        k, F = len(self.classes_), self.n_features_
        log_prob = np.empty((k, F))
        prior = np.empty(k)
        for i, c in enumerate(self.classes_):
            mask = y == c
            prior[i] = mask.sum() / len(y)
            counts = np.asarray(Xc[mask].sum(axis=0)).ravel()
            if F:  # a zero-feature matrix leaves the (k, 0) likelihood table empty
                log_prob[i] = np.log(counts + alpha) - math.log(counts.sum() + alpha * F)
        self.class_log_prior_ = np.log(prior)
        self.feature_log_prob_ = log_prob

    def _log_posterior(self, rows):
        Xc = self._coerce(rows).maximum(0)
        return Xc @ self.feature_log_prob_.T + self.class_log_prior_

    def predict_scores(self, rows):
        return softmax(self._log_posterior(rows), axis=1)

    def class_margins(self, training):
        return _one_vs_best_rest(self.feature_log_prob_)

    def _params(self):
        return {
            "class_log_prior": self.class_log_prior_.tolist(),
            "feature_log_prob": self.feature_log_prob_.tolist(),
        }

    @classmethod
    def _from_params(cls, head, params):
        model = cls(*head)
        model.class_log_prior_ = np.asarray(params["class_log_prior"])
        model.feature_log_prob_ = np.asarray(params["feature_log_prob"])
        return model


def softmax_xent_loss_grad(W, b, X, y_local, l2):
    """Full-batch regularized cross-entropy loss and its analytic gradient.

    W: (k, F), b: (k,), y_local: class indices 0..k-1 aligned with X rows.
    Returns (loss, grad_W, grad_b). The bias is unregularized. This is the
    exact function the trainer descends: its step shares ``_xent_delta`` and
    takes the same products, bit for bit, on each batch. It is exposed so the
    gradient can be checked against finite differences.
    """
    probs = softmax(X @ W.T + b, axis=1)
    loss = _xent_loss(probs, y_local, W, l2)
    delta = _xent_delta(probs, y_local)
    return loss, (X.T @ delta).T + l2 * W, delta.sum(axis=0)


def _xent_loss(probs, y_local, W, l2):
    picked = probs[np.arange(len(y_local)), y_local]
    return -np.mean(np.log(np.maximum(picked, 1e-300))) + 0.5 * l2 * float(np.sum(W * W))


def _xent_delta(probs, y_local):
    """The mean loss's gradient with respect to the logits, computed in ``probs``."""
    n = len(y_local)
    probs[np.arange(n), y_local] -= 1.0
    probs /= n
    return probs


class _Rows(NamedTuple):
    """Rows of a CSR matrix as raw arrays: its structure plus each stored
    entry's row.

    The products sum each output element's terms in stored-entry order,
    starting from 0.0, as scipy's ``csr_matvecs``/``csc_matvecs`` do, so they
    equal ``X @ W.T`` and ``(X.T @ D).T`` on the same rows bit for bit.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row: np.ndarray
    n_cols: int

    @classmethod
    def of(cls, X):
        """All rows of CSR ``X``."""
        row = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
        return cls(X.indptr, X.indices, X.data, row, X.shape[1])

    @property
    def n_rows(self):
        return len(self.indptr) - 1

    def block(self, start, stop):
        """Rows [start, stop), as views of these arrays."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return _Rows(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            self.row[lo:hi] - start,
            self.n_cols,
        )

    def times(self, W):
        """``X @ W.T``, a C-ordered (n_rows, k) array."""
        k = W.shape[0]
        bins = self.row * k + np.arange(k)[:, None]
        terms = W[:, self.indices] * self.data
        return np.bincount(bins.ravel(), terms.ravel(), self.n_rows * k).reshape(self.n_rows, k)

    def t_times(self, D):
        """``(X.T @ D).T``, a (k, n_cols) array."""
        k = D.shape[1]
        bins = self.indices + self.n_cols * np.arange(k)[:, None]
        terms = D.T[:, self.row] * self.data
        return np.bincount(bins.ravel(), terms.ravel(), k * self.n_cols).reshape(k, self.n_cols)


class _MiniBatchLinear(TrainedModel):
    """Shared epoch/minibatch scaffolding for the two linear models."""

    def _fit(self, X, y):
        X = X.tocsr()
        k, F = len(self.classes_), self.n_features_
        y_local = np.searchsorted(self.classes_, y)
        self.W_ = np.zeros((k, F))
        self.b_ = np.zeros(k)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        batch = min(self.hp["batch_size"], n)
        lr0 = self.hp["learning_rate"]
        self.loss_history_ = [self._objective(X, y_local)]
        for epoch in range(self.hp["epochs"]):
            lr = lr0 / (1.0 + 0.05 * epoch)
            order = rng.permutation(n)
            shuffled = _Rows.of(X[order])  # one row copy per epoch; batches are its slices
            for start in range(0, n, batch):
                stop = min(start + batch, n)
                self._step(shuffled.block(start, stop), y_local[order[start:stop]], lr)
            loss = self._objective(X, y_local)
            self.loss_history_.append(loss)
            prev = self.loss_history_[-2]
            if abs(prev - loss) < _REL_TOL * max(1.0, abs(prev)):
                break

    def predict_scores(self, rows):
        rows = self._coerce(rows)
        return softmax(rows @ self.W_.T + self.b_, axis=1)

    def class_margins(self, training):
        return _one_vs_best_rest(self.W_)

    def _params(self):
        return {"W": self.W_.tolist(), "b": self.b_.tolist()}

    @classmethod
    def _from_params(cls, head, params):
        model = cls(*head)
        model.W_ = np.asarray(params["W"])
        model.b_ = np.asarray(params["b"])
        return model


class SoftmaxRegression(_MiniBatchLinear):
    """Multiclass logistic regression via mini-batch SGD on the softmax loss."""

    def _objective(self, X, y_local):
        probs = softmax(X @ self.W_.T + self.b_, axis=1)
        return _xent_loss(probs, y_local, self.W_, self.hp["l2"])

    def _step(self, batch, yb, lr):
        delta = _xent_delta(softmax(batch.times(self.W_) + self.b_, axis=1), yb)
        self.W_ -= lr * (batch.t_times(delta) + self.hp["l2"] * self.W_)
        self.b_ -= lr * delta.sum(axis=0)


class LinearSVMOvR(_MiniBatchLinear):
    """One-vs-rest linear SVM trained by hinge subgradient descent.

    Per class c the objective is 0.5*l2*||w_c||^2 + mean hinge(1 - y_c * f_c);
    prediction is argmax of margins, and scores softmax-normalize the margins
    so ensembles can average them with the probabilistic kinds.
    """

    def _signs(self, y_local, k):
        Y = -np.ones((len(y_local), k))
        Y[np.arange(len(y_local)), y_local] = 1.0
        return Y

    def _objective(self, X, y_local):
        margins = X @ self.W_.T + self.b_
        Y = self._signs(y_local, len(self.classes_))
        hinge = np.maximum(0.0, 1.0 - Y * margins).mean(axis=0).sum()
        return float(hinge + 0.5 * self.hp["l2"] * np.sum(self.W_ * self.W_))

    def _step(self, batch, yb, lr):
        nb = len(yb)
        margins = batch.times(self.W_) + self.b_
        Y = self._signs(yb, len(self.classes_))
        active = (1.0 - Y * margins > 0).astype(float) * Y  # (nb, k)
        gW = -batch.t_times(active) / nb + self.hp["l2"] * self.W_
        gb = -active.sum(axis=0) / nb
        self.W_ -= lr * gW
        self.b_ -= lr * gb


# ---------------------------------------------------------------------------
# random forest


class _Tree:
    """CART tree stored as parallel node arrays; splits found on binned codes.

    Nodes are appended to lists while the tree grows; ``freeze`` then turns
    the lists into arrays (also after loading) and maps each split node to
    its column in the dense submatrix of the ``used`` features.
    """

    __slots__ = ("feature", "threshold", "left", "right", "leaf_class", "used", "column")

    def __init__(self):
        self.feature, self.threshold = [], []
        self.left, self.right, self.leaf_class = [], [], []

    def _new_node(self):
        for arr, fill in (
            (self.feature, -1),
            (self.threshold, 0.0),
            (self.left, -1),
            (self.right, -1),
            (self.leaf_class, -1),
        ):
            arr.append(fill)
        return len(self.feature) - 1

    def freeze(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.leaf_class = np.asarray(self.leaf_class, dtype=np.int64)
        self.used = sorted(set(self.feature[self.feature >= 0].tolist()))
        self.column = np.searchsorted(self.used, self.feature)  # read only at split nodes

    def predict_local(self, dense_sub):
        """Route rows given a dense submatrix of this tree's ``used`` columns, in order."""
        node = np.zeros(dense_sub.shape[0], dtype=np.int64)
        leaf = self.leaf_class
        active = leaf[node] < 0
        while np.any(active):
            rows = np.nonzero(active)[0]
            at = node[rows]
            vals = dense_sub[rows, self.column[at]]
            node[rows] = np.where(vals <= self.threshold[at], self.left[at], self.right[at])
            active = leaf[node] < 0
        return leaf[node]


class _Bins(NamedTuple):
    """One fit's binned training matrix: the CSR structure with each stored
    entry's value code, and per feature the code of the value 0 (not always
    0: values can be negative) and the number of codes. Feature j's
    thresholds are ``thresholds[offsets[j]:offsets[j + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    codes: np.ndarray
    zero_code: np.ndarray
    n_codes: np.ndarray
    thresholds: np.ndarray
    offsets: np.ndarray


class RandomForest(TrainedModel):
    """Bagged CART forest with per-node feature subsampling.

    Split search runs on per-feature binned value codes (at most 32 candidate
    thresholds per feature, placed midway between adjacent observed values).
    A node visits only its rows' stored entries: a feature's zero-valued rows
    all share one code, whose class counts are the node's counts minus those
    of the feature's stored entries, so a node's histogram costs time in
    proportion to its nonzeros, not to its rows times the sampled features.
    Stored thresholds are the real midpoints, so prediction routes raw
    feature values and does not depend on the binning. Vote fractions over
    trees are the scores.
    """

    def _fit(self, X, y):
        hp = self.hp
        n = X.shape[0]
        bins = self._bin_entries(X)
        y_local = np.searchsorted(self.classes_, y)
        k = len(self.classes_)
        m = self._features_per_node()
        children = np.random.SeedSequence(self.seed).spawn(hp["n_trees"])
        self.trees_ = []
        for child in children:
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, n) if hp["bootstrap"] else np.arange(n)
            tree = _Tree()
            self._grow(tree, bins, y_local, k, np.sort(rows), 0, m, rng)
            tree.freeze()
            self.trees_.append(tree)

    def _features_per_node(self):
        frac = self.hp["feature_fraction"]
        if frac == "sqrt":
            return max(1, int(round(math.sqrt(self.n_features_))))
        return max(1, int(round(frac * self.n_features_)))

    @staticmethod
    def _bin_entries(X) -> _Bins:
        """Bin every stored entry of X against its feature's thresholds.

        A feature's thresholds are the midpoints between its adjacent
        distinct values, 0.0 among them when some row does not store it;
        more than 32 are thinned to 32 spread evenly. code(v) counts the
        thresholds below v (searchsorted, side="left"), so that
        code <= c  <=>  v <= thresholds[c]; training-time splits on codes and
        prediction-time splits on raw values therefore route identically.
        """
        X = X.tocsr()
        if not X.has_canonical_format:
            X = X.copy()
            X.sum_duplicates()
        n, F = X.shape
        stored = np.bincount(X.indices, minlength=F)
        unstored = np.nonzero((stored > 0) & (stored < n))[0]
        feat = np.concatenate((X.indices, unstored))
        value = np.concatenate((X.data, np.zeros(len(unstored))))
        order = np.lexsort((value, feat))
        feat, value = feat[order], value[order]
        distinct = np.ones(len(feat), dtype=bool)
        distinct[1:] = (feat[1:] != feat[:-1]) | (value[1:] != value[:-1])
        feat, value = feat[distinct], value[distinct]
        pair = feat[1:] == feat[:-1]
        mid_feat = feat[1:][pair]
        mids = ((value[:-1] + value[1:]) / 2.0)[pair]
        count = np.bincount(mid_feat, minlength=F)
        keep = count[mid_feat] <= 32
        first = np.cumsum(count) - count
        for j in np.nonzero(count > 32)[0]:
            keep[first[j] + np.linspace(0, count[j] - 1, 32).round().astype(int)] = True
        mid_feat, mids = mid_feat[keep], mids[keep]
        offsets = np.concatenate(([0], np.cumsum(np.bincount(mid_feat, minlength=F))))
        # An entry's code is the number of its feature's thresholds sorted before
        # it, with an entry placed before a threshold equal to its value.
        is_mid = np.arange(X.nnz + len(mids)) >= X.nnz
        order = np.lexsort(
            (is_mid, np.concatenate((X.data, mids)), np.concatenate((X.indices, mid_feat)))
        )
        below = np.cumsum(is_mid[order]) - is_mid[order]
        entries = order[~is_mid[order]]
        codes = np.empty(X.nnz, dtype=np.int64)
        codes[entries] = below[~is_mid[order]] - offsets[X.indices[entries]]
        zero_code = np.bincount(mid_feat[mids < 0.0], minlength=F)
        return _Bins(X.indptr, X.indices, codes, zero_code, np.diff(offsets) + 1, mids, offsets)

    def _grow(self, tree, bins, y_local, k, rows, depth, m, rng):
        node = tree._new_node()
        counts = np.bincount(y_local[rows], minlength=k)
        if (
            depth >= self.hp["max_depth"]
            or len(rows) < 2 * self.hp["min_samples_leaf"]
            or np.max(counts) == len(rows)
        ):
            tree.leaf_class[node] = int(self.classes_[np.argmax(counts)])
            return node
        split = self._best_split(bins, y_local, k, rows, m, rng, counts)
        if split is None:
            tree.leaf_class[node] = int(self.classes_[np.argmax(counts)])
            return node
        feat, thr, go_left = split
        tree.feature[node] = feat
        tree.threshold[node] = thr
        tree.left[node] = self._grow(tree, bins, y_local, k, rows[go_left], depth + 1, m, rng)
        tree.right[node] = self._grow(tree, bins, y_local, k, rows[~go_left], depth + 1, m, rng)
        return node

    def _best_split(self, bins, y_local, k, rows, m, rng, counts):
        """One histogram pass over the node's stored entries of the sampled features.

        Impurities are node-size-scaled Gini (n - sum(counts^2)/n) so the gain
        comparison never divides by child sizes. Ties resolve to the lowest
        feature index, then the lowest split code. Returns None or
        ``(feature, threshold, go_left)``, ``go_left`` a mask over ``rows``.
        """
        F = self.n_features_
        if F == 0:
            return None
        n_node = len(rows)
        parent_impurity = n_node - np.sum(counts.astype(float) ** 2) / n_node
        candidates = np.sort(rng.choice(F, size=min(m, F), replace=False))
        # the rows' stored entries, in row order; a row repeated by the bootstrap repeats them
        starts = bins.indptr[rows]
        lengths = bins.indptr[rows + 1] - starts
        entry = np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        slot = np.full(F, -1)
        slot[candidates] = np.arange(len(candidates))
        cand = slot[bins.indices[entry]]
        keep = cand >= 0
        entry, cand = entry[keep], cand[keep]
        position = np.repeat(np.arange(n_node), lengths)[keep]  # the entry's index into rows
        # A candidate with no entry here is constant on the node: all its splits are invalid.
        present = np.bincount(cand, minlength=len(candidates)) > 0
        if not present.any():
            return None
        # Integer class counts, class-major; each feature's codes are one
        # segment of the second axis, the features in ascending order.
        feats = candidates[present]
        n_codes = bins.n_codes[feats]
        a, slots = len(feats), int(n_codes.sum())
        first = np.cumsum(n_codes) - n_codes
        local = (np.cumsum(present) - 1)[cand]  # the entry's index into feats
        y_entry = y_local[rows[position]]
        hist = np.bincount(
            y_entry * slots + first[local] + bins.codes[entry], minlength=k * slots
        ).reshape(k, slots)
        stored = np.bincount(y_entry * a + local, minlength=k * a).reshape(k, a)
        zero = bins.zero_code[feats]
        hist[:, first + zero] += counts[:, None] - stored
        # split at code c: codes <= c go left (a feature's last code sends every row left)
        cum = np.cumsum(hist, axis=1)
        left = cum - np.repeat(cum[:, first] - hist[:, first], n_codes, axis=1)
        nl = left.sum(axis=0)
        nr = n_node - nl
        right = counts[:, None] - left
        impurity = (nl - (left**2).sum(axis=0) / np.maximum(nl, 1)) + (
            nr - (right**2).sum(axis=0) / np.maximum(nr, 1)
        )
        min_leaf = self.hp["min_samples_leaf"]
        impurity[(nl < min_leaf) | (nr < min_leaf)] = np.inf
        best = int(np.argmin(impurity))  # ties: lowest feature index, then lowest code
        fi = int(np.searchsorted(first, best, side="right")) - 1
        code = best - int(first[fi])
        gain = (parent_impurity - impurity[best]) / n_node
        if not np.isfinite(gain) or gain <= 1e-12:
            return None
        go_left = np.full(n_node, zero[fi] <= code)
        hit = local == fi
        go_left[position[hit]] = bins.codes[entry[hit]] <= code
        feat = int(feats[fi])
        return feat, float(bins.thresholds[bins.offsets[feat] + code]), go_left

    def predict_scores(self, rows):
        votes = self._vote_counts(self._coerce(rows).tocsc())
        return votes / len(self.trees_)

    def _route(self, Xc):
        """Per tree: the dense copy of its used columns of the CSC matrix
        ``Xc`` and each row's leaf, as a position in ``classes_``."""
        for tree in self.trees_:
            sub = Xc[:, tree.used].toarray()
            yield sub, np.searchsorted(self.classes_, tree.predict_local(sub))

    def _vote_counts(self, Xc):
        n = Xc.shape[0]
        votes = np.zeros((n, len(self.classes_)))
        for _, leaf_pos in self._route(Xc):
            votes[np.arange(n), leaf_pos] += 1.0
        return votes

    def permutation_importance(self, X, y, seed: int = 0, max_rows: int = 256) -> np.ndarray:
        """Mean accuracy drop on (a subsample of) the given rows — normally
        the training data — when one feature column is shuffled; features
        never used in any split have exactly zero importance and are skipped.
        Only the trees that split on the shuffled feature are re-routed; the
        other trees' votes are reused.
        """
        X, y = self._coerce(X), np.asarray(y)
        rng = np.random.default_rng(seed)
        if X.shape[0] > max_rows:
            keep = rng.choice(X.shape[0], size=max_rows, replace=False)
            keep.sort()
            X, y = X[keep], y[keep]
        Xc = X.tocsc()
        n, k = X.shape[0], len(self.classes_)
        subs, preds = [], []
        votes_base = np.zeros((n, k))
        row_ix = np.arange(n)
        for sub, leaf_pos in self._route(Xc):
            subs.append(sub)
            preds.append(leaf_pos)
            votes_base[row_ix, leaf_pos] += 1.0
        trees_with: dict[int, list[int]] = {}
        for t, tree in enumerate(self.trees_):
            for f in tree.used:
                trees_with.setdefault(f, []).append(t)

        base = np.mean(self.classes_[np.argmax(votes_base, axis=1)] == y)
        importance = np.zeros(self.n_features_)
        for feat in sorted(trees_with):
            col = Xc[:, [feat]].toarray().ravel()
            shuffled = col[rng.permutation(n)]
            votes = votes_base.copy()
            for t in trees_with[feat]:
                tree = self.trees_[t]
                local = tree.used.index(feat)
                saved = subs[t][:, local].copy()
                subs[t][:, local] = shuffled
                new_pred = np.searchsorted(self.classes_, tree.predict_local(subs[t]))
                subs[t][:, local] = saved
                votes[row_ix, preds[t]] -= 1.0
                votes[row_ix, new_pred] += 1.0
            acc = np.mean(self.classes_[np.argmax(votes, axis=1)] == y)
            importance[feat] = base - acc
        return importance

    def class_margins(self, training):
        """Each feature's permutation importance on ``training``, in the row
        of the majority true class among its nonzero training rows; ``-inf``
        elsewhere and for features without positive importance."""
        X, y = self._coerce(training), training.y
        importance = self.permutation_importance(X, y, seed=0)
        Xc = X.tocsc()
        margins = np.full((len(self.classes_), self.n_features_), -np.inf)
        for feat in np.nonzero(importance > 0)[0]:  # a shuffle that matters has nonzero rows
            rows = Xc.indices[Xc.indptr[feat] : Xc.indptr[feat + 1]]
            hit_class = np.argmax(np.bincount(y[rows]))
            margins[np.searchsorted(self.classes_, hit_class), feat] = importance[feat]
        return margins

    def _params(self):
        return {
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "leaf_class": t.leaf_class.tolist(),
                }
                for t in self.trees_
            ]
        }

    @classmethod
    def _from_params(cls, head, params):
        model = cls(*head)
        model.trees_ = []
        for spec in params["trees"]:
            tree = _Tree()
            tree.feature, tree.threshold = spec["feature"], spec["threshold"]
            tree.left, tree.right, tree.leaf_class = spec["left"], spec["right"], spec["leaf_class"]
            tree.freeze()
            model.trees_.append(tree)
        return model


def _one_vs_best_rest(M: np.ndarray) -> np.ndarray:
    """Per row i: M[i] − max over other rows (the one-vs-strongest-rival margin)."""
    k = M.shape[0]
    out = np.empty_like(M)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        out[i] = M[i] - M[others].max(axis=0)
    return out


# ---------------------------------------------------------------------------
# serialization

_MODEL_CLASSES = {
    "multinomial_nb": MultinomialNB,
    "logistic_regression": SoftmaxRegression,
    "linear_svm": LinearSVMOvR,
    "random_forest": RandomForest,
}


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format": _MODEL_FORMAT,
        "kind": model.kind,
        "hp": model.hp,
        "seed": model.seed,
        "classes": model.classes_.tolist(),
        "n_features": model.n_features_,
        "fingerprint": model.fingerprint,
        "constant": isinstance(model, ConstantModel),
        "params": model._params(),
    }


def model_from_dict(payload: dict) -> TrainedModel:
    if payload.get("format") != _MODEL_FORMAT:
        raise ValueError(f"not a model container (format={payload.get('format')!r})")
    _check_kind(payload.get("kind"))
    head = (
        payload["kind"],
        payload["hp"],
        payload["seed"],
        np.asarray(payload["classes"], dtype=np.int64),
        payload["n_features"],
        payload["fingerprint"],
    )
    cls = ConstantModel if payload["constant"] else _MODEL_CLASSES[payload["kind"]]
    return cls._from_params(head, payload["params"])


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_model(path, expected_fingerprint: str | None = None) -> TrainedModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    model = model_from_dict(payload)
    if expected_fingerprint is not None and model.fingerprint != expected_fingerprint:
        raise ValueError(
            f"model at {path} was trained against a different dictionary "
            f"(fingerprint {model.fingerprint[:12]}… != expected {expected_fingerprint[:12]}…)"
        )
    return model
