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
    exact function the trainer descends, exposed so the gradient can be
    checked against finite differences.
    """
    n = X.shape[0]
    logits = X @ W.T + b
    probs = softmax(logits, axis=1)
    picked = probs[np.arange(n), y_local]
    loss = -np.mean(np.log(np.maximum(picked, 1e-300))) + 0.5 * l2 * float(np.sum(W * W))
    delta = probs
    delta[np.arange(n), y_local] -= 1.0
    delta /= n
    grad_W = (X.T @ delta).T + l2 * W
    grad_b = delta.sum(axis=0)
    return loss, grad_W, grad_b


class _MiniBatchLinear(TrainedModel):
    """Shared epoch/minibatch scaffolding for the two linear models."""

    def _fit(self, X, y):
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
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                self._step(X[idx], y_local[idx], lr)
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
        return softmax_xent_loss_grad(self.W_, self.b_, X, y_local, self.hp["l2"])[0]

    def _step(self, Xb, yb, lr):
        _, gW, gb = softmax_xent_loss_grad(self.W_, self.b_, Xb, yb, self.hp["l2"])
        self.W_ -= lr * gW
        self.b_ -= lr * gb


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

    def _step(self, Xb, yb, lr):
        nb = Xb.shape[0]
        margins = Xb @ self.W_.T + self.b_
        Y = self._signs(yb, len(self.classes_))
        active = (1.0 - Y * margins > 0).astype(float) * Y  # (nb, k)
        gW = -(Xb.T @ active).T / nb + self.hp["l2"] * self.W_
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


class RandomForest(TrainedModel):
    """Bagged CART forest with per-node feature subsampling.

    Split search runs on per-feature binned value codes (at most 32 candidate
    thresholds per feature, placed midway between adjacent observed values),
    which keeps node evaluation linear in the node size. Stored thresholds
    are the real midpoints, so prediction routes raw feature values and does
    not depend on the binning. Vote fractions over trees are the scores.
    """

    def _fit(self, X, y):
        hp = self.hp
        n = X.shape[0]
        codes, thresholds = self._bin_columns(X.tocsc())
        y_local = np.searchsorted(self.classes_, y)
        k = len(self.classes_)
        m = self._features_per_node()
        children = np.random.SeedSequence(self.seed).spawn(hp["n_trees"])
        self.trees_ = []
        for child in children:
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, n) if hp["bootstrap"] else np.arange(n)
            tree = _Tree()
            self._grow(tree, codes, thresholds, y_local, k, np.sort(rows), 0, m, rng)
            tree.freeze()
            self.trees_.append(tree)

    def _features_per_node(self):
        frac = self.hp["feature_fraction"]
        if frac == "sqrt":
            return max(1, int(round(math.sqrt(self.n_features_))))
        return max(1, int(round(frac * self.n_features_)))

    def _bin_columns(self, Xc):
        """Per-feature uint8 codes plus the real-valued candidate thresholds.

        code(v) is computed with searchsorted(side="left") so that
        code <= c  <=>  v <= thresholds[c]; training-time splits on codes and
        prediction-time splits on raw values therefore route identically.
        """
        n, F = Xc.shape
        codes = np.zeros((F, n), dtype=np.uint8)
        thresholds: list[np.ndarray] = [np.empty(0)] * F
        for j in range(F):
            lo, hi = Xc.indptr[j], Xc.indptr[j + 1]
            vals, where = Xc.data[lo:hi], Xc.indices[lo:hi]
            if len(vals) == 0:
                continue  # all-zero column: constant, unsplittable
            uniq = np.unique(vals)
            if len(vals) < n:
                uniq = np.unique(np.append(uniq, 0.0))
            col = np.zeros(n)
            col[where] = vals
            if len(uniq) < 2:
                continue
            mids = (uniq[:-1] + uniq[1:]) / 2.0
            if len(mids) > 32:
                mids = mids[np.linspace(0, len(mids) - 1, 32).round().astype(int)]
            codes[j] = np.searchsorted(mids, col, side="left")
            thresholds[j] = mids
        return codes, thresholds

    def _grow(self, tree, codes, thresholds, y_local, k, rows, depth, m, rng):
        node = tree._new_node()
        counts = np.bincount(y_local[rows], minlength=k)
        if (
            depth >= self.hp["max_depth"]
            or len(rows) < 2 * self.hp["min_samples_leaf"]
            or np.max(counts) == len(rows)
        ):
            tree.leaf_class[node] = int(self.classes_[np.argmax(counts)])
            return node
        split = self._best_split(codes, thresholds, y_local, k, rows, m, rng, counts)
        if split is None:
            tree.leaf_class[node] = int(self.classes_[np.argmax(counts)])
            return node
        feat, code, thr = split
        go_left = codes[feat, rows] <= code
        tree.feature[node] = feat
        tree.threshold[node] = thr
        tree.left[node] = self._grow(
            tree, codes, thresholds, y_local, k, rows[go_left], depth + 1, m, rng
        )
        tree.right[node] = self._grow(
            tree, codes, thresholds, y_local, k, rows[~go_left], depth + 1, m, rng
        )
        return node

    def _best_split(self, codes, thresholds, y_local, k, rows, m, rng, counts):
        """One vectorized histogram pass over all sampled features.

        Impurities are node-size-scaled Gini (n - sum(counts^2)/n) so the gain
        comparison never divides by child sizes. Ties resolve to the lowest
        feature index, then the lowest split code.
        """
        if self.n_features_ == 0:
            return None
        n_node = len(rows)
        parent_impurity = n_node - np.sum(counts.astype(float) ** 2) / n_node
        candidates = np.sort(
            rng.choice(self.n_features_, size=min(m, self.n_features_), replace=False)
        )
        n_codes = np.asarray([len(thresholds[f]) + 1 for f in candidates])
        max_codes = int(n_codes.max())
        if max_codes < 2:
            return None
        y_rows = y_local[rows]
        sub = codes[np.ix_(candidates, rows)]  # (m, n_node)
        hist = np.zeros((len(candidates), max_codes, k))
        np.add.at(hist, (np.arange(len(candidates))[:, None], sub, y_rows[None, :]), 1.0)
        left = np.cumsum(hist, axis=1)[:, :-1, :]  # split at code c: codes <= c go left
        nl = left.sum(axis=2)
        nr = n_node - nl
        right = counts.astype(float)[None, None, :] - left
        safe_nl = np.maximum(nl, 1.0)
        safe_nr = np.maximum(nr, 1.0)
        impurity = (nl - (left**2).sum(axis=2) / safe_nl) + (nr - (right**2).sum(axis=2) / safe_nr)
        min_leaf = self.hp["min_samples_leaf"]
        invalid = (
            (nl < min_leaf)
            | (nr < min_leaf)
            | (np.arange(max_codes - 1)[None, :] >= (n_codes - 1)[:, None])
        )
        impurity[invalid] = np.inf
        flat = int(np.argmin(impurity))  # ties: lowest feature index, then lowest code
        fi, code = divmod(flat, max_codes - 1)
        gain = (parent_impurity - impurity[fi, code]) / n_node
        if not np.isfinite(gain) or gain <= 1e-12:
            return None
        feat = int(candidates[fi])
        return feat, code, float(thresholds[feat][code])

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
