"""From-scratch classifier portfolio: multinomial NB, softmax regression,
linear SVM (one-vs-rest, squared hinge), and a random forest. Both linear
models minimize their full-batch regularized objective by L-BFGS.

Shared contracts:

  * models train on the label indices present in y and predict only those
    (``classes_``, ascending global label order);
  * ``predict_scores`` returns one row per document over ``classes_``, rows
    summing to 1 (NB: normalised posteriors; linear models: softmax of
    margins; forest: vote fractions), and argmax of a row equals ``predict``;
  * argmax ties resolve to the lowest label index;
  * training is deterministic given (kind, hyperparameters, matrix, seed);
  * rows are a ``FeatureMatrix`` (canonical CSR) from the dictionary the
    model was trained against: every entry point that reads rows refuses a
    matrix with another fingerprint or column count;
  * ``class_margins(training)`` is per-class phrase evidence of shape
    (len(classes_), n_features): larger is more indicative of the class,
    ``-inf`` is none; a constant model returns None.

Models serialize to a self-describing JSON-ready dict (``model_to_dict``)
carrying kind, hp, class set, parameters, and the dictionary fingerprint of
the training matrix. Each kind declares its saved arrays once (``_ARRAYS``)
and one writer and one reader serve them all; the forest saves its trees.
``model_from_dict`` checks the payload's head before using any of it, and
the reader each array's shape and that its values are finite: a malformed
payload raises a ``ValueError`` naming the field.
"""

from __future__ import annotations

import collections
import math
from typing import NamedTuple

import numpy as np
from scipy.special import log_softmax

from .features import FeatureMatrix, canonical_csr

KINDS = ("multinomial_nb", "logistic_regression", "linear_svm", "random_forest")

# name -> ("log", lo, hi) | ("int", lo, hi) | ("choice", options)
HP_SPACE = {
    "multinomial_nb": {
        "alpha": ("log", 1e-2, 10.0),
    },
    "logistic_regression": {
        "l2": ("log", 1e-7, 1e-1),
    },
    "linear_svm": {
        "l2": ("log", 1e-7, 1e-1),
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
    "logistic_regression": {"l2": 1e-4},
    "linear_svm": {"l2": 1e-4},
    "random_forest": {
        "n_trees": 40,
        "max_depth": 12,
        "feature_fraction": "sqrt",
        "min_samples_leaf": 1,
        "bootstrap": True,
    },
}

_MODEL_FORMAT = "sentigram-model/1"

# the linear models' L-BFGS fit
_LBFGS_MEMORY = 10  # curvature pairs kept
_LBFGS_MAX_ITER = 200  # steps
_LBFGS_REL_DECREASE = 1e-9  # a step lowering the objective by less, relatively, ends the fit


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
        if tag != "choice" and isinstance(value, bool):  # bool is a subclass of int
            raise ValueError(f"{kind}.{name}={value!r} is a bool, not a number")
        if tag == "log":
            if not (isinstance(value, (int, float)) and spec[1] <= value <= spec[2]):
                raise ValueError(f"{kind}.{name}={value!r} outside [{spec[1]}, {spec[2]}]")
            full[name] = float(value)
        elif tag == "int":
            if not (isinstance(value, (int, np.integer)) and spec[1] <= value <= spec[2]):
                raise ValueError(f"{kind}.{name}={value!r} outside integer [{spec[1]}, {spec[2]}]")
            full[name] = int(value)
        elif not any(value == o and type(value) is type(o) for o in spec[1]):  # 1 == 1.0 == True
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

    def _coerce(self, fm: FeatureMatrix):
        """The sparse rows of ``fm``, once it is known to be in this model's feature space."""
        if fm.fingerprint != self.fingerprint:
            raise ValueError("matrix was vectorized against a different dictionary than the model")
        if fm.n_features != self.n_features_:
            raise ValueError(f"expected {self.n_features_}-column rows, got {fm.n_features}")
        return fm.X

    def predict(self, fm: FeatureMatrix) -> np.ndarray:
        scores = self.predict_scores(fm)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_scores(self, fm: FeatureMatrix) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def class_margins(self, training: FeatureMatrix) -> np.ndarray | None:
        """Per-class phrase evidence; ``training`` is the matrix this model was fit on."""
        self._coerce(training)
        return self._margins(training)

    def _margins(self, training) -> np.ndarray | None:  # pragma: no cover - abstract
        raise NotImplementedError

    # each saved array as (attribute, shape over k classes and F features), keyed without "_"
    _ARRAYS: tuple = ()

    def _params(self) -> dict:
        return {name.removesuffix("_"): getattr(self, name).tolist() for name, _ in self._ARRAYS}

    @classmethod
    def _from_params(cls, head, params):
        """The model of a checked head, its arrays float64 in ``_fit``'s
        Fortran order, each of its declared shape and finite."""
        model = cls(*head)
        sizes = {"k": len(model.classes_), "F": model.n_features_}
        for name, dims in cls._ARRAYS:
            key, shape = name.removesuffix("_"), tuple(sizes[d] for d in dims)
            try:
                array = np.asarray(params[key], dtype=np.float64, order="F")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{model.kind} params {key!r}: unreadable ({exc!r})") from None
            if array.shape != shape:
                raise ValueError(f"{model.kind} params {key!r}: shape {array.shape}, not {shape}")
            if not np.isfinite(array).all():  # train keeps every saved array finite
                raise ValueError(f"{model.kind} params {key!r}: a value is not finite")
            setattr(model, name, array)
        return model


class ConstantModel(TrainedModel):
    """Single-class degenerate fit: predicts its only observed class."""

    def _fit(self, X, y):
        pass

    def predict_scores(self, fm):
        return np.ones((self._coerce(fm).shape[0], 1))

    def _margins(self, training):
        return None  # one class: no discrimination signal

    def _params(self):
        return {"constant": True}


class MultinomialNB(TrainedModel):
    """Laplace-smoothed multinomial naive Bayes over nonnegative evidence.

    Weighted feature schemes can produce negative values (phrase weights can
    be negative); those are clamped to 0 here because multinomial likelihoods
    need nonnegative counts. Other kinds consume raw values.
    """

    _ARRAYS = (("class_log_prior_", "k"), ("feature_log_prob_", "kF"))

    def _fit(self, X, y):
        alpha = self.hp["alpha"]
        Xc = _nonnegative(X)
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
        # Fortran order makes .T C-contiguous, which scipy's sparse @ dense
        # product reads in place; a strided operand is copied on every call
        self.feature_log_prob_ = np.asfortranarray(log_prob)

    def _log_posterior(self, fm):
        return _nonnegative(self._coerce(fm)) @ self.feature_log_prob_.T + self.class_log_prior_

    def predict_scores(self, fm):
        return _softmax(self._log_posterior(fm))

    def _margins(self, training):
        return _one_vs_best_rest(self.feature_log_prob_)


def _nonnegative(X):
    """Canonical rows X (a ``FeatureMatrix``'s) with negative values clamped
    to 0: new values over X's own index arrays, which are shared, not copied.
    A clamped entry stays stored as an explicit zero, which adds
    0 * log p = -0.0 to a posterior and 0.0 to a count and so changes no bit;
    as no entry is duplicated, each clamp acts on the value a dense matrix has."""
    return canonical_csr(np.maximum(X.data, 0), X.indices, X.indptr, X.shape)


def _softmax(z):
    """Row-wise softmax of a 2-D array: the three steps of
    ``scipy.special.softmax(z, axis=1)`` (subtract the row maximum,
    exponentiate, divide by the row sum), so the bits are the same, without
    its array-API dispatch (about 13 us against 4 us for a 1 x 3 block)."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent_loss_grad(W, b, X, y_local, l2):
    """Mean softmax cross-entropy plus 0.5*l2*||W||^2, and its analytic gradient.

    W: (k, F), b: (k,), y_local: class indices 0..k-1 aligned with X rows.
    Returns (loss, grad_W, grad_b). The bias is unregularized. This is the
    objective ``SoftmaxRegression`` minimizes; it is exposed so the gradient
    can be checked against finite differences.
    """
    return _softmax_xent(W, b, X, X.T, y_local, l2)


def _softmax_xent(W, b, X, XT, y_local, l2):
    """``softmax_xent_loss_grad`` given ``XT``, X's transpose, which a fit builds once."""
    n = len(y_local)
    rows = np.arange(n)
    log_probs = log_softmax(X @ W.T + b, axis=1)
    loss = -np.mean(log_probs[rows, y_local]) + 0.5 * l2 * np.sum(W * W)
    delta = np.exp(log_probs)  # the mean loss's gradient with respect to the logits
    delta[rows, y_local] -= 1.0
    delta /= n
    return loss, (XT @ delta).T + l2 * W, delta.sum(axis=0)


def squared_hinge_loss_grad(W, b, X, y_local, l2):
    """One-vs-rest squared hinge plus 0.5*l2*||W||^2, and its analytic gradient.

    Class c's target is +1 on its own rows and -1 on the others; a row adds
    max(0, 1 - target * margin)^2 per class (LIBLINEAR's default L2-loss SVM
    primal), summed over classes and averaged over rows. ``LinearSVMOvR``
    minimizes it; arguments and returns are ``softmax_xent_loss_grad``'s.
    """
    return _squared_hinge(W, b, X, X.T, _signs(y_local, len(b)), l2)


def _signs(y_local, k):
    """The one-vs-rest targets, (n, k): +1 in each row's own class, -1 elsewhere."""
    return np.where(np.arange(k) == y_local[:, None], 1.0, -1.0)


def _squared_hinge(W, b, X, XT, Y, l2):
    """``squared_hinge_loss_grad`` given ``XT``, X's transpose, and ``Y``, the
    ``_signs`` table of the labels, which a fit builds once each."""
    n = len(Y)
    slack = np.maximum(0.0, 1.0 - Y * (X @ W.T + b))
    loss = np.sum(slack * slack) / n + 0.5 * l2 * np.sum(W * W)
    delta = (-2.0 / n) * Y * slack
    return loss, (XT @ delta).T + l2 * W, delta.sum(axis=0)


def _dot(a, b):
    """``a . b`` by einsum's own loop: unlike BLAS, its sum does not vary with the thread count."""
    return float(np.einsum("i,i->", a, b))


def _lbfgs(fun, x):
    """Minimize ``fun`` (returning value and gradient) from ``x`` by L-BFGS
    (Liu & Nocedal, Math. Programming 1989) with Armijo backtracking; stop
    early when a step lowers the value by less than ``_LBFGS_REL_DECREASE``."""
    f, g = fun(x)
    pairs = collections.deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / y.s, y.y), oldest first
    for _ in range(_LBFGS_MAX_ITER):
        # two-loop recursion: q = H g, H starting from the newest pair's s.y / y.y
        q, alphas = g.copy(), []
        for s, y, rho, _ in reversed(pairs):
            alphas.append(rho * _dot(s, q))
            q -= alphas[-1] * y
        if pairs:
            q /= pairs[-1][2] * pairs[-1][3]
        for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * _dot(y, q)) * s
        slope = -_dot(g, q)
        if not slope < 0.0:  # a zero gradient
            break
        t = 1.0 if pairs else min(1.0, 1.0 / math.sqrt(-slope))  # a first step of length <= 1
        for _ in range(60):
            x_new = x - t * q
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no step lowers the value at this precision
        s, y = x_new - x, g_new - g
        ys, yy = _dot(y, s), _dot(y, y)
        if ys > np.finfo(float).eps * yy:  # keeps H positive definite
            pairs.append((s, y, 1.0 / ys, yy))
        done = f - f_new <= _LBFGS_REL_DECREASE * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return x


class _LinearModel(TrainedModel):
    """Weights ``W_`` (k, F) and biases ``b_`` minimizing the subclass's
    full-batch objective ``_loss_grad`` (W, b, X, XT, targets, l2) -> (loss,
    grad_W, grad_b), found by L-BFGS from zero. A fit builds X's transpose
    ``XT`` and the ``_targets`` of the labels once, not on every call: scipy
    builds each ``X.T`` through its checked constructor."""

    _ARRAYS = (("W_", "kF"), ("b_", "k"))

    @staticmethod
    def _targets(y_local, k):
        """What the objective reads of the labels: by default the class indices."""
        return y_local

    def _fit(self, X, y):
        k, F = len(self.classes_), self.n_features_
        XT, targets = X.T, self._targets(np.searchsorted(self.classes_, y), k)
        l2 = self.hp["l2"]

        def objective(theta):
            # theta is b, then W.T in C order, the operand scipy's sparse product reads in place
            W = theta[k:].reshape(F, k).T
            loss, grad_W, grad_b = self._loss_grad(W, theta[:k], X, XT, targets, l2)
            return loss, np.concatenate((grad_b, grad_W.T.ravel()))

        theta = _lbfgs(objective, np.zeros(k + k * F))
        self.b_ = theta[:k]
        self.W_ = theta[k:].reshape(F, k).T  # Fortran order: see MultinomialNB._fit

    def predict_scores(self, fm):
        return _softmax(self._coerce(fm) @ self.W_.T + self.b_)

    def _margins(self, training):
        return _one_vs_best_rest(self.W_)


class SoftmaxRegression(_LinearModel):
    """Multiclass logistic regression: full-batch L-BFGS on the mean softmax
    cross-entropy plus an L2 penalty (``softmax_xent_loss_grad``)."""

    _loss_grad = staticmethod(_softmax_xent)


class LinearSVMOvR(_LinearModel):
    """One-vs-rest linear SVM: full-batch L-BFGS on the squared hinge plus an
    L2 penalty (``squared_hinge_loss_grad``), all classes in one solve. Scores
    softmax-normalize the margins, so ensembles can average them with the
    probabilistic kinds."""

    _targets = staticmethod(_signs)
    _loss_grad = staticmethod(_squared_hinge)


# ---------------------------------------------------------------------------
# random forest


def _ranges(starts, lengths):
    """The concatenated ranges ``starts[i] : starts[i] + lengths[i]``."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


class _Tree(NamedTuple):
    """One CART tree as parallel node arrays, the form a model is saved in.

    Node 0 is the root and nodes are numbered in preorder, so a split node's
    ``left`` child is the next node. A split node has its ``feature``,
    ``threshold`` and tree-local ``left``/``right`` children; a leaf has
    ``feature`` -1 and its label in ``leaf_class`` (-1 at split nodes).
    Growing, saving and loading all use this one immutable form. Prediction
    does not walk these arrays: the forest packs all its trees into one
    ``_NodeTable``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray

    @classmethod
    def of(cls, columns):
        """The tree of five node columns, in field order, cast to the saved dtypes."""
        dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)
        return cls(*(np.asarray(col, dtype=dtype) for col, dtype in zip(columns, dtypes)))

    def fault(self, n_features, classes):
        """Why a loaded tree cannot route rows to a class, or None. Each node but
        the root must be one split node's child, after it, so routing ends."""
        n = len(self.feature) if self.feature.ndim == 1 else 0
        if n == 0 or any(col.shape != (n,) for col in self):
            return "its node columns are empty or differ in length"
        split = np.flatnonzero(self.feature >= 0)
        left, right = self.left[split], self.right[split]
        once = np.array_equal(np.sort(np.r_[left, right]), np.arange(1, n))
        if not once or np.any((left != split + 1) | (right <= left)):
            return "its split nodes' children do not form one tree"
        if np.any(self.feature >= n_features):
            return f"a split feature is not below n_features={n_features}"
        if not np.isfinite(self.threshold[split]).all():  # thresholds are midpoints of values
            return "a split threshold is not finite"
        if not np.isin(self.leaf_class[self.feature < 0], classes).all():
            return "a leaf class is not one of the model's classes"
        return None


class _NodeTable(NamedTuple):
    """A whole forest's nodes in one table, routed in lock step or walked.

    Node ``t`` is the root of tree ``t``; after the roots, the two children
    of each split node sit side by side, the left one first, so a split
    node's left child is ``right - 1``. Per node: ``column``, the split
    feature's position in ``used`` (the sorted union of the forest's split
    features); ``threshold``; ``right``; and ``leaf``, the leaf's class as a
    position in ``classes_`` (-1 at split nodes). A leaf is its own right
    child and has a NaN threshold, so ``value <= threshold`` is false there
    and a row that reached a leaf stays on it. ``depth`` is the deepest
    leaf's depth: that many routing passes take every row to its leaf.

    An unstored value is 0, so every row starts on each tree's zero path,
    the one an all-zero row takes: ``zero_leaf`` is the class of its leaf,
    per tree, and ``zero_votes`` counts those leaves per class. A row leaves
    a tree's zero path only where it stores a column tested on that path,
    so column ``c``'s zero-path trees, ``zero_ids[zero_ptr[c]:zero_ptr[c +
    1]]`` (ascending), name every (row, tree) pair a stored entry can divert.
    ``position`` maps each of the model's features to its place in ``used``
    (-1 for a feature no split reads).

    Column ``c``'s splitting trees, ``tree_ids[tree_ptr[c]:tree_ptr[c +
    1]]``, are every tree that tests it at any node. Permutation importance
    re-routes all of them when it shuffles the column: a row that has left
    the zero path can reach any node.
    """

    used: np.ndarray
    position: np.ndarray
    column: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    leaf: np.ndarray
    depth: int
    zero_leaf: np.ndarray
    zero_votes: np.ndarray
    zero_ptr: np.ndarray
    zero_ids: np.ndarray
    tree_ptr: np.ndarray
    tree_ids: np.ndarray

    @classmethod
    def pack(cls, trees, classes, n_features):
        nodes = _Tree(*map(np.concatenate, zip(*trees)))  # every tree's nodes, end to end
        sizes = [len(t.feature) for t in trees]
        n_trees, n_nodes = len(trees), sum(sizes)
        start = np.cumsum(sizes) - sizes
        feature = nodes.feature
        split = np.nonzero(feature >= 0)[0]
        leaves = np.nonzero(feature < 0)[0]
        # each node's packed id: the roots, then the children of each split node as a pair
        packed = np.empty(n_nodes, dtype=np.int64)
        packed[start] = np.arange(n_trees)
        pair = n_trees + 2 * np.arange(len(split))
        offset = np.repeat(start, sizes)[split]
        packed[nodes.left[split] + offset] = pair
        packed[nodes.right[split] + offset] = pair + 1
        at = packed[split]
        used = np.unique(feature[split])
        position = np.full(n_features, -1)
        position[used] = np.arange(len(used))
        column = np.zeros(n_nodes, dtype=np.int64)
        column[at] = position[feature[split]]
        threshold = np.full(n_nodes, np.nan)
        threshold[at] = nodes.threshold[split]
        right = np.arange(n_nodes)
        right[at] = pair + 1
        leaf = np.full(n_nodes, -1)
        leaf[packed[leaves]] = np.searchsorted(classes, nodes.leaf_class[leaves])
        depth, level = 0, np.arange(n_trees)
        while (level := level[leaf[level] < 0]).size:  # the split nodes at this depth
            depth += 1
            level = np.concatenate((right[level] - 1, right[level]))
        # (column, tree) pairs as column * n_trees + tree: first those on the zero path
        zero, on_path = np.arange(n_trees), [np.zeros(0, dtype=np.int64)]
        for _ in range(depth):
            testing = np.flatnonzero(leaf[zero] < 0)
            on_path.append(column[zero[testing]] * n_trees + testing)
            zero = right[zero] - (0.0 <= threshold[zero])
        anywhere = column[at] * n_trees + np.repeat(np.arange(n_trees), sizes)[split]

        def by_column(keys):
            """Each column's distinct trees among the pair keys, as (ptr, ids)."""
            keys = np.unique(keys)
            ptr = np.zeros(len(used) + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys // n_trees, minlength=len(used)), out=ptr[1:])
            return ptr, keys % n_trees

        return cls(used, position, column, threshold, right, leaf, depth, leaf[zero],
                   np.bincount(leaf[zero], minlength=len(classes)),
                   *by_column(np.concatenate(on_path)), *by_column(anywhere))

    def gather(self, X):
        """The dense (n, len(used)) block of X's ``used`` columns, and the
        row and ``used`` position of each stored entry that lands in it.

        X is canonical (a ``FeatureMatrix``'s rows or a row slice of them),
        so each stored entry is one cell; it is scattered through
        ``position``, which is cheaper than scipy's column indexing.
        """
        at = self.position[X.indices]
        kept = at >= 0
        rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))[kept]
        at = at[kept]
        dense = np.zeros((X.shape[0], len(self.used)))
        dense[rows, at] = X.data[kept]
        return dense, rows, at

    def diverted(self, X):
        """``gather``'s dense block, and the (row, tree) pairs whose row
        stores a column tested on the tree's zero path, as two flat arrays
        in row-major order. Every other pair ends on the tree's
        ``zero_leaf``."""
        dense, rows, at = self.gather(X)
        n, n_trees = dense.shape[0], len(self.zero_leaf)
        first = self.zero_ptr[at]
        count = self.zero_ptr[at + 1] - first
        hit = np.zeros(n * n_trees, dtype=bool)
        hit[np.repeat(rows, count) * n_trees + self.zero_ids[_ranges(first, count)]] = True
        pairs = np.flatnonzero(hit)
        return dense, pairs // n_trees, pairs % n_trees

    def leaves(self, X):
        """The leaf class each row of X reaches in each tree, an (n, n_trees)
        block, and ``gather``'s dense block: the zero-path leaves, with the
        ``diverted`` pairs routed."""
        dense, rows, trees = self.diverted(X)
        leaves = np.tile(self.zero_leaf, (dense.shape[0], 1))
        if rows.size:  # routing costs ``depth`` array passes even for no pairs
            leaves[rows, trees] = self.route(dense, rows, trees)
        return leaves, dense

    def votes(self, X):
        """Integer vote counts per row of X and class, (n, k): the zero-path
        votes, each ``diverted`` pair's vote moved to the leaf it reaches.

        One row is walked (``walk``); more rows are routed in lock step. On
        the benchmark's predict-stream forest (40 trees, depth 12; 2-core
        x86-64, Python 3.11, numpy 2.4) a walk costs about 5 us plus 6 us per
        tree it descends, and one row routed in arrays about 25 us with no
        pair and 55-60 us with any: they cross near 9 trees, which about 1%
        of that stream's documents reach.
        """
        if X.shape[0] == 1:
            return self.walk(X)[None]
        dense, rows, trees = self.diverted(X)
        n, k = dense.shape[0], len(self.zero_votes)
        votes = np.tile(self.zero_votes, (n, 1))
        if rows.size:
            moved = np.bincount(rows * k + self.route(dense, rows, trees), minlength=n * k)
            moved -= np.bincount(rows * k + self.zero_leaf[trees], minlength=n * k)
            votes += moved.reshape(n, k)
        return votes

    def route(self, dense, rows, trees):
        """The leaf class reached by each (row, tree) pair, given as two flat
        arrays of rows of ``dense`` (a ``gather`` block) and tree indices,
        which are also the trees' roots' ids."""
        flat = dense.ravel()
        row_start = rows * dense.shape[1]
        node = trees
        for _ in range(self.depth):
            goes_left = flat[row_start + self.column[node]] <= self.threshold[node]
            node = self.right[node] - goes_left
        return self.leaf[node]

    def walk(self, X):
        """The vote counts per class, (k,), of X's one row: the zero-path
        votes, with the vote of each tree whose zero path tests a column the
        row stores moved to the leaf ``descend`` reaches."""
        at = self.position[X.indices]
        kept = at >= 0
        at = at[kept]
        row = np.zeros(len(self.used))
        row[at] = X.data[kept]
        live = set()
        for c in at.tolist():
            live.update(self.zero_ids[self.zero_ptr[c] : self.zero_ptr[c + 1]].tolist())
        votes = self.zero_votes.copy()
        for tree in live:
            votes[self.zero_leaf[tree]] -= 1
            votes[self.descend(row, tree)] += 1
        return votes

    def descend(self, row, node):
        """The leaf class one dense row of ``used`` values reaches from
        ``node``, node by node: a few scalar reads per level."""
        column, threshold, right, leaf = self.column, self.threshold, self.right, self.leaf
        while leaf[node] < 0:
            node = right[node] - (row[column[node]] <= threshold[node])
        return leaf[node]


class _Bins(NamedTuple):
    """One fit's binned training matrix: the CSR structure with each stored
    entry's value code, and per feature the code of the value 0 (not always
    0: values can be negative) and the number of codes. Feature j's
    thresholds are ``thresholds[offsets[j]:offsets[j + 1]]``.

    The same entries by column: feature j's ``stored[j]`` entries are
    ``col_rows[col_ptr[j]:col_ptr[j + 1]]`` with codes ``col_codes[...]``,
    in row order, the rows in the CSR's own index dtype. The fit drops the
    bins when it ends, so a model keeps none of this."""

    indptr: np.ndarray
    indices: np.ndarray
    codes: np.ndarray
    zero_code: np.ndarray
    n_codes: np.ndarray
    thresholds: np.ndarray
    offsets: np.ndarray
    stored: np.ndarray
    col_ptr: np.ndarray
    col_rows: np.ndarray
    col_codes: np.ndarray

    def by_rows(self, rows, candidates, starts, lengths):
        """The stored entries of ``rows`` (sorted; ``starts`` and ``lengths``
        their CSR spans) in the sampled ``candidates`` (ascending), as three
        arrays: each entry's index into ``candidates``, its code, and its
        row's index into ``rows``. A row that ``rows`` repeats repeats them."""
        entry = _ranges(starts, lengths)
        slot = np.full(len(self.stored), -1)
        slot[candidates] = np.arange(len(candidates))
        cand = slot[self.indices[entry]]
        keep = cand >= 0
        return cand[keep], self.codes[entry[keep]], np.repeat(np.arange(len(rows)), lengths)[keep]

    def by_columns(self, rows, candidates, col_lengths):
        """``by_rows``'s entries, in another order, read from the columns of
        ``candidates`` (``col_lengths`` their ``stored`` counts): each entry
        whose row is in ``rows``, repeated as often as ``rows`` repeats the
        row, the copies at the row's positions in ``rows``."""
        entry = _ranges(self.col_ptr[candidates], col_lengths)
        row = self.col_rows[entry]
        copies = np.bincount(rows, minlength=len(self.indptr) - 1)
        repeats = copies[row]
        cand = np.repeat(np.repeat(np.arange(len(candidates)), col_lengths), repeats)
        first_copy = np.cumsum(copies) - copies  # rows is sorted: a row's copies sit together
        return cand, np.repeat(self.col_codes[entry], repeats), _ranges(first_copy[row], repeats)


class RandomForest(TrainedModel):
    """Bagged CART forest with per-node feature subsampling.

    Split search runs on per-feature binned value codes (at most 32 candidate
    thresholds per feature, placed midway between adjacent observed values).
    A node counts only stored entries of its sampled features: a feature's
    zero-valued rows all share one code, whose class counts are the node's
    counts minus those of the feature's stored entries. It reads them from
    whichever holds fewer entries, its rows or its sampled features' columns
    (as sparsity-aware split finding does over a column block, Chen and
    Guestrin, KDD 2016), so a node's histogram costs time in proportion to
    the smaller, not to its rows times the sampled features.
    Stored thresholds are the real midpoints, so prediction routes raw
    feature values and does not depend on the binning.

    ``trees_`` holds the trees in the one form a model saves (``_Tree``); the
    benchmark harness reads it, so it stays beside the packed table. After
    fitting or loading, the trees are packed into one ``_NodeTable`` (the
    flattened traversal of Asadi, Lin and de Vries, TKDE 2014). A row that
    stores no column tested on a tree's zero path (the path an all-zero row
    takes) ends on that tree's zero-path leaf, so, as in QuickScorer
    (Lucchese et al., SIGIR 2015), tests whose outcome is already known are
    skipped: every row starts from the zero-path votes, and only the trees
    a stored entry can divert are visited. One document walks each such
    tree from its root; a batch gathers the dense block of the forest's
    split features once and routes its (row, tree) pairs one level down per
    pass, all trees at once. Scores are integer vote counts over the number
    of trees, so they do not depend on the order of the counting.
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
            nodes = []
            self._grow(nodes, bins, y_local, k, np.sort(rows), 0, m, rng)
            self.trees_.append(_Tree.of(zip(*nodes)))
        self._table = _NodeTable.pack(self.trees_, self.classes_, self.n_features_)

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
        X is canonical (a ``FeatureMatrix``'s rows): no entry is stored twice.
        """
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
        codes = np.empty(X.nnz, dtype=np.uint8)  # at most 33 codes a feature
        codes[entries] = below[~is_mid[order]] - offsets[X.indices[entries]]
        zero_code = np.bincount(mid_feat[mids < 0.0], minlength=F)
        by_column = np.argsort(X.indices, kind="stable")  # a row's entries stay in row order
        col_rows = np.repeat(np.arange(n, dtype=X.indices.dtype), np.diff(X.indptr))[by_column]
        col_ptr = np.concatenate(([0], np.cumsum(stored)))
        return _Bins(X.indptr, X.indices, codes, zero_code, np.diff(offsets) + 1, mids, offsets,
                     stored, col_ptr, col_rows, codes[by_column])

    def _grow(self, nodes, bins, y_local, k, rows, depth, m, rng):
        """Append the subtree of ``rows`` to ``nodes`` in preorder, one
        ``[feature, threshold, left, right, leaf_class]`` row per node, and
        return its root's index."""
        node = len(nodes)
        counts = np.bincount(y_local[rows], minlength=k)
        grow = depth < self.hp["max_depth"] and len(rows) >= 2 * self.hp["min_samples_leaf"]
        grow = grow and np.max(counts) < len(rows)  # not pure
        split = self._best_split(bins, y_local, k, rows, m, rng, counts) if grow else None
        if split is None:
            nodes.append([-1, 0.0, -1, -1, int(self.classes_[np.argmax(counts)])])
            return node
        feat, thr, go_left = split
        nodes.append([feat, thr, node + 1, -1, -1])
        self._grow(nodes, bins, y_local, k, rows[go_left], depth + 1, m, rng)
        nodes[node][3] = self._grow(nodes, bins, y_local, k, rows[~go_left], depth + 1, m, rng)
        return node

    def _best_split(self, bins, y_local, k, rows, m, rng, counts):
        """One histogram pass over the node's stored entries of the sampled features.

        The entries come from the node's rows or, when they hold fewer, from
        the sampled features' columns, each entry there repeated as often as
        the bootstrap repeats its row; the counts are the same integers.
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
        # each stored entry of the sampled features here, from the rows or the columns
        starts = bins.indptr[rows]
        lengths = bins.indptr[rows + 1] - starts
        col_lengths = bins.stored[candidates]
        if col_lengths.sum() < lengths.sum():
            cand, codes, position = bins.by_columns(rows, candidates, col_lengths)
        else:
            cand, codes, position = bins.by_rows(rows, candidates, starts, lengths)
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
            y_entry * slots + first[local] + codes, minlength=k * slots
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
        go_left[position[hit]] = codes[hit] <= code
        feat = int(feats[fi])
        return feat, float(bins.thresholds[bins.offsets[feat] + code]), go_left

    def predict_scores(self, fm):
        return self._table.votes(self._coerce(fm)) / len(self.trees_)

    def _votes(self, leaves):
        """Integer vote counts per row and class, (n, k), from an (n, trees) leaf-class block."""
        n, k = leaves.shape[0], len(self.classes_)
        at = np.arange(n)[:, None] * k + leaves
        return np.bincount(at.ravel(), minlength=n * k).reshape(n, k)

    def permutation_importance(
        self, training: FeatureMatrix, seed: int = 0, max_rows: int = 256
    ) -> np.ndarray:
        """Mean accuracy drop on (a subsample of) the labeled rows of
        ``training`` when one feature column is shuffled; features never used
        in any split have exactly zero importance and are skipped. The rows'
        leaves come from the batch leaf map (``_NodeTable.leaves``). A shuffle
        re-routes, from their roots, every tree that splits on the shuffled
        feature at any node, since a row that has left a zero path can reach
        any node; the other trees' votes are reused.
        """
        X, y = self._coerce(training), training.y
        rng = np.random.default_rng(seed)
        if X.shape[0] > max_rows:
            keep = rng.choice(X.shape[0], size=max_rows, replace=False)
            keep.sort()
            X, y = X[keep], y[keep]
        table = self._table
        n = X.shape[0]
        base_leaves, dense = table.leaves(X)
        votes_base = self._votes(base_leaves)
        base = np.mean(self.classes_[np.argmax(votes_base, axis=1)] == y)
        importance = np.zeros(self.n_features_)
        for j in range(len(table.used)):  # ascending feature order, as the draws assume
            trees = table.tree_ids[table.tree_ptr[j] : table.tree_ptr[j + 1]]
            col = dense[:, j].copy()
            dense[:, j] = col[rng.permutation(n)]
            leaves = table.route(dense, np.repeat(np.arange(n), len(trees)), np.tile(trees, n))
            dense[:, j] = col
            votes = (
                votes_base
                - self._votes(base_leaves[:, trees])
                + self._votes(leaves.reshape(n, len(trees)))
            )
            acc = np.mean(self.classes_[np.argmax(votes, axis=1)] == y)
            importance[table.used[j]] = base - acc
        return importance

    def _margins(self, training):
        """Each feature's permutation importance on ``training``, in the row
        of the majority true class among its nonzero training rows; ``-inf``
        elsewhere and for features without positive importance."""
        importance = self.permutation_importance(training, seed=0)
        y, Xc = training.y, training.X.tocsc()
        margins = np.full((len(self.classes_), self.n_features_), -np.inf)
        for feat in np.nonzero(importance > 0)[0]:  # a shuffle that matters has nonzero rows
            rows = Xc.indices[Xc.indptr[feat] : Xc.indptr[feat + 1]]
            hit_class = np.argmax(np.bincount(y[rows]))
            margins[np.searchsorted(self.classes_, hit_class), feat] = importance[feat]
        return margins

    def _params(self):
        return {"trees": [{f: getattr(t, f).tolist() for f in _Tree._fields} for t in self.trees_]}

    @classmethod
    def _from_params(cls, head, params):
        """The saved forest; each tree is checked once, as a model file is
        outside input and a malformed tree could route forever or misvote."""
        model = super()._from_params(head, params)
        if not isinstance(params, dict) or not params.get("trees"):
            raise ValueError("random forest payload has no trees")
        model.trees_ = []
        for i, spec in enumerate(params["trees"]):
            try:
                tree = _Tree.of(spec[f] for f in _Tree._fields)
                fault = tree.fault(model.n_features_, model.classes_)
            except (KeyError, TypeError, ValueError) as exc:
                fault = f"unreadable node columns ({exc!r})"
            if fault:
                raise ValueError(f"random forest tree {i}: {fault}")
            model.trees_.append(tree)
        model._table = _NodeTable.pack(model.trees_, model.classes_, model.n_features_)
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
    """The saved model; its head is checked before any of it is used, and the
    kind's reader checks ``params``."""
    if not isinstance(payload, dict):
        raise ValueError("model payload is not a JSON object")
    if payload.get("format") != _MODEL_FORMAT:
        raise ValueError(f"not a model container (format={payload.get('format')!r})")
    kind = payload.get("kind")
    _check_kind(kind)
    if not payload.get("fingerprint"):
        raise ValueError("model payload has no dictionary fingerprint")
    for key in ("hp", "seed", "classes", "n_features", "constant", "params"):
        if key not in payload:
            raise ValueError(f"{kind} payload has no {key!r}")
    hp, classes, constant = payload["hp"], payload["classes"], payload["constant"]
    if not isinstance(hp, dict):
        raise ValueError(f"{kind} payload: hp={hp!r} is not a JSON object")
    for key in ("seed", "n_features"):
        if not _is_count(payload[key]):
            raise ValueError(f"{kind} payload: {key}={payload[key]!r} is not a non-negative int")
    ints = isinstance(classes, list) and all(map(_is_count, classes))
    if not (classes and ints and classes == sorted(set(classes))):
        raise ValueError(f"{kind} payload: classes={classes!r} are not ascending non-negative ints")
    if type(constant) is not bool or constant != (len(classes) == 1):
        raise ValueError(f"{kind} payload: constant={constant!r} does not match classes={classes}")
    head = (kind, validate_hp(kind, hp), payload["seed"], classes, payload["n_features"],
            payload["fingerprint"])
    cls = ConstantModel if constant else _MODEL_CLASSES[kind]
    return cls._from_params(head, payload["params"])


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # bool is a subclass of int and is refused too
