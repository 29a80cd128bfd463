"""From-scratch classifier portfolio: multinomial NB, softmax regression,
linear SVM (one-vs-rest, squared hinge), and a random forest: the search
space, ``train``, each kind's model and the saved-model schema. The linear
kinds fit with the L-BFGS engine in ``linear``, the forest with the CART
engine in ``forest``.

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

import math

import numpy as np

from .features import FeatureMatrix, canonical_csr
from .forest import _NodeTable, _Tree, grow_forest
from .linear import _signs, _softmax_xent, _squared_hinge, fit_linear

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
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


class _LinearModel(TrainedModel):
    """Weights ``W_`` (k, F) and biases ``b_`` minimizing the subclass's
    full-batch objective ``_loss_grad`` (W, b, X, XT, targets, l2) -> (loss,
    grad_W, grad_b) by ``linear.fit_linear``; ``_targets`` makes what the
    objective reads of the labels."""

    _ARRAYS = (("W_", "kF"), ("b_", "k"))

    @staticmethod
    def _targets(y_local, k):
        """What the objective reads of the labels: by default the class indices."""
        return y_local

    def _fit(self, X, y):
        k = len(self.classes_)
        targets = self._targets(np.searchsorted(self.classes_, y), k)
        self.W_, self.b_ = fit_linear(self._loss_grad, X, targets, k, self.hp["l2"])

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


class RandomForest(TrainedModel):
    """Bagged CART forest with per-node feature subsampling (the ``forest``
    engine). ``trees_`` holds the trees in the one form a model saves
    (``_Tree``); the benchmark harness reads it, so it stays beside the node
    table packed after fitting or loading. Scores are vote fractions."""

    def _fit(self, X, y):
        self.trees_ = grow_forest(X, np.searchsorted(self.classes_, y), self.classes_, self.seed,
                                  **self.hp)
        self._table = _NodeTable.pack(self.trees_, self.classes_, self.n_features_)

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
        trees = params.get("trees") if isinstance(params, dict) else None
        if not trees:
            raise ValueError("random forest payload has no trees")
        if not isinstance(trees, list):
            raise ValueError(f"random forest params 'trees': {trees!r} is not a list")
        model.trees_ = []
        for i, spec in enumerate(trees):
            try:
                columns = [spec[f] for f in _Tree._fields]
                fault = _saved_tree_fault(columns)
                if fault is None:
                    tree = _Tree.of(columns)
                    fault = tree.fault(model.n_features_, model.classes_)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
            raise ValueError(f"{kind} payload: {key}={payload[key]!r} is not a non-negative int64")
    ints = isinstance(classes, list) and all(map(_is_count, classes))
    if not (classes and ints and classes == sorted(set(classes))):
        raise ValueError(f"{kind} payload: classes={classes!r} are not ascending non-negative "
                         "int64s")
    if type(constant) is not bool or constant != (len(classes) == 1):
        raise ValueError(f"{kind} payload: constant={constant!r} does not match classes={classes}")
    head = (kind, validate_hp(kind, hp), payload["seed"], classes, payload["n_features"],
            payload["fingerprint"])
    cls = ConstantModel if constant else _MODEL_CLASSES[kind]
    return cls._from_params(head, payload["params"])


def _saved_tree_fault(columns):
    """Why saved node columns, in ``_Tree`` field order, cannot be cast to a
    tree, or None. The cast in ``_Tree.of`` would truncate an integer
    column's 1.5 and overflow on its 1e30, so those must hold JSON integers
    within int64."""
    for field, dtype, col in zip(_Tree._fields, _Tree._dtypes, columns):
        if not isinstance(col, list):
            return f"unreadable node columns ({field!r} is not a list)"
        if dtype is np.int64 and not all(map(_is_int64, col)):
            return f"node column {field!r} holds a value that is not an int64"
    return None


def _is_int64(value) -> bool:
    """Whether ``value`` is a JSON integer that int64 holds; bool, a subclass of int, is not."""
    return type(value) is int and -(2**63) <= value < 2**63


def _is_count(value) -> bool:
    return _is_int64(value) and value >= 0

