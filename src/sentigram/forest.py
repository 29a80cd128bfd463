"""CART on canonical CSR rows, the random forest's engine: ``grow_forest``
grows the trees and ``_NodeTable`` routes rows through them.

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

Trees are grown, saved and loaded in one form (``_Tree``). For prediction
the trees are packed into one ``_NodeTable`` (the flattened traversal of
Asadi, Lin and de Vries, TKDE 2014). A row that stores no column tested on
a tree's zero path (the path an all-zero row takes) ends on that tree's
zero-path leaf, so, as in QuickScorer (Lucchese et al., SIGIR 2015), tests
whose outcome is already known are skipped: every row starts from the
zero-path votes, and only the trees a stored entry can divert are visited.
One document walks each such tree from its root; a batch gathers the dense
block of the forest's split features once and routes its (row, tree) pairs
one level down per pass, all trees at once. Votes are integer counts, so
they do not depend on the order of the counting.
"""

import math
from typing import NamedTuple

import numpy as np


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

    _dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)  # the saved dtypes

    @classmethod
    def of(cls, columns):
        """The tree of five node columns, in field order, cast to the saved dtypes."""
        return cls(*(np.asarray(col, dtype=dtype) for col, dtype in zip(columns, cls._dtypes)))

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


def grow_forest(X, y_local, classes, seed, n_trees, max_depth, feature_fraction,
                min_samples_leaf, bootstrap):
    """The trees of a bagged forest on canonical rows X, labels ``y_local``
    indexing ``classes``, under the forest's hyperparameters. Tree t draws its
    bootstrap rows, then its nodes' features in preorder, from seed's t-th child."""
    n, F = X.shape
    bins = _bin_entries(X)
    k = len(classes)
    m = _features_per_node(feature_fraction, F)

    def grow(nodes, rows, depth, rng):
        """Append the subtree of ``rows`` to ``nodes`` in preorder, one
        ``[feature, threshold, left, right, leaf_class]`` row per node, and
        return its root's index."""
        node = len(nodes)
        counts = np.bincount(y_local[rows], minlength=k)
        splittable = depth < max_depth and len(rows) >= 2 * min_samples_leaf
        splittable = splittable and np.max(counts) < len(rows)  # not pure
        split = (_best_split(bins, y_local, k, rows, m, rng, counts, F, min_samples_leaf)
                 if splittable else None)
        if split is None:
            nodes.append([-1, 0.0, -1, -1, int(classes[np.argmax(counts)])])
            return node
        feat, thr, go_left = split
        nodes.append([feat, thr, node + 1, -1, -1])
        grow(nodes, rows[go_left], depth + 1, rng)
        nodes[node][3] = grow(nodes, rows[~go_left], depth + 1, rng)
        return node

    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, n) if bootstrap else np.arange(n)
        nodes = []
        grow(nodes, np.sort(rows), 0, rng)
        trees.append(_Tree.of(zip(*nodes)))
    return trees


def _features_per_node(feature_fraction, n_features):
    if feature_fraction == "sqrt":
        return max(1, int(round(math.sqrt(n_features))))
    return max(1, int(round(feature_fraction * n_features)))


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


def _best_split(bins, y_local, k, rows, m, rng, counts, n_features, min_leaf):
    """One histogram pass over the node's stored entries of the sampled features.

    The entries come from the node's rows or, when they hold fewer, from
    the sampled features' columns, each entry there repeated as often as
    the bootstrap repeats its row; the counts are the same integers.
    Impurities are node-size-scaled Gini (n - sum(counts^2)/n) so the gain
    comparison never divides by child sizes. Ties resolve to the lowest
    feature index, then the lowest split code. Returns None or
    ``(feature, threshold, go_left)``, ``go_left`` a mask over ``rows``.
    """
    if n_features == 0:
        return None
    n_node = len(rows)
    parent_impurity = n_node - np.sum(counts.astype(float) ** 2) / n_node
    candidates = np.sort(rng.choice(n_features, size=min(m, n_features), replace=False))
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
