"""Base learners: a depth-unlimited CART tree and Gaussian naive Bayes.

Both expose ``fit(ds)`` and ``predict_proba(features)``, which maps a
``(rows, features)`` matrix to each row's probability of the positive class.
Each row is scored on its own, bit for bit whatever rows come with it, as
``train_ensemble`` requires.
"""
from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset

_LEAF = -1
_PREDICT_BLOCK = 8192  # rows per block of the predict descent; see DecisionTree
_GINI_TABLE_ROWS = 256  # largest fit node whose cuts read _WEIGHTED_GINI; see DecisionTree


def _as_matrix(features, n_features):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError(f"expected a (rows, {n_features}) matrix, got shape {x.shape}")
    return x


def _weighted_gini(sizes, counts):
    """Each side's size times its Gini impurity, given its size and positive count."""
    gini = 1.0 - (counts / sizes) ** 2 - ((sizes - counts) / sizes) ** 2
    return sizes * gini


def _weighted_gini_table(rows):
    """Cell s * rows + c: `_weighted_gini(s, c)` for every side 1 <= s < rows of a node of
    at most `rows` rows and each of its positive counts 0 <= c <= s; row 0 is unused.

    Built row by row so no temporary reaches glibc's 128 KiB mmap threshold,
    which a freed larger one raises, growing peak RSS (BENCH_fit_lookup.json).
    """
    table = np.zeros((rows, rows))
    counts = np.arange(float(rows))
    for size in range(1, rows):
        table[size] = _weighted_gini(np.full(rows, float(size)), counts)
    table.setflags(write=False)
    return table.ravel()


_WEIGHTED_GINI = _weighted_gini_table(_GINI_TABLE_ROWS)
_LEFT_CELLS = np.arange(_GINI_TABLE_ROWS, _GINI_TABLE_ROWS**2, _GINI_TABLE_ROWS)  # cell (s, 0)


class DecisionTree:
    """CART with Gini impurity and no depth limit; ``fit(ds)`` returns the tree.

    A cut lies between consecutive distinct values of a feature, at their
    midpoint, or at the upper value where the midpoint rounds onto the lower
    one or overflows. A row goes left when value < threshold, so a NaN value
    goes right. Ties in impurity decrease go to the lowest feature, then the
    lowest threshold. A node splits while it is impure and some feature
    varies, so training error reaches zero unless identical rows disagree.
    The same dataset gives the same nodes. ``predict_proba`` raises
    RuntimeError before ``fit`` and ValueError for a matrix whose shape is not
    ``(rows, n_features_in)``.

    Constraints an edit could break unnoticed:
    - A child's row block is its parent's filtered in order, so it stays sorted
      as a stable argsort would sort it (BENCH_tree_fit.json).
    - Nodes above ``_GINI_TABLE_ROWS`` rows compute ``_weighted_gini``; smaller
      ones read ``_WEIGHTED_GINI``, built by that function, so impurities and
      ties are bit-identical on both paths. 256 rows keep a MID cascade subset
      (240 rows) on the table (BENCH_fit_lookup.json).
    - A leaf's ``_children`` point to itself, so the clipped ``take`` of its -1
      feature leaves the row there (BENCH_predict_take.json).
    - ``_PREDICT_BLOCK`` keeps each walk temporary at 64 KiB, under glibc's
      128 KiB mmap threshold (BENCH_tree_predict.json).
    - A walk compacts once, at ``depth // 2``: a second compaction was slower
      on 440 and 2,200 rows, around the 1,760 stacked rows a MID cascade
      scores per member (BENCH_predict_compact.json).
    """

    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None
        self.n_features_in = None
        self.depth = None

    def fit(self, ds: LabeledDataset) -> "DecisionTree":
        x, y = ds.features, ds.labels
        n, d = x.shape
        self.n_features_in = d
        flat_x = x.T.ravel()  # feature j of row r at j * n + r
        offsets = np.arange(0, d * n, n)[:, None]
        labels = y.astype(np.intp)
        ramp = np.arange(1.0, n)
        marked = np.zeros(n, dtype=bool)
        pos = int(y.sum())
        feature, threshold, left, value = [_LEAF], [np.nan], [_LEAF], [pos / n]
        depth = 0
        # pending (node, level, sorted row-id block, positives) of impure nodes: disjoint row
        # sets, so the blocks hold at most n * d ids
        stack = [(0, 0, np.argsort(x, axis=0, kind="stable").T.copy(), pos)] if 0 < pos < n else []
        while stack:
            node, level, rows, pos = stack.pop()
            m = rows.shape[1]
            left_pos = np.cumsum(labels[rows][:, :-1], axis=1)  # positives left of each cut
            if m <= _GINI_TABLE_ROWS:
                at = left_pos + _LEFT_CELLS[: m - 1]  # cell (left size, left positives)
                children = _WEIGHTED_GINI.take(at)
                children += _WEIGHTED_GINI.take(m * _GINI_TABLE_ROWS + pos - at)  # the right cell
            else:
                counts = np.empty((2, d, m - 1))  # positives left of each cut, then right of it
                counts[0] = left_pos
                np.subtract(pos, counts[0], out=counts[1])
                sizes = np.empty((2, d, m - 1))
                sizes[0] = ramp[: m - 1]
                np.subtract(m, sizes[0], out=sizes[1])
                weighted = _weighted_gini(sizes, counts)
                children = weighted[0] + weighted[1]
            parent_gini = 1.0 - (pos / m) ** 2 - ((m - pos) / m) ** 2
            decrease = parent_gini - children / m
            feat, k = divmod(int(decrease.argmax()), m - 1)
            low, high = float(x[rows[feat, k], feat]), float(x[rows[feat, k + 1], feat])
            if low >= high:  # equal neighbours are no cut: search the cuts alone
                sv = flat_x[rows + offsets]
                decrease[sv[:, :-1] >= sv[:, 1:]] = -np.inf
                feat, k = divmod(int(decrease.argmax()), m - 1)
                if not decrease[feat, k] > -1.0:
                    continue
                low, high = float(sv[feat, k]), float(sv[feat, k + 1])
            mid = (low + high) / 2.0
            feature[node] = feat
            threshold[node] = mid if low < mid <= high else high
            pos_left = int(left_pos[feat, k])
            left[node] = len(feature)  # the right child is appended next to it
            depth = max(depth, level + 1)
            goes_left = None
            for size, child_pos, on_left in (
                (k + 1, pos_left, True),
                (m - k - 1, pos - pos_left, False),
            ):
                if 0 < child_pos < size:  # impure: its row block is split later
                    if goes_left is None:
                        left_rows = rows[feat, : k + 1]
                        marked[left_rows] = True
                        goes_left = marked[rows]
                        marked[left_rows] = False
                    block = rows[goes_left if on_left else ~goes_left]
                    stack.append((len(feature), level + 1, block.reshape(d, size), child_pos))
                feature.append(_LEAF)
                threshold.append(np.nan)
                left.append(_LEAF)
                value.append(child_pos / size)

        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.depth = depth
        split = self.feature != _LEAF
        self.right = np.where(split, self.left + 1, _LEAF)
        nodes = np.arange(len(feature))
        # entry s + (value < threshold) of doubled id s = 2 * node: the right child, then the left
        self._children = 2 * np.stack(
            [np.where(split, self.right, nodes), np.where(split, self.left, nodes)], axis=1
        ).ravel()
        self._feature2 = np.repeat(self.feature, 2)
        self._threshold2 = np.repeat(self.threshold, 2)
        return self

    def predict_proba(self, features):
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        x = _as_matrix(features, self.n_features_in)
        out = np.empty(len(x))
        row_offsets = np.arange(min(len(x), _PREDICT_BLOCK)) * x.shape[1]
        tables = self._children, self._feature2, self._threshold2, self.value
        for start in range(0, len(x), _PREDICT_BLOCK):
            rows = x[start : start + _PREDICT_BLOCK]
            s = np.zeros(len(rows), dtype=np.intp)
            out[start : start + len(rows)] = _walk(
                tables, self.depth, s, rows.ravel(), row_offsets[: len(rows)]
            )
        return out


def tree_probabilities(trees, features):
    """Each tree's ``predict_proba(features)``, bit for bit, in the order of `trees`.

    A generator, with the errors of ``DecisionTree.predict_proba``. On n rows
    the trees walk in groups of ``8192 // n`` on their tables stacked once per
    call, so a group fills at most one ``_PREDICT_BLOCK``; each pair starts at
    its tree's doubled root, and a group's deepest tree sets its levels
    (BENCH_ensemble_predict.json).
    """
    for tree in trees:
        if tree.feature is None:
            raise RuntimeError("tree is not fitted")
        x = _as_matrix(features, tree.n_features_in)
    n = len(x)
    group = _PREDICT_BLOCK // max(n, 1)
    if group < 2:
        for tree in trees:
            yield DecisionTree.predict_proba(tree, x)
        return
    roots = 2 * np.cumsum([0] + [len(tree.value) for tree in trees[:-1]], dtype=np.intp)
    tables = (
        np.concatenate([tree._children + root for tree, root in zip(trees, roots)]),
        np.concatenate([tree._feature2 for tree in trees]),
        np.concatenate([tree._threshold2 for tree in trees]),
        np.concatenate([tree.value for tree in trees]),
    )
    flat = x.ravel()
    # pair i * n + r of a group is its tree i at row r, whose features start at r * d
    offsets = np.tile(np.arange(n) * x.shape[1], group)
    for start in range(0, len(trees), group):
        members = trees[start : start + group]
        depth = max(tree.depth for tree in members)
        s = roots[start : start + group].repeat(n)
        yield from _walk(tables, depth, s, flat, offsets[: len(s)]).reshape(len(members), n)


def _walk(tables, depth, s, flat, offsets):
    """Leaf value of each pair after `depth` levels down from doubled ids s.

    `tables` are (_children, _feature2, _threshold2, value); pair i reads its
    features in flat from offsets[i] on. After depth // 2 levels the pairs
    are compacted once: a leaf points to itself, so only the pairs still at
    a split walk the remaining levels.
    """
    children, _, _, value = tables
    half = depth // 2
    s = _descend(tables, s, flat, offsets, half)
    active = (children.take(s) != s).nonzero()[0]
    s[active] = _descend(tables, s.take(active), flat, offsets.take(active), depth - half)
    return value.take(s >> 1)


def _descend(tables, s, flat, offsets, levels):
    """Doubled ids `levels` levels below s, which it may overwrite.

    Pair i of s reads its features in flat from offsets[i] on.
    """
    children, feature2, threshold2 = tables[:3]
    for _ in range(levels):
        # a leaf's -1 feature reads a value its self-loop ignores
        at = feature2.take(s, mode="clip")
        at += offsets
        goes_left = flat.take(at, mode="clip") < threshold2.take(s, mode="clip")
        s += goes_left
        s = children.take(s, mode="clip")
    return s


class GaussianNaiveBayes:
    """Gaussian class-conditional likelihoods accumulated in the log domain.

    Per-feature variances are floored at 1e-9 times the largest feature
    variance in the training data, so constant features cannot produce NaNs.
    """

    VAR_FLOOR_SCALE = 1e-9

    def __init__(self):
        self.log_prior = None
        self.mean = None
        self.var = None

    def fit(self, ds: LabeledDataset) -> "GaussianNaiveBayes":
        minority, majority = ds.class_indices("Gaussian NB")
        x = ds.features
        self.log_prior = np.log(np.array([len(majority), len(minority)]) / len(ds))
        floor = max(self.VAR_FLOOR_SCALE * float(x.var(axis=0).max()), np.finfo(np.float64).tiny)
        rows = [x[majority], x[minority]]  # class 0, then class 1
        self.mean = np.stack([r.mean(axis=0) for r in rows])
        self.var = np.maximum(np.stack([r.var(axis=0) for r in rows]), floor)
        return self

    def predict_proba(self, features):
        if self.mean is None:
            raise RuntimeError("model is not fitted")
        x = _as_matrix(features, self.mean.shape[1])
        # log joint per class, shape (n, 2)
        log_joint = np.stack(
            [
                self.log_prior[c]
                - 0.5 * np.sum(
                    np.log(2.0 * np.pi * self.var[c])
                    + (x - self.mean[c]) ** 2 / self.var[c],
                    axis=1,
                )
                for c in (0, 1)
            ],
            axis=1,
        )
        shift = log_joint.max(axis=1, keepdims=True)
        norm = np.exp(log_joint - shift)
        return norm[:, 1] / norm.sum(axis=1)
