"""Base learners: a depth-unlimited CART tree and Gaussian naive Bayes.

Both expose ``fit(ds)`` and ``predict_proba(features)``, which takes a
``(rows, features)`` matrix and returns the vector of each row's probability
of the positive class. Each row is scored on its own: its probability is the
same bit for bit whatever rows come with it, which ``train_ensemble`` relies
on when it scores the training and validation rows in one call.
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

    It is built one row at a time, so no temporary reaches glibc's 128 KiB mmap
    threshold: freeing a larger one raises that threshold, and built in one
    expression, the table raised the benchmark's peak RSS by 1.1 MB, not 0.6 MB.
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
    """CART with Gini impurity and no depth limit.

    Thresholds are midpoints between consecutive distinct sorted values, or
    the upper value where the midpoint rounds onto the lower one (adjacent
    doubles) or overflows, and a row goes left when value < threshold, so
    both children of a split are non-empty. Ties in impurity decrease break
    toward the lowest feature index, then the lowest threshold. A node splits
    as long as it is impure, has at least two rows and some feature varies,
    so training error reaches zero whenever no two identical rows disagree.

    ``fit`` sorts once: a stable ``argsort`` of every feature column gives
    the root's ``(d, n)`` block of row ids, row ``j`` ordered by feature
    ``j``. A split marks its left rows in a scratch flag and filters each
    row of the block by that flag, keeping order, so a child's block is
    again sorted by value, then by row id: exactly what a stable sort of
    the child's ascending row ids gives. The split search covers all
    features at once: one integer ``cumsum`` of the block's labels gives
    the positives left of every cut, and each side of each cut is weighted
    by ``_weighted_gini``, its size times its Gini impurity, the same
    elementwise arithmetic as a search of one feature at a time, so impurity
    values, and hence their ties, are bit-identical to it. A node of more
    than 256 rows (``_GINI_TABLE_ROWS``) computes it on ``(2, d, m - 1)``
    arrays of left and right counts and sizes. A smaller node reads it from
    ``_WEIGHTED_GINI``, built once at import by that same function: cell
    ``s * 256 + c`` is a side of s rows with c positives, so a cut's left
    cell is its left positives plus ``_LEFT_CELLS``, and its right cell is
    ``m * 256 + pos`` minus that. The table is 512 KiB. 256 rows keep every
    node of a cascade subset of the MID task (240 rows) on it, the root
    included: on 120 such subsets (2-core x86-64 VM), fit ran in 0.60× the
    time of a loop with no table, an eager mask and both child blocks, and
    in 0.64× with a 128-row table. The first maximum of the row-major
    ``(d, m - 1)`` decrease array is the lowest feature, then the lowest
    threshold. A cut between equal neighbours is no cut, and the
    first maximum is taken over all cuts first: if its two neighbours
    differ, it is also the first maximum of the valid cuts. Only otherwise
    does ``fit`` gather the block's sorted values, set every non-cut to
    ``-inf`` and take the maximum again. A child's row and positive counts
    come from the parent's cumulative sums, and its row block is built only
    when it is impure. The depth-first stack holds only pending nodes, whose
    row sets are disjoint, so its blocks total at most ``n * d`` ids. Each
    stack entry carries its level, so ``fit`` records ``depth``. A split
    appends its two children together, so its right child is always its left
    child + 1, and ``fit`` keeps only the ``left`` links while it grows.

    ``fit`` ends by deriving the three tables of ``predict_proba`` from the
    public node arrays, indexed by the doubled id ``s = 2 * node``. Entry
    ``s + (value < threshold)`` of ``_children`` is the doubled id of the
    right child, then of the left one, and a leaf points to itself on both
    sides, so a row that reaches a leaf stays there whatever it compares.
    ``_feature2`` and ``_threshold2`` repeat each node's ``feature`` and
    ``threshold`` twice, so entry ``s`` holds node ``s >> 1``'s. A leaf's
    -1 feature reads the value just before the row's own, which the
    self-loop ignores. ``predict_proba`` walks blocks of at most 8,192 rows
    (``_PREDICT_BLOCK``), ``depth`` levels in all. A level is five
    whole-block steps: gather each row's split feature, offset it to the
    row's cell, compare the gathered value with the gathered threshold, add
    the result to ``s``, and gather ``s``'s child. Each gather is a 1-D
    ``take`` with ``mode="clip"``, which is faster than a fancy index and
    changes nothing: every index is in range except a leaf's ``-1 + 0`` on
    a block's first row (in a group, on each tree's first row), whose read
    the self-loop discards.

    Most rows reach their leaf long before ``depth``: on the 105k rows of
    the large benchmark task, trees 12-13 deep put a row in its leaf after
    about 5 levels, and 80-84 % of rows by level ``depth // 2``. So after
    the first ``depth // 2`` levels a block is compacted once: the rows with
    ``_children[s] != s`` are still at a split, and only they walk the
    remaining levels, on their own ids and offsets, which are then
    scattered back into ``s``. Each compaction costs a mask, its indices,
    two gathers and a scatter over the block, so there is one, not one per
    level: a second one, at three quarters of the depth, was 2-4 % faster on
    105k rows but up to 5 % slower on 440-row and 8 % on 2,200-row calls,
    the size of most calls a cascade makes. A block ends with
    ``value.take(s >> 1)``. Each float64 or intp temporary of a block is at
    most 64 KiB, below glibc's default 128 KiB mmap threshold, so no level
    maps and faults in fresh pages. Every row makes the same comparisons
    and lands in the leaf that following ``left``/``right`` node by node
    reaches, a NaN value going right.

    ``_walk`` is the one walk, and ``predict_proba`` is its group of one:
    the tree's own tables, root 0. An ``EnsembleModel`` whose members all
    use this ``predict_proba`` walks ``8192 // rows`` of them at once
    (``tree_probabilities``), adds each tree's probabilities to its sum in
    member order, and so gives the bytes of one walk per tree; with any
    other member it calls each member's ``predict_proba``.
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
        # pending (node, level, sorted row-id block, positives), only for impure nodes
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

    On n rows the trees walk in groups of ``8192 // n``, so a group's
    (tree, row) pairs fill at most one ``_PREDICT_BLOCK``; a group of one is
    the tree's own ``predict_proba``. Larger groups walk tables stacked once
    per call: each tree's ``_children`` offset by twice the node count of the
    trees before it, and its ``_feature2``, ``_threshold2`` and ``value``,
    concatenated. A group's pairs are tree-major, each starts at its tree's
    doubled root, and the deepest tree sets the number of levels.
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
