"""Base learners: a depth-unlimited CART tree and Gaussian naive Bayes.

Both expose ``fit(ds)`` and ``predict_proba(features)``, which takes a
``(rows, features)`` matrix and returns the vector of each row's probability
of the positive class.
"""
from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import SingleClassError

_LEAF = -1
_PREDICT_BLOCK = 8192  # rows per block of the predict descent; see DecisionTree


def _as_matrix(features, n_features):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError(f"expected a (rows, {n_features}) matrix, got shape {x.shape}")
    return x


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
    features at once, on ``(2, d, m - 1)`` arrays of left and right counts
    and sizes at every cut. Each candidate gets the same elementwise Gini
    arithmetic as a search of one feature at a time, so impurity values,
    and hence their ties, are bit-identical to it. Non-cuts (equal
    neighbours) read ``-inf``, and the first maximum of the row-major
    ``(d, m - 1)`` decrease array is the lowest feature, then the lowest
    threshold. A child's row and positive counts come from the parent's
    cumulative sums. The depth-first stack holds only pending nodes, whose
    row sets are disjoint, so its blocks total at most ``n * d`` ids. Each
    stack entry carries its level, so ``fit`` records ``depth``.

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
    a block's first row, whose read the self-loop discards.

    Most rows reach their leaf long before ``depth``: on the 105k rows of
    the large benchmark task, trees 12-13 deep put a row in its leaf after
    about 5 levels, and 80-84 % of rows by level ``depth // 2``. So after
    the first ``depth // 2`` levels a block is compacted once: the rows with
    ``_children[s] != s`` are still at a split, and only they walk the
    remaining levels, on their own ids and offsets, which are then
    scattered back into ``s``. A tree with ``depth // 2 == 0`` is not
    compacted. Each compaction costs a mask, its indices, two gathers and a
    scatter over the block, so there is one, not one per level: a second
    one, at three quarters of the depth, was 2-4 % faster on 105k rows but
    up to 5 % slower on 440-row and 8 % on 2,200-row calls, the size of
    most calls a cascade makes. A block ends with
    ``value.take(s >> 1)``. Each float64 or intp temporary of a block is at
    most 64 KiB, below glibc's default 128 KiB mmap threshold, so no level
    maps and faults in fresh pages. Every row makes the same comparisons
    and lands in the leaf that following ``left``/``right`` node by node
    reaches, a NaN value going right.
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
        labels = y.astype(np.float64)
        ramp = np.arange(1.0, n)
        marked = np.zeros(n, dtype=bool)
        pos = int(y.sum())
        feature, threshold, left, right, value = [_LEAF], [np.nan], [_LEAF], [_LEAF], [pos / n]
        depth = 0
        # pending (node, level, sorted row-id block, positives), only for impure nodes
        stack = [(0, 0, np.argsort(x, axis=0, kind="stable").T.copy(), pos)] if 0 < pos < n else []
        while stack:
            node, level, rows, pos = stack.pop()
            m = rows.shape[1]
            sv = flat_x[rows + offsets]
            counts = np.empty((2, d, m - 1))  # positives left of each cut, then right of it
            np.cumsum(labels[rows][:, :-1], axis=1, out=counts[0])
            np.subtract(pos, counts[0], out=counts[1])
            sizes = np.empty((2, d, m - 1))
            sizes[0] = ramp[: m - 1]
            np.subtract(m, sizes[0], out=sizes[1])
            parent_gini = 1.0 - (pos / m) ** 2 - ((m - pos) / m) ** 2
            gini = 1.0 - (counts / sizes) ** 2 - ((sizes - counts) / sizes) ** 2
            weighted = sizes * gini
            decrease = parent_gini - (weighted[0] + weighted[1]) / m
            decrease[sv[:, :-1] >= sv[:, 1:]] = -np.inf
            feat, k = divmod(int(decrease.argmax()), m - 1)
            if not decrease[feat, k] > -1.0:
                continue
            low, high = float(sv[feat, k]), float(sv[feat, k + 1])
            mid = (low + high) / 2.0
            feature[node] = feat
            threshold[node] = mid if low < mid <= high else high
            left_rows = rows[feat, : k + 1]
            marked[left_rows] = True
            goes_left = marked[rows]
            marked[left_rows] = False
            pos_left = int(counts[0, feat, k])
            left[node], right[node] = len(feature), len(feature) + 1
            depth = max(depth, level + 1)
            for size, child_pos, block in (
                (k + 1, pos_left, rows[goes_left]),
                (m - k - 1, pos - pos_left, rows[~goes_left]),
            ):
                if 0 < child_pos < size:
                    stack.append((len(feature), level + 1, block.reshape(d, size), child_pos))
                feature.append(_LEAF)
                threshold.append(np.nan)
                left.append(_LEAF)
                right.append(_LEAF)
                value.append(child_pos / size)

        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        self.depth = depth
        split = self.feature != _LEAF
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
        half = self.depth // 2
        for start in range(0, len(x), _PREDICT_BLOCK):
            rows = x[start : start + _PREDICT_BLOCK]
            flat, offsets = rows.ravel(), row_offsets[: len(rows)]
            s = np.zeros(len(rows), dtype=np.intp)  # doubled node ids
            if half:
                s = self._descend(s, flat, offsets, half)
                # a leaf points to itself: only the rows still at a split walk on
                active = (self._children.take(s) != s).nonzero()[0]
                s[active] = self._descend(
                    s.take(active), flat, offsets.take(active), self.depth - half
                )
            else:
                s = self._descend(s, flat, offsets, self.depth)
            out[start : start + len(rows)] = self.value.take(s >> 1)
        return out

    def _descend(self, s, flat, offsets, levels):
        """Doubled ids `levels` levels below s, which it may overwrite.

        Row i of s reads its features in flat from offsets[i] on.
        """
        children, feature2, threshold2 = self._children, self._feature2, self._threshold2
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
        x, y = ds.features, ds.labels
        counts = np.array([np.count_nonzero(y == 0), np.count_nonzero(y == 1)])
        if counts.min() == 0:
            raise SingleClassError("Gaussian NB needs both classes")
        self.log_prior = np.log(counts / len(ds))
        floor = max(self.VAR_FLOOR_SCALE * float(x.var(axis=0).max()), np.finfo(np.float64).tiny)
        self.mean = np.stack([x[y == c].mean(axis=0) for c in (0, 1)])
        self.var = np.maximum(np.stack([x[y == c].var(axis=0) for c in (0, 1)]), floor)
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
