"""Base learners: a depth-unlimited CART tree and Gaussian naive Bayes.

Both expose ``fit(ds)`` and ``predict_proba(features)`` returning the
probability of the positive class, as a float for a single row or a vector
for a matrix of rows.
"""
from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import SingleClassError

_LEAF = -1


def _as_matrix(features, n_features):
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ValueError(f"expected rows with {n_features} features, got shape {x.shape}")
    return x, single


class DecisionTree:
    """CART with Gini impurity and no depth limit.

    Thresholds are midpoints between consecutive distinct sorted values, or
    the upper value where the midpoint rounds onto the lower one (adjacent
    doubles) or overflows, and a row goes left when value < threshold, so
    both children of a split are non-empty. Ties in impurity decrease break
    toward the lowest feature index, then the lowest threshold. A node splits
    as long as it is impure, has at least two rows and some feature varies,
    so training error reaches zero whenever no two identical rows disagree.
    """

    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None
        self.n_features_in = None

    def fit(self, ds: LabeledDataset) -> "DecisionTree":
        x, y = ds.features, ds.labels
        self.n_features_in = ds.n_features
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(np.nan)
            return len(feature) - 1

        stack = [(new_node(), np.arange(len(ds)))]
        while stack:
            node, idx = stack.pop()
            y_node = y[idx]
            pos = int(y_node.sum())
            value[node] = pos / len(idx)
            if pos == 0 or pos == len(idx) or len(idx) < 2:
                continue
            split = self._best_split(x[idx], y_node)
            if split is None:
                continue
            feat, thresh = split
            feature[node] = feat
            threshold[node] = thresh
            goes_left = x[idx, feat] < thresh
            left[node] = new_node()
            right[node] = new_node()
            stack.append((left[node], idx[goes_left]))
            stack.append((right[node], idx[~goes_left]))

        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    @staticmethod
    def _best_split(x, y):
        """(feature, threshold) with maximal Gini decrease, or None if no split exists."""
        n = len(y)
        total_pos = int(y.sum())
        parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
        best = None
        best_decrease = -1.0
        for j in range(x.shape[1]):
            col = x[:, j]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            cut = np.flatnonzero(sv[:-1] < sv[1:])  # split after these positions
            if cut.size == 0:
                continue
            cum_pos = np.cumsum(y[order])
            ln = cut + 1.0
            lp = cum_pos[cut]
            rn = n - ln
            rp = total_pos - lp
            gini_left = 1.0 - (lp / ln) ** 2 - ((ln - lp) / ln) ** 2
            gini_right = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
            decrease = parent_gini - (ln * gini_left + rn * gini_right) / n
            k = int(np.argmax(decrease))  # first max = lowest threshold
            if decrease[k] > best_decrease:
                best_decrease = decrease[k]
                low, high = float(sv[cut[k]]), float(sv[cut[k] + 1])
                mid = (low + high) / 2.0
                best = (j, mid if low < mid <= high else high)
        return best

    @property
    def depth(self) -> int:
        depths = np.zeros(len(self.feature), dtype=np.intp)
        for node in range(len(self.feature)):
            if self.feature[node] != _LEAF:
                child_depth = depths[node] + 1
                depths[self.left[node]] = child_depth
                depths[self.right[node]] = child_depth
        return int(depths.max())

    def predict_proba(self, features):
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        x, single = _as_matrix(features, self.n_features_in)
        node = np.zeros(len(x), dtype=np.intp)
        active = self.feature[node] != _LEAF
        while active.any():
            rows = np.flatnonzero(active)
            cur = node[rows]
            goes_left = x[rows, self.feature[cur]] < self.threshold[cur]
            node[rows] = np.where(goes_left, self.left[cur], self.right[cur])
            active[rows] = self.feature[node[rows]] != _LEAF
        out = self.value[node]
        return float(out[0]) if single else out


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
        x, single = _as_matrix(features, self.mean.shape[1])
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
        out = norm[:, 1] / norm.sum(axis=1)
        return float(out[0]) if single else out
