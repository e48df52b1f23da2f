"""Per-instance classification errors and the area under the PR curve.

AUCPRC is computed in average-precision form: scores are sorted descending,
tied scores collapse into one threshold group, and the area is the sum of
precision at each group weighted by the recall increment it contributes.
"""
from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import SingleClassError


def classification_errors(model, ds: LabeledDataset) -> np.ndarray:
    """|F(x_i) - y_i| for every row; entries lie in [0, 1]."""
    scores = np.asarray(model.predict_proba(ds.features), dtype=np.float64)
    if scores.shape != (len(ds),):
        raise ValueError(f"model returned shape {scores.shape}, expected ({len(ds)},)")
    return np.abs(scores - ds.labels)


def aucprc(scores, labels) -> float:
    """Average precision over distinct thresholds.

    Integer cumulative counts keep the two boundary identities exact: a perfect
    ranking scores 1.0 and all-equal scores give the positive prevalence.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be 1-D and of equal length")
    if scores.size == 0:
        raise ValueError("need at least one instance")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise SingleClassError("PR analysis needs both classes")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of every tie group, and the cumulative true and predicted
    # positives at each distinct threshold
    group_end = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    group_end = np.append(group_end, scores.size - 1)
    tp = np.cumsum(sorted_labels)[group_end]
    pp = group_end + 1
    if tp.size == 1:
        # single threshold: area is recall 1 times precision = prevalence
        return float(tp[0] / pp[0])
    tp_prev = np.concatenate(([0], tp[:-1]))
    # (delta_tp * tp) / pp is an exact integer whenever precision is 1
    terms = (tp - tp_prev) * tp / pp
    return float(terms.sum() / n_pos)

