"""Per-instance classification errors and the area under the PR curve.

`classification_errors` is the cascade's error step: the ensemble's errors
that `sampling.meta_state` bins and `sampling.meta_sample` weighs.

AUCPRC is computed in average-precision form: scores are sorted descending,
tied scores collapse into one threshold group, and the area is the sum of
precision at each group weighted by the recall increment it contributes.
"""
from __future__ import annotations

import numpy as np

from .errors import SingleClassError


def model_scores(model, features) -> np.ndarray:
    """model.predict_proba(features) as float64; ValueError unless it is one score per row."""
    scores = np.asarray(model.predict_proba(features), dtype=np.float64)
    if scores.shape != (len(features),):
        raise ValueError(f"model returned shape {scores.shape}, expected ({len(features)},)")
    return scores


def classification_errors(scores, labels, out=None) -> np.ndarray:
    """|scores - labels| per row, written into `out` when given (which may be `scores`)."""
    out = np.subtract(scores, labels, out=out)
    return np.abs(out, out=out)


def aucprc(scores, labels) -> float:
    """Average precision over distinct thresholds.

    A tie group is one threshold, so the sort may order ties any way and the
    area is the same float. Integer cumulative counts keep the two boundary
    identities exact: a perfect ranking scores 1.0 and all-equal scores give
    the positive prevalence.
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

    order = np.argsort(-scores)
    sorted_scores = scores[order]
    # last index of every tie group, the true positives each group adds, and the
    # cumulative true and predicted positives at each distinct threshold
    group_end = np.flatnonzero(sorted_scores[:-1] != sorted_scores[1:])
    gained = np.add.reduceat(labels[order], np.concatenate(([0], group_end + 1)))
    group_end = np.append(group_end, scores.size - 1)
    tp = np.cumsum(gained)
    pp = group_end + 1
    if tp.size == 1:
        # single threshold: area is recall 1 times precision = prevalence
        return float(tp[0] / pp[0])
    # (gained * tp) / pp is an exact integer whenever precision is 1
    terms = gained * tp / pp
    return float(terms.sum() / n_pos)

