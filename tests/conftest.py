import math

import numpy as np
import pytest

from metasampler import LabeledDataset, mlp_forward
from metasampler.sac import LOG_STD_MAX, LOG_STD_MIN


def brute_average_precision(scores, labels):
    """Threshold-enumeration oracle: sum precision * recall-increment rectangles."""
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    n_pos = sum(labels)
    total = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        predicted = [s >= t for s in scores]
        tp = sum(1 for p, y in zip(predicted, labels) if p and y == 1)
        pp = sum(predicted)
        recall = tp / n_pos
        total += (recall - prev_recall) * (tp / pp)
        prev_recall = recall
    return total


def brute_histogram(errors, bins):
    """Per-element linear scan over the bin edges."""
    edges = [i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for e in errors:
        for i in range(bins):
            if edges[i] <= e < edges[i + 1] or (i == bins - 1 and e == 1.0):
                counts[i] += 1
                break
    return [c / len(errors) for c in counts]


class FixedModel:
    """Stand-in classifier returning preset probabilities row-by-row.

    Rows are matched by position: the dataset it will be asked about must have
    the same row order as the probabilities given here.
    """

    def __init__(self, features, probs):
        self._features = np.asarray(features, dtype=np.float64)
        self._probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(self, features):
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        out = np.empty(len(x))
        for i, row in enumerate(x):
            matches = np.flatnonzero((self._features == row).all(axis=1))
            out[i] = self._probs[matches[0]]
        return out if len(out) > 1 else float(out[0])


def make_dataset(features, labels):
    return LabeledDataset(
        np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    )


def action_log_prob(sampler, state, action):
    """Density oracle for sample_action: log-density of an action in (0, 1) under the policy.

    The action is a = (tanh(u) + 1) / 2 with u ~ N(mean, std) from the policy's
    heads, so its density is N(u; mean, std) / (da/du), and da/du = 2a(1 - a).
    """
    if not 0.0 < action < 1.0:
        raise ValueError(f"interior action required, got {action}")
    heads, _ = mlp_forward(sampler.policy, np.asarray(state, dtype=np.float64)[None, :])
    mean = float(heads[0, 0])
    log_std = min(max(float(heads[0, 1]), LOG_STD_MIN), LOG_STD_MAX)
    z = (math.atanh(2.0 * action - 1.0) - mean) / math.exp(log_std)
    log_normal = -0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi)
    return log_normal - math.log(2.0 * action * (1.0 - action))


def fd_param_gradients(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss over every parameter entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi = loss_fn()
            flat_p[i] = orig - h
            lo = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-7):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        a = np.asarray(a).ravel()
        f = np.asarray(f).ravel()
        scale = np.maximum(np.abs(a), np.abs(f))
        mask = scale >= floor
        if mask.any():
            err = np.abs(a[mask] - f[mask]) / scale[mask]
            worst = max(worst, float(err.max()))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
