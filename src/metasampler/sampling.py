"""Error histograms, meta-states and Gaussian-weighted balanced under-sampling.

The meta-state of an ensemble is the concatenation of two error histograms,
one over the training set and one over the validation set, so downstream
components see a fixed-size summary of how error mass moves while members
are added.

The meta-state and the weighted subset are computed by error-taking cores,
`state_from_errors` and `sample_from_errors`. A growing cascade calls them with
errors read from running sums of member scores, so each member scores the
training and validation rows once. `meta_state` and `meta_sample` are the
model-taking forms: they score the rows with the given model and call the
cores.
"""
from __future__ import annotations

import math

import numpy as np

from .dataset import LabeledDataset
from .errors import SingleClassError
from .metrics import classification_errors
from .rng import as_generator

WEIGHT_FLOOR = 1e-12


def error_histogram(errors, bins: int) -> np.ndarray:
    """Fraction of errors per bin over b equal-width bins of [0, 1].

    Bin i covers [(i-1)/b, i/b) for 1-based i; the last bin also includes 1.0.
    """
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("errors must be a non-empty 1-D array")
    if not np.isfinite(errors).all() or errors.min() < 0.0 or errors.max() > 1.0:
        raise ValueError("errors must lie in [0, 1]")
    edges = np.arange(1, bins) / bins
    idx = np.searchsorted(edges, errors, side="right")
    return np.bincount(idx, minlength=bins) / errors.size


def state_from_errors(train_errors, valid_errors, bins: int) -> np.ndarray:
    """Training-error histogram concatenated with validation-error histogram (length 2b)."""
    return np.concatenate((error_histogram(train_errors, bins), error_histogram(valid_errors, bins)))


def meta_state(model, train: LabeledDataset, valid: LabeledDataset, bins: int) -> np.ndarray:
    """`state_from_errors` of the model's errors on the two splits."""
    return state_from_errors(
        classification_errors(model, train), classification_errors(model, valid), bins
    )


def gaussian_weight(x, mu: float, sigma: float):
    """Gaussian density (1 / (sigma sqrt(2 pi))) exp(-((x - mu) / sigma)^2 / 2)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    z = (x - mu) / sigma
    out = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return float(out) if out.ndim == 0 else out


def _sequential_weighted_draw(weights, n_pick, rng):
    """Indices of n_pick sequential draws without replacement, renormalizing each time."""
    w = weights.astype(np.float64, copy=True)
    picks = np.empty(n_pick, dtype=np.intp)
    for i in range(n_pick):
        cum = np.cumsum(w)
        total = cum[-1]
        j = int(np.searchsorted(cum, rng.random() * total, side="right"))
        j = min(j, len(w) - 1)
        while w[j] == 0.0:  # guard against landing on an exhausted cell
            j -= 1
        picks[i] = j
        w[j] = 0.0
    return picks


def sample_from_errors(
    train: LabeledDataset, majority_errors, mu: float, sigma: float, seed
) -> LabeledDataset:
    """Balanced subset: all minority rows plus |P| majority rows drawn by error proximity.

    `majority_errors` holds the current ensemble error of each majority row,
    in the order of `train.majority_indices`. Majority rows are weighted with
    a Gaussian centered at mu over these errors (floored at 1e-12 before
    normalization) and drawn without replacement. If the majority is not
    larger than the minority the whole dataset is returned unchanged.
    """
    p_idx, n_idx = train.minority_indices, train.majority_indices
    if len(p_idx) == 0 or len(n_idx) == 0:
        raise SingleClassError("meta-sampling needs both classes")
    if len(n_idx) <= len(p_idx):
        return train
    rng = as_generator(seed)
    weights = np.maximum(gaussian_weight(majority_errors, mu, sigma), WEIGHT_FLOOR)
    weights = weights / weights.sum()
    picks = _sequential_weighted_draw(weights, len(p_idx), rng)
    return train.subset(np.sort(np.concatenate((n_idx[picks], p_idx))))


def meta_sample(
    train: LabeledDataset, model, mu: float, sigma: float, seed
) -> LabeledDataset:
    """`sample_from_errors` with the model's errors on the majority rows."""
    n_idx = train.majority_indices
    scores = np.asarray(model.predict_proba(train.features[n_idx]), dtype=np.float64)
    return sample_from_errors(train, np.abs(scores - train.labels[n_idx]), mu, sigma, seed)


def random_balanced_subset(train: LabeledDataset, seed) -> LabeledDataset:
    """Balanced subset with the majority rows drawn uniformly without replacement."""
    p_idx, n_idx = train.minority_indices, train.majority_indices
    if len(p_idx) == 0 or len(n_idx) == 0:
        raise SingleClassError("balanced subsets need both classes")
    if len(n_idx) <= len(p_idx):
        return train
    rng = as_generator(seed)
    picks = rng.choice(n_idx, size=len(p_idx), replace=False)
    return train.subset(np.sort(np.concatenate((picks, p_idx))))
