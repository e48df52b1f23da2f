"""Error histograms, meta-states and Gaussian-weighted balanced under-sampling.

The meta-state of an ensemble is the concatenation of two error histograms,
one over the training set and one over the validation set, so downstream
components see a fixed-size summary of how error mass moves while members
are added.

The meta-state and the weighted subset are computed by error-taking cores,
`state_from_errors` and `sample_from_errors`. A growing cascade keeps one
running sum of member scores over its training rows, majority first,
followed by its validation rows, so each member scores both splits in one
call, and one error vector serves both cores: `state_from_errors` bins it in
one pass and splits the counts at the training row count, and
`sample_from_errors` reads its leading majority rows. `meta_state` and
`meta_sample` are the model-taking forms: they score the rows with the
given model and call the cores. The library no longer calls them; they
remain only because the benchmark's `bench/spans.py` binds them, and go
when its spans change.

The weighted subset draws its majority rows one at a time without
replacement, each pick renormalizing over the weight left. The weights sit in
a binary tree of pairwise sums, so a pick costs O(log n). Up to rounding at
a row boundary, the picks equal those of a cumulative sum over all rows
recomputed before every pick.
"""
from __future__ import annotations

import math

import numpy as np

from .dataset import LabeledDataset
from .errors import NumericalError
from .metrics import classification_errors
from .rng import as_generator, check_float, check_integer

WEIGHT_FLOOR = 1e-12


def _bin_indices(errors, bins: int) -> np.ndarray:
    """0-based bin of each error of a float64 array: the one binning rule.

    ValueError unless `errors` is non-empty, 1-D and within [0, 1].
    """
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("errors must be a non-empty 1-D array")
    if not np.isfinite(errors).all() or errors.min() < 0.0 or errors.max() > 1.0:
        raise ValueError("errors must lie in [0, 1]")
    return np.searchsorted(np.arange(1, bins) / bins, errors, side="right")


def error_histogram(errors, bins: int) -> np.ndarray:
    """Fraction of errors per bin over b equal-width bins of [0, 1].

    Bin i covers [(i-1)/b, i/b) for 1-based i; the last bin also includes 1.0.
    """
    bins = check_integer("bins", bins, least=1)
    errors = np.asarray(errors, dtype=np.float64)
    return np.bincount(_bin_indices(errors, bins), minlength=bins) / errors.size


def state_from_errors(errors, n_train: int, bins: int) -> np.ndarray:
    """Training-error histogram concatenated with validation-error histogram (length 2b).

    `errors` holds the training rows' errors, then the validation rows': the
    first `n_train` entries are the training half. Both halves are checked and
    binned in one pass, and each half's histogram is `error_histogram` of it
    bit for bit. ValueError if either half is empty.
    """
    bins = check_integer("bins", bins, least=1)
    n_train = check_integer("n_train", n_train, least=1)
    errors = np.asarray(errors, dtype=np.float64)
    idx = _bin_indices(errors, bins)
    n_valid = errors.size - n_train
    if n_valid < 1:
        raise ValueError(f"need errors past the {n_train} training errors, got {errors.size}")
    return np.concatenate((
        np.bincount(idx[:n_train], minlength=bins) / n_train,
        np.bincount(idx[n_train:], minlength=bins) / n_valid,
    ))


def meta_state(model, train: LabeledDataset, valid: LabeledDataset, bins: int) -> np.ndarray:
    """`state_from_errors` of the model's errors on the two splits."""
    errors = [classification_errors(model, part) for part in (train, valid)]
    return state_from_errors(np.concatenate(errors), len(train), bins)


def gaussian_scale(sigma) -> float:
    """sigma sqrt(2 pi), the Gaussian's divisor: the one check of a sigma.

    ValueError unless sigma is a real number in (0, inf), never a bool;
    NumericalError if it is so small (subnormal) that the peak
    1 / (sigma sqrt(2 pi)) overflows.
    """
    sigma = check_float("sigma", sigma, "(0, inf)")
    scale = sigma * math.sqrt(2.0 * math.pi)
    if not math.isfinite(1.0 / scale):
        raise NumericalError(f"non-finite sampling weights (sigma={sigma})")
    return scale


def gaussian_weight(x, mu: float, sigma: float):
    """Gaussian density exp(-((x - mu) / sigma)^2 / 2) / gaussian_scale(sigma), mu in [0, 1]."""
    check_float("mu", mu, "[0, 1]")
    scale = gaussian_scale(sigma)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    with np.errstate(over="ignore"):  # z or z * z overflows only where the weight is 0
        z = (x - mu) / sigma
        out = np.exp(-0.5 * z * z) / scale
    return float(out) if out.ndim == 0 else out


def _sequential_weighted_draw(weights, n_pick, rng):
    """Indices of n_pick sequential draws without replacement, renormalizing each time.

    Pick i takes the i-th of n_pick uniforms u from `rng` and chooses the first
    row whose cumulative weight exceeds u times the remaining total, or the
    last row with weight left when rounding puts that target at the total; the
    chosen row's weight is then zeroed. The weights are the leaves of a binary
    tree of pairwise sums (Wong & Easton 1980), padded with zeros to a power of
    two and stored heap-ordered in one flat array: node j has children 2j and
    2j + 1, and node 1 holds the total. A pick descends from the root in
    O(log n) and recomputes each sum on the picked leaf's path from its two
    children, never by subtraction, so exhausted rows add exact zeros. It
    chooses the same row as one cumulative sum over all rows except when u
    lands within rounding of a boundary.
    """
    leaves = np.asarray(weights, dtype=np.float64)
    size = 1 << max(len(leaves) - 1, 0).bit_length()
    sums = np.zeros(2 * size)
    sums[size:size + len(leaves)] = leaves
    width = size
    while width > 1:
        np.add(sums[width:2 * width:2], sums[width + 1:2 * width:2], out=sums[width // 2:width])
        width //= 2
    tree = memoryview(sums)  # scalar reads and writes without numpy's per-item cost
    picks = []
    for u in rng.random(n_pick).tolist():
        target = u * tree[1]
        node = 1
        if target < tree[1]:
            while node < size:
                node *= 2
                left = tree[node]
                # right only when the target passes the left sum and weight is
                # left there: rounding must not lead onto an exhausted row
                if target >= left and tree[node + 1] > 0.0:
                    target -= left
                    node += 1
        else:  # rounding put the target at the total: the last row with weight
            while node < size:
                node = 2 * node + (tree[2 * node + 1] > 0.0)
        picks.append(node - size)
        tree[node] = parent_sum = 0.0
        # each parent is again its two children's sum; addition commutes, so
        # it is the same float the build's left + right would give
        while node > 1:
            parent_sum += tree[node ^ 1]
            node >>= 1
            tree[node] = parent_sum
    return np.array(picks, dtype=np.intp)


def sample_from_errors(
    train: LabeledDataset, majority_errors, mu: float, sigma: float, seed
) -> LabeledDataset:
    """Balanced subset: all minority rows plus |P| majority rows drawn by error proximity.

    `majority_errors` holds the current ensemble error of each majority row,
    in the order of `train.majority_indices`; any other shape raises
    ValueError. Majority rows are weighted with a Gaussian centered at mu
    over these errors (floored at 1e-12 before normalization) and drawn
    without replacement. A Gaussian whose peak 1 / (sigma sqrt(2 pi)) is
    not finite (a subnormal sigma), or weights whose sum is not, raise
    NumericalError: no row could be weighted. If the majority is not larger
    than the minority the whole dataset is returned unchanged.
    """
    p_idx, n_idx = train.class_indices("meta-sampling")
    if np.shape(majority_errors) != n_idx.shape:
        raise ValueError(
            f"need one error per majority row, shape {n_idx.shape},"
            f" got {np.shape(majority_errors)}"
        )
    if len(n_idx) <= len(p_idx):
        return train
    rng = as_generator(seed)
    weights = gaussian_weight(majority_errors, mu, sigma)
    np.maximum(weights, WEIGHT_FLOOR, out=weights)
    with np.errstate(over="ignore"):  # an overflowing sum is raised below
        total = weights.sum()
    if not math.isfinite(total):
        raise NumericalError(f"non-finite sampling weights (mu={mu}, sigma={sigma})")
    weights /= total
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
    p_idx, n_idx = train.class_indices("a balanced subset")
    if len(n_idx) <= len(p_idx):
        return train
    rng = as_generator(seed)
    picks = rng.choice(n_idx, size=len(p_idx), replace=False)
    return train.subset(np.sort(np.concatenate((picks, p_idx))))
