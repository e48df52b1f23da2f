"""Meta-states and Gaussian-weighted balanced under-sampling.

The meta-state of an ensemble is its training-error histogram followed by its
validation-error histogram: a fixed-size summary of how error mass moves as
members are added. After each member the cascade takes the ensemble's errors
(`metrics.classification_errors`) to `meta_state`, and draws the next member's
subset with `meta_sample`, a Gaussian over the majority rows' errors.
"""
from __future__ import annotations

import math

import numpy as np

from .dataset import LabeledDataset
from .errors import NumericalError
from .rng import as_generator, check_float, check_integer

WEIGHT_FLOOR = 1e-12


def meta_state(errors, n_train: int, bins: int) -> np.ndarray:
    """Training-error histogram concatenated with validation-error histogram (length 2b).

    `errors` holds the training rows' errors, then the validation rows': the
    first `n_train` entries are the training half. Each half's histogram is
    its fraction of errors per bin over b equal-width bins of [0, 1]: bin i
    covers [(i-1)/b, i/b) for 1-based i, and the last bin also includes 1.0.
    Both halves are checked in one pass. A bin's count is the errors at or
    above its lower edge less those at or above its upper one, so the state
    is the same floats whatever the order of the errors. ValueError if
    `errors` is empty, not 1-D or outside [0, 1], or if either half is empty.
    """
    bins = check_integer("bins", bins, least=1)
    n_train = check_integer("n_train", n_train, least=1)
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("errors must be a non-empty 1-D array")
    if not np.isfinite(errors).all() or errors.min() < 0.0 or errors.max() > 1.0:
        raise ValueError("errors must lie in [0, 1]")
    n_valid = errors.size - n_train
    if n_valid < 1:
        raise ValueError(f"need errors past the {n_train} training errors, got {errors.size}")
    # per half, the errors at or above each lower edge 0, 1/b, ..., (b-1)/b, then none
    at_least = np.zeros((2, bins + 1), dtype=np.intp)
    at_least[:, 0] = n_train, n_valid
    for i, edge in enumerate(np.arange(1, bins) / bins, start=1):
        above = errors >= edge
        at_least[:, i] = np.count_nonzero(above[:n_train]), np.count_nonzero(above[n_train:])
    counts = at_least[:, :-1] - at_least[:, 1:]
    return np.concatenate((counts[0] / n_train, counts[1] / n_valid))


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
        # the expression's own operations in its order, on two buffers: z, then the weight
        z = np.subtract(x, mu, out=np.empty(x.shape))
        z /= sigma
        out = np.multiply(-0.5, z, out=np.empty(x.shape))
        out *= z
        np.exp(out, out=out)
        out /= scale
    return float(out) if out.ndim == 0 else out


def _sequential_weighted_draw(weights, n_pick, rng):
    """Indices of n_pick sequential draws without replacement, renormalizing each time.

    Pick i takes the i-th of n_pick uniforms u from `rng` and chooses the first
    row whose cumulative weight exceeds u times the weight left, or the last row
    with weight left when rounding puts that target at the total; that row's
    weight then becomes 0. The weights sit in a heap-ordered tree of pairwise
    sums (Wong & Easton 1980; node j has children 2j and 2j + 1), so a pick is
    O(log n). Each sum on a pick's path is recomputed from its two children,
    never by subtraction, so exhausted rows add exact zeros and the picks are
    a cumulative sum's, up to rounding at a row boundary (BENCH_tree_draw.json).
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


def meta_sample(
    train: LabeledDataset, majority_errors, mu: float, sigma: float, seed
) -> LabeledDataset:
    """Balanced subset: all minority rows plus |P| majority rows drawn by error proximity.

    `majority_errors` holds the ensemble's error on each majority row, in the
    order of `train.majority_indices`; any other shape raises ValueError.
    Majority rows are weighted by a Gaussian at mu over these errors, floored
    at 1e-12, normalized and drawn without replacement. NumericalError when no
    row can be weighted: a subnormal sigma or a non-finite weight sum. A
    majority no larger than the minority returns `train` unchanged.
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


def random_balanced_subset(train: LabeledDataset, seed) -> LabeledDataset:
    """Balanced subset with the majority rows drawn uniformly without replacement."""
    p_idx, n_idx = train.class_indices("a balanced subset")
    if len(n_idx) <= len(p_idx):
        return train
    rng = as_generator(seed)
    picks = rng.choice(n_idx, size=len(p_idx), replace=False)
    return train.subset(np.sort(np.concatenate((picks, p_idx))))
