import csv
import ctypes
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from metasampler import (
    ColumnNotFoundError,
    DataError,
    DecisionTree,
    EmptyDataError,
    FeatureParseError,
    LabelDomainError,
    LabeledDataset,
    SingleClassError,
)
from metasampler import sampling
from metasampler.metrics import classification_errors, model_scores
from metasampler.neural import mlp_forward
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
        out = np.empty(len(features))
        for i, row in enumerate(np.asarray(features, dtype=np.float64)):
            matches = np.flatnonzero((self._features == row).all(axis=1))
            out[i] = self._probs[matches[0]]
        return out


def shaped_learner(shape_of):
    """A learner class whose predict_proba on n rows returns shape_of(n) scores of 0.5."""

    class Shaped:
        def fit(self, subset):
            return self

        def predict_proba(self, features):
            shape = shape_of(len(features))
            return 0.5 if shape is None else np.full(shape, 0.5)

    return Shaped


# learner outputs other than one score per row: a scalar and a one-element array used
# to be broadcast to every row, the other two to fail with numpy's broadcast error
WRONG_SHAPES = pytest.mark.parametrize(
    "shape_of", [lambda n: None, lambda n: (1,), lambda n: (n, 1), lambda n: (n - 1,)],
    ids=["scalar", "one", "column", "one_short"],
)


def model_errors(model, ds):
    """Oracle: `classification_errors` of a model's scores on every row of `ds`."""
    return classification_errors(model_scores(model, ds.features), ds.labels)


def model_meta_state(model, train, valid, bins):
    """Oracle: `meta_state` of a model's errors on the two splits, each scored on its own."""
    errors = [model_errors(model, part) for part in (train, valid)]
    return sampling.meta_state(np.concatenate(errors), len(train), bins)


def model_meta_sample(train, model, mu, sigma, seed):
    """Oracle: `meta_sample` with a model's errors on the majority rows.

    ValueError, before any draw, unless the model returns one score per majority row.
    """
    n_idx = train.majority_indices
    scores = model_scores(model, train.features[n_idx])
    errors = classification_errors(scores, train.labels[n_idx])
    return sampling.meta_sample(train, errors, mu, sigma, seed)


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


def per_cell_load_csv(path, label_column="label") -> LabeledDataset:
    """Oracle for load_csv: the per-cell loader it replaced, kept verbatim.

    It reads the whole file as rows of strings and converts one cell at a
    time. It opens the file as plain UTF-8, so a leading byte-order mark stays
    part of the first header name.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read as UTF-8 text: {exc}") from None
    if not rows:
        raise EmptyDataError(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if len(data) < 2:
        raise EmptyDataError(f"{path}: need at least 2 data rows, got {len(data)}")

    if isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else len(header) + label_column
        if not 0 <= label_idx < len(header):
            raise ColumnNotFoundError(f"{path}: label column index {label_column} out of range")
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ColumnNotFoundError(f"{path}: no column named {label_column!r}") from None
    if len(header) < 2:
        raise EmptyDataError(f"{path}: no feature columns, only the label column")

    n, width = len(data), len(header)
    features = np.empty((n, width - 1), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for i, row in enumerate(data):
        if len(row) != width:
            raise FeatureParseError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")
        cell = row[label_idx]
        try:
            label_val = float(cell)
        except ValueError:
            raise LabelDomainError(f"{path}: row {i + 2} label {cell!r} is not 0 or 1") from None
        if label_val not in (0.0, 1.0):
            raise LabelDomainError(f"{path}: row {i + 2} label {cell!r} is not 0 or 1")
        labels[i] = int(label_val)
        col = 0
        for j, raw in enumerate(row):
            if j == label_idx:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise FeatureParseError(
                    f"{path}: row {i + 2}, column {header[j]!r}: {raw!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise FeatureParseError(
                    f"{path}: row {i + 2}, column {header[j]!r}: non-finite value {raw!r}"
                )
            features[i, col] = value
            col += 1

    if len(np.unique(labels)) < 2:
        raise SingleClassError(f"{path}: file contains a single class")
    return LabeledDataset(features, labels)


def per_row_save_csv(ds: LabeledDataset, path, label_column="label") -> None:
    """Oracle for save_csv: the per-row writer it replaced, kept verbatim."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = [f"x{j}" for j in range(ds.n_features)] + [label_column]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def forward_only(net, x):
    """Output of a relu...linear network on a (batch, in) matrix, forward products only.

    The same matrix products as `mlp_forward`, without its input checks, its
    kept activations and its finiteness check: what a finite-difference
    closure needs, evaluated thousands of times per case.
    """
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(0.0, a @ w + b)
    return a @ net.weights[-1] + net.biases[-1]


def regression_loss(net, x, targets):
    """0.5 * mean((net(x) - targets)^2): the value loss, and the critic loss at fixed targets."""
    diff = forward_only(net, x)[:, 0] - targets
    return 0.5 * float(np.mean(diff * diff))


def q_targets(target_v, batch, gamma):
    """The critic's regression targets r + gamma * (1 - terminal) * V_target(s'); no q in them."""
    v_next = forward_only(target_v, batch.next_states)[:, 0]
    return batch.rewards + gamma * (1.0 - batch.terminals) * v_next


def policy_loss(policy, q_net, states, eps, alpha):
    """mean(alpha * log pi(a|s) - Q(s, a)) for the squashed reparameterized actions of `eps`."""
    heads = forward_only(policy, states)
    log_std = np.clip(heads[:, 1], LOG_STD_MIN, LOG_STD_MAX)
    u = heads[:, 0] + np.exp(log_std) * eps
    actions = 0.5 * (np.tanh(u) + 1.0)
    # log(da/du) = log(0.5 * (1 - tanh(u)^2)) = log 2 - 2u - 2 softplus(-2u), stable in u
    log_jacobian = math.log(2.0) - 2.0 * u - 2.0 * np.logaddexp(0.0, -2.0 * u)
    log_prob = -0.5 * eps * eps - log_std - 0.5 * math.log(2.0 * math.pi) - log_jacobian
    q = forward_only(q_net, np.column_stack((states, actions)))[:, 0]
    return float(np.mean(alpha * log_prob - q))


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


def fd_network_gradients(net, x, losses, h=1e-5):
    """`fd_param_gradients` of `losses(forward_only(net, x))`, batched layer by layer.

    Perturbing weight (i, j) of a layer by ±h moves only column j of that
    layer's pre-activation, by ±h * a_i for the layer's input a; bias j moves
    it by ±h. So each layer stacks every perturbed pre-activation as one batch
    and runs the layers above it once. `losses` maps a (..., batch, out) stack
    of outputs to one loss per stack entry. Returns a flat vector in the
    layout of `net.params`; it differs from the per-entry loop by roundoff.
    """
    inputs = [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        inputs.append(np.maximum(0.0, inputs[-1] @ w + b))
    grads = []
    for layer, (a, w, b) in enumerate(zip(inputs, net.weights, net.biases)):
        n_in, n_out = w.shape
        cols = np.arange(n_out)
        # shift[i, j] moves column j by a[:, i]; the last row holds the biases' unit shifts
        shift = np.zeros((n_in + 1, n_out, len(a), n_out))
        shift[:n_in, cols, :, cols] = a.T
        shift[n_in, cols, :, cols] = 1.0
        shift = shift.reshape(-1, len(a), n_out)
        z = a @ w + b
        sides = []
        for step in (h, -h):
            out = z + step * shift
            for w_up, b_up in zip(net.weights[layer + 1:], net.biases[layer + 1:]):
                out = np.maximum(0.0, out) @ w_up + b_up
            sides.append(losses(out))
        grads.append((sides[0] - sides[1]) / (2.0 * h))
    return np.concatenate(grads)


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


def numpy_kernels() -> str:
    """The OpenBLAS core and the highest SIMD level of this numpy, as one line.

    The sha256 pins hold with one BLAS kernel, so a pin failure's message names
    the kernel that ran. The core is read from the OpenBLAS that numpy's wheel
    bundles, the SIMD level from the CPU features numpy found; either reads
    `unknown` where it cannot be found, as with another OpenBLAS build.
    """
    core = "unknown"
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob(
            "libscipy_openblas64_-*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    features = {}
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            features = importlib.import_module(module).__cpu_features__
            break
        except (ImportError, AttributeError):
            continue
    found = [name for name, on in features.items() if on]
    return f"OpenBLAS core {core}, numpy SIMD {found[-1] if found else 'unknown'}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_tree_fit(monkeypatch):
    """Fail the test if a DecisionTree is fit while it runs."""
    monkeypatch.setattr(DecisionTree, "fit", lambda *args: pytest.fail("a tree was fit"))
