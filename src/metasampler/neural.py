"""Minimal fully-connected networks on raw numpy.

Each network owns one contiguous float64 vector `params`, layer by layer:
weights (fan_in, fan_out) row-major, then biases; `weights[i]` and
`biases[i]` are views into it. Gradients and Adam moments share that layout,
so Adam, Polyak soft updates and finiteness checks act on whole vectors.
Forward passes cache layer inputs and pre-activations; the backward pass
replays them in reverse for exact gradients of any scalar loss expressed as
an output gradient. Also: stepped learning-rate decay and a versioned JSON
round-trip.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .rng import as_generator

ACTIVATIONS = ("relu", "linear", "tanh")
FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _layer_views(flat, layer_sizes):
    """Per-layer weight (fan_in, fan_out) and bias (fan_out,) views into one flat vector."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return weights, biases


class Mlp:
    """Dense layers over one flat `params` vector; weights[i] has shape (fan_in, fan_out).

    Without `params` the network starts at zero; a given float64 vector is
    used in place, not copied.
    """

    def __init__(self, layer_sizes, activations, params=None):
        self.layer_sizes = [operator.index(s) for s in layer_sizes]
        self.activations = list(activations)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        if len(self.activations) != len(self.layer_sizes) - 1:
            raise ValueError(
                f"{len(self.layer_sizes) - 1} layers need {len(self.layer_sizes) - 1} "
                f"activations, got {len(self.activations)}"
            )
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        sizes = self.layer_sizes
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.params = np.zeros(size) if params is None else np.ascontiguousarray(params, np.float64)
        if self.params.shape != (size,):
            raise ValueError(f"layers {sizes} need {size} parameters, got {self.params.shape}")
        self.weights, self.biases = _layer_views(self.params, sizes)

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.activations, self.params.copy())


def init_mlp(layer_sizes, activations, seed) -> Mlp:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    net = Mlp(layer_sizes, activations)
    rng = as_generator(seed)
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
    return net


def _apply(act, z):
    if act == "relu":
        return np.maximum(0.0, z)
    if act == "tanh":
        return np.tanh(z)
    return z


def _apply_grad(act, z, out):
    if act == "relu":
        return (z > 0.0).astype(np.float64)
    if act == "tanh":
        return 1.0 - out * out
    return np.ones_like(z)


def mlp_forward(net: Mlp, x):
    """Returns (output, cache); accepts a single vector or a (batch, in) matrix."""
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"input width {a.shape[1]} does not match network input {net.layer_sizes[0]}"
        )
    inputs, pre, post = [], [], []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(a)
        z = a @ w + b
        a = _apply(act, z)
        pre.append(z)
        post.append(a)
    if not np.isfinite(a).all():
        raise NumericalError("non-finite network output")
    cache = {"inputs": inputs, "pre": pre, "post": post, "single": single}
    return (a[0] if single else a), cache


def mlp_backward(net: Mlp, cache, grad_output):
    """Backpropagate an output gradient through a cached forward pass.

    Returns (grads, grad_input) where grads is one flat vector laid out like net.params.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if cache["single"]:
        g = g[None, :]
    grads = np.empty_like(net.params)
    grad_weights, grad_biases = _layer_views(grads, net.layer_sizes)
    for layer in reversed(range(len(net.weights))):
        g = g * _apply_grad(net.activations[layer], cache["pre"][layer], cache["post"][layer])
        np.matmul(cache["inputs"][layer].T, g, out=grad_weights[layer])
        g.sum(axis=0, out=grad_biases[layer])
        g = g @ net.weights[layer].T
    return grads, (g[0] if cache["single"] else g)


@dataclass
class AdamState:
    """Adam moments, shaped like the flat parameter vector, plus the learning-rate decay counter."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    decay_ticks: int = 0

    @classmethod
    def for_params(cls, params, lr: float) -> "AdamState":
        if not lr > 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        return cls(lr=lr, m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update of a flat parameter vector, in place, with bias correction."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and state must have matching shapes")
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradient")
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    params -= state.lr * (state.m / bias1) / (np.sqrt(state.v / bias2) + ADAM_EPS)


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """target <- tau * source + (1 - tau) * target, exactly, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    target.params[...] = tau * source.params + (1.0 - tau) * target.params


def decay_learning_rate(state: AdamState, every: int = 10, ratio: float = 0.99) -> None:
    """One decay tick; every `every` ticks the learning rate is multiplied by `ratio`."""
    if every < 1:
        raise ValueError(f"decay interval must be positive, got {every}")
    state.decay_ticks += 1
    if state.decay_ticks % every == 0:
        state.lr *= ratio


def mlp_to_document(net: Mlp) -> dict:
    """JSON-ready dict; float lists round-trip bit-exactly through json."""
    if not np.isfinite(net.params).all():
        raise NumericalError("refusing to serialize non-finite parameters")
    return {
        "format_version": FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activations": list(net.activations),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_document(doc: dict) -> Mlp:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    net = Mlp(doc["layer_sizes"], doc["activations"])
    if len(doc["weights"]) != len(net.weights) or len(doc["biases"]) != len(net.biases):
        raise ValueError("layer count mismatch")
    for i, (w, b) in enumerate(zip(doc["weights"], doc["biases"])):
        w, b = np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if w.shape != net.weights[i].shape or b.shape != net.biases[i].shape:
            raise ValueError(f"layer {i} has shape {w.shape}, expected {net.weights[i].shape}")
        net.weights[i][...], net.biases[i][...] = w, b
    if not np.isfinite(net.params).all():
        raise NumericalError("document contains non-finite parameters")
    return net
