"""Minimal fully-connected networks on raw numpy.

Forward passes cache layer inputs and pre-activations; the backward pass
replays them in reverse for exact gradients of any scalar loss expressed as
an output gradient. Includes Adam with bias correction, Polyak soft target
updates, stepped learning-rate decay and a versioned JSON round-trip.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .rng import as_generator

ACTIVATIONS = ("relu", "linear", "tanh")
FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Mlp:
    """Dense layers; weights[i] has shape (fan_in, fan_out)."""

    weights: list
    biases: list
    activations: list

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def parameters(self) -> list:
        """Live parameter arrays, weights and biases interleaved per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        return Mlp(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activations=list(self.activations),
        )


def init_mlp(layer_sizes, activations, seed) -> Mlp:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output size")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    if len(activations) != len(layer_sizes) - 1:
        raise ValueError(
            f"{len(layer_sizes) - 1} layers need {len(layer_sizes) - 1} activations, "
            f"got {len(activations)}"
        )
    for act in activations:
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
    rng = as_generator(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights=weights, biases=biases, activations=list(activations))


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
    if a.shape[1] != net.weights[0].shape[0]:
        raise ValueError(
            f"input width {a.shape[1]} does not match network input {net.weights[0].shape[0]}"
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

    Returns (grads, grad_input) where grads matches net.parameters() order.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if cache["single"]:
        g = g[None, :]
    grads = [None] * (2 * len(net.weights))
    for layer in reversed(range(len(net.weights))):
        g = g * _apply_grad(net.activations[layer], cache["pre"][layer], cache["post"][layer])
        grads[2 * layer] = cache["inputs"][layer].T @ g
        grads[2 * layer + 1] = g.sum(axis=0)
        g = g @ net.weights[layer].T
    return grads, (g[0] if cache["single"] else g)


@dataclass
class AdamState:
    """Adam moments plus the stepped learning-rate decay counter."""

    lr: float
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    decay_ticks: int = 0

    @classmethod
    def for_params(cls, params, lr: float) -> "AdamState":
        if not lr > 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update, in place, with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must have matching lengths")
    for g in grads:
        if not np.isfinite(g).all():
            raise NumericalError("non-finite gradient")
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """target <- tau * source + (1 - tau) * target, exactly, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    for t, s in zip(target.parameters(), source.parameters()):
        t[...] = tau * s + (1.0 - tau) * t


def decay_learning_rate(state: AdamState, every: int = 10, ratio: float = 0.99) -> None:
    """One decay tick; every `every` ticks the learning rate is multiplied by `ratio`."""
    if every < 1:
        raise ValueError(f"decay interval must be positive, got {every}")
    state.decay_ticks += 1
    if state.decay_ticks % every == 0:
        state.lr *= ratio


def mlp_to_document(net: Mlp) -> dict:
    """JSON-ready dict; float lists round-trip bit-exactly through json."""
    for p in net.parameters():
        if not np.isfinite(p).all():
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
    sizes = list(doc["layer_sizes"])
    activations = list(doc["activations"])
    weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise ValueError("layer count mismatch")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise ValueError(f"layer {i} has shape {w.shape}, expected {(sizes[i], sizes[i + 1])}")
    net = Mlp(weights=weights, biases=biases, activations=activations)
    for act in activations:
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
    for p in net.parameters():
        if not np.isfinite(p).all():
            raise NumericalError("document contains non-finite parameters")
    return net
