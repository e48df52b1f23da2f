"""Minimal fully-connected networks on raw numpy: relu hidden layers, a linear head.

Each network owns one contiguous float64 vector `params`, layer by layer:
weights (fan_in, fan_out) row-major, then biases; `weights[i]` and `biases[i]`
are views into it, and gradients and Adam moments share that layout. A
forward pass returns each layer's output, all that the backward pass reads.
Also: Adam with its stepped learning-rate schedule, which only `adam_step`
advances, Polyak updates and a versioned JSON round-trip.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .rng import as_generator, check_float, check_integer

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


def _activation_names(layer_sizes):
    """The shape every network has, as a document records it: relu layers, a linear head."""
    return ["relu"] * (len(layer_sizes) - 2) + ["linear"]


class Mlp:
    """Relu layers and a linear head on one flat `params` vector; weights[i] is (fan_in, fan_out).

    Without `params` the network starts at zero; a given float64 vector is
    used in place, not copied.
    """

    def __init__(self, layer_sizes, params=None):
        self.layer_sizes = [check_integer("layer size", s, least=1) for s in layer_sizes]
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        sizes = self.layer_sizes
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.params = np.zeros(size) if params is None else np.ascontiguousarray(params, np.float64)
        if self.params.shape != (size,):
            raise ValueError(f"layers {sizes} need {size} parameters, got {self.params.shape}")
        self.weights, self.biases = _layer_views(self.params, sizes)

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.params.copy())


def init_mlp(layer_sizes, seed) -> Mlp:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    net = Mlp(layer_sizes)
    rng = as_generator(seed)
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
    return net


def mlp_forward(net: Mlp, x):
    """(output, acts) of a (batch, in) matrix: acts[0] is x, acts[i + 1] is layer i's output."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input of shape {a.shape} is not a (batch, {net.layer_sizes[0]}) matrix")
    acts = [a]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(0.0, a @ w + b)
        acts.append(a)
    a = a @ net.weights[-1] + net.biases[-1]
    acts.append(a)
    if not np.isfinite(a).all():
        raise NumericalError("non-finite network output")
    return a, acts


def mlp_backward(net: Mlp, acts, grad_output):
    """Backpropagate an output gradient through the activations of a forward pass.

    Returns the parameter gradient as one flat vector laid out like
    net.params; the gradient of the input, which no parameter needs, is
    not formed (see `mlp_input_grad`).
    """
    g = np.asarray(grad_output, dtype=np.float64)
    grads = np.empty_like(net.params)
    grad_weights, grad_biases = _layer_views(grads, net.layer_sizes)
    for layer in reversed(range(len(net.weights))):
        if layer < len(net.weights) - 1:
            g = g * (acts[layer + 1] > 0.0)  # relu: max(0, z) > 0 exactly where z > 0
        np.matmul(acts[layer].T, g, out=grad_weights[layer])
        g.sum(axis=0, out=grad_biases[layer])
        if layer:
            g = g @ net.weights[layer].T
    return grads


def mlp_input_grad(net: Mlp, acts, grad_output):
    """Backpropagate an output gradient to the input of a forward pass, skipping parameters.

    The same products as `mlp_backward`'s input chain, so the (batch, in)
    result has the bits a full backward pass would give.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    for layer in reversed(range(len(net.weights))):
        if layer < len(net.weights) - 1:
            g = g * (acts[layer + 1] > 0.0)
        g = g @ net.weights[layer].T
    return g


@dataclass
class AdamState:
    """Adam moments shaped like the flat parameters; every decay_every steps, lr *= decay_ratio."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    decay_every: int = 1
    decay_ratio: float = 1.0

    @classmethod
    def for_params(cls, params, lr: float, decay_every: int = 1,
                   decay_ratio: float = 1.0) -> "AdamState":
        check_float("lr", lr, "(0, inf)")
        decay_every = check_integer("decay_every", decay_every, least=1)
        check_float("decay_ratio", decay_ratio, "(0, 1]")
        return cls(lr=lr, m=np.zeros_like(params), v=np.zeros_like(params),
                   decay_every=decay_every, decay_ratio=decay_ratio)


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update of flat params, in place, then one tick of the lr schedule."""
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
    if state.step % state.decay_every == 0:
        state.lr *= state.decay_ratio


def soft_update(target: Mlp, source: Mlp, tau: float) -> None:
    """target <- tau * source + (1 - tau) * target, exactly, in place."""
    check_float("tau", tau, "[0, 1]")
    target.params[...] = tau * source.params + (1.0 - tau) * target.params


def mlp_to_document(net: Mlp) -> dict:
    """JSON-ready dict; float lists round-trip bit-exactly through json."""
    if not np.isfinite(net.params).all():
        raise NumericalError("refusing to serialize non-finite parameters")
    return {
        "format_version": FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activations": _activation_names(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_document(doc: dict) -> Mlp:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    net = Mlp(doc["layer_sizes"])
    names = _activation_names(net.layer_sizes)
    if doc["activations"] != names:
        raise ValueError(f"activations must be {names}, got {doc['activations']!r}")
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
