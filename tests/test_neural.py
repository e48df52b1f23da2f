import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from metasampler import NumericalError
from metasampler.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Mlp,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_from_document,
    mlp_input_grad,
    mlp_to_document,
    soft_update,
)
from conftest import fd_param_gradients, max_relative_error


def tiny_net(weight, bias):
    """One linear layer from 1 input to 1 output."""
    return Mlp([1, 1], np.array([float(weight), float(bias)]))


class TestForward:
    def test_zero_weights_zero_output(self):
        net = init_mlp([3, 4, 1], seed=0)
        for w in net.weights:
            w[...] = 0.0
        out, _ = mlp_forward(net, np.ones((1, 3)))
        assert out.tolist() == [[0.0]]

    def test_identity_passthrough(self):
        out, _ = mlp_forward(tiny_net(1.0, 0.0), np.array([[0.7]]))
        assert out[0, 0] == 0.7

    def test_deterministic(self, rng):
        net = init_mlp([4, 8, 2], seed=5)
        x = rng.standard_normal((1, 4))
        a, _ = mlp_forward(net, x)
        b, _ = mlp_forward(net, x)
        assert np.array_equal(a, b)

    def test_batch_rows_match_single_vectors(self, rng):
        net = init_mlp([3, 6, 2], seed=7)
        batch = rng.standard_normal((5, 3))
        out, _ = mlp_forward(net, batch)
        for i in range(5):
            (row,), _ = mlp_forward(net, batch[i:i + 1])
            # batched and single-row matmuls take different BLAS paths
            np.testing.assert_allclose(out[i], row, rtol=0.0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        net = init_mlp([3, 2], seed=0)
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)], ids=["vector", "3-d"])
    def test_only_a_matrix_is_accepted(self, shape):
        net = init_mlp([3, 2], seed=0)
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros(shape))

    def test_init_validates(self):
        with pytest.raises(ValueError):
            init_mlp([3], seed=0)
        with pytest.raises(ValueError):
            init_mlp([3, 0], seed=0)

    @pytest.mark.parametrize("sizes", [[True, 1], [10, True, 2], [np.bool_(True), 1]])
    def test_boolean_layer_size_refused(self, sizes):
        with pytest.raises(ValueError):
            Mlp(sizes)


class TestBackward:
    def test_linear_weight_grad_is_input(self):
        net = tiny_net(0.3, 0.1)
        x = np.array([[2.5]])
        _, acts = mlp_forward(net, x)
        grads = mlp_backward(net, acts, np.array([[1.0]]))
        grad_in = mlp_input_grad(net, acts, np.array([[1.0]]))
        assert grads[0] == 2.5            # dL/dw = x
        assert grads[1] == 1.0            # dL/db
        assert grad_in[0, 0] == 0.3       # dL/dx = w

    def test_relu_dead_unit_gets_zero_grad(self):
        # one relu unit (w = 1, b = 0) feeding a linear head (w = 1, b = 0)
        net = Mlp([1, 1, 1], np.array([1.0, 0.0, 1.0, 0.0]))
        _, acts = mlp_forward(net, np.array([[-2.0]]))
        grads = mlp_backward(net, acts, np.array([[1.0]]))
        grad_in = mlp_input_grad(net, acts, np.array([[1.0]]))
        assert grads[0] == 0.0
        assert grads[1] == 0.0
        assert grad_in[0, 0] == 0.0

    def test_matches_finite_differences(self, rng):
        net = init_mlp([4, 6, 6, 1], seed=3)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 1))

        def loss():
            out, _ = mlp_forward(net, x)
            return 0.5 * float(np.sum((out - y) ** 2))

        out, acts = mlp_forward(net, x)
        analytic = mlp_backward(net, acts, out - y)
        numeric = fd_param_gradients(loss, [net.params])
        assert max_relative_error([analytic], numeric) < 1e-5

    def test_batch_grad_is_sum_of_rows(self, rng):
        net = init_mlp([3, 5, 2], seed=9)
        x = rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 2))
        _, acts = mlp_forward(net, x)
        batch_grads = mlp_backward(net, acts, g)
        summed = np.zeros_like(net.params)
        for i in range(4):
            _, row_acts = mlp_forward(net, x[i:i + 1])
            row_grads = mlp_backward(net, row_acts, g[i:i + 1])
            summed += row_grads
        assert max_relative_error([batch_grads], [summed]) < 1e-10


class TestAdam:
    def test_zero_grad_no_movement(self):
        params = np.array([1.0, -2.0])
        state = AdamState.for_params(params, lr=1e-3)
        adam_step(params, np.zeros(2), state)
        assert params.tolist() == [1.0, -2.0]

    def test_first_step_moves_by_about_lr(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=1e-3)
        adam_step(params, np.array([5.0]), state)
        # bias-corrected first step is lr * g / (|g| + eps), essentially lr
        assert params[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_quadratic_bowl_converges(self):
        target = np.array([0.3, -0.7, 1.2])
        params = np.array([2.0, 2.0, 2.0])
        state = AdamState.for_params(params, lr=1e-2)
        losses = []
        for _ in range(500):
            grad = params - target
            losses.append(0.5 * float(np.sum(grad**2)))
            adam_step(params, grad, state)
        assert losses[-1] < 0.02 * losses[0]
        tail = losses[10:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_non_finite_grad_rejected(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=1e-3)
        with pytest.raises(NumericalError):
            adam_step(params, np.array([np.nan]), state)

    def test_shape_mismatch_rejected(self):
        params = np.zeros(3)
        state = AdamState.for_params(params, lr=1e-3)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(2), state)

    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            AdamState.for_params(np.zeros(1), lr=0.0)


class TestSoftUpdate:
    def test_tau_one_copies_source(self):
        target = init_mlp([2, 3, 1], seed=0)
        source = init_mlp([2, 3, 1], seed=1)
        soft_update(target, source, tau=1.0)
        assert np.array_equal(target.params, source.params)

    def test_tau_zero_leaves_target(self):
        target = init_mlp([2, 3, 1], seed=0)
        before = target.params.copy()
        source = init_mlp([2, 3, 1], seed=1)
        soft_update(target, source, tau=0.0)
        assert np.array_equal(target.params, before)

    def test_blend_is_bit_exact(self):
        tau = 0.01
        target = init_mlp([3, 4, 2], seed=2)
        source = init_mlp([3, 4, 2], seed=3)
        expected = tau * source.params + (1.0 - tau) * target.params
        soft_update(target, source, tau)
        assert np.array_equal(target.params, expected)

    def test_scalar_blend_value(self):
        target = tiny_net(0.0, 0.0)
        source = tiny_net(1.0, 0.0)
        soft_update(target, source, tau=0.01)
        assert target.weights[0][0, 0] == 0.01

    def test_tau_out_of_range(self):
        net = tiny_net(0.0, 0.0)
        with pytest.raises(ValueError):
            soft_update(net, net.copy(), tau=1.5)


class TestDecay:
    """The schedule an AdamState carries, driven by adam_step alone."""

    @staticmethod
    def run(steps, **schedule):
        params = np.zeros(1)
        state = AdamState.for_params(params, lr=1e-3, **schedule)
        for _ in range(steps):
            adam_step(params, np.zeros(1), state)
        return state

    def test_ten_ticks_one_decay(self):
        assert self.run(10, decay_every=10, decay_ratio=0.99).lr == 1e-3 * 0.99

    def test_nine_ticks_no_decay(self):
        assert self.run(9, decay_every=10, decay_ratio=0.99).lr == 1e-3

    def test_hundred_ticks_ten_decays(self):
        expected = 1e-3
        for _ in range(10):
            expected *= 0.99
        assert self.run(100, decay_every=10, decay_ratio=0.99).lr == expected

    def test_no_schedule_keeps_the_rate(self):
        state = self.run(25)
        assert (state.step, state.lr, state.decay_every, state.decay_ratio) == (25, 1e-3, 1, 1.0)

    @pytest.mark.parametrize("every", [0, -3, 2.5, True, np.float64(10.0), "10"])
    def test_interval_validated(self, every):
        # before: 2.5 decayed at ticks 5 and 10 and True at every tick, silently
        with pytest.raises(ValueError, match="decay_every"):
            AdamState.for_params(np.zeros(1), lr=1e-3, decay_every=every)

    def test_numpy_integer_interval_accepted(self):
        state = self.run(10, decay_every=np.int64(10), decay_ratio=0.5)
        assert type(state.decay_every) is int and state.lr == 1e-3 * 0.5


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        net = init_mlp([4, 7, 3, 1], seed=13)
        doc = json.loads(json.dumps(mlp_to_document(net)))
        assert doc["activations"] == ["relu", "relu", "linear"]
        back = mlp_from_document(doc)
        assert back.layer_sizes == net.layer_sizes
        assert back.params.tobytes() == net.params.tobytes()

    def test_refuses_non_finite(self):
        net = tiny_net(np.nan, 0.0)
        with pytest.raises(NumericalError):
            mlp_to_document(net)

    def test_rejects_unknown_version(self):
        doc = mlp_to_document(tiny_net(1.0, 0.0))
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            mlp_from_document(doc)

    def test_rejects_shape_mismatch(self):
        doc = mlp_to_document(init_mlp([2, 3], seed=0))
        doc["weights"][0] = [[1.0, 2.0]]
        with pytest.raises(ValueError):
            mlp_from_document(doc)

    @pytest.mark.parametrize(
        "activations",
        [["softmax", "linear"], ["tanh", "linear"], ["relu", "relu"], ["linear", "linear"],
         ["relu"], ["relu", "relu", "linear"], "relu,linear"],
        ids=["unknown", "tanh", "relu-head", "linear-hidden", "too-short", "too-long", "text"],
    )
    def test_rejects_any_other_shape(self, activations):
        doc = mlp_to_document(init_mlp([2, 3, 1], seed=0))
        assert doc["activations"] == ["relu", "linear"]
        doc["activations"] = activations
        with pytest.raises(ValueError):
            mlp_from_document(doc)

    def test_requires_activations(self):
        doc = mlp_to_document(tiny_net(1.0, 0.0))
        del doc["activations"]
        with pytest.raises(KeyError):
            mlp_from_document(doc)

    def test_document_restores_param_bytes_in_views(self, rng):
        net = init_mlp([5, 9, 2], seed=21)
        net.params += rng.standard_normal(net.params.size)
        back = mlp_from_document(json.loads(json.dumps(mlp_to_document(net))))
        assert back.params.tobytes() == net.params.tobytes()
        for w, b in zip(back.weights, back.biases):
            assert np.shares_memory(w, back.params) and np.shares_memory(b, back.params)

    def test_refuses_non_finite_bias(self):
        doc = mlp_to_document(init_mlp([2, 3], seed=0))
        doc["biases"][0][2] = float("inf")
        with pytest.raises(NumericalError):
            mlp_from_document(doc)

    def test_rejects_layer_count_mismatch(self):
        doc = mlp_to_document(init_mlp([2, 3, 1], seed=0))
        doc["weights"] = doc["weights"][:1]
        with pytest.raises(ValueError):
            mlp_from_document(doc)

    # sha256 of json.dumps(mlp_to_document(init_mlp(...)), sort_keys=True): the
    # [10, 50, 2] digest was taken when parameters were still a list of separate
    # weight and bias arrays, the [4, 7, 3, 1] digest when each layer still named
    # its activation. Both must draw the same uniforms in the same order.
    @pytest.mark.parametrize(
        "sizes, seed, digest",
        [
            ([4, 7, 3, 1], 13,
             "145626557e0e225d187f22df45fa29ff1e72e03c1ee1b8968937b9f7f3e14a1f"),
            ([10, 50, 2], 0,
             "ab75ec22baf18df39e010a06a736d03e96b96c38b24883f30fe47f231994fc77"),
        ],
    )
    def test_init_document_is_pinned(self, sizes, seed, digest):
        doc = mlp_to_document(init_mlp(sizes, seed))
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


class TestFlatLayout:
    def test_views_share_memory_with_params(self):
        net = init_mlp([3, 5, 2], seed=4)
        for w, b in zip(net.weights, net.biases):
            assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
        net.params[:] = np.arange(net.params.size)
        # layer by layer: weights row-major, then biases
        expected = np.concatenate([np.r_[w.ravel(), b] for w, b in zip(net.weights, net.biases)])
        assert np.array_equal(expected, np.arange(net.params.size))
        assert net.weights[0][0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert net.biases[0].tolist() == [15.0, 16.0, 17.0, 18.0, 19.0]

    def test_writes_through_views_reach_params(self):
        net = init_mlp([2, 3], seed=0)
        net.weights[0][1, 2] = 7.5
        net.biases[0][0] = -1.25
        assert net.params[5] == 7.5 and net.params[6] == -1.25

    def test_given_vector_is_used_in_place(self):
        params = np.zeros(9)
        net = Mlp([2, 3], params)
        params[0] = 4.0
        assert net.weights[0][0, 0] == 4.0

    def test_copy_is_independent(self):
        net = init_mlp([3, 4, 1], seed=8)
        before = net.params.copy()
        twin = net.copy()
        assert twin.params.tobytes() == net.params.tobytes()
        assert twin.layer_sizes == net.layer_sizes
        twin.params += 1.0
        twin.weights[0][0, 0] = 99.0
        assert np.array_equal(net.params, before)
        assert not np.shares_memory(twin.params, net.params)
        assert all(np.shares_memory(w, twin.params) for w in twin.weights)

    def test_gradient_is_laid_out_like_params(self, rng):
        net = init_mlp([2, 3, 1], seed=1)
        x = rng.standard_normal((4, 2))
        _, acts = mlp_forward(net, x)
        grads = mlp_backward(net, acts, np.ones((4, 1)))
        assert grads.shape == net.params.shape
        # last layer: dL/dW2 = sum over rows of hidden activations, dL/db2 = rows
        hidden = np.maximum(0.0, x @ net.weights[0] + net.biases[0])
        assert np.allclose(grads[9:12], hidden.sum(axis=0), rtol=0.0, atol=1e-12)
        assert grads[12] == 4.0

    def test_parameter_count_validated(self):
        with pytest.raises(ValueError):
            Mlp([2, 3], np.zeros(8))
        with pytest.raises(ValueError):
            Mlp([2, 3], np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Mlp([2.0, 3])


# Verbatim copies of the passes that named each layer's activation and cached
# its inputs, pre-activations and outputs in a dict, kept as oracles: they
# read a network through ReferenceNet, which names the fixed shape. The
# forward and backward passes must match them bit for bit.

@dataclass
class ReferenceNet:
    """What the reference passes read of a network: its layers and their activation names."""

    layer_sizes: list
    weights: list
    biases: list
    activations: list


def reference_net(net):
    """`net` with the activation names its fixed shape stands for."""
    names = ["relu"] * (len(net.layer_sizes) - 2) + ["linear"]
    return ReferenceNet(net.layer_sizes, net.weights, net.biases, names)


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


def reference_mlp_forward(net, x):
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


# Verbatim copies of the list-based network updates that the flat parameter
# vector replaced, kept as oracles (parameters were weight and bias arrays
# interleaved per layer). The flat versions must match them bit for bit.

def reference_parameters(net):
    """Live parameter arrays, weights and biases interleaved per layer."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.append(w)
        out.append(b)
    return out


def reference_mlp_backward(net, cache, grad_output):
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


def reference_decay_learning_rate(state, every: int = 10, ratio: float = 0.99) -> None:
    """One decay tick; every `every` ticks the learning rate is multiplied by `ratio`."""
    if every < 1:
        raise ValueError(f"decay interval must be positive, got {every}")
    state.decay_ticks += 1
    if state.decay_ticks % every == 0:
        state.lr *= ratio


@dataclass
class ReferenceAdamState:
    """Adam moments plus the stepped learning-rate decay counter."""

    lr: float
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: int = 0
    decay_ticks: int = 0

    @classmethod
    def for_params(cls, params, lr: float) -> "ReferenceAdamState":
        if not lr > 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def reference_adam_step(params, grads, state) -> None:
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


def reference_soft_update(target, source, tau: float) -> None:
    """target <- tau * source + (1 - tau) * target, exactly, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    for t, s in zip(reference_parameters(target), reference_parameters(source)):
        t[...] = tau * s + (1.0 - tau) * t


def random_layout(rng):
    """Layer sizes of 1 to 3 layers, each 1 to 12 wide."""
    return [int(s) for s in rng.integers(1, 13, size=int(rng.integers(2, 5)))]


def as_list(net_like, flat):
    """`flat` split into the reference's interleaved per-layer arrays."""
    return reference_parameters(Mlp(net_like.layer_sizes, flat))


def assert_passes_match_reference(net, x, g_out):
    """Output, every activation, flat and input gradients equal the dict-cache oracle's bytes."""
    ref = reference_net(net)
    out, acts = mlp_forward(net, x)
    ref_out, cache = reference_mlp_forward(ref, x)
    assert out.shape == ref_out.shape and out.tobytes() == ref_out.tobytes()
    assert len(acts) == len(cache["post"]) + 1
    assert acts[0].tobytes() == cache["inputs"][0].tobytes()
    for got, want in zip(acts[1:], cache["post"]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    flat, flat_in = mlp_backward(net, acts, g_out), mlp_input_grad(net, acts, g_out)
    expected, expected_in = reference_mlp_backward(ref, cache, g_out)
    for got, want in zip(as_list(net, flat), expected):
        assert got.tobytes() == want.tobytes()
    assert flat_in.shape == expected_in.shape and flat_in.tobytes() == expected_in.tobytes()


class TestPassesMatchCacheOracle:
    @pytest.mark.parametrize("case", range(24))
    def test_random_layouts(self, case):
        rng = np.random.default_rng(400 + case)
        sizes = random_layout(rng)
        net = init_mlp(sizes, rng)
        net.params[...] = rng.standard_normal(net.params.size)  # biases of both signs too
        x = rng.standard_normal((int(rng.integers(1, 9)), sizes[0]))
        assert_passes_match_reference(net, x, rng.standard_normal((len(x), sizes[-1])))

    @pytest.mark.parametrize(
        "sizes, batch",
        [([3, 2], 1), ([1, 1], 4), ([1, 1, 1], 1), ([4, 6, 1], 1), ([2, 3, 3, 2], 1),
         ([10, 50, 2], 1), ([10, 50, 2], 64), ([11, 50, 50, 1], 64)],
    )
    def test_edge_layouts(self, sizes, batch):
        """One-layer nets, batch 1, the SAC layouts, and exact relu kinks at a zero row."""
        rng = np.random.default_rng(sum(sizes) * 100 + batch)
        net = init_mlp(sizes, rng)  # zero biases: the zero row sits on every first-layer kink
        x = rng.standard_normal((batch, sizes[0]))
        x[0] = 0.0
        assert_passes_match_reference(net, x, rng.standard_normal((batch, sizes[-1])))


class TestFlatMatchesListOracle:
    @pytest.mark.parametrize("case", range(8))
    def test_backward_matches_reference(self, case):
        rng = np.random.default_rng(100 + case)
        sizes = random_layout(rng)
        net = init_mlp(sizes, rng)
        x = rng.standard_normal((int(rng.integers(1, 9)), sizes[0]))
        g_out = rng.standard_normal((len(x), sizes[-1]))
        _, acts = mlp_forward(net, x)
        flat, flat_in = mlp_backward(net, acts, g_out), mlp_input_grad(net, acts, g_out)
        _, cache = reference_mlp_forward(reference_net(net), x)
        expected, expected_in = reference_mlp_backward(reference_net(net), cache, g_out)
        for got, want in zip(as_list(net, flat), expected):
            assert got.tobytes() == want.tobytes()
        assert flat_in.tobytes() == expected_in.tobytes()

    @pytest.mark.parametrize("case", range(8))
    def test_adam_matches_reference(self, case):
        rng = np.random.default_rng(200 + case)
        sizes = random_layout(rng)
        net = init_mlp(sizes, rng)
        ref = net.copy()
        state = AdamState.for_params(net.params, lr=1e-2, decay_every=3, decay_ratio=0.9)
        ref_state = ReferenceAdamState.for_params(reference_parameters(ref), lr=1e-2)
        for step in range(12):
            grads = rng.standard_normal(net.params.size) * 10.0 ** rng.integers(-6, 3)
            adam_step(net.params, grads, state)
            reference_adam_step(reference_parameters(ref), as_list(net, grads.copy()), ref_state)
            reference_decay_learning_rate(ref_state, every=3, ratio=0.9)
            assert net.params.tobytes() == ref.params.tobytes(), step
            assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_state.m]).tobytes()
            assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_state.v]).tobytes()
            assert (state.step, state.lr) == (ref_state.step, ref_state.lr)

    @pytest.mark.parametrize("case", range(8))
    def test_soft_update_matches_reference(self, case):
        rng = np.random.default_rng(300 + case)
        sizes = random_layout(rng)
        target = init_mlp(sizes, rng)
        source = init_mlp(sizes, rng)
        ref_target = target.copy()
        for step in range(12):
            tau = float(rng.choice([0.0, 0.01, rng.random(), 1.0]))
            soft_update(target, source, tau)
            reference_soft_update(ref_target, source, tau)
            assert target.params.tobytes() == ref_target.params.tobytes(), step
            source.params += 0.1 * rng.standard_normal(source.params.size)

    def test_sac_sized_training_matches_reference(self, rng):
        """Backward, Adam and Polyak together on the SAC value-net layout."""
        net = init_mlp([10, 50, 50, 1], seed=3)
        target = net.copy()
        ref, ref_target = net.copy(), net.copy()
        state = AdamState.for_params(net.params, lr=1e-3)
        ref_state = ReferenceAdamState.for_params(reference_parameters(ref), lr=1e-3)
        for _ in range(20):
            x = rng.random((64, 10))
            y = rng.standard_normal(64)
            out, acts = mlp_forward(net, x)
            grads = mlp_backward(net, acts, ((out[:, 0] - y) / 64)[:, None])
            ref_out, ref_cache = reference_mlp_forward(reference_net(ref), x)
            ref_grads, _ = reference_mlp_backward(
                reference_net(ref), ref_cache, ((ref_out[:, 0] - y) / 64)[:, None]
            )
            adam_step(net.params, grads, state)
            reference_adam_step(reference_parameters(ref), ref_grads, ref_state)
            soft_update(target, net, 0.01)
            reference_soft_update(ref_target, ref, 0.01)
        assert net.params.tobytes() == ref.params.tobytes()
        assert target.params.tobytes() == ref_target.params.tobytes()
