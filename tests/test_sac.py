import hashlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from metasampler import (
    GaussianNaiveBayes,
    NumericalError,
    PolicyActionSource,
    SacConfig,
    SamplerFormatError,
    SplitSpec,
    ToySpec,
    inject_flip_noise,
    load_sampler,
    make_toy,
    meta_train,
    random_sampler,
    save_csv,
    save_sampler,
    score_arms,
    stratified_split,
)
import metasampler
from metasampler.cli import main
from metasampler.ensemble import EnsembleStep
from metasampler.neural import AdamState, adam_step, init_mlp, mlp_forward
from metasampler.rng import as_generator, as_seed_sequence, check_float
from metasampler.sac import (
    HIDDEN_WIDTH,
    LOG_STD_MAX,
    LOG_STD_MIN,
    Batch,
    MetaSampler,
    ReplayMemory,
    SacNets,
    SacOptimizers,
    deterministic_action,
    experiment_point,
    policy_loss_and_grads,
    q_loss_and_grads,
    sac_update,
    sample_action,
    sampler_to_document,
    strict_float,
    strict_int,
    v_loss_and_grads,
)
from conftest import action_log_prob, fd_param_gradients, max_relative_error, numpy_kernels


def bias_policy(mean_bias, log_std_bias, bins=5):
    """Zero-weight policy whose heads are the output biases, for any state."""
    net = init_mlp([2 * bins, HIDDEN_WIDTH, 2], seed=0)
    for w in net.weights:
        w[...] = 0.0
    net.biases[-1][:] = [mean_bias, log_std_bias]
    return MetaSampler(policy=net, bins=bins, sigma=0.2)


def toy_task(overlap=0.0, seed=4, n_majority=60, n_minority=12):
    ds = make_toy(ToySpec(n_majority, n_minority, overlap, seed=seed))
    train, valid, _ = stratified_split(ds, SplitSpec(), seed=seed)
    return train, valid


def make_transition(rng, state_size, reward=0.3, terminal=True):
    return EnsembleStep(
        state=rng.random(state_size),
        action=float(rng.random()),
        auc_before=0.0,
        auc_after=reward,
        next_state=rng.random(state_size),
        terminal=terminal,
    )


class TestSampleAction:
    def test_tiny_std_lands_on_squashed_mean(self):
        sampler = bias_policy(0.0, -30.0)  # log-std clamps to -20
        state = np.zeros(10)
        for draw in range(20):
            action, _ = sample_action(sampler, state, seed=draw)
            assert abs(action - 0.5) < 1e-6

    def test_saturated_mean_pins_action(self):
        state = np.zeros(10)
        high, _ = sample_action(bias_policy(40.0, -30.0), state, seed=0)
        low, _ = sample_action(bias_policy(-40.0, -30.0), state, seed=0)
        assert high == pytest.approx(1.0, abs=1e-12)
        assert low == pytest.approx(0.0, abs=1e-12)

    def test_actions_in_unit_interval_log_prob_finite(self, rng):
        sampler = random_sampler(5, 0.2, seed=3)
        for _ in range(200):
            action, log_prob = sample_action(sampler, rng.random(10), rng)
            assert 0.0 <= action <= 1.0
            assert np.isfinite(log_prob)

    def test_density_integrates_to_one(self, rng):
        state = np.zeros(10)
        for _ in range(20):
            mean = rng.uniform(-2.0, 2.0)
            log_std = rng.uniform(-3.0, 0.5)
            sampler = bias_policy(mean, log_std)
            peak = 0.5 * (np.tanh(mean) + 1.0)

            def density(a):
                return np.exp(action_log_prob(sampler, state, a))

            total, _ = quad(density, 0.0, 1.0, points=[peak], limit=200)
            assert abs(total - 1.0) < 1e-3

    def test_log_prob_consistent_with_sampled_action(self):
        sampler = bias_policy(0.3, -1.0)
        state = np.zeros(10)
        action, log_prob = sample_action(sampler, state, seed=5)
        assert action_log_prob(sampler, state, action) == pytest.approx(log_prob, abs=1e-8)

    def test_log_prob_requires_interior_action(self):
        sampler = bias_policy(0.0, 0.0)
        with pytest.raises(ValueError):
            action_log_prob(sampler, np.zeros(10), 1.0)


class TestDeterministicAction:
    def test_zero_mean_gives_midpoint(self):
        assert deterministic_action(bias_policy(0.0, 0.0), np.zeros(10)) == 0.5

    def test_monotone_in_mean(self):
        state = np.zeros(10)
        actions = [
            deterministic_action(bias_policy(m, 0.0), state)
            for m in (-2.0, -0.5, 0.0, 0.5, 2.0)
        ]
        assert actions == sorted(actions)

    def test_reproducible(self, rng):
        sampler = random_sampler(5, 0.2, seed=8)
        state = rng.random(10)
        assert deterministic_action(sampler, state) == deterministic_action(sampler, state)

    @staticmethod
    def squashed_mean(sampler, state):
        return 0.5 * (np.tanh(mlp_forward(sampler.policy, state[None, :])[0][:, 0]) + 1.0)

    def test_is_the_squashed_mean_head_bit_for_bit(self, rng):
        # the zero-noise read of _sample_with_noise: mean + std * 0 squashes as the mean does
        samplers = [random_sampler(bins, 0.2, seed=seed) for bins in (1, 3, 5) for seed in (0, 7)]
        samplers += [bias_policy(mean, log_std) for mean in (0.0, -0.0, 0.3, -2.0, 19.0, -19.0,
                                                                40.0, -40.0, 1e3, -1e3)
                     for log_std in (-30.0, 0.0, 5.0)]
        for sampler in samplers:
            for state in rng.random((4, 2 * sampler.bins)):
                action = deterministic_action(sampler, state)
                assert np.float64(action).tobytes() == self.squashed_mean(sampler, state).tobytes()

    @pytest.mark.parametrize("log_std", [-30.0, LOG_STD_MIN, 0.0, LOG_STD_MAX, 5.0])
    def test_negative_zero_mean_head_gives_midpoint(self, log_std, monkeypatch):
        # a zero-weight network's matmul gives +0.0, so the -0.0 head is fed in directly
        monkeypatch.setattr("metasampler.sac.mlp_forward",
                            lambda net, x: (np.array([[-0.0, log_std]]), [x]))
        action = deterministic_action(bias_policy(0.0, 0.0), np.zeros(10))
        assert np.float64(action).tobytes() == np.float64(0.5).tobytes()


class TestReplayMemory:
    def test_fifo_overwrite(self, rng):
        replay = ReplayMemory(5)
        for reward in range(8):
            replay.push(make_transition(rng, 10, reward=float(reward)))
        assert len(replay) == 5
        batch = replay.sample(5, np.random.default_rng(0))
        assert sorted(batch.rewards.tolist()) == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_sample_without_replacement(self, rng):
        replay = ReplayMemory(6)
        for reward in range(6):
            replay.push(make_transition(rng, 10, reward=float(reward)))
        batch = replay.sample(6, np.random.default_rng(1))
        assert sorted(batch.rewards.tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_oversample_rejected(self, rng):
        replay = ReplayMemory(4)
        replay.push(make_transition(rng, 10))
        with pytest.raises(ValueError):
            replay.sample(2, np.random.default_rng(0))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplayMemory(0)

    @pytest.mark.parametrize("capacity", [2.5, 4.0, True, "4"])
    def test_non_integer_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="^capacity must be an integer"):
            ReplayMemory(capacity)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_capacity_accepted(self, rng, integer):
        replay = ReplayMemory(integer(3))
        for reward in range(5):
            replay.push(make_transition(rng, 10, reward=float(reward)))
        assert replay.capacity == 3 and len(replay) == 3

    @pytest.mark.parametrize("batch_size", [True, 2.0, "2"])
    def test_non_integer_batch_size_rejected(self, rng, batch_size):
        # before: a TypeError from numpy's choice (True, 2.0) or from comparing "2"
        replay = ReplayMemory(4)
        for _ in range(4):
            replay.push(make_transition(rng, 10))
        with pytest.raises(ValueError, match="^batch_size must be an integer"):
            replay.sample(batch_size, np.random.default_rng(0))

    def test_numpy_integer_batch_size_accepted(self, rng):
        replay = ReplayMemory(4)
        for _ in range(4):
            replay.push(make_transition(rng, 10))
        assert len(replay.sample(np.int64(3), np.random.default_rng(0)).rewards) == 3

    def test_empty_sample_rejected(self, rng):
        replay = ReplayMemory(4)
        with pytest.raises(ValueError):
            replay.sample(1, np.random.default_rng(0))
        replay.push(make_transition(rng, 10))
        with pytest.raises(ValueError):
            replay.sample(0, np.random.default_rng(0))


@dataclass(frozen=True)
class ListRow:
    state: np.ndarray
    action: float
    reward: float
    next_state: np.ndarray
    terminal: bool


class ListReplayMemory:
    """The list-of-objects buffer the array-backed ReplayMemory replaced.

    A verbatim copy apart from the names (the record class is ListRow), kept
    as the oracle for the array buffer.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def push(self, transition: ListRow) -> None:
        if len(self._buffer) < self.capacity:
            self._buffer.append(transition)
        else:
            self._buffer[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int, rng) -> Batch:
        if batch_size > len(self._buffer):
            raise ValueError(f"cannot sample {batch_size} of {len(self._buffer)} transitions")
        rng = as_generator(rng)
        idx = rng.choice(len(self._buffer), size=batch_size, replace=False)
        rows = [self._buffer[i] for i in idx]
        return Batch(
            states=np.stack([t.state for t in rows]),
            actions=np.array([t.action for t in rows]),
            rewards=np.array([t.reward for t in rows]),
            next_states=np.stack([t.next_state for t in rows]),
            terminals=np.array([float(t.terminal) for t in rows]),
        )


class TestReplayMatchesListBuffer:
    @pytest.mark.parametrize("capacity", [1, 7, 64])
    @pytest.mark.parametrize("fill", ["below", "at", "once_past", "thrice_past"])
    def test_batches_and_generator_state_equal(self, capacity, fill):
        n_pushed = {
            "below": max(capacity - 3, 1),
            "at": capacity,
            "once_past": 2 * capacity,
            "thrice_past": 4 * capacity + 1,
        }[fill]
        rng = np.random.default_rng(1000 + capacity)
        replay, reference = ReplayMemory(capacity), ListReplayMemory(capacity)
        for _ in range(n_pushed):
            step = EnsembleStep(
                state=rng.random(6),
                action=float(rng.random()),
                auc_before=float(rng.random()),
                auc_after=float(rng.random()),
                next_state=rng.random(6),
                terminal=bool(rng.random() < 0.3),
            )
            replay.push(step)
            reference.push(ListRow(
                state=step.state, action=step.action, reward=step.reward,
                next_state=step.next_state, terminal=step.terminal,
            ))
        assert len(replay) == len(reference)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for batch_size in sorted({1, len(reference) // 2 or 1, len(reference)}):
            for _ in range(3):
                batch = replay.sample(batch_size, ours)
                expected = reference.sample(batch_size, theirs)
                for name in Batch._fields:
                    got, want = getattr(batch, name), getattr(expected, name)
                    assert got.dtype == np.float64
                    assert np.array_equal(got, want), name
        assert ours.random() == theirs.random()


def small_nets(bins=2, seed=0):
    state_size = 2 * bins
    ss = np.random.SeedSequence(seed).spawn(3)
    nets = SacNets(
        policy=init_mlp([state_size, 8, 2], ss[0]),
        q=init_mlp([state_size + 1, 8, 8, 1], ss[1]),
        v=init_mlp([state_size, 8, 8, 1], ss[2]),
        target_v=None,
    )
    nets.target_v = nets.v.copy()
    return nets


def small_batch(rng, state_size, n=4):
    return Batch(
        states=rng.random((n, state_size)),
        actions=rng.random(n),
        rewards=rng.standard_normal(n) * 0.1,
        next_states=rng.random((n, state_size)),
        terminals=(rng.random(n) < 0.5).astype(np.float64),
    )


class TestLossGradients:
    def test_q_gradients_match_finite_differences(self, rng):
        nets = small_nets()
        batch = small_batch(rng, 4)
        _, analytic = q_loss_and_grads(nets.q, nets.target_v, batch, gamma=0.99)
        numeric = fd_param_gradients(
            lambda: q_loss_and_grads(nets.q, nets.target_v, batch, gamma=0.99)[0],
            [nets.q.params],
        )
        assert max_relative_error([analytic], numeric) < 1e-4

    def test_v_gradients_match_finite_differences(self, rng):
        nets = small_nets()
        states = rng.random((4, 4))
        targets = rng.standard_normal(4)
        _, analytic = v_loss_and_grads(nets.v, states, targets)
        numeric = fd_param_gradients(
            lambda: v_loss_and_grads(nets.v, states, targets)[0],
            [nets.v.params],
        )
        assert max_relative_error([analytic], numeric) < 1e-4

    def test_policy_gradients_match_finite_differences(self, rng):
        nets = small_nets()
        states = rng.random((4, 4))
        eps = rng.standard_normal(4)
        _, analytic, _ = policy_loss_and_grads(nets.policy, nets.q, states, eps, alpha=0.1)
        numeric = fd_param_gradients(
            lambda: policy_loss_and_grads(nets.policy, nets.q, states, eps, alpha=0.1)[0],
            [nets.policy.params],
        )
        assert max_relative_error([analytic], numeric) < 1e-4

    @pytest.mark.parametrize("log_std_bias", [25.0, -25.0])
    def test_policy_gradients_match_finite_differences_past_the_log_std_clip(
        self, rng, log_std_bias
    ):
        # the log-std head is clipped for every state and stays so under a small step,
        # so its column of the gradient is zero
        nets = small_nets()
        nets.policy.weights[-1][:, 1] = 0.0
        nets.policy.biases[-1][1] = log_std_bias
        states = rng.random((4, 4))
        eps = rng.standard_normal(4)
        _, analytic, _ = policy_loss_and_grads(nets.policy, nets.q, states, eps, alpha=0.1)
        numeric = fd_param_gradients(
            lambda: policy_loss_and_grads(nets.policy, nets.q, states, eps, alpha=0.1)[0],
            [nets.policy.params],
        )
        assert max_relative_error([analytic], numeric) < 1e-4

    def test_q_regression_onto_zero_decreases(self, rng):
        nets = small_nets(seed=5)
        # start the prediction well away from the target so 50 Adam steps
        # (each moving ~lr) stay on the approach side of the minimum
        nets.q.biases[-1][:] = 1.0
        one = make_transition(rng, 4, reward=0.0, terminal=False)
        batch = Batch(
            states=np.stack([one.state] * 4),
            actions=np.array([one.action] * 4),
            rewards=np.zeros(4),
            next_states=np.stack([one.next_state] * 4),
            terminals=np.zeros(4),
        )
        optim = AdamState.for_params(nets.q.params, lr=1e-3)
        losses = []
        for _ in range(50):
            loss, grads = q_loss_and_grads(nets.q, nets.target_v, batch, gamma=0.0)
            losses.append(loss)
            adam_step(nets.q.params, grads, optim)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestSacUpdate:
    def make_setup(self, alpha=0.1, batch_size=4):
        config = SacConfig(
            alpha=alpha, batch_size=batch_size, replay_capacity=max(4, batch_size),
            gradient_steps=1, random_steps=0, bins=2,
        )
        state_size = config.state_size
        rng = np.random.default_rng(0)
        replay = ReplayMemory(config.replay_capacity)
        for _ in range(config.replay_capacity):
            replay.push(make_transition(rng, state_size))
        nets = small_nets(bins=2, seed=1)
        return config, replay, nets, SacOptimizers.for_nets(nets, config)

    def test_returns_finite_losses(self):
        config, replay, nets, optim = self.make_setup()
        losses = sac_update(replay, nets, optim, config, np.random.default_rng(2))
        assert set(losses) == {"q_loss", "v_loss", "policy_loss"}
        assert all(np.isfinite(v) for v in losses.values())

    def test_target_update_is_exact_polyak_blend(self):
        config, replay, nets, optim = self.make_setup()
        target_before = nets.target_v.params.copy()
        sac_update(replay, nets, optim, config, np.random.default_rng(3))
        assert np.array_equal(
            nets.target_v.params,
            config.tau * nets.v.params + (1.0 - config.tau) * target_before,
        )

    def test_decay_ticks_advance_all_optimizers(self):
        config, replay, nets, optim = self.make_setup()
        rng = np.random.default_rng(4)
        for _ in range(config.lr_decay_steps):
            sac_update(replay, nets, optim, config, rng)
        for state in (optim.q, optim.v, optim.policy):
            assert (state.step, state.lr) == (10, config.lr * config.lr_decay_ratio)

    def test_for_nets_takes_the_config_schedule(self):
        config = SacConfig(lr=2e-3, lr_decay_steps=7, lr_decay_ratio=0.5, bins=2)
        nets = small_nets(bins=2, seed=1)
        optim = SacOptimizers.for_nets(nets, config)
        for state, net in ((optim.policy, nets.policy), (optim.q, nets.q), (optim.v, nets.v)):
            assert (state.lr, state.decay_every, state.decay_ratio) == (2e-3, 7, 0.5)
            assert state.m.shape == state.v.shape == net.params.shape

    def test_insufficient_replay_rejected(self):
        config, _, nets, optim = self.make_setup()
        starved = ReplayMemory(config.replay_capacity)
        starved.push(make_transition(np.random.default_rng(5), config.state_size))
        with pytest.raises(ValueError):
            sac_update(starved, nets, optim, config, np.random.default_rng(6))

    def test_alpha_zero_reduces_to_fitted_regression(self):
        config = SacConfig(
            alpha=0.0, batch_size=4, replay_capacity=4,
            gradient_steps=2000, random_steps=0,
        )
        rng = np.random.default_rng(0)
        replay = ReplayMemory(4)
        states = rng.random((4, config.state_size))
        for i in range(4):
            replay.push(EnsembleStep(
                state=states[i], action=float(rng.random()), auc_before=0.0, auc_after=0.3,
                next_state=states[(i + 1) % 4], terminal=True,
            ))
        nets = SacNets(
            policy=init_mlp([config.state_size, HIDDEN_WIDTH, 2], 1),
            q=init_mlp([config.state_size + 1, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], 2),
            v=init_mlp([config.state_size, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], 3),
            target_v=None,
        )
        nets.target_v = nets.v.copy()
        optim = SacOptimizers.for_nets(nets, config)
        update_rng = np.random.default_rng(7)
        for _ in range(2000):
            losses = sac_update(replay, nets, optim, config, update_rng)
        assert losses["q_loss"] < 1e-8
        assert losses["v_loss"] < 1e-6


class TestMetaTrain:
    small = dict(
        batch_size=4, replay_capacity=32, gradient_steps=6, random_steps=4,
        ensemble_size=3,
    )

    def test_round_robin_task_schedule(self):
        tasks = [toy_task(overlap=0.4, seed=1), toy_task(overlap=0.4, seed=2)]
        config = SacConfig(episodes=4, gradient_steps=10**6, random_steps=10**6,
                           batch_size=4, replay_capacity=32, ensemble_size=3)
        seen = []
        meta_train(tasks, config, seed=0,
                   on_step=lambda ep, step, task, s: seen.append((ep, step, task)))
        assert seen == [
            (0, 0, 0), (0, 1, 0),
            (1, 0, 1), (1, 1, 1),
            (2, 0, 0), (2, 1, 0),
            (3, 0, 1), (3, 1, 1),
        ]

    def test_returns_usable_sampler(self):
        sampler = meta_train([toy_task(overlap=0.5)], SacConfig(**self.small), seed=1)
        assert sampler.bins == 5 and sampler.sigma == 0.2
        action = deterministic_action(sampler, np.zeros(10))
        assert 0.0 <= action <= 1.0

    def test_seed_reproducibility(self, rng):
        config = SacConfig(**self.small)
        a = meta_train([toy_task(overlap=0.5)], config, seed=9)
        b = meta_train([toy_task(overlap=0.5)], config, seed=9)
        assert np.array_equal(a.policy.params, b.policy.params)

    def test_subnormal_sigma_raises_numerical_error(self):
        with pytest.raises(NumericalError, match="non-finite sampling weights"):
            config = SacConfig(**self.small, sigma=1e-320)
            meta_train([toy_task(overlap=0.5)], config, seed=0)

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError):
            meta_train([], SacConfig(**self.small), seed=0)

    def test_pinned_fingerprints(self):
        # two tasks, an 8-row replay that wraps after 12 steps, a batch of 4, the
        # switch to policy actions inside episode 1 and the update budget spent
        # inside episode 3; a change that moves either hash changes saved samplers
        tasks = [toy_task(overlap=0.4, seed=1), toy_task(overlap=0.5, seed=2)]
        config = SacConfig(batch_size=4, replay_capacity=8, gradient_steps=6,
                           random_steps=4, ensemble_size=4)
        log = []
        sampler = meta_train(
            tasks, config, seed=3,
            on_step=lambda ep, i, task, s: log.append([ep, i, task, s.action, s.reward]),
        )
        document = json.dumps(sampler_to_document(sampler), sort_keys=True)
        assert len(log) == 12
        assert hashlib.sha256(document.encode()).hexdigest() == (
            "0563ffacd480e443391fca32f96fc481c12257e993e5e0257ddc48a42ac3ecd7"
        ), numpy_kernels()
        assert hashlib.sha256(json.dumps(log).encode()).hexdigest() == (
            "768e00fdfde2cfd7a3d19c032f9da8e32f026fd3afe827a2b99b018e8dff3890"
        ), numpy_kernels()

    @staticmethod
    def one_episode(task, ensemble_size, seed):
        """The steps of one warmup-only meta_train episode, in on_step order."""
        steps = []
        config = SacConfig(episodes=1, ensemble_size=ensemble_size, random_steps=100)
        meta_train([task], config, seed=seed, on_step=lambda ep, i, t, s: steps.append(s))
        return steps

    def test_two_members_one_terminal_step(self):
        steps = self.one_episode(toy_task(), ensemble_size=2, seed=0)
        assert len(steps) == 1
        assert steps[0].terminal

    def test_separable_task_rewards_nonnegative(self):
        steps = self.one_episode(toy_task(overlap=0.0), ensemble_size=6, seed=1)
        assert len(steps) == 5
        assert all(s.reward >= -1e-9 for s in steps)

    def test_rewards_telescope(self):
        steps = self.one_episode(toy_task(overlap=0.6), ensemble_size=6, seed=2)
        assert sum(s.reward for s in steps) == steps[-1].auc_after - steps[0].auc_before

    def test_updates_start_once_the_replay_holds_a_batch(self, monkeypatch):
        sizes = []
        update = metasampler.sac.sac_update

        def recording_update(replay, *args):
            sizes.append(len(replay))
            return update(replay, *args)

        monkeypatch.setattr(metasampler.sac, "sac_update", recording_update)
        config = SacConfig(random_steps=4, batch_size=8, replay_capacity=16, gradient_steps=3,
                           ensemble_size=3)
        meta_train([toy_task()], config, seed=0)
        assert sizes == [8, 9, 10]

    def test_every_step_pushed_in_order(self, monkeypatch):
        events = []
        push = ReplayMemory.push

        def recording_push(replay, step):
            events.append(("push", step))
            push(replay, step)

        monkeypatch.setattr(ReplayMemory, "push", recording_push)
        config = SacConfig(episodes=1, ensemble_size=4, random_steps=100)
        meta_train([toy_task(overlap=0.5)], config, seed=3,
                   on_step=lambda ep, i, t, s: events.append(("on_step", s)))
        assert len(events) == 6
        for (push_kind, pushed), (kind, seen) in zip(events[::2], events[1::2]):
            assert (push_kind, kind) == ("push", "on_step")
            assert pushed is seen


class TestPolicyActionSource:
    def test_stochastic_requires_seed(self):
        sampler = random_sampler(5, 0.2, seed=0)
        with pytest.raises(TypeError):
            PolicyActionSource(sampler)
        with pytest.raises(ValueError, match="seed must be an integer"):
            PolicyActionSource(sampler, seed=None)

    def test_stochastic_seeded_reproducible(self, rng):
        sampler = random_sampler(5, 0.2, seed=0)
        state = rng.random(10)
        a = PolicyActionSource(sampler, seed=4)
        b = PolicyActionSource(sampler, seed=4)
        assert [a(state) for _ in range(5)] == [b(state) for _ in range(5)]

    def test_calls_draw_like_sample_action_on_one_generator(self, rng):
        sampler = random_sampler(5, 0.2, seed=0)
        states = rng.random((5, 10))
        source = PolicyActionSource(sampler, seed=4)
        gen = as_generator(4)
        assert [source(s) for s in states] == [sample_action(sampler, s, gen)[0] for s in states]


def count_sample_action(monkeypatch):
    """Wrap metasampler.sac.sample_action in a counter; returns the list its calls go to."""
    calls = []
    original = metasampler.sac.sample_action

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr("metasampler.sac.sample_action", counted)
    return calls


class TestCascadeActionsCallSampleAction:
    # each policy action of a cascade is one sample_action, looked up when the action
    # is drawn, so wrapping the module's name (as a benchmark span does) sees every one

    @pytest.mark.parametrize("mode", ["policy", "random-policy"])
    def test_score_arms_policy_arm(self, mode, monkeypatch):
        calls = count_sample_action(monkeypatch)
        task = make_toy(ToySpec(60, 12, 0.5, seed=3))
        arm = (mode, mode, random_sampler(5, 0.2, seed=1))
        scores = score_arms(task, SplitSpec(), [0], [arm], n_members=3)
        assert len(scores[mode]) == 1
        assert len(calls) == 2

    def test_meta_train_past_warm_up(self, monkeypatch):
        calls = count_sample_action(monkeypatch)
        config = SacConfig(batch_size=4, replay_capacity=32, gradient_steps=6, random_steps=4,
                           ensemble_size=3)
        steps = []
        meta_train([toy_task(overlap=0.5)], config, seed=1,
                   on_step=lambda *args: steps.append(args))
        assert len(steps) > config.random_steps
        assert len(calls) == len(steps) - config.random_steps


class TestScoreArms:
    SEEDS = (0, 1)

    @pytest.fixture(scope="class")
    def task(self):
        return make_toy(ToySpec(60, 12, 0.5, seed=3))

    @staticmethod
    def arms():
        # an untrained sampler stands in for a learned one
        sampler = random_sampler(5, 0.2, seed=1)
        return [(mode, mode, sampler) for mode in
                ("policy", "random-policy", "random-sampling", "constant")]

    def scores(self, task, arms):
        return score_arms(task, SplitSpec(), self.SEEDS, arms, n_members=3, mu=0.5)

    def test_each_arm_scores_the_same_alone_or_beside_the_others(self, task):
        together = self.scores(task, self.arms())
        assert together == self.scores(task, self.arms()[::-1])
        for arm in self.arms():
            alone = self.scores(task, [arm])
            assert alone == {arm[0]: together[arm[0]]}
            assert len(alone[arm[0]]) == len(self.SEEDS)

    def test_random_sampling_arm_matches_train_cli(self, tmp_path, task):
        save_csv(task, tmp_path / "task.csv")
        out = tmp_path / "run"
        assert main([
            "train", str(tmp_path / "task.csv"), "--mode", "random-sampling", "--k", "3",
            "--seed", ",".join(map(str, self.SEEDS)), "--out", str(out),
        ]) == 0
        lines = (out / "train_results.csv").read_text(encoding="utf-8").splitlines()[2:]
        cli = [float(line.split(",")[1]) for line in lines]
        assert cli == self.scores(task, self.arms()[2:3])["random-sampling"]

    @pytest.mark.parametrize(
        "knobs, field",
        [({"bins": 2.5}, "bins"), ({"bins": True}, "bins"), ({"bins": np.float64(3.0)}, "bins"),
         ({"n_members": "3"}, "n_members"), ({"n_members": 3.0}, "n_members")],
    )
    def test_non_integer_knobs_rejected_before_any_fit(self, task, no_tree_fit, knobs, field):
        # the random-sampling arm runs first and uses neither bins nor a sampler
        arms = [self.arms()[i] for i in (2, 0, 1, 3)]
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            score_arms(task, SplitSpec(), self.SEEDS, arms, **{"n_members": 3, "mu": 0.5, **knobs})

    def test_numpy_integer_knobs_score_like_ints(self, task):
        scores = score_arms(task, SplitSpec(), self.SEEDS, self.arms()[1:],
                            n_members=np.int64(3), mu=0.5, bins=np.int32(5))
        assert scores == self.scores(task, self.arms()[1:])

    def test_rejects_unknown_mode_policy_without_sampler_and_repeated_label(self, task):
        with pytest.raises(ValueError, match="unknown mode"):
            self.scores(task, [("x", "greedy", None)])
        with pytest.raises(ValueError, match="needs a sampler"):
            self.scores(task, [("p", "policy", None)])
        with pytest.raises(ValueError, match="distinct"):
            self.scores(task, [("a", "constant", None), ("a", "random-sampling", None)])

    @pytest.mark.parametrize("mu", [-0.1, 1.5, float("nan"), None])
    def test_constant_arm_refuses_mu_outside_unit_interval_before_any_split(
        self, task, mu, monkeypatch
    ):
        def no_split(*args, **kwargs):
            raise AssertionError("split before the arms were checked")

        monkeypatch.setattr("metasampler.sac.stratified_split", no_split)
        # one member takes no action, so only the arm check can refuse mu
        with pytest.raises(ValueError, match="mu must be in"):
            score_arms(task, SplitSpec(), self.SEEDS, [("c", "constant", None)], n_members=1, mu=mu)

    @pytest.mark.parametrize("mu", [True, False, np.True_, "0.5"])
    @pytest.mark.parametrize("mode", ["constant", "random-sampling"])
    def test_non_number_mu_refused_before_any_split(self, task, mu, mode, monkeypatch):
        # True used to score as mu = 1.0; mu must be a number whatever the arms
        def no_split(*args, **kwargs):
            raise AssertionError("split before mu was checked")

        monkeypatch.setattr("metasampler.sac.stratified_split", no_split)
        with pytest.raises(ValueError, match="^mu must be a real number"):
            score_arms(task, SplitSpec(), self.SEEDS, [("c", mode, None)], n_members=1, mu=mu)

    @pytest.mark.parametrize("sigma, error", [(0.0, ValueError), (float("inf"), ValueError),
                                              (True, ValueError), (1e-320, NumericalError)])
    @pytest.mark.parametrize("mode", ["policy", "random-policy", "random-sampling", "constant"])
    def test_sigma_refused_before_any_split_whatever_the_arms(
        self, task, sigma, error, mode, monkeypatch
    ):
        # a random-policy arm used to refuse sigma 0.0 only when it built its sampler
        def no_split(*args, **kwargs):
            raise AssertionError("split before sigma was checked")

        monkeypatch.setattr("metasampler.sac.stratified_split", no_split)
        arm = next(arm for arm in self.arms() if arm[1] == mode)
        with pytest.raises(error, match="^sigma must be|^non-finite sampling weights"):
            score_arms(task, SplitSpec(), self.SEEDS, [arm], n_members=3, mu=0.5, sigma=sigma)


class TestExperimentPoint:
    # bins, sigma and the base learner off their defaults, so a point that
    # dropped one of them shows
    CONFIG = SacConfig(batch_size=4, replay_capacity=32, gradient_steps=6, random_steps=4,
                       ensemble_size=3, bins=3, sigma=0.3)
    MODES = ("policy", "random-policy", "random-sampling")
    SEEDS = (0, 1)

    @pytest.fixture(scope="class")
    def task(self):
        return make_toy(ToySpec(120, 20, 0.5, seed=3))

    @pytest.fixture(scope="class")
    def point(self, task):
        return experiment_point(task, SplitSpec(), 2, self.SEEDS, self.MODES, self.CONFIG,
                                noise_ratio=0.25, learner_factory=GaussianNaiveBayes)

    def test_meta_trains_on_the_noisy_meta_split_and_scores_with_the_configs_knobs(
        self, task, point
    ):
        sampler, scores = point
        train, valid, _ = stratified_split(task, SplitSpec(), 2)
        train = inject_flip_noise(train, 0.25, 2)
        expected = meta_train([(train, valid)], self.CONFIG, 2,
                              learner_factory=GaussianNaiveBayes)
        assert sampler_to_document(sampler) == sampler_to_document(expected)
        assert scores == score_arms(
            task, SplitSpec(), self.SEEDS, [(mode, mode, expected) for mode in self.MODES],
            n_members=3, noise_ratio=0.25, bins=3, sigma=0.3, learner_factory=GaussianNaiveBayes,
        )

    def test_the_function_and_its_result_survive_pickling(self, point):
        assert pickle.loads(pickle.dumps(experiment_point)) is experiment_point
        sampler, scores = pickle.loads(pickle.dumps(point))
        assert sampler_to_document(sampler) == sampler_to_document(point[0])
        assert scores == point[1]


class TestSamplerIO:
    def test_round_trip_preserves_actions(self, tmp_path, rng):
        sampler = random_sampler(5, 0.2, seed=6)
        path = tmp_path / "sampler.json"
        save_sampler(sampler, path)
        back = load_sampler(path)
        assert back.bins == sampler.bins and back.sigma == sampler.sigma
        for _ in range(10):
            state = rng.random(10)
            assert deterministic_action(back, state) == deterministic_action(sampler, state)

    def test_bins_mismatch_rejected(self):
        policy = init_mlp([10, HIDDEN_WIDTH, 2], seed=0)
        with pytest.raises(ValueError):
            MetaSampler(policy=policy, bins=4, sigma=0.2)

    def test_non_integer_bins_rejected(self):
        # 2 * 2.5 matches the policy's 5 inputs: only the integer check refuses it
        with pytest.raises(ValueError, match="^bins must be an integer"):
            MetaSampler(init_mlp([5, 50, 2], 0), 2.5, 0.2)
        with pytest.raises(ValueError, match="^bins must be an integer"):
            random_sampler(2.5, 0.2, 0)
        with pytest.raises(ValueError, match="^bins must be an integer"):
            random_sampler(True, 0.2, 0)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_bins_accepted(self, tmp_path, integer):
        sampler = random_sampler(integer(5), 0.2, seed=6)
        assert type(sampler.bins) is int
        assert MetaSampler(sampler.policy, integer(5), 0.2).bins == 5
        assert np.array_equal(sampler.policy.params, random_sampler(5, 0.2, seed=6).policy.params)
        save_sampler(sampler, tmp_path / "sampler.json")
        assert load_sampler(tmp_path / "sampler.json").bins == 5

    @pytest.mark.parametrize("sigma", [True, np.bool_(True), "0.2", None])
    def test_non_number_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be a real number"):
            MetaSampler(init_mlp([10, HIDDEN_WIDTH, 2], 0), 5, sigma)
        with pytest.raises(ValueError, match="^sigma must be a real number"):
            random_sampler(5, sigma, 0)

    def test_numpy_float_sigma_saves_and_loads_back(self, tmp_path):
        sampler = random_sampler(5, np.float32(0.2), seed=6)
        assert type(sampler.sigma) is float
        save_sampler(sampler, tmp_path / "float32.json")
        save_sampler(random_sampler(5, float(np.float32(0.2)), seed=6), tmp_path / "float.json")
        written = (tmp_path / "float32.json").read_bytes()
        assert written == (tmp_path / "float.json").read_bytes()
        assert load_sampler(tmp_path / "float32.json").sigma == float(np.float32(0.2))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sampler(tmp_path / "absent.json")

    def test_version_checked(self, tmp_path):
        sampler = random_sampler(5, 0.2, seed=2)
        path = tmp_path / "sampler.json"
        save_sampler(sampler, path)
        import json

        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["format_version"] = 42
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError):
            load_sampler(path)

    @pytest.mark.parametrize("part", ["sampler", "policy"])
    def test_true_version_is_format_error(self, tmp_path, part):
        # true == 1 in Python: the version is read by strict_int, as bins is
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        (doc if part == "sampler" else doc["policy"])["format_version"] = True
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SamplerFormatError, match="malformed"):
            load_sampler(path)

    @pytest.mark.parametrize("part", ["sampler", "policy"])
    def test_integral_float_version_loads(self, tmp_path, part):
        sampler = random_sampler(5, 0.2, seed=2)
        path = tmp_path / "sampler.json"
        save_sampler(sampler, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        (doc if part == "sampler" else doc["policy"])["format_version"] = 1.0
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_sampler(path).policy.params.tobytes() == sampler.policy.params.tobytes()

    def test_infinite_sigma_rejected(self):
        policy = init_mlp([10, HIDDEN_WIDTH, 2], seed=0)
        with pytest.raises(ValueError):
            MetaSampler(policy=policy, bins=5, sigma=float("inf"))

    @pytest.mark.parametrize("sigma", [1e-320, 5e-324, 2.2e-309])
    def test_sigma_whose_peak_overflows_is_numerical_error(self, tmp_path, sigma):
        # the sampler cannot be built, so none is saved; a file holding one cannot be loaded
        policy = init_mlp([10, HIDDEN_WIDTH, 2], seed=0)
        with pytest.raises(NumericalError, match="^non-finite sampling weights"):
            MetaSampler(policy=policy, bins=5, sigma=sigma)
        with pytest.raises(NumericalError, match="^non-finite sampling weights"):
            random_sampler(5, sigma, 0)
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["sigma"] = sigma
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(NumericalError, match="^non-finite sampling weights"):
            load_sampler(path)

    @pytest.mark.parametrize(
        "key, text",
        [("sigma", "1e400"), ("bins", "5.5"), ("bins", "true")],
        ids=["sigma-overflows-to-inf", "fractional-bins", "boolean-bins"],
    )
    def test_bad_scalar_is_format_error(self, tmp_path, key, text):
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] = "PLACEHOLDER"
        path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', text), encoding="utf-8")
        with pytest.raises(SamplerFormatError):
            load_sampler(path)

    # a boolean size is not the integer 1, even with weights shaped for 1
    ONE_WIDE = {"layer_sizes": [10, True, 2], "weights": [[[0.1]] * 10, [[0.1, 0.2]]],
                "biases": [[0.0], [0.0, 0.0]]}

    @pytest.mark.parametrize(
        "edit",
        [{"activations": ["tanh", "linear"]}, {"activations": ["relu", "relu"]},
         {"activations": ["linear"]}, ONE_WIDE],
        ids=["tanh", "relu-head", "short-activation-list", "boolean-layer-size"],
    )
    def test_policy_shape_is_format_error(self, tmp_path, edit):
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["policy"].update(edit)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SamplerFormatError):
            load_sampler(path)

    def test_integer_layer_size_one_loads(self, tmp_path):
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["policy"].update(self.ONE_WIDE, layer_sizes=[10, 1, 2])
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_sampler(path).policy.layer_sizes == [10, 1, 2]

    @pytest.mark.parametrize("bins", [5.0, "5.0"], ids=["number", "text"])
    def test_integral_float_bins_loads(self, tmp_path, bins):
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["bins"] = bins
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_sampler(path).bins == 5

    @pytest.mark.parametrize("sizes", [[10.0, 50, 2], ["10", "50", "2"]], ids=["number", "text"])
    def test_integral_float_layer_sizes_load(self, tmp_path, sizes):
        # read as bins is, by strict_int; [10, true, 2] stays refused (boolean-layer-size)
        sampler = random_sampler(5, 0.2, seed=2)
        path = tmp_path / "sampler.json"
        save_sampler(sampler, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["policy"]["layer_sizes"] = sizes
        path.write_text(json.dumps(doc), encoding="utf-8")
        back = load_sampler(path).policy
        assert back.layer_sizes == [10, 50, 2]
        assert back.params.tobytes() == sampler.policy.params.tobytes()

    @pytest.mark.parametrize("value", [True, None], ids=["true", "null"])
    @pytest.mark.parametrize("part", ["weights", "biases"])
    def test_a_parameter_that_is_no_number_is_format_error(self, tmp_path, part, value):
        # true used to load as 1.0, and null as NaN, a numerical failure
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(5, 0.2, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        layer = doc["policy"][part][0]
        (layer[0] if part == "weights" else layer)[0] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SamplerFormatError, match="malformed"):
            load_sampler(path)

    def test_files_are_opened_as_utf8(self, tmp_path):
        # with -X warn_default_encoding, text opened in the locale's encoding warns
        code = (
            "import sys\n"
            "from metasampler import load_sampler, random_sampler, save_sampler\n"
            "save_sampler(random_sampler(5, 0.2, seed=2), sys.argv[1])\n"
            "assert load_sampler(sys.argv[1]).bins == 5\n"
        )
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, str(tmp_path / "sampler.json")],
            capture_output=True, text=True, encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(Path(metasampler.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr


class TestStrictInt:
    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3), (3.0, 3), ("7", 7), (np.int64(4), 4), ("3.0", 3), ("1e3", 1000)],
    )
    def test_integers_pass(self, value, expected):
        result = strict_int(value)
        assert result == expected and type(result) is int

    @pytest.mark.parametrize(
        "value",
        [2.9, -0.5, float("inf"), float("nan"), True, False, np.bool_(True), "2.9", "inf", "nan",
         "", "abc"],
    )
    def test_truncation_and_booleans_rejected(self, value):
        with pytest.raises(ValueError):
            strict_int(value)

    @pytest.mark.parametrize("value", [None, [1]])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(TypeError):
            strict_int(value)


class TestStrictFloat:
    @pytest.mark.parametrize(
        "value, expected", [(0.5, 0.5), (3, 3.0), ("0.25", 0.25), (np.float32(0.5), 0.5)]
    )
    def test_numbers_pass(self, value, expected):
        result = strict_float(value)
        assert result == expected and type(result) is float

    def test_non_finite_passes_to_the_range_check(self):
        assert strict_float("inf") == float("inf")
        assert np.isnan(strict_float(float("nan")))

    @pytest.mark.parametrize("value", [True, False, np.bool_(False), "x"])
    def test_booleans_and_bad_text_rejected(self, value):
        with pytest.raises(ValueError):
            strict_float(value)


class TestCheckFloat:
    @pytest.mark.parametrize(
        "value, expected", [(0.5, 0.5), (3, 3.0), (np.float32(0.5), 0.5), (np.int64(2), 2.0)]
    )
    def test_real_numbers_pass_as_floats(self, value, expected):
        result = check_float("x", value)
        assert result == expected and type(result) is float

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, [0.5]])
    def test_booleans_text_and_none_rejected(self, value):
        with pytest.raises(ValueError, match="^x must be a real number"):
            check_float("x", value)


class TestSeedCasts:
    @pytest.mark.parametrize(
        "seed", [2.9, 0.5, True, np.bool_(False), "2.9", 2.0, np.float64(2.0), "7", None]
    )
    def test_non_integer_seeds_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            as_generator(seed)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            as_seed_sequence(seed)

    @pytest.mark.parametrize("seed", [2, np.int64(2), np.int32(2)])
    def test_integer_seeds_keep_their_streams(self, seed):
        assert np.array_equal(as_generator(seed).random(5), np.random.default_rng(2).random(5))
        assert as_seed_sequence(seed).entropy == np.random.SeedSequence(2).entropy

    def test_meta_train_refuses_fractional_seed(self):
        config = SacConfig(ensemble_size=2, random_steps=2, gradient_steps=0, episodes=1)
        with pytest.raises(ValueError):
            meta_train([toy_task()], config, seed=2.9)


class TestSacConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=1.5),
            dict(tau=0.0),
            dict(alpha=-0.1),
            dict(lr=0.0),
            dict(batch_size=0),
            dict(batch_size=64, replay_capacity=32),
            dict(gradient_steps=-1),
            dict(episodes=0),
            dict(ensemble_size=1),
            dict(bins=0),
            dict(sigma=0.0),
            dict(sigma=float("inf")),
            dict(sigma=float("nan")),
            dict(alpha=float("nan")),
            dict(alpha=float("inf")),
            dict(lr=float("inf")),
            dict(batch_size=4.5, replay_capacity=32),
            dict(batch_size=True, replay_capacity=32),
            dict(replay_capacity=64.0),
            dict(lr_decay_steps=2.5),
            dict(gradient_steps=10.5),
            dict(random_steps=np.float64(3.0)),
            dict(episodes=1.5),
            dict(ensemble_size=2.5),
            dict(bins=np.bool_(True)),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SacConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["gamma", "tau", "alpha", "lr", "lr_decay_ratio", "sigma"])
    def test_boolean_float_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            SacConfig(**{field: value})

    def test_numpy_floats_held_as_floats(self):
        config = SacConfig(gamma=np.float64(0.9), sigma=np.float32(0.2))
        assert type(config.gamma) is float and type(config.sigma) is float
        assert config.sigma == float(np.float32(0.2))

    def test_state_size(self):
        assert SacConfig(bins=7).state_size == 14

    @pytest.mark.parametrize("sigma", [1e-320, 5e-324, 2.2e-309])
    def test_sigma_whose_peak_overflows_is_numerical_error(self, sigma):
        with pytest.raises(NumericalError, match="^non-finite sampling weights"):
            SacConfig(sigma=sigma)

    def test_smallest_sigma_with_a_finite_peak_is_accepted(self):
        assert SacConfig(sigma=2.3e-309).sigma == 2.3e-309

    def test_numpy_integers_and_unset_episodes_accepted(self):
        config = SacConfig(batch_size=np.int64(8), replay_capacity=np.int32(16), episodes=None)
        assert config.batch_size == 8 and config.episodes is None
