"""Soft actor-critic meta-training of the sampling policy.

The environment is cascade ensemble training: a state is the error-histogram
meta-state, an action is the Gaussian center for the next member's subset,
and the reward is the change in validation AUCPRC contributed by that member
(so episode returns telescope to final minus initial score).

Actions are squashed to [0, 1] via a = (tanh(u) + 1) / 2 with u drawn from a
state-conditioned Gaussian; log-densities carry the change-of-variables term
log(0.5 * (1 - tanh(u)^2)), evaluated in a softplus form that stays finite
for saturated u. One critic network is used, plus a value network with a
Polyak-averaged target copy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import inject_flip_noise, stratified_split
from .ensemble import EnsembleStep, train_ensemble, train_random_ensemble
from .errors import NumericalError, SamplerFormatError
from .learners import DecisionTree
from .metrics import aucprc
from .neural import (
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
from .rng import (
    as_generator, as_seed_sequence, check_float, check_integer, strict_float, strict_int,
)
from .sampling import gaussian_scale

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
SAMPLER_FORMAT_VERSION = 1
HIDDEN_WIDTH = 50
# score_arms' arm modes and the knobs each runs with: the arm's sampler (a policy arm runs with
# its sampler's bins and sigma), and score_arms' mu, bins and sigma
MODES = {"policy": ("sampler", "bins", "sigma"), "random-policy": ("bins", "sigma"),
         "random-sampling": (), "constant": ("mu", "sigma")}


@dataclass(frozen=True)
class SacConfig:
    """Meta-training hyperparameters; defaults are the reference values.

    They are the one home of the cascade's defaults (ensemble_size, bins,
    sigma). A field annotated int or float holds what check_integer or
    check_float makes of its value, with the field's bound in _BOUNDS: an
    int's least value (replay_capacity's being batch_size), a float's
    interval (sigma's is gaussian_scale's).
    """

    gamma: float = 0.99
    tau: float = 0.01
    alpha: float = 0.1
    lr: float = 1e-3
    lr_decay_steps: int = 10
    lr_decay_ratio: float = 0.99
    batch_size: int = 64
    replay_capacity: int = 1000
    gradient_steps: int = 1000
    random_steps: int = 500
    episodes: int | None = None
    ensemble_size: int = 10
    bins: int = 5
    sigma: float = 0.2
    _BOUNDS = {"gamma": "[0, 1]", "tau": "(0, 1]", "alpha": "[0, inf)", "lr": "(0, inf)",
               "lr_decay_steps": 1, "lr_decay_ratio": "(0, 1]", "batch_size": 1,
               "gradient_steps": 0, "random_steps": 0, "episodes": 1, "ensemble_size": 2,
               "bins": 1}

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            bound = self._BOUNDS.get(field.name)
            if field.type == "float":
                value = check_float(field.name, value, bound)
            elif value is not None or field.type != "int | None":
                value = check_integer(field.name, value, bound)
            object.__setattr__(self, field.name, value)
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay capacity must be at least the batch size")
        gaussian_scale(self.sigma)

    @property
    def state_size(self) -> int:
        return 2 * self.bins


class Batch(NamedTuple):
    """Replay rows as arrays: one row per cascade step."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray


class ReplayMemory:
    """Fixed-capacity FIFO ring buffer of cascade steps, held as one Batch.

    Its float64 rows are allocated at the first push, sized from that step's
    state, and push number i (from 0) writes row i % capacity.
    """

    def __init__(self, capacity: int):
        self.capacity = check_integer("capacity", capacity, least=1)
        self._rows = None
        self._pushed = 0

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, step: EnsembleStep) -> None:
        row = (step.state, step.action, step.reward, step.next_state, step.terminal)
        if self._rows is None:
            self._rows = Batch(*(np.zeros((self.capacity,) + np.shape(v)) for v in row))
        for column, value in zip(self._rows, row):
            column[self._pushed % self.capacity] = value
        self._pushed += 1

    def sample(self, batch_size: int, rng) -> Batch:
        if not 0 < check_integer("batch_size", batch_size) <= len(self):
            raise ValueError(f"cannot sample {batch_size} of {len(self)} transitions")
        idx = as_generator(rng).choice(len(self), size=batch_size, replace=False)
        return Batch(*(column[idx] for column in self._rows))


@dataclass
class MetaSampler:
    """Trained sampling policy plus the histogram/sampling parameters it expects.

    Its sigma is a float that passes gaussian_scale, so one whose peak overflows never loads.
    """

    policy: Mlp
    bins: int
    sigma: float

    def __post_init__(self):
        self.bins = check_integer("bins", self.bins, least=1)
        self.sigma = check_float("sigma", self.sigma)
        sizes = self.policy.layer_sizes
        if sizes[0] != 2 * self.bins:
            raise ValueError(f"policy input {sizes[0]} does not match 2 * {self.bins} bins")
        if sizes[-1] != 2:
            raise ValueError("policy must end in two heads (mean, log-std)")
        gaussian_scale(self.sigma)


def random_sampler(bins: int, sigma: float, seed) -> MetaSampler:
    """Freshly initialized, untrained sampling policy (an ablation baseline)."""
    policy = init_mlp([2 * check_integer("bins", bins, least=1), HIDDEN_WIDTH, 2], seed)
    return MetaSampler(policy=policy, bins=bins, sigma=sigma)


@dataclass
class SacNets:
    policy: Mlp
    q: Mlp
    v: Mlp
    target_v: Mlp


@dataclass
class SacOptimizers:
    policy: AdamState
    q: AdamState
    v: AdamState

    @classmethod
    def for_nets(cls, nets: SacNets, config: SacConfig) -> "SacOptimizers":
        """One Adam state per trained network, each on config's learning-rate schedule."""
        schedule = (config.lr, config.lr_decay_steps, config.lr_decay_ratio)
        return cls(*(AdamState.for_params(net.params, *schedule)
                     for net in (nets.policy, nets.q, nets.v)))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _log_half_jacobian(u):
    """log(0.5 * (1 - tanh(u)^2)), finite even where tanh saturates."""
    return math.log(2.0) - 2.0 * u - 2.0 * _softplus(-2.0 * u)


def _policy_heads(policy: Mlp, states):
    out, acts = mlp_forward(policy, states)
    mean = out[:, 0]
    raw_log_std = out[:, 1]
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    return mean, raw_log_std, log_std, acts


def _squash(u):
    """tanh(u), and the action (tanh(u) + 1) / 2 it gives in [0, 1]."""
    tanh_u = np.tanh(u)
    return tanh_u, 0.5 * (tanh_u + 1.0)


def _sample_with_noise(policy: Mlp, states, eps):
    """Reparameterized squashed sample for fixed standard-normal noise.

    Holds only what callers read: the actions and their log-probs, the terms
    of the actor gradient, and the policy's activations for its backward pass.
    """
    mean, raw_log_std, log_std, acts = _policy_heads(policy, states)
    std = np.exp(log_std)
    u = mean + std * eps
    tanh_u, actions = _squash(u)
    log_prob = -0.5 * eps * eps - log_std - 0.5 * LOG_2PI - _log_half_jacobian(u)
    return {
        "raw_log_std": raw_log_std,
        "std": std,
        "tanh_u": tanh_u,
        "actions": actions,
        "log_prob": log_prob,
        "acts": acts,
    }


def sample_action(sampler: MetaSampler, state, seed):
    """Draw one action from the squashed policy; returns (action, log_prob)."""
    rng = as_generator(seed)
    state = np.asarray(state, dtype=np.float64)
    eps = rng.standard_normal(1)
    sample = _sample_with_noise(sampler.policy, state[None, :], eps)
    return float(sample["actions"][0]), float(sample["log_prob"][0])


def deterministic_action(sampler: MetaSampler, state) -> float:
    """Evaluation-time action: squashed mean head, no noise."""
    state = np.asarray(state, dtype=np.float64)
    mean, _, _, _ = _policy_heads(sampler.policy, state[None, :])
    _, action = _squash(mean)
    return float(action[0])


class PolicyActionSource:
    """The actions of a MetaSampler, drawn from a given `seed`: each call samples one.

    A call draws the one standard normal that `sample_action` draws and gives
    its action bit for bit, without the log-density that a cascade discards.
    """

    def __init__(self, sampler: MetaSampler, seed):
        self._sampler = sampler
        self._rng = as_generator(seed)

    def __call__(self, state) -> float:
        state = np.asarray(state, dtype=np.float64)
        eps = self._rng.standard_normal(1)
        mean, _, log_std, _ = _policy_heads(self._sampler.policy, state[None, :])
        _, action = _squash(mean + np.exp(log_std) * eps)
        return float(action[0])


def q_loss_and_grads(q_net: Mlp, target_v_net: Mlp, batch: Batch, gamma: float):
    """Critic regression onto r + gamma * (1 - terminal) * V_target(s')."""
    v_next, _ = mlp_forward(target_v_net, batch.next_states)
    targets = batch.rewards + gamma * (1.0 - batch.terminals) * v_next[:, 0]
    return v_loss_and_grads(q_net, np.column_stack((batch.states, batch.actions)), targets)


def policy_loss_and_grads(policy: Mlp, q_net: Mlp, states, eps, alpha: float):
    """Reparameterized actor loss mean(alpha * log pi - Q), gradients for the policy only.

    Gradients flow through the fresh action into the critic's action input and
    through the log-density; the critic's own parameters are left alone.
    Returns (loss, grads, aux) with aux carrying the sampled actions, their
    log-probs and critic values for reuse in the value target.
    """
    sample = _sample_with_noise(policy, states, eps)
    q_in = np.column_stack((states, sample["actions"]))
    q_vals, q_acts = mlp_forward(q_net, q_in)
    q_vals = q_vals[:, 0]
    n = len(q_vals)
    loss = float(np.mean(alpha * sample["log_prob"] - q_vals))

    # d(loss)/d(action) via the critic's input gradient
    dloss_daction = mlp_input_grad(q_net, q_acts, np.full((n, 1), -1.0 / n))[:, -1]

    tanh_u = sample["tanh_u"]
    dact_du = 0.5 * (1.0 - tanh_u * tanh_u)
    dloss_du = (alpha / n) * (2.0 * tanh_u) + dloss_daction * dact_du
    dloss_dmean = dloss_du
    dloss_dlogstd = -alpha / n + dloss_du * sample["std"] * eps
    clamp_active = (sample["raw_log_std"] > LOG_STD_MIN) & (sample["raw_log_std"] < LOG_STD_MAX)
    head_grads = np.column_stack((dloss_dmean, dloss_dlogstd * clamp_active))
    grads = mlp_backward(policy, sample["acts"], head_grads)
    aux = {"actions": sample["actions"], "log_prob": sample["log_prob"], "q_values": q_vals}
    return loss, grads, aux


def v_loss_and_grads(v_net: Mlp, states, v_targets):
    """Loss 0.5 * mean((net(states) - targets)^2) and its gradient; targets are held fixed."""
    v_pred, acts = mlp_forward(v_net, states)
    diff = v_pred[:, 0] - v_targets
    loss = 0.5 * float(np.mean(diff * diff))
    grads = mlp_backward(v_net, acts, (diff / diff.size)[:, None])
    return loss, grads


def sac_update(replay: ReplayMemory, nets: SacNets, optim: SacOptimizers,
               config: SacConfig, rng) -> dict:
    """One gradient update of critic, value and policy plus the target refresh.

    Order: critic step first; then one fresh policy sample shared by the value
    target and the actor loss (both seeing the updated critic); value step,
    policy step and Polyak target update.
    """
    rng = as_generator(rng)
    batch = replay.sample(config.batch_size, rng)

    q_loss, q_grads = q_loss_and_grads(nets.q, nets.target_v, batch, config.gamma)
    adam_step(nets.q.params, q_grads, optim.q)

    eps = rng.standard_normal(config.batch_size)
    policy_loss, policy_grads, aux = policy_loss_and_grads(
        nets.policy, nets.q, batch.states, eps, config.alpha
    )
    v_targets = aux["q_values"] - config.alpha * aux["log_prob"]
    v_loss, v_grads = v_loss_and_grads(nets.v, batch.states, v_targets)

    adam_step(nets.v.params, v_grads, optim.v)
    adam_step(nets.policy.params, policy_grads, optim.policy)
    soft_update(nets.target_v, nets.v, config.tau)

    losses = {"q_loss": q_loss, "v_loss": v_loss, "policy_loss": policy_loss}
    if not all(math.isfinite(v) for v in losses.values()):
        raise NumericalError(f"non-finite SAC losses: {losses}")
    return losses


def meta_train(tasks, config: SacConfig, seed, learner_factory=DecisionTree,
               on_step=None) -> MetaSampler:
    """Train the sampling policy over one or more (train, valid) tasks.

    Each episode trains one cascade of config.ensemble_size members on a task,
    visiting tasks round-robin (episode i uses task i mod n_tasks), and every
    cascade step is one environment step. An episode draws its action and
    subset seeds from its own child of the episode seed. While fewer than
    config.random_steps environment steps have run, actions are uniform;
    after that they are policy samples. Each step is pushed into the replay
    buffer; once more than config.random_steps steps have run and the buffer
    holds a batch, one gradient update follows it, until config.gradient_steps
    updates have run. Episodes always run to completion; training stops after
    the episode in which the update budget runs out, or after config.episodes
    episodes when that is set. `on_step` receives (episode, step_in_episode,
    task_index, step) after the step's update.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("need at least one task")
    init_ss, update_ss, episode_root = as_seed_sequence(seed).spawn(3)
    policy_ss, q_ss, v_ss = init_ss.spawn(3)

    sampler = random_sampler(config.bins, config.sigma, policy_ss)
    state_size = config.state_size
    v = init_mlp([state_size, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], v_ss)
    nets = SacNets(
        policy=sampler.policy,
        q=init_mlp([state_size + 1, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], q_ss),
        v=v,
        target_v=v.copy(),
    )
    optim = SacOptimizers.for_nets(nets, config)
    replay = ReplayMemory(config.replay_capacity)
    update_rng = as_generator(update_ss)

    env_steps = updates = episode = 0

    def actions(state):
        """Uniform until config.random_steps steps have run, then a policy sample."""
        if env_steps < config.random_steps:
            return float(action_rng.random())
        return policy_actions(state)

    def after_step(step):
        nonlocal env_steps, updates
        replay.push(step)
        env_steps += 1
        if (
            env_steps > config.random_steps
            and updates < config.gradient_steps
            and len(replay) >= config.batch_size
        ):
            sac_update(replay, nets, optim, config, update_rng)
            updates += 1
        if on_step is not None:
            on_step(episode, env_steps - episode_start - 1, task_index, step)

    while updates < config.gradient_steps and (
        config.episodes is None or episode < config.episodes
    ):
        task_index = episode % len(tasks)
        episode_start = env_steps
        train, valid = tasks[task_index]
        action_ss, subset_ss = episode_root.spawn(1)[0].spawn(2)
        action_rng = as_generator(action_ss)
        policy_actions = PolicyActionSource(sampler, seed=action_rng)
        train_ensemble(
            train,
            valid,
            actions,
            sigma=config.sigma,
            bins=config.bins,
            n_members=config.ensemble_size,
            learner_factory=learner_factory,
            seed=subset_ss,
            on_step=after_step,
        )
        episode += 1
    return sampler


def _check_modes(labelled_modes, mu):
    """Refuse a list of (label, mode) arms with an unknown mode, a needed mu of None or a repeat."""
    for label, mode in labelled_modes:
        if mode not in MODES:
            raise ValueError(f"arm {label!r}: unknown mode {mode!r}; choose from {tuple(MODES)}")
        if "mu" in MODES[mode] and mu is None:
            raise ValueError(f"arm {label!r}: mu must be in [0, 1], got {mu}")
    if len(dict(labelled_modes)) != len(labelled_modes):
        raise ValueError("arm labels must be distinct")


def score_arms(ds, split, seeds, arms, *, n_members, noise_ratio=0.0, mu=None,
               bins=SacConfig.bins, sigma=SacConfig.sigma, learner_factory=DecisionTree) -> dict:
    """Test AUCPRC per seed of each (label, mode, sampler) arm: {label: [score per seed]}.

    Labels must be distinct. Each seed splits `ds` once for all arms and
    flip-noises the train part at `noise_ratio` (0 leaves it as it is). Each
    arm then trains one cascade of `n_members` on (train, valid) and scores it
    on test. The modes, each running with the knobs MODES lists: "policy"
    samples actions from the arm's sampler, with its bins and sigma;
    "random-policy" from an untrained sampler with `bins` and `sigma`
    (SacConfig's unless given); "random-sampling" fits every member on a
    random balanced subset; "constant" takes action `mu` (needed, in [0, 1])
    at every step. Before any split, whatever the arms, `n_members` and `bins`
    must be integers of at least 1, `sigma` must pass gaussian_scale, a
    given `mu` must be a real number in [0, 1] and `noise_ratio` one in
    [0, 1). Every arm spawns the same six streams from the seed, so its
    scores do not depend on which other arms run.
    """
    n_members = check_integer("n_members", n_members, least=1)
    bins = check_integer("bins", bins, least=1)
    gaussian_scale(sigma)
    mu = None if mu is None else check_float("mu", mu, "[0, 1]")
    check_float("noise ratio", noise_ratio, "[0, 1)")
    arms = list(arms)
    _check_modes([(label, mode) for label, mode, _ in arms], mu)
    for label, mode, sampler in arms:
        if "sampler" in MODES[mode] and sampler is None:
            raise ValueError(f"arm {label!r}: {mode} mode needs a sampler")
    scores = {label: [] for label, _, _ in arms}
    for seed in seeds:
        train, valid, test = stratified_split(ds, split, seed)
        train = inject_flip_noise(train, noise_ratio, seed)
        for label, mode, sampler in arms:
            pol_ss, pol_act, rp_init, rp_act, rp_ss, rs_ss = as_seed_sequence(seed).spawn(6)
            if mode == "random-sampling":
                model = train_random_ensemble(
                    train, valid, n_members=n_members, learner_factory=learner_factory,
                    seed=rs_ss,
                )
            else:
                arm_bins, arm_sigma, subset_ss = bins, sigma, pol_ss
                if mode == "policy":
                    actions = PolicyActionSource(sampler, seed=pol_act)
                    arm_bins, arm_sigma = sampler.bins, sampler.sigma
                elif mode == "random-policy":
                    actions = PolicyActionSource(random_sampler(bins, sigma, rp_init), seed=rp_act)
                    subset_ss = rp_ss
                else:
                    actions = lambda state: mu
                model, _ = train_ensemble(
                    train, valid, actions, sigma=arm_sigma, bins=arm_bins, n_members=n_members,
                    learner_factory=learner_factory, seed=subset_ss,
                )
            scores[label].append(aucprc(model.predict_proba(test.features), test.labels))
    return scores


def experiment_point(ds, split, meta_seed, eval_seeds, modes, config: SacConfig,
                     noise_ratio=0.0, learner_factory=DecisionTree):
    """Meta-train on `ds` at `meta_seed`, then score one arm per mode: (sampler, scores).

    `ds` is split at the meta seed, its train part flip-noised at
    `noise_ratio` (0 leaves it as it is), and one sampler meta-trained on
    (train, valid) with `config`. score_arms then scores an arm per mode,
    labelled by the mode and holding that sampler, over `eval_seeds` at the
    same noise ratio: cascades of config.ensemble_size members with config's
    bins and sigma. The scores are {mode: [score per seed]}. A noise ratio
    outside [0, 1), an unknown or repeated mode, or "constant" (the point
    takes no mu) is refused before the split. This is the unit of the CLI's ablation and
    noise-sweep.
    """
    check_float("noise ratio", noise_ratio, "[0, 1)")
    modes = tuple(modes)
    _check_modes([(mode, mode) for mode in modes], mu=None)
    train, valid, _ = stratified_split(ds, split, meta_seed)
    train = inject_flip_noise(train, noise_ratio, meta_seed)
    sampler = meta_train([(train, valid)], config, meta_seed, learner_factory=learner_factory)
    scores = score_arms(
        ds, split, eval_seeds, [(mode, mode, sampler) for mode in modes],
        n_members=config.ensemble_size, noise_ratio=noise_ratio, bins=config.bins,
        sigma=config.sigma, learner_factory=learner_factory,
    )
    return sampler, scores


def sampler_to_document(sampler: MetaSampler) -> dict:
    return {
        "format_version": SAMPLER_FORMAT_VERSION,
        "bins": sampler.bins,
        "sigma": sampler.sigma,
        "policy": mlp_to_document(sampler.policy),
    }


def sampler_from_document(doc: dict) -> MetaSampler:
    version = doc.get("format_version")
    if version != SAMPLER_FORMAT_VERSION:
        raise ValueError(f"unsupported sampler format version {version!r}")
    return MetaSampler(
        policy=mlp_from_document(doc["policy"]),
        bins=strict_int(doc["bins"]),
        sigma=strict_float(doc["sigma"]),
    )


def save_sampler(sampler: MetaSampler, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = json.dumps(sampler_to_document(sampler), indent=2, sort_keys=True)
    path.write_text(document, encoding="utf-8")


def load_sampler(path) -> MetaSampler:
    """Read a saved sampler.

    A file that cannot be read (a directory, say) or is not a sampler document
    (bad JSON, a missing key, a wrong version, mismatched shapes) raises
    SamplerFormatError; one with non-finite parameters raises NumericalError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such sampler file: {path}")
    try:
        return sampler_from_document(json.loads(path.read_text(encoding="utf-8")))
    except KeyError as exc:
        raise SamplerFormatError(f"sampler file {path} lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SamplerFormatError(f"sampler file {path} is malformed: {exc}") from None
    except OSError as exc:
        raise SamplerFormatError(f"sampler file {path} cannot be read: {exc}") from None
