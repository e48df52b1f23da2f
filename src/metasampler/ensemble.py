"""Cascade ensemble training driven by a per-step action source.

The first member is fit on a uniformly drawn balanced subset. Every further
member is fit on a meta-sampled subset whose Gaussian center comes from the
action source, which sees the current meta-state. The trace of states,
actions and validation scores is a first-class output so callers can turn
episodes into reinforcement-learning transitions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import SingleClassError
from .learners import DecisionTree
from .metrics import aucprc
from .rng import as_generator, as_seed_sequence, strict_int
from .sampling import random_balanced_subset, sample_from_errors, state_from_errors


@dataclass
class EnsembleModel:
    """Uniform average of member probabilities."""

    members: list = field(default_factory=list)

    def predict_proba(self, features):
        if not self.members:
            raise RuntimeError("ensemble has no members")
        x = np.asarray(features, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        acc = np.zeros(len(x), dtype=np.float64)
        for member in self.members:
            acc += member.predict_proba(x)
        acc /= len(self.members)
        return float(acc[0]) if single else acc

    def __len__(self) -> int:
        return len(self.members)


class ConstantActionSource:
    """Always emits the same Gaussian center."""

    def __init__(self, mu: float):
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {mu}")
        self.mu = float(mu)

    def action(self, state) -> float:
        return self.mu


class RandomActionSource:
    """Emits centers uniformly from [0, 1]."""

    def __init__(self, seed):
        self._rng = as_generator(seed)

    def action(self, state) -> float:
        return float(self._rng.random())


@dataclass(frozen=True)
class EnsembleStep:
    """One cascade step: state seen, action taken, validation score before/after."""

    state: np.ndarray
    action: float
    auc_before: float
    auc_after: float
    next_state: np.ndarray
    terminal: bool

    @property
    def reward(self) -> float:
        return self.auc_after - self.auc_before


def _check_task(train: LabeledDataset, valid: LabeledDataset, n_members) -> int:
    """Refuse a cascade that cannot be trained; returns n_members as an int."""
    n_members = strict_int(n_members)
    if n_members < 1:
        raise ValueError(f"need at least one member, got {n_members}")
    for name, part in (("train", train), ("valid", valid)):
        if part.minority_count == 0 or part.majority_count == 0:
            raise SingleClassError(f"{name} split must contain both classes")
    if train.n_features != valid.n_features:
        raise ValueError("train and valid must share the feature space")
    return n_members


def train_ensemble(
    train: LabeledDataset,
    valid: LabeledDataset,
    actions,
    sigma: float = 0.2,
    bins: int = 5,
    n_members: int = 10,
    learner_factory=DecisionTree,
    seed=0,
    on_step=None,
):
    """Train a cascade of n_members learners, guided by `actions`.

    Per-member subset draws use seeds split counter-style from `seed`, so
    member t's subset is reproducible regardless of what the action source
    does. Returns (model, steps); `steps` has one EnsembleStep per added
    member after the first, so it is empty when n_members == 1.

    Each member scores the training and validation rows once, when it is
    added: its probabilities go into one running sum per split. Every read
    divides a sum by the member count, which gives the ensemble's errors for
    the meta-state and the weighted draw and its validation AUCPRC. The sums
    start from zeros and add members in order, as EnsembleModel.predict_proba
    does, so every read equals the prediction of the ensemble so far bit for
    bit. Two sums rather than one over both splits avoid copying features.
    """
    n_members = _check_task(train, valid, n_members)
    draw_seeds = as_seed_sequence(seed).spawn(n_members)
    members = []
    majority = train.majority_indices
    train_sum = np.zeros(len(train), dtype=np.float64)
    valid_sum = np.zeros(len(valid), dtype=np.float64)

    def add_member(subset):
        """Fit a member and score it; (train errors, valid AUCPRC, meta-state) of the ensemble."""
        member = learner_factory().fit(subset)
        members.append(member)
        np.add(train_sum, member.predict_proba(train.features), out=train_sum)
        np.add(valid_sum, member.predict_proba(valid.features), out=valid_sum)
        train_errors = np.abs(train_sum / len(members) - train.labels)
        valid_scores = valid_sum / len(members)
        state = state_from_errors(train_errors, np.abs(valid_scores - valid.labels), bins)
        return train_errors, aucprc(valid_scores, valid.labels), state

    train_errors, auc, state = add_member(random_balanced_subset(train, draw_seeds[0]))
    steps = []
    for t in range(1, n_members):
        mu = float(actions.action(state))
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"action source produced {mu}, outside [0, 1]")
        subset = sample_from_errors(train, train_errors[majority], mu, sigma, draw_seeds[t])
        train_errors, auc_after, next_state = add_member(subset)
        step = EnsembleStep(
            state=state,
            action=mu,
            auc_before=auc,
            auc_after=auc_after,
            next_state=next_state,
            terminal=t == n_members - 1,
        )
        steps.append(step)
        if on_step is not None:
            on_step(step)
        auc = auc_after
        state = next_state
    return EnsembleModel(members), steps


def train_random_ensemble(
    train: LabeledDataset,
    valid: LabeledDataset,
    n_members: int = 10,
    learner_factory=DecisionTree,
    seed=0,
) -> EnsembleModel:
    """Plain under-sampling baseline: every member sees a uniform balanced subset."""
    n_members = _check_task(train, valid, n_members)
    draw_seeds = as_seed_sequence(seed).spawn(n_members)
    members = [
        learner_factory().fit(random_balanced_subset(train, draw_seeds[t]))
        for t in range(n_members)
    ]
    return EnsembleModel(members)
