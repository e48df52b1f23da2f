"""Cascade ensemble training driven by a per-step action.

The first member is fit on a uniformly drawn balanced subset. Every further
member is fit on a meta-sampled subset whose Gaussian center is
``actions(state)``, for any callable `actions` from the current meta-state to
[0, 1]. The trace of states, actions and validation scores is a first-class
output so callers can turn episodes into reinforcement-learning transitions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import SingleClassError
from .learners import DecisionTree, tree_probabilities
from .metrics import aucprc
from .rng import as_seed_sequence, check_integer
from .sampling import gaussian_scale, random_balanced_subset, sample_from_errors, state_from_errors


@dataclass
class EnsembleModel:
    """Uniform average of member probabilities.

    ``predict_proba`` adds each member's probabilities to a sum that starts
    from zeros, in member order, and divides it once by the member count.
    When every member's ``predict_proba`` is ``DecisionTree.predict_proba``,
    ``tree_probabilities`` walks ``8192 // rows`` trees at once (one from
    4,097 rows on), which pays numpy's per-call cost once per group rather
    than once per tree. Otherwise, as with Gaussian naive Bayes or a tree
    subclass that overrides ``predict_proba``, every member scores through
    its own ``predict_proba``. Either way the bytes are those of the loop.
    """

    members: list = field(default_factory=list)

    def predict_proba(self, features):
        """Mean member probability of each row of a (rows, features) matrix."""
        if not self.members:
            raise RuntimeError("ensemble has no members")
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a (rows, features) matrix, got shape {x.shape}")
        members = self.members
        if all(type(member).predict_proba is DecisionTree.predict_proba for member in members):
            scored = tree_probabilities(members, x)
        else:
            scored = (member.predict_proba(x) for member in members)
        acc = np.zeros(len(x), dtype=np.float64)
        for probabilities in scored:
            acc += probabilities
            del probabilities  # free these scores before the next member computes its own
        return acc / len(members)

    def __len__(self) -> int:
        return len(self.members)


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


def _check_task(
    train: LabeledDataset, valid: LabeledDataset, n_members, sigma=None, bins=None
) -> int:
    """Refuse a cascade before any member is fit; returns n_members as an int.

    `sigma` and `bins`, when given, are the weighted draw's and the meta-state's:
    `gaussian_scale` checks sigma, and bins must be an integer of at least 1.
    """
    n_members = check_integer("n_members", n_members, least=1)
    if sigma is not None:
        gaussian_scale(sigma)
    if bins is not None:
        check_integer("bins", bins, least=1)
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
    sigma: float,
    bins: int,
    n_members: int,
    learner_factory=DecisionTree,
    seed=0,
    on_step=None,
):
    """Train a cascade of n_members learners, centering draws on `actions(state)`.

    Per-member subset draws use seeds split counter-style from `seed`, so
    member t's subset is reproducible regardless of what `actions` returns.
    Returns (model, steps); `steps` has one EnsembleStep per added
    member after the first, so it is empty when n_members == 1.

    The training rows, majority first, and the validation rows are stacked
    once per cascade, features and labels, and each member scores the stack
    in one ``predict_proba`` call, added to one running sum. Every read
    divides the sum by the member count into one buffer, reads the AUCPRC
    from its validation half, and turns it in place into ``|scores -
    labels|``: that error vector gives the meta-state, and its first rows,
    in the order of ``train.majority_indices``, are the weighted draw's
    majority errors with no gather. The sum starts from zeros and adds
    members in order, as EnsembleModel.predict_proba does, and every learner
    scores each row on its own (see ``learners``), so every read equals the
    prediction of the ensemble so far bit for bit; the histograms count the
    training rows in any order. The stack costs one copy of both splits'
    features (28 KB on the MID task, 1.3 MB on the 84,000 rows of the large
    benchmark task). It pays for itself: one call instead of two halves
    numpy's per-call cost, the validation rows no longer walk the trees as a
    small call of their own, and the errors are computed and binned in one
    pass. Ten K=30 cascades on the MID task ran in about 7 % less time
    (2-core x86-64 VM, ``BENCH_member_scoring.json``).
    """
    n_members = _check_task(train, valid, n_members, sigma, bins)
    draw_seeds = as_seed_sequence(seed).spawn(n_members)
    members = []
    # training rows majority first, in the order of train.majority_indices, then the
    # validation rows. `take` gathers the (63,000, 2) training rows of the large
    # benchmark task in 0.13 ms, a fancy index in 1.5 ms (2-core x86-64 VM)
    order = np.concatenate((train.majority_indices, train.minority_indices))
    features = np.concatenate((train.features.take(order, axis=0), valid.features))
    labels = np.concatenate((train.labels.take(order), valid.labels))
    del order
    n_train, n_majority = len(train), train.majority_count
    score_sum = np.zeros(len(labels), dtype=np.float64)
    errors = np.empty(len(labels), dtype=np.float64)  # every member rewrites it in place

    def add_member(subset):
        """Fit a member and score it; (majority errors, valid AUCPRC, meta-state) of the ensemble.

        The majority errors are a view of `errors`: they hold until the next member is added.
        """
        member = learner_factory().fit(subset)
        members.append(member)
        np.add(score_sum, member.predict_proba(features), out=score_sum)
        scores = np.divide(score_sum, len(members), out=errors)
        auc = aucprc(scores[n_train:], valid.labels)
        np.abs(np.subtract(scores, labels, out=errors), out=errors)
        return errors[:n_majority], auc, state_from_errors(errors, n_train, bins)

    majority_errors, auc, state = add_member(random_balanced_subset(train, draw_seeds[0]))
    steps = []
    for t in range(1, n_members):
        mu = float(actions(state))
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"actions produced {mu}, outside [0, 1]")
        subset = sample_from_errors(train, majority_errors, mu, sigma, draw_seeds[t])
        majority_errors, auc_after, next_state = add_member(subset)
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
    n_members: int,
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
