import numpy as np
import pytest
from numpy.random import SeedSequence

from metasampler import (
    ConstantActionSource,
    DecisionTree,
    EnsembleModel,
    EnsembleStep,
    GaussianNaiveBayes,
    RandomActionSource,
    SacConfig,
    SplitSpec,
    ToySpec,
    aucprc,
    gaussian_weight,
    make_toy,
    meta_sample,
    meta_state,
    meta_train,
    random_balanced_subset,
    stratified_split,
    train_ensemble,
    train_random_ensemble,
)
from metasampler.sampling import WEIGHT_FLOOR
from conftest import FixedModel, make_dataset


def toy_parts(overlap=0.0, seed=4, n_majority=300, n_minority=50):
    ds = make_toy(ToySpec(n_majority, n_minority, overlap, seed=seed))
    return stratified_split(ds, SplitSpec(), seed=seed)


class TestEnsembleModel:
    def test_single_member_passthrough(self):
        features = np.array([[0.0], [1.0]])
        member = FixedModel(features, [0.2, 0.9])
        model = EnsembleModel([member])
        assert model.predict_proba(features).tolist() == [0.2, 0.9]

    def test_mean_of_members(self):
        features = np.array([[0.0]])
        model = EnsembleModel(
            [FixedModel(features, [0.2]), FixedModel(features, [0.8])]
        )
        assert model.predict_proba(np.array([0.0])) == pytest.approx(0.5)

    def test_output_in_unit_interval(self, rng):
        features = rng.standard_normal((5, 1))
        members = [
            FixedModel(features, rng.random(5)) for _ in range(7)
        ]
        out = EnsembleModel(members).predict_proba(features)
        assert np.all((0.0 <= out) & (out <= 1.0))


class TestActionSources:
    def test_constant_returns_mu(self):
        source = ConstantActionSource(0.3)
        assert source.action(np.zeros(10)) == 0.3

    def test_constant_validates_mu(self):
        with pytest.raises(ValueError):
            ConstantActionSource(1.5)

    def test_random_in_unit_interval(self):
        source = RandomActionSource(5)
        actions = [source.action(np.zeros(10)) for _ in range(100)]
        assert all(0.0 <= a <= 1.0 for a in actions)

    def test_random_seeded_reproducible(self):
        a = RandomActionSource(9)
        b = RandomActionSource(9)
        assert [a.action(None) for _ in range(5)] == [b.action(None) for _ in range(5)]


class TestTrainEnsemble:
    def test_single_member_no_trace(self):
        train, valid, _ = toy_parts()
        model, steps = train_ensemble(train, valid, ConstantActionSource(0.5), n_members=1, seed=0)
        assert len(model) == 1
        assert steps == []

    def test_separable_reaches_perfect_validation(self):
        train, valid, _ = toy_parts(overlap=0.0)
        model, steps = train_ensemble(train, valid, ConstantActionSource(0.5), n_members=5, seed=0)
        score = aucprc(model.predict_proba(valid.features), valid.labels)
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_trace_length_and_terminal_flag(self):
        train, valid, _ = toy_parts(overlap=0.5)
        model, steps = train_ensemble(train, valid, ConstantActionSource(0.5), n_members=6, seed=1)
        assert len(model) == 6
        assert len(steps) == 5
        assert [s.terminal for s in steps] == [False] * 4 + [True]
        assert all(s.action == 0.5 for s in steps)
        assert all(len(s.state) == 10 and len(s.next_state) == 10 for s in steps)

    def test_rewards_telescope_exactly(self):
        train, valid, _ = toy_parts(overlap=0.6, seed=2)
        _, steps = train_ensemble(train, valid, ConstantActionSource(0.4), n_members=8, seed=3)
        total = sum(s.reward for s in steps)
        assert total == steps[-1].auc_after - steps[0].auc_before

    def test_states_chain(self):
        train, valid, _ = toy_parts(overlap=0.5)
        _, steps = train_ensemble(train, valid, ConstantActionSource(0.5), n_members=4, seed=5)
        for prev, nxt in zip(steps, steps[1:]):
            assert np.array_equal(prev.next_state, nxt.state)
            assert prev.auc_after == nxt.auc_before

    def test_seed_reproducibility(self):
        train, valid, _ = toy_parts(overlap=0.5)
        m1, s1 = train_ensemble(train, valid, RandomActionSource(3), n_members=5, seed=11)
        m2, s2 = train_ensemble(train, valid, RandomActionSource(3), n_members=5, seed=11)
        x = valid.features
        assert np.array_equal(m1.predict_proba(x), m2.predict_proba(x))
        assert [a.action for a in s1] == [a.action for a in s2]

    def test_fresh_seed_sequences_match_int_seed(self):
        train, valid, _ = toy_parts(overlap=0.5)
        m1, _ = train_ensemble(train, valid, ConstantActionSource(0.5), n_members=4, seed=21)
        m2, _ = train_ensemble(
            train, valid, ConstantActionSource(0.5), n_members=4, seed=SeedSequence(21)
        )
        x = valid.features
        assert np.array_equal(m1.predict_proba(x), m2.predict_proba(x))

    def test_on_step_sees_every_step(self):
        train, valid, _ = toy_parts(overlap=0.5)
        seen = []
        _, steps = train_ensemble(
            train, valid, ConstantActionSource(0.5), n_members=5, seed=2, on_step=seen.append
        )
        assert seen == steps

    def test_action_out_of_range_rejected(self):
        train, valid, _ = toy_parts(overlap=0.5)

        class Wild:
            def action(self, state):
                return 1.7

        with pytest.raises(ValueError):
            train_ensemble(train, valid, Wild(), n_members=3, seed=0)

    def test_feature_width_mismatch_rejected(self):
        train, valid, _ = toy_parts(overlap=0.5)
        bad_valid = make_dataset(np.zeros((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            train_ensemble(train, bad_valid, ConstantActionSource(0.5), n_members=3, seed=0)

    def test_n_members_validated(self):
        train, valid, _ = toy_parts()
        with pytest.raises(ValueError):
            train_ensemble(train, valid, ConstantActionSource(0.5), n_members=0, seed=0)

    @pytest.mark.parametrize("n_members", [True, 2.5, "3.5"])
    def test_non_integer_n_members_rejected(self, n_members):
        train, valid, _ = toy_parts()
        with pytest.raises(ValueError):
            train_ensemble(train, valid, ConstantActionSource(0.5), n_members=n_members, seed=0)
        with pytest.raises(ValueError):
            train_random_ensemble(train, valid, n_members=n_members, seed=0)

    @pytest.mark.parametrize("n_members", [3.0, np.int64(3)])
    def test_integral_n_members_accepted(self, n_members):
        train, valid, _ = toy_parts()
        model, steps = train_ensemble(
            train, valid, ConstantActionSource(0.5), n_members=n_members, seed=0
        )
        _, ref_steps = train_ensemble(train, valid, ConstantActionSource(0.5), n_members=3, seed=0)
        assert len(model) == 3
        assert_same_steps(steps, ref_steps)
        assert len(train_random_ensemble(train, valid, n_members=n_members, seed=0)) == 3


def rescoring_cascade(train, valid, actions, n_members, learner_factory, seed, sigma=0.2, bins=5):
    """Reference cascade: rebuild the ensemble and rescore every member at each step."""
    draw_seeds = SeedSequence(seed).spawn(n_members)
    members = [learner_factory().fit(random_balanced_subset(train, draw_seeds[0]))]
    steps = []
    if n_members == 1:
        return EnsembleModel(members), steps
    model = EnsembleModel(members[:1])
    auc = aucprc(model.predict_proba(valid.features), valid.labels)
    state = meta_state(model, train, valid, bins)
    for t in range(1, n_members):
        mu = float(actions.action(state))
        subset = meta_sample(train, model, mu, sigma, draw_seeds[t])
        members.append(learner_factory().fit(subset))
        model = EnsembleModel(members[: t + 1])
        auc_after = aucprc(model.predict_proba(valid.features), valid.labels)
        next_state = meta_state(model, train, valid, bins)
        steps.append(EnsembleStep(state, mu, auc, auc_after, next_state, t == n_members - 1))
        auc, state = auc_after, next_state
    return model, steps


def assert_same_steps(steps, ref_steps):
    assert len(steps) == len(ref_steps)
    for step, ref in zip(steps, ref_steps):
        assert np.array_equal(step.state, ref.state)
        assert np.array_equal(step.next_state, ref.next_state)
        assert step.action == ref.action
        assert step.auc_before == ref.auc_before
        assert step.auc_after == ref.auc_after
        assert step.terminal == ref.terminal


# No ensemble error of the all-floor cascades below lies within 0.001 of this
# center, so with this width every majority weight is at the floor.
FLOOR_MU, FLOOR_SIGMA = 0.61803, 1e-4


class TestIncrementalScoring:
    @pytest.mark.parametrize("learner", [DecisionTree, GaussianNaiveBayes])
    @pytest.mark.parametrize("n_members", [1, 2, 8])
    @pytest.mark.parametrize(
        "make_source",
        [
            lambda: (ConstantActionSource(0.35), 0.2),
            lambda: (RandomActionSource(13), 0.2),
            lambda: (ConstantActionSource(FLOOR_MU), FLOOR_SIGMA),
        ],
        ids=["constant", "random", "all_floor"],
    )
    # 36 minority training rows against 180 majority rows (blocks of 13, the
    # last one ragged), 36 (returned whole), 37 (all but one drawn; blocks of
    # 6 and a last one of one row) and 600 (25 whole blocks of 24)
    @pytest.mark.parametrize("n_majority", [300, 60, 61, 1000])
    def test_matches_rescoring_cascade_exactly(self, learner, n_members, make_source, n_majority):
        train, valid, test = toy_parts(overlap=0.6, seed=7, n_majority=n_majority, n_minority=60)
        subsets = []

        class Recording(learner):
            def fit(self, subset):
                subsets.append(subset)
                return super().fit(subset)

        source, sigma = make_source()
        model, steps = train_ensemble(
            train, valid, source, sigma=sigma, n_members=n_members, learner_factory=Recording, seed=9
        )
        source, sigma = make_source()
        ref_model, ref_steps = rescoring_cascade(
            train, valid, source, n_members, learner, seed=9, sigma=sigma
        )
        assert len(steps) == n_members - 1
        assert_same_steps(steps, ref_steps)
        assert all(np.isfinite(s.auc_after) and np.isfinite(s.next_state).all() for s in steps)
        assert len(model) == len(ref_model) == n_members
        scores = model.predict_proba(test.features)
        assert scores.tobytes() == ref_model.predict_proba(test.features).tobytes()
        assert np.isfinite(scores).all()

        # every subset is balanced (or the whole set) and has no row twice
        n_drawn = min(train.majority_count, train.minority_count)
        for subset in subsets:
            assert (subset.majority_count, subset.minority_count) == (n_drawn, train.minority_count)
            assert len(np.unique(subset.features, axis=0)) == len(subset)

        source, sigma = make_source()
        again, again_steps = train_ensemble(
            train, valid, source, sigma=sigma, n_members=n_members, learner_factory=learner, seed=9
        )
        assert_same_steps(again_steps, steps)
        assert np.array_equal(again.predict_proba(test.features), scores)

        if sigma == FLOOR_SIGMA:
            majority = train.features[train.majority_indices]
            member_sum = np.zeros(len(majority))
            for t, member in enumerate(ref_model.members[:-1], start=1):
                member_sum += member.predict_proba(majority)
                errors = np.abs(member_sum / t - train.labels[train.majority_indices])
                assert np.all(gaussian_weight(errors, FLOOR_MU, FLOOR_SIGMA) < WEIGHT_FLOOR)

    def test_each_member_scores_train_and_valid_once(self):
        train, valid, _ = toy_parts(overlap=0.5)

        class CountingTree(DecisionTree):
            def __init__(self):
                super().__init__()
                self.rows_scored = 0

            def predict_proba(self, features):
                self.rows_scored += len(features)
                return super().predict_proba(features)

        made = []

        def factory():
            made.append(CountingTree())
            return made[-1]

        train_ensemble(train, valid, RandomActionSource(1), n_members=8, learner_factory=factory, seed=4)
        assert [tree.rows_scored for tree in made] == [len(train) + len(valid)] * 8


def with_conflicts(part, n):
    """`part` plus copies of n minority rows labelled 0 and n majority rows labelled 1."""
    copies = np.concatenate((part.minority_indices[:n], part.majority_indices[:n]))
    return make_dataset(
        np.concatenate((part.features, part.features[copies])),
        np.concatenate((part.labels, np.repeat([0, 1], n))),
    )


def row_counts(ds):
    rows, counts = np.unique(np.column_stack((ds.features, ds.labels)), axis=0, return_counts=True)
    return {tuple(row): int(count) for row, count in zip(rows, counts)}


def conflicting_duplicates_task():
    train, valid, test = toy_parts(overlap=0.5, seed=3, n_majority=120, n_minority=30)
    return with_conflicts(train, 5), with_conflicts(valid, 2), test


def one_valid_minority_task():
    train, valid, test = toy_parts(overlap=0.5, seed=5, n_majority=60, n_minority=5)
    assert (valid.minority_count, test.minority_count, train.minority_count) == (1, 1, 3)
    return train, valid, test


class TestCascadeEdgeCases:
    @pytest.mark.parametrize(
        "make_task", [conflicting_duplicates_task, one_valid_minority_task],
        ids=["conflicting_duplicates", "one_valid_minority"],
    )
    def test_cascade_balanced_finite_and_deterministic(self, make_task):
        train, valid, test = make_task()
        subsets = []

        class Recording(DecisionTree):
            def fit(self, subset):
                subsets.append(subset)
                return super().fit(subset)

        model, steps = train_ensemble(
            train, valid, RandomActionSource(5), n_members=4, learner_factory=Recording, seed=11
        )
        assert len(steps) == 3 and len(subsets) == 4
        for step in steps:
            assert np.isfinite(step.state).all() and np.isfinite(step.next_state).all()
            assert np.isfinite(step.reward) and np.isfinite(step.auc_after)
        scores = model.predict_proba(test.features)
        assert np.isfinite(scores).all()

        # balanced subsets that take no (features, label) row more often than train holds it
        available = row_counts(train)
        for subset in subsets:
            assert (subset.majority_count, subset.minority_count) == (
                train.minority_count, train.minority_count
            )
            assert all(n <= available.get(row, 0) for row, n in row_counts(subset).items())

        again, again_steps = train_ensemble(
            train, valid, RandomActionSource(5), n_members=4, seed=11
        )
        assert_same_steps(again_steps, steps)
        assert np.array_equal(again.predict_proba(test.features), scores)

    @pytest.mark.parametrize(
        "make_task", [conflicting_duplicates_task, one_valid_minority_task],
        ids=["conflicting_duplicates", "one_valid_minority"],
    )
    def test_meta_train_finite_and_deterministic(self, make_task):
        train, valid, _ = make_task()
        config = SacConfig(
            batch_size=4, replay_capacity=8, gradient_steps=6, random_steps=4, ensemble_size=4,
        )

        def run():
            steps = []
            sampler = meta_train([(train, valid)], config, seed=2,
                                 on_step=lambda ep, i, task, s: steps.append(s))
            return sampler, steps

        sampler, steps = run()
        assert len(steps) == 12  # 4 warmup steps, then 6 updates, finishing the 4th episode
        assert all(np.isfinite(s.state).all() and np.isfinite(s.reward) for s in steps)
        assert np.isfinite(sampler.policy.params).all()
        again, again_steps = run()
        assert_same_steps(again_steps, steps)
        assert np.array_equal(again.policy.params, sampler.policy.params)


class TestTrainRandomEnsemble:
    def test_k_members_and_separable_perfect(self):
        train, valid, _ = toy_parts(overlap=0.0)
        model = train_random_ensemble(train, valid, n_members=5, seed=0)
        assert len(model) == 5
        score = aucprc(model.predict_proba(valid.features), valid.labels)
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_seeded_reproducible(self):
        train, valid, _ = toy_parts(overlap=0.5)
        a = train_random_ensemble(train, valid, n_members=4, seed=6)
        b = train_random_ensemble(train, valid, n_members=4, seed=6)
        x = valid.features
        assert np.array_equal(a.predict_proba(x), b.predict_proba(x))
