import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import SeedSequence

from metasampler import (
    DecisionTree,
    GaussianNaiveBayes,
    NumericalError,
    SacConfig,
    SplitSpec,
    ToySpec,
    aucprc,
    make_toy,
    meta_train,
    stratified_split,
    train_ensemble,
    train_random_ensemble,
)
from metasampler import learners
from metasampler.ensemble import EnsembleModel, EnsembleStep
from metasampler.sampling import (
    WEIGHT_FLOOR,
    gaussian_weight,
    random_balanced_subset,
)
from conftest import (
    WRONG_SHAPES,
    FixedModel,
    make_dataset,
    model_meta_sample,
    model_meta_state,
    shaped_learner,
)


def uniform_actions(seed):
    """Actions drawn uniformly from [0, 1], one np.random.default_rng(seed).random() per step."""
    rng = np.random.default_rng(seed)
    return lambda state: float(rng.random())


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
        assert model.predict_proba(np.array([[0.0]])).tolist() == [pytest.approx(0.5)]

    def test_one_dimensional_input_refused(self):
        features = np.array([[0.0]])
        tree = DecisionTree().fit(make_dataset([[0.0], [1.0]], [0, 1]))
        for members in ([FixedModel(features, [0.2])], [tree, tree]):
            with pytest.raises(ValueError, match="matrix"):
                EnsembleModel(members).predict_proba(np.array([0.0]))

    def test_output_in_unit_interval(self, rng):
        features = rng.standard_normal((5, 1))
        members = [
            FixedModel(features, rng.random(5)) for _ in range(7)
        ]
        out = EnsembleModel(members).predict_proba(features)
        assert np.all((0.0 <= out) & (out <= 1.0))


def member_loop_proba(members, x):
    """The per-member loop EnsembleModel.predict_proba replaced: a sum in member order over K."""
    acc = np.zeros(len(x))
    for member in members:
        acc += member.predict_proba(x)
    return acc / len(members)


@pytest.fixture(scope="module")
def tree_pool():
    """31 trees on 3 features, 0 to 16 levels deep: pure depth-0 trees at positions 1 and 29."""
    rng = np.random.default_rng(22)
    x = rng.standard_normal((900, 3))
    labels = (x[:, 0] + x[:, 1] * x[:, 2] + 0.8 * rng.standard_normal(900) > 0.9).astype(np.int64)
    trees = []
    for t in range(31):
        size = int(rng.integers(8, 900))
        rows = rng.choice(900, size=size, replace=False)
        if t in (1, 29):
            rows = rows[labels[rows] == 0]
        trees.append(DecisionTree().fit(make_dataset(x[rows], labels[rows])))
    assert trees[1].depth == trees[29].depth == 0
    assert max(tree.depth for tree in trees) >= 12
    return trees


def query_rows(n, seed=0):
    """n rows of 3 features, some of them NaN, +inf or -inf."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) * 1.5
    special = rng.random((n, 3))
    x[special < 0.03] = np.nan
    x[(0.03 <= special) & (special < 0.05)] = np.inf
    x[(0.05 <= special) & (special < 0.07)] = -np.inf
    return x


class TestGroupedTreePredict:
    """A tree ensemble scores its members in groups of 8192 // rows trees, with the same bytes."""

    @pytest.mark.parametrize("n_rows", [1, 440, 2200, 2731, 4096, 4097, 8192, 8193, 20000])
    def test_equals_the_member_loop(self, tree_pool, n_rows):
        x = query_rows(n_rows, seed=n_rows)
        if n_rows > 1:
            assert np.isnan(x).any() and np.isposinf(x).any() and np.isneginf(x).any()
        for k in (1, 2, 3, 5, 30, 31):
            members = tree_pool[:k]
            got = EnsembleModel(members).predict_proba(x)
            assert got.tobytes() == member_loop_proba(members, x).tobytes(), (n_rows, k)

    @pytest.mark.parametrize("n_rows", [0, 1, 440, 2200, 2731, 4096, 4097, 20000])
    def test_groups_fill_one_block(self, tree_pool, monkeypatch, n_rows):
        walked = []  # pairs per walk

        def recording(tables, depth, s, flat, offsets):
            walked.append(len(s))
            return walk(tables, depth, s, flat, offsets)

        walk = learners._walk
        monkeypatch.setattr(learners, "_walk", recording)
        EnsembleModel(tree_pool[:30]).predict_proba(query_rows(n_rows))
        group = 8192 // max(n_rows, 1)
        if group >= 2:  # one walk per group of trees
            want = [min(group, 30 - start) * n_rows for start in range(0, 30, group)]
        else:  # each tree alone, in blocks of 8,192 rows
            want = [min(8192, n_rows - start) for start in range(0, n_rows, 8192)] * 30
        assert walked == want

    def test_tree_probabilities_rows_are_each_trees_predict(self, tree_pool):
        members = [*tree_pool[:5], tree_pool[29]]  # deep trees grouped with two depth-0 ones
        for n_rows in (3, 440, 2731, 9000):
            x = query_rows(n_rows, seed=1)
            rows = list(learners.tree_probabilities(members, x))
            assert len(rows) == len(members)
            for tree, row in zip(members, rows):
                assert row.tobytes() == tree.predict_proba(x).tobytes()
            assert np.all(rows[1] == tree_pool[1].value[0])

    def test_tree_probabilities_of_no_trees_is_empty(self):
        assert list(learners.tree_probabilities([], query_rows(5))) == []

    def test_empty_matrix_gives_empty_scores(self, tree_pool):
        out = EnsembleModel(tree_pool[:30]).predict_proba(np.empty((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_wrong_width_or_unfitted_member_refused(self, tree_pool):
        with pytest.raises(ValueError, match="matrix"):
            EnsembleModel(tree_pool[:3]).predict_proba(np.zeros((5, 2)))
        with pytest.raises(RuntimeError, match="not fitted"):
            EnsembleModel([tree_pool[0], DecisionTree()]).predict_proba(np.zeros((5, 3)))

    def test_one_members_scores_alive_at_a_time(self, tree_pool):
        x = query_rows(200_000)
        model = EnsembleModel(tree_pool[:3])
        tracemalloc.start()
        try:
            model.predict_proba(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sum, one member's scores and the walk's block temporaries; two
        # members' scores at once would be 3 * 8 bytes a row
        assert peak < 2.75 * 8 * len(x)

    def test_overriding_subclass_scores_through_its_own_predict(self, tree_pool):
        class CountingTree(DecisionTree):
            rows_scored = 0

            def predict_proba(self, features):
                self.rows_scored += len(features)
                return super().predict_proba(features)

        members = []
        for tree in tree_pool[:6]:
            counting = CountingTree()
            counting.__dict__.update(vars(tree))
            members.append(counting)
        x = query_rows(440, seed=2)
        got = EnsembleModel(members).predict_proba(x)
        assert [member.rows_scored for member in members] == [440] * 6
        assert got.tobytes() == member_loop_proba(tree_pool[:6], x).tobytes()

    def test_naive_bayes_and_mixed_members_give_the_loop_bytes(self, tree_pool):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((300, 3))
        labels = (x[:, 0] > 0.5).astype(np.int64)
        nbs = [
            GaussianNaiveBayes().fit(make_dataset(x[rows], labels[rows]))
            for rows in (rng.choice(300, size=150, replace=False) for _ in range(5))
        ]
        query = query_rows(2200, seed=4)
        query[~np.isfinite(query)] = 0.0
        for members in (nbs, [tree_pool[0], nbs[0], *tree_pool[2:6], nbs[1]]):
            got = EnsembleModel(members).predict_proba(query)
            assert got.tobytes() == member_loop_proba(members, query).tobytes()


class TestActions:
    def test_actions_see_each_step_state(self):
        train, valid, _ = toy_parts(overlap=0.5)
        seen = []

        def actions(state):
            seen.append(state)
            return 0.3

        _, steps = train_ensemble(train, valid, actions, sigma=0.2, bins=5, n_members=5, seed=0)
        assert len(seen) == len(steps) == 4
        assert all(np.array_equal(state, s.state) for state, s in zip(seen, steps))
        assert all(s.action == 0.3 for s in steps)


class TestTrainEnsemble:
    def test_single_member_no_trace(self):
        train, valid, _ = toy_parts()
        model, steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=1, seed=0
        )
        assert len(model) == 1
        assert steps == []

    def test_separable_reaches_perfect_validation(self):
        train, valid, _ = toy_parts(overlap=0.0)
        model, steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=5, seed=0
        )
        score = aucprc(model.predict_proba(valid.features), valid.labels)
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_trace_length_and_terminal_flag(self):
        train, valid, _ = toy_parts(overlap=0.5)
        model, steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=6, seed=1
        )
        assert len(model) == 6
        assert len(steps) == 5
        assert [s.terminal for s in steps] == [False] * 4 + [True]
        assert all(s.action == 0.5 for s in steps)
        assert all(len(s.state) == 10 and len(s.next_state) == 10 for s in steps)

    def test_rewards_telescope_exactly(self):
        train, valid, _ = toy_parts(overlap=0.6, seed=2)
        _, steps = train_ensemble(
            train, valid, lambda state: 0.4, sigma=0.2, bins=5, n_members=8, seed=3
        )
        total = sum(s.reward for s in steps)
        assert total == steps[-1].auc_after - steps[0].auc_before

    def test_states_chain(self):
        train, valid, _ = toy_parts(overlap=0.5)
        _, steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=4, seed=5
        )
        for prev, nxt in zip(steps, steps[1:]):
            assert np.array_equal(prev.next_state, nxt.state)
            assert prev.auc_after == nxt.auc_before

    def test_seed_reproducibility(self):
        train, valid, _ = toy_parts(overlap=0.5)
        m1, s1 = train_ensemble(
            train, valid, uniform_actions(3), sigma=0.2, bins=5, n_members=5, seed=11
        )
        m2, s2 = train_ensemble(
            train, valid, uniform_actions(3), sigma=0.2, bins=5, n_members=5, seed=11
        )
        x = valid.features
        assert np.array_equal(m1.predict_proba(x), m2.predict_proba(x))
        assert [a.action for a in s1] == [a.action for a in s2]

    def test_fresh_seed_sequences_match_int_seed(self):
        train, valid, _ = toy_parts(overlap=0.5)
        m1, _ = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=4, seed=21
        )
        m2, _ = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=4, seed=SeedSequence(21)
        )
        x = valid.features
        assert np.array_equal(m1.predict_proba(x), m2.predict_proba(x))

    def test_on_step_sees_every_step(self):
        train, valid, _ = toy_parts(overlap=0.5)
        seen = []
        _, steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=5, seed=2,
            on_step=seen.append
        )
        assert seen == steps

    def test_action_out_of_range_rejected(self):
        train, valid, _ = toy_parts(overlap=0.5)
        for mu in (-0.1, 1.7, float("nan")):
            with pytest.raises(ValueError, match="^action must be in"):
                train_ensemble(
                    train, valid, lambda state: mu, sigma=0.2, bins=5, n_members=3, seed=0
                )

    def test_feature_width_mismatch_rejected(self):
        train, valid, _ = toy_parts(overlap=0.5)
        bad_valid = make_dataset(np.zeros((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            train_ensemble(
                train, bad_valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=3, seed=0
            )

    def test_n_members_validated(self):
        train, valid, _ = toy_parts()
        with pytest.raises(ValueError):
            train_ensemble(train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=0, seed=0)

    @pytest.mark.parametrize(
        "knobs, error",
        [
            ({"sigma": 1e-320}, NumericalError),
            ({"sigma": float("nan")}, ValueError),
            ({"sigma": 0.0}, ValueError),
            ({"sigma": -0.2}, ValueError),
            ({"sigma": True}, ValueError),
            ({"sigma": np.True_}, ValueError),
            ({"bins": 0}, ValueError),
            ({"bins": -3}, ValueError),
            ({"bins": float("nan")}, ValueError),
        ],
    )
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_sigma_and_bins_refused_before_any_fit(self, no_tree_fit, knobs, error, n_members):
        train, valid, _ = toy_parts(overlap=0.5)
        with pytest.raises(error):
            train_ensemble(
                train, valid, lambda state: 0.5, n_members=n_members, seed=0,
                **{"sigma": 0.2, "bins": 5, **knobs},
            )

    @pytest.mark.parametrize("n_members", [True, 2.5, "3.5", "3", 3.0])
    def test_non_integer_n_members_rejected(self, no_tree_fit, n_members):
        train, valid, _ = toy_parts()
        with pytest.raises(ValueError, match="^n_members must be an integer"):
            train_ensemble(
                train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=n_members, seed=0
            )
        with pytest.raises(ValueError, match="^n_members must be an integer"):
            train_random_ensemble(train, valid, n_members=n_members, seed=0)

    @pytest.mark.parametrize("bins", [2.5, True, np.float64(3.0)])
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_non_integer_bins_rejected(self, no_tree_fit, bins, n_members):
        train, valid, _ = toy_parts()
        with pytest.raises(ValueError, match="^bins must be an integer"):
            train_ensemble(
                train, valid, lambda state: 0.5, sigma=0.2, bins=bins, n_members=n_members, seed=0
            )

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_n_members_and_bins_accepted(self, integer):
        train, valid, _ = toy_parts()
        model, steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=integer(5), n_members=integer(3),
            seed=0
        )
        _, ref_steps = train_ensemble(
            train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=3, seed=0
        )
        assert len(model) == 3
        assert_same_steps(steps, ref_steps)
        assert len(train_random_ensemble(train, valid, n_members=integer(3), seed=0)) == 3


class TestMemberScoreShape:
    @WRONG_SHAPES
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_cascade_refuses_before_any_draw(self, shape_of, n_members, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a subset was drawn after a wrong-shaped member")

        monkeypatch.setattr("metasampler.ensemble.meta_sample", no_draw)
        train, valid, _ = toy_parts(overlap=0.5)
        rows = len(train) + len(valid)
        with pytest.raises(ValueError, match=rf"^model returned shape .*, expected \({rows},\)$"):
            train_ensemble(
                train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=n_members,
                learner_factory=shaped_learner(shape_of), seed=0,
            )

    @WRONG_SHAPES
    def test_ensemble_predict_refuses(self, shape_of):
        _, _, test = toy_parts(overlap=0.5)
        right = shaped_learner(lambda n: (n,))()
        assert EnsembleModel([right]).predict_proba(test.features).tolist() == [0.5] * len(test)
        model = EnsembleModel([right, shaped_learner(shape_of)()])
        with pytest.raises(ValueError,
                           match=rf"^model returned shape .*, expected \({len(test)},\)$"):
            model.predict_proba(test.features)


def bench_spans():
    """The benchmark's bench/spans.py, loaded from its file without registering a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkSpansTimeTheCascadeSteps:
    # the benchmark's draw, state and error layers wrap, by name, the functions
    # the cascade calls: a layer bound to a function the cascade no longer calls reads 0
    def test_k3_cascade(self):
        train, valid, _ = toy_parts(overlap=0.5)
        with bench_spans().traced() as tracer:
            train_ensemble(train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=3, seed=0)
        calls = [tracer.calls[name]
                 for name in ("sampling.meta_sample", "sampling.meta_state", "metrics.errors")]
        assert calls == [2, 3, 3]
        assert tracer.counts["sampling.draw_work"] > 0


def rescoring_cascade(train, valid, actions, n_members, learner_factory, seed, sigma=0.2, bins=5):
    """Reference cascade: rebuild the ensemble and rescore every member at each step."""
    draw_seeds = SeedSequence(seed).spawn(n_members)
    members = [learner_factory().fit(random_balanced_subset(train, draw_seeds[0]))]
    steps = []
    if n_members == 1:
        return EnsembleModel(members), steps
    model = EnsembleModel(members[:1])
    auc = aucprc(model.predict_proba(valid.features), valid.labels)
    state = model_meta_state(model, train, valid, bins)
    for t in range(1, n_members):
        mu = float(actions(state))
        subset = model_meta_sample(train, model, mu, sigma, draw_seeds[t])
        members.append(learner_factory().fit(subset))
        model = EnsembleModel(members[: t + 1])
        auc_after = aucprc(model.predict_proba(valid.features), valid.labels)
        next_state = model_meta_state(model, train, valid, bins)
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
            lambda: (lambda state: 0.35, 0.2),
            lambda: (uniform_actions(13), 0.2),
            lambda: (lambda state: FLOOR_MU, FLOOR_SIGMA),
        ],
        ids=["constant", "random", "all_floor"],
    )
    # 36 minority training rows against 180 majority rows (a draw tree padded
    # to 256 leaves), 36 (returned whole), 37 (all but one drawn; 64 leaves)
    # and 600 (1,024 leaves)
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
            train, valid, source, sigma=sigma, bins=5, n_members=n_members,
            learner_factory=Recording, seed=9
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
            train, valid, source, sigma=sigma, bins=5, n_members=n_members,
            learner_factory=learner, seed=9
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
                self.calls = 0

            def predict_proba(self, features):
                self.rows_scored += len(features)
                self.calls += 1
                return super().predict_proba(features)

        made = []

        def factory():
            made.append(CountingTree())
            return made[-1]

        train_ensemble(
            train, valid, uniform_actions(1), sigma=0.2, bins=5, n_members=8,
            learner_factory=factory, seed=4
        )
        assert [tree.rows_scored for tree in made] == [len(train) + len(valid)] * 8
        assert [tree.calls for tree in made] == [1] * 8

    def test_matches_rescoring_cascade_past_one_predict_block(self):
        # the stacked train and valid rows walk in two blocks, split inside the valid rows
        train, valid, test = toy_parts(overlap=0.6, seed=11, n_majority=11000, n_minority=500)
        assert len(train) < learners._PREDICT_BLOCK < len(train) + len(valid)
        model, steps = train_ensemble(
            train, valid, lambda state: 0.35, sigma=0.2, bins=5, n_members=3, seed=9
        )
        ref_model, ref_steps = rescoring_cascade(
            train, valid, lambda state: 0.35, 3, DecisionTree, seed=9
        )
        assert_same_steps(steps, ref_steps)
        scores = model.predict_proba(test.features)
        assert scores.tobytes() == ref_model.predict_proba(test.features).tobytes()


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
            train, valid, uniform_actions(5), sigma=0.2, bins=5, n_members=4,
            learner_factory=Recording, seed=11
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
            train, valid, uniform_actions(5), sigma=0.2, bins=5, n_members=4, seed=11
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
