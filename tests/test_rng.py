"""One bound rule per kind of number a Python caller passes.

A count goes through rng.check_integer's `least`, a real number through
rng.check_float's interval; a dataset that an operation needs both classes
of goes through LabeledDataset.class_indices.
"""
import re

import numpy as np
import pytest

from metasampler import (
    GaussianNaiveBayes,
    SacConfig,
    SingleClassError,
    SplitSpec,
    ToySpec,
    inject_flip_noise,
    make_toy,
    meta_train,
    random_sampler,
    score_arms,
    stratified_split,
    train_ensemble,
    train_random_ensemble,
)
from metasampler.neural import AdamState, Mlp, init_mlp, soft_update
from metasampler.rng import as_generator, as_seed_sequence, check_float, check_integer
from metasampler.sac import MetaSampler, ReplayMemory, experiment_point
from metasampler.sampling import (
    gaussian_scale,
    gaussian_weight,
    random_balanced_subset,
    sample_from_errors,
    state_from_errors,
)

from conftest import make_dataset


class TestCheckInteger:
    @pytest.mark.parametrize("value", [2, 7, np.int64(2), np.int32(9)])
    def test_values_from_the_least_up_pass_as_ints(self, value):
        result = check_integer("n", value, least=2)
        assert result == value and type(result) is int

    @pytest.mark.parametrize("value", [1, -4, np.int64(1), np.int8(-128)])
    def test_values_below_the_least_name_the_field(self, value):
        with pytest.raises(ValueError, match=f"^n must be at least 2, got {int(value)}$"):
            check_integer("n", value, least=2)

    def test_no_least_means_no_bound(self):
        assert check_integer("n", -10**30) == -10**30

    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_the_type_is_checked_before_the_bound(self, value):
        with pytest.raises(ValueError, match="^n must be an integer"):
            check_integer("n", value, least=5)


class TestCheckFloatWithin:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1, np.float32(0.25), np.int64(1)])
    def test_values_in_the_interval_pass_as_floats(self, value):
        result = check_float("x", value, "[0, 1]")
        assert result == value and type(result) is float

    @pytest.mark.parametrize("within, value", [
        ("[0, 1]", -1e-300), ("[0, 1]", 1.5), ("(0, 1]", 0.0), ("[0, 1)", 1.0),
        ("(0, inf)", float("inf")), ("[0, inf)", float("-inf")), ("[0, inf)", float("nan")),
    ])
    def test_values_outside_the_interval_name_the_field(self, within, value):
        with pytest.raises(ValueError, match=f"^x must be in {re.escape(within)}, got {value}$"):
            check_float("x", value, within)

    def test_no_interval_means_no_bound(self):
        assert check_float("x", float("-inf")) == float("-inf")

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None, np.array(0.5), 1j])
    def test_the_type_is_checked_before_the_interval(self, value):
        with pytest.raises(ValueError, match="^x must be a real number"):
            check_float("x", value, "[0, 1]")


def toy_parts():
    return stratified_split(make_toy(ToySpec(n_majority=60, n_minority=12, seed=4)), SplitSpec(), 0)


TINY = dict(ensemble_size=2, random_steps=2, gradient_steps=0, episodes=1)

# id -> (field, least, call): call(value) passes `value` as that count and fine values elsewhere
BOUNDED = {
    **{f"SacConfig.{field}": (field, least, lambda v, field=field: SacConfig(**{field: v}))
       for field, least in [("lr_decay_steps", 1), ("batch_size", 1), ("gradient_steps", 0),
                            ("random_steps", 0), ("episodes", 1), ("ensemble_size", 2),
                            ("bins", 1)]},
    "ReplayMemory.capacity": ("capacity", 1, ReplayMemory),
    "train_ensemble.n_members": ("n_members", 1, lambda v: train_ensemble(
        *toy_parts()[:2], lambda state: 0.5, sigma=0.2, bins=5, n_members=v, seed=0)),
    "train_ensemble.bins": ("bins", 1, lambda v: train_ensemble(
        *toy_parts()[:2], lambda state: 0.5, sigma=0.2, bins=v, n_members=3, seed=0)),
    "train_random_ensemble.n_members": ("n_members", 1, lambda v: train_random_ensemble(
        *toy_parts()[:2], n_members=v, seed=0)),
    "state_from_errors.bins": ("bins", 1, lambda v: state_from_errors([0.25, 0.75], 1, v)),
    "state_from_errors.n_train": ("n_train", 1, lambda v: state_from_errors([0.25, 0.75], v, 5)),
    "Mlp.layer_size": ("layer size", 1, lambda v: Mlp([3, v, 2])),
    "init_mlp.layer_size": ("layer size", 1, lambda v: init_mlp([3, 4, v], seed=0)),
    "AdamState.decay_every": ("decay_every", 1, lambda v: AdamState.for_params(
        np.zeros(3), 1e-3, v)),
    "ToySpec.n_minority": ("n_minority", 2, lambda v: ToySpec(n_majority=60, n_minority=v)),
    "ToySpec.seed": ("seed", 0, lambda v: ToySpec(seed=v)),
    "MetaSampler.bins": ("bins", 1, lambda v: MetaSampler(init_mlp([10, 50, 2], 0), v, 0.2)),
    "random_sampler.bins": ("bins", 1, lambda v: random_sampler(v, 0.2, 0)),
    "score_arms.n_members": ("n_members", 1, lambda v: score_arms(
        make_toy(ToySpec(60, 12)), SplitSpec(), [0], [("r", "random-sampling", None)],
        n_members=v)),
    "score_arms.bins": ("bins", 1, lambda v: score_arms(
        make_toy(ToySpec(60, 12)), SplitSpec(), [0], [("r", "random-sampling", None)],
        n_members=3, bins=v)),
    "as_generator.seed": ("seed", 0, as_generator),
    "as_seed_sequence.seed": ("seed", 0, as_seed_sequence),
    "meta_train.seed": ("seed", 0, lambda v: meta_train(
        [toy_parts()[:2]], SacConfig(**TINY), seed=v)),
}


@pytest.fixture
def no_split(monkeypatch):
    """Fail the test if score_arms, meta_train or experiment_point splits a task while it runs."""
    def split(*args, **kwargs):
        raise AssertionError("a split ran before the numbers were checked")

    monkeypatch.setattr("metasampler.sac.stratified_split", split)


class TestLeastValues:
    """A count below its least raises ValueError "<name> must be at least <least>, got <value>"."""

    @pytest.mark.parametrize("offset", [1, 3])
    @pytest.mark.parametrize("case", list(BOUNDED))
    def test_below_the_least_is_refused_before_any_work(self, no_tree_fit, no_split, case, offset):
        field, least, call = BOUNDED[case]
        value = least - offset
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {value}$"):
            call(value)

    @pytest.mark.parametrize("case", list(BOUNDED))
    def test_a_numpy_integer_below_the_least_reads_the_same(self, no_tree_fit, no_split, case):
        field, least, call = BOUNDED[case]
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {least - 1}$"):
            call(np.int64(least - 1))


def cascade(action):
    """A 3-member cascade of Gaussian NB members whose every action is `action`.

    The first member is fit on a uniform subset before any action is read; the
    test fails if a second member is fit.
    """
    fits = []

    def learner():
        assert not fits, "a member was fit after the first action"
        fits.append(1)
        return GaussianNaiveBayes()

    return train_ensemble(*toy_parts()[:2], lambda state: action, sigma=0.2, bins=5,
                          n_members=3, learner_factory=learner, seed=0)


def small_toy():
    return make_toy(ToySpec(60, 12))


# id -> (name, interval, call): call(value) passes `value` as that real number
# and fine values elsewhere
WITHIN = {
    **{f"SacConfig.{field}": (field, within, lambda v, field=field: SacConfig(**{field: v}))
       for field, within in [("gamma", "[0, 1]"), ("tau", "(0, 1]"), ("alpha", "[0, inf)"),
                             ("lr", "(0, inf)"), ("lr_decay_ratio", "(0, 1]"),
                             ("sigma", "(0, inf)")]},
    "gaussian_scale.sigma": ("sigma", "(0, inf)", gaussian_scale),
    "gaussian_weight.mu": ("mu", "[0, 1]", lambda v: gaussian_weight([0.5], v, 0.2)),
    "sample_from_errors.mu": ("mu", "[0, 1]", lambda v: sample_from_errors(
        toy_parts()[0], np.full(toy_parts()[0].majority_count, 0.5), v, 0.2, 0)),
    "score_arms.mu": ("mu", "[0, 1]", lambda v: score_arms(
        small_toy(), SplitSpec(), [0], [("c", "constant", None)], n_members=3, mu=v)),
    "score_arms.sigma": ("sigma", "(0, inf)", lambda v: score_arms(
        small_toy(), SplitSpec(), [0], [("c", "constant", None)], n_members=3, mu=0.5,
        sigma=v)),
    "score_arms.noise_ratio": ("noise ratio", "[0, 1)", lambda v: score_arms(
        small_toy(), SplitSpec(), [0], [("r", "random-sampling", None)], n_members=3,
        noise_ratio=v)),
    "experiment_point.noise_ratio": ("noise ratio", "[0, 1)", lambda v: experiment_point(
        small_toy(), SplitSpec(), 0, [0], ["random-sampling"], SacConfig(**TINY),
        noise_ratio=v)),
    "train_ensemble.sigma": ("sigma", "(0, inf)", lambda v: train_ensemble(
        *toy_parts()[:2], lambda state: 0.5, sigma=v, bins=5, n_members=3, seed=0)),
    "MetaSampler.sigma": ("sigma", "(0, inf)", lambda v: MetaSampler(
        init_mlp([10, 50, 2], 0), 5, v)),
    "AdamState.lr": ("lr", "(0, inf)", lambda v: AdamState.for_params(np.zeros(3), v)),
    "AdamState.decay_ratio": ("decay_ratio", "(0, 1]", lambda v: AdamState.for_params(
        np.zeros(3), 1e-3, 1, v)),
    "soft_update.tau": ("tau", "[0, 1]", lambda v: soft_update(
        init_mlp([2, 3, 1], 0), init_mlp([2, 3, 1], 1), v)),
    **{f"SplitSpec.{part}": (f"{part} fraction", "(0, 1)",
                             lambda v, part=part: SplitSpec(**{part: v}))
       for part in ("train", "valid", "test")},
    "ToySpec.overlap": ("overlap", "[0, 1]", lambda v: ToySpec(overlap=v)),
    "inject_flip_noise.ratio": ("noise ratio", "[0, 1)", lambda v: inject_flip_noise(
        small_toy(), v, 0)),
    "train_ensemble.action": ("action", "[0, 1]", cascade),
}


def just_outside(within):
    """The values next to each end of `within` that lie outside it, and NaN."""
    low, high = (float(end) for end in within[1:-1].split(","))
    return [
        low if within[0] == "(" else float(np.nextafter(low, -np.inf)),
        high if within[-1] == ")" else float(np.nextafter(high, np.inf)),
        float("nan"),
    ]


class TestIntervals:
    """A real number outside its interval raises ValueError.

    The message is "<name> must be in <interval>, got <value>".
    """

    @pytest.mark.parametrize("end", [0, 1, 2], ids=["low", "high", "nan"])
    @pytest.mark.parametrize("case", list(WITHIN))
    def test_outside_the_interval_is_refused_before_any_work(self, no_tree_fit, no_split, case,
                                                             end):
        name, within, call = WITHIN[case]
        value = just_outside(within)[end]
        with pytest.raises(
            ValueError, match=f"^{re.escape(name)} must be in {re.escape(within)}, got {value}$"
        ):
            call(value)

    # score_arms reads mu=None as no mu, which a constant arm refuses (tests/test_sac.py)
    @pytest.mark.parametrize("case, value", [
        (case, value) for case in WITHIN for value in (True, "0.5", None)
        if (case, value) != ("score_arms.mu", None)
    ])
    def test_a_value_that_is_no_real_number_is_refused(self, no_tree_fit, no_split, case, value):
        name, _, call = WITHIN[case]
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number"):
            call(value)


@pytest.mark.parametrize("mode, refusal", [
    ("greedy", r"^arm 'greedy': unknown mode 'greedy'; choose from \("),
    ("constant", r"^arm 'constant': mu must be in \[0, 1\], got None$"),  # the point takes no mu
    ("random-sampling", r"^arm labels must be distinct$"),
])
def test_experiment_point_refuses_a_mode_before_any_work(no_tree_fit, no_split, mode, refusal):
    with pytest.raises(ValueError, match=refusal):
        experiment_point(small_toy(), SplitSpec(), 0, [0], ["random-sampling", mode],
                         SacConfig(**TINY))


# id -> (needed_by, call): call(ds) hands the one-class dataset `ds` to the operation
ONE_CLASS = {
    "train_ensemble.train": ("the train split", lambda ds: train_ensemble(
        ds, toy_parts()[1], lambda state: 0.5, sigma=0.2, bins=5, n_members=3, seed=0)),
    "train_ensemble.valid": ("the valid split", lambda ds: train_ensemble(
        toy_parts()[0], ds, lambda state: 0.5, sigma=0.2, bins=5, n_members=3, seed=0)),
    "train_random_ensemble.train": ("the train split", lambda ds: train_random_ensemble(
        ds, toy_parts()[1], n_members=3, seed=0)),
    "sample_from_errors": ("meta-sampling", lambda ds: sample_from_errors(
        ds, np.zeros(len(ds)), 0.5, 0.2, 0)),
    "random_balanced_subset": ("a balanced subset", lambda ds: random_balanced_subset(ds, 0)),
    "stratified_split": ("a stratified split", lambda ds: stratified_split(ds, SplitSpec(), 0)),
    "inject_flip_noise": ("flip noise", lambda ds: inject_flip_noise(ds, 0.1, 0)),
    "GaussianNaiveBayes.fit": ("Gaussian NB", lambda ds: GaussianNaiveBayes().fit(ds)),
}


class TestBothClasses:
    """An operation that needs both classes raises SingleClassError "<name> needs both classes"."""

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("case", list(ONE_CLASS))
    def test_one_class_is_refused_before_any_fit(self, no_tree_fit, case, label):
        needed_by, call = ONE_CLASS[case]
        ds = make_dataset(np.arange(12.0).reshape(6, 2), [label] * 6)
        with pytest.raises(SingleClassError, match=f"^{needed_by} needs both classes$"):
            call(ds)

    def test_class_indices_are_the_rows_of_each_class(self):
        ds = make_dataset(np.zeros((5, 1)), [0, 1, 0, 0, 1])
        minority, majority = ds.class_indices("a test")
        assert minority.tolist() == [1, 4] and majority.tolist() == [0, 2, 3]
