"""One bound rule for every count a Python caller passes: rng.check_integer's `least`."""
import numpy as np
import pytest

from metasampler import (
    SacConfig,
    SplitSpec,
    ToySpec,
    make_toy,
    meta_train,
    random_sampler,
    score_arms,
    stratified_split,
    train_ensemble,
    train_random_ensemble,
)
from metasampler.neural import AdamState, Mlp, init_mlp
from metasampler.rng import as_generator, as_seed_sequence, check_integer
from metasampler.sac import MetaSampler, ReplayMemory
from metasampler.sampling import error_histogram, state_from_errors


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
    "error_histogram.bins": ("bins", 1, lambda v: error_histogram([0.25, 0.75], v)),
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


class TestLeastValues:
    """A count below its least raises ValueError "<name> must be at least <least>, got <value>"."""

    @pytest.fixture
    def no_split(self, monkeypatch):
        def split(*args, **kwargs):
            raise AssertionError("a split ran before the counts were checked")

        monkeypatch.setattr("metasampler.sac.stratified_split", split)

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
