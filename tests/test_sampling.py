import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from metasampler import NumericalError, SingleClassError
from metasampler.sampling import (
    WEIGHT_FLOOR,
    _sequential_weighted_draw,
    gaussian_scale,
    gaussian_weight,
    meta_sample,
    meta_state,
    random_balanced_subset,
    sample_from_errors,
    state_from_errors,
)
from metasampler.rng import check_integer
from conftest import FixedModel, brute_histogram, make_dataset


def half_histogram(errors, bins):
    """The training half of a state whose training errors are `errors`: one half binned alone."""
    return state_from_errors(np.append(errors, 0.0), len(errors), bins)[:bins]


class TestHalfHistogram:
    def test_all_zero_errors(self):
        assert half_histogram(np.zeros(8), 5).tolist() == [1.0, 0, 0, 0, 0]

    def test_pinned_example_with_closed_last_bin(self):
        errors = np.array([0.05, 0.55, 0.95, 1.0])
        assert half_histogram(errors, 5).tolist() == [0.25, 0.0, 0.25, 0.0, 0.5]

    def test_two_bins_report_accuracy(self):
        # threshold-0.5 classification: errors below 0.5 are the correct calls
        errors = np.array([0.1, 0.4, 0.3, 0.6])
        assert half_histogram(errors, 2).tolist() == [0.75, 0.25]

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            errors = rng.random(n)
            # salt in exact edge values
            if n > 3:
                errors[0] = 1.0
                errors[1] = 0.0
                errors[2] = 0.2
            for bins in (2, 5, 10):
                got = half_histogram(errors, bins)
                assert got.tolist() == brute_histogram(errors, bins)

    def test_validation(self):
        with pytest.raises(ValueError, match="^errors must be a non-empty 1-D array$"):
            state_from_errors(np.array([]), 1, 5)
        with pytest.raises(ValueError, match=r"^errors must lie in \[0, 1\]$"):
            half_histogram(np.array([0.5, 1.2]), 5)
        with pytest.raises(ValueError, match="^bins must be at least 1, got 0$"):
            half_histogram(np.array([0.5]), 0)

    @pytest.mark.parametrize("bins", [2.5, True, np.float64(3.0), "3"])
    def test_non_integer_bins_rejected(self, bins):
        with pytest.raises(ValueError, match="^bins must be an integer"):
            half_histogram(np.array([0.1, 0.6]), bins)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_bins_accepted(self, integer):
        errors = np.array([0.0, 0.3, 0.6, 1.0])
        assert half_histogram(errors, integer(5)).tolist() == half_histogram(errors, 5).tolist()


class TestStateFromErrors:
    """One pass over train errors then valid errors: each half is its brute-force histogram."""

    @pytest.mark.parametrize("bins", [1, 2, 5, 10])
    def test_halves_match_brute_force_histograms(self, rng, bins):
        edges = np.arange(bins + 1) / bins  # 0, the inner edges as the histogram has them, 1.0
        for _ in range(100):
            n_train, n_valid = (int(n) for n in rng.integers(1, 30, size=2))
            errors = rng.random(n_train + n_valid)
            salted = rng.random(len(errors)) < 0.3
            errors[salted] = rng.choice(edges, size=int(salted.sum()))
            errors[[0, -1]] = 1.0  # the closed last bin, in both halves
            state = state_from_errors(errors, n_train, bins)
            assert state.tolist() == brute_histogram(errors[:n_train], bins) + brute_histogram(
                errors[n_train:], bins
            )

    @pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan, np.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_out_of_range_in_either_half_is_one_error(self, bad, at):
        errors = np.full(5, 0.5)
        errors[at] = bad
        half = errors[:2] if at < 2 else errors[2:]
        for call in (lambda: state_from_errors(errors, 2, 5), lambda: half_histogram(half, 5)):
            with pytest.raises(ValueError, match=r"^errors must lie in \[0, 1\]$"):
                call()

    def test_each_half_needs_an_error(self):
        with pytest.raises(ValueError, match="^n_train must be at least 1, got 0$"):
            state_from_errors(np.full(3, 0.5), 0, 5)
        with pytest.raises(ValueError, match="^need errors past the 3 training errors, got 3$"):
            state_from_errors(np.full(3, 0.5), 3, 5)
        with pytest.raises(ValueError, match="^errors must be a non-empty 1-D array$"):
            state_from_errors(np.full((2, 2), 0.5), 1, 5)


def searchsorted_state(errors, n_train: int, bins: int) -> np.ndarray:
    """``state_from_errors`` as it was with ``searchsorted`` and two ``bincount``s, verbatim:
    the bytes oracle."""
    bins = check_integer("bins", bins, least=1)
    n_train = check_integer("n_train", n_train, least=1)
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.size == 0:
        raise ValueError("errors must be a non-empty 1-D array")
    if not np.isfinite(errors).all() or errors.min() < 0.0 or errors.max() > 1.0:
        raise ValueError("errors must lie in [0, 1]")
    idx = np.searchsorted(np.arange(1, bins) / bins, errors, side="right")
    n_valid = errors.size - n_train
    if n_valid < 1:
        raise ValueError(f"need errors past the {n_train} training errors, got {errors.size}")
    return np.concatenate((
        np.bincount(idx[:n_train], minlength=bins) / n_train,
        np.bincount(idx[n_train:], minlength=bins) / n_valid,
    ))


class TestStateMatchesSearchsortedForm:
    """Counts at or above each edge give the searchsorted form's floats, bit for bit."""

    @pytest.mark.parametrize("bins", [1, 2, 5, 7, 50])
    def test_errors_on_and_beside_the_edges(self, bins):
        rng = np.random.default_rng(bins)
        edges = np.array([j / bins for j in range(bins + 1)])  # 0.0, the inner edges, 1.0
        beside = np.concatenate((edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)))
        beside = np.append(beside[(beside >= 0.0) & (beside <= 1.0)], -0.0)
        for _ in range(60):
            n_train, n_valid = (int(n) for n in rng.integers(1, 300, size=2))
            errors = rng.random(n_train + n_valid)
            salted = rng.random(len(errors)) < 0.5
            errors[salted] = rng.choice(beside, size=int(salted.sum()))
            want = searchsorted_state(errors, n_train, bins)
            assert state_from_errors(errors, n_train, bins).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bins", [1, 2, 5, 7, 50])
    def test_every_error_on_one_edge(self, bins):
        for j in range(bins + 1):
            errors = np.full(7, j / bins)
            want = searchsorted_state(errors, 3, bins)
            assert state_from_errors(errors, 3, bins).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bins", [2, 5, 10])
    def test_large_cascade_state(self, bins):
        # 63,000 training errors over 21,000 validation errors, as the large benchmark
        # task's cascade bins them: mostly multiples of 0.2, a K=5 ensemble's averages
        rng = np.random.default_rng(84_000 + bins)
        errors = rng.integers(0, 6, 84_000) / 5.0
        errors[::7] = rng.random(12_000)
        for n_train in (1, 63_000, 83_999):
            want = searchsorted_state(errors, n_train, bins)
            assert state_from_errors(errors, n_train, bins).tobytes() == want.tobytes()


class TestMetaState:
    def test_perfect_model_both_sets(self):
        train = make_dataset([[0.0], [1.0]], [0, 1])
        valid = make_dataset([[2.0], [3.0]], [1, 0])
        model = FixedModel(
            np.array([[0.0], [1.0], [2.0], [3.0]]), [0.0, 1.0, 1.0, 0.0]
        )
        state = meta_state(model, train, valid, bins=5)
        assert state.tolist() == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]

    def test_swapped_arguments_swap_halves(self):
        train = make_dataset([[0.0], [1.0]], [0, 1])
        valid = make_dataset([[2.0], [3.0]], [1, 0])
        model = FixedModel(
            np.array([[0.0], [1.0], [2.0], [3.0]]), [0.1, 0.9, 0.5, 0.5]
        )
        ab = meta_state(model, train, valid, bins=5)
        ba = meta_state(model, valid, train, bins=5)
        assert ab[:5].tolist() == ba[5:].tolist()
        assert ab[5:].tolist() == ba[:5].tolist()

    def test_overfit_shape(self):
        train = make_dataset([[0.0], [1.0]], [0, 1])
        valid = make_dataset([[2.0], [3.0]], [1, 0])
        model = FixedModel(
            np.array([[0.0], [1.0], [2.0], [3.0]]), [0.02, 0.97, 0.05, 0.9]
        )
        state = meta_state(model, train, valid, bins=5)
        assert state[0] == 1.0  # train errors at the head
        assert state[9] == 1.0  # valid errors at the tail


class TestGaussianWeight:
    def test_peak_value(self):
        assert gaussian_weight(0.3, mu=0.3, sigma=0.2) == pytest.approx(1.994711, abs=1e-6)

    def test_matches_scipy(self, rng):
        for _ in range(50):
            x = rng.random()
            mu = rng.random()
            assert gaussian_weight(x, mu, 0.2) == pytest.approx(
                norm.pdf(x, mu, 0.2), abs=1e-12
            )

    def test_symmetry(self):
        for delta in (0.05, 0.17, 0.4):
            assert gaussian_weight(0.5 + delta, 0.5, 0.2) == pytest.approx(
                gaussian_weight(0.5 - delta, 0.5, 0.2), rel=1e-12
            )

    def test_far_tail_below_clamp(self):
        # ten sigmas out: reachable inside [0, 1] with a narrower kernel
        assert gaussian_weight(0.0, mu=0.5, sigma=0.05) < 1e-20

    def test_vectorized(self):
        out = gaussian_weight(np.array([0.3, 0.5]), 0.3, 0.2)
        assert out.shape == (2,)
        assert out[0] > out[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_weight(0.5, mu=1.5, sigma=0.2)
        with pytest.raises(ValueError):
            gaussian_weight(0.5, mu=0.5, sigma=0.0)

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"), -0.2])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError):
            gaussian_weight(0.5, mu=0.5, sigma=sigma)

    @pytest.mark.parametrize("sigma", [True, np.True_, "0.2", None])
    def test_non_number_sigma_refused(self, sigma):
        # a bool used to read as 1.0: gaussian_scale(True) was sqrt(2 pi)
        with pytest.raises(ValueError, match="^sigma must be a real number"):
            gaussian_scale(sigma)
        with pytest.raises(ValueError, match="^sigma must be a real number"):
            gaussian_weight(0.5, mu=0.5, sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e-320, 5e-324, 2.2e-309])
    @pytest.mark.parametrize("x", [0.5, np.array([0.5, 0.2])], ids=["scalar", "vector"])
    def test_peak_overflow_raises_numerical_error(self, sigma, x):
        # 1 / (sigma sqrt(2 pi)) overflows below sigma ~ 2.22e-309, with a warning and no error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^non-finite sampling weights"):
                gaussian_weight(x, mu=0.5, sigma=sigma)

    def test_smallest_sigmas_with_a_finite_peak_still_weigh(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peak = gaussian_weight(0.5, mu=0.5, sigma=2.3e-309)
        assert math.isfinite(peak) and peak > 1.7e308

    def test_tiny_normal_sigma_weighs_far_rows_zero_without_warning(self):
        # z = (x - mu) / sigma overflows to inf, or z * z does; exp(-inf) is the exact 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = gaussian_weight(0.0, mu=0.5, sigma=1e-160)
            near_and_far = gaussian_weight(np.array([0.5, 0.0, 1.0]), mu=0.5, sigma=1e-160)
        assert far == 0.0
        assert near_and_far[0] > 1e159 and near_and_far[1:].tolist() == [0.0, 0.0]


def expression_weight(x, mu, sigma):
    """``gaussian_weight``'s expression as one line, as it was before its two buffers."""
    scale = gaussian_scale(sigma)
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        z = (x - mu) / sigma
        out = np.exp(-0.5 * z * z) / scale
    return float(out) if out.ndim == 0 else out


class TestGaussianWeightMatchesExpression:
    """The two-buffer weight is the expression's float on every input form, bit for bit."""

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, np.float64(0.7), np.array(0.45)])
    def test_scalars_are_python_floats(self, x):
        for mu, sigma in ((0.3, 0.2), (0.0, 0.05), (1.0, 3.0)):
            got = gaussian_weight(x, mu, sigma)
            assert type(got) is float
            assert got.hex() == expression_weight(x, mu, sigma).hex()

    @pytest.mark.parametrize("n", [1, 7, 1_200, 60_000])
    def test_arrays(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 6, n) / 5.0
        x[::3] = rng.random(len(x[::3]))
        before = x.copy()
        for mu, sigma in ((0.3, 0.2), (float(rng.random()), 0.2), (1.0, 1e-3)):
            got = gaussian_weight(x, mu, sigma)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert got.tobytes() == expression_weight(x, mu, sigma).tobytes()
        assert x.tobytes() == before.tobytes()  # the caller's array is never a buffer

    def test_overflowing_z_weighs_zero_without_warning(self):
        # z * z overflows from 0.5 + 1e-9 on; z itself at -1e300, and at 1e10 for sigma 1e-300
        x = np.array([0.5, 0.0, 1.0, 0.5 + 1e-9, 1e10, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian_weight(x, mu=0.5, sigma=1e-160)
            far = gaussian_weight(1e10, mu=0.5, sigma=1e-300)
            want = expression_weight(x, 0.5, 1e-160)
        assert got.tobytes() == want.tobytes()
        assert got[0] > 1e159 and got[1:].tolist() == [0.0] * 5
        assert far == 0.0 and type(far) is float


class TestMetaSample:
    def make_task(self):
        # majority rows 0..19 (label 0), minority rows 20..29 (label 1)
        features = np.arange(30, dtype=np.float64)[:, None]
        labels = np.array([0] * 20 + [1] * 10)
        return make_dataset(features, labels)

    def test_balanced_output(self):
        ds = self.make_task()
        model = FixedModel(ds.features, np.linspace(0.0, 1.0, 30))
        out = meta_sample(ds, model, mu=0.5, sigma=0.2, seed=0)
        assert len(out.minority_indices) == 10
        assert len(out.majority_indices) == 10

    def test_small_majority_returned_whole(self):
        features = np.arange(6, dtype=np.float64)[:, None]
        ds = make_dataset(features, [0, 0, 0, 1, 1, 1])
        model = FixedModel(ds.features, np.full(6, 0.5))
        out = meta_sample(ds, model, mu=0.5, sigma=0.2, seed=0)
        assert np.array_equal(out.features, ds.features)

    def test_low_mu_avoids_high_error_half(self):
        ds = self.make_task()
        # model perfect on majority rows 0..9 (error 0), wrong on 10..19 (error 1)
        probs = np.concatenate([np.zeros(10), np.ones(10), np.ones(10)])
        model = FixedModel(ds.features, probs)
        bad_picked = 0
        total = 0
        for seed in range(1000):
            out = meta_sample(ds, model, mu=0.0, sigma=0.2, seed=seed)
            maj_rows = out.features[out.majority_indices].ravel()
            bad_picked += int(np.sum(maj_rows >= 10))
            total += len(maj_rows)
        # per-instance weight ratio exp(-12.5) ~ 3.7e-6: essentially never picked
        assert total == 10000
        assert bad_picked <= 2

    def test_seed_determinism(self):
        ds = self.make_task()
        model = FixedModel(ds.features, np.linspace(0.0, 1.0, 30))
        a = meta_sample(ds, model, mu=0.3, sigma=0.2, seed=42)
        b = meta_sample(ds, model, mu=0.3, sigma=0.2, seed=42)
        assert np.array_equal(a.features, b.features)

    def test_single_class_rejected(self):
        ds = self.make_task()
        model = FixedModel(ds.features, np.zeros(30))
        with pytest.raises(SingleClassError):
            meta_sample(ds.subset(ds.majority_indices[:4].tolist() + [4, 5]), model, 0.5, 0.2, 0)


class TestSampleFromErrors:
    def make_task(self):
        # majority rows 0..199 (label 0), minority rows 200..219 (label 1)
        features = np.arange(220, dtype=np.float64)[:, None]
        return make_dataset(features, [0] * 200 + [1] * 20)

    @pytest.mark.parametrize(
        "shape",
        [
            (150,),  # would draw only from the first 150 majority rows
            (5,),  # fewer errors than picks: would repeat rows
            (230,),  # would index past the majority
            (200, 1),
            (),
        ],
        ids=["150", "5", "230", "200x1", "scalar"],
    )
    def test_other_shapes_refused(self, shape):
        ds = self.make_task()
        with pytest.raises(ValueError, match="one error per majority row"):
            sample_from_errors(ds, np.full(shape, 0.5), mu=0.5, sigma=0.2, seed=0)

    @pytest.mark.parametrize(
        "sigma, errors",
        [
            (1e-320, np.full(200, 0.5)),  # the peak overflows to inf, and inf / inf is NaN
            (1e-320, np.linspace(0.0, 0.4, 200)),  # every weight is 0 below an infinite peak
            (3e-309, np.full(200, 0.5)),  # a finite peak, but 200 of them overflow the sum
        ],
        ids=["peak-weights", "no-peak-weight", "sum"],
    )
    def test_non_finite_weights_raise_numerical_error(self, sigma, errors):
        # RuntimeWarning is an error under the suite's settings: no warning may escape either
        with pytest.raises(NumericalError, match="non-finite sampling weights"):
            sample_from_errors(self.make_task(), errors, mu=0.5, sigma=sigma, seed=0)

    def test_refused_before_the_small_majority_shortcut(self):
        ds = make_dataset(np.arange(6, dtype=np.float64)[:, None], [0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="one error per majority row"):
            sample_from_errors(ds, np.zeros(2), mu=0.5, sigma=0.2, seed=0)


def cumsum_draw(weights, n_pick, rng):
    """Reference draw: one cumulative sum over all rows per pick."""
    w = weights.astype(np.float64, copy=True)
    picks = np.empty(n_pick, dtype=np.intp)
    for i in range(n_pick):
        cum = np.cumsum(w)
        total = cum[-1]
        j = int(np.searchsorted(cum, rng.random() * total, side="right"))
        j = min(j, len(w) - 1)
        while w[j] == 0.0:  # guard against landing on an exhausted cell
            j -= 1
        picks[i] = j
        w[j] = 0.0
    return picks


def draw_weights(errors, mu, sigma):
    """Majority weights as sample_from_errors computes them."""
    weights = np.maximum(gaussian_weight(errors, mu, sigma), WEIGHT_FLOOR)
    return weights / weights.sum()


class TestSequentialWeightedDraw:
    def assert_matches_cumsum_draw(self, weights, n_pick, seed):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = _sequential_weighted_draw(weights, n_pick, rng)
        assert np.array_equal(picks, cumsum_draw(weights, n_pick, ref_rng))
        assert rng.random() == ref_rng.random()  # the generator is left in the same state

    def test_matches_cumsum_draw_exactly(self):
        meta = np.random.default_rng(77)
        for case in range(1200):
            # log-uniform sizes: many small draws, some over a few thousand rows
            n = int(np.exp(meta.uniform(np.log(2), np.log(4000))))
            n_pick = int(np.exp(meta.uniform(0.0, np.log(n - 1)))) if n > 2 else 1
            kind = case % 4
            if kind == 1:  # six levels 0, 0.2, ..., 1
                errors = meta.integers(0, 6, n) / 5
            elif kind == 2:  # two levels
                errors = meta.integers(0, 2, n).astype(np.float64)
            else:
                errors = meta.random(n)
            if kind == 3:  # most weights at the floor
                mu, sigma = 0.0, 0.02
            else:
                mu, sigma = float(meta.random()), float(meta.choice([0.05, 0.2, 0.5]))
            self.assert_matches_cumsum_draw(draw_weights(errors, mu, sigma), n_pick, seed=case)

    def test_matches_cumsum_draw_on_a_large_majority(self):
        errors = np.random.default_rng(5).random(60_000)
        self.assert_matches_cumsum_draw(draw_weights(errors, 0.3, 0.2), 3_000, seed=5)

    def test_draws_every_row_once_when_all_are_picked(self):
        weights = draw_weights(np.linspace(0.0, 1.0, 50), 0.5, 0.2)
        picks = _sequential_weighted_draw(weights, 50, np.random.default_rng(3))
        assert sorted(picks.tolist()) == list(range(50))
        self.assert_matches_cumsum_draw(weights, 50, seed=3)

    def test_target_at_the_total_takes_the_last_row_with_weight(self):
        class Ones:
            """A uniform source stuck at 1.0, so every target equals the remaining total."""

            def random(self, size=None):
                return 1.0 if size is None else np.ones(size)

        weights = draw_weights(np.random.default_rng(8).random(50), 0.5, 0.2)
        picks = _sequential_weighted_draw(weights, 49, Ones())
        assert picks.tolist() == list(range(49, 0, -1))
        assert np.array_equal(picks, cumsum_draw(weights, 49, Ones()))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025])
    def test_sizes_around_powers_of_two(self, n):
        # the tree pads the weights with zeros up to the next power of two
        meta = np.random.default_rng(n)
        for seed, n_pick in enumerate(sorted({1, n // 2, n - 1, n})):
            weights = draw_weights(meta.random(n), float(meta.random()), 0.2)
            self.assert_matches_cumsum_draw(weights, n_pick, seed=seed)

    @pytest.mark.parametrize("n", [2, 17, 64, 65])
    def test_picks_every_row_of_a_padded_tree(self, n):
        weights = draw_weights(np.random.default_rng(n).random(n), 0.3, 0.1)
        picks = _sequential_weighted_draw(weights, n, np.random.default_rng(4))
        assert sorted(picks.tolist()) == list(range(n))
        self.assert_matches_cumsum_draw(weights, n, seed=4)

    def test_all_weights_at_the_floor(self):
        weights = draw_weights(np.ones(1000), 0.0, 0.01)
        assert np.all(weights == weights[0])
        picks = _sequential_weighted_draw(weights, 300, np.random.default_rng(6))
        assert len(set(picks.tolist())) == 300
        self.assert_matches_cumsum_draw(weights, 300, seed=6)

    def test_matches_cumsum_draw_at_the_size_of_the_large_cascade(self):
        errors = np.random.default_rng(9).random(95_000)
        self.assert_matches_cumsum_draw(draw_weights(errors, 0.5, 0.2), 5_000, seed=9)

    def test_target_at_the_total_after_the_last_rows_are_exhausted(self):
        class Scripted:
            """A uniform source that hands out fixed values in order."""

            def __init__(self, values):
                self.values = list(values)

            def random(self, size=None):
                if size is None:
                    return self.values.pop(0)
                taken, self.values = self.values[:size], self.values[size:]
                return np.array(taken)

        # 65 rows pad to 128 leaves; 0.99999 lands in the last row with weight
        us = [0.99999, 0.99999, 0.99999, 1.0, 0.0, 1.0, 1.0]
        weights = draw_weights(np.random.default_rng(2).random(65), 0.5, 0.2)
        picks = _sequential_weighted_draw(weights, len(us), Scripted(us))
        assert picks.tolist() == [64, 63, 62, 61, 0, 60, 59]
        assert np.array_equal(picks, cumsum_draw(weights, len(us), Scripted(us)))


class TestRandomBalancedSubset:
    def test_balanced_and_deterministic(self):
        features = np.arange(25, dtype=np.float64)[:, None]
        ds = make_dataset(features, [0] * 20 + [1] * 5)
        a = random_balanced_subset(ds, seed=7)
        b = random_balanced_subset(ds, seed=7)
        assert len(a.minority_indices) == 5
        assert len(a.majority_indices) == 5
        assert np.array_equal(a.features, b.features)

    def test_uniform_inclusion_frequency(self):
        n_maj, n_min, trials = 20, 5, 10000
        features = np.arange(n_maj + n_min, dtype=np.float64)[:, None]
        ds = make_dataset(features, [0] * n_maj + [1] * n_min)
        counts = np.zeros(n_maj)
        for seed in range(trials):
            out = random_balanced_subset(ds, seed=seed)
            rows = out.features[out.majority_indices].ravel().astype(int)
            counts[rows] += 1
        p = n_min / n_maj
        sigma = math.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= 3 * sigma)
