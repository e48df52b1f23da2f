import numpy as np
import pytest

from metasampler import SingleClassError, aucprc
from metasampler.metrics import classification_errors
from conftest import FixedModel, brute_average_precision, make_dataset


class TestClassificationErrors:
    def test_perfect_model_zero_errors(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 0])
        model = FixedModel(ds.features, [0.0, 1.0, 0.0])
        assert classification_errors(model, ds).tolist() == [0.0, 0.0, 0.0]

    def test_constant_half(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1])
        model = FixedModel(ds.features, [0.5, 0.5])
        assert classification_errors(model, ds).tolist() == [0.5, 0.5]

    def test_absolute_distance(self):
        ds = make_dataset([[0.0], [1.0]], [1, 0])
        model = FixedModel(ds.features, [0.2, 0.0])
        assert classification_errors(model, ds).tolist() == [pytest.approx(0.8), 0.0]


class TestAucprc:
    def test_perfect_ranking_exactly_one(self):
        scores = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0, 0])
        assert aucprc(scores, labels) == 1.0

    def test_all_equal_scores_exact_prevalence(self):
        for n_pos, n in ((1, 4), (3, 7), (5, 16), (7, 30)):
            scores = np.full(n, 0.4)
            labels = np.array([1] * n_pos + [0] * (n - n_pos))
            assert aucprc(scores, labels) == n_pos / n

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 21))
            labels = np.zeros(n, dtype=np.int64)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            # mix continuous scores with heavy ties
            if rng.random() < 0.5:
                scores = rng.random(n)
            else:
                scores = rng.integers(0, 4, size=n).astype(np.float64) / 3.0
            got = aucprc(scores, labels)
            want = brute_average_precision(scores, labels)
            assert got == pytest.approx(want, abs=1e-12)

    def test_worst_ranking_at_most_prevalence(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([1, 1, 0, 0])
        assert aucprc(scores, labels) <= 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            aucprc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            aucprc(np.array([0.1, 0.2]), np.array([1, 0, 1]))

    def test_non_finite_scores(self):
        with pytest.raises(ValueError):
            aucprc(np.array([np.nan, 0.2]), np.array([1, 0]))

