import numpy as np
import pytest

from metasampler import SingleClassError, aucprc
from metasampler.metrics import classification_errors
from conftest import FixedModel, brute_average_precision, make_dataset


def stable_sort_aucprc(scores, labels) -> float:
    """``aucprc`` as it was with a stable sort, ``diff`` and ``cumsum``, verbatim: the bytes oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be 1-D and of equal length")
    if scores.size == 0:
        raise ValueError("need at least one instance")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise SingleClassError("PR analysis needs both classes")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of every tie group, and the cumulative true and predicted
    # positives at each distinct threshold
    group_end = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    group_end = np.append(group_end, scores.size - 1)
    tp = np.cumsum(sorted_labels)[group_end]
    pp = group_end + 1
    if tp.size == 1:
        # single threshold: area is recall 1 times precision = prevalence
        return float(tp[0] / pp[0])
    tp_prev = np.concatenate(([0], tp[:-1]))
    # (delta_tp * tp) / pp is an exact integer whenever precision is 1
    terms = (tp - tp_prev) * tp / pp
    return float(terms.sum() / n_pos)


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



def both_class_labels(rng, n, dtype=np.int8):
    labels = rng.random(n) < rng.uniform(0.05, 0.6)
    labels[:2] = [False, True]
    return labels.astype(dtype)


def ensemble_like_scores(rng, n):
    """Few distinct scores, as a K=5 cascade of deep trees gives: multiples of 0.2."""
    return rng.integers(0, 6, n) / 5.0


class TestAucprcMatchesStableSortForm:
    """The unstable sort and per-group counts give the stable-sort form's float, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 440, 2_000, 21_000])
    def test_tie_heavy_and_continuous_scores(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20 if n < 2_000 else 4):
            labels = both_class_labels(rng, n)
            for scores in (
                ensemble_like_scores(rng, n),
                rng.integers(0, 3, n).astype(np.float64),
                rng.random(n),
                np.round(rng.random(n), 2),
            ):
                assert aucprc(scores, labels).hex() == stable_sort_aucprc(scores, labels).hex()

    def test_permuted_inputs_give_the_same_float(self):
        rng = np.random.default_rng(3)
        n = 21_000
        labels = both_class_labels(rng, n)
        for scores in (ensemble_like_scores(rng, n), rng.random(n)):
            want = stable_sort_aucprc(scores, labels).hex()
            for _ in range(5):
                perm = rng.permutation(n)
                assert aucprc(scores[perm], labels[perm]).hex() == want
                assert stable_sort_aucprc(scores[perm], labels[perm]).hex() == want

    def test_signed_zeros_are_one_threshold(self):
        rng = np.random.default_rng(4)
        for n in (2, 9, 440, 21_000):
            labels = both_class_labels(rng, n)
            scores = rng.choice([-0.0, 0.0, 0.5, 1.0], n)
            got = aucprc(scores, labels).hex()
            assert got == stable_sort_aucprc(scores, labels).hex()
            assert got == aucprc(np.abs(scores), labels).hex()

    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.float64, np.int64, np.uint8])
    def test_label_dtypes(self, dtype):
        # int8 and bool counts must not wrap: 21,000 rows put thousands of positives in a group
        rng = np.random.default_rng(5)
        for n in (2, 440, 21_000):
            labels = both_class_labels(rng, n, dtype)
            for scores in (ensemble_like_scores(rng, n), rng.random(n), np.full(n, 0.4)):
                assert aucprc(scores, labels).hex() == stable_sort_aucprc(scores, labels).hex()
