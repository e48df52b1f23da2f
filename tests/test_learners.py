import numpy as np
import pytest

from metasampler import DecisionTree, GaussianNaiveBayes, SingleClassError
from conftest import make_dataset


def fit_tree(features, labels):
    tree = DecisionTree()
    tree.fit(make_dataset(features, labels))
    return tree


class TestDecisionTree:
    def test_single_class_root_leaf(self):
        # single-class input is below the dataset contract, so build through
        # a subset of a two-class dataset
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        tree = DecisionTree()
        tree.fit(ds.subset([0, 1]))
        assert tree.depth == 0
        assert tree.predict_proba(np.array([[5.0]])).tolist() == [0.0]

    def test_xor_depth_two_zero_error(self):
        features = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        labels = [0, 1, 1, 0]
        tree = fit_tree(features, labels)
        assert tree.depth >= 2
        assert tree.predict_proba(np.array(features)).tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_separable_points_reproduced_exactly(self, rng):
        features = rng.standard_normal((200, 3))
        labels = (features[:, 1] > 0.25).astype(np.int64)
        labels[0] = 1
        labels[1] = 0
        features[0, 1] = 1.0
        features[1, 1] = -1.0
        tree = fit_tree(features, labels)
        predicted = (tree.predict_proba(features) >= 0.5).astype(np.int64)
        assert np.array_equal(predicted, labels)

    def test_identical_inputs_identical_outputs(self, rng):
        features = rng.standard_normal((50, 2))
        labels = (rng.random(50) < 0.3).astype(np.int64)
        labels[:2] = [0, 1]
        tree = fit_tree(features, labels)
        x = rng.standard_normal((10, 2))
        assert np.array_equal(tree.predict_proba(x), tree.predict_proba(x))

    def test_tie_breaks_to_lowest_feature(self):
        # duplicated column: identical gain on features 0 and 1
        features = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        labels = [0, 0, 1, 1]
        tree = fit_tree(features, labels)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 1.5

    def test_threshold_is_midpoint(self):
        tree = fit_tree([[0.0], [4.0]], [0, 1])
        assert tree.threshold[0] == 2.0

    # Pairs whose midpoint rounds onto the lower value (adjacent doubles, the
    # smallest subnormals) or overflows, plus two whose midpoint is fine.
    EXTREME_PAIRS = [
        (1.0, float(np.nextafter(1.0, 2.0))),
        (0.0, 5e-324),
        (5e-324, 1e-323),
        (1.5e308, 1.7e308),
        (-1.7e308, -1.5e308),
        (-1.7e308, 1.7e308),
    ]

    @pytest.mark.parametrize("low, high", EXTREME_PAIRS)
    def test_threshold_separates_extreme_neighbours(self, low, high):
        split = DecisionTree._best_split(np.array([[low], [high]]), np.array([0, 1]))
        assert split is not None
        feature, threshold = split
        assert feature == 0
        assert low < threshold <= high

    @pytest.mark.parametrize("low, high", EXTREME_PAIRS)
    def test_extreme_neighbours_reach_zero_error(self, low, high):
        features = [[low], [high]]
        tree = fit_tree(features, [0, 1])
        assert tree.depth == 1
        assert tree.predict_proba(np.array(features)).tolist() == [0.0, 1.0]

    def test_single_row_prediction_returns_float(self):
        tree = fit_tree([[0.0], [4.0]], [0, 1])
        out = tree.predict_proba(np.array([3.0]))
        assert isinstance(out, float)
        assert out == 1.0

    def test_feature_width_checked(self):
        tree = fit_tree([[0.0, 1.0], [4.0, 2.0]], [0, 1])
        with pytest.raises(ValueError):
            tree.predict_proba(np.zeros((3, 5)))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict_proba(np.zeros((1, 2)))


class TestGaussianNaiveBayes:
    def test_separated_blobs_confident_at_centers(self, rng):
        x0 = rng.normal(-5.0, 0.5, size=50)
        x1 = rng.normal(5.0, 0.5, size=50)
        features = np.concatenate([x0, x1])[:, None]
        labels = np.array([0] * 50 + [1] * 50)
        model = GaussianNaiveBayes()
        model.fit(make_dataset(features, labels))
        assert model.predict_proba(np.array([-5.0])) < 0.01
        assert model.predict_proba(np.array([5.0])) > 0.99

    def test_matches_closed_form_posterior(self, rng):
        features = rng.standard_normal((30, 2))
        labels = np.array([0] * 18 + [1] * 12)
        ds = make_dataset(features, labels)
        model = GaussianNaiveBayes()
        model.fit(ds)

        floor = max(1e-9 * features.var(axis=0, ddof=0).max(), np.finfo(np.float64).tiny)
        query = rng.standard_normal(2)
        logs = {}
        for c in (0, 1):
            rows = features[labels == c]
            mean = rows.mean(axis=0)
            var = np.maximum(rows.var(axis=0, ddof=0), floor)
            ll = -0.5 * np.sum(np.log(2.0 * np.pi * var) + (query - mean) ** 2 / var)
            logs[c] = np.log(len(rows) / len(labels)) + ll
        want = 1.0 / (1.0 + np.exp(logs[0] - logs[1]))
        assert model.predict_proba(query) == pytest.approx(want, abs=1e-12)

    def test_symmetric_midpoint(self):
        features = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        model = GaussianNaiveBayes()
        model.fit(make_dataset(features, labels))
        assert model.predict_proba(np.array([0.0])) == pytest.approx(0.5, abs=1e-9)

    def test_zero_variance_feature_no_nan(self):
        features = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        labels = np.array([0, 0, 1, 1])
        model = GaussianNaiveBayes()
        model.fit(make_dataset(features, labels))
        out = model.predict_proba(features)
        assert np.all(np.isfinite(out))

    def test_single_class_rejected(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        model = GaussianNaiveBayes()
        with pytest.raises(SingleClassError):
            model.fit(ds.subset([0, 1]))
