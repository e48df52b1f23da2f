import numpy as np
import pytest

from metasampler import (
    DecisionTree,
    GaussianNaiveBayes,
    SingleClassError,
    SplitSpec,
    ToySpec,
    make_toy,
    stratified_split,
)
from metasampler.learners import _PREDICT_BLOCK
from metasampler.sampling import random_balanced_subset
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
        tree = fit_tree([[low], [high]], [0, 1])
        assert tree.feature[0] == 0
        assert low < tree.threshold[0] <= high

    @pytest.mark.parametrize("low, high", EXTREME_PAIRS)
    def test_extreme_neighbours_reach_zero_error(self, low, high):
        features = [[low], [high]]
        tree = fit_tree(features, [0, 1])
        assert tree.depth == 1
        assert tree.predict_proba(np.array(features)).tolist() == [0.0, 1.0]

    def test_one_row_matrix_returns_vector(self):
        tree = fit_tree([[0.0], [4.0]], [0, 1])
        out = tree.predict_proba(np.array([[3.0]]))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [1.0]

    def test_one_dimensional_input_refused(self):
        tree = fit_tree([[0.0, 1.0], [4.0, 2.0]], [0, 1])
        with pytest.raises(ValueError, match="matrix"):
            tree.predict_proba(np.array([3.0, 1.0]))

    def test_feature_width_checked(self):
        tree = fit_tree([[0.0, 1.0], [4.0, 2.0]], [0, 1])
        with pytest.raises(ValueError):
            tree.predict_proba(np.zeros((3, 5)))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict_proba(np.zeros((1, 2)))


_LEAF = -1
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


class ReferenceDecisionTree(DecisionTree):
    """The per-node, per-feature CART fit that the presorted fit replaced, verbatim."""

    def fit(self, ds):
        x, y = ds.features, ds.labels
        self.n_features_in = ds.n_features
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(np.nan)
            return len(feature) - 1

        stack = [(new_node(), np.arange(len(ds)))]
        while stack:
            node, idx = stack.pop()
            y_node = y[idx]
            pos = int(y_node.sum())
            value[node] = pos / len(idx)
            if pos == 0 or pos == len(idx) or len(idx) < 2:
                continue
            split = self._best_split(x[idx], y_node)
            if split is None:
                continue
            feat, thresh = split
            feature[node] = feat
            threshold[node] = thresh
            goes_left = x[idx, feat] < thresh
            left[node] = new_node()
            right[node] = new_node()
            stack.append((left[node], idx[goes_left]))
            stack.append((right[node], idx[~goes_left]))

        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    @staticmethod
    def _best_split(x, y):
        """(feature, threshold) with maximal Gini decrease, or None if no split exists."""
        n = len(y)
        total_pos = int(y.sum())
        parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
        best = None
        best_decrease = -1.0
        for j in range(x.shape[1]):
            col = x[:, j]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            cut = np.flatnonzero(sv[:-1] < sv[1:])  # split after these positions
            if cut.size == 0:
                continue
            cum_pos = np.cumsum(y[order])
            ln = cut + 1.0
            lp = cum_pos[cut]
            rn = n - ln
            rp = total_pos - lp
            gini_left = 1.0 - (lp / ln) ** 2 - ((ln - lp) / ln) ** 2
            gini_right = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
            decrease = parent_gini - (ln * gini_left + rn * gini_right) / n
            k = int(np.argmax(decrease))  # first max = lowest threshold
            if decrease[k] > best_decrease:
                best_decrease = decrease[k]
                low, high = float(sv[cut[k]]), float(sv[cut[k] + 1])
                mid = (low + high) / 2.0
                best = (j, mid if low < mid <= high else high)
        return best


MID_TOY = ToySpec(n_majority=2000, n_minority=200, overlap=0.7, seed=11)
EXTREME_VALUES = [
    0.0, 5e-324, 1e-323, 1.0, float(np.nextafter(1.0, 2.0)), 1.5e308, 1.7e308, -1.5e308, -1.7e308,
]


def labels_with_both_classes(rng, n):
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int64)
    labels[:2] = [0, 1]
    return labels


def oracle_cases():
    """(name, dataset) pairs: edge cases, cascade-shaped subsets and a wide table."""
    rng = np.random.default_rng(61)
    cases = []
    for t in range(12):
        n, d = int(rng.integers(2, 90)), int(rng.integers(1, 5))
        ties = rng.integers(0, 4, (n, d)).astype(np.float64)
        cases.append((f"ties-{t}", make_dataset(ties, labels_with_both_classes(rng, n))))
        base = rng.standard_normal((max(2, n // 4), d))
        duplicates = base[rng.integers(0, len(base), n)]  # repeated rows, often with both labels
        cases.append((f"duplicates-{t}", make_dataset(duplicates, labels_with_both_classes(rng, n))))
        extremes = rng.choice(EXTREME_VALUES, (n, d))
        cases.append((f"extremes-{t}", make_dataset(extremes, labels_with_both_classes(rng, n))))
        constant = rng.standard_normal((n, d + 1))
        constant[:, rng.integers(0, d + 1)] = 2.5
        cases.append((f"constant-{t}", make_dataset(constant, labels_with_both_classes(rng, n))))
    cases.append(("conflicting-pair", make_dataset([[1.0], [1.0]], [0, 1])))
    cases.append(("all-constant", make_dataset([[3.0, 1.0]] * 5, [0, 1, 0, 1, 1])))
    train, _, _ = stratified_split(make_toy(MID_TOY), SplitSpec(), seed=0)
    for seed in range(40):
        cases.append((f"mid-toy-{seed}", random_balanced_subset(train, seed)))
    wide = np.round(rng.standard_normal((400, 12)) * 10.0, 2)  # few decimals, as read from CSV
    wide_labels = (wide[:, 0] + wide[:, 5] * wide[:, 7] / 10.0 + rng.normal(0.0, 5.0, 400) > 4.0)
    cases.append(("wide-csv", make_dataset(wide, wide_labels.astype(np.int64))))
    large = make_toy(ToySpec(n_majority=20_000, n_minority=2_500, overlap=0.5, seed=12))
    cases.append(("large-subset", random_balanced_subset(large, 0)))
    return cases


ORACLE_CASES = oracle_cases()
ORACLE_PARAMS = [pytest.param(ds, id=name) for name, ds in ORACLE_CASES]


class TestFitMatchesReference:
    @pytest.mark.parametrize("ds", ORACLE_PARAMS)
    def test_same_tree_as_reference(self, ds):
        want = ReferenceDecisionTree().fit(ds)
        got = DecisionTree().fit(ds)
        assert len(got.feature) == len(want.feature)
        for name in NODE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


class TestFitInvariants:
    """Properties of any fit, checked by sending the training rows down the tree."""

    @pytest.mark.parametrize("ds", ORACLE_PARAMS)
    def test_rows_split_exactly_and_values_are_leaf_frequencies(self, ds):
        tree = DecisionTree().fit(ds)
        x, y = ds.features, ds.labels
        visited = []
        pending = [(0, np.arange(len(ds)))]
        while pending:
            node, rows = pending.pop()
            visited.append(node)
            assert tree.value[node] == int(y[rows].sum()) / len(rows)
            if tree.feature[node] == _LEAF:
                continue
            goes_left = x[rows, tree.feature[node]] < tree.threshold[node]
            left, right = rows[goes_left], rows[~goes_left]
            assert len(left) + len(right) == len(rows)
            assert len(left) > 0 and len(right) > 0
            pending += [(tree.left[node], left), (tree.right[node], right)]
        assert sorted(visited) == list(range(len(tree.feature)))


def reference_predict_proba(tree, features):
    """The level-by-level compacting descent that the row-blocked one replaced, verbatim."""
    if tree.feature is None:
        raise RuntimeError("tree is not fitted")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != tree.n_features_in:
        raise ValueError(f"expected a (rows, {tree.n_features_in}) matrix, got shape {x.shape}")
    node = np.zeros(len(x), dtype=np.intp)
    active = tree.feature[node] != _LEAF
    while active.any():
        rows = np.flatnonzero(active)
        cur = node[rows]
        goes_left = x[rows, tree.feature[cur]] < tree.threshold[cur]
        node[rows] = np.where(goes_left, tree.left[cur], tree.right[cur])
        active[rows] = tree.feature[node[rows]] != _LEAF
    return tree.value[node]


def reference_depth(tree):
    """The per-node depth loop that the depth recorded by fit replaced, verbatim."""
    depths = np.zeros(len(tree.feature), dtype=np.intp)
    for node in range(len(tree.feature)):
        if tree.feature[node] != _LEAF:
            child_depth = depths[node] + 1
            depths[tree.left[node]] = child_depth
            depths[tree.right[node]] = child_depth
    return int(depths.max())


def assert_same_bytes(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def mid_toy_rows(n, seed):
    """n rows drawn from the MID toy task, about half of them jittered off the training values."""
    rng = np.random.default_rng(seed)
    x = make_toy(MID_TOY).features
    rows = x[rng.integers(0, len(x), n)]
    return rows + rng.normal(0.0, 0.05, rows.shape) * (rng.random((n, 1)) < 0.5)


BLOCK_EDGE_SIZES = [1, 8_191, 8_192, 8_193, 20_000]


class TestPredictMatchesReference:
    @pytest.mark.parametrize("ds", ORACLE_PARAMS)
    def test_training_rows_and_jittered_rows(self, ds):
        tree = DecisionTree().fit(ds)
        rng = np.random.default_rng(len(ds))
        jittered = ds.features + rng.normal(0.0, 1.0, ds.features.shape)
        column_major = np.asfortranarray(ds.features[::-1])
        for x in (ds.features, jittered, column_major):
            assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    @pytest.mark.parametrize("ds", ORACLE_PARAMS)
    def test_recorded_depth_is_node_loop_depth(self, ds):
        tree = DecisionTree().fit(ds)
        assert type(tree.depth) is int
        assert tree.depth == reference_depth(tree)

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_mid_toy_subsets_across_block_edges(self, n):
        train, _, _ = stratified_split(make_toy(MID_TOY), SplitSpec(), seed=0)
        x = mid_toy_rows(n, seed=n)
        for seed in range(8):
            tree = DecisionTree().fit(random_balanced_subset(train, seed))
            assert tree.depth > 0
            assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_pure_tree_across_block_edges(self, n):
        ds = make_dataset([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], [0, 1, 1])
        tree = DecisionTree().fit(ds.subset([1, 2]))
        assert tree.depth == 0
        x = mid_toy_rows(n, seed=n)[:, :2]
        got = tree.predict_proba(x)
        assert_same_bytes(got, reference_predict_proba(tree, x))
        assert got.tolist() == [1.0] * n

    def test_value_equal_to_threshold_goes_right(self):
        tree = fit_tree([[0.0], [2.0], [4.0]], [0, 1, 1])
        assert tree.threshold[0] == 1.0
        x = np.array([[np.nextafter(1.0, 0.0)], [1.0], [np.nextafter(1.0, 2.0)]])
        got = tree.predict_proba(x)
        assert got.tolist() == [0.0, 1.0, 1.0]
        assert_same_bytes(got, reference_predict_proba(tree, x))

    def test_non_finite_rows_take_the_reference_path(self, rng):
        tree = DecisionTree().fit(random_balanced_subset(make_toy(MID_TOY), 3))
        x = rng.standard_normal((300, 2)) * 3.0
        x[rng.random(x.shape) < 0.2] = np.nan
        x[rng.random(x.shape) < 0.1] = np.inf
        x[rng.random(x.shape) < 0.1] = -np.inf
        assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    @pytest.mark.parametrize("ds", ORACLE_PARAMS[-3:])
    def test_one_row_matrices(self, ds):
        tree = DecisionTree().fit(ds)
        for row in ds.features[:20]:
            x = row[None, :]
            got = tree.predict_proba(x)
            assert got.shape == (1,)
            assert_same_bytes(got, reference_predict_proba(tree, x))

    def test_empty_input(self):
        tree = fit_tree([[0.0], [4.0]], [0, 1])
        x = np.zeros((0, 1))
        assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))


def leaf_levels(tree, x):
    """Level of the leaf each row reaches, following left/right node by node."""
    levels = np.zeros(len(x), dtype=np.intp)
    for i, row in enumerate(x):
        node = 0
        while tree.feature[node] != _LEAF:
            goes_left = row[tree.feature[node]] < tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
            levels[i] += 1
    return levels


class TestPredictCompaction:
    """predict_proba drops the rows already at a leaf once, after depth // 2 levels."""

    @pytest.fixture(scope="class")
    def deep(self):
        """A 12-level tree on the whole MID task, 20,000 query rows and their leaf levels."""
        tree = DecisionTree().fit(make_toy(MID_TOY))
        assert tree.depth == 12
        pool = mid_toy_rows(20_000, seed=5)
        return tree, pool, leaf_levels(tree, pool)

    def test_every_row_at_a_leaf_by_half_depth(self, deep):
        tree, pool, levels = deep
        x = pool[levels <= tree.depth // 2]  # nothing is left to walk after the compaction
        assert len(x) > _PREDICT_BLOCK
        assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    def test_no_row_at_a_leaf_at_half_depth(self, deep):
        tree, pool, levels = deep
        walking = levels > tree.depth // 2
        assert (levels[walking] == tree.depth).any()  # some rows walk every level
        x = pool[walking]
        assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    def test_rows_landing_on_a_leaf_at_half_depth(self, deep):
        tree, pool, levels = deep
        at_half = levels == tree.depth // 2
        assert at_half.sum() > 100
        for x in (pool[at_half], pool[at_half | (levels == tree.depth)], pool[::7]):
            assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    @pytest.mark.parametrize("n", [8_191, 8_192, 8_193])
    def test_block_edges_on_a_deep_tree(self, deep, n):
        tree, pool, levels = deep
        # rows that walk every level sit first and last in each block, around mixed ones
        idx = np.flatnonzero(levels != tree.depth)[:n]
        edges = [i for i in (0, _PREDICT_BLOCK - 1, _PREDICT_BLOCK, n - 1) if i < n]
        idx[edges] = np.flatnonzero(levels == tree.depth)[: len(edges)]
        x = pool[idx]
        assert len(x) == n
        assert_same_bytes(tree.predict_proba(x), reference_predict_proba(tree, x))

    @pytest.mark.parametrize(
        "labels, depth",
        [([0, 1], 1), ([0, 1, 0], 2), ([0, 1, 0, 1], 3)],
        ids=["depth1", "depth2", "depth3"],
    )
    def test_shallow_trees(self, labels, depth):
        # depth 0, a root leaf, is test_pure_tree_across_block_edges
        tree = fit_tree(np.arange(len(labels), dtype=np.float64)[:, None], labels)
        assert tree.depth == depth
        cuts = tree.threshold[tree.feature != _LEAF]
        x = np.concatenate(
            (np.linspace(-1.0, len(labels), 61), cuts, np.nextafter(cuts, -np.inf), [np.nan])
        )[:, None]
        got = tree.predict_proba(x)
        assert_same_bytes(got, reference_predict_proba(tree, x))
        assert set(got.tolist()) == {0.0, 1.0}


class TestGaussianNaiveBayes:
    def test_separated_blobs_confident_at_centers(self, rng):
        x0 = rng.normal(-5.0, 0.5, size=50)
        x1 = rng.normal(5.0, 0.5, size=50)
        features = np.concatenate([x0, x1])[:, None]
        labels = np.array([0] * 50 + [1] * 50)
        model = GaussianNaiveBayes()
        model.fit(make_dataset(features, labels))
        low, high = model.predict_proba(np.array([[-5.0], [5.0]]))
        assert low < 0.01
        assert high > 0.99

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
        assert model.predict_proba(query[None, :]).tolist() == [pytest.approx(want, abs=1e-12)]

    def test_symmetric_midpoint(self):
        features = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        model = GaussianNaiveBayes()
        model.fit(make_dataset(features, labels))
        assert model.predict_proba(np.array([[0.0]])).tolist() == [pytest.approx(0.5, abs=1e-9)]

    def test_zero_variance_feature_no_nan(self):
        features = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        labels = np.array([0, 0, 1, 1])
        model = GaussianNaiveBayes()
        model.fit(make_dataset(features, labels))
        out = model.predict_proba(features)
        assert np.all(np.isfinite(out))

    def test_one_dimensional_input_refused(self):
        model = GaussianNaiveBayes().fit(make_dataset([[0.0, 1.0], [4.0, 2.0]], [0, 1]))
        with pytest.raises(ValueError, match="matrix"):
            model.predict_proba(np.array([3.0, 1.0]))

    def test_single_class_rejected(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        model = GaussianNaiveBayes()
        with pytest.raises(SingleClassError):
            model.fit(ds.subset([0, 1]))
