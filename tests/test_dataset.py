import math

import numpy as np
import pytest

from metasampler import (
    ClassTooSmallError,
    ColumnNotFoundError,
    DecisionTree,
    EmptyDataError,
    FeatureParseError,
    LabelDomainError,
    LabeledDataset,
    SingleClassError,
    SplitSpec,
    ToySpec,
    aucprc,
    inject_flip_noise,
    load_csv,
    make_toy,
    save_csv,
    stratified_split,
)
from conftest import make_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_four_row_read_back(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n3,4,0\n5,6,1\n7,8,0\n")
        ds = load_csv(path)
        assert len(ds.majority_indices) == 3
        assert len(ds.minority_indices) == 1
        assert ds.features.shape == (4, 2)
        assert ds.features[2].tolist() == [5.0, 6.0]

    def test_label_outside_domain(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,2\n3,1\n")
        with pytest.raises(LabelDomainError):
            load_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,0.5\n3,1\n")
        with pytest.raises(LabelDomainError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyDataError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,label\n")
        with pytest.raises(EmptyDataError):
            load_csv(path)

    def test_label_column_only(self, tmp_path):
        path = write(tmp_path, "label\n0\n1\n0\n1\n")
        with pytest.raises(EmptyDataError, match="no feature columns"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n3,1\n5,6,1\n")
        with pytest.raises(FeatureParseError):
            load_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = write(tmp_path, "a,label\nx,0\n2,1\n")
        with pytest.raises(FeatureParseError):
            load_csv(path)

    def test_non_finite_feature(self, tmp_path):
        path = write(tmp_path, "a,label\nnan,0\n2,1\n")
        with pytest.raises(FeatureParseError):
            load_csv(path)

    def test_label_column_by_name_and_position(self, tmp_path):
        path = write(tmp_path, "y,a\n0,1\n1,2\n0,3\n")
        ds = load_csv(path, label_column="y")
        assert ds.labels.tolist() == [0, 1, 0]
        ds2 = load_csv(path, label_column=0)
        assert ds2.labels.tolist() == [0, 1, 0]
        assert ds2.features.ravel().tolist() == [1.0, 2.0, 3.0]

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,1\n")
        with pytest.raises(ColumnNotFoundError):
            load_csv(path, label_column="target")

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,0\n3,0\n")
        with pytest.raises(SingleClassError):
            load_csv(path)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        ds = make_dataset(rng.standard_normal((20, 3)), [0, 1] * 10)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestDatasetValidation:
    def test_rejects_label_outside_binary(self):
        with pytest.raises(ValueError):
            make_dataset([[1.0], [2.0]], [0, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_dataset([[np.inf], [2.0]], [0, 1])

    def test_arrays_read_only(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_imbalance_ratio(self):
        ds = make_dataset([[i] for i in range(12)], [1, 1] + [0] * 10)
        assert ds.imbalance_ratio == 5.0

    def test_subset_keeps_rows(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        sub = ds.subset([0, 2])
        assert sub.features.ravel().tolist() == [1.0, 3.0]
        assert sub.labels.tolist() == [0, 0]

    def test_subset_equals_a_validated_dataset_of_the_same_rows(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.random((40, 3)), rng.integers(0, 2, 40))
        idx = [7, 0, 31, 7, -1]
        sub = ds.subset(idx)
        validated = LabeledDataset(ds.features[idx], ds.labels[idx])
        assert np.array_equal(sub.features, validated.features)
        assert np.array_equal(sub.labels, validated.labels)
        for array, dtype in ((sub.features, np.float64), (sub.labels, np.int64)):
            assert array.dtype == dtype and array.flags.c_contiguous
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            sub.features[0, 0] = 9.0
        assert sub.features.shape == (5, 3) and len(sub) == 5

    @pytest.mark.parametrize("idx", [[0], [], [[0, 1], [2, 3]]])
    def test_subset_needs_a_flat_index_of_two_rows(self, idx):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError):
            ds.subset(idx)


class TestStratifiedSplit:
    def test_exact_fraction_counts(self):
        ds = make_dataset(
            [[float(i)] for i in range(110)], [0] * 100 + [1] * 10
        )
        train, valid, test = stratified_split(ds, SplitSpec(0.6, 0.2, 0.2), seed=3)
        for part, n_maj, n_min in ((train, 60, 6), (valid, 20, 2), (test, 20, 2)):
            assert len(part.majority_indices) == n_maj
            assert len(part.minority_indices) == n_min

    def test_minority_too_small(self):
        ds = make_dataset([[float(i)] for i in range(7)], [0] * 5 + [1] * 2)
        with pytest.raises(ClassTooSmallError):
            stratified_split(ds, SplitSpec(0.6, 0.2, 0.2), seed=0)

    def test_counts_match_integer_oracle(self, rng):
        for _ in range(50):
            n_maj = int(rng.integers(20, 200))
            n_min = int(rng.integers(10, n_maj + 1))
            fracs = rng.dirichlet([5.0, 5.0, 5.0])
            while min(math.floor(n_min * fracs[1]), math.floor(n_min * fracs[2])) < 1 or (
                n_min - math.floor(n_min * fracs[1]) - math.floor(n_min * fracs[2]) < 1
            ):
                fracs = rng.dirichlet([5.0, 5.0, 5.0])
            spec = SplitSpec(float(fracs[0]), float(fracs[1]), float(fracs[2]))
            ds = make_dataset(
                [[float(i)] for i in range(n_maj + n_min)], [0] * n_maj + [1] * n_min
            )
            train, valid, test = stratified_split(ds, spec, seed=int(rng.integers(1 << 16)))
            for n_c, part_counts in (
                (n_maj, [len(p.majority_indices) for p in (train, valid, test)]),
                (n_min, [len(p.minority_indices) for p in (train, valid, test)]),
            ):
                want_valid = math.floor(n_c * spec.valid)
                want_test = math.floor(n_c * spec.test)
                assert part_counts == [n_c - want_valid - want_test, want_valid, want_test]

    def test_split_is_partition(self, rng):
        ds = make_dataset(rng.standard_normal((50, 2)), [0] * 40 + [1] * 10)
        train, valid, test = stratified_split(ds, SplitSpec(), seed=9)
        rows = np.concatenate([train.features, valid.features, test.features])
        assert rows.shape[0] == 50
        # every original row appears exactly once
        key = np.lexsort(rows.T)
        orig = np.lexsort(ds.features.T)
        assert np.array_equal(rows[key], ds.features[orig])

    def test_same_seed_same_split(self):
        ds = make_dataset([[float(i)] for i in range(30)], [0] * 24 + [1] * 6)
        a = stratified_split(ds, SplitSpec(), seed=5)
        b = stratified_split(ds, SplitSpec(), seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.features, pb.features)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.0, 0.0)


class TestMakeToy:
    def test_paper_counts_and_ratio(self):
        ds = make_toy(ToySpec(2000, 200, 0.0, seed=1))
        assert len(ds.majority_indices) == 2000
        assert len(ds.minority_indices) == 200
        assert ds.imbalance_ratio == 10.0

    def test_zero_overlap_separable(self):
        ds = make_toy(ToySpec(400, 60, 0.0, seed=2))
        tree = DecisionTree()
        tree.fit(ds)
        assert aucprc(tree.predict_proba(ds.features), ds.labels) == 1.0

    def test_seed_determinism(self):
        a = make_toy(ToySpec(100, 20, 0.5, seed=7))
        b = make_toy(ToySpec(100, 20, 0.5, seed=7))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_overlap_monotone_hardness(self):
        # blob center moves toward the arc as overlap rises
        near = make_toy(ToySpec(100, 20, 0.9, seed=3))
        far = make_toy(ToySpec(100, 20, 0.1, seed=3))
        center_of = lambda ds: ds.features[ds.minority_indices].mean(axis=0)
        assert np.linalg.norm(center_of(near)) > np.linalg.norm(center_of(far))

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            ToySpec(100, 20, 1.5, seed=0)
        with pytest.raises(ValueError):
            ToySpec(10, 20, 0.5, seed=0)


class TestInjectFlipNoise:
    def test_zero_ratio_identity(self):
        ds = make_dataset([[float(i)] for i in range(20)], [0] * 16 + [1] * 4)
        out = inject_flip_noise(ds, 0.0, seed=1)
        assert np.array_equal(out.labels, ds.labels)
        assert np.array_equal(out.features, ds.features)

    def test_quarter_ratio_exact_counts(self):
        n_min, n_maj = 200, 800
        ds = make_dataset(
            [[float(i)] for i in range(n_maj + n_min)], [0] * n_maj + [1] * n_min
        )
        out = inject_flip_noise(ds, 0.25, seed=3)
        flipped_down = np.sum((ds.labels == 1) & (out.labels == 0))
        flipped_up = np.sum((ds.labels == 0) & (out.labels == 1))
        assert flipped_down == 50
        assert flipped_up == 50
        assert len(out.minority_indices) == n_min
        assert len(out.majority_indices) == n_maj

    def test_label_multiset_preserved(self, rng):
        for _ in range(100):
            n_min = int(rng.integers(4, 40))
            n_maj = int(rng.integers(n_min, 120))
            ratio = float(rng.uniform(0.0, 0.6))
            m = math.floor(n_min * ratio + 0.5)
            if m > min(n_min - 1, n_maj - 1):
                continue
            ds = make_dataset(
                [[float(i)] for i in range(n_maj + n_min)], [0] * n_maj + [1] * n_min
            )
            out = inject_flip_noise(ds, ratio, seed=int(rng.integers(1 << 16)))
            assert np.sum(out.labels == 1) == n_min
            assert np.sum(out.labels == 0) == n_maj
            assert np.array_equal(out.features, ds.features)

    def test_ratio_too_large(self):
        ds = make_dataset([[float(i)] for i in range(8)], [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ClassTooSmallError):
            inject_flip_noise(ds, 0.9, seed=0)

    def test_ratio_domain(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError):
            inject_flip_noise(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            inject_flip_noise(ds, -0.1, seed=0)

    def test_seed_determinism(self):
        ds = make_dataset([[float(i)] for i in range(60)], [0] * 48 + [1] * 12)
        a = inject_flip_noise(ds, 0.25, seed=9)
        b = inject_flip_noise(ds, 0.25, seed=9)
        assert np.array_equal(a.labels, b.labels)
