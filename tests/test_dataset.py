import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from metasampler import (
    ClassTooSmallError,
    ColumnNotFoundError,
    DataError,
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
from conftest import make_dataset, per_cell_load_csv, per_row_save_csv
from metasampler import dataset
from metasampler.dataset import _c_reader_rows, _load_csv_rows


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_same_dataset(ds, oracle):
    """Byte-equal arrays of one dtype and shape, contiguous and read-only as load_csv's."""
    for got, want in ((ds.features, oracle.features), (ds.labels, oracle.labels)):
        assert got.tobytes() == want.tobytes()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and not got.flags.writeable


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

    # csv refuses a cell over its field size limit (131,072 characters); this
    # header cell, this feature cell (which float() reads as inf) or this
    # finite one (which numpy's C reader would read as 0.0) is one
    @pytest.mark.parametrize(
        "text",
        [
            "a" * 140_000 + ",label\n1,0\n2,1\n3,0\n",
            "a,label\n1" + "0" * 140_000 + ",0\n2,1\n3,0\n",
            "a,label\n0." + "0" * 140_000 + "1,0\n2,1\n3,0\n",
        ],
        ids=["header", "feature", "finite-feature"],
    )
    def test_cell_over_csv_field_limit(self, tmp_path, text):
        path = write(tmp_path, text)
        for load in (load_csv, lambda path: _load_csv_rows(path, "label")):
            with pytest.raises(DataError, match="cannot read as CSV"):
                load(path)

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

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufefflabel,x0\n1,0.5\n0,0.2\n0,0.3\n".encode("utf-8"))
        ds = load_csv(path)
        assert ds.labels.tolist() == [1, 0, 0]
        assert ds.features.ravel().tolist() == [0.5, 0.2, 0.3]

    def test_label_name_in_two_columns_is_refused(self, tmp_path):
        # the header save_csv(ds, path, label_column="x0") used to write
        path = write(tmp_path, "x0,x1,x0\n0.5,0.25,0\n1.5,0.75,1\n2.5,1.25,0\n")
        with pytest.raises(ColumnNotFoundError, match="2 columns named 'x0'"):
            load_csv(path, label_column="x0")
        by_position = load_csv(path, label_column=2)
        assert by_position.features.tolist() == [[0.5, 0.25], [1.5, 0.75], [2.5, 1.25]]

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_label_column_is_refused(self, tmp_path, flag):
        path = write(tmp_path, "a,b,label\n1,0,0\n2,1,1\n3,0,0\n")
        with pytest.raises(ValueError, match="label_column"):
            load_csv(path, label_column=flag)

    @pytest.mark.parametrize("value", [1.0, np.float64(2.0), None, [2]])
    def test_non_integer_label_position_is_refused(self, tmp_path, value):
        # before: 1.0 read as a header name ("no column named 1.0"), [2] a TypeError
        path = write(tmp_path, "a,b,label\n1,0,0\n2,1,1\n3,0,0\n")
        with pytest.raises(ValueError, match="label_column"):
            load_csv(path, label_column=value)


class TestNumpyIntegerLabelPosition:
    """A numpy integer is a label position, read as the int of its value on both paths."""

    TEXT = "a,label,b\n1,0,2\n3,1,4\n5,0,6\n"
    POSITIONS = [np.int64(1), np.int32(1), np.int64(-2), np.int32(-2), np.int16(-2)]

    @pytest.mark.parametrize("position", POSITIONS, ids=repr)
    def test_fast_path(self, tmp_path, monkeypatch, position):
        path = write(tmp_path, self.TEXT)
        oracle = per_cell_load_csv(path, int(position))
        monkeypatch.setattr(dataset, "_load_csv_rows", lambda *args: pytest.fail("row path taken"))
        assert_same_dataset(load_csv(path, position), oracle)

    @pytest.mark.parametrize("position", POSITIONS, ids=repr)
    def test_row_path(self, tmp_path, monkeypatch, position):
        path = write(tmp_path, self.TEXT)
        oracle = per_cell_load_csv(path, int(position))
        monkeypatch.setattr(dataset, "_c_reader_rows", lambda path: 0)
        assert_same_dataset(load_csv(path, position), oracle)

    @pytest.mark.parametrize("position", [np.int64(3), np.int32(-4)], ids=repr)
    def test_out_of_range_names_the_int(self, tmp_path, position):
        path = write(tmp_path, self.TEXT)
        with pytest.raises(ColumnNotFoundError, match=f"label column index {int(position)} out"):
            load_csv(path, position)


def many_rows_csv(n_rows):
    """A 3-column table of `n_rows` rows, label in the middle, cells in mixed notations."""
    rng = np.random.default_rng(8192)
    values = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-5, 6, (n_rows, 2))
    labels = rng.integers(0, 2, n_rows)
    lines = ["a,label,b"]
    for (x, y), label in zip(values, labels):
        lines.append(f"{float(x)!r},{label},{y:.6e}")
    return "\n".join(lines) + "\n"


VALID_CSVS = {
    "quoted-cells": ('"a","b","label"\n"1.5","-2",0\n"3","4e2","1"\n', "label"),
    "space-padded-cells": ("a,b,label\n 1 , 2.5 ,0\n3,  4 , 1 \n", "label"),
    "underscore-digits": ("a,label\n1_000,0\n2_0.5,1\n-3,0\n", "label"),
    "exponents": ("a,b,label\n1e-3,-2E+4,1\n.5e1,7e-300,0\n", "label"),
    "minus-zero-and-one-point-zero-labels": ("a,label\n-0,-0\n2,1.0\n3,0.0\n4,1\n", "label"),
    "crlf-line-ends": ("a,b,label\r\n1,2,0\r\n3,4,1\r\n5,6,0\r\n", "label"),
    "label-first": ("label,a,b\n0,1,2\n1,3,4\n0,5,6\n", "label"),
    "label-in-the-middle": ("a,label,b\n1,0,2\n3,1,4\n5,0,6\n", "label"),
    "label-last-by-position": ("a,b,label\n1,2,0\n3,4,1\n5,6,0\n", 2),
    "label-at-a-negative-position": ("a,label,b\n1,0,2\n3,1,4\n5,0,6\n", -2),
    "label-first-by-position": ("y,a,b\n0,1,2\n1,3,4\n", 0),
    "one-feature": ("a,label\n0.25,1\n-1.5,0\n", "label"),
    "more-than-8192-rows": (many_rows_csv(9000), "label"),
}


class TestLoadCsvMatchesPerCellOracle:
    """Both paths of the loader return the per-cell loader's arrays byte for byte."""

    @pytest.mark.parametrize("name", sorted(VALID_CSVS))
    def test_valid_file(self, tmp_path, name):
        text, label_column = VALID_CSVS[name]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_dataset(load_csv(path, label_column), per_cell_load_csv(path, label_column))

    @pytest.mark.parametrize("name", sorted(VALID_CSVS))
    def test_row_path_on_a_valid_file(self, tmp_path, name):
        text, label_column = VALID_CSVS[name]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        oracle = per_cell_load_csv(path, label_column)
        assert_same_dataset(_load_csv_rows(path, label_column), oracle)

    # numpy's C reader refuses "1_000", which float() reads; any other valid
    # file sent to the row path would pass the tests above and only load slower
    @pytest.mark.parametrize("name", sorted(set(VALID_CSVS) - {"underscore-digits"}))
    def test_fast_path_on_a_valid_file(self, tmp_path, monkeypatch, name):
        text, label_column = VALID_CSVS[name]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        oracle = per_cell_load_csv(path, label_column)
        monkeypatch.setattr(dataset, "_load_csv_rows", lambda *args: pytest.fail("row path taken"))
        assert_same_dataset(load_csv(path, label_column), oracle)


class TestLoadCsvErrorOrder:
    """With two faults in one file, the one earlier in the documented order is raised."""

    CASES = {
        "one-data-row-and-no-label-column": (
            "a,b\n1,2\n", EmptyDataError, "need at least 2 data rows, got 1",
        ),
        "bad-cell-row-3-then-ragged-row-5": (
            "a,label\n1,0\nx,1\n4,0\n5,0,9\n",
            FeatureParseError, "row 3, column 'a': 'x' is not numeric",
        ),
        "ragged-row-3-then-bad-cell-row-5": (
            "a,label\n1,0\n2\n4,1\nx,0\n", FeatureParseError, "row 3 has 1 cells, expected 2",
        ),
        "bad-label-and-bad-feature-in-one-row": (
            "a,label\n1,0\nx,2\n3,1\n", LabelDomainError, "row 3 label '2' is not 0 or 1",
        ),
        "inf-and-nan-features": (
            "a,b,label\n1,2,0\ninf,nan,1\n3,4,0\n",
            FeatureParseError, "row 3, column 'a': non-finite value 'inf'",
        ),
        "one-class-only": ("a,label\n1,0\n2,0\n3,0\n", SingleClassError, "single class"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_earlier_fault_wins(self, tmp_path, name):
        text, error, message = self.CASES[name]
        path = write(tmp_path, text)
        with pytest.raises(error, match=message) as got:
            load_csv(path)
        with pytest.raises(error) as want:
            per_cell_load_csv(path)
        assert str(got.value) == str(want.value)


def corpus_text(rng):
    """One small CSV (file bytes, label column) mixing what a task file may and may not hold.

    Header names are unique: the per-cell oracle predates the rule that a label
    name occurring twice is an error.
    """
    def chance(p):
        return rng.random() < p

    def pick(options):
        return options[rng.integers(len(options))]

    width = int(rng.integers(2, 5))
    label_at = int(rng.integers(width))
    header = [f"f{j}" for j in range(width)]
    header[label_at] = "label"
    rows = [header]
    for _ in range(1 if chance(0.05) else int(rng.integers(2, 7))):
        rows.append([
            pick([repr(float(rng.normal())), str(rng.integers(-50, 50)), f"{rng.normal():.3e}"])
            for _ in range(width)
        ])
    one_class = chance(0.05)
    for i, row in enumerate(rows[1:]):
        row[label_at] = str(i) if i < 2 and not one_class else pick(["0", "1"])
        if chance(0.04):
            row[label_at] = pick(["-0", "1.0", "2", "0.5", "nan"])
    quoted, padded = chance(0.3), chance(0.2)
    for row in rows[1:]:
        for j, cell in enumerate(row):
            if padded and chance(0.3):
                cell = pick([" ", "\xa0", "  "]) + cell + pick(["", " ", "\xa0"])
            row[j] = f'"{cell}"' if quoted else cell
    features = [(i, j) for i in range(1, len(rows)) for j in range(width) if j != label_at]
    if chance(0.2):
        # a cell float() reads but the C reader does not, or not within one line
        i, j = features[rng.integers(len(features))]
        rows[i][j] = pick(["1_000", "1_0.5", "١", "-٣.٥", '"3\n"', '"\r\n6"'])
    if chance(0.15):
        i, j = features[rng.integers(len(features))]
        rows[i][j] = pick(
            ["x", "", "inf", "nan", "-inf", "1e400", "1\x1c", '"1,5"', '"4\r\n5"', ' "2"']
        )
    if chance(0.05):
        # a ragged row: one cell more or one fewer
        row = rows[int(rng.integers(1, len(rows)))]
        row.append("7") if chance(0.5) else row.pop()
    if chance(0.03):
        # every data row narrower than the header
        rows[1:] = [row[:-1] for row in rows[1:]]
    lines = [",".join(row) for row in rows]
    if chance(0.06):
        lines.insert(int(rng.integers(1, len(lines) + 1)), pick(["", " ", "  "]))
    line_end = pick(["\n", "\r\n", "\r", "mixed"])
    text = ""
    for i, line in enumerate(lines):
        text += line
        if i < len(lines) - 1 or chance(0.7):
            text += pick(["\n", "\r\n", "\r"]) if line_end == "mixed" else line_end
    data = text.encode("utf-8")
    if chance(0.03):
        data = data.replace(b"1", b"\xff", 1)  # not UTF-8
    if chance(0.2):
        data = b"\xef\xbb\xbf" + data
    return data, pick(["label", label_at, label_at - width])


def load_outcome(load, path, label_column):
    """The dataset `load` returns, or the type and message of what it raises."""
    try:
        return load(path, label_column)
    except DataError as exc:
        return type(exc), str(exc)


class TestLoadCsvDifferentialCorpus:
    """Seeded small files: load_csv agrees with the per-cell oracle on each, valid or not."""

    def test_corpus(self, tmp_path, monkeypatch):
        row_path_calls = []

        def counted_row_path(*args):
            row_path_calls.append(args)
            return _load_csv_rows(*args)

        monkeypatch.setattr(dataset, "_load_csv_rows", counted_row_path)
        rng = np.random.default_rng(1515)
        path = tmp_path / "data.csv"
        tally = {"c-reader": 0, "row-path": 0, "refused": 0}
        for _ in range(400):
            data, label_column = corpus_text(rng)
            path.write_bytes(data)
            calls = len(row_path_calls)
            got = load_outcome(load_csv, path, label_column)
            # the oracle keeps a byte-order mark in the first name: give it the text without
            path.write_bytes(data.removeprefix(b"\xef\xbb\xbf"))
            want = load_outcome(per_cell_load_csv, path, label_column)
            if isinstance(want, tuple):
                assert got == want, data
                tally["refused"] += 1
            else:
                assert isinstance(got, LabeledDataset), (data, got)
                assert_same_dataset(got, want)
                tally["row-path" if len(row_path_calls) > calls else "c-reader"] += 1
        # the corpus reaches every outcome often enough to mean something
        assert min(tally.values()) >= 40, tally

    @pytest.mark.parametrize(
        "text, error",
        [
            ("a,label\n", EmptyDataError),
            ("a,label\n1,0\n", EmptyDataError),
            ("a,label\n\n\n", FeatureParseError),
            ("a,label\r\n\r\n\r\n\r\n", FeatureParseError),
        ],
        ids=["header-only", "one-row", "blank-body", "blank-crlf-body"],
    )
    def test_no_numpy_warning_escapes(self, tmp_path, text, error):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                load_csv(path)


class TestCReaderRows:
    """The line count that guards the C reader's array, against csv's own rows."""

    TEXTS = [
        "a,b\n1,2\n3,4\n",
        "a,b\r\n1,2\r\n3,4",
        "a,b\r1,2\r3,4\r",
        "a,b\r\n1,2\r3,4\n5,6\r\n\r\n",
        "a,b\n\n\n",
        "\r\n",
        "a",
        "",
    ]

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 1 << 20])
    def test_rows_below_the_header(self, tmp_path, monkeypatch, chunk_bytes):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk_bytes)
        for text in self.TEXTS:
            path = tmp_path / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            records = list(csv.reader(io.StringIO(text, newline="")))
            assert _c_reader_rows(path) == max(len(records) - 1, 0), text

    def test_a_lone_cr_does_not_hide_a_blank_line(self, tmp_path):
        # counting \n alone, the lone \r and the blank line the C reader skips cancel out
        path = write(tmp_path, "a,label\r1,0\n\n2,1\n3,0\n")
        with pytest.raises(FeatureParseError, match="row 3 has 0 cells, expected 2"):
            load_csv(path)

    # cells of up to 8 bytes pass a limit of 8, 9 bytes do not, wherever they sit
    FIELD_LIMIT_TEXTS = [
        "a,b\n12345678,1\n",  # a line over the limit, every cell within it
        "a,b\n123456789,1\n",
        "a,b\n1,123456789",
        "a,b\r\n1,2\r\n123456789\r\n",
        "a,b\r1,2\r123456789\r",
        "a,b,c,d,e\n1,2,3,4,5\n6,7,8,9,0\n",  # lines over the limit, short cells
        "abcdefghi,b\n1,2\n",
        "a,b,c,d,label\n1,2,3,4,0\n5,6,7,8,1\n",  # as above, and a valid task
    ]

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 1 << 20])
    def test_cell_over_the_field_limit_gives_no_count(self, tmp_path, monkeypatch, chunk_bytes):
        # 0 where csv refuses a cell or a line is over the limit, else csv's count;
        # a file turned away for a long line still loads, through the row path
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk_bytes)
        old_limit = csv.field_size_limit(8)
        try:
            for text in self.FIELD_LIMIT_TEXTS:
                path = write(tmp_path, text)
                try:
                    records = list(csv.reader(io.StringIO(text, newline="")))
                except csv.Error:
                    assert _c_reader_rows(path) == 0, text
                    continue
                if max(map(len, text.splitlines())) > 8:
                    assert _c_reader_rows(path) == 0, text
                    got = load_outcome(load_csv, path, -1)
                    want = load_outcome(per_cell_load_csv, path, -1)
                    if isinstance(want, tuple):
                        assert got == want, text
                    else:
                        assert_same_dataset(got, want)
                else:
                    assert _c_reader_rows(path) == len(records) - 1, text
        finally:
            csv.field_size_limit(old_limit)

    # read at \n, the whole file is one line over a limit of 8; each lone-\r line fits
    LONE_CR_TEXT = "a,label\r1.5,0\r2.5,1\r3.5,0\r4.5,1\r5.5,0\r"

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, 1 << 20])
    def test_lone_cr_lines_within_the_limit_keep_the_fast_path(
        self, tmp_path, monkeypatch, chunk_bytes
    ):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk_bytes)
        path = write(tmp_path, self.LONE_CR_TEXT)
        old_limit = csv.field_size_limit(8)
        try:
            assert _c_reader_rows(path) == 5
            oracle = per_cell_load_csv(path)
            monkeypatch.setattr(
                dataset, "_load_csv_rows", lambda *args: pytest.fail("row path taken")
            )
            assert_same_dataset(load_csv(path), oracle)
        finally:
            csv.field_size_limit(old_limit)

    def test_separator_bytes_give_no_count(self, tmp_path):
        path = write(tmp_path, "a,label\n1\x1c,0\n2,1\n3,0\n")
        assert _c_reader_rows(path) == 0
        with pytest.raises(FeatureParseError, match=r"'1\\x1c' is not numeric"):
            load_csv(path)


class TestSaveCsv:
    SPECIAL = [5e-324, -0.0, 1.7e308, -1.7e308, math.nextafter(1.0, 2.0), 1e-7]

    @pytest.mark.parametrize("label_column", ["label", "y"])
    def test_bytes_match_the_per_row_writer(self, tmp_path, label_column):
        toy = make_toy(ToySpec(n_majority=560, n_minority=40, seed=3))  # blocks of rows
        special = make_dataset(np.array([self.SPECIAL, self.SPECIAL[::-1]]).T, [0, 1, 1, 0, 1, 0])
        for ds in (toy, special):
            save_csv(ds, tmp_path / "new.csv", label_column)
            per_row_save_csv(ds, tmp_path / "old.csv", label_column)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
            assert_same_dataset(load_csv(tmp_path / "new.csv", label_column), ds)

    @pytest.mark.parametrize("label_column", ["label", "y"])
    def test_load_and_save_again_gives_the_same_bytes(self, tmp_path, label_column):
        toy = make_toy(ToySpec(n_majority=560, n_minority=40, seed=4))
        special = make_dataset(np.array([self.SPECIAL, self.SPECIAL[::-1]]).T, [1, 0, 0, 1, 0, 1])
        for ds in (toy, special):
            save_csv(ds, tmp_path / "first.csv", label_column)
            save_csv(load_csv(tmp_path / "first.csv", label_column), tmp_path / "again.csv",
                     label_column)
            assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_label_named_like_a_feature_is_refused(self, tmp_path):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        with pytest.raises(ValueError, match="'x1' is also a feature name"):
            save_csv(ds, tmp_path / "data.csv", label_column="x1")
        assert not (tmp_path / "data.csv").exists()
        save_csv(ds, tmp_path / "data.csv", label_column="x2")
        assert load_csv(tmp_path / "data.csv", "x2").labels.tolist() == [0, 1]


class TestLoadCsvMemory:
    """Peak traced memory while loading stays a small multiple of the arrays returned."""

    @pytest.mark.parametrize(
        "ds",
        [
            make_toy(ToySpec(n_majority=18000, n_minority=2000, seed=0)),
            make_dataset(
                np.random.default_rng(5).standard_normal((5000, 20)),
                np.random.default_rng(6).integers(0, 2, 5000),
            ),
        ],
        ids=["20000x2", "5000x20"],
    )
    def test_peak_under_eight_times_output(self, tmp_path, ds):
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        tracemalloc.start()
        try:
            back = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (back.features.nbytes + back.labels.nbytes)


class TestDatasetValidation:
    def test_rejects_label_outside_binary(self):
        with pytest.raises(ValueError):
            make_dataset([[1.0], [2.0]], [0, 2])

    @pytest.mark.parametrize(
        "labels",
        [
            [0.5, 1, 0],  # a cast would truncate each of these to 0
            [0.9, 1, 0],
            [1e-300, 1, 0],
            np.array([256, 1, 0]),  # an int8 cast would wrap these to 0 and 1
            np.array([-255, 1, 0]),
            ["0", "1", "0"],  # a cast would parse the strings
            [np.nan, 1, 0],
            [0j, 1, 0],
            np.array([None, 1, 0], dtype=object),
        ],
        ids=["0.5", "0.9", "1e-300", "256", "-255", "strings", "nan", "complex", "object"],
    )
    def test_labels_checked_before_the_cast(self, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledDataset(np.zeros((3, 1)), labels)

    @pytest.mark.parametrize(
        "features",
        [
            np.array([[1 + 2j], [3.0], [4.0]]),  # a cast would drop the imaginary part
            np.array([[1 + 0j], [3.0], [4.0]]),
            [["1.5"], ["2"], ["3"]],
            np.array([[1.0], [None], [3.0]], dtype=object),
        ],
        ids=["complex", "complex-zero-imaginary", "strings", "object"],
    )
    def test_features_checked_before_the_cast(self, features):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(ValueError, match="features must be real numbers"):
                LabeledDataset(features, [0, 1, 0])

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 1, 0],
            np.array([0, 1, 0], dtype=np.uint64),
            [0.0, 1.0, -0.0],
            np.array([0, 1, 0], dtype=np.float16),
            [False, True, False],
        ],
        ids=["int", "uint64", "float", "float16", "bool"],
    )
    def test_real_zero_one_labels_are_accepted(self, labels):
        ds = LabeledDataset(np.array([[1], [2], [3]]), labels)
        assert ds.labels.tolist() == [0, 1, 0] and ds.labels.dtype == np.int8
        assert ds.features.tolist() == [[1.0], [2.0], [3.0]]

    def test_every_dataset_holds_one_byte_labels(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((60, 2))
        labels = np.array([0, 1] * 30)
        built = {
            "int64": LabeledDataset(features, labels.astype(np.int64)),
            "float": LabeledDataset(features, labels.astype(np.float64)),
            "bool": LabeledDataset(features, labels.astype(bool)),
        }
        ds = built["int64"]
        built["subset"] = ds.subset([5, 0, 7, 7])
        for name, part in zip(("train", "valid", "test"), stratified_split(ds, SplitSpec(), 0)):
            built[name] = part
        built["flip-noise"] = inject_flip_noise(ds, 0.2, seed=0)
        built["make_toy"] = make_toy(ToySpec(n_majority=50, n_minority=10))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        built["load_csv-rows"] = _load_csv_rows(path, "label")
        with monkeypatch.context() as m:  # the fast path alone must return the dataset
            m.setattr(dataset, "_load_csv_rows", lambda *args: pytest.fail("row path taken"))
            built["load_csv-fast"] = load_csv(path)
        for name, got in built.items():
            assert got.labels.dtype == np.int8, name
            assert got.labels.nbytes == len(got), name
            assert got.labels.flags.c_contiguous and not got.labels.flags.writeable, name
        for name in ("float", "bool", "load_csv-rows", "load_csv-fast"):
            assert built[name].labels.tobytes() == ds.labels.tobytes(), name

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
        for array, dtype in ((sub.features, np.float64), (sub.labels, np.int8)):
            assert array.dtype == dtype and array.flags.c_contiguous
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            sub.features[0, 0] = 9.0
        assert sub.features.shape == (5, 3) and len(sub) == 5

    def test_subset_gathers_as_fancy_indexing(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng.random((50, 3)), rng.integers(0, 2, 50))
        for idx in ([-1, -50, 3], [42, 7, 7, 0, 19], rng.permutation(50)):
            sub = ds.subset(idx)
            assert sub.features.tobytes() == ds.features[idx].tobytes()
            assert sub.labels.tobytes() == ds.labels[idx].tobytes()
        for idx in ([0, 50], [-51, 1]):
            with pytest.raises(IndexError):
                ds.subset(idx)

    @pytest.mark.parametrize(
        "idx",
        [np.array([False, True, True, True]), [True, False], [0.9, 2.7], np.array([0.0, 2.0])],
        ids=["mask", "bool-list", "floats", "float-array"],
    )
    def test_subset_refuses_a_mask_or_floats(self, idx):
        # before: the mask read as positions 0, 1, 1, 1 and the floats truncated to 0 and 2
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError, match="integer row positions"):
            ds.subset(idx)

    @pytest.mark.parametrize(
        "idx",
        [[1, 2, 3], np.array([1, 2, 3], dtype=np.int32), np.array([1, 2, 3], dtype=np.uint8),
         [-3, -2, -1]],
        ids=["int-list", "int32", "uint8", "negative"],
    )
    def test_subset_takes_any_integer_positions(self, idx):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        sub = ds.subset(idx)
        assert sub.features.ravel().tolist() == [2.0, 3.0, 4.0]
        assert sub.labels.tolist() == [1, 0, 1]

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

    @pytest.mark.parametrize(
        "field, value",
        [("n_majority", 100.5), ("n_majority", 2000.0), ("n_majority", True),
         ("n_minority", 20.5), ("n_minority", 20.0), ("n_minority", np.bool_(True)),
         ("n_minority", "20")],
    )
    def test_non_integer_or_boolean_size_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ToySpec(**{field: value})

    def test_numpy_integer_sizes_are_accepted(self):
        ds = make_toy(ToySpec(np.int64(100), np.int32(20), 0.5, seed=7))
        assert_same_dataset(ds, make_toy(ToySpec(100, 20, 0.5, seed=7)))

    @pytest.mark.parametrize("seed", [2.5, 7.0, True, "7"])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            ToySpec(100, 20, 0.5, seed=seed)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_seed_is_accepted(self, integer):
        assert_same_dataset(
            make_toy(ToySpec(100, 20, 0.5, seed=integer(7))), make_toy(ToySpec(100, 20, 0.5, seed=7))
        )


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

    @pytest.mark.parametrize("ratio", [0.6, 0.7])
    def test_refusal_follows_the_rounded_flip_count(self, ratio):
        # 3 minority rows: round(3 * 0.7) = 2 leaves one row of each class, as 0.6 does
        ds = make_dataset([[float(i)] for i in range(10)], [0] * 7 + [1] * 3)
        out = inject_flip_noise(ds, ratio, seed=0)
        assert np.sum((ds.labels == 1) & (out.labels == 0)) == 2
        assert np.sum((ds.labels == 0) & (out.labels == 1)) == 2

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
