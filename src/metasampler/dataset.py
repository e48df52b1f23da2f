"""Dataset container, CSV ingestion, stratified splits, synthetic tasks, label noise.

Binary classification throughout: label 1 is the minority (positive) class,
label 0 the majority. The imbalance ratio is |majority| / |minority|.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ClassTooSmallError,
    ColumnNotFoundError,
    DataError,
    EmptyDataError,
    FeatureParseError,
    LabelDomainError,
    SingleClassError,
)
from .rng import as_generator, check_float, check_integer

# geometry of the synthetic task; see make_toy
ARC_RADIUS = 1.0
ARC_NOISE = 0.05
BLOB_STD = 0.15
BLOB_DIRECTION = math.pi / 4

# dtype kinds a dataset accepts: bool, signed and unsigned integer, real float
_REAL_KINDS = "biuf"


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable (features, labels) pair with labels in {0, 1}.

    Features are stored as float64 and labels as int8, one byte per row, so a
    row of d features costs 8·d + 1 bytes. Both arrays are contiguous and
    read-only. The given arrays are checked before they are cast: features
    must have a bool, integer or real-float dtype, labels too, and every
    label must equal 0 or 1. Anything else (a label of 0.5 or 256, a string
    label, a complex feature) is a ValueError, never a silent rounding.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features, labels = np.asarray(self.features), np.asarray(self.labels)
        if features.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"features must be real numbers, got dtype {features.dtype}")
        if labels.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"labels must be 0 or 1, got dtype {labels.dtype}")
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 2:
            raise ValueError(f"need at least 2 rows, got {n}")
        if d < 1:
            raise ValueError("need at least 1 feature")
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match {n} rows")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        labels = np.ascontiguousarray(labels, dtype=np.int8)
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def minority_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    @property
    def majority_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 0)

    def class_indices(self, needed_by: str):
        """(minority, majority) indices; else SingleClassError "<needed_by> needs both classes"."""
        minority, majority = self.minority_indices, self.majority_indices
        if len(minority) == 0 or len(majority) == 0:
            raise SingleClassError(f"{needed_by} needs both classes")
        return minority, majority

    @property
    def minority_count(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def majority_count(self) -> int:
        return int(np.count_nonzero(self.labels == 0))

    @property
    def imbalance_ratio(self) -> float:
        if self.minority_count == 0:
            raise SingleClassError("imbalance ratio undefined without minority instances")
        return self.majority_count / self.minority_count

    def subset(self, indices) -> "LabeledDataset":
        """The rows at `indices`, in that order.

        The rows were validated when this dataset was built, so only the index
        is checked: integer positions (negative ones count from the end), not a
        boolean mask or floats. The arrays are read-only and contiguous, as in
        any dataset.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or len(idx) < 2:
            raise ValueError(f"need a 1-D index of at least 2 rows, got shape {idx.shape}")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"need integer row positions, got dtype {idx.dtype}")
        sub = object.__new__(LabeledDataset)
        for name, values in (
            ("features", np.take(self.features, idx, axis=0)),
            ("labels", np.take(self.labels, idx)),
        ):
            values.setflags(write=False)
            object.__setattr__(sub, name, values)
        return sub


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions; each must be a real number in (0, 1), and they must sum to 1."""

    train: float = 0.6
    valid: float = 0.2
    test: float = 0.2

    def __post_init__(self):
        for name in ("train", "valid", "test"):
            check_float(f"{name} fraction", getattr(self, name), "(0, 1)")
        if abs(self.train + self.valid + self.test - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass(frozen=True)
class ToySpec:
    """Synthetic arc-vs-blob task: integer class sizes and seed, a real overlap in [0, 1]."""

    n_majority: int = 2000
    n_minority: int = 200
    overlap: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_majority", None), ("n_minority", 2), ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        if self.n_majority < self.n_minority:
            raise ValueError("majority class must be at least as large as minority")
        check_float("overlap", self.overlap, "[0, 1]")


def load_csv(path, label_column="label") -> LabeledDataset:
    """Read a comma-separated, header-first, UTF-8 table into a dataset.

    `label_column` names the label's header, which must occur exactly once
    (else ColumnNotFoundError), or gives its integer position (a numpy integer
    too); any other value, such as True or 1.0, raises ValueError. The other
    columns are features, rows keep their order, and a leading byte-order mark
    (as in Excel's "CSV UTF-8" export) is dropped. A missing file raises
    FileNotFoundError, one that is not UTF-8 text (a directory, say)
    DataError, and one with no column besides the label EmptyDataError.

    numpy's C reader parses the text after the header in one call; its array
    is used only when it has one row per line (`_c_reader_rows`), both classes,
    and `LabeledDataset` accepts it. Any other file goes to `_load_csv_rows`,
    the row-by-row reference, so both paths give the arrays `float()` makes of
    each cell or the error of the file's first fault (BENCH_load_csv.json).
    """
    if not isinstance(label_column, str):
        label_column = check_integer("label_column", label_column)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    values = None
    try:
        rows = _c_reader_rows(path)
        with path.open(newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), [])
            label_idx = _label_index(header, label_column)
            if rows >= 2 and label_idx is not None and len(header) >= 2:
                with warnings.catch_warnings():
                    # a body of blank lines alone is no data to numpy, which warns;
                    # the shape check below turns that file away
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(
                        fh, delimiter=",", quotechar='"', comments=None,
                        dtype=np.float64, ndmin=2,
                    )
    except OSError as exc:
        raise DataError(f"{path}: cannot read as UTF-8 text: {exc}") from None
    except (ValueError, csv.Error):  # bad UTF-8, a ragged row, a cell csv or numpy refuses
        pass
    if values is not None and values.shape == (rows, len(header)):
        labels = values[:, label_idx]
        if 0 < np.count_nonzero(labels) < len(labels):
            try:
                return LabeledDataset(np.delete(values, label_idx, axis=1), labels)
            except ValueError:  # a label other than 0 or 1, a non-finite feature
                pass
    return _load_csv_rows(path, label_column)


_CHUNK_BYTES = 1 << 20
# ASCII separators: numpy's C reader strips them around a number as
# whitespace, but float() refuses them
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_reader_rows(path: Path) -> int:
    """Lines below the header in `path`, as csv splits them, or 0 for no usable count.

    Lines end at \\n, \\r\\n or a lone \\r, in csv and numpy's C reader alike.
    That reader skips a blank line, which csv reads as a row of no cells, and
    joins a quoted line break into one row, as csv does; either leaves it
    fewer rows than this count, so a C-reader array with exactly this many rows
    holds csv's rows. 0 for a file holding a byte in _SEPARATOR_BYTES, or a line
    longer than `csv.field_size_limit()` bytes, which may hold a cell csv
    refuses and numpy's reader takes. Line lengths are measured at \\n, or at
    \\r in a chunk without \\n; a lone \\r elsewhere only lengthens a line.
    """
    ends, last, offset, longest_line, line_start = 0, b"", 0, 0, 0
    with path.open("rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            if any(byte in chunk for byte in _SEPARATOR_BYTES):
                return 0
            buf = np.frombuffer(chunk, np.uint8)
            at = np.flatnonzero(buf == ord("\n"))
            ends += len(at)
            if b"\r" in chunk:
                ends += chunk.count(b"\r") - chunk.count(b"\r\n")
                if not len(at):  # each \r here ends a line, alone or before a \n
                    at = np.flatnonzero(buf == ord("\r"))
            if last == b"\r" and chunk.startswith(b"\n"):
                ends -= 1  # a \r\n split between two chunks
            if len(at):
                at += offset
                longest_line = max(
                    longest_line, int(at[0]) - line_start, int(np.diff(at).max(initial=1)) - 1
                )
                line_start = int(at[-1]) + 1
            last = chunk[-1:]
            offset += len(chunk)
    if max(longest_line, offset - line_start) > csv.field_size_limit():
        return 0
    lines = ends + (last not in (b"", b"\n", b"\r"))
    return max(lines - 1, 0)


def _label_index(header, label_column):
    """Position of `label_column` (a name or an int position) in `header`, or None.

    None also for a name that occurs more than once.
    """
    if isinstance(label_column, int):
        idx = label_column if label_column >= 0 else len(header) + label_column
        return idx if 0 <= idx < len(header) else None
    return header.index(label_column) if header.count(label_column) == 1 else None


def _load_csv_rows(path: Path, label_column) -> LabeledDataset:
    """Read a CSV row by row with `float()` per cell: the reference path of `load_csv`.

    Reads the whole file, then checks, in this order: the file is not empty;
    it has at least 2 data rows; the label column exists (and a name occurs
    once); some column besides it exists; then row by row, each row's width,
    its label, and its features left to right; finally, that both classes
    occur. Raises the error of the first check that fails.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read as UTF-8 text: {exc}") from None
    except csv.Error as exc:  # a cell over csv's field size limit, say
        raise DataError(f"{path}: cannot read as CSV: {exc}") from None
    if not rows:
        raise EmptyDataError(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if len(data) < 2:
        raise EmptyDataError(f"{path}: need at least 2 data rows, got {len(data)}")
    label_idx = _label_index(header, label_column)
    if label_idx is None:
        if isinstance(label_column, int):
            raise ColumnNotFoundError(f"{path}: label column index {label_column} out of range")
        if label_column in header:
            raise ColumnNotFoundError(
                f"{path}: {header.count(label_column)} columns named {label_column!r}"
            )
        raise ColumnNotFoundError(f"{path}: no column named {label_column!r}")
    if len(header) < 2:
        raise EmptyDataError(f"{path}: no feature columns, only the label column")

    width = len(header)
    features = np.empty((len(data), width - 1), dtype=np.float64)
    labels = np.empty(len(data), dtype=np.int8)
    for i, row in enumerate(data):
        if len(row) != width:
            raise FeatureParseError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")
        cell = row[label_idx]
        try:
            label_val = float(cell)
        except ValueError:
            raise LabelDomainError(f"{path}: row {i + 2} label {cell!r} is not 0 or 1") from None
        if label_val not in (0.0, 1.0):
            raise LabelDomainError(f"{path}: row {i + 2} label {cell!r} is not 0 or 1")
        labels[i] = label_val
        values = []
        for j, raw in enumerate(row):
            if j == label_idx:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise FeatureParseError(
                    f"{path}: row {i + 2}, column {header[j]!r}: {raw!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise FeatureParseError(
                    f"{path}: row {i + 2}, column {header[j]!r}: non-finite value {raw!r}"
                )
            values.append(value)
        features[i] = values
    if np.all(labels == labels[0]):
        raise SingleClassError(f"{path}: file contains a single class")
    return LabeledDataset(features, labels)


_SAVE_BLOCK_ROWS = 256


def save_csv(ds: LabeledDataset, path, label_column="label") -> None:
    """Write a dataset as CSV (features x0..x{d-1}, then the label column).

    Each feature is written as `repr(float)`, which reads back to the same
    bits, and each label as 0 or 1. A `label_column` equal to one of the
    feature names is a ValueError: the file could not be read back.
    """
    names = [f"x{j}" for j in range(ds.n_features)]
    if label_column in names:
        raise ValueError(f"label column {label_column!r} is also a feature name")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + [label_column])
        # a few rows at a time: the lists of all rows would raise peak RSS (BENCH_load_csv.json)
        for start in range(0, len(ds), _SAVE_BLOCK_ROWS):
            block = slice(start, start + _SAVE_BLOCK_ROWS)
            rows = ds.features[block].tolist()
            for row, label in zip(rows, ds.labels[block].tolist()):
                row.append(label)
            writer.writerows(rows)


def stratified_split(ds: LabeledDataset, spec: SplitSpec, seed):
    """Split into (train, valid, test), each class divided independently.

    Valid and test take floor(n_class * fraction) rows; train keeps the
    remainder, so rounding leftovers always land in train.
    """
    rng = as_generator(seed)
    minority, majority = ds.class_indices("a stratified split")
    parts = {"train": [], "valid": [], "test": []}
    for idx in (majority, minority):
        idx = rng.permutation(idx)
        n_c = len(idx)
        n_valid = math.floor(n_c * spec.valid)
        n_test = math.floor(n_c * spec.test)
        n_train = n_c - n_valid - n_test
        if min(n_train, n_valid, n_test) == 0:
            raise ClassTooSmallError(
                f"class with {n_c} instances cannot cover all three splits"
            )
        parts["train"].append(idx[:n_train])
        parts["valid"].append(idx[n_train:n_train + n_valid])
        parts["test"].append(idx[n_train + n_valid:])
    return tuple(
        ds.subset(np.concatenate(parts[name])) for name in ("train", "valid", "test")
    )


def make_toy(spec: ToySpec) -> LabeledDataset:
    """Generate the synthetic arc-vs-blob task.

    Majority points sit on an arc band of radius 1 (angle uniform on [0, pi],
    radial noise sigma 0.05); minority points form an isotropic Gaussian blob
    (sigma 0.15) centered `overlap` of the way from the origin to the arc along
    the 45-degree ray. overlap 0 leaves a wide margin, overlap 1 puts the blob
    center on the band.
    """
    rng = as_generator(spec.seed)
    angles = rng.uniform(0.0, math.pi, spec.n_majority)
    radii = ARC_RADIUS + rng.normal(0.0, ARC_NOISE, spec.n_majority)
    majority = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))

    center = spec.overlap * ARC_RADIUS * np.array(
        [math.cos(BLOB_DIRECTION), math.sin(BLOB_DIRECTION)]
    )
    minority = center + rng.normal(0.0, BLOB_STD, (spec.n_minority, 2))

    features = np.vstack((majority, minority))
    labels = np.concatenate(
        (np.zeros(spec.n_majority, dtype=np.int8), np.ones(spec.n_minority, dtype=np.int8))
    )
    return LabeledDataset(features, labels)


def inject_flip_noise(ds: LabeledDataset, ratio: float, seed) -> LabeledDataset:
    """Flip m = round(|minority| * ratio) labels in each direction.

    Equal counts swap between the classes, so |P|, |N| and the imbalance ratio
    are preserved exactly. ratio 0 returns the dataset unchanged.
    """
    check_float("noise ratio", ratio, "[0, 1)")
    p_idx, n_idx = ds.class_indices("flip noise")
    m = int(math.floor(len(p_idx) * ratio + 0.5))
    if m > min(len(p_idx) - 1, len(n_idx) - 1):
        raise ClassTooSmallError(
            f"ratio {ratio} would flip an entire class ({len(p_idx)} minority, {len(n_idx)} majority)"
        )
    if m == 0:
        return ds
    rng = as_generator(seed)
    flip_to_majority = rng.choice(p_idx, size=m, replace=False)
    flip_to_minority = rng.choice(n_idx, size=m, replace=False)
    labels = ds.labels.copy()
    labels[flip_to_majority] = 0
    labels[flip_to_minority] = 1
    return LabeledDataset(ds.features, labels)
