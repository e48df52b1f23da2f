"""Dataset container, CSV ingestion, stratified splits, synthetic tasks, label noise.

Binary classification throughout: label 1 is the minority (positive) class,
label 0 the majority. The imbalance ratio is |majority| / |minority|.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

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
from .rng import as_generator

# Geometry of the synthetic task: majority sits on a noisy "∩"-shaped arc band,
# minority is a Gaussian blob whose center slides from the arc's pocket onto the
# band as `overlap` goes 0 -> 1. Blob-center distance to the arc is 1 - overlap.
ARC_RADIUS = 1.0
ARC_NOISE = 0.05
BLOB_STD = 0.15
BLOB_DIRECTION = math.pi / 4


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable (features, labels) pair with labels in {0, 1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
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
        is checked; the arrays are read-only and contiguous, as in any dataset.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or len(idx) < 2:
            raise ValueError(f"need a 1-D index of at least 2 rows, got shape {idx.shape}")
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
    """Train/valid/test fractions; they must be positive and sum to 1."""

    train: float = 0.6
    valid: float = 0.2
    test: float = 0.2

    def __post_init__(self):
        for name, frac in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if not 0.0 < frac < 1.0:
                raise ValueError(f"{name} fraction must be in (0, 1), got {frac}")
        if abs(self.train + self.valid + self.test - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass(frozen=True)
class ToySpec:
    """Synthetic arc-vs-blob task: size, class ratio and boundary overlap."""

    n_majority: int = 2000
    n_minority: int = 200
    overlap: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_minority < 2:
            raise ValueError("need at least 2 minority instances")
        if self.n_majority < self.n_minority:
            raise ValueError("majority class must be at least as large as minority")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")


def load_csv(path, label_column="label") -> LabeledDataset:
    """Read a comma-separated, header-first, UTF-8 table into a dataset.

    `label_column` selects the label by header name or integer position; all
    remaining columns are features. Row order is preserved, and a leading
    byte-order mark (as in Excel's "CSV UTF-8" export) is dropped. A missing
    file raises FileNotFoundError; one that cannot be read as UTF-8 text (a
    directory, say) raises DataError, and one whose header holds no column
    besides the label raises EmptyDataError.

    The rows are parsed in one streaming pass into a single float buffer, so
    memory stays a small multiple of the arrays returned. That pass only
    detects that a file is invalid; `_raise_load_error` then re-reads it to
    name the first fault in a fixed order (see there).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    values = None
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            width = len(header)
            label_idx = _label_index(header, label_column)
            if label_idx is not None and width >= 2:
                cells = itertools.chain.from_iterable(_rows_of_width(reader, width))
                values = np.fromiter(map(float, cells), np.float64).reshape(-1, width)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read as UTF-8 text: {exc}") from None
    except ValueError:  # a ragged row or a cell float() rejects
        pass
    if values is not None and len(values) >= 2:
        labels = values[:, label_idx]
        features = np.delete(values, label_idx, axis=1)
        if (
            np.isin(labels, (0.0, 1.0)).all()
            and np.isfinite(features).all()
            and 0 < np.count_nonzero(labels) < len(labels)
        ):
            return LabeledDataset(features, labels.astype(np.int64))
    _raise_load_error(path, label_column)


def _label_index(header, label_column):
    """Position of `label_column` (a name or an int position) in `header`, or None."""
    if isinstance(label_column, int):
        idx = label_column if label_column >= 0 else len(header) + label_column
        return idx if 0 <= idx < len(header) else None
    return header.index(label_column) if label_column in header else None


def _rows_of_width(reader, width):
    """The rows of `reader`, raising ValueError at the first one not `width` cells wide."""
    for row in reader:
        if len(row) != width:
            raise ValueError(f"row of {len(row)} cells, expected {width}")
        yield row


def _raise_load_error(path: Path, label_column) -> NoReturn:
    """Raise the error of the first fault in a CSV that `load_csv` rejected.

    Re-reads the whole file and checks, in this order: the file is not empty;
    it has at least 2 data rows; the label column exists; some column besides
    it exists; then row by row, each row's width, its label, and its features
    left to right; finally, that both classes occur. Never returns: a file
    that passes every check changed between the two reads, a DataError too.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read as UTF-8 text: {exc}") from None
    if not rows:
        raise EmptyDataError(f"{path}: file is empty")
    header, data = rows[0], rows[1:]
    if len(data) < 2:
        raise EmptyDataError(f"{path}: need at least 2 data rows, got {len(data)}")
    label_idx = _label_index(header, label_column)
    if label_idx is None:
        if isinstance(label_column, int):
            raise ColumnNotFoundError(f"{path}: label column index {label_column} out of range")
        raise ColumnNotFoundError(f"{path}: no column named {label_column!r}")
    if len(header) < 2:
        raise EmptyDataError(f"{path}: no feature columns, only the label column")

    width = len(header)
    classes = set()
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
        classes.add(label_val)
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
    if len(classes) < 2:
        raise SingleClassError(f"{path}: file contains a single class")
    raise DataError(f"{path}: changed while it was being read")


def save_csv(ds: LabeledDataset, path, label_column="label") -> None:
    """Write a dataset as CSV (features x0..x{d-1}, then the label column)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = [f"x{j}" for j in range(ds.n_features)] + [label_column]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def stratified_split(ds: LabeledDataset, spec: SplitSpec, seed):
    """Split into (train, valid, test), each class divided independently.

    Valid and test take floor(n_class * fraction) rows; train keeps the
    remainder, so rounding leftovers always land in train.
    """
    rng = as_generator(seed)
    class_indices = [ds.majority_indices, ds.minority_indices]
    if any(len(idx) == 0 for idx in class_indices):
        raise SingleClassError("stratified split needs both classes")
    parts = {"train": [], "valid": [], "test": []}
    for idx in class_indices:
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
        (np.zeros(spec.n_majority, dtype=np.int64), np.ones(spec.n_minority, dtype=np.int64))
    )
    return LabeledDataset(features, labels)


def inject_flip_noise(ds: LabeledDataset, ratio: float, seed) -> LabeledDataset:
    """Flip m = round(|minority| * ratio) labels in each direction.

    Equal counts swap between the classes, so |P|, |N| and the imbalance ratio
    are preserved exactly. ratio 0 returns the dataset unchanged.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"noise ratio must be in [0, 1), got {ratio}")
    p_idx, n_idx = ds.minority_indices, ds.majority_indices
    if len(p_idx) == 0 or len(n_idx) == 0:
        raise SingleClassError("flip noise needs both classes")
    if math.ceil(len(p_idx) * ratio) > min(len(p_idx) - 1, len(n_idx) - 1):
        raise ClassTooSmallError(
            f"ratio {ratio} would flip an entire class ({len(p_idx)} minority, {len(n_idx)} majority)"
        )
    m = int(math.floor(len(p_idx) * ratio + 0.5))
    if m == 0:
        return ds
    rng = as_generator(seed)
    flip_to_majority = rng.choice(p_idx, size=m, replace=False)
    flip_to_minority = rng.choice(n_idx, size=m, replace=False)
    labels = ds.labels.copy()
    labels[flip_to_majority] = 0
    labels[flip_to_minority] = 1
    return LabeledDataset(ds.features, labels)
