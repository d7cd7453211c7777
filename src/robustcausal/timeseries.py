"""Core time-series containers, validation, preprocessing, and CSV I/O.

A :class:`TimeSeries` is a named 1-D array of finite floats sampled at a
uniform step: a NaN or an infinity raises ``NonFinite`` where it is built.
A :class:`Dataset` bundles series on one time axis and runs ``validate_dataset``
when it is built; ``_check_pair`` checks a link test's pair of loose series.
Preprocessing is limited to the two operations the downstream estimators
expect: linear detrending and removal of a periodic (seasonal) mean cycle.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvFormatError,
    DuplicateName,
    InvalidConfig,
    LagTooLarge,
    LengthMismatch,
    NonFinite,
    TooShort,
    WindowTooLong,
)

__all__ = [
    "TimeSeries",
    "Dataset",
    "PreprocessSpec",
    "validate_dataset",
    "detrend_linear",
    "deseasonalize",
    "apply_preprocess",
    "read_dataset_csv",
    "write_dataset_csv",
]


def _seed_words(parts: tuple[int, ...]) -> np.ndarray:
    """The parts masked to 32 bits, as the ``uint32`` array ``SeedSequence``
    takes without converting each one: the same entropy as the list of the
    masked ints, so the same streams."""
    return np.array([int(p) & 0xFFFFFFFF for p in parts], dtype=np.uint32)


def _rng(*parts: int) -> np.random.Generator:
    """The package's one way to seed randomness: a generator keyed by a
    tuple of integer parts, each masked to 32 bits."""
    return np.random.default_rng(_seed_words(parts))


def _derived_seed(*parts: int) -> int:
    """Scalar 32-bit seed derived from integer parts, each masked to 32 bits."""
    ss = np.random.SeedSequence(_seed_words(parts))
    return int(ss.generate_state(1, np.uint32)[0])


def _read_only(values: np.ndarray) -> np.ndarray:
    """Mark a fresh array, never written again, read-only: ``TimeSeries`` keeps it uncopied."""
    values.flags.writeable = False
    return values


def _check_integer(field: str, value) -> None:
    """An integer (a numpy one too, not a bool), else ``InvalidConfig``
    naming ``field``: the rule for a seed, and the first half of a count's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{field} must be an integer, got {value!r}")


def _check_count(field: str, value, minimum: int, below: type = InvalidConfig) -> None:
    """The package's one rule for a count setting: an integer (a numpy one
    too, not a bool), else ``InvalidConfig``, of at least ``minimum``, else
    ``below``. Both messages name ``field``."""
    _check_integer(field, value)
    if value < minimum:
        raise below(f"{field} must be >= {minimum}, got {value}")


def _check_level(field: str, value, closed: bool = False, floor: float = 0.0) -> None:
    """The package's one rule for a level setting: a real number (a numpy
    one too, not a bool) in (0, 1), or in (0, 1] when ``closed``, and at
    least ``floor`` from 0 and 1; else ``InvalidConfig`` naming ``field``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0.0 < value < 1.0 or closed and value == 1.0)):
        raise InvalidConfig(f"{field} must be in (0, {'1]' if closed else '1)'}, got {value!r}")
    if min(value, 1.0 - value) < floor:
        raise InvalidConfig(f"{field} must be at least {floor:g} from 0 and 1, got {value!r}")


def _typed(obj: dict, key: str, kind: type | tuple[type, ...]):
    """``obj[key]`` if it has the JSON type ``kind``; a boolean is not a number."""
    value = obj[key]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"{key!r} has the wrong JSON type: {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A named, uniformly sampled sequence of finite float values, read-only:
    copied only when the array handed in is writeable, so a window stays a view."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidConfig(f"series {self.name!r} must be 1-D, got shape {values.shape}")
        if values.size < 1:
            raise TooShort(f"series {self.name!r} is empty")
        if not np.isfinite(values).all():
            raise NonFinite(f"series {self.name!r} contains NaN or infinite values")
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __reduce__(self):  # a pickled series, as sent to a worker, is built again
        return _unpickle_series, (self.name, self.values)

    def __len__(self) -> int:
        return self.values.size


def _unpickle_series(name: str, values: np.ndarray) -> TimeSeries:
    """Build a pickled series again around its unpickled array, uncopied."""
    return TimeSeries(name, _read_only(values))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Equally long series on a shared time axis, valid by construction
    (``validate_dataset``); a pickle restores one that was valid when sent."""

    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        validate_dataset(self)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    @property
    def length(self) -> int:
        return len(self.series[0])

    def get(self, name: str) -> TimeSeries:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def window(self, start: int, length: int) -> "Dataset":
        """Contiguous index window [start, start + length) of every series.

        Raises ``WindowTooLong`` unless the window lies inside the record
        and holds at least one point.
        """
        if start < 0 or length < 1 or start + length > self.length:
            raise WindowTooLong(
                f"window [{start}, {start + length}) does not fit in length {self.length}"
            )
        return Dataset(TimeSeries(s.name, s.values[start : start + length]) for s in self.series)


def validate_dataset(d: Dataset) -> Dataset:
    """The dataset rules, in this order; run only by ``Dataset.__post_init__``,
    so every dataset has passed them. Returns the dataset unchanged.

    Raises
    ------
    InvalidConfig
        if fewer than two series are present.
    DuplicateName
        if two series share a name.
    LengthMismatch
        if series lengths differ.
    """
    if len(d.series) < 2:
        raise InvalidConfig("a dataset needs at least 2 series")
    seen = set()
    for s in d.series:
        if s.name in seen:
            raise DuplicateName(f"duplicate series name {s.name!r}")
        seen.add(s.name)
    lengths = {len(s) for s in d.series}
    if len(lengths) != 1:
        raise LengthMismatch(f"series lengths differ: {sorted(lengths)}")
    return d


def _check_pair(x: TimeSeries, y: TimeSeries, lag: int) -> None:
    """The input rule of every public link test: ``x`` and ``y`` are equally
    long, and ``lag`` is a count of at least 1 that leaves aligned samples.
    Both are finite, as every ``TimeSeries`` is."""
    if len(x) != len(y):
        raise LengthMismatch(
            f"series lengths differ: {x.name!r} has {len(x)}, {y.name!r} has {len(y)}"
        )
    _check_count("lag", lag, 1)
    if lag >= len(y):
        raise LagTooLarge(f"lag {lag} leaves no aligned samples for length {len(y)}")


def detrend_linear(s: TimeSeries) -> TimeSeries:
    """Remove the least-squares straight line fitted against the sample index.

    The returned residual series has the same name and length and is exactly
    orthogonal to both the constant and the linear ramp, so applying the
    operation twice is a no-op up to float rounding.
    """
    n = len(s)
    if n < 2:
        raise TooShort(f"series {s.name!r}: need at least 2 points to detrend")
    i = np.arange(n, dtype=float)
    i_centered = i - i.mean()
    v = s.values
    slope = float(np.dot(i_centered, v - v.mean()) / np.dot(i_centered, i_centered))
    intercept = float(v.mean() - slope * i.mean())
    return TimeSeries(s.name, _read_only(v - (intercept + slope * i)))


def deseasonalize(s: TimeSeries, period: int) -> TimeSeries:
    """Subtract the mean of each phase class (indices equal mod ``period``).

    The final cycle may be incomplete; each phase mean is taken over however
    many samples that phase has. ``period`` is a count of at least 2, as 1
    would remove only the mean.
    """
    _check_count("season period", period, 2)
    n = len(s)
    if n < period:
        raise TooShort(
            f"series {s.name!r}: length {n} is shorter than period {period}"
        )
    out = s.values.copy()
    for phase in range(period):
        out[phase::period] -= out[phase::period].mean()
    return TimeSeries(s.name, _read_only(out))


@dataclass(frozen=True)
class PreprocessSpec:
    """Which preprocessing steps to run, applied per variable.

    Detrending runs first, then seasonal-cycle removal when a
    ``season_period`` is set.
    """

    detrend: bool = False
    season_period: int | None = None

    def __post_init__(self):
        if self.season_period is not None:
            _check_count("season period", self.season_period, 2)


def apply_preprocess(d: Dataset, spec: PreprocessSpec) -> Dataset:
    """Apply the configured preprocessing steps to every series."""
    out = []
    for s in d.series:
        if spec.detrend:
            s = detrend_linear(s)
        if spec.season_period is not None:
            s = deseasonalize(s, spec.season_period)
        out.append(s)
    return Dataset(tuple(out))


def read_dataset_csv(path) -> Dataset:
    """Read a dataset from CSV: header row of names, one time step per row.

    The file is UTF-8, with or without a byte-order mark. Values use '.' as
    the decimal mark and ',' as the separator. Blank cells are an error. A
    leading timestamp column named "t" is ignored. Undecodable bytes and
    csv faults (a field over its size limit) raise ``CsvFormatError``.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if not header or all(h == "" for h in header):
        raise CsvFormatError(f"{path}: missing header row")
    skip_first = header and header[0] == "t"
    names = header[1:] if skip_first else header
    if not names:
        raise CsvFormatError(f"{path}: no variable columns")
    columns: list[list[float]] = [[] for _ in names]
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        cells = row[1:] if skip_first else row
        if len(cells) != len(names):
            raise CsvFormatError(
                f"{path}:{lineno}: expected {len(names)} value cells, got {len(cells)}"
            )
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "":
                raise CsvFormatError(f"{path}:{lineno}: blank cell in column {names[j]!r}")
            try:
                columns[j].append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"{path}:{lineno}: non-numeric cell {cell!r} in column {names[j]!r}"
                ) from None
    if not columns[0]:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(TimeSeries(n, _read_only(np.array(c))) for n, c in zip(names, columns))


def write_dataset_csv(d: Dataset, path) -> None:
    """Write the dataset as CSV (header of names, one time step per row).

    The file is UTF-8 without a byte-order mark. Values are written in their
    shortest exact form, so ``read_dataset_csv`` gives back the same names
    and the same floats. Raises ``CsvFormatError`` for a name the reader
    would change: an empty one, one with surrounding whitespace, a first
    name "t", which the reader takes for a timestamp column, or a first name
    that starts with U+FEFF, which the reader takes for a byte-order mark.
    """
    for i, name in enumerate(d.names):
        if (name == "" or name != name.strip()
                or (i == 0 and (name == "t" or name.startswith("\ufeff")))):
            raise CsvFormatError(f"{path}: series name {name!r} would not read back")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(d.names)
        matrix = np.column_stack([s.values for s in d.series])
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])
