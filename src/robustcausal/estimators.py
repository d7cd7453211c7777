"""Histogram-based information estimators: entropy, mutual information,
and lagged transfer entropy on a shared equal-width binning.

Binning policy
--------------
All variables of a system are discretized with the *same* number of bins.
Per variable, Scott's rule gives a bin width ``3.5 * std / l**(1/3)`` and a
count ``ceil((max - min) / width)``; the system-wide count is the minimum
over variables. Each variable then gets its own equally spaced edges over
its observed range, rightmost edge inclusive. A constant variable is left
out of the minimum, and all its samples share one bin. Every series is
finite, since a ``TimeSeries`` with a NaN or an infinity cannot be built.

Estimators
----------
Entropies are Shannon entropies in bits (log base 2), with empty bins
contributing zero. Every information statistic is one estimator, the
conditional mutual information of aligned code arrays A, B and C (``_cmi``):

    I(A; C | B) = -H(B) + H(A, B) + H(B, C) - H(A, B, C)

Without a B it is the mutual information ``I(A; C) = H(A) + H(C) - H(A, C)``
(the lagged-MI gate); transfer entropy from a source X to a target Y at lag
tau takes ``A = x[t - tau]``, ``B = y[t - tau]`` and ``C = y[t]``, so
``TE = I(X_past ; Y_now | Y_past)``.

Surrogate batches
-----------------
The (B, C) side of a statistic does not depend on A, so it is computed
once and shared (``_given``): the aligned codes, their flat index ``base``
(C for the gate, ``B * m + C`` for the TE stage) and the entropies H(B)
and H(B, C). The link tests on one record share it through
``significance._record``, which builds it once per (target, lag), and
H(X_past) once per (source, lag): for a graph's k(k-1)L candidate tests,
for an error-rate trial's two lags and for one ``te_link_test``. ``_cmi``
then counts only the observed joint and returns a ``count`` function that evaluates the
statistic with each shuffled source in place of A, as often as a caller
asks for a further chunk of rows.

``count`` takes its rows in the form the link test draws them: row j holds
the source codes times m plus ``m * m * j``. So the flat index of its
``bincount``, ``a * m * nb + base + j * cells`` over
``cells = m * nb * m`` cells (nb = 1 without a B, else m), is one add for
the gate, ``rows + base``, and a multiply and an add for the stage,
``rows * m + base``. A part of the rows that starts at row s adds
``base - s * cells`` instead. One offset ``bincount`` counts many rows,
and their row entropies are taken at once (``_entropy_bits_rows``). The
index is built in place in a scratch buffer, the link test draws its
shuffled rows into another, and it keeps a source's offset rows in a third
(``_scratch_buffer``). Each thread owns its buffers (``threading.local``),
so concurrent callers never share one. Each only grows, so a run of tests
allocates it once, where a fresh array above glibc's default ``mmap``
threshold of 128 KiB (a 1000-point record's chunk of 30 rows is 240 KB)
can cost a fresh mapping and its page faults every time. The index buffer
grows up to ``_INDEX_BUFFER_CAP`` (2**20) elements, 8 MB of ``intp`` per
thread: a bank is counted in chunks of rows small enough for that cap and
for ``_BATCH_CELL_BUDGET`` (2**16) histogram cells, 512 KB of counts plus
512 KB of ``p * log2(p)`` terms, and only a single row longer than the cap
makes the buffer larger. The bank buffer holds the largest bank drawn on
its thread, ``n_surrogates`` times the record length, and the offset
rows its largest chunk, 4n/10 of the n rows (312 KiB at 100 surrogates on
a 1000-point record). Chunking does not change any row's value. Each row's
(A, B) marginal, its counts summed over C, is an ``einsum`` over the last
axis of the integer counts; integer sums are exact, so it equals the
``sum`` over C element for element.

All rows of a batch count the same aligned samples, so they share one
total N. Each count n is looked up in ``_plogp_table(N)``, the terms
``p * log2(p)`` at ``p = n / N`` (0 at n = 0), computed once per N by the
same float operations as the direct formula, and each row sums its terms
in cell order. So the result is bit-identical to ``-sum(p * log2(p))``
over the nonzero cells, not merely close to it.

The observed value keeps the dot-product form (``_entropy_bits``). The two
forms can differ in the last bit of the same histogram, so each keeps its
own: merging them would change observed values and with them the graphs
already written. Every shared entropy is ``_entropy_bits`` of the same
integer counts, in the same cell order, as the marginal of the observed
joint, and every index counts the same cells, so sharing changes no value,
observed or surrogate, in any bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (DegenerateBins, EmptyHistogram, InvalidConfig, VariableMismatch,
                     ZeroVariance)
from .timeseries import Dataset, TimeSeries, _check_count, _check_pair

__all__ = [
    "BinningSpec",
    "scott_bin_width",
    "variable_bin_count",
    "transfer_entropy",
]


def scott_bin_width(s: TimeSeries) -> float:
    """Scott's-rule bin width ``3.5 * std / l**(1/3)`` (sample std, ddof=1).

    A constant (or single-point) series yields width 0.0; callers that need
    a usable bin count must treat that as a zero-variance condition.
    """
    n = len(s)
    if n < 2:
        return 0.0
    sigma = float(s.values.std(ddof=1))
    return 3.5 * sigma / n ** (1.0 / 3.0)


def variable_bin_count(s: TimeSeries) -> int:
    """Bin count for one variable: ``ceil(range / scott_bin_width)``.

    Raises
    ------
    ZeroVariance
        if the series is constant (width 0).
    DegenerateBins
        if the count comes out below 2.
    """
    width = scott_bin_width(s)
    if width == 0.0:
        raise ZeroVariance(f"series {s.name!r} has zero variance")
    spread = float(s.values.max() - s.values.min())
    count = math.ceil(spread / width)
    if count < 2:
        raise DegenerateBins(
            f"series {s.name!r}: Scott's rule yields {count} bin(s), need at least 2"
        )
    return count


@dataclass(frozen=True, eq=False)
class BinningSpec:
    """A shared bin count plus per-variable equally spaced edges.

    ``edges[name]`` has ``bin_count + 1`` finite, nondecreasing entries
    spanning the observed range of that variable, kept as the float array
    that was checked. Values are assigned by half-open bins with the
    rightmost edge inclusive, so every observed value lands in exactly one
    of the ``bin_count`` bins.
    """

    bin_count: int
    edges: dict[str, np.ndarray]

    def __post_init__(self):
        _check_count("bin_count", self.bin_count, 2, below=DegenerateBins)
        checked = {}
        for name, e in self.edges.items():
            e = np.asarray(e, dtype=float)
            if e.shape != (self.bin_count + 1,):
                raise InvalidConfig(
                    f"edges for {name!r} must have {self.bin_count + 1} entries"
                )
            if not (np.isfinite(e).all() and (np.diff(e) >= 0).all()):
                raise InvalidConfig(f"edges for {name!r} must be finite and nondecreasing")
            checked[name] = e
        object.__setattr__(self, "edges", checked)

    @classmethod
    def from_dataset(cls, d: Dataset, bin_count: int | None = None) -> "BinningSpec":
        """Build a spec for a dataset, deriving the count by Scott's rule
        unless ``bin_count`` forces one.

        A constant variable does not abort the derivation: it is skipped for
        the count minimum and gets synthetic edges around its single value
        (all its samples land in one bin, so its entropy is zero). Without a
        forced count at least one variable must still vary.
        """
        if bin_count is None:
            counts = []
            for s in d.series:
                try:
                    counts.append(variable_bin_count(s))
                except ZeroVariance:
                    pass
            if not counts:
                raise ZeroVariance("every variable in the dataset is constant")
            m = min(counts)
        else:
            _check_count("bin_count", bin_count, 2, below=DegenerateBins)
            m = bin_count
        edges = {}
        for s in d.series:
            lo, hi = float(s.values.min()), float(s.values.max())
            if hi == lo:
                lo, hi = lo - 0.5, hi + 0.5
            edges[s.name] = np.linspace(lo, hi, m + 1)
        return cls(m, edges)

    def digitize(self, s: TimeSeries) -> np.ndarray:
        """Map values to bin indices in ``[0, bin_count)``.

        Bins are half-open on the right except the last, which includes its
        right edge. Values outside the edge span fall into the nearest end
        bin: a value's bin is the number of inner edges at or below it.
        Raises ``VariableMismatch`` for a series the spec has no edges for.
        """
        try:
            e = self.edges[s.name]
        except KeyError:
            raise VariableMismatch(f"binning spec has no edges for series {s.name!r}") from None
        return np.searchsorted(e[1:-1], s.values, side="right")


# Cap on the surrogate-batch histogram cells held at once: 512 KB of int64
# counts plus 512 KB of float64 ``p * log2(p)`` terms per chunk. A TE-stage
# bank of 100 rows at m = 19 (6,859 cells a row) runs in 12 chunks of 9
# rows; an MI-gate bank of 100 rows stays whole up to m = 25.
_BATCH_CELL_BUDGET = 1 << 16

# Cap on the elements of one thread's index buffer (8 MB of intp); a bank
# whose rows are longer than this is indexed one row at a time.
_INDEX_BUFFER_CAP = 1 << 20

_scratch = threading.local()


def _scratch_buffer(name: str, size: int) -> np.ndarray:
    """The first ``size`` elements of this thread's grow-only ``intp``
    scratch buffer ``name``, the package's one kind of scratch memory:
    ``"index"`` holds a row bank's flat histogram index (``_cmi``),
    ``"bank"`` the shuffled source codes of a link test and ``"fill"`` the
    unshuffled offset rows they are copied from (``significance``)."""
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.intp)
        setattr(_scratch, name, buf)
    return buf[:size]


def _joint_counts(codes: list[np.ndarray], m: int) -> np.ndarray:
    """Flat joint counts (length m**k) of k aligned code arrays."""
    combined = codes[0]
    for c in codes[1:]:
        combined = combined * m + c
    return np.bincount(combined, minlength=m ** len(codes))


def _entropy_bits(counts: np.ndarray) -> float:
    """Shannon entropy in bits of one count table (any shape)."""
    flat = np.asarray(counts).ravel()
    total = flat.sum()
    if total <= 0:
        raise EmptyHistogram("histogram has zero total count")
    p = flat[flat > 0] / float(total)
    return float(-np.dot(p, np.log2(p)))


@lru_cache(maxsize=64)
def _plogp_table(total: int) -> np.ndarray:
    """``p * log2(p)`` at ``p = n / total`` for every count ``n`` in
    ``0..total``, with 0 at ``n = 0``; read-only, shared between calls."""
    p = np.arange(1, total + 1) / float(total)
    table = np.zeros(total + 1)
    table[1:] = p * np.log2(p)
    table.flags.writeable = False
    return table


def _entropy_bits_rows(rows: np.ndarray, total: int) -> np.ndarray:
    """Row-wise Shannon entropy in bits of a (n, cells) count matrix whose
    rows all sum to ``total``."""
    return -_plogp_table(total)[rows].sum(axis=1)


@dataclass(frozen=True, eq=False)
class _Given:
    """The side of ``I(A; C | B)`` that every A shares: the aligned code
    arrays ``codes``, (C) or (B, C), their flat index ``base`` (C, or
    ``B * m + C``), and the entropies ``h_b`` of B (0 without one) and
    ``h_bc`` of (B, C)."""

    codes: tuple[np.ndarray, ...]
    base: np.ndarray
    h_b: float
    h_bc: float


def _given(b: np.ndarray | None, c: np.ndarray, m: int) -> _Given:
    """The shared side of aligned codes ``b`` (None for no B) and ``c``."""
    if b is None:
        return _Given((c,), c, 0.0, _entropy_bits(_joint_counts([c], m)))
    h_b = _entropy_bits(_joint_counts([b], m))
    return _Given((b, c), b * m + c, h_b, _entropy_bits(_joint_counts([b, c], m)))


def _cmi(
    a: np.ndarray, given: _Given, m: int, h_ab: float | None = None
) -> tuple[float, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """``I(A; C | B)`` in bits of aligned code arrays, ``I(A; C)`` when
    ``given`` has no B, clamped at 0, and ``count(rows, out)``, which writes
    to ``out`` and returns the statistic with each row of ``rows`` in place
    of ``a``, clamped at 0 and counted in row chunks. ``h_ab`` is H(A, B)
    if the caller knows it, else the joint gives it. Each row of ``rows``
    holds codes times m plus m * m times its index in ``rows``, the form the
    link test's bank is drawn in (see the module docstring)."""
    nb = m ** (len(given.codes) - 1)
    cells = m * nb * m
    joint = _joint_counts([a, *given.codes], m)
    if h_ab is None:
        h_ab = _entropy_bits(joint.reshape(m * nb, m).sum(axis=1))
    h_b, h_bc, base = given.h_b, given.h_bc, given.base
    observed = max(0.0, -h_b + h_ab + h_bc - _entropy_bits(joint))

    def count(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        n_rows, n = rows.shape
        chunk = max(1, min(n_rows, _BATCH_CELL_BUDGET // cells, _INDEX_BUFFER_CAP // n))
        for start in range(0, n_rows, chunk):
            part = rows[start : start + chunk]
            n_part = part.shape[0]
            flat = _scratch_buffer("index", n_part * n).reshape(n_part, n)
            # row j carries m * m * j, times nb j * cells: a part that starts
            # at row ``start`` counts its rows from cell 0
            shifted = base - start * cells if start else base
            if nb == 1:
                np.add(part, shifted, out=flat)
            else:
                np.multiply(part, nb, out=flat)
                flat += shifted
            counts = np.bincount(flat.ravel(), minlength=n_part * cells).reshape(n_part, cells)
            h_abc_s = _entropy_bits_rows(counts, base.size)
            ab_counts = np.einsum("ijk->ij", counts.reshape(n_part, m * nb, m))
            h_ab_s = _entropy_bits_rows(ab_counts, base.size)
            out[start : start + n_part] = -h_b + h_ab_s + h_bc - h_abc_s
        np.maximum(out, 0.0, out=out)
        return out

    return observed, count


def _te_from_codes(cx: np.ndarray, cy: np.ndarray, lag: int, m: int) -> float:
    """Transfer entropy in bits from full-length code arrays.

    Alignment: source past ``cx[: l - lag]``, target past ``cy[: l - lag]``,
    target present ``cy[lag :]``.
    """
    keep = cx.size - lag
    return _cmi(cx[:keep], _given(cy[:keep], cy[lag:], m), m)[0]


def transfer_entropy(x: TimeSeries, y: TimeSeries, lag: int, spec: BinningSpec) -> float:
    """Binned transfer entropy from ``x`` to ``y`` at a positive lag, in bits.

    Both the source history and the target history use the same lag. The
    value equals the conditional mutual information
    ``I(x[t - lag]; y[t] | y[t - lag])`` of the aligned empirical joint
    distribution, so it is nonnegative up to rounding (clamped to 0) and
    bounded above by ``min(H(X), H(Y))`` over the aligned window. Input
    faults raise as ``timeseries._check_pair`` says.
    """
    _check_pair(x, y, lag)
    return _te_from_codes(spec.digitize(x), spec.digitize(y), lag, spec.bin_count)
