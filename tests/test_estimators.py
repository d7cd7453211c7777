import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcausal import estimators
from robustcausal.errors import (
    DegenerateBins,
    EmptyHistogram,
    InvalidConfig,
    LagTooLarge,
    LengthMismatch,
    VariableMismatch,
    ZeroVariance,
)
from robustcausal.estimators import (
    BinningSpec,
    _cmi,
    _entropy_bits,
    _entropy_bits_rows,
    _given,
    _joint_counts,
    scott_bin_width,
    transfer_entropy,
    variable_bin_count,
)
from robustcausal.graph import build_graph
from robustcausal.significance import SurrogateConfig, te_link_test
from robustcausal.timeseries import Dataset, TimeSeries


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def _mi(x, y, spec):
    """I(X; Y) in bits by the kernel, with x in the A slot and y in C."""
    m = spec.bin_count
    return _cmi(spec.digitize(x), _given(None, spec.digitize(y), m), m)[0]


def _bank_form(rows, m):
    """Shuffled code rows in the form ``count`` takes, the one the link
    test draws its bank in: codes times m plus m * m times the row index."""
    return rows * m + (np.arange(rows.shape[0]) * (m * m))[:, None]


def _symmetry_tolerance(m):
    """Bound on |I(X; Y) - I(Y; X)|: swapping the arguments only reorders
    the summed ``p * log2(p)`` terms of H(X, Y), at most m**2 terms whose
    magnitudes sum to H(X, Y) <= log2(m**2) bits."""
    cells = m * m
    return cells * np.finfo(float).eps * math.log2(cells)


def _brute_cmi(a, b, c, m):
    """I(A; C | B) in bits from enumerated joint probabilities of code triples."""
    p = np.zeros((m, m, m))
    for ai, bi, ci in zip(a, b, c):
        p[ai, bi, ci] += 1.0
    p /= p.sum()
    p_b = p.sum(axis=(0, 2))
    p_ab = p.sum(axis=2)
    p_bc = p.sum(axis=0)
    total = 0.0
    for ai in range(m):
        for bi in range(m):
            for ci in range(m):
                q = p[ai, bi, ci]
                if q > 0:
                    total += q * math.log2(q * p_b[bi] / (p_ab[ai, bi] * p_bc[bi, ci]))
    return total


def test_scott_width_hand_value():
    # eight points at +/- sqrt(3.5) have sample std exactly 2, so the width
    # is 3.5 * 2 / 8**(1/3) = 3.5
    a = math.sqrt(3.5)
    s = _series("x", [a, -a] * 4)
    assert scott_bin_width(s) == pytest.approx(3.5, rel=1e-12)


def test_scott_width_degenerate_inputs():
    assert scott_bin_width(_series("x", [5.0])) == 0.0
    assert scott_bin_width(_series("x", [5.0, 5.0])) == 0.0


def test_variable_bin_count_hand_value():
    # 0..9: std 3.02765..., width 4.9186..., spread 9 -> ceil(1.83) = 2
    assert variable_bin_count(_series("x", np.arange(10.0))) == 2


def test_variable_bin_count_errors():
    with pytest.raises(ZeroVariance):
        variable_bin_count(_series("x", np.full(20, 3.0)))
    # two points: width 1.964 exceeds the spread of 1, a single bin
    with pytest.raises(DegenerateBins):
        variable_bin_count(_series("x", [0.0, 1.0]))


def test_binning_spec_bin_count_is_minimum():
    rng = np.random.default_rng(0)
    wide = _series("wide", rng.normal(size=1000))
    narrow = _series("narrow", np.arange(10.0).repeat(100))
    d = Dataset((wide, narrow))
    assert BinningSpec.from_dataset(d).bin_count == min(
        variable_bin_count(wide), variable_bin_count(narrow)
    )
    assert BinningSpec.from_dataset(d).bin_count == variable_bin_count(narrow)


def test_binning_spec_edges_span_observed_range():
    d = Dataset((_series("a", [0.0, 10.0, 5.0]), _series("b", [-1.0, 1.0, 0.0])))
    spec = BinningSpec.from_dataset(d, bin_count=4)
    assert spec.bin_count == 4
    np.testing.assert_allclose(spec.edges["a"], np.linspace(0, 10, 5))
    np.testing.assert_allclose(spec.edges["b"], np.linspace(-1, 1, 5))


def test_digitize_rightmost_edge_inclusive():
    d = Dataset((_series("a", [0.0, 1.0, 2.0, 3.0]), _series("b", [3.0, 1.0, 2.0, 0.0])))
    spec = BinningSpec.from_dataset(d, bin_count=3)
    codes = spec.digitize(d.series[0])
    np.testing.assert_array_equal(codes, [0, 1, 2, 2])


def test_digitize_clips_out_of_range_values():
    d = Dataset((_series("a", [0.0, 1.0, 2.0]), _series("b", [5.0, 3.0, 4.0])))
    spec = BinningSpec.from_dataset(d, bin_count=2)
    outside = _series("a", [-5.0, 7.0])
    np.testing.assert_array_equal(spec.digitize(outside), [0, 1])


def test_digitize_names_a_series_the_spec_has_no_edges_for():
    rng = np.random.default_rng(3)
    x, y, q = (_series(n, rng.normal(size=60)) for n in ("x", "y", "q"))
    spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=3)
    cfg = SurrogateConfig(rng_seed=1, n_surrogates=5)
    for call in (lambda: te_link_test(q, y, 1, spec, cfg),
                 lambda: transfer_entropy(x, q, 1, spec),
                 lambda: build_graph(Dataset((x, q)), cfg, 2, spec=spec)):
        with pytest.raises(VariableMismatch, match="no edges for series 'q'"):
            call()


@pytest.mark.parametrize("edges", [[3.0, 2.0, 1.0, 0.0], [0.0, 2.0, 1.0, 3.0],
                                   [0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 2.0, np.inf]])
def test_binning_spec_rejects_edges_not_finite_and_nondecreasing(edges):
    with pytest.raises(InvalidConfig, match="edges for 'X' must be finite and nondecreasing"):
        BinningSpec(3, {"X": edges})


def test_binning_spec_keeps_the_float_edges_it_checked():
    spec = BinningSpec(3, {"X": [0, 1, 1, 3]})  # a repeated edge is an empty bin
    assert isinstance(spec.edges["X"], np.ndarray) and spec.edges["X"].dtype == float
    np.testing.assert_array_equal(spec.digitize(_series("X", [0.5, 1.0, 2.9, 3.0])), [0, 2, 2, 2])


def _old_digitize(edges, values, m):
    """The former formula: one bin per edge at or below the value, clipped."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, m - 1)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 8),
    edge_ints=st.lists(st.integers(-6, 6), min_size=9, max_size=9),
    value_ints=st.lists(st.integers(-10, 10), min_size=1, max_size=40),
    scale=st.sampled_from([0.25, 0.5, 1.0, 1.7]),
)
def test_digitize_matches_the_clipped_formula(m, edge_ints, value_ints, scale):
    # small integer grids put values on edges, outside them (a window binned
    # with its parent's edges) and between repeated edges
    edges = np.sort(np.array(edge_ints[: m + 1], dtype=float)) * scale
    values = np.array(value_ints, dtype=float) * scale / 2
    spec = BinningSpec(m, {"v": edges})
    got = spec.digitize(_series("v", values))
    want = _old_digitize(edges, values, m)
    assert got.dtype == want.dtype == np.intp
    np.testing.assert_array_equal(got, want)


def test_binning_spec_rejects_single_bin():
    d = Dataset((_series("a", [0.0, 1.0, 2.0]), _series("b", [5.0, 3.0, 4.0])))
    with pytest.raises(DegenerateBins):
        BinningSpec.from_dataset(d, bin_count=1)


def test_binning_spec_constant_variable():
    d = Dataset((_series("a", [1.0, 2.0, 3.0]), _series("flat", [4.0, 4.0, 4.0])))
    spec = BinningSpec.from_dataset(d, bin_count=2)
    codes = spec.digitize(d.get("flat"))
    assert np.unique(codes).size == 1
    flat = Dataset((_series("f", [1.0, 1.0, 1.0]), _series("g", [2.0, 2.0, 2.0])))
    with pytest.raises(ZeroVariance):
        BinningSpec.from_dataset(flat)


def test_joint_histogram_counts_and_total():
    d = Dataset((_series("a", [0.0, 0.0, 2.0, 2.0]), _series("b", [0.0, 2.0, 0.0, 2.0])))
    spec = BinningSpec.from_dataset(d, bin_count=2)
    codes = [spec.digitize(d.get("a")), spec.digitize(d.get("b"))]
    counts = _joint_counts(codes, 2)
    assert counts.sum() == 4
    np.testing.assert_array_equal(counts.reshape(2, 2), [[1, 1], [1, 1]])


def test_entropy_bits_oracle_values():
    # 3/4 vs 1/4 split: 2 - 0.75 * log2(3) bits
    expected = 2.0 - 0.75 * math.log2(3.0)
    assert _entropy_bits(np.array([8, 8])) == pytest.approx(1.0)
    assert _entropy_bits(np.array([16, 0])) == 0.0
    assert _entropy_bits(np.array([12, 4])) == pytest.approx(expected, rel=1e-12)
    rows = _entropy_bits_rows(np.array([[8, 8], [16, 0], [12, 4]]), 16)
    assert rows[0] == pytest.approx(1.0)
    assert rows[1] == 0.0
    assert rows[2] == pytest.approx(expected, rel=1e-12)


def _masked_log2_entropy_rows(rows):
    """Direct row entropies, -sum(p * log2 p) over the nonzero cells: the
    formula the lookup table replaced, kept as its oracle."""
    totals = rows.sum(axis=1, keepdims=True).astype(float)
    p = rows / totals
    terms = np.zeros_like(p)
    mask = rows > 0
    terms[mask] = p[mask] * np.log2(p[mask])
    return -terms.sum(axis=1)


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 12),
    cells=st.integers(1, 600),
    total=st.integers(1, 2000),
    concentration=st.sampled_from([0.05, 0.5, 5.0]),
)
def test_entropy_rows_table_is_bit_identical_to_masked_log2(
    seed, n_rows, cells, total, concentration
):
    # equal-total count rows, from one-cell spikes to near-uniform spreads
    rng = np.random.default_rng(seed)
    pvals = rng.dirichlet(np.full(cells, concentration))
    rows = rng.multinomial(total, pvals / pvals.sum(), size=n_rows)
    got = _entropy_bits_rows(rows, total)
    assert got.tobytes() == _masked_log2_entropy_rows(rows).tobytes()


def _mi_stage_oracle(a, c, m, rows):
    """The MI gate's own formulas before it shared ``_cmi``, kept as its
    oracle: observed value and per-row values, before the t-test."""
    joint = _joint_counts([a, c], m).reshape(m, m)
    h_c = _entropy_bits(joint.sum(axis=0))
    observed = max(0.0, _entropy_bits(joint.sum(axis=1)) + h_c - _entropy_bits(joint))
    n_rows = rows.shape[0]
    offsets = (np.arange(n_rows) * (m * m))[:, None]
    flat = (rows * m + c[None, :]) + offsets
    counts = np.bincount(flat.ravel(), minlength=n_rows * m * m).reshape(n_rows, m * m)
    h_ac_s = _entropy_bits_rows(counts, c.size)
    h_a_s = _entropy_bits_rows(counts.reshape(n_rows, m, m).sum(axis=2), c.size)
    return observed, np.maximum(0.0, h_a_s + h_c - h_ac_s)


def _te_stage_oracle(a, b, c, m, rows):
    """The TE stage's own formulas before it shared ``_cmi``, kept as its
    oracle: observed value and per-row values, before the t-test."""
    joint3 = _joint_counts([a, b, c], m).reshape(m, m, m)
    h_b = _entropy_bits(joint3.sum(axis=(0, 2)))
    h_ab = _entropy_bits(joint3.sum(axis=2))
    h_bc = _entropy_bits(joint3.sum(axis=0))
    observed = max(0.0, -h_b + h_ab + h_bc - _entropy_bits(joint3))
    n_rows = rows.shape[0]
    cells = m * m * m
    offsets = (np.arange(n_rows) * cells)[:, None]
    flat = (rows * (m * m) + (b * m + c)[None, :]) + offsets
    counts = np.bincount(flat.ravel(), minlength=n_rows * cells).reshape(n_rows, cells)
    h_abc_s = _entropy_bits_rows(counts, c.size)
    h_ab_s = _entropy_bits_rows(
        counts.reshape(n_rows, m, m, m).sum(axis=3).reshape(n_rows, m * m), c.size
    )
    return observed, np.maximum(-h_b + h_ab_s + h_bc - h_abc_s, 0.0)


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.integers(2, 300),
    m=st.integers(2, 9),
    n_rows=st.integers(0, 12),
    mix=st.floats(0.0, 1.0),
    conditional=st.booleans(),
)
def test_cmi_is_bit_identical_to_the_stage_formulas(seed, l, m, n_rows, mix, conditional):
    # a drives c with probability mix; b, when given, is c's own shifted past
    rng = np.random.default_rng(seed)
    a = rng.integers(0, m, l)
    c = np.where(rng.random(l) < mix, a, rng.integers(0, m, l))
    b = np.roll(c, 1) if conditional else None
    rows = rng.permuted(np.tile(a, (n_rows, 1)), axis=1)
    observed, count = _cmi(a, _given(b, c, m), m)
    surrogates = count(_bank_form(rows, m), np.empty(n_rows))
    if conditional:
        want_observed, want_surrogates = _te_stage_oracle(a, b, c, m, rows)
    else:
        want_observed, want_surrogates = _mi_stage_oracle(a, c, m, rows)
        # the link test hands the gate H(A), which the joint gives otherwise
        h_a = _entropy_bits(_joint_counts([a], m))
        handed = _cmi(a, _given(b, c, m), m, h_a)[0]
        assert np.float64(handed).tobytes() == np.float64(want_observed).tobytes()
    assert np.float64(observed).tobytes() == np.float64(want_observed).tobytes()
    assert surrogates.tobytes() == want_surrogates.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 9),
    n_rows=st.integers(1, 30),
    l=st.integers(2, 300),
    lag=st.integers(1, 3),
    conditional=st.booleans(),
    cap=st.integers(1, 3000),
)
def test_row_bank_kernel_is_bit_identical_to_the_fresh_array_loop(
    seed, m, n_rows, l, lag, conditional, cap
):
    lag = min(lag, l - 1)
    keep = l - lag
    rng = np.random.default_rng(seed)
    x = rng.integers(0, m, l)
    y = np.where(rng.random(l) < 0.5, np.roll(x, lag), rng.integers(0, m, l))
    a, b, c = x[:keep], (y[:keep] if conditional else None), y[lag:]
    # column slices of full-length shuffles, as the link test passes them;
    # the buffer's use grows, shrinks, then grows past its first size
    shuffles = rng.permuted(np.tile(x, (2 * n_rows, 1)), axis=1)
    bank = shuffles[:, :keep]
    banks = [bank[:n_rows], bank[:1], bank]
    drawn = _bank_form(shuffles, m)[:, :keep]
    drawn_banks = [drawn[:n_rows], drawn[:1], drawn]

    def run():
        count = _cmi(a, _given(b, c, m), m)[1]
        return [count(rows, np.empty(len(rows))) for rows in drawn_banks]

    # a cap this small splits banks into chunks of cap // keep rows, or of one
    with mock.patch.object(estimators, "_INDEX_BUFFER_CAP", cap):
        # a fresh thread starts from an empty buffer
        with ThreadPoolExecutor(max_workers=1) as fresh_thread:
            got = fresh_thread.submit(run).result(timeout=60)
    # the stage formulas build the index from fresh temporaries and take
    # H(A, B) by ``sum``: the loop before the buffer and the matvec
    for rows, surrogates in zip(banks, got):
        if conditional:
            want = _te_stage_oracle(a, b, c, m, rows)[1]
        else:
            want = _mi_stage_oracle(a, c, m, rows)[1]
        assert surrogates.tobytes() == want.tobytes()


def test_row_bank_kernel_allocates_less_than_one_index_array():
    # one flat index of 100 rows x 999 aligned points is 799,200 bytes; a
    # warm call builds it in the reused buffer, so its traced peak is below
    rng = np.random.default_rng(0)
    m, l, lag = 4, 1000, 1
    keep = l - lag
    x = rng.integers(0, m, l)
    y = rng.integers(0, m, l)
    rows = _bank_form(rng.permuted(np.tile(x, (100, 1)), axis=1), m)[:, :keep]
    index_bytes = rows.size * np.dtype(np.intp).itemsize
    for b in (None, y[:keep]):
        given = _given(b, y[lag:], m)
        _cmi(x[:keep], given, m)[1](rows, np.empty(100))
        tracemalloc.start()
        try:
            _cmi(x[:keep], given, m)[1](rows, np.empty(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < index_bytes


@pytest.mark.parametrize("m", [19, 25])
def test_te_stage_batch_memory_is_bounded(m):
    # a TE-stage bank of 100 rows has 100 * m**3 histogram cells (8 bytes
    # of counts and 8 of p*log p terms each: 11 MB at m = 19, 25 MB at
    # m = 25 if counted at once); counted in chunks of at most
    # _BATCH_CELL_BUDGET cells, a warm call peaks below 1.5 MB
    rng = np.random.default_rng(1)
    l, lag = 1000, 1
    keep = l - lag
    x = rng.integers(0, m, l)
    y = rng.integers(0, m, l)
    rows = _bank_form(rng.permuted(np.tile(x, (100, 1)), axis=1), m)[:, :keep]
    given = _given(y[:keep], y[lag:], m)
    _cmi(x[:keep], given, m)[1](rows, np.empty(100))
    tracemalloc.start()
    try:
        _cmi(x[:keep], given, m)[1](rows, np.empty(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_entropy_bits_empty_histogram():
    with pytest.raises(EmptyHistogram):
        _entropy_bits(np.zeros(4))


def test_mi_perfect_dependence_three_symbols():
    vals = np.array([0.0, 1.0, 2.0] * 8)
    d = Dataset((_series("x", vals), _series("y", vals)))
    spec = BinningSpec.from_dataset(d, bin_count=3)
    got = _mi(d.get("x"), d.get("y"), spec)
    assert got == pytest.approx(math.log2(3.0), rel=1e-12)


def test_mi_perfect_dependence_binary_is_one_bit():
    x = np.array([0.0, 0.0, 1.0, 1.0] * 5)
    d = Dataset((_series("x", x), _series("y", x)))
    spec = BinningSpec.from_dataset(d, bin_count=2)
    assert _mi(d.get("x"), d.get("y"), spec) == pytest.approx(1.0)


def test_mi_independent_blocks_is_zero():
    # (x, y) hits all four cells equally: exactly zero information
    x = _series("x", np.array([0.0, 0.0, 1.0, 1.0]))
    y = _series("y", np.array([0.0, 1.0, 0.0, 1.0]))
    spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=2)
    assert _mi(x, y, spec) == 0.0


def test_mi_nonnegative_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = _series("x", rng.normal(size=60))
        y = _series("y", rng.normal(size=60))
        spec = BinningSpec.from_dataset(Dataset((x, y)))
        assert _mi(x, y, spec) >= 0.0


def test_te_hand_oracle_tiny_copy_chain():
    # x = 0,1,0,1,0,1 and y its one-step copy; five aligned triples give
    # joint counts {(0,0,0): 1, (1,0,1): 2, (0,1,0): 2}
    x = _series("x", [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    y = _series("y", [0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=2)
    h = lambda counts: -sum(c / 5 * math.log2(c / 5) for c in counts)
    expected = -h([3, 2]) + h([1, 2, 2]) + h([1, 2, 2]) - h([1, 2, 2])
    got = transfer_entropy(x, y, 1, spec)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.5509775004326936, rel=1e-12)


def test_te_zero_when_target_is_constant_function_of_own_past():
    # y repeats a fixed pattern, so y_past determines y_now and the source
    # cannot add anything
    x = _series("x", np.random.default_rng(5).normal(size=240))
    y = _series("y", np.array([0.0, 1.0, 2.0] * 80))
    spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=3)
    assert transfer_entropy(x, y, 3, spec) >= 0.0
    assert transfer_entropy(x, y, 3, spec) == pytest.approx(0.0, abs=1e-12)


def test_te_matches_brute_force_cmi():
    rng = np.random.default_rng(6)
    for trial in range(40):
        l = int(rng.integers(10, 51))
        m = int(rng.integers(2, 5))
        lag = int(rng.integers(1, 4))
        x = _series("x", rng.integers(0, m, size=l).astype(float))
        y = _series("y", rng.integers(0, m, size=l).astype(float))
        if np.ptp(x.values) == 0 or np.ptp(y.values) == 0:
            continue
        spec = BinningSpec.from_dataset(Dataset((x, y)), bin_count=m)
        cx = spec.digitize(x)
        cy = spec.digitize(y)
        keep = l - lag
        want = _brute_cmi(cx[:keep], cy[:keep], cy[lag:], m)
        got = transfer_entropy(x, y, lag, spec)
        assert got == pytest.approx(want, abs=1e-12), f"trial {trial}"


def test_te_deterministic():
    rng = np.random.default_rng(7)
    x = _series("x", rng.normal(size=150))
    y = _series("y", rng.normal(size=150))
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    assert transfer_entropy(x, y, 2, spec) == transfer_entropy(x, y, 2, spec)


def test_te_argument_validation():
    x = _series("x", np.arange(12.0))
    y = _series("y", np.arange(12.0) ** 2)
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    with pytest.raises(InvalidConfig):
        transfer_entropy(x, y, 0, spec)
    with pytest.raises(LagTooLarge):
        transfer_entropy(x, y, 12, spec)
    with pytest.raises(LengthMismatch):
        transfer_entropy(x, _series("y", np.arange(10.0)), 1, spec)


def _coupled_binned_pair(seed, l, m, drive_lag, mix):
    """x noise and y = mix * x[t - drive_lag] + (1 - mix) * noise, binned in m."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=l)
    y = (1.0 - mix) * rng.normal(size=l)
    y[drive_lag:] += mix * x[:-drive_lag]
    d = Dataset((_series("x", x), _series("y", y)))
    return d.get("x"), d.get("y"), BinningSpec.from_dataset(d, bin_count=m)


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.integers(20, 400),
    m=st.integers(2, 10),
    mix=st.floats(0.0, 1.0),
)
def test_mi_is_symmetric_and_nonnegative(seed, l, m, mix):
    x, y, spec = _coupled_binned_pair(seed, l, m, 1, mix)
    mi = _mi(x, y, spec)
    assert mi == pytest.approx(_mi(y, x, spec), rel=0.0, abs=_symmetry_tolerance(m))
    assert mi >= 0.0


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l=st.integers(20, 400),
    m=st.integers(2, 10),
    drive_lag=st.integers(1, 3),
    lag=st.integers(1, 3),
    mix=st.floats(0.0, 1.0),
)
def test_te_is_between_zero_and_min_entropy(seed, l, m, drive_lag, lag, mix):
    x, y, spec = _coupled_binned_pair(seed, l, m, drive_lag, mix)
    te = transfer_entropy(x, y, lag, spec)
    keep = l - lag
    h_source = _entropy_bits(np.bincount(spec.digitize(x)[:keep]))
    h_target = _entropy_bits(np.bincount(spec.digitize(y)[lag:]))
    assert 0.0 <= te <= min(h_source, h_target) + 1e-12
