import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from robustcausal.errors import (
    CsvFormatError,
    DuplicateName,
    InvalidConfig,
    LengthMismatch,
    NonFinite,
    TooShort,
    WindowTooLong,
)
from robustcausal.estimators import BinningSpec, transfer_entropy
from robustcausal.granger import GrangerConfig, granger_test
from robustcausal.significance import SurrogateConfig, te_link_test
from robustcausal.synthetic import SYSTEM_KINDS, SystemSpec, generate
from robustcausal.timeseries import (
    Dataset,
    PreprocessSpec,
    TimeSeries,
    _derived_seed,
    _rng,
    apply_preprocess,
    deseasonalize,
    detrend_linear,
    read_dataset_csv,
    validate_dataset,
    write_dataset_csv,
)


def _series(name, values):
    return TimeSeries(name, np.asarray(values, dtype=float))


def test_detrend_removes_exact_line():
    s = _series("x", 3.0 + 2.0 * np.arange(50))
    out = detrend_linear(s)
    np.testing.assert_allclose(out.values, np.zeros(50), atol=1e-9)
    assert out.name == "x"


def test_detrend_alternating_oracle():
    # No slope in [0, 1, 0, 1, 0], so only the mean of 0.4 comes off.
    out = detrend_linear(_series("x", [0, 1, 0, 1, 0]))
    np.testing.assert_allclose(out.values, [-0.4, 0.6, -0.4, 0.6, -0.4], atol=1e-12)


def test_detrend_residuals_orthogonal_to_time():
    rng = np.random.default_rng(7)
    out = detrend_linear(_series("x", rng.normal(size=200)))
    t = np.arange(200, dtype=float)
    assert abs(out.values.sum()) < 1e-8
    assert abs((out.values * (t - t.mean())).sum()) < 1e-6


def test_detrend_idempotent():
    rng = np.random.default_rng(8)
    s = _series("x", rng.normal(size=120) + 0.3 * np.arange(120))
    once = detrend_linear(s)
    twice = detrend_linear(once)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)


def test_deseasonalize_oracle():
    # period 2: even positions hold 3, 5, 7 (mean 5), odd hold 0, 2 (mean 1)
    out = deseasonalize(_series("x", [3, 0, 5, 2, 7]), 2)
    np.testing.assert_allclose(out.values, [-2, -1, 0, 1, 2], atol=1e-12)


def test_deseasonalize_kills_pure_cycle():
    period = 12
    cycle = np.sin(2 * np.pi * np.arange(10 * period) / period)
    out = deseasonalize(_series("x", cycle), period)
    np.testing.assert_allclose(out.values, np.zeros(out.values.size), atol=1e-9)


def test_deseasonalize_idempotent():
    rng = np.random.default_rng(9)
    s = _series("x", rng.normal(size=140))
    once = deseasonalize(s, 7)
    twice = deseasonalize(once, 7)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)


def test_deseasonalize_rejects_bad_period():
    s = _series("x", np.arange(30.0))
    for period in (0, 1):
        with pytest.raises(InvalidConfig, match="season period must be >= 2"):
            deseasonalize(s, period)
    with pytest.raises(InvalidConfig, match="season period must be >= 2"):
        PreprocessSpec(season_period=1)
    with pytest.raises(TooShort):
        deseasonalize(s, 31)


def test_apply_preprocess_order_and_fields():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(2, 240))
    trend = 0.05 * np.arange(240)
    cycle = np.cos(2 * np.pi * np.arange(240) / 12)
    d = Dataset(
        (
            _series("a", base[0] + trend + cycle),
            _series("b", base[1]),
        )
    )
    spec = PreprocessSpec(detrend=True, season_period=12)
    out = apply_preprocess(d, spec)
    assert out.names == d.names
    manual = deseasonalize(detrend_linear(d.series[0]), 12)
    np.testing.assert_allclose(out.series[0].values, manual.values, atol=1e-9)


def test_apply_preprocess_noop_copies_values():
    d = Dataset((_series("a", [1.0, 2.0, 3.0]), _series("b", [3.0, 1.0, 2.0])))
    out = apply_preprocess(d, PreprocessSpec())
    for a, b in zip(out.series, d.series):
        np.testing.assert_array_equal(a.values, b.values)


def test_validate_rejects_duplicate_names():
    with pytest.raises(DuplicateName, match="duplicate series name 'a'"):
        Dataset((_series("a", [1, 2, 3]), _series("a", [4, 5, 6])))


def test_validate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch, match=r"series lengths differ: \[2, 3\]"):
        Dataset((_series("a", [1, 2, 3]), _series("b", [4, 5])))


def test_validate_rejects_nonfinite():
    ok = _series("b", [4, 5, 6])
    with pytest.raises(NonFinite):
        validate_dataset(Dataset((_series("a", [1, np.nan, 3]), ok)))
    with pytest.raises(NonFinite):
        validate_dataset(Dataset((_series("a", [1, np.inf, 3]), ok)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("which", ["x", "y"])
@pytest.mark.parametrize(
    "check", ["te_link_test", "transfer_entropy", "granger_test", "from_dataset", "forced_bins"]
)
def test_a_nonfinite_value_in_either_series_raises_nonfinite(check, which, bad):
    # No link test or binning call can receive a non-finite series: building
    # one raises NonFinite naming it, and a write to the array a finite
    # series was built from, or through its values, does not reach it.
    rng = np.random.default_rng(3)
    values = {"x": rng.normal(size=60), "y": rng.normal(size=60)}
    x, y = _series("x", values["x"]), _series("y", values["y"])
    spec = BinningSpec.from_dataset(Dataset((x, y)))
    calls = {
        "te_link_test": lambda: te_link_test(x, y, 2, spec, SurrogateConfig(rng_seed=1)).te,
        "transfer_entropy": lambda: transfer_entropy(x, y, 2, spec),
        "granger_test": lambda: granger_test(x, y, 2, GrangerConfig()).f_statistic,
        "from_dataset": lambda: BinningSpec.from_dataset(Dataset((x, y))).edges[which],
        "forced_bins": lambda: BinningSpec.from_dataset(Dataset((x, y)), bin_count=4).edges[which],
    }
    before = calls[check]()
    values[which][17] = bad
    with pytest.raises(NonFinite, match=f"series '{which}' contains NaN or infinite values"):
        _series(which, values[which])
    with pytest.raises(ValueError):
        (x if which == "x" else y).values[17] = bad
    np.testing.assert_array_equal(calls[check](), before)
    assert np.isfinite(before).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_series_is_finite_by_construction(tmp_path, bad):
    # A list, an ndarray, dataclasses.replace and a CSV cell all build
    # through the one rule, with the same message.
    match = "series 'Y' contains NaN or infinite values"
    with pytest.raises(NonFinite, match=match):
        TimeSeries("Y", [1.0, bad, 3.0])
    with pytest.raises(NonFinite, match=match):
        TimeSeries("Y", np.array([1.0, 2.0, bad]))
    with pytest.raises(NonFinite, match=match):
        replace(TimeSeries("Y", [1.0, 2.0]), values=[bad, 2.0])
    path = tmp_path / "d.csv"
    path.write_text(f"X,Y\n1.0,2.0\n3.0,{bad}\n")
    with pytest.raises(NonFinite, match=match):
        read_dataset_csv(path)


def test_series_values_are_read_only_and_windows_are_views():
    source = np.arange(10.0)
    s = TimeSeries("x", source)
    for series in (s, pickle.loads(pickle.dumps(s))):
        with pytest.raises(ValueError):
            series.values[0] = 1.0
    source[0] = np.nan  # a write to the caller's array does not reach the series
    assert s.values[0] == 0.0
    d = Dataset((s, TimeSeries("y", np.arange(10.0) * 2)))
    w = d.window(3, 4)
    for name in d.names:
        assert np.shares_memory(w.get(name).values, d.get(name).values)
        assert not w.get(name).values.flags.writeable


def test_producers_hand_their_fresh_arrays_to_the_series_uncopied(tmp_path, monkeypatch):
    # every series a producer builds keeps the very array it was handed;
    # a caller's writeable array is still copied
    kept = []
    post_init = TimeSeries.__post_init__

    def recorded(self):
        handed = self.values
        post_init(self)
        kept.append(self.values is handed)

    monkeypatch.setattr(TimeSeries, "__post_init__", recorded)
    for kind in SYSTEM_KINDS:
        generate(SystemSpec(kind=kind, length=50, rng_seed=1, burn_in=10, signal=0.5))
    s = TimeSeries("x", np.arange(20.0))
    assert kept.pop() is False
    detrend_linear(s)
    deseasonalize(s, 4)
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,4.5\n")
    read_dataset_csv(path)
    assert len(kept) == 4 * 3 + 2 * 2 + 2 + 2
    assert all(kept)


def test_an_unpickled_series_keeps_the_unpickled_array(monkeypatch):
    # a pool worker's series, and each series of its dataset, is built around
    # the array pickle made, not a second copy of it (numpy may wrap it in a
    # view to swap its unpickled '<f8' descriptor for the native float one)
    kept = []
    post_init = TimeSeries.__post_init__

    def recorded(self):
        handed = self.values
        post_init(self)
        kept.append(self.values is handed or self.values.base is handed)

    d, _ = generate(SystemSpec(kind="A", length=30, rng_seed=2, burn_in=5))
    monkeypatch.setattr(TimeSeries, "__post_init__", recorded)
    back = pickle.loads(pickle.dumps(d))
    s = pickle.loads(pickle.dumps(d.series[0]))
    assert kept == [True] * (len(d.names) + 1)
    for got, want in zip(back.series + (s,), d.series + (d.series[0],)):
        assert got.name == want.name and not got.values.flags.writeable
        np.testing.assert_array_equal(got.values, want.values)


def test_validate_rejects_single_series():
    with pytest.raises(InvalidConfig):
        validate_dataset(Dataset((_series("a", [1, 2, 3]),)))


@settings(max_examples=150, deadline=None, database=None)
@given(shapes=st.lists(st.tuples(st.text(alphabet="ab", max_size=2), st.integers(1, 4)), max_size=4))
def test_a_dataset_is_valid_by_construction(shapes):
    # building raises the first rule broken, in validate_dataset's order, or
    # gives a dataset whose windows and pickle copies keep its names
    names = [n for n, _ in shapes]
    lengths = sorted({l for _, l in shapes})
    series = tuple(TimeSeries(n, np.arange(float(l)) + i) for i, (n, l) in enumerate(shapes))
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if len(series) < 2:
        expected = InvalidConfig, "a dataset needs at least 2 series"
    elif repeated:
        expected = DuplicateName, f"duplicate series name {repeated[0]!r}"
    elif len(lengths) > 1:
        expected = LengthMismatch, f"series lengths differ: {lengths}"
    else:
        expected = None
    if expected is not None:
        with pytest.raises(expected[0]) as info:
            Dataset(series)
        assert str(info.value) == expected[1]
        return
    d = Dataset(series)
    assert d.names == tuple(names) and d.length == lengths[0]
    for start in range(d.length):
        for length in range(1, d.length - start + 1):
            w = d.window(start, length)
            assert w.names == d.names and w.length == length
    back = pickle.loads(pickle.dumps(d))
    assert back.names == d.names
    for a, b in zip(back.series, d.series):
        assert a.values.tobytes() == b.values.tobytes()


def test_dataset_window_and_get():
    d = Dataset((_series("a", np.arange(10.0)), _series("b", np.arange(10.0) * 2)))
    w = d.window(3, 4)
    assert w.length == 4
    np.testing.assert_array_equal(w.get("b").values, [6.0, 8.0, 10.0, 12.0])
    assert d.window(0, 10).length == 10
    for start, length in ((7, 5), (-3, 5), (0, 0), (0, 11), (10, 1)):
        with pytest.raises(WindowTooLong):
            d.window(start, length)
    with pytest.raises(KeyError):
        d.get("missing")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    d = Dataset(
        (
            _series("temp", rng.normal(size=25)),
            _series("flow", rng.normal(size=25)),
        )
    )
    path = tmp_path / "data.csv"
    write_dataset_csv(d, path)
    back = read_dataset_csv(path)
    assert back.names == ("temp", "flow")
    for name in back.names:
        np.testing.assert_allclose(back.get(name).values, d.get(name).values, atol=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(
    names=st.lists(st.one_of(st.just("t"), st.text(max_size=5)), min_size=2, max_size=4),
    length=st.integers(1, 5),
    data=st.data(),
)
def test_csv_round_trip_is_lossless(tmp_path_factory, names, length, data):
    # whatever the writer accepts reads back with the same names and floats;
    # a repeated name is refused when the dataset is built, not by the reader
    values = data.draw(
        arrays(np.float64, (len(names), length), elements=st.floats(allow_nan=False, allow_infinity=False))
    )
    series = tuple(TimeSeries(n, v) for n, v in zip(names, values))
    if len(set(names)) < len(names):
        with pytest.raises(DuplicateName):
            Dataset(series)
        return
    d = Dataset(series)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    if (names[0] == "t" or names[0].startswith("\ufeff")
            or any(n == "" or n != n.strip() for n in names)):
        with pytest.raises(CsvFormatError):
            write_dataset_csv(d, path)
        return
    write_dataset_csv(d, path)
    back = read_dataset_csv(path)
    assert back.names == d.names
    for a, b in zip(back.series, d.series):
        assert a.values.tobytes() == b.values.tobytes()


def test_csv_writer_rejects_names_the_reader_would_change(tmp_path):
    for names in (("t", "Y", "Z"), ("t", "Y"), (" X", "Y"), ("X", ""), ("\ufeffX", "Y")):
        d = Dataset(tuple(_series(n, [1.0, 2.0]) for n in names))
        with pytest.raises(CsvFormatError):
            write_dataset_csv(d, tmp_path / "d.csv")
    d = Dataset((_series("Y", [1.0, 2.0]), _series("t", [3.0, 4.0])))
    write_dataset_csv(d, tmp_path / "d.csv")
    assert read_dataset_csv(tmp_path / "d.csv").names == ("Y", "t")


def test_csv_reader_skips_a_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with EF BB BF; the timestamp
    # column behind it is still skipped, and a BOM-less file reads the same.
    body = "t,X,Y\n0,1.5,2.0\n1,3.0,-1.0\n"
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + body.encode())
    (tmp_path / "plain.csv").write_bytes(body.encode())
    for name in ("bom.csv", "plain.csv"):
        d = read_dataset_csv(tmp_path / name)
        assert d.names == ("X", "Y")
        assert d.get("X").values.tolist() == [1.5, 3.0]
    d = Dataset((_series("µ", [1.0, 2.0]), _series("Y", [3.0, 4.0])))
    write_dataset_csv(d, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes().startswith("µ,Y".encode("utf-8"))
    assert read_dataset_csv(tmp_path / "out.csv").names == ("µ", "Y")


def test_csv_reader_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError):
        read_dataset_csv(path)


def test_csv_reader_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CsvFormatError):
        read_dataset_csv(path)


def test_csv_reader_rejects_empty_body(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n")
    with pytest.raises(CsvFormatError):
        read_dataset_csv(path)


@pytest.mark.parametrize("parts", [
    (0,), (2**31,), (2**32 - 1,), (0, 0, 0), (-1,), (-(2**40), 5), (1, -2, 3, -4),
    (np.int64(-7), np.uint32(2**32 - 1), np.int8(3)), (2**64,), (2**64 + 2**33 + 9, 2**70 - 1),
], ids=repr)
def test_seed_parts_give_the_streams_of_the_masked_list(parts):
    # the parts reach SeedSequence as one uint32 array, which it takes as the
    # same entropy words as the list of the masked ints
    words = [int(p) & 0xFFFFFFFF for p in parts]
    want = np.random.default_rng(words)
    assert _rng(*parts).bit_generator.state == want.bit_generator.state
    assert _rng(*parts).integers(0, 2**63, 8).tolist() == want.integers(0, 2**63, 8).tolist()
    seed = np.random.SeedSequence(words).generate_state(1, np.uint32)[0]
    assert _derived_seed(*parts) == int(seed)
