import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcausal._choices import SYSTEM_SETTINGS
from robustcausal.errors import InvalidConfig, NonFinite, UnknownFormat
from robustcausal.synthetic import (
    SYSTEM_KINDS,
    GroundTruth,
    SystemSpec,
    TrueLink,
    _composed_links,
    _COUPLINGS,
    _simulate,
    _table,
    _Table,
    generate,
)
from robustcausal.timeseries import _rng


def _ols(target, columns):
    design = np.column_stack([np.ones(len(target))] + columns)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return coef[1:]


def test_kind_a_is_independent_noise():
    d, truth = generate(SystemSpec(kind="A", length=5000, rng_seed=0))
    assert d.length == 5000
    assert d.names == ("X", "Y", "Z", "W")
    assert truth.link_keys() == frozenset()
    for s in d.series:
        assert abs(s.values.mean()) < 0.05
        assert abs(s.values.std() - 1.0) < 0.05
    corr = np.corrcoef(np.vstack([s.values for s in d.series]))
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.05)


def test_burn_in_lengths():
    d_a, _ = generate(SystemSpec(kind="A", length=300, rng_seed=1))
    assert d_a.length == 300
    d_b, _ = generate(SystemSpec(kind="B", length=1000, rng_seed=1))
    assert d_b.length == 900
    d_c, _ = generate(SystemSpec(kind="C", length=150, rng_seed=3, burn_in=100))
    assert d_c.length == 50


def test_linear_system_coefficient_recovery():
    d, truth = generate(SystemSpec(kind="B", length=4100, rng_seed=7))
    x, y, z, w = (d.get(n).values for n in ("X", "Y", "Z", "W"))
    (b_zx,) = _ols(x[1:], [z[:-1]])
    assert b_zx == pytest.approx(0.4, abs=0.02)
    b_xy, b_wy = _ols(y[3:], [x[:-3], w[1:-2]])
    assert b_xy == pytest.approx(0.6, abs=0.02)
    assert b_wy == pytest.approx(0.09, abs=0.02)
    (b_yz,) = _ols(z[2:], [y[:-2]])
    assert b_yz == pytest.approx(0.7, abs=0.02)
    (b_xw,) = _ols(w[1:], [x[:-1]])
    assert b_xw == pytest.approx(0.5, abs=0.02)


def _fed(eta):
    """A ``draw`` for ``_simulate`` that hands out the given noise arrays."""
    return lambda i, size: eta[i][:size]


def test_coupled_recursion_impulse_response():
    # single kick eta_z[0] = 2 with all other noise silent, through the
    # tables of B and C
    n = 8
    eta = [np.zeros(n) for _ in range(4)]
    eta[2][0] = 2.0
    x, y, z, w = _simulate(_table("B", None), n, _fed(eta))
    assert z[0] == 2.0
    assert x[1] == pytest.approx(0.8)       # 0.4 * z[0]
    assert w[2] == pytest.approx(0.4)       # 0.5 * x[1]
    assert y[4] == pytest.approx(0.6 * 0.8 + 0.09 * 0.4)
    x, y, z, w = _simulate(_table("C", None), n, _fed(eta))
    assert x[1] == pytest.approx(1.6)       # 0.4 * z[0]**2
    assert w[2] == pytest.approx(0.8)
    assert y[4] == pytest.approx(0.6 * 1.6 + 0.09 * 0.8)


def test_quadratic_divergence_raises():
    eta = [np.zeros(40) for _ in range(4)]
    eta[2][0] = 10.0  # z[0] = 10 is far past the stable basin
    with pytest.raises(NonFinite, match="diverged at step") as want:
        _coupled_oracle(40, *eta, squared_z=True)
    with pytest.raises(NonFinite, match=str(want.value)):
        _simulate(_table("C", None), 40, _fed(eta))
    # in the linear system B the same kick never grows past itself
    assert np.abs(_simulate(_table("B", None), 40, _fed(eta))).max() == 10.0


def test_mixed_table_matches_a_direct_loop():
    # U drawn and read by both; V reads only U, but S reads V, so V steps
    # with S rather than being computed at once.
    couplings = (TrueLink("U", "V", 1, 0.5), TrueLink("S", "S", 1, 0.3),
                 TrueLink("V", "S", 2, 0.2), TrueLink("U", "S", 3, -0.4))
    table = _Table(("U", "V", "S"), couplings, couplings[:1])
    assert table.wiring[2] == ("V", "S")
    assert _table("B", None).wiring[2] == ("X", "Y", "Z", "W")
    assert _table("bivariate-nonlinear", (0.5).hex()).wiring[2] == ()
    n = 50
    eta = [_rng(5, i).standard_normal(n + 3) for i in range(3)]
    u, v, s = _simulate(table, n, _fed(eta), scale=0.5, drop=2)
    full_u = eta[0][:n + 3]  # U is read at lags up to 3
    want_v = [0.5 * full_u[t + 2] ** 2 + 0.5 * eta[1][t] for t in range(n)]
    want_s = []
    for t in range(n):
        prev_s = want_s[t - 1] if t >= 1 else 0.0
        prev_v = want_v[t - 2] if t >= 2 else 0.0
        want_s.append(0.3 * prev_s + 0.2 * prev_v + -0.4 * full_u[t] + 0.5 * eta[2][t])
    assert u.tobytes() == full_u[3 + 2:].tobytes()
    np.testing.assert_allclose(v, want_v[2:], rtol=1e-15)
    np.testing.assert_allclose(s, want_s[2:], rtol=1e-14)


def _coupled_oracle(n, eta_x, eta_y, eta_z, eta_w, squared_z):
    """The hand-written recursion systems B and C ran before they were built
    from one coupling table, kept as its oracle."""
    x, y, z, w = (np.zeros(n) for _ in range(4))
    for t in range(n):
        z1 = z[t - 1] if t >= 1 else 0.0
        x3 = x[t - 3] if t >= 3 else 0.0
        w2 = w[t - 2] if t >= 2 else 0.0
        y2 = y[t - 2] if t >= 2 else 0.0
        x1 = x[t - 1] if t >= 1 else 0.0
        x[t] = 0.4 * (z1 * z1 if squared_z else z1) + eta_x[t]
        y[t] = 0.6 * x3 + 0.09 * w2 + eta_y[t]
        z[t] = 0.7 * y2 + eta_z[t]
        w[t] = 0.5 * x1 + eta_w[t]
        if squared_z and abs(x[t]) > 1e8:
            raise NonFinite(f"quadratic system diverged at step {t}")
    return x, y, z, w


_ORACLE_TRUTH = {
    "true_links": (TrueLink("Z", "X", 1, 0.4), TrueLink("X", "Y", 3, 0.6),
                   TrueLink("W", "Y", 2, 0.09), TrueLink("Y", "Z", 2, 0.7),
                   TrueLink("X", "W", 1, 0.5)),
    "B": (("Z", "Y", 4), ("W", "Z", 4), ("Z", "W", 2), ("Y", "X", 3)),
    "C": (("Z", "W", 2), ("Y", "X", 3), ("Y", "W", 4), ("W", "Z", 4), ("Z", "Y", 4)),
}


@pytest.mark.parametrize("kind", ["B", "C"])
def test_coupling_table_matches_the_hand_written_recursion(kind):
    compared = 0
    for seed in range(8):
        spec = SystemSpec(kind=kind, length=1100, rng_seed=seed)
        eta = [_rng(seed, i).standard_normal(spec.length) for i in range(4)]
        try:
            want = _coupled_oracle(spec.length, *eta, squared_z=kind == "C")
        except NonFinite as exc:
            with pytest.raises(NonFinite, match=str(exc)):
                generate(spec)
            continue
        d, truth = generate(spec)
        for name, arr in zip(("X", "Y", "Z", "W"), want):
            assert d.get(name).values.tobytes() == arr[spec.burn_in:].tobytes()
        assert truth.true_links == _ORACLE_TRUTH["true_links"]
        # The derived indirect links are the old table's, sorted, plus for B
        # the path Y -> Z -> X -> W (lags 2 + 1 + 1) that its table missed.
        extra = {("Y", "W", 4)} if kind == "B" else set()
        assert set(truth.indirect_links) == set(_ORACLE_TRUTH[kind]) | extra
        assert list(truth.indirect_links) == sorted(truth.indirect_links,
                                                    key=lambda k: (k[2], k[0], k[1]))
        compared += 1
    assert compared >= 3


def test_indirect_links_stop_at_the_lag_bound():
    assert _composed_links(1, _COUPLINGS) == ()
    assert _composed_links(2, _COUPLINGS) == (("Z", "W", 2),)
    assert _composed_links(3, _COUPLINGS) == (("Z", "W", 2), ("Y", "X", 3))
    assert len(_composed_links(4, _COUPLINGS)) == 5
    # no path returns to its source before total lag 6 (Z -> X -> Y -> Z)
    assert ("Z", "Z", 6) not in _composed_links(6, _COUPLINGS)
    assert ("Z", "X", 7) in _composed_links(7, _COUPLINGS)  # Z -> X -> Y -> Z -> X
    assert _composed_links(4, ()) == ()
    assert _composed_links(4, (TrueLink("X", "Y", 1, 0.5),)) == ()


def _paths_by_enumeration(max_lag, couplings):
    """(source, target, total lag) of every chain of two or more couplings
    within ``max_lag``, found by walking each chain one coupling at a time."""
    found = set()

    def walk(source, target, lag, hops):
        if hops >= 2:
            found.add((source, target, lag))
        for c in couplings:
            if c.source == target and lag + c.lag <= max_lag:
                walk(source, c.target, lag + c.lag, hops + 1)

    for c in couplings:
        walk(c.source, c.target, c.lag, 1)
    return found


@st.composite
def _coupling_tables(draw):
    names = "XYZW"[:draw(st.integers(1, 4))]
    selfloops = draw(st.booleans())
    keys = draw(st.sets(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                  st.integers(1, 3)), max_size=8))
    return tuple(TrueLink(s, t, lag, 0.5) for s, t, lag in sorted(keys) if selfloops or s != t)


@settings(max_examples=200, deadline=None)
@given(couplings=_coupling_tables(), max_lag=st.integers(1, 7))
def test_composed_links_match_path_enumeration(couplings, max_lag):
    direct = {(c.source, c.target, c.lag) for c in couplings}
    want = {k for k in _paths_by_enumeration(max_lag, couplings) - direct if k[0] != k[1]}
    got = _composed_links(max_lag, couplings)
    assert set(got) == want
    assert list(got) == sorted(want, key=lambda k: (k[2], k[0], k[1]))


def test_divergent_seed_raises_through_generate():
    with pytest.raises(NonFinite, match="diverged"):
        generate(SystemSpec(kind="C", length=1000, rng_seed=0))


def test_coupled_truth_tables():
    _, truth_b = generate(SystemSpec(kind="B", length=200, rng_seed=4))
    assert truth_b.link_keys() == {
        ("Z", "X", 1),
        ("X", "Y", 3),
        ("W", "Y", 2),
        ("Y", "Z", 2),
        ("X", "W", 1),
    }
    assert ("Z", "Y", 4) in truth_b.indirect_keys()
    assert ("Y", "X", 3) in truth_b.indirect_keys()
    coeffs = {(l.source, l.target, l.lag): l.coefficient for l in truth_b.true_links}
    assert coeffs[("W", "Y", 2)] == pytest.approx(0.09)


def test_kind_a_is_its_noise_streams():
    for length in (100, 1000):
        for seed in range(8):
            d, truth = generate(SystemSpec(kind="A", length=length, rng_seed=seed))
            assert truth == GroundTruth(true_links=())
            for i, s in enumerate(d.series):
                assert s.values.tobytes() == _rng(seed, i).standard_normal(length).tobytes()


def _bivariate_oracle(kind, length, seed, m, eps):
    """The closed form the bivariate kinds were written as before they were
    tables: X is i.i.d. and Y responds to it at lag 1."""
    x_full = _rng(seed, 0).standard_normal(length + 1)
    eta = _rng(seed, 1).standard_normal(length)
    x = x_full[:-1]
    driver = x * x if kind == "bivariate-nonlinear" else x
    return x_full[1:], m * driver + eps * eta


def _check_bivariate_is_exact(kind):
    for length in (100, 1000):
        for seed in range(8):
            m, eps = (0.8, 0.3) if seed % 2 else (-1.5, 1.0)
            spec = SystemSpec(kind=kind, length=length, rng_seed=seed, signal=m, noise=eps)
            d, truth = generate(spec)
            x, y = _bivariate_oracle(kind, length, seed, m, eps)
            assert d.names == ("X", "Y")
            assert d.get("X").values.tobytes() == x.tobytes()
            assert d.get("Y").values.tobytes() == y.tobytes()
            assert truth == GroundTruth(true_links=(TrueLink("X", "Y", 1, m),))


def test_bivariate_pair_is_exact():
    _check_bivariate_is_exact("bivariate-linear")


def test_bivariate_nonlinear_squares_the_driver():
    _check_bivariate_is_exact("bivariate-nonlinear")


def test_signed_zero_signal_keeps_its_sign():
    # The tables are cached by their signal; 0.0 == -0.0 must not share one.
    for m in (0.0, -0.0, 0.0):
        _, truth = generate(SystemSpec(kind="bivariate-linear", length=20, rng_seed=1, signal=m))
        assert json.loads(truth.to_json())["true_links"][0]["coefficient"] == m
        assert np.copysign(1.0, truth.true_links[0].coefficient) == np.copysign(1.0, m)


def test_generate_deterministic():
    spec = SystemSpec(kind="B", length=500, rng_seed=21)
    d1, _ = generate(spec)
    d2, _ = generate(spec)
    for n in d1.names:
        np.testing.assert_array_equal(d1.get(n).values, d2.get(n).values)


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_every_settings_table_kind_generates(kind):
    assert SYSTEM_KINDS == tuple(SYSTEM_SETTINGS)
    wanted = {"burn_in": 50, "signal": 0.5, "noise": 2.0}
    spec = SystemSpec(kind=kind, length=150, rng_seed=2, **{
        name: value for name, value in wanted.items() if name in SYSTEM_SETTINGS[kind]})
    d, truth = generate(spec)
    assert d.length == (100 if "burn_in" in SYSTEM_SETTINGS[kind] else 150)
    assert truth.link_keys() <= {(s, t, lag) for s in d.names for t in d.names
                                 for lag in range(1, 5)}
    assert GroundTruth.from_json(truth.to_json()) == truth


@pytest.mark.parametrize("payload, wrong", [
    ({"true_links": [{"source": "X", "target": "Y", "lag": 1.9, "coefficient": 0.5}],
      "indirect_links": []}, "'lag'"),
    ({"true_links": [{"source": "X", "target": "Y", "lag": True, "coefficient": 0.5}],
      "indirect_links": []}, "'lag'"),
    ({"true_links": [{"source": "X", "target": "Y", "lag": 1, "coefficient": "0.5"}],
      "indirect_links": []}, "'coefficient'"),
    ({"true_links": [{"source": 1, "target": "Y", "lag": 1, "coefficient": 0.5}],
      "indirect_links": []}, "'source'"),
    ({"true_links": "XY", "indirect_links": []}, "'true_links'"),
    ({"true_links": [], "indirect_links": [{"source": "X", "target": "Y", "lag": "4"}]}, "'lag'"),
    ({"true_links": []}, "indirect_links"),
    ([], "malformed"),
], ids=["lag-float", "lag-bool", "coefficient-string", "source-int", "links-string",
        "indirect-lag-string", "missing-key", "not-an-object"])
def test_ground_truth_json_refuses_mistyped_fields(payload, wrong):
    with pytest.raises(UnknownFormat, match=wrong):
        GroundTruth.from_json(json.dumps(payload))


def test_ground_truth_json_round_trip():
    truth = GroundTruth(
        true_links=(TrueLink("X", "Y", 3, 0.6), TrueLink("Z", "X", 1, 0.4)),
        indirect_links=(("Z", "Y", 4),),
    )
    back = GroundTruth.from_json(truth.to_json())
    assert back == truth


def test_spec_validation():
    expected = ("unknown system kind 'D', expected one of "
                "('A', 'B', 'C', 'bivariate-linear', 'bivariate-nonlinear')")
    with pytest.raises(InvalidConfig, match=f"^{re.escape(expected)}$"):
        SystemSpec(kind="D", length=100, rng_seed=0)
    with pytest.raises(InvalidConfig, match="unknown system kind"):
        SystemSpec(kind=["A"], length=100, rng_seed=0)
    with pytest.raises(InvalidConfig):
        SystemSpec(kind="A", length=0, rng_seed=0)
    with pytest.raises(InvalidConfig):
        SystemSpec(kind="B", length=100, rng_seed=0, burn_in=-1)
    with pytest.raises(InvalidConfig):
        SystemSpec(kind="B", length=100, rng_seed=0, burn_in=100)
    with pytest.raises(InvalidConfig):
        SystemSpec(kind="bivariate-linear", length=100, rng_seed=0)
    with pytest.raises(InvalidConfig):
        SystemSpec(kind="bivariate-linear", length=100, rng_seed=0, signal=1.0, noise=0.0)


_UNREAD = [(kind, name) for kind, reads in SYSTEM_SETTINGS.items()
           for name in ("burn_in", "signal", "noise") if name not in reads]


@pytest.mark.parametrize("kind, setting", _UNREAD)
def test_a_kind_refuses_a_setting_it_does_not_read(kind, setting):
    # generate would ignore it, as the CLI refuses it; its default still passes
    needed = {"signal": 0.5} if "signal" in SYSTEM_SETTINGS[kind] else {}
    default = SystemSpec.__dataclass_fields__[setting].default
    SystemSpec(kind=kind, length=200, rng_seed=0, **needed, **{setting: default})
    readers = " and ".join(k for k, reads in SYSTEM_SETTINGS.items() if setting in reads)
    expected = f"kind {kind!r} does not read {setting}; only {readers} do"
    with pytest.raises(InvalidConfig, match=f"^{re.escape(expected)}$"):
        SystemSpec(kind=kind, length=200, rng_seed=0, **needed,
                   **{setting: {"burn_in": 7, "signal": 0.3, "noise": 5.0}[setting]})
