import numpy as np
import pytest

from robustcausal.errors import InvalidConfig, NonFinite
from robustcausal.synthetic import (
    GroundTruth,
    SystemSpec,
    TrueLink,
    _composed_links,
    _simulate_coupled,
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


def test_coupled_recursion_impulse_response():
    # single kick eta_z[0] = 2 with all other noise silent
    n = 8
    quiet = np.zeros(n)
    eta_z = np.zeros(n)
    eta_z[0] = 2.0
    x, y, z, w = _simulate_coupled(n, quiet.copy(), quiet.copy(), eta_z, quiet.copy(), squared_z=False)
    assert z[0] == 2.0
    assert x[1] == pytest.approx(0.8)       # 0.4 * z[0]
    assert w[2] == pytest.approx(0.4)       # 0.5 * x[1]
    assert y[4] == pytest.approx(0.6 * 0.8 + 0.09 * 0.4)
    x, y, z, w = _simulate_coupled(n, quiet.copy(), quiet.copy(), eta_z.copy(), quiet.copy(), squared_z=True)
    assert x[1] == pytest.approx(1.6)       # 0.4 * z[0]**2
    assert w[2] == pytest.approx(0.8)
    assert y[4] == pytest.approx(0.6 * 1.6 + 0.09 * 0.8)


def test_quadratic_divergence_raises():
    eta = [np.zeros(40) for _ in range(4)]
    eta[2][0] = 10.0  # z[0] = 10 is far past the stable basin
    with pytest.raises(NonFinite, match="diverged"):
        _simulate_coupled(40, *eta, squared_z=True)


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
    assert _composed_links(1) == ()
    assert _composed_links(2) == (("Z", "W", 2),)
    assert _composed_links(3) == (("Z", "W", 2), ("Y", "X", 3))
    assert len(_composed_links(4)) == 5
    # no path returns to its source before total lag 6 (Z -> X -> Y -> Z)
    assert ("Z", "Z", 6) not in _composed_links(6)
    assert ("Z", "X", 7) in _composed_links(7)  # Z -> X -> Y -> Z -> X


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


def test_bivariate_pair_is_exact():
    spec = SystemSpec(kind="bivariate-linear", length=400, rng_seed=11, signal=0.8, noise=0.3)
    d, truth = generate(spec)
    assert d.length == 400
    assert truth.link_keys() == {("X", "Y", 1)}
    x = d.get("X").values
    y = d.get("Y").values
    eta = _rng(11, 1).standard_normal(400)
    np.testing.assert_allclose(y[1:], 0.8 * x[:-1] + 0.3 * eta[1:], atol=1e-12)


def test_bivariate_nonlinear_squares_the_driver():
    spec = SystemSpec(kind="bivariate-nonlinear", length=300, rng_seed=12, signal=0.5, noise=0.2)
    d, _ = generate(spec)
    x = d.get("X").values
    y = d.get("Y").values
    eta = _rng(12, 1).standard_normal(300)
    np.testing.assert_allclose(y[1:], 0.5 * x[:-1] ** 2 + 0.2 * eta[1:], atol=1e-12)


def test_generate_deterministic():
    spec = SystemSpec(kind="B", length=500, rng_seed=21)
    d1, _ = generate(spec)
    d2, _ = generate(spec)
    for n in d1.names:
        np.testing.assert_array_equal(d1.get(n).values, d2.get(n).values)


def test_ground_truth_json_round_trip():
    truth = GroundTruth(
        true_links=(TrueLink("X", "Y", 3, 0.6), TrueLink("Z", "X", 1, 0.4)),
        indirect_links=(("Z", "Y", 4),),
    )
    back = GroundTruth.from_json(truth.to_json())
    assert back == truth


def test_spec_validation():
    with pytest.raises(InvalidConfig):
        SystemSpec(kind="D", length=100, rng_seed=0)
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
