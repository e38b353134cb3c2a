"""Tests for the model registry: vector packing, JSON round trips, and the
standardized-return CF bridges feeding the Fourier pricer."""

import json
import math

import numpy as np
import pytest

from oracles import checked_slice_calls
from ustvol.benchmarks import heston_merton_cf
from ustvol.bspp_bootstrap import shift_weighted_variance
from ustvol.cf_edgeworth import psi_full
from ustvol.fourier_pricer import (
    QuadratureConfig,
    _surface_u_max,
    bs_price,
    price_surface,
)
from ustvol.registry import MODELS, get_model, model_ids, standardized_from_raw

TENORS = (5.5 / (24 * 365), 1 / 365, 2 / 365, 3 / 365, 5 / 365, 7 / 365)

# free-parameter counts on a 6-tenor surface
EXPECTED_COUNTS = {
    "edgeworth": 8,
    "edgeworth_pp": 13,
    "bs_pp": 6,
    "heston_merton_1f": 8,
    "heston_merton_1f_pp": 13,
    "heston_merton_2f": 17,
    "heston_merton_2f_pp": 22,
    "rough_heston_pp": 9,
    "rough_heston_merton_pp": 12,
}


def test_registry_ids_and_counts():
    assert set(model_ids()) == set(EXPECTED_COUNTS)
    for mid, want in EXPECTED_COUNTS.items():
        spec = get_model(mid)
        assert spec.model_id == mid
        assert spec.param_count(6) == want
        assert len(spec.param_names(6)) == want
        assert len(set(spec.param_names(6))) == want  # names unique


def test_unknown_model_id_lists_registry():
    with pytest.raises(ValueError, match="edgeworth_pp"):
        get_model("not_a_model")


def test_pack_unpack_round_trip_all_models():
    rng = np.random.default_rng(20240815)
    for mid, spec in MODELS.items():
        lo, hi = np.array(spec.default_bounds(6)).T
        # draw strictly inside the box; keep shift-like entries small
        x = lo + (hi - lo) * rng.uniform(0.25, 0.45, size=lo.size)
        theta = spec.unpack(x, TENORS)
        back = spec.pack(theta)
        np.testing.assert_allclose(back, x, rtol=0, atol=0, err_msg=mid)


def test_unpack_rejects_wrong_length():
    spec = get_model("edgeworth_pp")
    with pytest.raises(ValueError, match="13 parameters"):
        spec.unpack(np.zeros(8), TENORS)


def test_json_round_trip_all_models():
    for mid, spec in MODELS.items():
        x = spec.default_start(TENORS, atm_vol=0.23)
        theta = spec.unpack(x, TENORS)
        d = spec.to_json_dict(theta)
        assert d["model"] == mid
        theta2 = spec.from_json_dict(d)
        np.testing.assert_allclose(spec.pack(theta2), x, err_msg=mid)


GRID_KEYS = {"none": set(), "vol": {"displacement"}, "var": {"displacement"},
             "curve": {"xi_tenors", "xi_levels"}}


def _inner_vector(spec):
    lo, hi = np.array(spec.default_bounds(len(TENORS))).T
    return lo + (hi - lo) * np.linspace(0.3, 0.4, lo.size)


@pytest.mark.parametrize("mid", list(MODELS))
def test_codec_keys_and_exact_round_trip(mid):
    spec = MODELS[mid]
    theta = spec.unpack(_inner_vector(spec), TENORS)
    d = spec.to_json_dict(theta)
    assert set(d) == set(spec.base_names) | {"model"} | GRID_KEYS[spec.shift_style]
    assert d["model"] == mid
    # the JSON form survives a text round trip bit for bit
    back = spec.from_json_dict(json.loads(json.dumps(d)))
    assert back == theta
    assert np.array_equal(spec.pack(back), spec.pack(theta))
    # "model" is optional on input
    assert spec.from_json_dict({k: v for k, v in d.items() if k != "model"}) == theta


@pytest.mark.parametrize("mid", list(MODELS))
def test_codec_rejects_unknown_and_missing_fields(mid):
    spec = MODELS[mid]
    good = spec.to_json_dict(spec.unpack(_inner_vector(spec), TENORS))
    with pytest.raises(ValueError, match="kappa_typo"):
        spec.from_json_dict({**good, "kappa_typo": 1.0})
    dropped = spec.base_names[-1]
    with pytest.raises(ValueError, match=dropped):
        spec.from_json_dict({k: v for k, v in good.items() if k != dropped})


def test_rough_heston_pp_rejects_jump_fields():
    # rough_heston_pp has no jumps: a lambda_j it cannot carry in its vector
    # must not be priced either
    spec = get_model("rough_heston_pp")
    d = spec.to_json_dict(spec.unpack(spec.default_start(TENORS), TENORS))
    with pytest.raises(ValueError, match="lambda_j"):
        spec.from_json_dict({**d, "lambda_j": 200.0})


def test_default_start_inside_bounds():
    for mid, spec in MODELS.items():
        x = spec.default_start(TENORS, atm_vol=0.2)
        for val, (lo, hi) in zip(x, spec.default_bounds(6)):
            assert lo <= val <= hi, (mid, val, lo, hi)


def test_standardized_bridge_gaussian_identity():
    # raw lognormal CF exp(-iw s^2 tau/2 - w^2 s^2 tau/2) standardizes to the
    # unit Gaussian CF exactly: the drift phases cancel by construction
    s, tau = 0.31, 3 / 365
    raw = lambda w: np.exp(-1j * w * s * s * tau / 2.0 - w * w * s * s * tau / 2.0)
    u = np.linspace(-8.0, 8.0, 33)
    got = standardized_from_raw(raw, u, tau, s)
    assert np.max(np.abs(got - np.exp(-u * u / 2.0))) < 1e-14


def test_edgeworth_cf_delegates_to_psi_full():
    spec = get_model("edgeworth_pp")
    x = np.array([0.2, 0.4, -0.7, 0.1, 0.05, 20.0, -0.004, 0.004,
                  0.05, -0.03, 0.0, 0.02, 0.01])
    theta = spec.unpack(x, TENORS)
    u = np.linspace(-40.0, 40.0, 81)
    tau = TENORS[4]
    want = psi_full(u, tau, theta[0], theta[1])
    got = spec.cf_standardized(u, tau, theta)
    assert np.max(np.abs(got - want)) == 0.0
    assert spec.spot_vol(theta) == 0.2


@pytest.mark.parametrize("mid", ["edgeworth", "edgeworth_pp", "bs_pp", "rough_heston_pp",
                                 "rough_heston_merton_pp", "heston_merton_2f_pp"])
def test_cf_with_one_tau_per_frequency_equals_per_tau_calls(mid):
    # psi_full, _bspp_cf, _rough_cf (rough_heston_cf) and the displaced
    # affine solve: the first probe chunk of every tenor in one call, and
    # both pricer lines (with the normalizer) of two tenors in one call
    spec = get_model(mid)
    theta = spec.unpack(spec.default_start(TENORS), TENORS)
    st = [spec.spot_vol(theta) * math.sqrt(t) for t in TENORS]
    probes = np.geomspace(5.0, 2000.0, 40)[:8]
    nodes = 12.0 / 2000 * (np.arange(2000) + 0.5)
    cases = [[probes - 1j * s for s in st],
             [np.concatenate([[-1j * s], nodes - 1j * s, nodes]) for s in (st[0], st[-1])]]
    for parts, taus in zip(cases, (TENORS, (TENORS[0], TENORS[-1]))):
        want = np.concatenate([spec.cf_standardized(u, t, theta) for u, t in zip(parts, taus)])
        got = spec.cf_standardized(np.concatenate(parts),
                                   np.repeat(taus, [u.size for u in parts]), theta)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), mid


def test_bspp_prices_exact_black_scholes():
    spec = get_model("bs_pp")
    x = np.array([0.2, 0.05, -0.03, 0.0, 0.02, 0.01])
    theta = spec.unpack(x, TENORS)
    tau = TENORS[3]
    v = shift_weighted_variance(0.2, theta[1], tau)
    vol = 0.2 * math.sqrt(v / tau)
    cf = lambda u: spec.cf_standardized(u, tau, theta)
    strikes = (97.0, 100.0, 103.0)
    u_max = _surface_u_max(lambda u, t: spec.cf_standardized(u, t, theta), 0.2, [tau])[0][0]
    calls = checked_slice_calls(cf, 0.2, tau, 100.0, 0.0, strikes, QuadratureConfig(), u_max)
    for strike, got in zip(strikes, calls):
        want = bs_price(100.0, strike, tau, 0.0, vol)
        assert abs(got - want) < 1e-6  # Fourier grid resolution


def test_hm_bridge_degenerate_bs():
    # zeta ~ 0, no jumps: variance pinned near v0 -> Black-Scholes prices
    spec = get_model("heston_merton_1f")
    theta = spec.unpack(np.array([0.04, 1e-3, 0.04, 1e-3, 0.0, 0.0, 0.0, 1e-4]), TENORS)
    assert abs(spec.spot_vol(theta) - 0.2) < 1e-15
    tau = TENORS[2]
    cf = lambda u: spec.cf_standardized(u, tau, theta)
    u_max = _surface_u_max(lambda u, t: spec.cf_standardized(u, t, theta), 0.2, [tau])[0][0]
    got = checked_slice_calls(cf, 0.2, tau, 100.0, 0.0, [100.0], QuadratureConfig(), u_max)[0]
    want = bs_price(100.0, 100.0, tau, 0.0, 0.2)
    assert abs(got - want) < 2e-5


def test_hm_pp_with_zero_shifts_matches_plain():
    plain = get_model("heston_merton_2f")
    pp = get_model("heston_merton_2f_pp")
    x = plain.default_start(TENORS, atm_vol=0.2)
    x_pp = np.concatenate([x, np.zeros(5)])
    u = np.array([0.5, 2.0, 8.0, 25.0])
    tau = TENORS[3]
    a = plain.cf_standardized(u, tau, plain.unpack(x, TENORS))
    b = pp.cf_standardized(u, tau, pp.unpack(x_pp, TENORS))
    assert np.max(np.abs(a - b)) < 1e-9  # segmented integrator restarts


def test_all_models_price_a_surface_without_errors():
    grid = [(k, t) for t in (TENORS[0], TENORS[3]) for k in (98.0, 100.0, 102.0)]
    for mid, spec in MODELS.items():
        theta = spec.unpack(spec.default_start(TENORS, atm_vol=0.2), TENORS)
        rows = price_surface(grid, spec, theta, 100.0)
        bad = [r["error"] for r in rows if r["error"] is not None]
        assert not bad, (mid, bad)
        assert all(0.0 < r["iv"] < 1.5 for r in rows), mid


def test_rough_spot_vol_and_curve_layout():
    spec = get_model("rough_heston_pp")
    x = np.array([0.12, 0.45, -0.55, 0.04, 0.045, 0.05, 0.055, 0.06, 0.065])
    theta = spec.unpack(x, TENORS)
    assert theta.xi_tenors == TENORS
    assert theta.xi_levels == (0.04, 0.045, 0.05, 0.055, 0.06, 0.065)
    assert abs(spec.spot_vol(theta) - 0.2) < 1e-15
    names = spec.param_names(6)
    assert names[:3] == ("hurst", "nu", "rho") and names[3] == "xi_1"
