"""Calibration tests: the nested RMSE objective, fit diagnostics, and the
optimizer's determinism, trace monotonicity and round-trip recovery."""

import dataclasses
import math

import numpy as np
import pytest

from ustvol import calibration

from ustvol.bspp_bootstrap import shift_weighted_variance
from ustvol.calibration import (
    CalibrationResult,
    ParamBounds,
    bid_ask_fraction,
    bucket_rmse,
    calibrate,
    rmse,
)
from ustvol.cf_edgeworth import Displacement
from ustvol.fourier_pricer import QuadratureConfig, bs_price
from ustvol.market_data import (
    MoneynessBucket,
    OptionQuote,
    Surface,
    TenorSlice,
    filter_surface,
)

QUAD = QuadratureConfig(node_count=2048)


def _bspp_quotes(sigma0, disp, tenors, strikes, spot=100.0, half_spread=0.002):
    quotes = []
    for tau in tenors:
        vol = sigma0 * math.sqrt(shift_weighted_variance(sigma0, disp, tau) / tau)
        for k in strikes:
            for is_call in (True, False):
                p = bs_price(spot, k, tau, 0.0, vol, is_call)
                quotes.append(OptionQuote(k, tau, max(p - half_spread, 1e-6),
                                          p + half_spread, is_call))
    return quotes


def _flat_surface(sigma0=0.2, tenors=(1 / 365, 2 / 365, 3 / 365),
                  strikes=(98.0, 100.0, 102.0)):
    disp = Displacement(tenors=tenors, shifts=(0.0,) * (len(tenors) - 1))
    return filter_surface(_bspp_quotes(sigma0, disp, tenors, strikes), 100.0)


def test_param_bounds_validation():
    with pytest.raises(ValueError, match="lower"):
        ParamBounds(((0.0, 0.0),))
    pb = ParamBounds(((0.0, 1.0), (-2.0, 2.0)))
    assert np.array_equal(pb.clip([5.0, -3.0]), [1.0, -2.0])
    assert np.array_equal(pb.widths(), [1.0, 4.0])


def test_rmse_zero_on_self_generated():
    surf = _flat_surface()
    val = rmse(surf, "bs_pp", (0.2, 0.0, 0.0), quad=QUAD)
    assert val < 1e-4  # vol points; limited only by quadrature/inversion noise


def test_rmse_single_quote_hand_value():
    # one tenor, one option, 0.01 vol error -> exactly 1.0 vol point
    tau = 2.0 / 365.0
    p = bs_price(100.0, 100.0, tau, 0.0, 0.21, True)
    q = OptionQuote(100.0, tau, p, p, is_call=True)
    surf = Surface(100.0, (TenorSlice(tau, 100.0, 0.21, (q,), (0.0,)),))
    assert rmse(surf, "bs_pp", (0.2, ), quad=QUAD) == pytest.approx(1.0, abs=1e-4)


def test_rmse_nested_average_hand_value():
    # tenor A: one option off by 0.01; tenor B: four options off by 0.02
    # -> 100*sqrt((0.0001 + 0.0004)/2) = 1.5811
    t1, t2 = 1.0 / 365.0, 2.0 / 365.0
    q1 = []
    p = bs_price(100.0, 100.0, t1, 0.0, 0.21, True)
    q1.append(OptionQuote(100.0, t1, p, p, is_call=True))
    q2 = []
    for k in (99.0, 99.5, 100.5, 101.0):
        is_call = k > 100.0
        p = bs_price(100.0, k, t2, 0.0, 0.22, is_call)
        q2.append(OptionQuote(k, t2, p, p, is_call=is_call))
    surf = Surface(100.0, (
        TenorSlice(t1, 100.0, 0.21, tuple(q1), (0.0,)),
        TenorSlice(t2, 100.0, 0.22, tuple(q2), (-0.5, -0.25, 0.25, 0.5)),
    ))
    val = rmse(surf, "bs_pp", (0.2, 0.0), quad=QUAD)
    assert val == pytest.approx(100.0 * math.sqrt(0.00025), abs=1e-3)


def test_rmse_rejects_noninvertible_mid():
    tau = 2.0 / 365.0
    deep_itm = OptionQuote(80.0, tau, 19.0, 19.0, is_call=True)  # below intrinsic
    surf = Surface(100.0, (TenorSlice(tau, 100.0, 0.2, (deep_itm,), (-10.0,)),))
    with pytest.raises(ValueError, match="mid"):
        rmse(surf, "bs_pp", (0.2,), quad=QUAD)


def test_bid_ask_fraction_without_mid_implied_vol():
    # both mids sit below the intrinsic S - K = 20, so neither has an
    # implied vol; the model premium of about 20 lies in the first band only
    tau = 2.0 / 365.0
    deep_itm = OptionQuote(80.0, tau, 18.0, 20.5, is_call=True)
    surf = Surface(100.0, (TenorSlice(tau, 100.0, 0.2, (deep_itm,), (-10.0,)),))
    assert bid_ask_fraction(surf, "bs_pp", (0.2,), quad=QUAD) == 1.0
    miss = OptionQuote(80.0, tau, 19.0, 19.5, is_call=True)
    surf = Surface(100.0, (TenorSlice(tau, 100.0, 0.2, (miss,), (-10.0,)),))
    assert bid_ask_fraction(surf, "bs_pp", (0.2,), quad=QUAD) == 0.0


def test_bid_ask_fraction_trivial_cases():
    surf = _flat_surface()
    assert bid_ask_fraction(surf, "bs_pp", (0.2, 0.0, 0.0), quad=QUAD) == 1.0
    # a far-off vol level prices every contract outside the tight spreads
    assert bid_ask_fraction(surf, "bs_pp", (0.4, 0.0, 0.0), quad=QUAD) == 0.0


def test_bid_ask_fraction_half_perturbed():
    tenors = (2.0 / 365.0,)
    disp = Displacement(tenors=tenors, shifts=())
    quotes = _bspp_quotes(0.2, disp, tenors, (99.0, 99.5, 100.5, 101.0),
                          half_spread=0.001)
    # widen + displace the band around half the quotes so the fair price
    # falls outside it
    bumped = []
    for i, q in enumerate(quotes):
        if i % 2 == 0:
            bumped.append(OptionQuote(q.strike, q.tenor, q.mid * 1.5,
                                      q.mid * 1.6, q.is_call))
        else:
            bumped.append(q)
    surf = filter_surface(bumped, 100.0)
    frac = bid_ask_fraction(surf, "bs_pp", (0.2,), quad=QUAD)
    assert frac == pytest.approx(0.5, abs=1e-12)


def test_bucket_rmse_cells():
    surf = _flat_surface(strikes=(98.0, 100.0, 102.0))
    cells = bucket_rmse(surf, "bs_pp", (0.2, 0.0, 0.0), quad=QUAD)
    assert cells
    for (idx, bucket), val in cells.items():
        assert 0 <= idx < len(surf.slices)
        assert isinstance(bucket, MoneynessBucket)
        assert val < 1e-4


def test_calibrate_bspp_round_trip():
    tenors = (1 / 365, 2 / 365, 3 / 365)
    truth = Displacement(tenors=tenors, shifts=(0.03, -0.02))
    surf = filter_surface(
        _bspp_quotes(0.2, truth, tenors, (98.0, 100.0, 102.0)), 100.0
    )
    res = calibrate(surf, "bs_pp", quad=QUAD, budget=2000, rng_seed=0)
    assert res.rmse < 1e-3
    assert res.params[0] == pytest.approx(0.2, rel=1e-3)
    assert res.params[1] == pytest.approx(0.03, abs=2e-3)
    assert res.params[2] == pytest.approx(-0.02, abs=2e-3)
    assert res.converged
    assert res.iterations <= 2100


def test_calibrate_reeval_identity_trace_and_determinism():
    surf = _flat_surface()
    a = calibrate(surf, "bs_pp", quad=QUAD, budget=800, rng_seed=7)
    b = calibrate(surf, "bs_pp", quad=QUAD, budget=800, rng_seed=7)
    assert a.params == b.params
    assert a.rmse == b.rmse
    assert a.trace == b.trace
    # re-evaluation identity: the stored report is the one at the params
    assert a.rmse == rmse(surf, "bs_pp", a.params, quad=QUAD)
    assert a.bucket_rmse == bucket_rmse(surf, "bs_pp", a.params, quad=QUAD)
    assert a.bid_ask_fraction == bid_ask_fraction(surf, "bs_pp", a.params, quad=QUAD)
    # monotone improvement trace
    assert all(x >= y for x, y in zip(a.trace, a.trace[1:]))
    assert a.iterations > 0 and a.wall_time > 0.0
    assert 0.0 <= a.bid_ask_fraction <= 1.0


def test_calibrate_flat_surface_degenerate_edgeworth():
    # a pure BS surface should push the vol-of-vol and jump intensity
    # toward their lower bounds and fit to well under 0.01 vol points
    surf = _flat_surface(strikes=(98.0, 99.0, 100.0, 101.0, 102.0))
    res = calibrate(surf, "edgeworth_pp", quad=QUAD, budget=4000, rng_seed=0)
    assert res.rmse <= 0.01
    params = dict(zip(["sigma0", "beta", "rho", "eta", "alpha", "lam"], res.params))
    assert params["sigma0"] == pytest.approx(0.2, rel=0.02)
    assert params["beta"] <= 0.5  # lower edge of [0, 10]
    assert params["lam"] <= 25.0  # lower edge of [0, 500]


def test_calibrate_seeded_start_converges_immediately():
    tenors = (1 / 365, 2 / 365, 3 / 365)
    truth = Displacement(tenors=tenors, shifts=(0.01, 0.02))
    surf = filter_surface(
        _bspp_quotes(0.22, truth, tenors, (99.0, 100.0, 101.0)), 100.0
    )
    res = calibrate(surf, "bs_pp", seed_params=(0.22, 0.01, 0.02),
                    quad=QUAD, budget=600, rng_seed=1)
    assert res.rmse < 1e-3
    assert res.converged


def test_calibrate_input_validation():
    surf = _flat_surface()
    with pytest.raises(ValueError, match="empty"):
        calibrate(Surface(100.0, ()), "bs_pp")
    with pytest.raises(ValueError, match="bounds"):
        calibrate(surf, "bs_pp", bounds=ParamBounds(((0.01, 3.0),)))
    with pytest.raises(ValueError, match="unknown model"):
        calibrate(surf, "svi")
    with pytest.raises(ValueError, match="seed_params"):
        calibrate(surf, "bs_pp", seed_params=(0.2,))


def test_calibrate_propagates_programming_errors(monkeypatch):
    # a TypeError is a bug, not an infeasible parameter vector: it must reach
    # the caller instead of being scored as a penalty
    calls = []

    def broken_cf(u, tau, theta):
        calls.append(tau)
        raise TypeError("broken characteristic function")

    spec = dataclasses.replace(calibration.get_model("bs_pp"), _cf=broken_cf)
    monkeypatch.setattr(calibration, "get_model", lambda model_id: spec)
    with pytest.raises(TypeError, match="broken characteristic function"):
        calibrate(_flat_surface(), "bs_pp", quad=QUAD, budget=60, restarts=0)
    assert len(calls) == 1  # raised by the first objective evaluation


def test_calibration_result_validation():
    with pytest.raises(ValueError, match="rmse"):
        CalibrationResult("bs_pp", (0.2,), -1.0, {})
    with pytest.raises(ValueError, match="bid_ask_fraction"):
        CalibrationResult("bs_pp", (0.2,), 1.0, {}, bid_ask_fraction=1.5)
