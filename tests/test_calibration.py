"""Calibration tests: the nested RMSE objective, fit diagnostics, and the
optimizer's determinism, trace monotonicity and round-trip recovery."""

import dataclasses
import math

import numpy as np
import pytest

from ustvol import calibration, diagnostics, fourier_pricer

from ustvol.bspp_bootstrap import shift_weighted_variance
from ustvol.calibration import CalibrationResult, calibrate, rmse
from ustvol.cf_edgeworth import Displacement
from ustvol.diagnostics import BENCH_TENORS
from ustvol.fourier_pricer import (
    QuadratureConfig,
    _implied_vols,
    _put_from_call,
    bs_price,
    price_surface,
)
from ustvol.market_data import (
    IngestConfig,
    MoneynessBucket,
    OptionQuote,
    Surface,
    TenorSlice,
    filter_surface,
)
from ustvol.registry import model_ids

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


def _fit_report(surf, model_id, vec):
    """(RMSE, bucket RMSEs, bid/ask hit share, IV clamps, u_max truncations)
    at the flat vector ``vec``, from the report pass that ``calibrate``
    makes."""
    model = calibration.get_model(model_id)
    theta = model.unpack(vec, surf.tenors)
    return calibration._report(calibration._market_view(surf, 0.0), model, theta,
                               surf.spot, 0.0, QUAD)


def _flat_surface(sigma0=0.2, tenors=(1 / 365, 2 / 365, 3 / 365),
                  strikes=(98.0, 100.0, 102.0)):
    disp = Displacement(tenors=tenors, shifts=(0.0,) * (len(tenors) - 1))
    return filter_surface(_bspp_quotes(sigma0, disp, tenors, strikes), 100.0)


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


def test_bid_ask_fraction_trivial_cases():
    surf = _flat_surface()
    assert _fit_report(surf, "bs_pp", (0.2, 0.0, 0.0))[2] == 1.0
    # a far-off vol level prices every contract outside the tight spreads
    assert _fit_report(surf, "bs_pp", (0.4, 0.0, 0.0))[2] == 0.0


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
    frac = _fit_report(surf, "bs_pp", (0.2,))[2]
    assert frac == pytest.approx(0.5, abs=1e-12)


def test_bucket_rmse_cells():
    surf = _flat_surface(strikes=(98.0, 100.0, 102.0))
    cells = _fit_report(surf, "bs_pp", (0.2, 0.0, 0.0))[1]
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
    assert ((a.rmse, a.bucket_rmse, a.bid_ask_fraction, a.iv_clamps, a.u_max_truncations)
            == _fit_report(surf, "bs_pp", a.params))
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
    # the ATM bootstrap start is the truth on a bs_pp surface
    res = calibrate(surf, "bs_pp", quad=QUAD, budget=600, rng_seed=1)
    assert res.rmse < 1e-3
    assert res.converged


def test_calibrate_input_validation():
    surf = _flat_surface()
    with pytest.raises(ValueError, match="empty"):
        calibrate(Surface(100.0, ()), "bs_pp")
    with pytest.raises(ValueError, match="unknown model"):
        calibrate(surf, "svi")
    for budget, restarts in ((0, 0), (-100, -3), (800, -2)):
        with pytest.raises(ValueError, match="budget >= 1 and restarts >= 0"):
            calibrate(surf, "bs_pp", budget=budget, restarts=restarts)


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


def test_model_iv_clamps_to_bracket_edges():
    # a model price floored at its intrinsic value has no IV and scores the
    # bracket's low edge; one above the vol=10 Black-Scholes value scores the
    # high edge; either way the RMSE stays finite
    tau = 2.0 / 365.0
    quotes = []
    for k in (100.0, 116.0):  # ATM and z ~ +10 at sigma0 = 0.2
        p = bs_price(100.0, k, tau, 0.0, 0.5)
        quotes.append(OptionQuote(k, tau, p, p, is_call=True))
    surf = Surface(100.0, (TenorSlice(tau, 100.0, 0.5, tuple(quotes), (0.0, 4.0)),))
    view = calibration._market_view(surf, 0.0)
    model = calibration.get_model("bs_pp")
    low, high = calibration._IV_BRACKET
    assert (low, high) == (1e-6, 10.0)

    # the floor binds by construction: bs_pp's CF scaled by 1 - 1e-6 moves
    # the strike leg's exercise probability P to P - 1e-6*(P - 1/2), so the
    # z ~ +10 raw call is about -0.5e-6*K, below intrinsic but far above the
    # -1e-4*S0 error band, while the ATM call (P ~ 1/2) barely moves
    leaky = dataclasses.replace(model, _cf=lambda u, t, th: (1.0 - 1e-6) * model._cf(u, t, th))
    theta = model.unpack((0.2,), (tau,))
    prices, ivs, clamped, _ = calibration._model_quotes(view, leaky, theta, 100.0, 0.0, QUAD)
    assert prices[1] == 0.0 and ivs[1] == low
    assert abs(ivs[0] - 0.2) < 1e-4
    assert list(clamped) == [False, True]
    _, ivs, clamped, _ = calibration._model_quotes(view, model, model.unpack((60.0,), (tau,)),
                                                   100.0, 0.0, QUAD)
    assert list(ivs) == [high, high] and clamped.all()

    assert math.isfinite(rmse(surf, leaky, (0.2,), quad=QUAD))
    assert rmse(surf, "bs_pp", (60.0,), quad=QUAD) == pytest.approx(100.0 * (high - 0.5), rel=1e-9)


def test_iv_clamps_counted_in_the_fit_report():
    surf = _flat_surface()
    res = calibrate(surf, "bs_pp", quad=QUAD, budget=400, rng_seed=0)
    assert res.rmse < 1e-3 and res.iv_clamps == 0
    # vol 60 prices every quote above its vol-10 Black-Scholes value
    assert _fit_report(surf, "bs_pp", (60.0, 0.0, 0.0))[3] == sum(len(s.quotes) for s in surf.slices)


def test_u_max_truncations_counted_in_the_fit_report():
    # an edgeworth_pp fit's CF decays on every tenor; rough_heston_pp at its
    # start diverges in its second probe chunk on the 2 d and 3 d tenors,
    # whose u_max is then the first chunk's end
    surf = _flat_surface()
    res = calibrate(surf, "edgeworth_pp", quad=QUAD, budget=30, restarts=0)
    assert res.u_max_truncations == 0
    start = calibration.get_model("rough_heston_pp").default_start(surf.tenors)
    assert _fit_report(surf, "rough_heston_pp", start)[4] == 2


RATE = 0.03


def _two_sided_surface(tenors, zs, spot=100.0, rate=RATE):
    """A call and a put at every strike, mids on a smile, at a nonzero rate."""
    quotes = []
    for tau in tenors:
        for z in zs:
            strike = spot * math.exp(z * 0.2 * math.sqrt(tau))
            vol = 0.2 * (1.0 + 0.02 * z * z - 0.05 * z)
            for is_call in (True, False):
                p = bs_price(spot, strike, tau, rate, vol, is_call)
                quotes.append(OptionQuote(strike, tau, 0.99 * p, 1.01 * p, is_call))
    return filter_surface(quotes, spot, IngestConfig(rate=rate))


def test_flat_pass_prices_and_ivs_are_bitwise_the_per_slice_path():
    surf = _two_sided_surface(BENCH_TENORS[::2], np.linspace(-3.0, 2.5, 9))
    assert all(len(sl.quotes) == 18 for sl in surf.slices)
    view = calibration._market_view(surf, RATE)
    n = len(surf.tenors)
    # edgeworth_pp near gate 8's truth, and bs_pp at vols whose IVs clamp:
    # 1e-3 floors every wing at intrinsic, 60 prices above the vol-10 value
    cases = [("edgeworth_pp", (0.2, 0.6, -0.6, 0.2, 0.1, 30.0, -0.01, 0.02, 0.01, -0.005)),
             ("bs_pp", (1e-3,) + (0.0,) * (n - 1)), ("bs_pp", (60.0,) + (0.0,) * (n - 1))]
    clamps = 0
    for model_id, vec in cases:
        model = calibration.get_model(model_id)
        theta = model.unpack(vec, surf.tenors)
        prices, ivs, clamped, _ = calibration._model_quotes(view, model, theta, surf.spot, RATE,
                                                            QUAD)
        per_tenor = []
        for sl, start in zip(surf.slices, view.starts.tolist()):
            part = slice(start, start + len(sl.quotes))
            strikes = [q.strike for q in sl.quotes]
            is_call = np.array([q.is_call for q in sl.quotes])
            rows = price_surface([(k, sl.tau) for k in strikes], model, theta, surf.spot, RATE, QUAD)
            calls = np.array([r["call"] for r in rows])
            disc_k = np.multiply(strikes, math.exp(-RATE * sl.tau))
            want = np.where(is_call, calls, _put_from_call(calls, surf.spot, disc_k))
            assert np.array_equal(prices[part], want)
            # the per-slice objective's solve, and its clamps
            one = _implied_vols(want, surf.spot, strikes, sl.tau, RATE, is_call)
            assert np.array_equal(clamped[part], np.isnan(one))
            assert np.array_equal(ivs[part][~clamped[part]], one[~clamped[part]])
            per_tenor.append(one)
        flat = _implied_vols(prices, surf.spot, view.strikes, view.tau, RATE, view.is_call)
        assert np.array_equal(flat, np.concatenate(per_tenor), equal_nan=True)
        clamps += int(clamped.sum())
    assert clamps > 0


def test_surface_callers_price_like_one_price_surface_call():
    # the objective's quote prices and the timing bench's checksum come from
    # the same surface core as price_surface: on the same contracts they are
    # the prices derived from one price_surface call, bit for bit
    surf = _two_sided_surface(BENCH_TENORS[::2], np.linspace(-3.0, 2.5, 9))
    view = calibration._market_view(surf, RATE)
    model = calibration.get_model("edgeworth_pp")
    theta = model.unpack((0.2, 0.6, -0.6, 0.2, 0.1, 30.0, -0.01, 0.02, 0.01, -0.005), surf.tenors)
    prices = calibration._model_quotes(view, model, theta, surf.spot, RATE, QUAD)[0]
    rows = price_surface(list(zip(view.strikes.tolist(), view.tau.tolist())), model, theta,
                         surf.spot, RATE, QUAD)
    calls = np.array([r["call"] for r in rows])
    assert np.array_equal(prices, np.where(view.is_call, calls,
                                           _put_from_call(calls, surf.spot, view.disc_k)))

    model = calibration.get_model("heston_merton_2f")
    theta = model.unpack(model.default_start(BENCH_TENORS), BENCH_TENORS)
    strikes = 100.0 * np.exp([0.0, -diagnostics._BENCH_LOG_MONEYNESS,
                              diagnostics._BENCH_LOG_MONEYNESS])
    rows = price_surface([(k, t) for t in BENCH_TENORS for k in strikes.tolist()], model, theta,
                         100.0, 0.0, QUAD)
    total = 0.0
    for t in BENCH_TENORS:
        calls = np.array([r["call"] for r in rows if r["tau"] == t])
        total += float(np.where(strikes > 100.0, calls, _put_from_call(calls, 100.0, strikes)).sum())
    assert diagnostics._price_tenors(model, theta, BENCH_TENORS, 100.0, QUAD) == total


def test_an_objective_evaluation_prices_distinct_strikes_and_inverts_once(monkeypatch):
    surf = _flat_surface()
    spec = calibration.get_model("bs_pp")
    unpacked, priced, inverted = [], [], []

    def unpack(x, tenors, _real=spec._unpack):
        theta = _real(x, tenors)
        unpacked.append(tenors)
        return theta

    def slice_spy(cf, sigma0, tau, *args, _real=fourier_pricer._slice_calls):
        priced.append((tau, list(args[2])))
        return _real(cf, sigma0, tau, *args)

    def iv_spy(prices, *args, _real=calibration._implied_vols):
        inverted.append(np.size(prices))
        return _real(prices, *args)

    monkeypatch.setattr(calibration, "get_model",
                        lambda model_id: dataclasses.replace(spec, _unpack=unpack))
    monkeypatch.setattr(fourier_pricer, "_slice_calls", slice_spy)
    monkeypatch.setattr(calibration, "_implied_vols", iv_spy)
    res = calibrate(surf, "bs_pp", quad=QUAD, budget=60, restarts=0)
    # every evaluation and the final report unpack once and price
    evals = len(unpacked)
    assert evals == res.iterations + 1
    quotes = sum(len(sl.quotes) for sl in surf.slices)
    assert quotes == 2 * 3 * len(surf.slices)  # a call and a put at each of 3 strikes
    # the market view's solve, then one solve of every quote per evaluation
    assert inverted == [quotes] * (evals + 1)
    distinct = [(sl.tau, sorted({q.strike for q in sl.quotes})) for sl in surf.slices]
    assert priced == distinct * evals


@pytest.mark.parametrize("model_id", model_ids())
def test_surface_passes_make_one_grid_call_per_solver_backed_surface(model_id):
    # a price_surface pass and an objective evaluation over six tenors: a
    # solver-backed model's slice grids go into one CF call with one tau per
    # frequency, a closed form's into one call per tenor with its scalar tau
    surf = _two_sided_surface(BENCH_TENORS, np.linspace(-2.0, 2.0, 3))
    spec = calibration.get_model(model_id)
    grids = []

    def cf(u, tau, th):
        if np.size(u) > 8 * len(BENCH_TENORS):  # more points than a probe round
            grids.append(np.unique(tau).size if np.ndim(tau) else "scalar")
        return spec._cf(u, tau, th)

    model = dataclasses.replace(spec, _cf=cf)
    theta = model.unpack(model.default_start(surf.tenors), surf.tenors)
    want = [6] if model_id.startswith(("heston", "rough")) else ["scalar"] * 6
    view = calibration._market_view(surf, RATE)
    calibration._model_quotes(view, model, theta, surf.spot, RATE, QuadratureConfig(node_count=256))
    assert grids == want
    grids.clear()
    rows = price_surface([(k, t) for t in surf.tenors for k in (99.0, 101.0)], model, theta,
                         surf.spot, RATE, QuadratureConfig(node_count=256))
    assert grids == want and all(r["error"] is None for r in rows)
