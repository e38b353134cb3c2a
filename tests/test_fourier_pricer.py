"""Tests for Fourier inversion pricing, Black-Scholes utilities and IV inversion."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import adaptive_u_max, bs_price_highprec, checked_slice_calls, slice_calls_direct
from test_acceptance import CAL_SHIFTS, CAL_TRUTH
from ustvol import fourier_pricer
from ustvol.benchmarks import HestonMertonParams, heston_merton_cf
from ustvol.bspp_bootstrap import bspp_atm_vol
from ustvol.cf_edgeworth import Displacement, EdgeworthParams, psi_c_no_shift, psi_full
from ustvol.diagnostics import BENCH_TENORS
from ustvol.fourier_pricer import (
    ArbitrageBoundsError,
    CFNormalizationError,
    NegativePriceError,
    QuadratureConfig,
    _PROBES,
    _implied_vols,
    _put_from_call,
    _slice_calls,
    _surface_u_max,
    _tenor_values,
    bs_price,
    implied_vol,
    price_surface,
)
from ustvol.registry import get_model, model_ids

# Frozen from tests/oracles.py bs_price_highprec (50-digit closed form):
BS_ATM_CALL_1_12 = 2.30297446780243      # S=K=100, r=0, tau=1/12, sigma=0.2
BS_OTM_CALL_K120 = 0.00136803618734244   # K=120, same terms
BS_OTM_PUT_K80 = 6.65526875686572e-05    # K=80, same terms
BS_ATM_CALL_1Y = 7.9655674554058         # S=K=100, r=0, tau=1, sigma=0.2

TAU = 1.0 / 12.0
BS_PARAMS = EdgeworthParams(sigma0=0.2)


def _bs_cf(tau):
    return lambda u: psi_c_no_shift(u, tau, BS_PARAMS)


def _u_max(cf, tau, sigma0=0.2):
    """The surface probe's u_max of the one tenor of a one-tau ``cf``."""
    return _surface_u_max(lambda u, _t: cf(u), sigma0, [tau])[0][0]


def _calls(strikes, cf=None, rate=0.0, quad=None):
    """Calls of one TAU slice (spot 100, sigma0 0.2) through the probe and
    the kernel that ``price_surface`` runs."""
    cf = cf or _bs_cf(TAU)
    return checked_slice_calls(cf, 0.2, TAU, 100.0, rate, np.asarray(strikes, dtype=float),
                               quad or QuadratureConfig(), _u_max(cf, TAU))


def _puts(strikes, rate=0.0):
    strikes = np.asarray(strikes, dtype=float)
    return _put_from_call(_calls(strikes, rate=rate), 100.0, strikes * math.exp(-rate * TAU))


# ---------------------------------------------------------------------------
# the factorized slice kernel against the direct per-node midpoint sum
# ---------------------------------------------------------------------------

def _kernel_cases():
    edge = get_model("edgeworth_pp")
    theta = (CAL_TRUTH, Displacement(tenors=BENCH_TENORS, shifts=CAL_SHIFTS))
    # 101 nodes: the A x F phase grid needs zero padding
    for n in (100, 101, 2048, 10_000):
        yield edge, theta, n
    heston = get_model("heston_merton_2f")
    yield heston, heston.unpack(heston.default_start(BENCH_TENORS), tenors=BENCH_TENORS), 2000


def test_slice_calls_match_direct_trapezoid():
    spot, rate = 100.0, 0.03
    for model, theta, n in _kernel_cases():
        quad, sigma0 = QuadratureConfig(node_count=n), model.spot_vol(theta)
        for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
            def cf(u):
                return model.cf_standardized(u, tau, theta)
            strikes = spot * np.exp(np.linspace(-15.0, 5.0, 41) * sigma0 * math.sqrt(tau))
            u_max = _u_max(cf, tau, sigma0)
            calls, negative = _slice_calls(cf, sigma0, tau, spot, rate, strikes, quad, u_max)
            direct = slice_calls_direct(cf, sigma0, tau, spot, rate, strikes, quad, u_max)
            assert not negative
            assert np.max(np.abs(calls - direct)) <= 1e-13 * spot, (n, tau)
            # a strike's call does not depend on the slice it is priced in
            rev = _slice_calls(cf, sigma0, tau, spot, rate, strikes[::-1], quad, u_max)[0]
            assert np.array_equal(rev[::-1], calls)
            for sub in ([3, 30], [3], [30]):
                part = _slice_calls(cf, sigma0, tau, spot, rate, strikes[sub], quad, u_max)[0]
                assert np.array_equal(part, calls[sub])


# ---------------------------------------------------------------------------
# slice calls and parity puts against the closed-form oracle
# ---------------------------------------------------------------------------

def test_call_bs_reduction_atm():
    c = _calls([100.0])[0]
    assert abs(c - BS_ATM_CALL_1_12) < 1e-4


def test_call_bs_reduction_otm():
    c = _calls([120.0])[0]
    assert abs(c - BS_OTM_CALL_K120) < 1e-4
    assert abs(c - BS_OTM_CALL_K120) < 1e-6  # actual quadrature accuracy


def test_deep_itm_call_tends_to_spot():
    c = _calls([1e-6])[0]
    assert abs(c - 100.0) <= 1e-6 * 100.0


def test_atm_put_equals_atm_call_at_zero_rate():
    assert abs(_calls([100.0])[0] - _puts([100.0])[0]) < 1e-12


def test_deep_otm_put_tends_to_zero():
    assert _puts([1e-8])[0] <= 1e-8 * 100.0


def test_put_bs_reduction_k80():
    assert abs(_puts([80.0])[0] - BS_OTM_PUT_K80) < 1e-6


def test_parity_residual_structural():
    c = _calls([93.0], rate=0.03)[0]
    p = _puts([93.0], rate=0.03)[0]
    resid = c - p - 100.0 + 93.0 * math.exp(-0.03 * TAU)
    assert abs(resid) < 1e-10 * 100.0


def test_call_monotone_and_convex_in_strike():
    prices = _calls(np.linspace(85.0, 115.0, 31))
    assert np.all(np.diff(prices) <= 1e-8 * 100.0)
    assert np.all(np.diff(prices, 2) >= -1e-7 * 100.0)


def test_cf_normalization_error():
    dead_cf = lambda u: np.zeros_like(np.asarray(u, dtype=complex))
    with pytest.raises(CFNormalizationError):
        _calls([100.0], cf=dead_cf)


def test_u_max_probe_truncates_only_numerical_failures():
    # a CF solver failing far out truncates the probe scan of every tenor of
    # the surface, flagged as truncated; a TypeError is a bug and must
    # propagate
    def non_decaying_cf(exc):
        def cf(u, tau):
            if np.max(np.abs(u)) > 50.0:
                raise exc("far-out failure")
            return np.ones_like(u)
        return cf

    for taus in ([TAU], BENCH_TENORS):
        u_max, truncated = _surface_u_max(non_decaying_cf(RuntimeError), 0.2, taus)
        assert all(5.0 <= top <= 50.0 for top in u_max) and all(truncated)
        with pytest.raises(TypeError):
            _surface_u_max(non_decaying_cf(TypeError), 0.2, taus)


def _at_start(model_id):
    model = get_model(model_id)
    return model, model.unpack(model.default_start(BENCH_TENORS), BENCH_TENORS)


def _probe_cases():
    for model_id in model_ids():
        yield pytest.param(*_at_start(model_id), id=model_id)
    yield pytest.param(get_model("edgeworth_pp"),
                       (CAL_TRUTH, Displacement(tenors=BENCH_TENORS, shifts=CAL_SHIFTS)),
                       id="edgeworth_pp-gate8-truth")


@pytest.mark.parametrize(("model", "theta"), _probe_cases())
def test_surface_probe_gives_each_tenor_its_single_tenor_u_max(model, theta):
    # one probe pass over the six tenors, one tau per frequency, against each
    # tenor's own scan of its one-tau CF
    sigma0 = model.spot_vol(theta)
    u_max, _ = _surface_u_max(lambda u, t: model.cf_standardized(u, t, theta), sigma0,
                              BENCH_TENORS)
    want = [adaptive_u_max(lambda u, t=t: model.cf_standardized(u, t, theta),
                           -1j * sigma0 * math.sqrt(t)) for t in BENCH_TENORS]
    assert u_max == want


def test_surface_probe_flags_truncations_not_decay_points():
    # rough_heston_pp diverges in the second probe chunk on the tenors of
    # 2 d and more, which then stop at the first chunk's end, u = 14.66;
    # heston_merton_2f decays on every tenor
    model, theta = _at_start("rough_heston_pp")
    u_max, truncated = _surface_u_max(lambda u, t: model.cf_standardized(u, t, theta),
                                      model.spot_vol(theta), BENCH_TENORS)
    assert truncated == [False, False, True, True, True, True]
    assert u_max[2:] == [_PROBES[7]] * 4 and round(_PROBES[7], 2) == 14.66
    model, theta = _at_start("heston_merton_2f")
    assert not any(_surface_u_max(lambda u, t: model.cf_standardized(u, t, theta),
                                  model.spot_vol(theta), BENCH_TENORS)[1])


@pytest.mark.parametrize("model_id", model_ids())
def test_surface_makes_one_probe_call_per_round(model_id):
    # a 6-tenor price_surface: each probe round is one CF call holding the
    # chunk of every tenor still scanning.  A call that raised names the
    # tenors that failed, and the rest take one more call, with one tau per
    # frequency unless one tenor is left.  The rough models raise in their
    # second round: four tenors diverge there, three in the first history
    # block and the 2 d one in the second, so the round is three calls of
    # 6, 3 and 2 tenors.  Every other model's tenors decay in the first
    # round.  A CF whose one-tau-per-frequency path raised by mistake would
    # show here as a re-solved round
    rounds, calls = (2, 2 + 2) if model_id.startswith("rough") else (1, 1)
    spec, theta = _at_start(model_id)
    probes = []  # [round, distinct tenors, scalar tau, raised] per probe call

    class Spy:
        def spot_vol(self, th):
            return spec.spot_vol(th)

        def cf_standardized(self, u, tau, th):
            if np.size(u) > 8 * len(BENCH_TENORS):  # a slice's grid call
                return spec.cf_standardized(u, tau, th)
            lo = int(np.flatnonzero(_PROBES == np.real(u[0]))[0])
            call = [lo // 8, tuple(np.unique(tau).tolist()), np.ndim(tau) == 0, False]
            probes.append(call)
            try:
                return spec.cf_standardized(u, tau, th)
            except (ValueError, ArithmeticError, RuntimeError):
                call[3] = True
                raise

    sigma0 = spec.spot_vol(theta)
    grid = [(100.0 * math.exp(z * sigma0 * math.sqrt(t)), t) for t in BENCH_TENORS
            for z in (-2.0, 0.0, 2.0)]
    rows = price_surface(grid, Spy(), theta, 100.0, 0.0, QuadratureConfig(node_count=256))
    assert all(r["error"] is None for r in rows)
    assert sorted({call[0] for call in probes}) == list(range(rounds)) and len(probes) == calls
    scanning = tuple(BENCH_TENORS)
    for k in range(rounds):
        first, *rest = [call[1:] for call in probes if call[0] == k]
        assert set(first[0]) <= set(scanning) and (k or first[0] == scanning)
        scanning, before = first[0], first
        for call in [first] + rest:
            assert call[1] == (len(call[0]) == 1)
        for call in rest:  # each a strict subset of a call that raised
            assert before[2] and set(call[0]) < set(before[0])
            before = call
    if rounds == 2:
        assert [len(call[1]) for call in probes if call[0] == 1] == [6, 3, 2]


def test_negative_price_error_on_misconfigured_quadrature():
    # a broken CF with Psi(0) = -1 flips the strike leg: the raw OTM call is
    # about -K, far below the -1e-4*spot noise band
    flipped_cf = lambda u: -_bs_cf(TAU)(u)
    with pytest.raises(NegativePriceError):
        _calls([130.0], cf=flipped_cf)


def test_request_and_config_validation():
    # price_surface rejects a non-positive spot, strike or tau per contract
    model = _ShimModel(BS_PARAMS)
    assert price_surface([(100.0, TAU)], model, None, -1.0)[0]["error"] == (
        "ValueError: spot must be > 0, got -1.0")
    assert price_surface([(0.0, TAU)], model, None, 100.0)[0]["error"] == (
        "ValueError: strike must be > 0, got 0.0")
    assert price_surface([(100.0, 0.0)], model, None, 100.0)[0]["error"] == (
        "ValueError: tau must be > 0, got 0.0")
    with pytest.raises(ValueError):
        QuadratureConfig(node_count=10)


# ---------------------------------------------------------------------------
# bs_pp across the ingestion window against its 50-digit closed form
# ---------------------------------------------------------------------------

def _bspp_window(tau, zs, spot=100.0, rate=0.03):
    """bs_pp with a displacement, its flat vol at ``tau``, strikes at
    z = log(K/S)/(vol√τ) and whether each is out of the money as a call."""
    model = get_model("bs_pp")
    theta = model.unpack((0.2,) + CAL_SHIFTS, BENCH_TENORS)
    vol = bspp_atm_vol(tau, 0.2, theta[1])
    strikes = spot * np.exp(np.asarray(zs) * vol * math.sqrt(tau))
    return model, theta, vol, strikes, strikes >= spot * math.exp(rate * tau)


def test_bspp_slice_calls_match_the_closed_form_across_the_window():
    # bs_pp is exactly lognormal: its slice calls are Black-Scholes at its
    # ATM vol, to rounding, from 256 nodes on
    spot, rate = 100.0, 0.03
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        model, theta, vol, strikes, _ = _bspp_window(tau, np.linspace(-10.0, 5.0, 31))
        want = np.array([float(bs_price_highprec(spot, k, rate, tau, vol)) for k in strikes])
        cf = lambda u: model.cf_standardized(u, tau, theta)  # noqa: E731
        u_max = _u_max(cf, tau)
        for n in (256, 2000, 2048, 10_000):
            calls = checked_slice_calls(cf, 0.2, tau, spot, rate, strikes,
                                        QuadratureConfig(node_count=n), u_max)
            assert np.max(np.abs(calls - want)) <= 1e-12 * spot, (tau, n)


def test_bspp_ivs_stay_flat_across_the_ingestion_window():
    # every quote of z in [-15, 5] whose OTM price is at least 1e-12*S has an
    # IV within 1e-6 of the flat vol (3e-7 at worst)
    spot, rate = 100.0, 0.03
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        model, theta, vol, strikes, otm_call = _bspp_window(tau, np.linspace(-15.0, 5.0, 81))
        otm = np.array([float(bs_price_highprec(spot, k, rate, tau, vol, c))
                        for k, c in zip(strikes, otm_call)])
        priced = otm >= 1e-12 * spot
        assert priced.sum() >= 44
        for quad in (QuadratureConfig(node_count=2048), QuadratureConfig()):
            res = price_surface([(k, tau) for k in strikes[priced]], model, theta, spot,
                                rate, quad)
            ivs = np.array([np.nan if r["iv"] is None else r["iv"] for r in res])
            assert np.max(np.abs(ivs - vol)) <= 1e-6, (tau, quad)


# ---------------------------------------------------------------------------
# bs_price / implied_vol
# ---------------------------------------------------------------------------

def test_bs_zero_vol_is_discounted_intrinsic():
    assert bs_price(100.0, 90.0, 0.5, 0.03, 0.0) == pytest.approx(
        100.0 - 90.0 * math.exp(-0.03 * 0.5), abs=1e-12
    )
    assert bs_price(100.0, 110.0, 0.5, 0.0, 0.0) == 0.0
    assert bs_price(100.0, 110.0, 0.5, 0.0, 0.0, is_call=False) == 10.0


def test_bs_atm_one_year():
    assert abs(bs_price(100.0, 100.0, 1.0, 0.0, 0.2) - BS_ATM_CALL_1Y) < 1e-4


def test_bs_parity_identity():
    c = bs_price(100.0, 97.0, 0.3, 0.02, 0.25)
    p = bs_price(100.0, 97.0, 0.3, 0.02, 0.25, is_call=False)
    assert abs(c - p - 100.0 + 97.0 * math.exp(-0.02 * 0.3)) < 1e-12


def test_bs_input_validation():
    with pytest.raises(ValueError):
        bs_price(-100.0, 100.0, 1.0, 0.0, 0.2)
    with pytest.raises(ValueError):
        bs_price(100.0, 100.0, 1.0, 0.0, -0.2)


def _ladder(tau, vol, spot=100.0, rate=0.03, zs=np.linspace(-8.0, 5.0, 27)):
    """Strikes at z = log(K/S)/(vol√τ) and whether each is out of the money as a call."""
    strikes = spot * np.exp(zs * vol * math.sqrt(tau))
    return strikes, strikes >= spot * math.exp(rate * tau)


def test_implied_vol_round_trip():
    price = bs_price(100.0, 103.0, 2.0 / 365.0, 0.0, 0.2)
    assert abs(implied_vol(price, 100.0, 103.0, 2.0 / 365.0, 0.0) - 0.2) < 1e-8
    # 50-digit prices over the ingestion window's z in [-15, 5] at the
    # shortest and longest bench tenors: the OTM side recovers the vol to
    # 1e-12 relative wherever its price is at least 1e-12*S, the ITM side
    # (whose time value is a residual of the intrinsic) the price
    spot, rate = 100.0, 0.03
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        for vol in (0.05, 0.1, 0.4, 1.0):
            strikes, otm_call = _ladder(tau, vol, spot, rate, np.linspace(-15.0, 5.0, 41))
            for otm, is_call in ((True, otm_call), (False, ~otm_call)):
                prices = np.array([float(bs_price_highprec(spot, k, rate, tau, vol, c))
                                   for k, c in zip(strikes, is_call)])
                ivs = _implied_vols(prices, spot, strikes, tau, rate, is_call)
                if otm:
                    priced = prices >= 1e-12 * spot
                    assert np.max(np.abs(ivs[priced] / vol - 1.0)) <= 1e-12, (tau, vol)
                else:
                    # deep ITM prices at their intrinsic (after rounding) have no IV
                    has = np.isfinite(ivs)
                    back = [bs_price(spot, k, tau, rate, v, c)
                            for k, v, c in zip(strikes[has], ivs[has], is_call[has])]
                    assert np.max(np.abs(np.array(back) - prices[has])) <= 1e-12 * spot
                    intrinsic = np.abs(spot - strikes * math.exp(-rate * tau))
                    assert np.all(np.abs(prices - intrinsic)[~has] <= 1e-12 * spot)


def test_implied_vol_round_trip_in_every_branch_of_the_guess():
    # a year out, vols up to 5 put quotes above the inflection point of the
    # normalized price (branches 2 and 3), the forward strike among them
    spot, rate, tau = 100.0, 0.03, 1.0
    branches = set()
    for vol in (0.2, 1.0, 3.0, 5.0):
        strikes, otm_call = _ladder(tau, vol, spot, rate, np.linspace(-4.0, 2.0, 13))
        strikes = np.append(strikes, spot * math.exp(rate * tau))
        otm_call = np.append(otm_call, True)
        prices = np.array([float(bs_price_highprec(spot, k, rate, tau, vol, c))
                           for k, c in zip(strikes, otm_call)])
        ivs = _implied_vols(prices, spot, strikes, tau, rate, otm_call)
        assert np.max(np.abs(ivs / vol - 1.0)) <= 1e-12, vol
        disc_k = strikes * math.exp(-rate * tau)
        root, x = np.sqrt(spot * disc_k), -np.abs(np.log(spot / disc_k))
        gap = (np.where(otm_call, spot, disc_k) - prices) / root
        with np.errstate(all="ignore"):
            branches |= set(fourier_pricer._rational_guess(
                prices / root, gap, x, np.exp(0.5 * x), np.exp(-0.5 * x))[1].tolist())
    assert branches == {0, 1, 2, 3}


def test_rational_guess_is_close_enough_for_two_steps():
    # the guess errors that two Householder steps of order 3 take to
    # rounding, per branch, about 1.2 to 3 times those measured on this grid
    x = -np.repeat(np.geomspace(1e-6, 10.0, 29), 29)
    s = np.tile(np.geomspace(1e-3, 3.0, 29), 29)
    e_pos = np.exp(0.5 * x)
    with np.errstate(all="ignore"):
        beta = fourier_pricer._normalized_black(x, s, e_pos, 1.0 / e_pos)[0]
        keep = (beta > 1e-300) & (beta < 0.999 * e_pos)
        x, s, e_pos, beta = x[keep], s[keep], e_pos[keep], beta[keep]
        guess, branch = fourier_pricer._rational_guess(beta, e_pos - beta, x, e_pos, 1.0 / e_pos)
    errors = np.abs(guess / s - 1.0)
    assert set(branch.tolist()) == {0, 1, 2, 3}
    for k, bound in enumerate((0.12, 6e-3, 5e-3, 1e-4)):
        assert np.max(errors[branch == k]) <= bound, k


def test_implied_vol_of_prices_below_the_normal_cdf_range():
    # OTM calls priced 1e-150 to 1e-313 of spot: below 1e-200 the steps take
    # ln b from the erfcx form, since the Φ form's terms underflow (the last
    # price is subnormal, and holds about 44 significant bits)
    spot, rate, tau = 100.0, 0.03, 2.0 / 365.0
    for vol in (0.2, 1.0):
        strikes, _ = _ladder(tau, vol, spot, rate, np.array([26.0, 30.0, 34.0, 37.0, 37.75]))
        prices = np.array([float(bs_price_highprec(spot, k, rate, tau, vol, True))
                           for k in strikes])
        assert prices[0] > 1e-190 * spot and 0.0 < prices[-1] < 1e-310 * spot
        errors = np.abs(_implied_vols(prices, spot, strikes, tau, rate, True) / vol - 1.0)
        assert np.max(errors[:-1]) <= 1e-12 and errors[-1] <= 1e-9


def test_implied_vol_at_extreme_strikes_and_at_the_price_cap():
    # |log(F/K)| above 200, where round-off can leave the mapped guess at or
    # below 0 (Jäckel's quadratic then), and calls within 1e-7 to 1e-13 of
    # S₀, whose distance to the cap only the quote itself holds exactly: the
    # IV reprices the quote to within rounding
    spot, rate, tau = 100.0, 0.01, 5.0
    for z, vol, is_call in ((31.0, 3.3, True), (33.0, 3.5, True), (-30.0, 3.3, False),
                            (0.3, 6.0, True), (0.3, 7.0, True), (-1.5, 6.0, True)):
        strike = spot * math.exp(z * vol * math.sqrt(tau))
        price = float(bs_price_highprec(spot, strike, rate, tau, vol, is_call))
        iv = _implied_vols([price], spot, [strike], tau, rate, [is_call])[0]
        back = float(bs_price_highprec(spot, strike, rate, tau, iv, is_call))
        assert abs(back - price) <= 1e-12 * price, (z, vol)
    # a call a few ulps below S₀, where e^{x/2} − β taken from β rounds to 0
    spot, strike = 1.4187013750265036, 1.671661903518794e29
    iv = _implied_vols([1.4187013750265032], spot, [strike], 8.764237536894749,
                       0.01258782439418937, [True])[0]
    assert 5.0 < iv < 10.0


def test_implied_vols_do_not_depend_on_the_rest_of_the_array():
    # every quote takes the same steps, so it gets the same vol bits alone,
    # in its ladder and in the reversed ladder; calls and puts on both sides
    # of the forward, with a smile
    spot, rate = 100.0, 0.03
    zs = np.linspace(-8.0, 5.0, 27)
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        strikes, otm_call = _ladder(tau, 0.2, spot, rate, zs)
        vols = 0.2 * (1.0 + 0.02 * zs * zs - 0.05 * zs)
        for is_call in (otm_call, ~otm_call):
            prices = np.array([bs_price(spot, k, tau, rate, v, c)
                               for k, v, c in zip(strikes, vols, is_call)])
            ivs = _implied_vols(prices, spot, strikes, tau, rate, is_call)
            assert np.isfinite(ivs[is_call == otm_call]).all()
            rev = _implied_vols(prices[::-1], spot, strikes[::-1], tau, rate, is_call[::-1])
            assert np.array_equal(rev[::-1], ivs, equal_nan=True)
            for j in range(zs.size):
                one = _implied_vols(prices[j], spot, strikes[j], tau, rate, is_call[j])
                assert np.array_equal(one, ivs[j], equal_nan=True), (tau, zs[j])


def test_implied_vols_take_the_same_fixed_steps_for_every_quote(monkeypatch):
    # three normalized-Black calls, each over every quote: one for the
    # rational guess (b at s_l, and at s_u where a quote needs it) and one
    # per Householder step
    evaluated = []

    def spy(x, s, *args, _real=fourier_pricer._normalized_black):
        evaluated.append(np.shape(s)[-1])
        return _real(x, s, *args)

    monkeypatch.setattr(fourier_pricer, "_normalized_black", spy)
    spot, rate, tau = 100.0, 0.03, BENCH_TENORS[0]
    # near the money at 5.5 h, where a Manaster-Koehler start took 19 steps
    strike = spot * math.exp(-0.0125)
    price = bs_price(spot, strike, tau, rate, 0.263, is_call=False)
    iv = _implied_vols([price], spot, [strike], tau, rate, [False])
    assert evaluated == [1] * 3 and abs(iv[0] / 0.263 - 1.0) <= 1e-12
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        for vol in (0.1, 0.4):
            strikes, otm_call = _ladder(tau, vol, spot, rate)
            for is_call in (otm_call, ~otm_call):
                prices = [bs_price(spot, k, tau, rate, vol, c) for k, c in zip(strikes, is_call)]
                evaluated.clear()
                quotes = np.count_nonzero(np.isfinite(
                    _implied_vols(prices, spot, strikes, tau, rate, is_call)))
                assert quotes and evaluated == [quotes] * 3


def test_implied_vol_residual_tolerance():
    price = bs_price(100.0, 101.0, 5.0 / 365.0, 0.01, 0.37, is_call=False)
    v = implied_vol(price, 100.0, 101.0, 5.0 / 365.0, 0.01, is_call=False)
    assert abs(bs_price(100.0, 101.0, 5.0 / 365.0, 0.01, v, is_call=False) - price) <= 1e-10 * 100.0


def test_implied_vol_bound_violations():
    # below intrinsic S-K=20, above the spot cap, below the vol=1e-6 value
    # (about 1.2e-5 at the money) and above the vol=10 value (about 85 there)
    prices = [19.9, 100.5, 1e-6, 99.0, -0.5]
    strikes = [80.0, 80.0, 100.0, 100.0, 120.0]
    for price, strike in zip(prices, strikes):
        with pytest.raises(ArbitrageBoundsError):
            implied_vol(price, 100.0, strike, TAU, 0.0)
    ivs = _implied_vols(prices + [BS_ATM_CALL_1_12], 100.0, strikes + [100.0], TAU, 0.0, True)
    assert np.isnan(ivs[:-1]).all()
    assert abs(ivs[-1] - 0.2) < 1e-12


@given(
    k=st.floats(85.0, 115.0),
    tau=st.floats(1.0 / 365.0, 0.5),
    vol=st.floats(0.05, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_implied_vol_round_trip_property(k, tau, vol):
    price = bs_price(100.0, k, tau, 0.0, vol)
    if price <= max(100.0 - k, 0.0) + 1e-12 or price >= 100.0 - 1e-12:
        return  # numerically at the arbitrage bound; inversion out of scope
    v = implied_vol(price, 100.0, k, tau, 0.0)
    # contract is on the price residual; vol-space error is unbounded where
    # vega vanishes (deep OTM at short tenor)
    assert abs(bs_price(100.0, k, tau, 0.0, v) - price) <= 1e-10 * 100.0


# ---------------------------------------------------------------------------
# price_surface
# ---------------------------------------------------------------------------

class _ShimModel:
    """Minimal model bundle: full expansion CF with jumps and displacement."""

    def __init__(self, params, displacement=None):
        self.params = params
        self.displacement = displacement

    def cf_standardized(self, u, tau, params):
        return psi_full(u, tau, self.params, self.displacement)

    def spot_vol(self, params):
        return self.params.sigma0


def test_price_surface_single_contract_matches_slice_kernel():
    model = _ShimModel(BS_PARAMS)
    res = price_surface([(100.0, TAU)], model, None, 100.0)
    assert res[0]["error"] is None
    assert res[0]["call"] == _calls([100.0])[0]


def test_price_surface_slice_matches_single_strike_exactly():
    # a tenor's strikes are priced and inverted as one array; each price
    # and IV must still be the one-strike slice's bit for bit, on both
    # sides of the forward and with a nonzero rate, at the default node
    # count and at 2000 nodes
    model = _ShimModel(BS_PARAMS)
    strikes = [80.0, 95.0, 99.5, 100.0, 100.25, 103.0, 120.0, 100.5, 101.0]
    for quad in (QuadratureConfig(), QuadratureConfig(node_count=2000)):
        res = price_surface([(k, TAU) for k in strikes], model, None, 100.0,
                            rate=0.03, quad=quad)
        for k, r in zip(strikes, res):
            assert r["error"] is None and r["iv"] is not None
            assert r["call"] == _calls([k], rate=0.03, quad=quad)[0]
            one = price_surface([(k, TAU)], model, None, 100.0, rate=0.03, quad=quad)[0]
            assert r["iv"] == one["iv"]


@pytest.mark.parametrize("model_id", model_ids())
def test_price_surface_rows_do_not_depend_on_the_surface(model_id, monkeypatch):
    # a six-tenor surface is priced and inverted as one flat pass, with one
    # IV solve per price_surface call, and a solver-backed model's grids are
    # solved in one CF call; each row must still be the same bits as in a
    # surface of its tenor alone, the closed forms' deep-wing failures (no
    # IV) included
    wing_fails = model_id in ("edgeworth", "edgeworth_pp", "bs_pp")
    spec, theta = _at_start(model_id)
    sigma0 = spec.spot_vol(theta)
    solves = []

    def iv_spy(prices, *args, _real=fourier_pricer._implied_vols):
        solves.append(np.size(prices))
        return _real(prices, *args)

    monkeypatch.setattr(fourier_pricer, "_implied_vols", iv_spy)
    zs = np.linspace(-12.0, 5.0, 18)
    grid = [(100.0 * math.exp(z * sigma0 * math.sqrt(t)), t) for t in BENCH_TENORS for z in zs]
    quad = QuadratureConfig(node_count=2048)
    rows = price_surface(grid, spec, theta, 100.0, 0.03, quad)
    assert solves == [len(grid)]
    alone = [row for t in BENCH_TENORS
             for row in price_surface([g for g in grid if g[1] == t], spec, theta, 100.0, 0.03,
                                      quad)]
    assert solves == [len(grid)] + [zs.size] * len(BENCH_TENORS)
    assert rows == alone
    assert any(r["error"] is None for r in rows)
    assert any(r["error"] is not None for r in rows) == wing_fails


@pytest.mark.parametrize("model_id", ["heston_merton_2f", "rough_heston_pp", "bs_pp"])
def test_a_tenor_whose_cf_raises_fails_alone(model_id):
    # the CF raises on every grid call that holds the 2 d tenor: a batched
    # grid call is then re-run tenor by tenor, so only that tenor's rows
    # carry the error and every other row is its one-tenor price
    spec, theta = _at_start(model_id)
    bad = BENCH_TENORS[2]

    def cf(u, tau, th):
        if np.size(u) > 8 * len(BENCH_TENORS) and np.any(np.asarray(tau) == bad):
            raise RuntimeError("solver failed on the 2 d grid")
        return spec._cf(u, tau, th)

    failing = dataclasses.replace(spec, _cf=cf)
    sigma0 = spec.spot_vol(theta)
    grid = [(100.0 * math.exp(z * sigma0 * math.sqrt(t)), t) for t in BENCH_TENORS
            for z in (-2.0, 0.0, 2.0)]
    quad = QuadratureConfig(node_count=256)
    rows = price_surface(grid, failing, theta, 100.0, 0.03, quad)
    for t in BENCH_TENORS:
        got = [r for r in rows if r["tau"] == t]
        if t == bad:
            assert all(r["call"] is None and r["iv"] is None for r in got)
            assert all(r["error"] == "RuntimeError: solver failed on the 2 d grid" for r in got)
        else:
            assert got == price_surface([g for g in grid if g[1] == t], spec, theta, 100.0, 0.03,
                                        quad)
            assert all(r["error"] is None for r in got)


def _failing_batches():
    # Heston's fifth moment explodes at t = 0.82 (tenors of a year and more
    # fail, 0.25 and 0.5 do not), each tenor at its own step, so each call
    # names one more failed tenor
    heston = HestonMertonParams(v1_0=0.04, kappa1=1.0, theta1=0.04, zeta1=1.0, rho1=0.0)
    u = np.array([-5j, -4.5j, -3j, 1.0 - 2j])
    taus = [0.5, 1.0, 0.25, 3.0, 5.0]
    yield pytest.param(lambda w, t: heston_merton_cf(w, t, heston), [u] * len(taus), taus,
                       [5, 4, 3, 2], id="affine")
    # rough_heston_pp's second u_max probe chunk: the tenors of 2 d and more
    # diverge, three in the first history block and the 2 d one in the second
    spec, theta = _at_start("rough_heston_pp")
    sigma0 = spec.spot_vol(theta)
    parts = [_PROBES[8:16] - 1j * sigma0 * math.sqrt(t) for t in BENCH_TENORS]
    yield pytest.param(lambda w, t: spec.cf_standardized(w, t, theta), parts, list(BENCH_TENORS),
                       [6, 3, 2], id="rough")
    # a jump-transform pole (the first tenor's u = -1.2i) names no tenor:
    # the call is re-run tenor by tenor
    pole = HestonMertonParams(v1_0=0.04, kappa1=2.0, theta1=0.04, zeta1=0.3, rho1=-0.5,
                              m_v=0.9, rho_jump=0.9, sigma_x=0.02, c0=5.0, c1=20.0)
    yield pytest.param(lambda w, t: heston_merton_cf(w, t, pole),
                       [np.array([-1.2j, 0.5]), np.array([0.5, 1.0]), np.array([0.25])],
                       [1.0, 0.01, 0.1], [3, 1, 1, 1], id="pole-names-no-tenor")


@pytest.mark.parametrize(("cf", "parts", "taus", "tenors_per_call"), _failing_batches())
def test_a_failed_batched_call_fails_the_tenors_its_exception_names(cf, parts, taus,
                                                                    tenors_per_call):
    # each failed tenor gets the exception its call alone raises, every
    # other tenor its values alone, bit for bit; a solver's exception names
    # the tenors that failed, and the rest take one more call
    calls = []

    def counted(u, tau):
        calls.append(np.unique(tau).size)
        return cf(u, tau)

    sizes = [part.size for part in parts]
    values, failed = _tenor_values(counted, np.concatenate(parts), sizes, taus)
    assert calls == tenors_per_call
    bounds = np.cumsum([0] + sizes)
    for j, (part, t) in enumerate(zip(parts, taus)):
        got = values[bounds[j]:bounds[j + 1]]
        try:
            want = cf(part, t)
        except RuntimeError as exc:
            assert type(failed[j]) is type(exc) and str(failed[j]) == str(exc)
            assert getattr(failed[j], "t", None) == getattr(exc, "t", None)
            assert np.all(np.isnan(got))
        else:
            assert j not in failed and np.array_equal(got, want)
    assert 0 < len(failed) < len(taus)


def test_solver_backed_surface_pass_peak_memory():
    # tracemalloc's peak over one ode_surface-shaped heston_merton_2f pass,
    # 6 tenors x 27 strikes at 2000 nodes: the raw CF is solved before the
    # standardizing phase array exists, the slice grids live only in their
    # concatenation, and one barycentric kernel block is alive at a time
    # (7.5 MB before; 4.74 MB)
    spec, theta = _at_start("heston_merton_2f")
    sigma0 = spec.spot_vol(theta)
    grid = [(100.0 * math.exp(z * sigma0 * math.sqrt(t)), t) for t in BENCH_TENORS
            for z in np.linspace(-8.0, 5.0, 27)]
    quad = QuadratureConfig(node_count=2000)
    price_surface(grid, spec, theta, 100.0, 0.0, quad)
    tracemalloc.start()
    try:
        price_surface(grid, spec, theta, 100.0, 0.0, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.8e6


def test_price_surface_rows_report_u_max_truncation():
    # each row carries its tenor's probe flag: rough_heston_pp at its start
    # truncates from 2 d on (test_surface_probe_flags_truncations_not_decay_points),
    # edgeworth_pp decays on every tenor; a contract rejected before pricing
    # reports False
    for model_id, flags in (("rough_heston_pp", [False, False, True, True, True, True]),
                            ("edgeworth_pp", [False] * 6)):
        spec, theta = _at_start(model_id)
        grid = [(k, t) for t in BENCH_TENORS for k in (99.0, 101.0)] + [(0.0, BENCH_TENORS[-1])]
        rows = price_surface(grid, spec, theta, 100.0, 0.0, QuadratureConfig(node_count=256))
        assert [r["u_max_truncated"] for r in rows] == np.repeat(flags, 2).tolist() + [False]
        assert rows[-1]["error"] is not None


def test_price_surface_duplicates_identical():
    model = _ShimModel(BS_PARAMS)
    res = price_surface([(100.0, TAU), (100.0, TAU)], model, None, 100.0)
    assert res[0] == res[1]


def test_price_surface_18_contracts_full_model():
    # jump sizes kept small relative to sigma0*sqrt(tau) at the 5.5-hour
    # tenor: the standardized-unit compensator scales mu_J and sigma_J by
    # 1/(sigma0*sqrt(tau)), which distorts prices once sigma_J is a multiple
    # of that scale
    params = EdgeworthParams(
        sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1, alpha_prime0=0.02,
        lambda0=15.0, mu_J=-0.004, sigma_J=0.004,
    )
    tenors = [5.5 / (24 * 365), 1 / 365, 2 / 365, 3 / 365, 5 / 365, 7 / 365]
    disp = Displacement(tenors=(1 / 365, 3 / 365, 7 / 365), shifts=(0.02, -0.01))
    model = _ShimModel(params, disp)
    grid = []
    for tau in tenors:
        sq = 0.2 * math.sqrt(tau)
        grid += [(100.0 * math.exp(m * sq), tau) for m in (-0.15, 0.0, 0.15)]
    res = price_surface(grid, model, None, 100.0)
    assert len(res) == 18
    assert all(r["error"] is None for r in res)
    assert all(r["iv"] > 0 for r in res)
    for r in res:
        cf = lambda u, _t=r["tau"]: model.cf_standardized(u, _t, None)
        one = checked_slice_calls(cf, 0.2, r["tau"], 100.0, 0.0, [r["strike"]],
                                  QuadratureConfig(), _u_max(cf, r["tau"]))
        assert r["call"] == one[0]


def test_price_surface_propagates_programming_errors():
    # a TypeError from the CF is a bug, not a per-contract pricing failure
    class BrokenModel(_ShimModel):
        def cf_standardized(self, u, tau, params):
            raise TypeError("bug in cf")

    with pytest.raises(TypeError, match="bug in cf"):
        price_surface([(100.0, TAU), (105.0, TAU)], BrokenModel(BS_PARAMS), None, 100.0)


def test_price_surface_collects_errors_per_contract():
    model = _ShimModel(BS_PARAMS)
    # second contract has an invalid strike; others must still price
    res = price_surface([(100.0, TAU), (-5.0, TAU), (105.0, TAU)], model, None, 100.0)
    assert res[0]["error"] is None
    assert res[1]["error"] is not None and "strike" in res[1]["error"]
    assert res[2]["error"] is None
    assert res[0]["call"] == price_surface([(100.0, TAU)], model, None, 100.0)[0]["call"]
