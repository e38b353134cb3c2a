"""Tests for Fourier inversion pricing, Black-Scholes utilities and IV inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ustvol.cf_edgeworth import Displacement, EdgeworthParams, psi_c_no_shift, psi_full
from ustvol.fourier_pricer import (
    ArbitrageBoundsError,
    CFNormalizationError,
    NegativePriceError,
    PricingRequest,
    QuadratureConfig,
    _adaptive_u_max,
    bs_price,
    call_price,
    implied_vol,
    price_surface,
    put_price,
)

# Frozen from tests/oracles.py bs_price_highprec (50-digit closed form):
BS_ATM_CALL_1_12 = 2.30297446780243      # S=K=100, r=0, tau=1/12, sigma=0.2
BS_OTM_CALL_K120 = 0.00136803618734244   # K=120, same terms
BS_OTM_PUT_K80 = 6.65526875686572e-05    # K=80, same terms
BS_ATM_CALL_1Y = 7.9655674554058         # S=K=100, r=0, tau=1, sigma=0.2

TAU = 1.0 / 12.0
BS_PARAMS = EdgeworthParams(sigma0=0.2)


def _bs_cf(tau):
    return lambda u: psi_c_no_shift(u, tau, BS_PARAMS)


# ---------------------------------------------------------------------------
# call_price / put_price against the closed-form oracle
# ---------------------------------------------------------------------------

def test_call_bs_reduction_atm():
    c = call_price(PricingRequest(100.0, 100.0, TAU), _bs_cf(TAU), 0.2)
    assert abs(c - BS_ATM_CALL_1_12) < 1e-4


def test_call_bs_reduction_otm():
    c = call_price(PricingRequest(100.0, 120.0, TAU), _bs_cf(TAU), 0.2)
    assert abs(c - BS_OTM_CALL_K120) < 1e-4
    assert abs(c - BS_OTM_CALL_K120) < 1e-6  # actual quadrature accuracy


def test_deep_itm_call_tends_to_spot():
    c = call_price(PricingRequest(100.0, 1e-6, TAU), _bs_cf(TAU), 0.2)
    assert abs(c - 100.0) <= 1e-6 * 100.0


def test_atm_put_equals_atm_call_at_zero_rate():
    req = PricingRequest(100.0, 100.0, TAU)
    c = call_price(req, _bs_cf(TAU), 0.2)
    p = put_price(req, _bs_cf(TAU), 0.2)
    assert abs(c - p) < 1e-12


def test_deep_otm_put_tends_to_zero():
    p = put_price(PricingRequest(100.0, 1e-8, TAU), _bs_cf(TAU), 0.2)
    assert p <= 1e-8 * 100.0


def test_put_bs_reduction_k80():
    p = put_price(PricingRequest(100.0, 80.0, TAU), _bs_cf(TAU), 0.2)
    assert abs(p - BS_OTM_PUT_K80) < 1e-6


def test_parity_residual_structural():
    req = PricingRequest(100.0, 93.0, TAU, rate=0.03)
    c = call_price(req, _bs_cf(TAU), 0.2)
    p = put_price(req, _bs_cf(TAU), 0.2)
    resid = c - p - 100.0 + 93.0 * math.exp(-0.03 * TAU)
    assert abs(resid) < 1e-10 * 100.0


def test_call_monotone_and_convex_in_strike():
    cf = _bs_cf(TAU)
    strikes = np.linspace(85.0, 115.0, 31)
    prices = np.array(
        [call_price(PricingRequest(100.0, float(k), TAU), cf, 0.2) for k in strikes]
    )
    assert np.all(np.diff(prices) <= 1e-8 * 100.0)
    assert np.all(np.diff(prices, 2) >= -1e-7 * 100.0)


def test_cf_normalization_error():
    dead_cf = lambda u: np.zeros_like(np.asarray(u, dtype=complex))
    with pytest.raises(CFNormalizationError):
        call_price(PricingRequest(100.0, 100.0, TAU), dead_cf, 0.2)


def test_u_max_probe_truncates_only_numerical_failures():
    # a CF solver failing far out truncates the probe scan; a TypeError is a
    # bug and must propagate
    def non_decaying_cf(exc):
        def cf(u):
            if np.max(np.abs(u)) > 50.0:
                raise exc("far-out failure")
            return np.ones_like(u)
        return cf

    assert 5.0 <= _adaptive_u_max(non_decaying_cf(RuntimeError), 0j) <= 50.0
    with pytest.raises(TypeError):
        _adaptive_u_max(non_decaying_cf(TypeError), 0j)


def test_negative_price_error_on_misconfigured_quadrature():
    quad = QuadratureConfig(node_count=100, u_max=0.2)
    with pytest.raises(NegativePriceError):
        call_price(PricingRequest(100.0, 130.0, TAU), _bs_cf(TAU), 0.2, quad)


def test_request_and_config_validation():
    with pytest.raises(ValueError):
        PricingRequest(-1.0, 100.0, TAU)
    with pytest.raises(ValueError):
        PricingRequest(100.0, 0.0, TAU)
    with pytest.raises(ValueError):
        PricingRequest(100.0, 100.0, 0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(node_count=10)
    with pytest.raises(ValueError):
        QuadratureConfig(u_max=-5.0)


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


def test_implied_vol_round_trip():
    price = bs_price(100.0, 103.0, 2.0 / 365.0, 0.0, 0.2)
    assert abs(implied_vol(price, 100.0, 103.0, 2.0 / 365.0, 0.0) - 0.2) < 1e-8


def test_implied_vol_residual_tolerance():
    price = bs_price(100.0, 101.0, 5.0 / 365.0, 0.01, 0.37, is_call=False)
    v = implied_vol(price, 100.0, 101.0, 5.0 / 365.0, 0.01, is_call=False)
    assert abs(bs_price(100.0, 101.0, 5.0 / 365.0, 0.01, v, is_call=False) - price) <= 1e-10 * 100.0


def test_implied_vol_bound_violations():
    with pytest.raises(ArbitrageBoundsError):
        implied_vol(19.9, 100.0, 80.0, TAU, 0.0)  # below intrinsic S-K=20
    with pytest.raises(ArbitrageBoundsError):
        implied_vol(100.5, 100.0, 80.0, TAU, 0.0)  # above spot cap
    with pytest.raises(ArbitrageBoundsError):
        implied_vol(-0.5, 100.0, 120.0, TAU, 0.0)


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


def test_price_surface_single_contract_matches_call_price():
    model = _ShimModel(BS_PARAMS)
    res = price_surface([(100.0, TAU)], model, None, 100.0)
    direct = call_price(PricingRequest(100.0, 100.0, TAU), _bs_cf(TAU), 0.2)
    assert res[0]["error"] is None
    assert res[0]["call"] == direct


def test_price_surface_slice_matches_call_price_exactly():
    # a tenor's strikes are priced as one array; each price must still be
    # the single-contract call_price bit for bit, on both sides of the
    # forward and with a nonzero rate
    model = _ShimModel(BS_PARAMS)
    strikes = [80.0, 95.0, 99.5, 100.0, 100.25, 103.0, 120.0]
    res = price_surface([(k, TAU) for k in strikes], model, None, 100.0, rate=0.03)
    cf = lambda u: model.cf_standardized(u, TAU, None)
    for k, r in zip(strikes, res):
        assert r["error"] is None and r["iv"] is not None
        assert r["call"] == call_price(PricingRequest(100.0, k, TAU, rate=0.03), cf, 0.2)


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
        assert r["call"] == call_price(PricingRequest(100.0, r["strike"], r["tau"]), cf, 0.2)


def test_price_surface_collects_errors_per_contract():
    model = _ShimModel(BS_PARAMS)
    # second contract has an invalid strike; others must still price
    res = price_surface([(100.0, TAU), (-5.0, TAU), (105.0, TAU)], model, None, 100.0)
    assert res[0]["error"] is None
    assert res[1]["error"] is not None and "strike" in res[1]["error"]
    assert res[2]["error"] is None
    assert res[0]["call"] == price_surface([(100.0, TAU)], model, None, 100.0)[0]["call"]
