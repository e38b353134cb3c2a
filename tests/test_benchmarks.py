"""Tests for the affine Heston-Merton and rough Heston benchmark CFs."""

import dataclasses
import math
import re

import numpy as np
import pytest

from oracles import (
    _fractional_adams as fractional_adams_per_step,
    adaptive_u_max,
    barycentric_per_point,
    benchmark_cf_direct,
    cf_standardized_direct,
    heston_k0_cf,
    heston_merton_exponent_decoupled,
    rough_heston_cf_whole_array,
)
from ustvol import benchmarks
from ustvol.benchmarks import (
    HestonMertonParams,
    JumpTransformPoleError,
    RiccatiExplosionError,
    RoughHestonParams,
    heston_merton_cf,
    rough_heston_cf,
)
from ustvol.cf_edgeworth import Displacement
from ustvol.diagnostics import BENCH_TENORS
from ustvol.fourier_pricer import _PROBES, QuadratureConfig, _slice_calls, _surface_u_max
from ustvol.registry import get_model

TAU = 2.0 / 365.0
U = np.array([0.5, 1.0, 3.0, 10.0, 30.0])


def _full_2f(shifts=None, **overrides):
    base = dict(
        v1_0=0.03, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
        v2_0=0.02, kappa2=10.0, theta2=0.02, zeta2=0.8, rho2=-0.5,
        rho_jump=0.3, mu_x=-0.02, sigma_x=0.03, m_v=0.02,
        c0=10.0, c1=50.0, c2=30.0, factor_count=2, shifts=shifts,
    )
    base.update(overrides)
    return HestonMertonParams(**base)


@pytest.fixture
def solved(monkeypatch):
    """Sizes of the direct exponent solves that the library CFs make."""
    sizes = []
    for name in ("_heston_merton_exponent", "_rough_heston_exponent"):
        def spy(uu, *args, _real=getattr(benchmarks, name)):
            sizes.append(uu.size)
            return _real(uu, *args)
        monkeypatch.setattr(benchmarks, name, spy)
    return sizes


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        HestonMertonParams(v1_0=-0.01, kappa1=1.0, theta1=0.04, zeta1=0.3, rho1=0.0)
    with pytest.raises(ValueError):
        HestonMertonParams(v1_0=0.04, kappa1=1.0, theta1=0.04, zeta1=0.3, rho1=-1.5)
    with pytest.raises(ValueError):
        HestonMertonParams(v1_0=0.04, kappa1=1.0, theta1=0.04, zeta1=0.3, rho1=0.0,
                           factor_count=3)
    with pytest.raises(ValueError):
        # compensator divergence: m_v * rho_jump >= 1
        HestonMertonParams(v1_0=0.04, kappa1=1.0, theta1=0.04, zeta1=0.3, rho1=0.0,
                           m_v=2.0, rho_jump=0.6)
    with pytest.raises(ValueError, match="v2_0"):
        # a one-factor CF has no B2 to carry v2_0, while the simulator and
        # spot_variance would keep it
        HestonMertonParams(v1_0=0.03, kappa1=1.0, theta1=0.04, zeta1=0.3, rho1=0.0,
                           v2_0=0.02)
    two = HestonMertonParams(v1_0=0.03, kappa1=1.0, theta1=0.04, zeta1=0.3, rho1=0.0,
                             v2_0=0.02, factor_count=2)
    assert two.spot_variance == 0.05


def test_rough_params_validation():
    with pytest.raises(ValueError):
        RoughHestonParams(hurst=0.6, nu=0.3, rho=-0.5, xi_tenors=(TAU,), xi_levels=(0.04,))
    with pytest.raises(ValueError):
        RoughHestonParams(hurst=0.1, nu=0.0, rho=-0.5, xi_tenors=(TAU,), xi_levels=(0.04,))
    with pytest.raises(ValueError):
        RoughHestonParams(hurst=0.1, nu=0.3, rho=-0.5, xi_tenors=(TAU,), xi_levels=(-0.04,))
    with pytest.raises(ValueError):
        RoughHestonParams(hurst=0.1, nu=0.3, rho=-0.5, xi_tenors=(TAU, TAU), xi_levels=(0.04, 0.04))


# ---------------------------------------------------------------------------
# affine CF
# ---------------------------------------------------------------------------

def test_degenerate_affine_is_deterministic_bs():
    p = HestonMertonParams(v1_0=0.03, kappa1=0.0, theta1=0.0, zeta1=0.0, rho1=0.0,
                           v2_0=0.02, factor_count=2)
    got = heston_merton_cf(U, TAU, p)
    want = np.exp(-(U**2 + 1j * U) * 0.05 * TAU / 2.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_factor_nesting():
    kwargs = dict(v1_0=0.03, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
                  c0=10.0, mu_x=-0.02, sigma_x=0.03)
    one = heston_merton_cf(U, TAU, HestonMertonParams(**kwargs, factor_count=1))
    two = heston_merton_cf(U, TAU, HestonMertonParams(**kwargs, factor_count=2))
    assert np.max(np.abs(one - two)) == 0.0


def test_martingale_identity_full_model():
    # CF(-i) = E[e^{X_tau - X_0}] = 1 must hold exactly along the Riccati flow
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.01,))
    for p in (_full_2f(), _full_2f(shifts=d),
              HestonMertonParams(v1_0=0.04, kappa1=3.0, theta1=0.05, zeta1=0.4,
                                 rho1=-0.6, c0=20.0, mu_x=-0.05, sigma_x=0.07)):
        assert abs(heston_merton_cf(-1j, TAU, p) - 1.0) < 1e-9


def test_affine_unit_and_symmetry():
    p = _full_2f()
    assert abs(heston_merton_cf(0.0, TAU, p) - 1.0) < 1e-12
    a = heston_merton_cf(U, TAU, p)
    b = heston_merton_cf(-U, TAU, p)
    assert np.max(np.abs(a - np.conj(b))) < 1e-12


def test_factor_additivity_with_jumps_on_factor_one():
    # log CF splits across independent factors when c2 = 0
    full = _full_2f(c2=0.0)
    f1 = HestonMertonParams(v1_0=0.03, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
                            rho_jump=0.3, mu_x=-0.02, sigma_x=0.03, m_v=0.02,
                            c0=10.0, c1=50.0)
    f2 = HestonMertonParams(v1_0=0.02, kappa1=10.0, theta1=0.02, zeta1=0.8, rho1=-0.5)
    got = heston_merton_cf(U, TAU, full)
    want = heston_merton_cf(U, TAU, f1) * heston_merton_cf(U, TAU, f2)
    assert np.max(np.abs(got - want)) < 1e-10


def test_displacement_reduces_to_overlay_without_intensity_coupling():
    # with c1 = 0 the shift only adds deterministic variance:
    # CF_shifted = CF_plain * exp(-(u^2+iu)/2 * int phi_v)
    d = Displacement(tenors=(0.5 / 365, 1.5 / 365, TAU), shifts=(0.015, -0.005))
    plain = _full_2f(c1=0.0)
    shifted = _full_2f(c1=0.0, shifts=d)
    int_phi = 0.015 * (1.0 / 365) + (-0.005) * (0.5 / 365)
    overlay = np.exp(-(U**2 + 1j * U) / 2.0 * int_phi)
    got = heston_merton_cf(U, TAU, shifted)
    want = heston_merton_cf(U, TAU, plain) * overlay
    assert np.max(np.abs(got - want)) < 1e-10


def test_displaced_martingale_with_intensity_coupling():
    # displacement feeding the self-exciting intensity must preserve CF(-i)=1
    d = Displacement(tenors=(1 / 365, TAU), shifts=(0.02,))
    p = _full_2f(shifts=d)
    assert abs(heston_merton_cf(-1j, TAU, p) - 1.0) < 1e-9


def test_riccati_explosion_error_reports_time():
    p = HestonMertonParams(v1_0=0.04, kappa1=1.0, theta1=0.04, zeta1=1.0, rho1=0.0)
    with pytest.raises(RiccatiExplosionError) as exc:
        heston_merton_cf(-5j, 5.0, p)  # 5th moment of Heston explodes in finite time
    assert 0.0 < exc.value.t < 5.0


def test_jump_transform_pole_error():
    p = HestonMertonParams(v1_0=0.04, kappa1=2.0, theta1=0.04, zeta1=0.3, rho1=-0.5,
                           m_v=0.9, rho_jump=0.9, sigma_x=0.02, c0=5.0, c1=20.0)
    with pytest.raises(JumpTransformPoleError):
        heston_merton_cf(-1.2j, 1.0, p)


def test_dopri_matches_exponential_of_complex_diagonal_system():
    # y' = Lambda y with a complex diagonal Lambda: y(t) = exp(Lambda t) y0
    rng = np.random.default_rng(7)
    lam = -rng.uniform(0.0, 20.0, (3, 40)) + 1j * rng.uniform(-60.0, 60.0, (3, 40))
    y0 = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
    rtol, atol, t1 = 1e-10, 1e-12, 0.7

    def rhs(t, y, out):
        np.multiply(lam, y, out=out)

    got = benchmarks._dop853(rhs, y0, 0.0, t1, rtol=rtol, atol=atol)
    want = np.exp(lam * t1) * y0
    # the global error of the 8(5,3) pair stays within a few local tolerances
    assert np.max(np.abs(got - want) / (atol + rtol * np.abs(want))) < 10.0
    # and the solve follows the requested tolerance
    loose = benchmarks._dop853(rhs, y0, 0.0, t1, rtol=1e-6, atol=1e-8)
    assert 1e-10 < np.max(np.abs(loose - want)) < 1e-5


def test_dop853_tableau_satisfies_its_order_conditions():
    # exact sums of the stored doubles, so only their own rounding counts
    a, b, c = benchmarks._DP_A[:12], benchmarks._DP_A[12], np.array(benchmarks._DP_C)
    for k in range(1, 9):  # b integrates c^(k-1) exactly through order 8
        assert abs(math.fsum(b * c ** (k - 1)) - 1.0 / k) <= 1e-15, k
    # each stage state sits at its node; the rows with entries near 28 carry
    # their own rounding of about 2e-15, so the bound scales with the row
    for row, node in zip(a, c):
        assert abs(math.fsum(np.append(row, -node))) <= 1e-15 * max(1.0, np.sum(np.abs(row)))
    # both error estimates vanish on a constant derivative
    for weights in benchmarks._DP_E:
        assert abs(math.fsum(weights)) <= 1e-15


def test_affine_1f_matches_heston_closed_form_times_merton():
    # heston_merton_1f has constant jump intensity and no variance jumps
    # (m_v = 0), so its CF is classical Heston times the Merton factor
    m = get_model("heston_merton_1f")
    p = m.unpack(m.default_start(BENCH_TENORS), tenors=BENCH_TENORS)
    assert p.m_v == 0.0 and p.c1 == 0.0 and p.c0 > 0.0 and p.kappa1 > 0.0
    kbar = math.exp(p.mu_x + 0.5 * p.sigma_x**2) - 1.0
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        u = np.linspace(-40.0, 40.0, 161) / math.sqrt(p.v1_0 * tau)
        for w in (u, u - 1j):
            merton = np.exp(tau * p.c0 * (
                np.exp(1j * w * p.mu_x - 0.5 * w * w * p.sigma_x**2) - 1.0 - 1j * w * kbar))
            want = heston_k0_cf(w, tau, p.v1_0, p.zeta1, p.rho1, p.kappa1, p.theta1) * merton
            assert np.max(np.abs(heston_merton_cf(w, tau, p) - want)) < 1e-12


@pytest.mark.parametrize("model_id", ["heston_merton_1f", "heston_merton_1f_pp",
                                      "heston_merton_2f", "heston_merton_2f_pp"])
def test_dopri_exponent_matches_the_decoupled_closed_form(model_id):
    # at m_v = 0 every Riccati row is a scalar equation with a closed form;
    # mean reversion, vol-of-vol, jumps, intensity loadings and (for the _pp
    # layouts) a displacement are all on, on both pricer lines out to
    # standardized u = 60
    _, theta = _at_start(model_id)
    shifts = theta.shifts and Displacement(BENCH_TENORS, (0.01, 0.02, -0.005, 0.005, 0.0))
    theta = dataclasses.replace(theta, m_v=0.0, shifts=shifts)
    assert theta.kappa1 > 0.0 and theta.zeta1 > 0.0 and theta.c0 > 0.0
    assert (shifts is not None) == model_id.endswith("_pp")
    kbar = math.exp(theta.mu_x + 0.5 * theta.sigma_x**2) - 1.0
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        st = math.sqrt(theta.spot_variance * tau)
        for w in (np.linspace(0.0, 60.0, 241) / st, np.linspace(0.0, 60.0, 241) / st - 1j):
            want = np.exp(heston_merton_exponent_decoupled(w, tau, theta))
            got = np.exp(benchmarks._heston_merton_exponent(w, tau, theta))
            assert np.max(np.abs(got - want)) <= 1e-13, tau
            if model_id == "heston_merton_1f":
                # the closed form itself: classical Heston times Merton
                merton = np.exp(tau * theta.c0 * (
                    np.exp(1j * w * theta.mu_x - 0.5 * w * w * theta.sigma_x**2) - 1.0
                    - 1j * w * kbar))
                heston = heston_k0_cf(w, tau, theta.v1_0, theta.zeta1, theta.rho1,
                                      theta.kappa1, theta.theta1)
                assert np.max(np.abs(heston * merton - want)) <= 1e-14, tau


def test_affine_rejects_bad_tau():
    p = _full_2f()
    with pytest.raises(ValueError):
        heston_merton_cf(1.0, 0.0, p)


# ---------------------------------------------------------------------------
# rough CF
# ---------------------------------------------------------------------------

def test_rough_reduces_to_classical_heston_at_half():
    u = np.linspace(-30.0, 30.0, 121)
    p = RoughHestonParams(hurst=0.5, nu=0.3, rho=-0.65, xi_tenors=(TAU,), xi_levels=(0.04,))
    got = rough_heston_cf(u, TAU, p)
    want = heston_k0_cf(u, TAU, 0.04, 0.3, -0.65)
    assert np.max(np.abs(got - want)) < 1e-6


def test_rough_deterministic_variance_limit():
    p = RoughHestonParams(hurst=0.3, nu=1e-8, rho=-0.65,
                          xi_tenors=(1 / 365, TAU), xi_levels=(0.04, 0.045))
    int_xi = 0.04 / 365 + 0.045 / 365
    want = np.exp(-(U**2 + 1j * U) / 2.0 * int_xi)
    assert np.max(np.abs(rough_heston_cf(U, TAU, p) - want)) < 1e-6


def test_rough_unit_symmetry_and_martingale():
    p = RoughHestonParams(hurst=0.1, nu=0.3, rho=-0.65,
                          xi_tenors=(1 / 365, TAU), xi_levels=(0.04, 0.045),
                          lambda_j=10.0, mu_j=-0.01, sigma_j=0.02)
    assert rough_heston_cf(0.0, TAU, p) == 1.0 + 0.0j
    a = rough_heston_cf(U, TAU, p)
    b = rough_heston_cf(-U, TAU, p)
    assert np.max(np.abs(a - np.conj(b))) < 1e-12
    assert abs(rough_heston_cf(-1j, TAU, p) - 1.0) < 1e-10


def test_rough_grid_refinement_converged_at_default():
    p = RoughHestonParams(hurst=0.1, nu=0.3, rho=-0.65,
                          xi_tenors=(1 / 365, TAU), xi_levels=(0.04, 0.045))
    u = np.linspace(-30.0, 30.0, 61)
    a = rough_heston_cf(u, TAU, p, n_steps=256)
    b = rough_heston_cf(u, TAU, p, n_steps=512)
    assert np.max(np.abs(a - b)) < 1e-6


def test_rough_piecewise_xi_vs_flat_segments():
    # a flat curve written as two identical segments must price identically
    flat = RoughHestonParams(hurst=0.2, nu=0.4, rho=-0.5, xi_tenors=(TAU,), xi_levels=(0.04,))
    split = RoughHestonParams(hurst=0.2, nu=0.4, rho=-0.5,
                              xi_tenors=(1 / 365, TAU), xi_levels=(0.04, 0.04))
    a = rough_heston_cf(U, TAU, flat)
    b = rough_heston_cf(U, TAU, split)
    assert np.max(np.abs(a - b)) < 1e-14


def test_rough_merton_factor():
    # jumps multiply by the raw-unit compensated Merton CF exactly
    base = RoughHestonParams(hurst=0.2, nu=0.4, rho=-0.5, xi_tenors=(TAU,), xi_levels=(0.04,))
    jumped = RoughHestonParams(hurst=0.2, nu=0.4, rho=-0.5, xi_tenors=(TAU,), xi_levels=(0.04,),
                               lambda_j=25.0, mu_j=-0.02, sigma_j=0.015)
    kbar = math.exp(-0.02 + 0.5 * 0.015**2) - 1.0
    factor = np.exp(
        TAU * 25.0 * (np.exp(1j * U * -0.02 - 0.5 * U**2 * 0.015**2) - 1.0 - 1j * U * kbar)
    )
    got = rough_heston_cf(U, TAU, jumped)
    want = rough_heston_cf(U, TAU, base) * factor
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n_steps", [8, 31, 32, 33, 100, 256])
@pytest.mark.parametrize("hurst", [0.1, 0.5])
def test_blocked_adams_matches_per_step_oracle(n_steps, hurst):
    # the history summed in blocks of _ADAMS_BLOCK steps against per-step
    # sums, with one step for every column and with one step per column
    u = np.concatenate([np.linspace(-30.0, 30.0, 41) - 0.5j, np.linspace(0.5, 20.0, 20)])
    nu, rho = 0.4, -0.65
    outer, linear, quad_coef = -0.5 * (u * u + 1j * u), 1j * u * rho * nu, 0.5 * nu * nu
    per_column = np.where(np.arange(u.size) % 3, 7 / 365, 1 / 365)
    for tau in (7 / 365, per_column):
        got = benchmarks._fractional_adams(outer, linear, quad_coef, hurst + 0.5,
                                           tau / n_steps, n_steps)
        for t, cols in benchmarks._tenor_columns(np.broadcast_to(tau, u.shape)):
            want = fractional_adams_per_step(outer[cols], linear[cols],
                                             np.full(cols.size, quad_coef), hurst + 0.5, t,
                                             n_steps)
            assert np.all(np.abs(got[:, cols] - want) <= 1e-13 * np.abs(want))


def test_adams_weights_are_cached_read_only_and_bounded():
    benchmarks._adams_weights.cache_clear()
    cached = benchmarks._adams_weights(0.6, 64)
    assert benchmarks._adams_weights(0.6, 64) is cached
    with pytest.raises(ValueError):
        cached[0, 0, 0] = 1.0
    fresh = benchmarks._adams_weights.__wrapped__(0.6, 64)
    assert np.array_equal(cached, fresh)
    # a bounded cache of about 1 MB per (alpha, n_steps) at the default steps
    maxsize = benchmarks._adams_weights.cache_info().maxsize
    assert maxsize is not None
    assert maxsize * benchmarks._adams_weights(0.6, 256).nbytes < 5e6


def test_rough_xi_lookup_and_spot_variance():
    p = RoughHestonParams(hurst=0.2, nu=0.4, rho=-0.5,
                          xi_tenors=(1.0, 2.0), xi_levels=(0.04, 0.09))
    np.testing.assert_allclose(p.xi(np.array([0.0, 0.5, 1.0, 1.5, 2.5])),
                               [0.04, 0.04, 0.09, 0.09, 0.09])
    assert p.spot_variance == 0.04


# ---------------------------------------------------------------------------
# rough CF against the whole-array oracle, on one frequency line (Chebyshev
# points of the line solved) and with one frequency off it (solved directly,
# in the same call as the line's points)
# ---------------------------------------------------------------------------

_XI_TENORS = (1 / 365, 2 / 365, 3 / 365)
_XI_LEVELS = (0.04, 0.05, 0.035)
_TAU_PAST_CURVE = 5 / 365


def _rough_grid():
    # far more than the 129-257 points that one line's interpolant solves
    return np.linspace(-150.0, 150.0, 1163)


def _placed(u, off_line: bool):
    """``u``, plus one frequency off its line Im u = const if ``off_line``."""
    return np.append(u, 1.0 - 0.25j) if off_line else u


def _matches_oracle(hurst, shift, solved, off_line):
    p = RoughHestonParams(hurst=hurst, nu=0.4, rho=-0.65,
                          xi_tenors=_XI_TENORS, xi_levels=_XI_LEVELS)
    u = _placed(_rough_grid() + shift, off_line)
    got = rough_heston_cf(u, _TAU_PAST_CURVE, p)
    # the off-line point rides in the solve of the line's first nodes
    assert not off_line or solved[0] == benchmarks._CHEB_ORDER + 1
    want = rough_heston_cf_whole_array(u, _TAU_PAST_CURVE, p)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("hurst", [0.1, 0.5])
@pytest.mark.parametrize("shift", [0.0, -1j], ids=["real", "shifted"])
def test_rough_matches_whole_array_oracle(hurst, shift, solved):
    _matches_oracle(hurst, shift, solved, off_line=False)


@pytest.mark.parametrize("hurst", [0.1, 0.5])
@pytest.mark.parametrize("shift", [0.0, -1j], ids=["real", "shifted"])
def test_rough_off_line_matches_whole_array_oracle(hurst, shift, solved):
    _matches_oracle(hurst, shift, solved, off_line=True)


def _value_independent_of_array(solved, off_line):
    p = RoughHestonParams(hurst=0.1, nu=0.4, rho=-0.65,
                          xi_tenors=_XI_TENORS, xi_levels=_XI_LEVELS)
    u = _placed(_rough_grid() - 1j, off_line)
    grid = rough_heston_cf(u, _TAU_PAST_CURVE, p)
    assert not off_line or solved[0] == benchmarks._CHEB_ORDER + 1
    for k in [0, u.size - 1] + list(range(7, u.size, 61)):
        alone = rough_heston_cf(u[k:k + 1], _TAU_PAST_CURVE, p)[0]
        assert abs(alone - grid[k]) <= 1e-14 * abs(grid[k]), k


def test_rough_value_does_not_depend_on_the_rest_of_its_call(solved):
    _value_independent_of_array(solved, off_line=False)


def test_rough_off_line_value_does_not_depend_on_the_rest_of_its_call(solved):
    _value_independent_of_array(solved, off_line=True)


def _divergence_message(fn, *args):
    with pytest.raises(RuntimeError, match=r"diverged at step \d+/256") as exc:
        fn(*args)
    return str(exc.value)


# nu = 1, tau = 1: the explicit scheme diverges from the 16th pricer probe
# frequency on, at an earlier step the higher the frequency; just below it,
# _LATE diverges at step 68, inside the third history block
_DIVERGING = RoughHestonParams(hurst=0.1, nu=1.0, rho=-0.7, xi_tenors=(0.5,), xi_levels=(0.04,))
_SLOW, _FAST, _LATE = _PROBES[15] - 0.5j, _PROBES[39] - 0.5j, 47.5 - 0.5j


def _reports_first_diverging_step(solved, off_line):
    healthy = np.linspace(0.5, 20.0, 1146) - 0.5j
    for u in (np.array([_SLOW]), np.append(healthy, _SLOW),
              np.concatenate([[_SLOW], healthy, [_FAST]]),
              np.concatenate([[_FAST], healthy, [_SLOW]]),
              np.array([_LATE]), np.append(healthy, _LATE)):
        u = _placed(u, off_line)
        solved.clear()
        got = _divergence_message(rough_heston_cf, u, 1.0, _DIVERGING)
        # one solve: the off-line point with the short array or the line's first nodes
        assert not off_line or solved == [min(u.size, benchmarks._CHEB_ORDER + 1)]
        assert got == _divergence_message(rough_heston_cf_whole_array, u, 1.0, _DIVERGING)


def test_rough_divergence_reports_the_first_diverging_step(solved):
    _reports_first_diverging_step(solved, off_line=False)
    assert _divergence_message(rough_heston_cf, _SLOW, 1.0, _DIVERGING) != _divergence_message(
        rough_heston_cf, _FAST, 1.0, _DIVERGING)
    # the finiteness check runs once per history block and still names the
    # step: _LATE's lies inside a later block, not on its first row
    late = int(re.search(r"step (\d+)/", _divergence_message(
        rough_heston_cf, _LATE, 1.0, _DIVERGING)).group(1))
    assert late > benchmarks._ADAMS_BLOCK and late % benchmarks._ADAMS_BLOCK != 1


def test_rough_off_line_divergence_reports_the_first_diverging_step(solved):
    _reports_first_diverging_step(solved, off_line=True)


def test_u_max_probe_truncates_rough_divergence_at_last_healthy_probe():
    p = RoughHestonParams(hurst=0.1, nu=1.0, rho=-0.7, xi_tenors=(0.5,), xi_levels=(0.04,))
    cf = lambda w: rough_heston_cf(w, 1.0, p)  # noqa: E731
    shift = -0.5j
    first_bad = None
    for k, probe in enumerate(_PROBES):
        try:
            assert abs(cf(probe + shift)) / probe >= 1e-12  # no decay before the failure
        except RuntimeError:
            first_bad = k
            break
    assert first_bad is not None and first_bad >= 8
    # the 1-year tenor probed alone and in a surface with a 1-day one (sigma0
    # 0.5 puts it on the shifted line Im u = -0.5): the round that diverges
    # is re-run tenor by tenor
    for taus in ([1.0], [1 / 365, 1.0]):
        u_max, truncated = _surface_u_max(lambda w, t: rough_heston_cf(w, t, p), 0.5, taus)
        assert u_max[-1] == _PROBES[8 * (first_bad // 8) - 1] and truncated[-1]


def _probe_chunks(theta, chunks):
    """Raw frequencies of the u_max probe chunks of every BENCH_TENORS
    tenor, and each frequency's tenor."""
    st = [math.sqrt(theta.spot_variance * t) for t in BENCH_TENORS]
    w = [(_PROBES[:8 * chunks] - 1j * s) / s for s in st]
    return np.concatenate(w), np.repeat(BENCH_TENORS, 8 * chunks)


@pytest.mark.parametrize("model_id", ["heston_merton_1f", "heston_merton_2f"])
def test_scaled_time_affine_solve_matches_per_tau_solves(model_id, monkeypatch):
    # the first two probe chunks of all six tenors in one shared-step solve in
    # s/tau, within 1e-11 relative of each tenor's own solve of its exponent
    _, theta = _at_start(model_id)
    ends = []

    def spy(f, y0, t0, t1, *args, _real=benchmarks._dop853, **kwargs):
        ends.append((t0, t1))
        return _real(f, y0, t0, t1, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "_dop853", spy)
    w, taus = _probe_chunks(theta, 2)
    got = benchmarks._heston_merton_exponent(w, taus, theta)
    assert ends == [(0.0, 1.0)]  # one solve over the scaled time
    want = np.concatenate([benchmarks._heston_merton_exponent(w[taus == t], t, theta)
                           for t in BENCH_TENORS])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def test_rough_cf_with_one_tau_per_frequency_equals_per_tau_calls():
    # one Adams solve with one step per column, each tenor's omega on its columns
    _, theta = _at_start("rough_heston_merton_pp")
    w, taus = _probe_chunks(theta, 1)
    want = np.concatenate([rough_heston_cf(w[taus == t], t, theta) for t in BENCH_TENORS])
    assert np.array_equal(rough_heston_cf(w, taus, theta), want)


# ---------------------------------------------------------------------------
# frequency lines: the Chebyshev interpolant against the direct solve
# ---------------------------------------------------------------------------

_ODE_MODELS = ("heston_merton_1f", "heston_merton_1f_pp", "heston_merton_2f",
               "heston_merton_2f_pp", "rough_heston_pp", "rough_heston_merton_pp")


def _at_start(model_id: str):
    model = get_model(model_id)
    return model, model.unpack(model.default_start(BENCH_TENORS), tenors=BENCH_TENORS)


def _recording(cf, grids: list):
    """``cf`` that keeps its values on every frequency grid (> 8 points)."""
    def recorded(u):
        out = cf(u)
        if np.size(u) > 8:
            grids.append(out)
        return out
    return recorded


@pytest.mark.parametrize("n", [2000, 10_000])
@pytest.mark.parametrize("tau", [BENCH_TENORS[0], BENCH_TENORS[-1]], ids=["5.5h", "7d"])
@pytest.mark.parametrize("model_id", _ODE_MODELS)
def test_line_interpolant_matches_direct_solve(model_id, tau, n, solved, monkeypatch):
    model, theta = _at_start(model_id)
    spot, sigma0 = 100.0, model.spot_vol(theta)
    strikes = spot * np.exp(np.linspace(-15.0, 5.0, 41) * sigma0 * math.sqrt(tau))
    quad = QuadratureConfig(node_count=n)
    grids, direct, kernels = [], [], []
    u_max = _surface_u_max(lambda u, t: model.cf_standardized(u, t, theta), sigma0, [tau])[0][0]

    def spy(x, nodes, vals, _real=benchmarks._barycentric):
        kernels.append(vals.shape)
        return _real(x, nodes, vals)

    monkeypatch.setattr(benchmarks, "_barycentric", spy)
    calls = _slice_calls(_recording(lambda u: model.cf_standardized(u, tau, theta), grids),
                         sigma0, tau, spot, 0.0, strikes, quad, u_max)[0]
    # the two legs' lines (the normalizer on the shifted one) took at most
    # 257 solved frequencies each, and share their real parts, so the round
    # in which both converge evaluates one kernel with both value columns
    assert sum(size for size in solved if size > 8) <= 2 * 257
    assert [cols for _, cols in kernels] == [2]
    want = _slice_calls(_recording(lambda u: cf_standardized_direct(u, tau, theta), direct),
                        sigma0, tau, spot, 0.0, strikes, quad, u_max)[0]
    assert len(grids) == len(direct) == 1  # one call: the normalizer and both legs
    for got, ref in zip(grids, direct):
        assert np.max(np.abs(got - ref)) <= 1e-14
    assert np.max(np.abs(calls - want)) <= 1e-14 * spot


def test_barycentric_matches_per_point_oracle_and_keeps_node_values():
    # the exponent that the interpolant carries: heston_merton_2f on its
    # shifted pricer line at 7 d, over more than one evaluation block
    _, theta = _at_start("heston_merton_2f")
    nodes = benchmarks._chebyshev_nodes(0.0, 400.0, benchmarks._CHEB_ORDER)
    vals = benchmarks._heston_merton_exponent(nodes - 0.5j, BENCH_TENORS[-1], theta)
    on = [0, 1, nodes.size // 2, nodes.size - 2, nodes.size - 1]
    x = np.concatenate([np.linspace(0.0, 400.0, benchmarks._CHEB_BLOCK + 76), nodes[on]])
    got = benchmarks._barycentric(x, nodes, vals)
    want = barycentric_per_point(x, nodes, vals)
    # forward error relative to the largest node value (Higham 2004)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(vals))
    # points on interior nodes and on both ends return the node value exactly
    assert np.array_equal(got[-len(on):], vals[on])
    assert got[0] == vals[-1] and got[benchmarks._CHEB_BLOCK + 75] == vals[0]


def _pricer_line(theta, tau: float):
    """Raw frequencies of the pricer's plain leg at 2000 nodes."""
    st = math.sqrt(theta.spot_variance * tau)
    cf = lambda u: benchmark_cf_direct(u / st, tau, theta)  # noqa: E731
    step = adaptive_u_max(cf, -1j * st) / 2000
    return step * (np.arange(2000) + 0.5) / st


@pytest.mark.parametrize("shift", [0.0, -1j], ids=["plain", "shifted"])
def test_line_interpolant_doubles_its_order_when_129_points_fall_short(shift, solved):
    # at 5.5 h the 2-factor exponent needs more than 129 Chebyshev points
    _, theta = _at_start("heston_merton_2f")
    tau = BENCH_TENORS[0]
    w = _pricer_line(theta, tau) + shift
    got = heston_merton_cf(w, tau, theta)
    assert solved == [129, 128]
    assert np.max(np.abs(got - benchmark_cf_direct(w, tau, theta))) <= 1e-14


@pytest.mark.parametrize("model_id", ["heston_merton_2f", "rough_heston_pp"])
def test_off_line_probe_and_short_line_arrays_are_solved_directly(model_id, solved):
    _, theta = _at_start(model_id)
    cf = heston_merton_cf if model_id == "heston_merton_2f" else rough_heston_cf
    tau = BENCH_TENORS[0]
    line = _pricer_line(theta, tau)
    st = math.sqrt(theta.spot_variance * tau)
    cases = [(line[:300] - 1j * np.linspace(0.0, 1.0, 300), [300]),  # each on its own line
             ((_PROBES[:8] - 1j * st) / st, [8]),  # one u_max probe chunk
             (line[::10], [200])]  # a line of at most 2 * 129 - 1 points
    for u, sizes in cases:
        solved.clear()
        got = cf(u, tau, theta)
        assert solved == sizes
        assert np.array_equal(got, benchmark_cf_direct(u, tau, theta))


@pytest.mark.parametrize("model_id", ["heston_merton_2f", "rough_heston_pp"])
def test_two_lines_and_scattered_points_take_one_solve_per_order_round(model_id, solved):
    _, theta = _at_start(model_id)
    cf = heston_merton_cf if model_id == "heston_merton_2f" else rough_heston_cf
    tau = BENCH_TENORS[0]
    line = _pricer_line(theta, tau)
    # two 2000-point lines, a point at Re u = 0 (an end of the second line)
    # and a point off both
    u = np.concatenate([line, line - 1j, [-1j, 1.0 - 0.25j]])
    got = cf(u, tau, theta)
    # round one: both lines' first nodes and the off-line point; at 5.5 h the
    # 2-factor lines then double their order together
    rounds = {"heston_merton_2f": [2 * 129 + 1, 2 * 128], "rough_heston_pp": [2 * 129 + 1]}
    assert solved == rounds[model_id]
    assert np.max(np.abs(got - benchmark_cf_direct(u, tau, theta))) <= 1e-14


@pytest.mark.parametrize("tau", [BENCH_TENORS[0], BENCH_TENORS[-1]], ids=["5.5h", "7d"])
@pytest.mark.parametrize("model_id", _ODE_MODELS)
def test_slice_makes_its_probe_calls_then_one_call_of_both_legs(model_id, tau, solved):
    # a one-tenor surface: its probe pass, then its slice
    model, theta = _at_start(model_id)
    sizes = []

    def cf(u):
        sizes.append(np.size(u))
        return model.cf_standardized(u, tau, theta)

    sigma0, n = model.spot_vol(theta), 2000
    strikes = 100.0 * np.exp(np.linspace(-3.0, 3.0, 7) * sigma0 * math.sqrt(tau))
    u_max = _surface_u_max(lambda u, _t: cf(u), sigma0, [tau])[0][0]
    _slice_calls(cf, sigma0, tau, 100.0, 0.0, strikes, QuadratureConfig(node_count=n), u_max)
    assert len(sizes) >= 2 and sizes == [8] * (len(sizes) - 1) + [2 * n + 2]
    # the normalizer is an end node of the shifted leg's line, so the call's
    # first solve is both lines' first nodes and nothing else
    assert solved[len(sizes) - 1] == 2 * benchmarks._CHEB_ORDER


@pytest.mark.parametrize(("tau", "evals_5_4", "grid_solves"),
                         [(BENCH_TENORS[0], 453, 2), (BENCH_TENORS[-1], 1298, 1)],
                         ids=["5.5h", "7d"])
def test_affine_slice_takes_few_riccati_evaluations(tau, evals_5_4, grid_solves, solved,
                                                    monkeypatch):
    # probe + grid right-hand-side evaluations of a 2000-node heston_merton_2f
    # slice at its start: at most 60% of what the Dormand-Prince 5(4) pair
    # took, without more order rounds of the grid call's line interpolant
    model, theta = _at_start("heston_merton_2f")
    evals, grid_start = [0], []

    def spy(f, y0, *args, _real=benchmarks._dop853, **kwargs):
        def counted(t, y, out):
            evals[0] += 1
            f(t, y, out)
        return _real(counted, y0, *args, **kwargs)

    def cf(u):
        if np.size(u) > 8:
            grid_start.append(len(solved))
        return model.cf_standardized(u, tau, theta)

    monkeypatch.setattr(benchmarks, "_dop853", spy)
    sigma0 = model.spot_vol(theta)
    strikes = 100.0 * np.exp(np.linspace(-3.0, 3.0, 7) * sigma0 * math.sqrt(tau))
    u_max = _surface_u_max(lambda u, _t: cf(u), sigma0, [tau])[0][0]
    _slice_calls(cf, sigma0, tau, 100.0, 0.0, strikes, QuadratureConfig(node_count=2000), u_max)
    assert evals[0] <= 0.6 * evals_5_4
    assert len(grid_start) == 1 and len(solved) - grid_start[0] <= grid_solves


@pytest.mark.parametrize("model_id", ["heston_merton_1f", "heston_merton_1f_pp",
                                      "heston_merton_2f", "heston_merton_2f_pp"])
def test_affine_state_has_one_b_row_per_factor(model_id, monkeypatch):
    # a one-factor model integrates A and B1 only, and so does a two-factor
    # layout of the same parameters (factor_count 2 with factor 2 at zero):
    # its B2 row cannot reach the exponent, so it is not solved, and the
    # prices match
    model, theta = _at_start(model_id)
    shapes = []

    def spy(f, y0, *args, _real=benchmarks._dop853, **kwargs):
        shapes.append(y0.shape[0])
        return _real(f, y0, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "_dop853", spy)
    rows = 1 + theta.factor_count
    twin = dataclasses.replace(theta, factor_count=2)
    spot, sigma0, quad = 100.0, model.spot_vol(theta), QuadratureConfig(node_count=2000)
    for tau in (BENCH_TENORS[0], BENCH_TENORS[-1]):
        strikes = spot * np.exp(np.linspace(-8.0, 5.0, 27) * sigma0 * math.sqrt(tau))
        shapes.clear()
        u_max = _surface_u_max(lambda u, t: model.cf_standardized(u, t, theta), sigma0, [tau])[0][0]
        calls = _slice_calls(lambda u: model.cf_standardized(u, tau, theta),
                             sigma0, tau, spot, 0.03, strikes, quad, u_max)[0]
        assert shapes and set(shapes) == {rows}
        if rows == 2:
            shapes.clear()
            u_max = _surface_u_max(lambda u, t: model.cf_standardized(u, t, twin),
                                   sigma0, [tau])[0][0]
            want = _slice_calls(lambda u: model.cf_standardized(u, tau, twin),
                                sigma0, tau, spot, 0.03, strikes, quad, u_max)[0]
            assert shapes and set(shapes) == {2}
            assert np.max(np.abs(calls - want)) <= 1e-9 * spot
