"""Tests for the continuous-part CF expansion, its displacement and the jump factor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import psi_c_quadrature, psi_c_rho_one_exact
from ustvol.cf_edgeworth import (
    Displacement,
    EdgeworthParams,
    psi_c_no_shift,
    psi_c_piecewise,
    psi_full,
    psi_jump,
)
from ustvol.diagnostics import BENCH_TENORS
from ustvol.fourier_pricer import _surface_u_max
from ustvol.mc_oracle import SimConfig, empirical_cf, simulate_edgeworth_submodel

# Frozen from tests/oracles.py (independent 50-digit polynomial evaluation):
# cf_expansion_highprec(2, 5.5/(24*365), 0.2, 0.4, -0.7, 0.1, 0)
CF_NOSHIFT_ORACLE = 0.13557093554106123 + 0.018990148237525806j

# Frozen from tests/oracles.py jump_cf_mc (10^6 compound-Poisson draws,
# seed 20240811): value and standard error.
JUMP_CF_MC_ORACLE = 0.9077556442196244 + 0.16947420907729951j
JUMP_CF_MC_SE = 3.837e-04

TAU_55H = 5.5 / (24.0 * 365.0)


def _u_grid():
    return np.linspace(-50.0, 50.0, 201)


# ---------------------------------------------------------------------------
# psi_c_no_shift
# ---------------------------------------------------------------------------

def test_no_shift_at_zero_frequency():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1, alpha_prime0=0.3)
    assert psi_c_no_shift(0.0, 1.0 / 252.0, p) == 1.0 + 0.0j


def test_no_shift_gaussian_reduction():
    # all correction loadings off -> plain Gaussian CF
    p = EdgeworthParams(sigma0=0.2)
    val = psi_c_no_shift(1.5, 1.0 / 252.0, p)
    assert val == pytest.approx(math.exp(-1.125), abs=1e-15)


def test_no_shift_matches_high_precision_oracle():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1)
    val = psi_c_no_shift(2.0, TAU_55H, p)
    assert abs(val - CF_NOSHIFT_ORACLE) < 1e-13


def _no_shift_reference(u, tau, p):
    """The psi_c_no_shift docstring formula, written in beta_tilde0 and rho0.

    The code evaluates the shared bracket of nested integrals instead, so
    this literal form checks the bracket independently."""
    s0, bt, rho = p.sigma0, p.beta_tilde0, p.rho0
    u2 = u * u
    return np.exp(-u2 / 2.0) * (
        1.0
        - 1j * u2 * u * (bt * rho / (2.0 * s0)) * math.sqrt(tau)
        - u2 * (2.0 * p.alpha_prime0 / (2.0 * s0) + bt**2 / (4.0 * s0**2)) * tau
        + (bt**2 / (24.0 * s0**2)) * u2 * (4.0 * u2 - rho**2 * u2 * (3.0 * u2 - 8.0)) * tau
        + (p.eta0 / (6.0 * s0)) * u2 * u2 * tau
    )


def test_no_shift_matches_literal_formula():
    # every loading active, alpha_prime0 and eta0 included; real frequencies
    # and the pricer's shifted argument u - i*sigma0*sqrt(tau)
    rng = np.random.default_rng(44)
    u = _u_grid()
    worst = 0.0
    for _ in range(500):
        p = EdgeworthParams(sigma0=rng.uniform(0.05, 0.6), beta_tilde0=rng.uniform(0.0, 2.0),
                            rho0=rng.uniform(-1.0, 1.0), eta0=rng.uniform(-2.0, 2.0),
                            alpha_prime0=rng.uniform(-2.0, 2.0))
        tau = rng.uniform(0.3 / 365, 7 / 365)
        for uu in (u, u - 1j * p.sigma0 * math.sqrt(tau)):
            worst = max(worst, float(np.abs(psi_c_no_shift(uu, tau, p)
                                            - _no_shift_reference(uu, tau, p)).max()))
    assert worst < 1e-13


def test_no_shift_rejects_bad_tau():
    p = EdgeworthParams(sigma0=0.2)
    with pytest.raises(ValueError):
        psi_c_no_shift(1.0, 0.0, p)
    with pytest.raises(ValueError):
        psi_c_no_shift(1.0, -1.0 / 252.0, p)


def test_params_validation():
    with pytest.raises(ValueError):
        EdgeworthParams(sigma0=0.0)
    with pytest.raises(ValueError):
        EdgeworthParams(sigma0=-0.2)
    with pytest.raises(ValueError):
        EdgeworthParams(sigma0=0.2, rho0=-1.2)
    with pytest.raises(ValueError):
        EdgeworthParams(sigma0=0.2, lambda0=-1.0)
    with pytest.raises(ValueError):
        EdgeworthParams(sigma0=0.2, sigma_J=-0.1)


# ---------------------------------------------------------------------------
# psi_c_piecewise
# ---------------------------------------------------------------------------

def test_piecewise_zero_shift_collapse_exact():
    """With all shifts zero the piecewise form must equal the no-shift form
    to machine precision (the segment integrals collapse to powers of tau)."""
    p = EdgeworthParams(sigma0=0.25, beta_tilde0=0.6, rho0=-0.5, eta0=0.2, alpha_prime0=-0.1)
    d = Displacement(tenors=(1 / 365, 2 / 365, 5 / 365), shifts=(0.0, 0.0))
    u = _u_grid()
    for tau in d.tenors:
        diff = np.abs(psi_c_piecewise(u, tau, p, d) - psi_c_no_shift(u, tau, p))
        assert diff.max() < 5e-16


def test_piecewise_hand_value():
    # beta=eta=alpha'=0 leaves only the leading factor:
    # exp(-0.5 * int phi_tilde^2 / tau) = exp(-0.5*(0.5 + 2.25*0.5)) = exp(-0.8125)
    p = EdgeworthParams(sigma0=0.2)
    d = Displacement(tenors=(0.5, 1.0), shifts=(0.1,))
    val = psi_c_piecewise(1.0, 1.0, p, d)
    assert val == pytest.approx(math.exp(-0.8125), rel=1e-14)


def test_piecewise_offgrid_tau_inserts_breakpoint():
    p = EdgeworthParams(sigma0=0.2)
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.05,))
    # off-grid evaluation inserts tau as a breakpoint with the prevailing level
    val = psi_c_piecewise(1.0, 1.5 / 365, p, d)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_piecewise_offgrid_first_segment_matches_quadrature():
    # tau below the first tenor sees a flat (zero) displacement: both routes exact
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1, alpha_prime0=0.05)
    d = Displacement(tenors=(1 / 52, 2 / 52), shifts=(0.05,))
    u = _u_grid()
    tau = 1 / 104
    diff = np.abs(psi_c_piecewise(u, tau, p, d) - psi_c_quadrature(u, tau, p, d, node_count=100_000))
    assert diff.max() < 1e-10


def test_piecewise_variance_factor_exact_multisegment():
    # With beta=eta=alpha'=0 only the shift-weighted variance factor remains,
    # and the trapezoid integrates it exactly for any number of segments.
    p = EdgeworthParams(sigma0=0.2)
    tau = 1 / 104
    d = Displacement(tenors=(tau / 3, 2 * tau / 3, tau), shifts=(0.05, -0.03))
    u = _u_grid()
    diff = np.abs(psi_c_piecewise(u, tau, p, d) - psi_c_quadrature(u, tau, p, d))
    assert diff.max() < 1e-12


def test_piecewise_and_quadrature_agree_beyond_one_shifted_segment():
    """The segment recursion gives the nested integrals exactly, so the
    closed form matches the quadrature oracle with every loading active and
    two segments carrying different nonzero shifts."""
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1, alpha_prime0=0.05)
    tau = 1 / 104
    d = Displacement(tenors=(tau / 3, 2 * tau / 3, tau), shifts=(0.05, -0.03))
    u = _u_grid()
    gap = np.abs(psi_c_piecewise(u, tau, p, d) - psi_c_quadrature(u, tau, p, d)).max()
    assert gap < 1e-9  # measured 8.2e-11 at this fixture
    # the quadrature route itself is converged to the same level
    ref = psi_c_quadrature(u, tau, p, d, node_count=80_000)
    assert np.abs(psi_c_quadrature(u, tau, p, d) - ref).max() < 1e-9


def test_piecewise_mc_expansion_order_displaced():
    # displaced counterpart of the gate's MC order check: the exact sampler
    # of the rho0 = -1 sub-model with two shifted segments on a (1, 2, 4)-day
    # grid scaled to end at 4, 2 and 1 days; the CF error must decay faster
    # than tau^1.2 (measured exponents 1.43 and 1.51; the old segment-local
    # closed form gave about 0.9)
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.8, rho0=-1.0)
    u = np.linspace(-4.0, 4.0, 33)
    u = u[np.abs(u) > 1e-12]
    errs = []
    for days in (4, 2, 1):
        tau = days / 365
        d = Displacement(tenors=(tau / 4, tau / 2, tau), shifts=(0.08, -0.06))
        cfg = SimConfig(paths=10**6, steps_per_tenor=1, rng_seed=5)
        sim = simulate_edgeworth_submodel(p, d, tau, cfg, exact=True)
        emp, _ = empirical_cf(sim.z_continuous, u)
        errs.append(float(np.max(np.abs(emp - psi_c_piecewise(u, tau, p, d)))))
    exps = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    assert min(exps) >= 1.2, (errs, exps)


def test_no_shift_expansion_order_against_exact_rho_one_law():
    # rho0 = -1 with eta0 = alpha_prime0 = 0 has a closed-form CF
    # (oracles.psi_c_rho_one_exact), so the truncation error is measured
    # without sampling noise at tenors far below the MC gate's; it must
    # decay like tau^1.5 (measured 1.504 and 1.502), and an O(tau) error in
    # any bracket coefficient pulls the exponent down to about 1
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.8, rho0=-1.0)
    u = np.linspace(-3.0, 3.0, 61)
    errs = [float(np.abs(psi_c_no_shift(u, tau, p) - psi_c_rho_one_exact(u, tau, p)).max())
            for tau in (0.08 / 365, 0.04 / 365, 0.02 / 365)]
    exps = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    assert min(exps) >= 1.4, (errs, exps)


def test_exact_rho_one_law_matches_exact_sampler():
    # the closed-form reference and the exact sampler are two routes to the
    # same law: they agree within sampling noise under a displacement
    # (measured at most 1.7 standard errors), where the expansion is
    # 3-20 standard errors off at this 2-day tenor
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.8, rho0=-1.0)
    tau = 2 / 365
    d = Displacement(tenors=(tau / 4, tau / 2, tau), shifts=(0.1, 0.1))
    u = np.array([-1.5, 0.5, 1.0, 2.0, 3.0])
    sim = simulate_edgeworth_submodel(p, d, tau, SimConfig(paths=10**6, steps_per_tenor=1,
                                                           rng_seed=5), exact=True)
    emp, se = empirical_cf(sim.z_continuous, u)
    assert np.all(np.abs(emp - psi_c_rho_one_exact(u, tau, p, d)) <= 4.0 * se)
    with pytest.raises(ValueError, match="alpha_prime0"):
        psi_c_rho_one_exact(u, tau, EdgeworthParams(sigma0=0.2, rho0=-0.5, beta_tilde0=0.8))


def test_piecewise_rejects_non_positive_shifted_vol():
    p = EdgeworthParams(sigma0=0.2)
    d = Displacement(tenors=(0.5, 1.0), shifts=(-0.3,))  # 1 + a/sigma0 = -0.5
    with pytest.raises(ValueError, match="non-positive"):
        psi_c_piecewise(1.0, 1.0, p, d)
    # below the offending segment the displacement is still admissible
    assert np.isfinite(abs(psi_c_piecewise(1.0, 0.25, p, d)))


@given(st.floats(-30.0, 30.0))
def test_piecewise_conjugate_symmetry(u):
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.5, rho0=-0.6, eta0=0.1, alpha_prime0=0.02)
    d = Displacement(tenors=(1 / 365, 3 / 365), shifts=(0.04,))
    a = psi_c_piecewise(u, 3 / 365, p, d)
    b = psi_c_piecewise(-u, 3 / 365, p, d)
    assert abs(a - np.conj(b)) < 1e-14


# ---------------------------------------------------------------------------
# the quadrature oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_quadrature_zero_phi_matches_no_shift():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1, alpha_prime0=0.05)
    u = _u_grid()
    for tau in (TAU_55H, 1 / 252, 1 / 52):
        got = psi_c_quadrature(u, tau, p, lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                               node_count=100_000)
        want = psi_c_no_shift(u, tau, p)
        assert np.abs(got - want).max() < 1e-9


def test_quadrature_at_zero_frequency():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4)
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.05,))
    assert psi_c_quadrature(0.0, 2 / 365, p, d) == 1.0 + 0.0j


def test_quadrature_rejects_non_finite_phi():
    p = EdgeworthParams(sigma0=0.2)
    with pytest.raises(ValueError, match="non-finite"):
        psi_c_quadrature(1.0, 1 / 252, p, lambda t: np.full_like(np.asarray(t, dtype=float), np.nan))


def test_quadrature_callable_and_displacement_agree():
    # passing the Displacement object must equal passing its phi with
    # explicit breakpoints
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.3)
    tau = 2 / 365
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.06,))
    u = _u_grid()
    a = psi_c_quadrature(u, tau, p, d)
    b = psi_c_quadrature(u, tau, p, d.phi, breakpoints=d.tenors)
    assert np.abs(a - b).max() == 0.0


def test_quadrature_smooth_displacement_runs():
    # non-piecewise displacements are in scope for the quadrature route only
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.3, rho0=-0.5)
    tau = 1 / 52
    val = psi_c_quadrature(2.0, tau, p, lambda t: 0.05 * np.sin(np.asarray(t) * math.pi / tau))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


# ---------------------------------------------------------------------------
# psi_jump
# ---------------------------------------------------------------------------

def test_jump_no_intensity_is_unity():
    p = EdgeworthParams(sigma0=0.2, lambda0=0.0, mu_J=-0.5, sigma_J=0.1)
    u = _u_grid()
    np.testing.assert_array_equal(psi_jump(u, 1 / 252, p), np.ones_like(u, dtype=complex))


def test_jump_at_zero_frequency():
    p = EdgeworthParams(sigma0=0.2, lambda0=20.0, mu_J=-0.01, sigma_J=0.02)
    assert psi_jump(0.0, 1 / 252, p) == 1.0 + 0.0j


def test_jump_matches_compound_poisson_mc():
    p = EdgeworthParams(sigma0=0.2, lambda0=20.0, mu_J=-0.01, sigma_J=0.02)
    val = psi_jump(3.0, 1 / 252, p)
    assert abs(val - JUMP_CF_MC_ORACLE) < 4.0 * JUMP_CF_MC_SE


def test_jump_overflow_guard():
    # absurd sigma_J pushes the compensator exponent mu_J + sigma_J^2/2
    # beyond float64 range; must raise rather than return inf/nan
    p = EdgeworthParams(sigma0=0.2, lambda0=1.0, mu_J=0.0, sigma_J=40.0)
    with pytest.raises(OverflowError):
        psi_jump(1.0, 1 / (252 * 79), p)


# ---------------------------------------------------------------------------
# psi_full and shared invariants
# ---------------------------------------------------------------------------

def test_full_at_zero_frequency():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, lambda0=10.0,
                        mu_J=-0.02, sigma_J=0.03)
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.05,))
    assert psi_full(0.0, 2 / 365, p, d) == 1.0 + 0.0j


def test_full_reduces_to_continuous_part():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1)
    u = _u_grid()
    got = psi_full(u, 1 / 252, p, None)
    np.testing.assert_array_equal(got, psi_c_no_shift(u, 1 / 252, p))


def test_full_is_the_product_of_its_factors_on_the_pricer_lines():
    # one exponential for the Gaussian damping and the jump exponent: within
    # 1e-15 of the product of the two CFs on the pricer's grid call, the
    # plain line Im u = 0 and the shifted line Im u = -sigma0*sqrt(tau) with
    # the normalizer point, at gate 8's truth
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.6, rho0=-0.6, eta0=0.2,
                        alpha_prime0=0.1, lambda0=30.0, mu_J=-0.01, sigma_J=0.02)
    d = Displacement(tenors=BENCH_TENORS, shifts=(0.01, 0.02, -0.005, 0.005, 0.0))
    n = 2048
    u_maxes = _surface_u_max(lambda u, t: psi_full(u, t, p, d), p.sigma0, BENCH_TENORS)[0]
    for tau, u_max in zip(BENCH_TENORS, u_maxes):
        shift = -1j * p.sigma0 * math.sqrt(tau)
        u = u_max / n * (np.arange(n) + 0.5)
        for line in (u, np.concatenate([[shift], u + shift])):
            want = psi_c_piecewise(line, tau, p, d) * psi_jump(line, tau, p)
            err = np.max(np.abs(psi_full(line, tau, p, d) - want))
            assert err <= 1e-15 * np.max(np.abs(want)), tau


@given(st.floats(-40.0, 40.0))
@settings(max_examples=50)
def test_full_conjugate_symmetry(u):
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1,
                        alpha_prime0=0.02, lambda0=15.0, mu_J=-0.01, sigma_J=0.02)
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.05,))
    a = psi_full(u, 2 / 365, p, d)
    b = psi_full(-u, 2 / 365, p, d)
    assert abs(a - np.conj(b)) < 1e-13


@given(
    sigma0=st.floats(0.05, 1.0),
    bt=st.floats(0.0, 2.0),
    rho=st.floats(-1.0, 1.0),
    tau=st.floats(1e-4, 0.1),
)
@settings(max_examples=50)
def test_unit_at_zero_frequency_property(sigma0, bt, rho, tau):
    p = EdgeworthParams(sigma0=sigma0, beta_tilde0=bt, rho0=rho, eta0=0.1,
                        alpha_prime0=-0.05, lambda0=5.0, mu_J=0.01, sigma_J=0.01)
    assert psi_c_no_shift(0.0, tau, p) == 1.0 + 0.0j
    assert psi_jump(0.0, tau, p) == 1.0 + 0.0j


def test_underflow_clamps_to_exact_zero():
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7)
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.05,))
    assert psi_c_no_shift(1e4, 1 / 252, p) == 0.0 + 0.0j
    assert psi_c_piecewise(1e4, 2 / 365, p, d) == 0.0 + 0.0j
    assert psi_c_quadrature(1e4, 2 / 365, p, d) == 0.0 + 0.0j


def test_complex_frequency_supported():
    # the pricer evaluates the CF at u - i*sigma0*sqrt(tau)
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7)
    d = Displacement(tenors=(1 / 365, 2 / 365), shifts=(0.05,))
    shift = -1j * 0.2 * math.sqrt(2 / 365)
    for fn in (lambda u: psi_c_no_shift(u, 2 / 365, p),
               lambda u: psi_c_piecewise(u, 2 / 365, p, d),
               lambda u: psi_c_quadrature(u, 2 / 365, p, d)):
        v = fn(1.0 + shift)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_displacement_validation_errors():
    with pytest.raises(ValueError):
        Displacement(tenors=(1.0, 0.5), shifts=(0.1,))
    with pytest.raises(ValueError):
        Displacement(tenors=(-1.0, 0.5), shifts=(0.1,))
    with pytest.raises(ValueError):
        Displacement(tenors=(0.5, 1.0), shifts=())
    with pytest.raises(ValueError):
        Displacement(tenors=(), shifts=())
    with pytest.raises(ValueError):
        Displacement(tenors=(1.0,), shifts=()).segments_to(0.0)


def test_displacement_phi_lookup():
    d = Displacement(tenors=(1.0, 2.0, 3.0), shifts=(0.1, -0.05))
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    np.testing.assert_allclose(d.phi(t), [0.0, 0.0, 0.1, 0.1, -0.05, -0.05, -0.05, -0.05])
    assert d.phi(0.5) == 0.0
