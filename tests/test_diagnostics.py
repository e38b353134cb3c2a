"""Smile-expansion analytics: definitional identities, pricer round trips,
cumulant scaling on simulated paths, and the timing bench plumbing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import affine_small_time_skew, sample_cumulants, verify_smile_against_pricer
from ustvol.cf_edgeworth import EdgeworthParams
from ustvol.diagnostics import BENCH_TENORS, smile_expansion, timing_bench
from ustvol.mc_oracle import SimConfig, simulate_edgeworth_submodel


def _params(**kw) -> EdgeworthParams:
    base = dict(sigma0=0.2, beta_tilde0=0.4, rho0=-0.7, eta0=0.1,
                alpha_prime0=0.0, lambda0=0.0, mu_J=0.0, sigma_J=0.0)
    base.update(kw)
    return EdgeworthParams(**base)


def test_smile_expansion_reference_values():
    e = smile_expansion(_params())
    assert e.theta3 == pytest.approx(-4.2, abs=1e-12)
    assert e.theta4 == pytest.approx(33.68, abs=1e-12)
    assert e.iv_level == 0.2
    assert e.iv_skew == pytest.approx(-0.7, abs=1e-12)


@given(
    sigma0=st.floats(0.05, 1.0),
    beta=st.floats(0.0, 2.0),
    rho=st.floats(-1.0, 1.0),
    eta=st.floats(-5.0, 5.0),
)
def test_smile_expansion_identities(sigma0, beta, rho, eta):
    e = smile_expansion(_params(sigma0=sigma0, beta_tilde0=beta, rho0=rho, eta0=eta))
    assert e.iv_level == sigma0
    assert e.iv_skew == e.theta3 / 6.0
    assert e.iv_convexity == pytest.approx(
        e.theta4 / (12.0 * sigma0) - e.theta3**2 / (6.0 * sigma0), rel=1e-12, abs=1e-12
    )


def test_zero_correlation_kills_skew():
    assert smile_expansion(_params(rho0=0.0)).iv_skew == 0.0


def test_bs_limit_is_flat():
    e = smile_expansion(_params(beta_tilde0=0.0, eta0=0.0))
    for x in (-0.05, -0.01, 0.0, 0.01, 0.05):
        assert e.iv_level + e.iv_skew * x + 0.5 * e.iv_convexity * x * x == 0.2


@given(
    v0=st.floats(1e-4, 1.0),
    zeta=st.floats(0.01, 3.0),
    rho=st.floats(-1.0, 1.0),
)
def test_affine_specialization_matches_hand_coded_skew(v0, zeta, rho):
    # beta_tilde0 = zeta/2, rho0 = rho, eta0 = 0 specializes the expansion
    # to the one-factor affine model; its ATM skew must equal the
    # independently written rho*zeta/(4*sqrt(v0))
    spec = smile_expansion(
        _params(sigma0=math.sqrt(v0), beta_tilde0=zeta / 2.0, rho0=rho, eta0=0.0)
    )
    assert spec.iv_skew == pytest.approx(
        affine_small_time_skew(v0, zeta, rho), rel=1e-13, abs=1e-16
    )


def test_verify_smile_bs_limit():
    checks = verify_smile_against_pricer(
        _params(beta_tilde0=0.0, eta0=0.0), [1.0 / 52.0, 1.0 / 104.0, 1.0 / 252.0]
    )
    for c in checks:
        assert c.level_dev < 1e-6
        assert c.skew_dev < 1e-6
        # flat-smile convexity target is zero, so the deviation is pure
        # finite-difference noise amplified by 1/h^2; bounded, not tiny
        assert c.convexity_dev < 1e-4


def test_verify_smile_leverage_convergence():
    p = _params(beta_tilde0=0.5, rho0=-0.6, eta0=0.0)
    far, near = verify_smile_against_pricer(p, [1.0 / 252.0, 1.0 / 1008.0])
    assert far.skew_dev <= 0.1 * 1.0  # relative already
    assert near.skew_dev <= 0.03
    # deviations shrink as tau decreases
    assert near.level_dev < far.level_dev
    assert near.skew_dev < far.skew_dev
    assert near.convexity_dev < far.convexity_dev


def test_verify_smile_preconditions():
    with pytest.raises(ValueError, match="lambda0"):
        verify_smile_against_pricer(_params(lambda0=5.0, sigma_J=0.01), [1.0 / 104.0])
    with pytest.raises(ValueError, match="1/52"):
        verify_smile_against_pricer(_params(), [0.5])


def test_mc_cumulants_match_leading_order():
    # kappa2 ~ sigma0^2 tau, kappa3 ~ sigma0^3 theta3 tau^2,
    # kappa4 ~ sigma0^4 theta4 tau^3, each up to O(tau) relative corrections
    p = _params()
    e = smile_expansion(p)
    tau = 1.0 / 52.0
    sim = simulate_edgeworth_submodel(
        p, None, tau, SimConfig(paths=250_000, steps_per_tenor=200, rng_seed=71)
    )
    k2, k3, k4 = sample_cumulants(sim.z_continuous * p.sigma0 * math.sqrt(tau))
    assert k2 == pytest.approx(p.sigma0**2 * tau, rel=0.10)
    assert k3 == pytest.approx(p.sigma0**3 * e.theta3 * tau**2, rel=0.20)
    assert k4 == pytest.approx(p.sigma0**4 * e.theta4 * tau**3, rel=0.30)


def test_sample_cumulants_gaussian_reference():
    import numpy as np

    z = np.random.default_rng(5).standard_normal(200_000)
    k2, k3, k4 = sample_cumulants(2.0 * z + 1.0)
    assert k2 == pytest.approx(4.0, rel=0.02)
    assert abs(k3) < 0.15
    assert abs(k4) < 0.6


def test_timing_bench_structure():
    theta = _params()
    report = timing_bench(
        [("edgeworth", theta), ("edgeworth", theta)], trials=10, node_count=500
    )
    assert report.trials == 10
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.model_id == "edgeworth"
        assert row.dte0_mean > 0.0 and row.surface_mean > 0.0
        assert row.dte0_half_width >= 0.0 and row.surface_half_width >= 0.0
        assert row.surface_mean > row.dte0_mean  # 18 contracts vs 3
    a, b = report.rows
    assert max(a.surface_mean, b.surface_mean) < 5.0 * min(a.surface_mean, b.surface_mean)


def test_timing_bench_single_trial_zero_width():
    report = timing_bench([("edgeworth", _params())], trials=1, node_count=500)
    assert report.rows[0].dte0_half_width == 0.0
    assert report.rows[0].surface_half_width == 0.0
    with pytest.raises(ValueError, match="trials"):
        timing_bench([("edgeworth", _params())], trials=0)


def test_bench_tenors_fixture():
    assert len(BENCH_TENORS) == 6
    assert BENCH_TENORS[0] == pytest.approx(5.5 / (24.0 * 365.0))
    assert all(a < b for a, b in zip(BENCH_TENORS, BENCH_TENORS[1:]))
