"""Path-simulation checks: exact terminal laws, scheme cross-validation,
martingale preservation, reproducibility, and sample I/O."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import simulate_affine_direct, simulate_rough_direct
from ustvol.benchmarks import (
    HestonMertonParams,
    RoughHestonParams,
    heston_merton_cf,
    rough_heston_cf,
)
from ustvol.bspp_bootstrap import shift_weighted_variance
from ustvol import mc_oracle
from ustvol.cf_edgeworth import Displacement, EdgeworthParams
from ustvol.mc_oracle import (
    SimConfig,
    empirical_cf,
    read_samples_bin,
    simulate_benchmark,
    simulate_edgeworth_submodel,
    write_samples_bin,
)

TAU = 2.0 / 365.0


def _no_jump(**kw) -> EdgeworthParams:
    base = dict(sigma0=0.2, beta_tilde0=0.0, rho0=-1.0, eta0=0.0,
                alpha_prime0=0.0, lambda0=0.0, mu_J=0.0, sigma_J=0.0)
    base.update(kw)
    return EdgeworthParams(**base)


# ---------------------------------------------------------------------------
# sub-model terminal laws
# ---------------------------------------------------------------------------

def test_pure_gaussian_standardized_law():
    # with every vol-of-vol loading off, Z is standard normal exactly
    n = 400_000
    sim = simulate_edgeworth_submodel(
        _no_jump(), None, TAU, SimConfig(paths=n, rng_seed=11), exact=True
    )
    z = sim.z_continuous
    assert abs(z.mean()) < 3.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)
    vals, se = empirical_cf(z, np.array([-1.7, 0.6, 2.3]))
    target = np.exp(-0.5 * np.array([-1.7, 0.6, 2.3]) ** 2)
    assert np.all(np.abs(vals - target) < 3.0 * se + 1e-12)
    assert sim.negative_vol_fraction == 0.0


def test_deterministic_shift_variance_euler():
    # piecewise-constant displacement only: Var(Z) = V(tau)/tau with V the
    # shift-weighted variance; the Euler grid picks up the off-grid
    # breakpoint so there is no discretization error at all
    disp = Displacement(tenors=(0.29 * TAU, TAU), shifts=(0.07,))
    p = _no_jump()
    n = 300_000
    sim = simulate_edgeworth_submodel(
        p, disp, TAU, SimConfig(paths=n, steps_per_tenor=150, rng_seed=7)
    )
    target = shift_weighted_variance(p.sigma0, disp, TAU) / TAU
    se = target * math.sqrt(2.0 / n)
    assert abs(sim.z_continuous.var() - target) < 3.0 * se
    assert sim.negative_vol_fraction == 0.0


def test_exact_vs_euler_consistency():
    # same displaced model with rho0 = -1: the discretization-free sampler
    # and the Euler scheme must agree in law
    p = _no_jump(beta_tilde0=0.4)
    disp = Displacement(tenors=(1.0 / 104.0, 1.0 / 52.0), shifts=(0.04,))
    tau = 1.0 / 52.0
    n = 300_000
    a = simulate_edgeworth_submodel(
        p, disp, tau, SimConfig(paths=n, rng_seed=1), exact=True
    ).z_continuous
    b = simulate_edgeworth_submodel(
        p, disp, tau, SimConfig(paths=n, steps_per_tenor=300, rng_seed=2)
    ).z_continuous
    u = np.array([0.5, 1.5, 3.0])
    va, sa = empirical_cf(a, u)
    vb, sb = empirical_cf(b, u)
    assert np.all(np.abs(va - vb) < 3.0 * np.sqrt(sa**2 + sb**2) + 1e-4)


def test_jump_leg_martingale():
    # compound Poisson jumps with the raw-unit compensator keep e^X mean one
    p = _no_jump(lambda0=80.0, mu_J=-0.01, sigma_J=0.02)
    n = 400_000
    sim = simulate_edgeworth_submodel(
        p, None, 1.0 / 52.0, SimConfig(paths=n, rng_seed=3), exact=True
    )
    growth = np.exp(sim.x_total)
    assert abs(growth.mean() - 1.0) < 3.0 * growth.std() / math.sqrt(n)


def test_submodel_negative_vol_reported_not_fatal():
    # aggressive vol-of-vol drives sigma negative on many paths; the
    # sub-model keeps the signed vol and reports the fraction
    p = _no_jump(sigma0=0.05, beta_tilde0=5.0, rho0=-0.7)
    sim = simulate_edgeworth_submodel(
        p, None, 1.0 / 12.0, SimConfig(paths=5_000, steps_per_tenor=50, rng_seed=5)
    )
    assert 0.0 < sim.negative_vol_fraction <= 1.0
    assert np.all(np.isfinite(sim.z_continuous))


def test_exact_requires_collapsed_dynamics():
    cfg = SimConfig(paths=10)
    with pytest.raises(ValueError, match="exact"):
        simulate_edgeworth_submodel(
            _no_jump(beta_tilde0=0.3, rho0=-0.5), None, TAU, cfg, exact=True
        )
    with pytest.raises(ValueError, match="exact"):
        simulate_edgeworth_submodel(
            _no_jump(eta0=0.1), None, TAU, cfg, exact=True
        )


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

_AFFINE_1F = HestonMertonParams(
    v1_0=0.04, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
    rho_jump=0.2, mu_x=-0.02, sigma_x=0.03, c0=30.0, c1=50.0,
)
_AFFINE_2F = HestonMertonParams(
    v1_0=0.03, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
    v2_0=0.02, kappa2=10.0, theta2=0.02, zeta2=0.8, rho2=-0.5,
    rho_jump=0.3, mu_x=-0.02, sigma_x=0.03, c0=10.0, c1=50.0, c2=30.0,
    factor_count=2,
)
_SHIFTS = Displacement(tenors=(TAU / 2.0, TAU), shifts=(0.01,))
_AFFINE = {
    "heston_merton_1f": _AFFINE_1F,
    "heston_merton_1f_pp": dataclasses.replace(_AFFINE_1F, shifts=_SHIFTS),
    "heston_merton_2f": _AFFINE_2F,
    "heston_merton_2f_pp": dataclasses.replace(_AFFINE_2F, shifts=_SHIFTS),
}
_ROUGH = RoughHestonParams(hurst=0.1, nu=0.15, rho=-0.6,
                           xi_tenors=(TAU / 2.0, TAU), xi_levels=(0.04, 0.05),
                           lambda_j=40.0, mu_j=-0.01, sigma_j=0.02)


def test_rng_reproducibility_and_chunk_stability(monkeypatch):
    monkeypatch.setattr(mc_oracle, "_CHUNK_PATHS", 400)
    monkeypatch.setattr(mc_oracle, "_ROUGH_CHUNK_CAP", 200)
    simulators = [
        lambda cfg: simulate_edgeworth_submodel(
            _no_jump(beta_tilde0=0.4), None, TAU, cfg).z_continuous,
        lambda cfg: simulate_benchmark("heston_merton_2f", _AFFINE_2F, TAU, cfg),
        lambda cfg: simulate_benchmark("rough_heston_merton_pp", _ROUGH, TAU, cfg),
    ]
    for simulate in simulators:
        # 40 steps cross a block edge of the rough history sum
        cfg = SimConfig(paths=800, steps_per_tenor=40, rng_seed=42)
        a = simulate(cfg)
        assert np.array_equal(a, simulate(cfg))
        assert not np.array_equal(a, simulate(dataclasses.replace(cfg, rng_seed=43)))
        # growing the path count appends chunks without disturbing earlier draws
        grown = simulate(dataclasses.replace(cfg, paths=1_300))
        assert np.array_equal(grown[:800], a)


@pytest.mark.parametrize("model_id", sorted(_AFFINE))
@pytest.mark.parametrize("m_v", [0.0, 0.02])
def test_affine_matches_direct_oracle_exactly(model_id, m_v, monkeypatch):
    # jump draws made on the jumping paths only leave every output bit
    # unchanged; three chunks, so later chunks' streams are checked too
    monkeypatch.setattr(mc_oracle, "_CHUNK_PATHS", 700)
    p = dataclasses.replace(_AFFINE[model_id], m_v=m_v)
    for antithetic in (False, True):
        cfg = SimConfig(paths=1_500, steps_per_tenor=30, rng_seed=71,
                        antithetic=antithetic)
        x = simulate_benchmark(model_id, p, TAU, cfg)
        assert np.array_equal(x, simulate_affine_direct(p, TAU, cfg))


@pytest.mark.parametrize("hurst", [0.1, 0.5])
def test_rough_blocked_history_matches_direct_oracle(hurst):
    # step counts on both sides of each block edge, and one that is not a
    # multiple of the block: only the rounding of the history sum moves
    block = mc_oracle._ROUGH_BLOCK
    p = dataclasses.replace(_ROUGH, hurst=hurst)
    for steps in (1, block - 1, block, block + 1, 2 * block + 5):
        cfg = SimConfig(paths=400, steps_per_tenor=steps, rng_seed=79)
        x = simulate_benchmark("rough_heston_merton_pp", p, TAU, cfg)
        direct = simulate_rough_direct(p, TAU, cfg)
        assert np.max(np.abs(x - direct)) <= 1e-15, steps


def test_antithetic_pairs_cancel_exactly():
    cfg = SimConfig(paths=10, rng_seed=9, antithetic=True)
    z = simulate_edgeworth_submodel(_no_jump(), None, TAU, cfg, exact=True).z_continuous
    assert np.array_equal(z[:5], -z[5:])
    assert abs(z.mean()) < 1e-15


def test_antithetic_reduces_variance_of_growth_estimator():
    # on the Gaussian sub-model the mean of e^X over a mirrored pair has a
    # much smaller variance than a single draw (monotone payoff)
    n = 20_000
    p = _no_jump()
    anti = simulate_edgeworth_submodel(
        p, None, TAU, SimConfig(paths=n, rng_seed=9, antithetic=True), exact=True
    ).x_total
    iid = simulate_edgeworth_submodel(
        p, None, TAU, SimConfig(paths=n, rng_seed=9), exact=True
    ).x_total
    half = n // 2
    pair_means = 0.5 * (np.exp(anti[:half]) + np.exp(anti[half:]))
    assert abs(pair_means.mean() - 1.0) < 3.0 * pair_means.std() / math.sqrt(half)
    assert pair_means.var() < 0.5 * np.exp(iid).var()


# ---------------------------------------------------------------------------
# benchmark simulators
# ---------------------------------------------------------------------------

def test_bspp_exact_gaussian_law():
    sigma0 = 0.22
    disp = Displacement(tenors=(TAU / 2.0, TAU), shifts=(-0.05,))
    n = 400_000
    x = simulate_benchmark("bs_pp", (sigma0, disp), TAU, SimConfig(paths=n, rng_seed=13))
    var = sigma0**2 * shift_weighted_variance(sigma0, disp, TAU)
    assert abs(x.mean() + 0.5 * var) < 3.0 * math.sqrt(var / n)
    assert abs(x.var() - var) < 3.0 * var * math.sqrt(2.0 / n)
    growth = np.exp(x)
    assert abs(growth.mean() - 1.0) < 3.0 * growth.std() / math.sqrt(n)


def test_affine_deterministic_vol_reduces_to_bs():
    # kappa = zeta = 0 and no jumps: variance is frozen and X is Gaussian
    p = HestonMertonParams(v1_0=0.0484, kappa1=0.0, theta1=0.0484,
                           zeta1=0.0, rho1=0.0)
    n = 200_000
    x = simulate_benchmark(
        "heston_merton_1f", p, TAU, SimConfig(paths=n, steps_per_tenor=50, rng_seed=17)
    )
    var = 0.0484 * TAU
    assert abs(x.var() - var) < 3.0 * var * math.sqrt(2.0 / n)
    assert abs(x.mean() + 0.5 * var) < 3.0 * math.sqrt(var / n)


def test_affine_2f_martingale_with_jumps_and_displacement():
    p = HestonMertonParams(
        v1_0=0.03, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
        v2_0=0.02, kappa2=10.0, theta2=0.02, zeta2=0.8, rho2=-0.5,
        rho_jump=0.3, mu_x=-0.02, sigma_x=0.03, m_v=0.02,
        c0=10.0, c1=50.0, c2=30.0, factor_count=2,
        shifts=Displacement(tenors=(TAU / 2.0, TAU), shifts=(0.01,)),
    )
    n = 150_000
    x = simulate_benchmark(
        "heston_merton_2f_pp", p, TAU,
        SimConfig(paths=n, steps_per_tenor=100, rng_seed=19),
    )
    growth = np.exp(x)
    assert abs(growth.mean() - 1.0) < 3.0 * growth.std() / math.sqrt(n)


def test_affine_empirical_cf_matches_analytic():
    p = HestonMertonParams(
        v1_0=0.04, kappa1=4.0, theta1=0.04, zeta1=0.5, rho1=-0.7,
        rho_jump=0.2, mu_x=-0.02, sigma_x=0.03, m_v=0.01, c0=30.0,
    )
    n = 120_000
    x = simulate_benchmark(
        "heston_merton_1f", p, TAU,
        SimConfig(paths=n, steps_per_tenor=100, rng_seed=23),
    )
    u = np.array([1.0, 3.0, 10.0])
    vals, se = empirical_cf(x, u)
    target = heston_merton_cf(u, TAU, p)
    assert np.all(np.abs(vals - target) < 4.0 * se)


def test_rough_h_half_matches_classical_euler():
    # at H = 1/2 the kernel scheme degenerates to classical Euler for a
    # kappa = 0 square-root model, so an independent Euler run (different
    # seed, different simulator) must be statistically indistinguishable
    rough = RoughHestonParams(hurst=0.5, nu=0.3, rho=-0.65,
                              xi_tenors=(1.0,), xi_levels=(0.04,))
    affine = HestonMertonParams(v1_0=0.04, kappa1=0.0, theta1=0.04,
                                zeta1=0.3, rho1=-0.65)
    n = 80_000
    a = simulate_benchmark(
        "rough_heston_pp", rough, TAU,
        SimConfig(paths=n, steps_per_tenor=100, rng_seed=29),
    )
    b = simulate_benchmark(
        "heston_merton_1f", affine, TAU,
        SimConfig(paths=n, steps_per_tenor=100, rng_seed=31),
    )
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_rough_martingale_with_jumps():
    p = RoughHestonParams(hurst=0.25, nu=0.3, rho=-0.6,
                          xi_tenors=(TAU / 2.0, TAU), xi_levels=(0.04, 0.05),
                          lambda_j=40.0, mu_j=-0.01, sigma_j=0.02)
    n = 100_000
    x = simulate_benchmark(
        "rough_heston_merton_pp", p, TAU,
        SimConfig(paths=n, steps_per_tenor=100, rng_seed=37),
    )
    growth = np.exp(x)
    assert abs(growth.mean() - 1.0) < 3.0 * growth.std() / math.sqrt(n)


def test_rough_empirical_cf_matches_analytic():
    # the fractional-Riccati CF and the kernel path scheme discretize the
    # same model in unrelated ways; agreement validates both
    p = RoughHestonParams(hurst=0.3, nu=0.35, rho=-0.6,
                          xi_tenors=(1.0,), xi_levels=(0.04,))
    n = 100_000
    x = simulate_benchmark(
        "rough_heston_pp", p, TAU,
        SimConfig(paths=n, steps_per_tenor=150, rng_seed=41),
    )
    u = np.array([2.0, 8.0])
    vals, se = empirical_cf(x, u)
    target = rough_heston_cf(u, TAU, p)
    assert np.all(np.abs(vals - target) < 4.0 * se)


def test_negative_variance_guard_trips():
    affine = HestonMertonParams(v1_0=4e-4, kappa1=0.5, theta1=4e-4,
                                zeta1=1.5, rho1=0.0)
    with pytest.raises(RuntimeError, match="negative-variance"):
        simulate_benchmark(
            "heston_merton_1f", affine, 0.25,
            SimConfig(paths=2_000, steps_per_tenor=30, rng_seed=43),
        )
    rough = RoughHestonParams(hurst=0.3, nu=2.0, rho=0.0,
                              xi_tenors=(1.0,), xi_levels=(1e-4,))
    with pytest.raises(RuntimeError, match="negative-variance"):
        simulate_benchmark(
            "rough_heston_pp", rough, 0.25,
            SimConfig(paths=2_000, steps_per_tenor=30, rng_seed=47),
        )


def test_unknown_model_and_bad_config_rejected():
    with pytest.raises(ValueError, match="no simulator"):
        simulate_benchmark("garch", None, TAU, SimConfig(paths=10))
    for bad in (dict(paths=0), dict(paths=10, steps_per_tenor=0)):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    with pytest.raises(ValueError, match="tau"):
        simulate_edgeworth_submodel(_no_jump(), None, 0.0, SimConfig(paths=10))


# ---------------------------------------------------------------------------
# empirical CF and sample I/O
# ---------------------------------------------------------------------------

def test_empirical_cf_basics():
    vals, se = empirical_cf(np.zeros(100), np.array([0.0, 1.0, 5.0]))
    assert np.allclose(vals, 1.0)
    assert np.allclose(se, 0.0)
    v, s = empirical_cf(np.array([1.0, -1.0]), 2.5)
    assert isinstance(v, complex) and isinstance(s, float)
    assert abs(v - math.cos(2.5)) < 1e-14


def test_empirical_cf_uniform_grid_matches_direct():
    rng = np.random.default_rng(53)
    z = rng.standard_normal(1_000)
    u = np.linspace(-4.0, 4.0, 64)
    vals, _ = empirical_cf(z, u)
    direct = np.exp(1j * u[:, None] * z[None, :]).mean(axis=1)
    assert np.max(np.abs(vals - direct)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    u0=st.floats(-5.0, 5.0),
    du=st.floats(0.01, 0.5),
    n=st.integers(3, 40),
)
def test_empirical_cf_recurrence_property(u0, du, n):
    z = np.random.default_rng(59).standard_normal(256)
    u = u0 + du * np.arange(n)
    vals, _ = empirical_cf(z, u)
    direct = np.exp(1j * u[:, None] * z[None, :]).mean(axis=1)
    assert np.max(np.abs(vals - direct)) < 1e-9


def test_samples_bin_round_trip(tmp_path):
    for arr in (
        np.array([]),
        np.array([0.0, -0.0, 1.5, -2.25e-300, 3.7e300, np.inf, -np.inf, np.nan]),
        np.random.default_rng(61).standard_normal(1_000),
    ):
        path = tmp_path / "samples.bin"
        write_samples_bin(path, arr)
        back = read_samples_bin(path)
        assert back.tobytes() == np.asarray(arr, dtype="<f8").tobytes()


def test_read_samples_bin_rejects_corruption(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x01\x02\x03")
    with pytest.raises(ValueError, match="truncated"):
        read_samples_bin(short)
    lying = tmp_path / "lying.bin"
    write_samples_bin(lying, np.arange(4.0))
    lying.write_bytes(lying.read_bytes()[:-8])
    with pytest.raises(ValueError, match="promises"):
        read_samples_bin(lying)
