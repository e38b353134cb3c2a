"""Release acceptance gate.

Ten end-to-end checks, each printing a single pass/fail line with its
measured margin, frozen tolerance and runtime budget.  Every expected value
is produced by an independent route (analytic reduction, brute-force
quadrature, high-path Monte Carlo, closed-form inverse) -- never by the code
under test.  Run through pytest, or directly:

    python3 tests/test_acceptance.py
"""

import dataclasses
import math
import time

import numpy as np

import oracles
from ustvol.bspp_bootstrap import (
    AtmTermStructure,
    CalendarArbitrageError,
    bspp_atm_vol,
    calibrate_shift_from_atm,
)
from ustvol.benchmarks import (
    HestonMertonParams,
    RoughHestonParams,
    heston_merton_cf,
    rough_heston_cf,
)
from ustvol.calibration import calibrate
from ustvol.cf_edgeworth import (
    Displacement,
    EdgeworthParams,
    psi_c_no_shift,
    psi_c_piecewise,
)
from ustvol.diagnostics import BENCH_TENORS, smile_expansion, timing_bench
from ustvol.fourier_pricer import (
    QuadratureConfig,
    _put_from_call,
    _surface_u_max,
    bs_price,
    price_surface,
)
from ustvol.market_data import OptionQuote, Surface, TenorSlice, log_moneyness
from ustvol.mc_oracle import (
    SimConfig,
    empirical_cf,
    simulate_benchmark,
    simulate_edgeworth_submodel,
)
from ustvol.registry import get_model, model_ids

SPOT = 100.0
GATE_TENORS = (5.5 / (24 * 365),) + tuple(k / 365 for k in range(1, 8))

# populated as the gate runs; conftest replays it after the terminal summary
# so the ten verdict lines survive pytest's output capture
VERDICTS = []


def _verdict(index, name, ok, detail, elapsed, budget):
    """Print the one-line verdict and return it for the assert message."""
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    line = (f"gate {index}/10 {name}: {status}  {detail}  "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    print(line)
    VERDICTS.append(line)
    return ok and in_time, line


def test_bs_reduction():
    # with every dynamic coefficient and the jump intensity at zero the
    # Fourier pipeline must reproduce analytic Black-Scholes prices
    t0 = time.time()
    p = EdgeworthParams(sigma0=0.2)
    worst = 0.0
    for tau in GATE_TENORS:
        cf = lambda u, _t=tau: psi_c_no_shift(u, _t, p)
        strikes = [SPOT * math.exp(m * p.sigma0 * math.sqrt(tau))
                   for m in np.linspace(-5.0, 5.0, 21)]
        u_max = _surface_u_max(lambda u, t: psi_c_no_shift(u, t, p), p.sigma0, [tau])[0][0]
        calls = oracles.checked_slice_calls(cf, p.sigma0, tau, SPOT, 0.0, strikes,
                                            QuadratureConfig(), u_max)
        for strike, got in zip(strikes, calls):
            worst = max(worst, abs(got - bs_price(SPOT, strike, tau, 0.0, p.sigma0)))
    ok, line = _verdict(1, "black-scholes reduction", worst <= 1e-4,
                        f"worst |dC| {worst:.3e} tol 1e-4", time.time() - t0, 5.0)
    assert ok, line


def test_piecewise_vs_quadrature():
    # closed-form piecewise-shift CF against brute-force quadrature of the
    # same integrand, 100 random parameter/displacement draws
    t0 = time.time()
    rng = np.random.default_rng(20)
    u = np.linspace(-50.0, 50.0, 201)
    worst = 0.0
    for _ in range(100):
        sig = rng.uniform(0.1, 0.5)
        p = EdgeworthParams(sigma0=sig, beta_tilde0=rng.uniform(0, 1.0),
                            rho0=rng.uniform(-1, 1), eta0=rng.uniform(-1, 1),
                            alpha_prime0=rng.uniform(-1, 1))
        n = rng.integers(1, 7)
        taus = tuple(float(t) for t in np.sort(rng.uniform(0.3 / 365, 7 / 365, n)))
        shifts = tuple(float(a) for a in rng.uniform(-sig / 2, sig / 2, max(n - 1, 0)))
        d = Displacement(tenors=taus, shifts=shifts)
        diff = np.abs(psi_c_piecewise(u, taus[-1], p, d)
                      - oracles.psi_c_quadrature(u, taus[-1], p, d))
        worst = max(worst, float(diff.max()))
    ok, line = _verdict(2, "piecewise vs quadrature CF", worst <= 1e-8,
                        f"sup gap {worst:.3e} tol 1e-8", time.time() - t0, 60.0)
    assert ok, line


def test_zero_shift_collapse():
    # with all shift coefficients at zero the piecewise CF must collapse to
    # the no-shift closed form identically
    t0 = time.time()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(1000):
        sig = rng.uniform(0.05, 0.6)
        p = EdgeworthParams(sigma0=sig, beta_tilde0=rng.uniform(0, 2.0),
                            rho0=rng.uniform(-1, 1), eta0=rng.uniform(-2, 2),
                            alpha_prime0=rng.uniform(-2, 2))
        n = rng.integers(1, 7)
        taus = tuple(float(t) for t in np.sort(rng.uniform(0.3 / 365, 7 / 365, n)))
        d = Displacement(tenors=taus, shifts=(0.0,) * (len(taus) - 1))
        uu = rng.uniform(-50, 50)
        worst = max(worst, abs(psi_c_piecewise(uu, taus[-1], p, d)
                               - psi_c_no_shift(uu, taus[-1], p)))
    ok, line = _verdict(3, "zero-shift collapse", worst <= 1e-13,
                        f"max gap {worst:.3e} tol 1e-13", time.time() - t0, 5.0)
    assert ok, line


def test_mc_expansion_order():
    # the CF truncation error against an exact simulator of the
    # frozen-coefficient sub-model must shrink like tau^1.5 within sampling
    # noise; assert the measured decay exponent across tenor halvings
    t0 = time.time()
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.5, rho0=-1.0)
    u = np.linspace(-5.0, 5.0, 41)
    u = u[np.abs(u) > 1e-12]
    errs = []
    for tau in (1 / 52, 1 / 104, 1 / 208):
        cfg = SimConfig(paths=10**7, steps_per_tenor=1, rng_seed=5)
        sim = simulate_edgeworth_submodel(p, None, tau, cfg, exact=True)
        emp, _ = empirical_cf(sim.z_continuous, u)
        errs.append(float(np.max(np.abs(emp - psi_c_no_shift(u, tau, p)))))
    exps = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    ok, line = _verdict(
        4, "mc expansion order", min(exps) >= 1.2,
        f"errs {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e} "
        f"exponents {exps[0]:.2f},{exps[1]:.2f} floor 1.2",
        time.time() - t0, 600.0)
    assert ok, line


def test_bootstrap_round_trip():
    # shift bootstrap: generate ATM term structures from known
    # (sigma0, shifts), recover them exactly; reject a decreasing
    # total-variance structure naming the offending tenor pair
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        sig = rng.uniform(0.05, 1.0)
        n = int(rng.integers(1, 7))
        taus = tuple(float(t) for t in np.sort(rng.uniform(0.2 / 365, 7 / 365, n)))
        shifts = tuple(float(a) for a in rng.uniform(-0.9 * sig, sig, max(n - 1, 0)))
        d = Displacement(tenors=taus, shifts=shifts)
        vols = tuple(bspp_atm_vol(t, sig, d) for t in taus)
        s_hat, a_hat = calibrate_shift_from_atm(AtmTermStructure(taus, vols))
        err = abs(s_hat - sig) + sum(abs(x - y) for x, y in zip(a_hat, shifts))
        worst = max(worst, err)

    bad = AtmTermStructure((1 / 365, 2 / 365), (0.3, 0.1))
    named = False
    try:
        calibrate_shift_from_atm(bad)
    except CalendarArbitrageError as exc:
        msg = str(exc)
        named = f"tau={1 / 365}" in msg and f"tau={2 / 365}" in msg
    ok, line = _verdict(5, "shift bootstrap round trip",
                        worst <= 1e-10 and named,
                        f"worst param err {worst:.3e} tol 1e-10, "
                        f"arbitrage pair named {named}", time.time() - t0, 5.0)
    assert ok, line


def test_smile_asymptotics():
    # finite-differenced ATM level/skew/convexity of the priced smile vs the
    # closed-form expansion coefficients at a 1/1008 tenor, and the
    # one-factor-affine specialization of the skew against an independently
    # written formula
    t0 = time.time()
    p = EdgeworthParams(sigma0=0.2, beta_tilde0=0.5, rho0=-0.6, eta0=0.15,
                        alpha_prime0=0.05)
    chk = oracles.verify_smile_against_pricer(p, [1 / 1008])[0]
    devs = (chk.level_dev, chk.skew_dev, chk.convexity_dev)

    v0, zeta, rho = 0.04, 0.5, -0.7
    spec = smile_expansion(EdgeworthParams(sigma0=math.sqrt(v0),
                                           beta_tilde0=zeta / 2.0, rho0=rho))
    indep = oracles.affine_small_time_skew(v0, zeta, rho)
    affine_gap = abs(spec.iv_skew - indep)
    ok, line = _verdict(
        6, "smile asymptotics", max(devs) <= 0.03 and affine_gap <= 1e-15 * abs(indep),
        f"fd devs {devs[0]:.1e}/{devs[1]:.1e}/{devs[2]:.1e} tol 3e-2, "
        f"affine skew gap {affine_gap:.1e}", time.time() - t0, 120.0)
    assert ok, line


def test_benchmark_reductions():
    # (a) rough CF at H=1/2 with a flat forward-variance curve against a
    #     closed-form driftless-variance Heston CF
    # (b) two-factor CF with mean reversion, vol-of-vol and jumps all off
    #     against the deterministic-variance Black-Scholes CF
    # (c) full two-factor CF with self-exciting jumps against the empirical
    #     CF of a 1e6-path Euler simulation
    t0 = time.time()
    tau = 2 / 365
    u = np.linspace(-30.0, 30.0, 121)

    rp = RoughHestonParams(hurst=0.5, nu=0.3, rho=-0.6,
                           xi_tenors=(tau,), xi_levels=(0.04,))
    gap_a = float(np.max(np.abs(rough_heston_cf(u, tau, rp)
                                - oracles.heston_k0_cf(u, tau, v0=0.04, nu=0.3,
                                                       rho=-0.6))))

    pb = HestonMertonParams(v1_0=0.03, kappa1=0.0, theta1=0.0, zeta1=0.0,
                            rho1=0.0, v2_0=0.02, factor_count=2)
    bs_cf = np.exp(-(u**2 + 1j * u) * (0.03 + 0.02) * tau / 2.0)
    gap_b = float(np.max(np.abs(heston_merton_cf(u, tau, pb) - bs_cf)))

    p2 = HestonMertonParams(v1_0=0.03, kappa1=4.0, theta1=0.04, zeta1=0.5,
                            rho1=-0.7, v2_0=0.02, kappa2=10.0, theta2=0.02,
                            zeta2=0.8, rho2=-0.5, c0=30.0, c1=200.0, mu_x=-0.02,
                            sigma_x=0.03, m_v=0.01, rho_jump=0.3, factor_count=2)
    model = get_model("heston_merton_2f")
    sig0 = model.spot_vol(p2)
    x = simulate_benchmark("heston_merton_2f", p2, tau,
                           SimConfig(paths=10**6, steps_per_tenor=200, rng_seed=11))
    z = (x + 0.5 * sig0 * sig0 * tau) / (sig0 * math.sqrt(tau))
    mc_ok = True
    ratios = []
    for uu in (1.0, 3.0, 10.0):
        emp, se = empirical_cf(z, np.array([uu]))
        cf = model.cf_standardized(np.array([uu]), tau, p2)
        ratios.append(abs(emp[0] - cf[0]) / (3.0 * se[0]))
        mc_ok = mc_ok and ratios[-1] <= 1.0
    ok, line = _verdict(
        7, "benchmark reductions",
        gap_a <= 1e-6 and gap_b <= 1e-14 and mc_ok,
        f"rough-vs-heston sup {gap_a:.1e} tol 1e-6, degenerate-bs sup "
        f"{gap_b:.1e} tol 1e-14, 2f mc gap/3se "
        f"{ratios[0]:.2f}/{ratios[1]:.2f}/{ratios[2]:.2f} cap 1",
        time.time() - t0, 600.0)
    assert ok, line


CAL_TRUTH = EdgeworthParams(sigma0=0.2, beta_tilde0=0.6, rho0=-0.6, eta0=0.2,
                           alpha_prime0=0.1, lambda0=30.0, mu_J=-0.01,
                           sigma_J=0.02)
CAL_SHIFTS = (0.01, 0.02, -0.005, 0.005, 0.0)


def _synthetic_surface(quad):
    """Noise-free 6-tenor, 20-strike surface priced from CAL_TRUTH."""
    model = get_model("edgeworth_pp")
    theta = (CAL_TRUTH, Displacement(tenors=BENCH_TENORS, shifts=CAL_SHIFTS))
    slices = []
    for tau in BENCH_TENORS:
        strikes = SPOT * np.exp(np.linspace(-2.5, 2.0, 20)
                                * CAL_TRUTH.sigma0 * math.sqrt(tau))
        atm_vol = price_surface([(SPOT, tau)], model, theta, SPOT, quad=quad)[0]["iv"]
        recs = price_surface([(float(k), tau) for k in strikes], model, theta,
                             SPOT, quad=quad)
        quotes, mny = [], []
        for rec in recs:
            k = rec["strike"]
            is_call = k >= SPOT
            # out-of-the-money side of each strike, puts through parity
            price = rec["call"] if is_call else rec["call"] - (SPOT - k)
            quotes.append(OptionQuote(k, tau, price, price, is_call))
            mny.append(log_moneyness(k, SPOT, atm_vol, tau))
        slices.append(TenorSlice(tau, SPOT, atm_vol, tuple(quotes), tuple(mny)))
    return Surface(SPOT, tuple(slices))


def test_calibration_round_trip():
    t0 = time.time()
    quad = QuadratureConfig(node_count=2048)
    surf = _synthetic_surface(quad)
    res = calibrate(surf, "edgeworth_pp", quad=quad, budget=12000, restarts=0,
                    rng_seed=0)
    sigma0_rel = abs(res.params[0] - CAL_TRUTH.sigma0) / CAL_TRUTH.sigma0

    # vector-size contract for the eight comparison models at n = 6 tenors;
    # bs_pp is the bootstrap device and is counted separately
    n = len(BENCH_TENORS)
    expected = {"edgeworth": 8, "edgeworth_pp": 7 + n,
                "heston_merton_1f": 8, "heston_merton_1f_pp": 13,
                "heston_merton_2f": 17, "heston_merton_2f_pp": 22,
                "rough_heston_pp": 3 + n, "rough_heston_merton_pp": 12}
    counts_ok = all(get_model(mid).param_count(n) == want
                    for mid, want in expected.items())
    ok, line = _verdict(
        8, "synthetic calibration round trip",
        res.rmse <= 0.05 and sigma0_rel <= 0.05 and counts_ok,
        f"rmse {res.rmse:.4f} tol 0.05, sigma0 rel err {sigma0_rel:.1e} "
        f"tol 5e-2, param counts {'ok' if counts_ok else 'BAD'}",
        time.time() - t0, 600.0)
    assert ok, line


def test_speed_ratio():
    # 3 contracts x 6 tenors, 100 trials, identical Fourier node counts:
    # the expansion model must price the surface at least 10x faster than
    # the two-factor affine benchmark and 3x faster than the rough one
    t0 = time.time()
    entries = []
    for mid in ("edgeworth_pp", "heston_merton_2f", "rough_heston_pp"):
        m = get_model(mid)
        entries.append((mid, m.unpack(m.default_start(BENCH_TENORS),
                                      tenors=BENCH_TENORS)))
    rep = timing_bench(entries, trials=100, node_count=2000)
    epp, hm2, rgh = rep.rows
    ok, line = _verdict(
        9, "surface pricing speed ratio",
        epp.surface_mean <= hm2.surface_mean / 10.0
        and epp.surface_mean <= rgh.surface_mean / 3.0,
        f"surface means {epp.surface_mean * 1e3:.1f}/{hm2.surface_mean * 1e3:.0f}/"
        f"{rgh.surface_mean * 1e3:.0f} ms, ratios "
        f"{hm2.surface_mean / epp.surface_mean:.0f}x (floor 10x) "
        f"{rgh.surface_mean / epp.surface_mean:.0f}x (floor 3x)",
        time.time() - t0, 900.0)
    assert ok, line


def test_martingale_and_parity():
    t0 = time.time()
    # (a) terminal growth E[e^X] = 1 within 3 MC standard errors for every
    #     simulable model; the rough entries use a milder vol-of-vol so the
    #     truncation scheme stays inside its negative-variance guard
    tau = 2 / 365
    mart_ok, mart_worst = True, 0.0
    for mid in model_ids():
        m = get_model(mid)
        theta = m.unpack(m.default_start(BENCH_TENORS), tenors=BENCH_TENORS)
        paths = 100_000 if mid.startswith("rough") else 200_000
        if mid.startswith("rough"):
            theta = dataclasses.replace(theta, nu=0.15)
        x = simulate_benchmark(mid, theta, tau, SimConfig(paths=paths, rng_seed=3))
        g = np.exp(x)
        ratio = abs(g.mean() - 1.0) / (3.0 * g.std(ddof=1) / math.sqrt(g.size))
        mart_worst = max(mart_worst, ratio)
        mart_ok = mart_ok and ratio <= 1.0

    # (b) parity and call shape on every priced grid
    quad = QuadratureConfig(node_count=2000)
    rate = 0.03
    parity_worst, mono_worst, convex_worst = 0.0, -np.inf, np.inf
    for mid in ("edgeworth_pp", "heston_merton_2f", "rough_heston_merton_pp"):
        m = get_model(mid)
        theta = m.unpack(m.default_start(BENCH_TENORS), tenors=BENCH_TENORS)
        sig0 = m.spot_vol(theta)
        tenors = (BENCH_TENORS[0], 2 / 365)
        u_max = _surface_u_max(lambda u, t: m.cf_standardized(u, t, theta), sig0, tenors)[0]
        for tg, top in zip(tenors, u_max):
            strikes = np.linspace(97.0, 103.0, 25)
            cf = lambda u, _t=tg: m.cf_standardized(u, _t, theta)
            calls = oracles.checked_slice_calls(cf, sig0, tg, SPOT, rate, strikes, quad, top)
            disc_k = strikes * math.exp(-rate * tg)
            puts = _put_from_call(calls, SPOT, disc_k)
            parity_worst = max(parity_worst,
                               float(np.abs(calls - puts - SPOT + disc_k).max()))
            mono_worst = max(mono_worst, float(np.diff(calls).max()))
            convex_worst = min(convex_worst, float(np.diff(calls, 2).min()))
    ok, line = _verdict(
        10, "martingale and parity suite",
        mart_ok and parity_worst <= 1e-10 * SPOT
        and mono_worst <= 1e-10 and convex_worst >= -1e-10,
        f"worst growth gap/3se {mart_worst:.2f} cap 1, parity "
        f"{parity_worst:.1e} tol 1e-8, max dC/dK {mono_worst:.1e}, "
        f"min d2C/dK2 {convex_worst:.1e}",
        time.time() - t0, 600.0)
    assert ok, line


if __name__ == "__main__":
    failures = 0
    for fn in (test_bs_reduction, test_piecewise_vs_quadrature,
               test_zero_shift_collapse, test_mc_expansion_order,
               test_bootstrap_round_trip, test_smile_asymptotics,
               test_benchmark_reductions, test_calibration_round_trip,
               test_speed_ratio, test_martingale_and_parity):
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
