"""Independent oracle computations whose outputs are frozen into the tests.

Every non-trivial expected value in the test suite is produced here by a
route independent of the library implementation (arbitrary-precision
arithmetic, brute-force Monte Carlo, classical closed forms, or dense
quadrature written from scratch).  Run directly to reprint all frozen values:

    python3 tests/oracles.py
"""

from __future__ import annotations

import math
from math import gamma

import mpmath as mp
import numpy as np

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# Gaussian-expansion CF, no displacement: arbitrary-precision evaluation
# ---------------------------------------------------------------------------

def cf_expansion_highprec(u, tau, sigma0, beta_tilde0, rho0, eta0, alpha_prime0):
    """50-digit evaluation of the no-shift second-order CF polynomial."""
    u = mp.mpf(u)
    tau = mp.mpf(tau)
    s0 = mp.mpf(sigma0)
    bt = mp.mpf(beta_tilde0)
    rho = mp.mpf(rho0)
    eta = mp.mpf(eta0)
    ap = mp.mpf(alpha_prime0)
    u2 = u * u
    bracket = (
        1
        - mp.mpc(0, 1) * u2 * u * (bt * rho / (2 * s0)) * mp.sqrt(tau)
        - u2 * (ap / s0 + bt**2 / (4 * s0**2)) * tau
        + (bt**2 / (24 * s0**2)) * u2 * (4 * u2 - rho**2 * u2 * (3 * u2 - 8)) * tau
        + (eta / (6 * s0)) * u2 * u2 * tau
    )
    return mp.e ** (-u2 / 2) * bracket


# ---------------------------------------------------------------------------
# Compensated compound-Poisson jump CF: brute-force Monte Carlo
# ---------------------------------------------------------------------------

def jump_cf_mc(u, tau, sigma0, lam, mu_j, sigma_j, n_draws=1_000_000, seed=20240811):
    """MC estimate of E[e^{iu * J/(sigma0 sqrt(tau))}] * e^{-iu*lam*tau*mu_bar}.

    J is a compound Poisson sum of N(mu_j, sigma_j^2) sizes over [0, tau];
    mu_bar is the single-jump exponential-moment compensator E[e^x] - 1
    rescaled to standardized units (divide by sigma0*sqrt(tau)), which is the
    drift that keeps e^{X} a martingale.  Returns (value, se).
    """
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam * tau, n_draws)
    totals = mu_j * counts + sigma_j * np.sqrt(counts) * rng.standard_normal(n_draws)
    st = sigma0 * math.sqrt(tau)
    phases = np.exp(1j * u * totals / st)
    mu_bar = math.expm1(mu_j + 0.5 * sigma_j**2) / st
    est = phases.mean() * np.exp(-1j * u * lam * tau * mu_bar)
    se = phases.std(ddof=1) / math.sqrt(n_draws)
    return complex(est), float(se)


# ---------------------------------------------------------------------------
# Classical Heston: closed-form Riccati (Albrecher et al. 2007)
# ---------------------------------------------------------------------------

def heston_k0_cf(u, tau, v0, nu, rho, kappa=0.0, theta=0.0):
    """Log-return CF of classical Heston at zero rate, closed form.

    B' = P + (Q - kappa) B + R B^2, B(0) = 0, P = -(u^2+iu)/2, Q = iu rho nu,
    R = nu^2/2, and A' = kappa theta B.  In the form of Albrecher, Mayer,
    Schoutens & Tistaert (2007, "The little Heston trap"), which stays on the
    principal branch of the logarithm: B(t) = r_minus (1 - e^{-dt}) /
    (1 - g e^{-dt}) and A(t) = kappa theta (r_minus t - log((1 - g e^{-dt}) /
    (1 - g)) / R), with d = sqrt((Q - kappa)^2 - 4 R P),
    r_pm = (kappa - Q ± d)/(2R), g = r_minus/r_plus.  CF = exp(A(tau) +
    v0 B(tau)); at kappa = 0 (the default) A vanishes and theta is irrelevant.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    zero = u == 0.0
    u_safe = np.where(zero, 1.0, u)
    P = -0.5 * (u_safe * u_safe + 1j * u_safe)
    Q = 1j * u_safe * rho * nu - kappa
    R = 0.5 * nu * nu
    d = np.sqrt(Q * Q - 4.0 * R * P)
    r_minus = (-Q - d) / (2.0 * R)
    r_plus = (-Q + d) / (2.0 * R)
    g = r_minus / r_plus
    e = np.exp(-d * tau)
    B = r_minus * (1.0 - e) / (1.0 - g * e)
    A = kappa * theta * (r_minus * tau - np.log((1.0 - g * e) / (1.0 - g)) / R)
    return np.where(zero, 1.0 + 0.0j, np.exp(A + v0 * B))


def heston_k0_cf_ode(u_scalar, tau, v0, nu, rho):
    """Same CF by direct numerical integration (independent validation route)."""
    from scipy.integrate import solve_ivp

    P = -0.5 * (u_scalar * u_scalar + 1j * u_scalar)
    Q = 1j * u_scalar * rho * nu
    R = 0.5 * nu * nu
    sol = solve_ivp(
        lambda t, y: np.array([P + Q * y[0] + R * y[0] * y[0]]),
        (0.0, tau),
        np.array([0.0 + 0.0j]),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    return complex(np.exp(v0 * sol.y[0, -1]))


# ---------------------------------------------------------------------------
# Rough Heston CF on the whole frequency grid at once: the fractional Adams
# solver with complex history products and a whole-grid cumulative trapezoid
# (the library solves the same scheme in cache-sized frequency blocks)
# ---------------------------------------------------------------------------

def _fractional_adams(outer, linear, quad_coef, alpha: float, tau: float, n_steps: int):
    """Solve D^alpha psi = P + L psi + Q psi^2, psi(0) = 0, vectorized over u.

    Returns F values f_j = F(u, psi(s_j)) on the uniform grid s_j = j h,
    which is all the CF integral needs.  P=outer, L=linear, Q=quad_coef are
    arrays over the frequency grid.
    """
    h = tau / n_steps
    n_u = outer.shape[0]
    f_hist = np.empty((n_steps + 1, n_u), dtype=np.complex128)
    f_hist[0] = outer  # psi(0) = 0

    m = np.arange(n_steps + 1, dtype=float)
    b_w = (m + 1.0) ** alpha - m ** alpha                    # predictor weights
    c_w = (m + 2.0) ** (alpha + 1.0) + m ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0)
    pred_scale = h**alpha / gamma(alpha + 1.0)
    corr_scale = h**alpha / gamma(alpha + 2.0)

    def f_of(psi):
        return outer + linear * psi + quad_coef * psi * psi

    # overflow in the intermediate arithmetic is caught by the finiteness
    # guard below and reported as divergence; silence the raw numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            # predictor: weights b_{n-j} for j = 0..n
            psi_p = pred_scale * (b_w[n::-1] @ f_hist[: n + 1])
            # corrector history: j = 0 gets the boundary weight, j >= 1 get c_{n-j}
            w0 = n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha
            hist = w0 * f_hist[0]
            if n >= 1:
                hist = hist + c_w[n - 1 :: -1] @ f_hist[1 : n + 1]
            psi_next = corr_scale * (f_of(psi_p) + hist)
            if not np.all(np.isfinite(psi_next)):
                raise RuntimeError(
                    f"fractional Riccati solver diverged at step {n + 1}/{n_steps}"
                )
            f_hist[n + 1] = f_of(psi_next)
    return f_hist


def _xi_weighted_integral(f_hist, params: RoughHestonParams, tau: float):
    """∫₀^τ F(u, psi(s)) xi0(tau - s) ds, exact per xi segment.

    Uses the cumulative trapezoid of F on the solver grid with linear
    interpolation at segment boundaries (F is continuous; xi0 is the
    piecewise-constant factor).
    """
    n_steps = f_hist.shape[0] - 1
    h = tau / n_steps
    cum = np.empty_like(f_hist)
    cum[0] = 0.0
    # one row at a time: whole-grid temporaries cost more than the arithmetic
    for i in range(n_steps):
        np.add(cum[i], 0.5 * (f_hist[i + 1] + f_hist[i]) * h, out=cum[i + 1])

    def cum_at(s: float):
        x = min(max(s / h, 0.0), float(n_steps))
        j = min(int(x), n_steps - 1)
        frac = x - j
        return cum[j] + frac * (cum[j + 1] - cum[j])

    # xi segments on [0, tau] in forward time t, then mapped to s = tau - t
    bounds = [t for t in params.xi_tenors if t < tau] + [tau]
    levels = list(params.xi_levels[: len(bounds)])
    if len(levels) < len(bounds):
        levels += [params.xi_levels[-1]] * (len(bounds) - len(levels))
    total = np.zeros(f_hist.shape[1], dtype=np.complex128)
    t_lo = 0.0
    for t_hi, lev in zip(bounds, levels):
        total += lev * (cum_at(tau - t_lo) - cum_at(tau - t_hi))
        t_lo = t_hi
    return total


def rough_heston_cf_unblocked(u, tau, params, n_steps=256):
    """Rough Heston raw log-return CF, whole grid in one Adams solve."""
    uu = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    p = params
    alpha = p.hurst + 0.5
    outer = -0.5 * (uu * uu + 1j * uu)
    linear = 1j * uu * p.rho * p.nu
    quad_coef = 0.5 * p.nu * p.nu * np.ones_like(uu)
    f_hist = _fractional_adams(outer, linear, quad_coef, alpha, tau, n_steps)
    exponent = _xi_weighted_integral(f_hist, p, tau)
    if p.lambda_j > 0.0:
        kbar = math.exp(p.mu_j + 0.5 * p.sigma_j**2) - 1.0
        exponent = exponent + tau * p.lambda_j * (
            np.exp(1j * uu * p.mu_j - 0.5 * uu * uu * p.sigma_j**2) - 1.0 - 1j * uu * kbar
        )
    return np.exp(exponent)


# ---------------------------------------------------------------------------
# Black-Scholes: arbitrary-precision closed form
# ---------------------------------------------------------------------------

def bs_price_highprec(spot, strike, rate, tau, sigma, is_call=True):
    """50-digit Black-Scholes price."""
    S = mp.mpf(spot)
    K = mp.mpf(strike)
    r = mp.mpf(rate)
    t = mp.mpf(tau)
    v = mp.mpf(sigma)
    d1 = (mp.log(S / K) + (r + v**2 / 2) * t) / (v * mp.sqrt(t))
    d2 = d1 - v * mp.sqrt(t)
    if is_call:
        return S * mp.ncdf(d1) - K * mp.e ** (-r * t) * mp.ncdf(d2)
    return K * mp.e ** (-r * t) * mp.ncdf(-d2) - S * mp.ncdf(-d1)


if __name__ == "__main__":
    print("== cf_expansion_highprec: sigma0=0.2 beta=0.4 rho=-0.7 eta=0.1 ap=0, "
          "u=2, tau=5.5/(24*365) ==")
    val = cf_expansion_highprec(2, mp.mpf("5.5") / (24 * 365), "0.2", "0.4", "-0.7", "0.1", 0)
    print(f"  {complex(val)!r}")

    print("== jump_cf_mc: lam=20 mu_J=-0.01 sigma_J=0.02 sigma0=0.2 tau=1/252 u=3 ==")
    est, se = jump_cf_mc(3.0, 1.0 / 252.0, 0.2, 20.0, -0.01, 0.02)
    print(f"  {est!r}  se={se:.3e}")

    print("== bs_price_highprec: S=100 K=100 r=0.02 tau=7/365 sigma=0.2 call ==")
    print(f"  {float(bs_price_highprec(100, 100, '0.02', mp.mpf(7)/365, '0.2')):.15g}")
    print("== bs_price_highprec: S=100 K=95 r=0 tau=1 sigma=0.2 put ==")
    print(f"  {float(bs_price_highprec(100, 95, 0, 1, '0.2', is_call=False)):.15g}")

    print("== heston_k0_cf closed form vs ODE route (v0=0.04 nu=0.3 rho=-0.65 tau=2/365) ==")
    for uu in (1.0, 3.0, 10.0, 30.0, -7.5):
        a = complex(heston_k0_cf(uu, 2.0 / 365.0, 0.04, 0.3, -0.65))
        b = heston_k0_cf_ode(uu, 2.0 / 365.0, 0.04, 0.3, -0.65)
        print(f"  u={uu}: closed={a!r}  |closed-ode|={abs(a - b):.3e}")

    one_12 = mp.mpf(1) / 12
    print("== bs_price_highprec: S=K=100 r=0 tau=1/12 sigma=0.2 call ==")
    print(f"  {float(bs_price_highprec(100, 100, 0, one_12, '0.2')):.15g}")
    print("== bs_price_highprec: S=100 K=120 r=0 tau=1/12 sigma=0.2 call ==")
    print(f"  {float(bs_price_highprec(100, 120, 0, one_12, '0.2')):.15g}")
    print("== bs_price_highprec: S=100 K=80 r=0 tau=1/12 sigma=0.2 put ==")
    print(f"  {float(bs_price_highprec(100, 80, 0, one_12, '0.2', is_call=False)):.15g}")
    print("== bs_price_highprec: S=K=100 r=0 tau=1 sigma=0.2 call ==")
    print(f"  {float(bs_price_highprec(100, 100, 0, 1, '0.2')):.15g}")
