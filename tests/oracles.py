"""Independent oracle computations whose outputs are frozen into the tests.

Every non-trivial expected value in the test suite is produced here by a
route independent of the library implementation (arbitrary-precision
arithmetic, brute-force Monte Carlo, classical closed forms, or dense
quadrature written from scratch).  The test-only references live here too:
the quadrature route to the expansion CF, the exact rho0 = +-1 law, the
finite-difference smile check, sample cumulants, the single-tenor u_max
scan and the direct per-node midpoint sum of a slice's calls, the benchmark
CFs solved at every frequency and their Chebyshev interpolant evaluated
point by point, and the per-step loops of the affine and rough path
simulators.  Run directly
from the repository root to reprint all frozen values:

    PYTHONPATH=src python3 tests/oracles.py
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma

import mpmath as mp
import numpy as np

from ustvol import mc_oracle
from ustvol.benchmarks import (
    HestonMertonParams,
    RoughHestonParams,
    _heston_merton_exponent,
    _rough_heston_exponent,
)
from ustvol.cf_edgeworth import Displacement, EdgeworthParams, _psi_from_integrals
from ustvol.diagnostics import smile_expansion
from ustvol.fourier_pricer import (
    _DECAY_THRESHOLD,
    _PROBES,
    _U_MAX_CAP,
    QuadratureConfig,
    price_surface,
)
from ustvol.registry import get_model, standardized_from_raw

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
# Gaussian-expansion CF under a general displacement: dense-grid quadrature
# of all eight bracket integrals
# ---------------------------------------------------------------------------

def _sample_phi_tilde(fn, s: np.ndarray, first_dup: np.ndarray, eps: float,
                      sigma0: float) -> np.ndarray:
    """phi_tilde on the doubled grid, taking left limits at duplicated nodes."""
    vals = np.asarray(fn(s), dtype=float)
    if vals.shape != s.shape:  # plain scalar callable
        vals = np.array([float(fn(x)) for x in s])
    if first_dup.size:
        left = np.array([float(fn(x - eps)) for x in s[first_dup]])
        vals = vals.copy()
        vals[first_dup] = left
    if not np.all(np.isfinite(vals)):
        raise ValueError("displacement function produced non-finite samples")
    return 1.0 + vals / sigma0


def psi_c_quadrature(u, tau: float, params: EdgeworthParams, phi,
                     node_count: int = 20_000, breakpoints=()):
    """Quadrature route to the standardized continuous-return CF.

    Evaluates the general-displacement expansion directly: every nested
    integral of phi_tilde(s) = 1 + phi(s)/sigma0 is computed by a composite
    trapezoid rule with running cumulative sums on a uniform grid whose node
    set includes all supplied breakpoints (each inserted twice so that jump
    discontinuities are integrated exactly); the eight integrals feed the
    library's bracket.  None of them uses the identities the segment
    recursion relies on (H = F^2/2, M = F^3/6, int phi_tilde M = F^4/24,
    G = tau F - K1), so agreement checks those too.

    ``phi`` is a callable with phi(0) = 0 or a :class:`Displacement`, which
    supplies its own breakpoints; ``breakpoints`` lists the known jump
    locations of a callable (ignored outside (0, tau)); ``node_count`` is the
    uniform base-grid size (the per-breakpoint duplicates are extra).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if node_count < 2:
        raise ValueError("node_count must be >= 2")
    if isinstance(phi, Displacement):
        breakpoints = phi.tenors
        fn = phi.phi
    else:
        fn = phi

    base = np.linspace(0.0, tau, node_count)
    brk = np.asarray([b for b in breakpoints if 0.0 < b < tau], dtype=float)
    s = np.sort(np.concatenate([base, brk, brk]))
    # First occurrence of each duplicated breakpoint closes the left segment,
    # so it must carry the left limit of phi_tilde.
    first_dup = np.searchsorted(s, brk, side="left") if brk.size else np.array([], dtype=int)
    eps = tau / (8.0 * (node_count - 1))
    v = _sample_phi_tilde(fn, s, first_dup, eps, params.sigma0)

    ds = np.diff(s)

    def cum(f: np.ndarray) -> np.ndarray:
        out = np.empty_like(f)
        out[0] = 0.0
        np.cumsum(0.5 * (f[1:] + f[:-1]) * ds, out=out[1:])
        return out

    F = cum(v)            # int_0^s phi_tilde
    G = cum(F)            # int_0^s F
    H = cum(v * F)        # int_0^s phi_tilde * F
    K1 = cum(s * v)       # int_0^s s1 * phi_tilde
    M = cum(v * H)        # int_0^s phi_tilde * H

    integrals = (cum(v * v)[-1], H[-1], G[-1], K1[-1], cum(G)[-1], M[-1],
                 cum(v * K1)[-1], cum(v * M)[-1])
    return _psi_from_integrals(u, tau, params, integrals)


# ---------------------------------------------------------------------------
# Exact CF of the rho0 = +-1 sub-model (eta0 = alpha_prime0 = 0)
# ---------------------------------------------------------------------------

def psi_c_rho_one_exact(u, tau, params: EdgeworthParams, displacement=None):
    """Exact CF of the standardized continuous return when the vol Brownian
    is the price one (rho0 = +-1, eta0 = alpha_prime0 = 0).

    The return is then Z = L/sqrt(tau) + g (x^2 - 1), with L = int phi_tilde dW,
    x = W_tau/sqrt(tau) and g = beta0 sqrt(tau)/(2 sigma0): the law that
    ``simulate_edgeworth_submodel(..., exact=True)`` samples.  (L, W_tau) is
    Gaussian with Var L = V = int phi_tilde^2 and Cov(L, W_tau) = F =
    int phi_tilde, so L/sqrt(tau) = a x + R with a = F/tau and R independent,
    N(0, V/tau - a^2).  Integrating over x gives

        Psi(u) = e^{-iug} (1 - 2iug)^{-1/2} exp(-u^2 a^2 / (2 (1 - 2iug)))
                 exp(-u^2 (V/tau - a^2) / 2).

    V and F are summed over the displacement segments directly.
    """
    if params.beta0_perp != 0.0 or params.eta0 != 0.0 or params.alpha_prime0 != 0.0:
        raise ValueError("the exact law needs rho0 = +-1 (or beta_tilde0 = 0), "
                         "eta0 = 0 and alpha_prime0 = 0")
    if displacement is None:
        widths, phit = np.array([tau]), np.array([1.0])
    else:
        bounds, seg = displacement.segments_to(tau)
        widths = np.diff(np.concatenate([[0.0], bounds]))
        phit = 1.0 + np.asarray(seg) / params.sigma0
    var, f = float(np.sum(phit * phit * widths)), float(np.sum(phit * widths))
    a = f / tau
    g = params.beta0 * math.sqrt(tau) / (2.0 * params.sigma0)
    uu = np.asarray(u, dtype=np.complex128)
    q = 1.0 - 2j * uu * g
    return (np.exp(-1j * uu * g - uu * uu * a * a / (2.0 * q)
                   - 0.5 * uu * uu * (var / tau - a * a)) / np.sqrt(q))


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


def heston_merton_exponent_decoupled(w, tau: float, params: HestonMertonParams):
    """log CF of the raw log return under ``HestonMertonParams`` with m_v = 0,
    in closed form.

    Without variance jumps J(w) = e^{iwμₓ − w²σₓ²/2} does not depend on B₁,
    so each factor's row is a scalar Riccati equation with constant
    coefficients, B' = a + bB + cB², B(0) = 0, with a = −(w² + iw)/2 −
    iw·k̄·cᵢ + cᵢ(J − 1), b = iwρᵢζᵢ − κᵢ and c = ζᵢ²/2 (Duffie, Pan &
    Singleton 2000).  With d = √(b² − 4ac), Re d ≥ 0, and E = e^{−ds}:
    B(s) = 2a(1 − E)/((d − b) + (d + b)E) and ∫₀ˢB = [(−b − d)s −
    2 log(((d − b) + (d + b)E)/(2d))]/(2c).  Written without cancellation
    as ζ → 0: −b − d = 4ac/(d − b), d + b = −4ac/(d − b), so the log is
    log1p(2ac(1 − E)/(d(d − b))) and every term carries the factor c that
    the 1/(2c) cancels.  A = Σᵢ κᵢθᵢ∫B_i + τ(c₀(J − 1) − iw·k̄·c₀) +
    a₁∫₀^τ φ_v: the displacement enters A only.  Needs ζᵢ > 0.
    """
    p = params
    if p.m_v != 0.0:
        raise ValueError("the rows decouple only at m_v = 0")
    w = np.asarray(w, dtype=np.complex128)
    kbar = math.exp(p.mu_x + 0.5 * p.sigma_x**2) - 1.0
    jump = np.exp(1j * w * p.mu_x - 0.5 * w * w * p.sigma_x**2)
    factors = [(p.v1_0, p.kappa1, p.theta1, p.zeta1, p.rho1, p.c1),
               (p.v2_0, p.kappa2, p.theta2, p.zeta2, p.rho2, p.c2)][:p.factor_count]
    exponent = tau * (p.c0 * (jump - 1.0) - 1j * w * kbar * p.c0)
    for k, (v0, kappa, theta, zeta, rho, c_k) in enumerate(factors):
        a = -0.5 * (w * w + 1j * w) - 1j * w * kbar * c_k + c_k * (jump - 1.0)
        b = 1j * w * rho * zeta - kappa
        c = 0.5 * zeta * zeta
        d = np.sqrt(b * b - 4.0 * a * c)
        dmb = d - b
        one_minus_e = -np.expm1(-d * tau)
        big_b = 2.0 * a * one_minus_e / (dmb - 4.0 * a * c / dmb * (1.0 - one_minus_e))
        int_b = 2.0 * a * tau / dmb - np.log1p(2.0 * a * c * one_minus_e / (d * dmb)) / c
        exponent = exponent + kappa * theta * int_b + v0 * big_b
        if k == 0 and p.shifts is not None:
            disp = p.shifts
            edges = np.clip(np.array((0.0,) + disp.tenors + (math.inf,)), 0.0, tau)
            exponent = exponent + a * float(np.dot(disp.levels + disp.levels[-1:],
                                                   np.diff(edges)))
    return exponent


# ---------------------------------------------------------------------------
# Rough Heston CF on the whole frequency grid at once: the fractional Adams
# solver with complex history products and a whole-grid cumulative trapezoid
# (the library takes the same steps with real-weight products on the float
# view of the history, and its xi integral is one row-weight product)
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


def rough_heston_cf_whole_array(u, tau, params, n_steps=256):
    """Rough Heston raw log-return CF, the whole array in one Adams solve."""
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
# Benchmark CFs with the exponent solved at every frequency: the route that
# benchmarks._exponent_on_line replaces by a Chebyshev interpolant on a line
# ---------------------------------------------------------------------------

def benchmark_cf_direct(u, tau: float, theta):
    """Raw log-return CF of ``HestonMertonParams`` or ``RoughHestonParams``
    (256 Adams steps), one direct solve over all of ``u``."""
    uu = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    if isinstance(theta, HestonMertonParams):
        return np.exp(_heston_merton_exponent(uu, tau, theta))
    assert isinstance(theta, RoughHestonParams)
    return np.exp(_rough_heston_exponent(uu, tau, theta, 256))


def barycentric_per_point(x, nodes, vals):
    """The barycentric interpolant through ``vals`` at the second-kind
    Chebyshev ``nodes``, one point of ``x`` at a time in 30-digit arithmetic:
    sum w_j f_j / (x - x_j) over sum w_j / (x - x_j), w_j = (-1)^j halved at
    the ends.  A point equal to a node takes that node's value."""
    with mp.workdps(30):
        weights = [mp.mpf(-1 if j % 2 else 1) / (2 if j in (0, nodes.size - 1) else 1)
                   for j in range(nodes.size)]
        at_nodes = [mp.mpf(float(n)) for n in nodes]
        values = [mp.mpc(complex(v)) for v in vals]
        out = np.empty(len(x), dtype=np.complex128)
        for i, xi in enumerate(x):
            hit = np.flatnonzero(nodes == xi)
            if hit.size:
                out[i] = vals[hit[0]]
                continue
            kernel = [w / (mp.mpf(float(xi)) - n) for w, n in zip(weights, at_nodes)]
            out[i] = complex(mp.fsum(k * v for k, v in zip(kernel, values)) / mp.fsum(kernel))
    return out


def cf_standardized_direct(u, tau: float, theta):
    """A benchmark registry model's ``cf_standardized`` from
    :func:`benchmark_cf_direct`."""
    return standardized_from_raw(lambda w: benchmark_cf_direct(w, tau, theta),
                                 u, tau, math.sqrt(theta.spot_variance))


# ---------------------------------------------------------------------------
# Smile asymptotics: finite differences of priced IVs, an independently
# written affine skew, and sample cumulants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmileCheck:
    """Finite-difference smile derivatives at one tenor vs the expansion."""

    tau: float
    level_fd: float
    skew_fd: float
    convexity_fd: float
    level_dev: float
    skew_dev: float
    convexity_dev: float


def _deviation(measured: float, target: float) -> float:
    """Relative deviation, degrading to absolute for a vanishing target."""
    if target == 0.0:
        return abs(measured)
    return abs(measured - target) / abs(target)


def verify_smile_against_pricer(params: EdgeworthParams, tau_list, spot=100.0,
                                node_count=200_000) -> list:
    """Finite-difference the priced ATM smile and compare with the expansion.

    For each tenor, the contracts at raw log-moneyness {-h, 0, +h} with
    h = 0.01 sigma0 sqrt(tau) are priced by ``price_surface`` under the
    registry's ``edgeworth`` model, whose IVs are differenced into
    level/skew/convexity.  Deviations are relative to the expansion targets
    (falling back to absolute where a target vanishes, e.g. the skew in the
    BS limit).

    The expansion describes the continuous model only, so jumps must be
    switched off (the jump factor is then exactly one); tenors above 1/52
    defeat the small-tenor premise.
    """
    if params.lambda0 != 0.0:
        raise ValueError("smile expansion verification requires lambda0 = 0")
    if any(t > 1.0 / 52.0 for t in tau_list):
        raise ValueError("smile expansion verification needs tenors <= 1/52")
    target = smile_expansion(params)
    model = get_model("edgeworth")
    quad = QuadratureConfig(node_count=node_count)
    out = []
    for tau in tau_list:
        h = 0.01 * params.sigma0 * math.sqrt(tau)
        rows = price_surface([(spot * math.exp(x), tau) for x in (-h, 0.0, h)],
                             model, params, spot, quad=quad)
        for row in rows:
            if row["error"] is not None:
                raise RuntimeError(row["error"])
        lo, mid, hi = (row["iv"] for row in rows)
        skew = (hi - lo) / (2.0 * h)
        convexity = (hi - 2.0 * mid + lo) / (h * h)
        out.append(SmileCheck(
            tau=tau,
            level_fd=mid,
            skew_fd=skew,
            convexity_fd=convexity,
            level_dev=_deviation(mid, target.iv_level),
            skew_dev=_deviation(skew, target.iv_skew),
            convexity_dev=_deviation(convexity, target.iv_convexity),
        ))
    return out


def affine_small_time_skew(v0: float, zeta: float, rho: float) -> float:
    """Hand-coded one-factor affine short-time ATM skew, rho*zeta/(4*sqrt(v0)).

    Kept deliberately independent of ``smile_expansion`` so the
    specialization beta_tilde0 = zeta/2, rho0 = rho, eta0 = 0 can be checked
    as an identity between two separately written formulas.
    """
    if not v0 > 0.0:
        raise ValueError(f"v0 must be > 0, got {v0}")
    return rho * zeta / (4.0 * math.sqrt(v0))


def sample_cumulants(samples) -> tuple:
    """(kappa2, kappa3, kappa4) from central moments of a sample."""
    z = np.asarray(samples, dtype=float)
    c = z - z.mean()
    m2 = float(np.mean(c**2))
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    return m2, m3, m4 - 3.0 * m2 * m2


# ---------------------------------------------------------------------------
# Fourier slice calls: the single-tenor u_max scan and the direct per-node
# midpoint sum
# ---------------------------------------------------------------------------

def adaptive_u_max(cf, shift: complex) -> float:
    """One tenor's u_max by its own scan: the smallest probe U with
    |Ψ(U + shift)|/U < 1e−12, capped at 2000, from one call of the one-τ
    ``cf`` per chunk of 8 probes.

    A chunk that raises ValueError, ArithmeticError or RuntimeError, or
    turns non-finite before it decays, ends the scan at the last healthy
    chunk's end (the cap if there is none); other exceptions propagate.
    ``fourier_pricer._surface_u_max`` must give each tenor this value.
    """
    last_ok = None
    for lo in range(0, _PROBES.size, 8):
        chunk = _PROBES[lo:lo + 8]
        try:
            vals = np.abs(np.atleast_1d(cf(chunk + shift)))
        except (ValueError, ArithmeticError, RuntimeError):
            break
        finite = np.isfinite(vals)
        stop = chunk.size if finite.all() else int(np.argmin(finite))
        ratio = vals[:stop] / chunk[:stop]
        below = np.nonzero(ratio < _DECAY_THRESHOLD)[0]
        if below.size:
            return float(chunk[below[0]])
        if stop < chunk.size:
            break
        last_ok = float(chunk[-1])
    return last_ok if last_ok is not None else _U_MAX_CAP


def slice_calls_direct(cf, sigma0, tau, spot, rate, strikes, quad: QuadratureConfig,
                       u_max: float):
    """Calls of one tenor slice by the direct midpoint sum: e^{iu·d₂}
    evaluated at every (strike, node) pair, the route the library kernel
    factorizes, each node weighted u_max/n.

    Same nodes on the caller's [0, ``u_max``], CF call (normalizer and both
    legs), floor and cap as ``fourier_pricer._slice_calls``, without its
    error checks; returns the floored and capped calls.
    """
    st = sigma0 * math.sqrt(tau)
    n = quad.node_count
    step = u_max / n
    u = step * (np.arange(n) + 0.5)
    psi = np.asarray(cf(np.concatenate([[-1j * st], u - 1j * st, [0.0], u])))
    psi_norm, psi_shift, psi_plain = psi[0], psi[1:u.size + 1], psi[u.size + 2:]

    drift = (rate - 0.5 * sigma0**2) * tau
    d2 = np.array([(math.log(spot) - math.log(k) + drift) / st for k in strikes])
    disc_k = np.asarray(strikes, dtype=float) * math.exp(-rate * tau)
    iu = 1j * u
    phase = np.exp(iu * d2[:, None])
    leg_s = step * np.sum(np.real(phase * psi_shift / (iu * psi_norm)), axis=1)
    leg_k = step * np.sum(np.real(phase * psi_plain / iu), axis=1)
    raw = spot * (0.5 + leg_s / math.pi) - disc_k * (0.5 + leg_k / math.pi)
    return np.minimum(np.maximum(raw, np.maximum(spot - disc_k, 0.0)), spot)


# ---------------------------------------------------------------------------
# benchmark path simulators: the direct per-step loops
# ---------------------------------------------------------------------------

def simulate_affine_direct(p: HestonMertonParams, tau: float, cfg) -> np.ndarray:
    """Full-truncation Euler for the affine model, every draw on every path.

    Same grid, chunks, streams, draws and negative-variance guard as
    ``mc_oracle._simulate_affine``, but each step makes its gamma and
    normal jump draws over all paths (jump-free paths draw zero-shape
    gammas and zero-scale normals) and integrates the second factor even
    when it is identically zero.
    """
    two_factor = p.factor_count == 2
    kbar = math.exp(p.mu_x + 0.5 * p.sigma_x**2) / (1.0 - p.m_v * p.rho_jump) - 1.0
    grid = mc_oracle._step_grid(tau, cfg.steps_per_tenor, p.shifts)
    dts = np.diff(grid)
    phi_left = p.shifts.phi(grid[:-1]) if p.shifts is not None else np.zeros(len(dts))
    r1p = math.sqrt(max(0.0, 1.0 - p.rho1**2))
    r2p = math.sqrt(max(0.0, 1.0 - p.rho2**2))

    out = np.empty(cfg.paths)
    neg_cells = 0
    offset = 0
    for size, rng in mc_oracle._chunk_streams(cfg):
        v1 = np.full(size, p.v1_0)
        v2 = np.full(size, p.v2_0)
        x = np.zeros(size)
        for k in range(len(dts)):
            dt = dts[k]
            sq_dt = math.sqrt(dt)
            v1p = np.maximum(v1, 0.0)
            v2p = np.maximum(v2, 0.0)
            phv = max(phi_left[k], 0.0)
            neg_cells += int(((v1 < 0.0) | (v2 < 0.0)).sum())

            g = mc_oracle._normals(rng, 5, size, cfg.antithetic)
            db1 = p.rho1 * g[0] + r1p * g[2]
            db2 = p.rho2 * g[1] + r2p * g[3]
            x += (
                -0.5 * (v1p + v2p + phv) * dt
                + np.sqrt(v1p * dt) * db1
                + np.sqrt(v2p * dt) * db2
                + math.sqrt(phv * dt) * g[4]
            )

            intensity = p.c0 + p.c1 * (v1p + phv) + p.c2 * v2p
            counts = rng.poisson(intensity * dt)
            if p.m_v > 0.0:
                zv = rng.gamma(counts.astype(float), p.m_v)
            else:
                zv = np.zeros(size)
            zx = rng.normal(counts * p.mu_x + p.rho_jump * zv,
                            p.sigma_x * np.sqrt(counts))
            x += zx - intensity * kbar * dt

            v1 = v1 + p.kappa1 * (p.theta1 - v1p) * dt \
                + p.zeta1 * np.sqrt(v1p) * sq_dt * g[0] + zv
            if two_factor:
                v2 = v2 + p.kappa2 * (p.theta2 - v2p) * dt \
                    + p.zeta2 * np.sqrt(v2p) * sq_dt * g[1]
        out[offset:offset + size] = x
        offset += size

    mc_oracle._check_negative_cells(neg_cells, cfg.paths * len(dts))
    return out


def simulate_rough_direct(p: RoughHestonParams, tau: float, cfg) -> np.ndarray:
    """Kernel-discretized rough variance with the history sum made per step.

    Same weights, chunks, streams, draws and guard as
    ``mc_oracle._simulate_rough``; at step k the history term is the
    matrix-vector product of the k reversed lag weights with all k earlier
    ``sqrt(v_j^+) dW_j`` records, with no blocking in time.
    """
    alpha = p.hurst + 0.5
    n = cfg.steps_per_tenor
    dt = tau / n
    ga = gamma(alpha)

    lag = np.arange(1, n + 1, dtype=float) * dt
    panel_var = (lag ** (2.0 * alpha - 1.0)
                 - (lag - dt) ** (2.0 * alpha - 1.0)) / (2.0 * alpha - 1.0)
    weights = np.sqrt(panel_var / dt) / ga
    var_last = dt ** (2.0 * p.hurst) / (2.0 * p.hurst) / ga**2
    cov_last = dt ** (p.hurst + 0.5) / (p.hurst + 0.5) / ga
    slope = cov_last / dt
    resid = math.sqrt(max(var_last - cov_last**2 / dt, 0.0))
    rho_perp = math.sqrt(max(0.0, 1.0 - p.rho**2))

    xi_path = p.xi(np.arange(n + 1) * dt)
    kbar = math.expm1(p.mu_j + 0.5 * p.sigma_j**2)

    out = np.empty(cfg.paths)
    neg_cells = 0
    offset = 0
    for size, rng in mc_oracle._chunk_streams(cfg, mc_oracle._ROUGH_CHUNK_CAP):
        dw = mc_oracle._normals(rng, n, size, cfg.antithetic) * math.sqrt(dt)
        g_resid = mc_oracle._normals(rng, n, size, cfg.antithetic)
        g_perp = mc_oracle._normals(rng, n, size, cfg.antithetic)
        hist = np.empty((n, size))
        v = np.full(size, xi_path[0])
        x = np.zeros(size)
        for k in range(n):
            neg_cells += int((v < 0.0).sum())
            vp = np.maximum(v, 0.0)
            sq = np.sqrt(vp)
            x += -0.5 * vp * dt + sq * (p.rho * dw[k] + rho_perp * math.sqrt(dt) * g_perp[k])
            hist[k] = sq * dw[k]
            kern = sq * (slope * dw[k] + resid * g_resid[k])
            if k >= 1:
                kern = kern + weights[1:k + 1][::-1] @ hist[:k]
            v = xi_path[k + 1] + p.nu * kern
        if p.lambda_j > 0.0:
            counts = rng.poisson(p.lambda_j * tau, size)
            x += rng.normal(counts * p.mu_j, p.sigma_j * np.sqrt(counts))
            x -= p.lambda_j * kbar * tau
        out[offset:offset + size] = x
        offset += size

    mc_oracle._check_negative_cells(neg_cells, cfg.paths * n)
    return out


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
        a = complex(heston_k0_cf(uu, 2.0 / 365.0, 0.04, 0.3, -0.65)[0])
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
