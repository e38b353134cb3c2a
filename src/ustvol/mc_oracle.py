"""Monte Carlo ground truth for the expansion sub-model and the benchmarks.

The simulators here are deliberately independent of the characteristic
functions they are compared against: they discretize the stochastic dynamics
directly and estimate CFs, cumulants and prices from paths, so agreement with
the analytic modules is evidence, not construction.

Conventions: zero rate throughout; terminal values are raw log returns
X_tau - X_0 unless explicitly standardized; for a fixed ``SimConfig`` every
simulator makes the same random draws on every run and machine (paths are
generated in fixed-size chunks, each with its own child stream spawned from
the seed, so growing the path count appends chunks without disturbing
earlier draws).  Outputs repeat bit for bit on one machine; across machines
the rough simulator's history sum, a BLAS matrix product, may round
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import HestonMertonParams, RoughHestonParams
from .bspp_bootstrap import shift_weighted_variance
from .cf_edgeworth import Displacement, EdgeworthParams

__all__ = [
    "SimConfig",
    "SubmodelSim",
    "simulate_edgeworth_submodel",
    "simulate_benchmark",
    "empirical_cf",
    "write_samples_bin",
    "read_samples_bin",
]


# paths per chunk: memory stays bounded and the draws of a chunk do not depend
# on the total path count
_CHUNK_PATHS = 250_000


@dataclass(frozen=True)
class SimConfig:
    """Path count, time resolution and RNG policy for one simulation run."""

    paths: int
    steps_per_tenor: int = 200
    rng_seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if self.steps_per_tenor < 1:
            raise ValueError(f"steps_per_tenor must be >= 1, got {self.steps_per_tenor}")


@dataclass(frozen=True)
class SubmodelSim:
    """Terminal draws from the frozen-coefficient sub-model.

    ``z_continuous`` holds the standardized continuous-part returns,
    ``x_total`` the raw log returns including compensated jumps, and
    ``negative_vol_fraction`` the share of paths whose volatility went
    negative at some step (reported, never fatal: the sub-model keeps the
    signed volatility).
    """

    z_continuous: np.ndarray
    x_total: np.ndarray
    negative_vol_fraction: float


def _chunk_streams(cfg: SimConfig, cap: int | None = None):
    """Yield (size, rng) pairs, one child stream per fixed-size chunk of
    ``_CHUNK_PATHS`` paths, or of ``cap`` if that is smaller."""
    chunk = _CHUNK_PATHS if cap is None else min(_CHUNK_PATHS, cap)
    sizes = []
    left = cfg.paths
    while left > 0:
        take = min(left, chunk)
        sizes.append(take)
        left -= take
    children = np.random.SeedSequence(cfg.rng_seed).spawn(len(sizes))
    for size, child in zip(sizes, children):
        yield size, np.random.default_rng(child)


def _normals(rng, rows: int, size: int, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return rng.standard_normal((rows, size))
    half = (size + 1) // 2
    g = rng.standard_normal((rows, half))
    return np.concatenate([g, -g], axis=1)[:, :size]


def _step_grid(tau: float, steps: int, displacement: Displacement | None) -> np.ndarray:
    """Uniform grid refined with the displacement breakpoints below tau."""
    grid = np.linspace(0.0, tau, steps + 1)
    if displacement is not None:
        inner = [t for t in displacement.tenors if t < tau]
        if inner:
            grid = np.unique(np.concatenate([grid, inner]))
    return grid


# ---------------------------------------------------------------------------
# frozen-coefficient sub-model
# ---------------------------------------------------------------------------

def _jump_leg(rng, size: int, tau: float, p: EdgeworthParams) -> np.ndarray:
    """Compound-Poisson log-return contribution, compensated in raw units.

    Jump arrivals over [0, tau] are Poisson(lambda0*tau) with iid Gaussian
    sizes, so the whole leg is sampled exactly; the drift -lambda0*kbar*tau,
    kbar = E[e^J] - 1, makes e^{jump leg} mean one.
    """
    if p.lambda0 == 0.0:
        return np.zeros(size)
    counts = rng.poisson(p.lambda0 * tau, size)
    total = rng.normal(counts * p.mu_J, p.sigma_J * np.sqrt(counts))
    kbar = math.expm1(p.mu_J + 0.5 * p.sigma_J**2)
    return total - p.lambda0 * kbar * tau


def _exact_z_chunk(rng, size, tau, p, displacement, antithetic) -> np.ndarray:
    """Exact terminal law when the vol Brownians collapse onto the price one.

    With rho0 = +-1, eta0 = 0 and alpha_prime0 = 0 the continuous return is

        int sigma_s dW_s = sigma0 * sum_k phi_tilde_k (W_{t_{k+1}} - W_{t_k})
                           + beta0 * (W_tau^2 - tau)/2

    which only needs one Gaussian increment per displacement segment -- no
    time discretization error at all.
    """
    if displacement is None:
        bounds = np.array([tau])
        seg = np.array([0.0])
    else:
        bounds, seg = displacement.segments_to(tau)
    widths = np.diff(np.concatenate([[0.0], bounds]))
    phit = 1.0 + seg / p.sigma0
    dws = _normals(rng, len(widths), size, antithetic) * np.sqrt(widths)[:, None]
    w_tau = dws.sum(axis=0)
    gauss = p.sigma0 * (phit @ dws)
    ito = p.beta0 * (w_tau * w_tau - tau) / 2.0
    return (gauss + ito) / (p.sigma0 * math.sqrt(tau))


def _euler_z_chunk(rng, size, grid, p, displacement, antithetic):
    """Left-point Euler on sigma_t = sigma0 + phi(t) + alpha0 t + int beta dW
    + beta0' W'; beta_t = beta0 + eta0 W_t activates the eta term."""
    n_steps = len(grid) - 1
    dts = np.diff(grid)
    phi_left = (
        displacement.phi(grid[:-1]) if displacement is not None else np.zeros(n_steps)
    )
    integral = np.zeros(size)  # int beta_s dW_s so far
    w = np.zeros(size)
    w_perp = np.zeros(size)
    x = np.zeros(size)
    ever_negative = np.zeros(size, dtype=bool)
    for k in range(n_steps):
        g = _normals(rng, 2, size, antithetic) * math.sqrt(dts[k])
        sigma = p.sigma0 + phi_left[k] + p.alpha_prime0 * grid[k] + integral \
            + p.beta0_perp * w_perp
        ever_negative |= sigma < 0.0
        x += sigma * g[0]
        beta_t = p.beta0 + p.eta0 * w
        integral += beta_t * g[0]
        w += g[0]
        w_perp += g[1]
    return x / (p.sigma0 * math.sqrt(grid[-1])), ever_negative


def simulate_edgeworth_submodel(
    params: EdgeworthParams,
    displacement: Displacement | None,
    tau: float,
    cfg: SimConfig,
    exact: bool = False,
) -> SubmodelSim:
    """Terminal draws of the displaced frozen-coefficient model.

    The continuous part follows the volatility built from the time-0
    coefficients (displacement, linear drift ramp, vol-of-vol loadings, the
    eta ramp on beta) with the drift frozen at mu0 = -sigma0^2/2; jumps are
    compound Poisson with Gaussian sizes, compensated in raw units.

    ``exact=True`` switches to the discretization-free sampler available
    when beta0_perp = eta0 = alpha_prime0 = 0 (the law is then an explicit
    function of one increment per segment); it raises otherwise.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    p = params
    if exact and (p.beta0_perp != 0.0 or p.eta0 != 0.0 or p.alpha_prime0 != 0.0):
        raise ValueError(
            "exact sampling needs rho0 = +-1 (or beta_tilde0 = 0), eta0 = 0 "
            "and alpha_prime0 = 0"
        )
    grid = _step_grid(tau, cfg.steps_per_tenor, displacement)
    z = np.empty(cfg.paths)
    x = np.empty(cfg.paths)
    neg_paths = 0
    mu0_tau = -0.5 * p.sigma0**2 * tau
    offset = 0
    for size, rng in _chunk_streams(cfg):
        sl = slice(offset, offset + size)
        if exact:
            z[sl] = _exact_z_chunk(rng, size, tau, p, displacement, cfg.antithetic)
        else:
            z[sl], ever_neg = _euler_z_chunk(
                rng, size, grid, p, displacement, cfg.antithetic
            )
            neg_paths += int(ever_neg.sum())
        x[sl] = mu0_tau + p.sigma0 * math.sqrt(tau) * z[sl] \
            + _jump_leg(rng, size, tau, p)
        offset += size
    return SubmodelSim(
        z_continuous=z,
        x_total=x,
        negative_vol_fraction=neg_paths / cfg.paths,
    )


# ---------------------------------------------------------------------------
# benchmark simulators
# ---------------------------------------------------------------------------

_NEGATIVE_VARIANCE_LIMIT = 0.10
_ROUGH_CHUNK_CAP = 100_000
# steps per block of the rough history sum
_ROUGH_BLOCK = 32


def _check_negative_cells(neg_cells: int, total_cells: int) -> None:
    """Fail when too many (path, step) variance states were negative.

    The fraction of clipped cells shrinks as the grid refines, so a large
    value means the step count is too small for the parameters at hand.
    """
    frac = neg_cells / total_cells
    if frac > _NEGATIVE_VARIANCE_LIMIT:
        raise RuntimeError(
            f"negative-variance cell fraction {frac:.1%} exceeds "
            f"{_NEGATIVE_VARIANCE_LIMIT:.0%}: increase steps_per_tenor"
        )


def _simulate_bspp(sigma0: float, displacement: Displacement, tau, cfg) -> np.ndarray:
    """Exact Gaussian law: X ~ N(-sigma0^2 V/2, sigma0^2 V) with V the
    shift-weighted integrated variance."""
    var = sigma0**2 * shift_weighted_variance(sigma0, displacement, tau)
    out = np.empty(cfg.paths)
    offset = 0
    for size, rng in _chunk_streams(cfg):
        g = _normals(rng, 1, size, cfg.antithetic)[0]
        out[offset:offset + size] = -0.5 * var + math.sqrt(var) * g
        offset += size
    return out


def _simulate_affine(p: HestonMertonParams, tau: float, cfg: SimConfig) -> np.ndarray:
    """Full-truncation Euler for the affine model with self-exciting jumps.

    Variance drift and diffusion use v^+; the price diffusion loads
    sqrt(v1^+), sqrt(v2^+) and sqrt(phi_v^+) on Brownians correlated rho_i
    with the factor drivers (the displacement leg is independent, matching
    the affine source term).  Per step, jump counts are Poisson in the
    left-point intensity c0 + c1 (v1^+ + phi_v) + c2 v2^+; each jump adds an
    Exp(m_v) variance kick to factor 1 and a conditionally Gaussian price
    jump, compensated exactly through kbar.

    Only the paths that jumped get jump arithmetic: a zero-shape gamma draw
    consumes nothing from the stream, and ``normal(loc, scale)`` is
    ``loc + scale * standard_normal`` draw for draw, so the outputs equal
    those of drawing over every path (``tests/oracles.simulate_affine_direct``).
    """
    two_factor = p.factor_count == 2
    kbar = math.exp(p.mu_x + 0.5 * p.sigma_x**2) / (1.0 - p.m_v * p.rho_jump) - 1.0
    grid = _step_grid(tau, cfg.steps_per_tenor, p.shifts)
    dts = np.diff(grid)
    phi_left = p.shifts.phi(grid[:-1]) if p.shifts is not None else np.zeros(len(dts))
    r1p = math.sqrt(max(0.0, 1.0 - p.rho1**2))
    r2p = math.sqrt(max(0.0, 1.0 - p.rho2**2))

    out = np.empty(cfg.paths)
    neg_cells = 0
    offset = 0
    for size, rng in _chunk_streams(cfg):
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

            g = _normals(rng, 5, size, cfg.antithetic)
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
            hit = np.flatnonzero(counts)
            n_hit = counts[hit]
            zv = rng.gamma(n_hit.astype(float), p.m_v) if p.m_v > 0.0 else np.zeros(hit.size)
            zx = n_hit * p.mu_x + p.rho_jump * zv \
                + p.sigma_x * np.sqrt(n_hit) * rng.standard_normal(size)[hit]
            # x += zx - comp on hit paths and x -= comp elsewhere; comp - zx
            # rounds to exactly -(zx - comp)
            comp = intensity * kbar * dt
            comp[hit] -= zx
            x -= comp

            v1 = v1 + p.kappa1 * (p.theta1 - v1p) * dt \
                + p.zeta1 * np.sqrt(v1p) * sq_dt * g[0]
            v1[hit] += zv
            if two_factor:
                v2 = v2 + p.kappa2 * (p.theta2 - v2p) * dt \
                    + p.zeta2 * np.sqrt(v2p) * sq_dt * g[1]
        out[offset:offset + size] = x
        offset += size

    _check_negative_cells(neg_cells, cfg.paths * len(dts))
    return out


def _simulate_rough(p: RoughHestonParams, tau: float, cfg: SimConfig) -> np.ndarray:
    """Kernel-discretized rough variance with exact last-panel covariance.

    v(t_k) = xi0(t_k) + nu * sum_{j<k} [kernel panel j] sqrt(v_j^+) dW_j.
    Panels older than one step use deterministic weights matching the exact
    panel variance of (t_k - s)^{alpha-1}/Gamma(alpha); the newest panel
    samples the kernel integral jointly with its own dW (exact 2x2 Gaussian
    covariance), which at H = 1/2 collapses the whole scheme onto classical
    Euler (the hybrid scheme of Bennedsen, Lunde & Pakkanen 2017 with one
    exact panel).  Merton jumps are sampled exactly over the horizon.

    The history sum is blocked in time (as in Hairer, Lubich & Schlichte
    1985): with W[k, j] = weights[k - j] for j < k and R the rows of records
    sqrt(v_j^+) dW_j, each block of B = ``_ROUGH_BLOCK`` steps starting at s
    gets its sums over the records before s from one matrix product
    W[s:s+B, :s] @ R[:s], and step k inside the block adds only
    W[k, s:k] @ R[s:k].  W is gathered one block of rows at a time, so the
    extra memory is O(B n), not O(n^2).  The draws are those of the per-step
    sum (``tests/oracles.simulate_rough_direct``); the outputs differ from it
    by rounding only.
    """
    alpha = p.hurst + 0.5
    n = cfg.steps_per_tenor
    dt = tau / n
    ga = math.gamma(alpha)

    lag = np.arange(1, n + 1, dtype=float) * dt
    panel_var = (lag ** (2.0 * alpha - 1.0)
                 - (lag - dt) ** (2.0 * alpha - 1.0)) / (2.0 * alpha - 1.0)
    weights = np.sqrt(panel_var / dt) / ga  # index m-1 <-> lag m steps
    var_last = dt ** (2.0 * p.hurst) / (2.0 * p.hurst) / ga**2
    cov_last = dt ** (p.hurst + 0.5) / (p.hurst + 0.5) / ga
    slope = cov_last / dt
    resid = math.sqrt(max(var_last - cov_last**2 / dt, 0.0))
    rho_perp = math.sqrt(max(0.0, 1.0 - p.rho**2))

    t_grid = np.arange(n + 1) * dt
    xi_path = p.xi(t_grid)
    kbar = math.expm1(p.mu_j + 0.5 * p.sigma_j**2)

    out = np.empty(cfg.paths)
    neg_cells = 0
    offset = 0
    # the kernel scheme stores the full (steps x paths) shock history, so
    # chunks are capped harder than for the Markovian simulators; each
    # step's shock row is overwritten by its record once used
    for size, rng in _chunk_streams(cfg, _ROUGH_CHUNK_CAP):
        dw = _normals(rng, n, size, cfg.antithetic) * math.sqrt(dt)
        g_resid = _normals(rng, n, size, cfg.antithetic)
        g_perp = _normals(rng, n, size, cfg.antithetic)
        older = np.empty((min(_ROUGH_BLOCK, n), size))  # block rows' sums before s
        v = np.full(size, xi_path[0])
        x = np.zeros(size)
        for k in range(n):
            neg_cells += int((v < 0.0).sum())
            vp = np.maximum(v, 0.0)
            sq = np.sqrt(vp)
            x += -0.5 * vp * dt + sq * (p.rho * dw[k] + rho_perp * math.sqrt(dt) * g_perp[k])
            kern = sq * (slope * dw[k] + resid * g_resid[k])
            dw[k] *= sq  # from here on the record sqrt(v_k^+) dW_k
            s = k - k % _ROUGH_BLOCK
            if k == s:
                # the block's rows of W; entries with j >= k are never read
                end = min(s + _ROUGH_BLOCK, n)
                w_blk = weights[np.subtract.outer(np.arange(s, end), np.arange(end))]
                np.matmul(w_blk[:, :s], dw[:s], out=older[:end - s])
            kern += older[k - s] + w_blk[k - s, s:k] @ dw[s:k]
            v = xi_path[k + 1] + p.nu * kern
        if p.lambda_j > 0.0:
            counts = rng.poisson(p.lambda_j * tau, size)
            x += rng.normal(counts * p.mu_j, p.sigma_j * np.sqrt(counts))
            x -= p.lambda_j * kbar * tau
        out[offset:offset + size] = x
        offset += size

    _check_negative_cells(neg_cells, cfg.paths * n)
    return out


def simulate_benchmark(model_id: str, theta, tau: float, cfg: SimConfig) -> np.ndarray:
    """Terminal raw log returns for any registered model.

    ``theta`` is the registry-native parameter object for ``model_id``.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if model_id == "edgeworth":
        return simulate_edgeworth_submodel(theta, None, tau, cfg).x_total
    if model_id == "edgeworth_pp":
        params, disp = theta
        return simulate_edgeworth_submodel(params, disp, tau, cfg).x_total
    if model_id == "bs_pp":
        sigma0, disp = theta
        return _simulate_bspp(sigma0, disp, tau, cfg)
    if model_id.startswith("heston_merton"):
        return _simulate_affine(theta, tau, cfg)
    if model_id.startswith("rough_heston"):
        return _simulate_rough(theta, tau, cfg)
    raise ValueError(f"no simulator for model id {model_id!r}")


# ---------------------------------------------------------------------------
# empirical statistics and sample I/O
# ---------------------------------------------------------------------------

def empirical_cf(samples, u_grid):
    """Empirical characteristic function with per-frequency standard errors.

    Returns ``(values, se)`` where values[j] = mean(e^{i u_j Z}) and
    se[j] = sqrt((1 - |values[j]|^2)/N), the standard error of the complex
    mean (|e^{iuZ}| = 1 pointwise, so the second moment is free).  Each run
    of equally spaced frequencies is swept with a phase recurrence, so the
    samples are exponentiated twice per run rather than once per frequency.
    """
    z = np.asarray(samples, dtype=float)
    if z.size == 0:
        raise ValueError("samples must be non-empty")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    n = z.size
    sums = np.zeros(u.size, dtype=np.complex128)

    starts = [0]  # maximal runs of equal spacing
    for j in range(2, u.size):
        if not math.isclose(u[j] - u[j - 1], u[starts[-1] + 1] - u[starts[-1]], rel_tol=1e-12):
            starts.append(j)
    chunk = 4_000_000
    for lo in range(0, n, chunk):
        zc = z[lo:lo + chunk]
        for start, stop in zip(starts, starts[1:] + [u.size]):
            phase = np.exp(1j * u[start] * zc)
            if stop - start > 1:
                step = np.exp(1j * (u[start + 1] - u[start]) * zc)
            for j in range(start, stop):
                sums[j] += phase.sum()
                if j + 1 < stop:
                    phase *= step
    values = sums / n
    se = np.sqrt(np.maximum(0.0, 1.0 - np.abs(values) ** 2) / n)
    if np.ndim(u_grid) == 0:
        return complex(values[0]), float(se[0])
    return values, se


def write_samples_bin(path, samples) -> None:
    """Write samples as little-endian float64 preceded by a uint64 count."""
    arr = np.ascontiguousarray(np.asarray(samples, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(np.array([arr.size], dtype="<u8").tobytes())
        fh.write(arr.tobytes())


def read_samples_bin(path) -> np.ndarray:
    """Inverse of :func:`write_samples_bin`, validating the count header."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise ValueError(f"{path}: truncated header")
        (count,) = np.frombuffer(head, dtype="<u8")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != int(count):
        raise ValueError(
            f"{path}: header promises {int(count)} samples, found {data.size}"
        )
    return data.copy()
