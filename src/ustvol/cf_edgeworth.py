"""Second-order characteristic-function expansion for ultra-short-tenor returns.

The continuous part of the log price is standardized as

    Z_tau = (X_tau - X_0 - mu_0*tau) / (sigma0*sqrt(tau)),   mu_0 = r_0 - sigma0**2/2,

and its characteristic function is expanded to second order in sqrt(tau) around
the Gaussian e^{-u^2/2}.  The expansion is driven by the time-0 values of the
volatility dynamics (spot vol sigma0, vol-of-vol beta_tilde0, leverage rho0,
vol-of-vol-of-vol eta0, combined drift alpha_prime0) plus an optional
deterministic piecewise-constant displacement phi(t) added to the volatility
path.  Price jumps are compound Poisson with Gaussian sizes and enter as a
multiplicative factor.

Every route shares one second-order bracket, a function of eight nested
integrals of phi_tilde(s) = 1 + phi(s)/sigma0 over [0, tau]; the routes differ
only in how those integrals are obtained:

* :func:`psi_c_no_shift` and :func:`psi_c_piecewise` -- exact segment
  recursion for a piecewise-constant phi_tilde (a single segment at level 1
  when there is no displacement), O(segments) with no grid.
* :func:`psi_c_quadrature` -- composite trapezoid on a dense grid; supports
  arbitrary bounded displacements and serves as the oracle for the recursion.

All operations are pure functions, vectorized over the frequency argument, and
accept complex frequencies (needed by the Fourier pricer's shifted argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EdgeworthParams",
    "Displacement",
    "psi_c_no_shift",
    "psi_c_piecewise",
    "psi_c_quadrature",
    "psi_jump",
    "psi_full",
]

# exp(x) underflows to exactly 0.0 below roughly -745; n.b. the damped product
# is what every consumer integrates, so returning exact zero there is correct.
_UNDERFLOW_LOG = -745.0

# Real exponents above this overflow float64; used to reject degenerate
# jump-compensator regimes instead of silently producing inf/NaN.
_OVERFLOW_LOG = 700.0


@dataclass(frozen=True)
class EdgeworthParams:
    """Time-0 parameter vector of the expansion-based model.

    Parameters
    ----------
    sigma0 : float
        Spot volatility (annualized), > 0.
    beta_tilde0 : float
        Spot vol-of-vol (annualized).
    rho0 : float
        Spot leverage correlation, in [-1, 1].
    eta0 : float
        Vol-of-vol-of-vol loading on the price Brownian (annualized).
    alpha_prime0 : float
        Combined volatility/price drift parameter (alpha0 + delta0)/2.
    lambda0 : float
        Jump intensity per year, >= 0.
    mu_J, sigma_J : float
        Mean and standard deviation (>= 0) of the Gaussian log jump size.
    """

    sigma0: float
    beta_tilde0: float = 0.0
    rho0: float = 0.0
    eta0: float = 0.0
    alpha_prime0: float = 0.0
    lambda0: float = 0.0
    mu_J: float = 0.0
    sigma_J: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma0 > 0.0:
            raise ValueError(f"sigma0 must be > 0, got {self.sigma0}")
        if self.sigma_J < 0.0:
            raise ValueError(f"sigma_J must be >= 0, got {self.sigma_J}")
        if self.lambda0 < 0.0:
            raise ValueError(f"lambda0 must be >= 0, got {self.lambda0}")
        if not -1.0 <= self.rho0 <= 1.0:
            raise ValueError(f"rho0 must lie in [-1, 1], got {self.rho0}")

    @property
    def spot_vol(self) -> float:
        """Annualized instantaneous volatility at time 0 (pricing anchor)."""
        return self.sigma0

    @property
    def beta0(self) -> float:
        """Loading on the price Brownian: beta_tilde0 * rho0."""
        return self.beta_tilde0 * self.rho0

    @property
    def beta0_perp(self) -> float:
        """Loading on the orthogonal Brownian: beta_tilde0 * sqrt(1 - rho0^2)."""
        return self.beta_tilde0 * math.sqrt(max(0.0, 1.0 - self.rho0 * self.rho0))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "EdgeworthParams":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class Displacement:
    """Piecewise-constant volatility displacement on a tenor grid.

    phi(t) = sum_k a_k * 1[tau_k <= t < tau_{k+1}) with tau_0 = 0 and a_0 = 0:
    ``tenors`` are the grid points tau_1 < ... < tau_n (year fractions) and
    ``shifts`` the levels a_1, ..., a_{n-1} applying from tau_1 onward.  Beyond
    tau_n the last level is carried forward.
    """

    tenors: tuple
    shifts: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenors", tuple(float(t) for t in self.tenors))
        object.__setattr__(self, "shifts", tuple(float(a) for a in self.shifts))
        if len(self.tenors) == 0:
            raise ValueError("displacement needs at least one tenor")
        if len(self.shifts) != len(self.tenors) - 1:
            raise ValueError(
                f"expected {len(self.tenors) - 1} shifts for {len(self.tenors)} "
                f"tenors, got {len(self.shifts)}"
            )
        arr = np.asarray(self.tenors)
        if arr[0] <= 0.0 or np.any(np.diff(arr) <= 0.0):
            raise ValueError("tenors must be strictly increasing and positive")

    @property
    def levels(self) -> tuple:
        """Shift level on each grid segment [tau_k, tau_{k+1}), k = 0..n-1."""
        return (0.0,) + self.shifts

    def phi(self, t):
        """Evaluate the displacement, vectorized; constant beyond the grid."""
        t = np.asarray(t, dtype=float)
        lev = np.asarray(self.levels)
        idx = np.searchsorted(np.asarray(self.tenors), t, side="right")
        out = lev[np.minimum(idx, len(lev) - 1)]
        return out if out.ndim else float(out)

    def segments_to(self, tau: float):
        """Segment boundaries and levels covering [0, tau].

        Returns ``(bounds, seg_levels)`` where ``bounds`` ends exactly at tau
        (inserted as an extra breakpoint when tau is off the grid, carrying the
        prevailing level) and ``seg_levels[k]`` applies on
        [bounds[k-1], bounds[k]) with bounds[-1] := 0.
        """
        if not tau > 0.0:
            raise ValueError(f"tau must be > 0, got {tau}")
        ten = np.asarray(self.tenors)
        lev = np.asarray(self.levels)
        bounds = np.append(ten[ten < tau], tau)
        if len(bounds) <= len(lev):
            seg = lev[: len(bounds)]
        else:
            seg = np.append(lev, lev[-1])
        return bounds, seg

    def to_dict(self) -> dict:
        return {"tenors": list(self.tenors), "shifts": list(self.shifts)}

    @classmethod
    def from_dict(cls, d: dict) -> "Displacement":
        return cls(tenors=tuple(d["tenors"]), shifts=tuple(d["shifts"]))


def _phi_tilde_column(seg_levels, sigma0: float) -> np.ndarray:
    col = 1.0 + np.asarray(seg_levels) / sigma0
    if np.any(col <= 0.0):
        k = int(np.argmax(col <= 0.0))
        raise ValueError(
            f"shift level {seg_levels[k]} makes the shifted volatility "
            f"non-positive for sigma0={sigma0}"
        )
    return col


def _as_freq(u):
    """Common frequency-argument handling: complex array + scalar flag."""
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    return uu, scalar


def _damped(lead_exponent: np.ndarray, bracket: np.ndarray, scalar: bool):
    """exp(lead) * bracket with exact zero where the damping underflows."""
    safe = np.where(lead_exponent.real < _UNDERFLOW_LOG, -np.inf, lead_exponent)
    damp = np.exp(safe)
    out = np.where(damp == 0.0, 0.0 + 0.0j, damp * bracket)
    return complex(out[0]) if scalar else out


def _psi_from_integrals(u, tau: float, params: EdgeworthParams, integrals):
    """The second-order expansion of the standardized continuous-return CF.

    ``integrals`` holds the eight nested integrals of phi_tilde over [0, tau]
    (F, G, H, K1 and M as defined in :func:`psi_c_quadrature`)::

        i_var = int phi_tilde^2      i_skew = H(tau)   i_delta = G(tau)
        i_alpha = K1(tau)            i_eta = int G     i_b3 = M(tau)
        i_m1 = int phi_tilde * K1    i_m2 = int phi_tilde * M

    The leading Gaussian factor uses the shift-weighted variance i_var/tau
    and the bracket is 1 + c2 u^2 - i c3 u^3 + c4 u^4 + c6 u^6.  The drift
    split uses alpha0 = delta0 = alpha_prime0; vb and vp weight the
    vol-of-vol loadings on the price and the orthogonal Brownian.
    """
    i_var, i_skew, i_delta, i_alpha, i_eta, i_b3, i_m1, i_m2 = integrals
    s0 = params.sigma0
    a0 = d0 = params.alpha_prime0
    t = tau
    vb = params.beta0**2 / (8.0 * s0 * s0 * t)
    vp = params.beta0_perp**2 / (2.0 * s0 * s0 * t)
    c2 = -(d0 * i_delta + a0 * i_alpha) / (s0 * t) - (2.0 * vb + 0.5 * vp) * t * t
    c3 = params.beta0 * i_skew / (s0 * t**1.5)
    c4 = (params.eta0 * i_eta / (s0 * t * t)
          - vb * (4.0 * i_skew - (24.0 * i_b3 + 12.0 * i_m1) / t)
          + 2.0 * vp * i_m1 / t)
    c6 = -24.0 * vb * i_m2 / (t * t)

    uu, scalar = _as_freq(u)
    u2 = uu * uu
    bracket = 1.0 + u2 * (c2 - 1j * c3 * uu + u2 * (c4 + c6 * u2))
    return _damped(-0.5 * u2 * (i_var / t), bracket, scalar)


def _segment_integrals(bounds, levels) -> tuple:
    """Exact bracket integrals of a piecewise-constant phi_tilde.

    ``levels[k]`` applies on [bounds[k-1], bounds[k]) with bounds[-1] := 0.
    On each segment every running integral (F, G, H, K1, M) is a polynomial
    in the offset from the segment start, so it is carried across the
    breakpoint in closed form; the totals read the running values at the
    segment start and are therefore updated first.
    """
    F = G = H = K1 = M = 0.0
    i_var = i_eta = i_m1 = i_m2 = 0.0
    a = 0.0
    for b, c in zip(np.asarray(bounds, dtype=float).tolist(),
                    np.asarray(levels, dtype=float).tolist()):
        h = b - a
        h2 = h * h
        h3 = h2 * h
        i_var += c * c * h
        i_eta += G * h + F * h2 / 2.0 + c * h3 / 6.0
        i_m1 += c * (K1 * h + c * (a * h2 / 2.0 + h3 / 6.0))
        i_m2 += c * (M * h + c * (H * h2 / 2.0 + c * F * h3 / 6.0 + c * c * h3 * h / 24.0))
        M += c * (H * h + c * F * h2 / 2.0 + c * c * h3 / 6.0)
        K1 += c * (a * h + h2 / 2.0)
        H += c * (F * h + c * h2 / 2.0)
        G += F * h + c * h2 / 2.0
        F += c * h
        a = b
    return i_var, H, G, K1, i_eta, M, i_m1, i_m2


def psi_c_no_shift(u, tau: float, params: EdgeworthParams):
    """Characteristic function of the standardized continuous return, no shift.

    Closed second-order form around the Gaussian::

        e^{-u^2/2} ( 1 - iu^3 (beta_tilde0 rho0 / 2 sigma0) sqrt(tau)
                       - u^2 ((alpha0+delta0)/2sigma0 + beta_tilde0^2/4sigma0^2) tau
                       + (beta_tilde0^2/24sigma0^2) u^2 (4u^2 - rho0^2 u^2 (3u^2-8)) tau
                       + (eta0/6sigma0) u^4 tau )

    with alpha0 + delta0 = 2*alpha_prime0, evaluated as the shared bracket on
    the single segment [0, tau] at level phi_tilde = 1.  Accepts scalar or
    array ``u``, real or complex.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return _psi_from_integrals(u, tau, params, _segment_integrals((tau,), (1.0,)))


def psi_c_piecewise(u, tau_k: float, params: EdgeworthParams, displacement: Displacement):
    """Closed-form characteristic function under a piecewise-constant shift.

    phi_tilde = 1 + phi/sigma0 is constant on each segment of
    ``displacement.segments_to(tau_k)``, so the eight nested integrals of the
    bracket follow exactly from a recursion over those segments.  tau_k is
    normally one of the displacement tenors; off-grid tau is evaluated by
    inserting tau as an extra breakpoint carrying the prevailing level.
    Raises ValueError when a shift level below tau_k makes the shifted
    volatility non-positive.
    """
    bounds, seg = displacement.segments_to(tau_k)
    levels = _phi_tilde_column(seg, params.sigma0)
    return _psi_from_integrals(u, tau_k, params, _segment_integrals(bounds, levels))


def _sample_phi_tilde(
    fn: Callable, s: np.ndarray, first_dup: np.ndarray, eps: float, sigma0: float
) -> np.ndarray:
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


def psi_c_quadrature(
    u,
    tau: float,
    params: EdgeworthParams,
    phi,
    node_count: int = 20_000,
    breakpoints: Sequence[float] = (),
):
    """Quadrature oracle for the standardized continuous-return CF.

    Evaluates the general-displacement expansion directly: every nested
    integral of phi_tilde(s) = 1 + phi(s)/sigma0 is computed by a composite
    trapezoid rule with running cumulative sums on a uniform grid whose node
    set includes all supplied breakpoints (each inserted twice so that jump
    discontinuities are integrated exactly); the eight integrals feed the
    same bracket as the closed forms.

    Parameters
    ----------
    phi : callable or Displacement
        Deterministic displacement with phi(0) = 0.  Passing a
        :class:`Displacement` supplies its own breakpoints.
    node_count : int
        Uniform base-grid size (the two per-breakpoint duplicates are extra).
    breakpoints : sequence of float
        Known jump locations of a callable ``phi``; ignored outside (0, tau).
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


def psi_jump(u, tau: float, params: EdgeworthParams):
    """Characteristic function of the standardized compensated jump component.

    exp{ tau*lambda0 * ( e^{iu mu_J/(sigma0 sqrt(tau)) - u^2 sigma_J^2/(2 sigma0^2 tau)}
                         - 1 - iu*mu_bar ) }

    with mu_bar = (e^{mu_J + sigma_J^2/2} - 1) / (sigma0 sqrt(tau)): the
    exponential-moment compensator of a single jump, rescaled to standardized
    units.  Evaluated at u = -i*sigma0*sqrt(tau) the exponent cancels exactly,
    so the jump factor never disturbs the forward (E[e^X] = 1 to machine
    precision for any jump size).  Raises OverflowError when the compensator
    exponent mu_J + sigma_J^2/2 exceeds float64 range.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    uu, scalar = _as_freq(u)
    if params.lambda0 == 0.0:
        out = np.ones_like(uu)
        return complex(out[0]) if scalar else out
    st = params.sigma0 * math.sqrt(tau)
    m = params.mu_J / st
    v = params.sigma_J**2 / (2.0 * params.sigma0**2 * tau)
    comp = params.mu_J + 0.5 * params.sigma_J**2
    if comp > _OVERFLOW_LOG:
        raise OverflowError(
            f"jump compensator exponent {comp:.1f} exceeds float64 range"
        )
    mu_bar = math.expm1(comp) / st
    out = np.exp(params.lambda0 * tau * (np.exp(1j * uu * m - uu * uu * v) - 1.0 - 1j * uu * mu_bar))
    return complex(out[0]) if scalar else out


def psi_full(u, tau: float, params: EdgeworthParams, displacement: Displacement | None = None):
    """Product of the continuous-part and jump-part characteristic functions.

    Uses :func:`psi_c_piecewise` when a displacement is given, otherwise
    :func:`psi_c_no_shift`.
    """
    if displacement is None:
        psi_c = psi_c_no_shift(u, tau, params)
    else:
        psi_c = psi_c_piecewise(u, tau, params, displacement)
    return psi_c * psi_jump(u, tau, params)
