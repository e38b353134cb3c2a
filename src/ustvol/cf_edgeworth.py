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

Both routes share one second-order bracket, a function of eight nested
integrals of phi_tilde(s) = 1 + phi(s)/sigma0 over [0, tau]:
:func:`psi_c_no_shift` evaluates it on the single segment [0, tau] at level
1, and :func:`psi_c_piecewise` by an exact recursion over the segments of a
piecewise-constant phi_tilde, O(segments) with no grid.  Three of the eight
integrals are powers of F = int phi_tilde and one is tau*F - int s*phi_tilde,
so the recursion carries five running moments.

All operations are pure functions, vectorized over the frequency argument, and
accept complex frequencies (needed by the Fourier pricer's shifted argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeworthParams",
    "Displacement",
    "psi_c_no_shift",
    "psi_c_piecewise",
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
    def beta0(self) -> float:
        """Loading on the price Brownian: beta_tilde0 * rho0."""
        return self.beta_tilde0 * self.rho0

    @property
    def beta0_perp(self) -> float:
        """Loading on the orthogonal Brownian: beta_tilde0 * sqrt(1 - rho0^2)."""
        return self.beta_tilde0 * math.sqrt(max(0.0, 1.0 - self.rho0 * self.rho0))


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
        bounds, levels = self._segment_lists(tau)
        return np.array(bounds, dtype=float), np.array(levels)

    def _segment_lists(self, tau: float) -> tuple:
        """:meth:`segments_to` as lists of Python floats."""
        if not tau > 0.0:
            raise ValueError(f"tau must be > 0, got {tau}")
        bounds = [t for t in self.tenors if t < tau] + [tau]
        return bounds, list(self.levels + self.levels[-1:])[:len(bounds)]


def _phi_tilde_segments(tau: float, sigma0: float, displacement: Displacement | None) -> tuple:
    """Segment bounds on [0, tau] and the phi_tilde level on each, as Python
    floats; ValueError where a level makes the shifted volatility
    non-positive."""
    if displacement is None:
        return (tau,), (1.0,)
    bounds, levels = displacement._segment_lists(tau)
    phi_tilde = [1.0 + a / sigma0 for a in levels]
    for a, p in zip(levels, phi_tilde):
        if p <= 0.0:
            raise ValueError(
                f"shift level {a} makes the shifted volatility "
                f"non-positive for sigma0={sigma0}"
            )
    return bounds, phi_tilde


def _as_freq(u):
    """Common frequency-argument handling: complex array + scalar flag."""
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    return uu, scalar


def _damped(lead_exponent: np.ndarray, bracket: np.ndarray, scalar: bool):
    """exp(lead) * bracket with exact zero where the damping underflows."""
    under = lead_exponent.real < _UNDERFLOW_LOG
    if under.any():
        lead_exponent = np.where(under, -np.inf, lead_exponent)
    damp = np.exp(lead_exponent)
    out = damp * bracket
    zero = damp == 0.0
    if zero.any():
        out[zero] = 0.0
    return complex(out[0]) if scalar else out


def _per_tau(tau, fn):
    """``fn(tau)``, a tuple of Python numbers, at a scalar ``tau``; at an
    ndarray of tenors, ``fn`` of each distinct tenor with each item
    scattered back to an array aligned with ``tau``.  So one τ per
    frequency costs one ``fn`` call per tenor, and a frequency gets the
    numbers it gets alone."""
    if not isinstance(tau, np.ndarray):
        return fn(tau)
    distinct, inverse = np.unique(tau, return_inverse=True)
    rows = [fn(t) for t in distinct.tolist()]
    return tuple(np.array(col)[inverse] for col in zip(*rows))


def _coefficients(tau: float, params: EdgeworthParams, integrals, jumps: bool = False) -> tuple:
    """The expansion's coefficients at one tenor from its eight nested
    integrals of phi_tilde over [0, tau], as Python numbers: the bracket's
    (c2, -i c3, c4, c6), the Gaussian exponent's -i_var/(2 tau), and where
    ``jumps`` the jump terms of :func:`_jump_terms`.

    ``integrals`` is built from the running integrals F(s) = int_0^s phi_tilde,
    G(s) = int_0^s F, H(s) = int_0^s phi_tilde F, K1(s) = int_0^s s1 phi_tilde
    and M(s) = int_0^s phi_tilde H::

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
    coef = (c2, -1j * c3, c4, c6, -0.5 * (i_var / t))
    return coef + _jump_terms(tau, params) if jumps else coef


def _psi_from_coefficients(u, coef):
    """exp(lead) * bracket from :func:`_coefficients`' numbers, or from
    arrays of them aligned with ``u``: the jump exponent of
    :func:`psi_jump` joins the Gaussian one under a single exponential
    where the jump terms are present."""
    c2, c3i, c4, c6, half_var = coef[:5]
    uu, scalar = _as_freq(u)
    u2 = uu * uu
    bracket = 1.0 + u2 * (c2 + uu * c3i + u2 * (c4 + c6 * u2))
    lead = u2 * half_var
    if len(coef) > 5:
        rate, m, v, mu_bar = coef[5:]
        iu = uu * 1j
        lead += rate * (np.exp(iu * m - u2 * v) - 1.0 - iu * mu_bar)
    return _damped(lead, bracket, scalar)


def _psi_from_integrals(u, tau: float, params: EdgeworthParams, integrals, jumps: bool = False):
    """The second-order expansion of the standardized continuous-return CF at
    one tenor from its nested integrals (:func:`_coefficients`), times the
    jump CF when ``jumps``."""
    return _psi_from_coefficients(
        u, _coefficients(tau, params, integrals, jumps and params.lambda0 != 0.0))


def _segment_integrals(bounds, levels) -> tuple:
    """Exact bracket integrals of a piecewise-constant phi_tilde.

    ``levels[k]`` applies on [bounds[k-1], bounds[k]) with bounds[-1] := 0;
    both are sequences of Python floats.  Only five moments are carried
    across the breakpoints: F, K1, i_var, i_eta and i_m1.  The rest follow
    from F and K1 for any phi_tilde: H = F^2/2, M = F^3/6, i_m2 = F^4/24
    and, by parts, G(s) = s F - K1.
    The totals read the running values at the segment start, so they are
    updated first.
    """
    F = K1 = i_var = i_eta = i_m1 = 0.0
    a = 0.0
    for b, c in zip(bounds, levels):
        h = b - a
        h2 = h * h
        h3 = h2 * h
        i_var += c * c * h
        i_eta += (a * F - K1) * h + F * h2 / 2.0 + c * h3 / 6.0
        i_m1 += c * (K1 * h + c * (a * h2 / 2.0 + h3 / 6.0))
        K1 += c * (a * h + h2 / 2.0)
        F += c * h
        a = b
    F2 = F * F
    return i_var, F2 / 2.0, a * F - K1, K1, i_eta, F2 * F / 6.0, i_m1, F2 * F2 / 24.0


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
    bounds, levels = _phi_tilde_segments(tau_k, params.sigma0, displacement)
    return _psi_from_integrals(u, tau_k, params, _segment_integrals(bounds, levels))


def _jump_terms(tau: float, params: EdgeworthParams) -> tuple:
    """(lambda0*tau, m, v, mu_bar) of the standardized jump exponent
    lambda0*tau*(e^{iu m - u^2 v} - 1 - iu mu_bar); OverflowError when the
    compensator exponent mu_J + sigma_J^2/2 exceeds float64 range."""
    st = params.sigma0 * math.sqrt(tau)
    m = params.mu_J / st
    v = params.sigma_J**2 / (2.0 * params.sigma0**2 * tau)
    comp = params.mu_J + 0.5 * params.sigma_J**2
    if comp > _OVERFLOW_LOG:
        raise OverflowError(
            f"jump compensator exponent {comp:.1f} exceeds float64 range"
        )
    return params.lambda0 * tau, m, v, math.expm1(comp) / st


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
    rate, m, v, mu_bar = _jump_terms(tau, params)
    out = np.exp(rate * (np.exp(1j * uu * m - uu * uu * v) - 1.0 - 1j * uu * mu_bar))
    return complex(out[0]) if scalar else out


def psi_full(u, tau, params: EdgeworthParams, displacement: Displacement | None = None):
    """Product of the continuous-part and jump-part characteristic functions.

    The continuous part is :func:`psi_c_piecewise` when a displacement is
    given, otherwise :func:`psi_c_no_shift`, and the jump part
    :func:`psi_jump`.  The two exponents are summed under one exponential,
    e^{-u^2 i_var/(2 tau) + jump exponent} * bracket, exactly zero where the
    sum's real part underflows.  ``tau`` is a scalar or an array of one
    tenor per frequency of ``u``; then each distinct tenor's bracket
    coefficients and jump terms are computed once and broadcast, so a
    frequency's value does not depend on the other tenors of the array.
    """
    if not (np.all(tau > 0.0) if isinstance(tau, np.ndarray) else tau > 0.0):
        raise ValueError(f"tau must be > 0, got {tau}")

    def coefficients(t):
        bounds, levels = _phi_tilde_segments(t, params.sigma0, displacement)
        return _coefficients(t, params, _segment_integrals(bounds, levels),
                             jumps=params.lambda0 != 0.0)

    return _psi_from_coefficients(u, _per_tau(tau, coefficients))
