"""Short-tenor smile analytics and the pricing speed bench.

The quadratic smile expansion turns the frozen-coefficient parameters into
ATM level, skew and convexity; ``verify_smile_against_pricer`` closes the
loop by finite-differencing implied vols produced by the Fourier pricer,
and ``timing_bench`` measures wall-clock pricing cost per model on a fixed
3-contracts-by-6-tenors grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cf_edgeworth import EdgeworthParams, psi_c_no_shift
from .fourier_pricer import QuadratureConfig, _checked_slice_calls, _implied_vols, _put_from_call
from .registry import get_model

__all__ = [
    "SmileExpansion",
    "SmileCheck",
    "TimingRow",
    "TimingReport",
    "smile_expansion",
    "expansion_iv",
    "affine_small_time_skew",
    "verify_smile_against_pricer",
    "sample_cumulants",
    "timing_bench",
    "BENCH_TENORS",
]


@dataclass(frozen=True)
class SmileExpansion:
    """ATM smile coefficients of the short-tenor limit."""

    theta3: float
    theta4: float
    iv_level: float
    iv_skew: float
    iv_convexity: float


def smile_expansion(params: EdgeworthParams) -> SmileExpansion:
    """Skew/kurtosis coefficients and the ATM smile derivatives they imply.

    theta3 = 3 beta_tilde0 rho0 / sigma0 and
    theta4 = 4 (eta0/sigma0 + (beta_tilde0/sigma0)^2 (1 + 2 rho0^2)); the
    smile satisfies I(0) = sigma0, I'(0) = theta3/6 and
    I''(0) = theta4/(12 sigma0) - theta3^2/(6 sigma0) in raw log-moneyness.
    """
    p = params
    s = p.sigma0
    theta3 = 3.0 * p.beta_tilde0 * p.rho0 / s
    theta4 = 4.0 * (p.eta0 / s + (p.beta_tilde0 / s) ** 2 * (1.0 + 2.0 * p.rho0**2))
    return SmileExpansion(
        theta3=theta3,
        theta4=theta4,
        iv_level=s,
        iv_skew=theta3 / 6.0,
        iv_convexity=theta4 / (12.0 * s) - theta3**2 / (6.0 * s),
    )


def expansion_iv(params: EdgeworthParams, x):
    """Quadratic smile I(x) = level + skew * x + convexity * x^2 / 2."""
    e = smile_expansion(params)
    x = np.asarray(x, dtype=float)
    out = e.iv_level + e.iv_skew * x + 0.5 * e.iv_convexity * x * x
    return out if out.ndim else float(out)


def affine_small_time_skew(v0: float, zeta: float, rho: float) -> float:
    """Hand-coded one-factor affine short-time ATM skew, rho*zeta/(4*sqrt(v0)).

    Kept deliberately independent of :func:`smile_expansion` so the
    specialization beta_tilde0 = zeta/2, rho0 = rho, eta0 = 0 can be checked
    as an identity between two separately written formulas.
    """
    if not v0 > 0.0:
        raise ValueError(f"v0 must be > 0, got {v0}")
    return rho * zeta / (4.0 * math.sqrt(v0))


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


def verify_smile_against_pricer(
    params: EdgeworthParams,
    tau_list,
    spot: float = 100.0,
    node_count: int = 200_000,
) -> list:
    """Finite-difference the priced ATM smile and compare with the expansion.

    For each tenor, three contracts at raw log-moneyness {-h, 0, +h} with
    h = 0.01 sigma0 sqrt(tau) are priced through the Fourier pipeline with
    the continuous-part CF, inverted to implied vols, and differenced into
    level/skew/convexity.  Deviations are relative to the expansion targets
    (falling back to absolute where a target vanishes, e.g. the skew in the
    BS limit).

    The expansion describes the continuous model only, so jumps must be
    switched off; tenors above 1/52 defeat the small-tenor premise.
    """
    if params.lambda0 != 0.0:
        raise ValueError("smile expansion verification requires lambda0 = 0")
    if any(t > 1.0 / 52.0 for t in tau_list):
        raise ValueError("smile expansion verification needs tenors <= 1/52")
    target = smile_expansion(params)
    quad = QuadratureConfig(node_count=node_count)
    out = []
    for tau in tau_list:
        h = 0.01 * params.sigma0 * math.sqrt(tau)
        strikes = np.array([spot * math.exp(x) for x in (-h, 0.0, h)])
        calls = _checked_slice_calls(lambda u: psi_c_no_shift(u, tau, params),
                                     params.sigma0, tau, spot, 0.0, strikes, quad)
        otm_call = strikes >= spot
        ivs = _implied_vols(np.where(otm_call, calls, _put_from_call(calls, spot, strikes)),
                            spot, strikes, tau, 0.0, otm_call).tolist()
        level = ivs[1]
        skew = (ivs[2] - ivs[0]) / (2.0 * h)
        convexity = (ivs[2] - 2.0 * ivs[1] + ivs[0]) / (h * h)
        out.append(SmileCheck(
            tau=tau,
            level_fd=level,
            skew_fd=skew,
            convexity_fd=convexity,
            level_dev=_deviation(level, target.iv_level),
            skew_dev=_deviation(skew, target.iv_skew),
            convexity_dev=_deviation(convexity, target.iv_convexity),
        ))
    return out


def _deviation(measured: float, target: float) -> float:
    """Relative deviation, degrading to absolute for a vanishing target."""
    if target == 0.0:
        return abs(measured)
    return abs(measured - target) / abs(target)


def sample_cumulants(samples) -> tuple:
    """(kappa2, kappa3, kappa4) from central moments of a sample."""
    z = np.asarray(samples, dtype=float)
    c = z - z.mean()
    m2 = float(np.mean(c**2))
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    return m2, m3, m4 - 3.0 * m2 * m2


# ---------------------------------------------------------------------------
# timing bench
# ---------------------------------------------------------------------------

BENCH_TENORS = (5.5 / (24.0 * 365.0), 1.0 / 365.0, 2.0 / 365.0,
                3.0 / 365.0, 5.0 / 365.0, 7.0 / 365.0)
_BENCH_LOG_MONEYNESS = 0.15


@dataclass(frozen=True)
class TimingRow:
    """Per-model wall-clock statistics over the bench trials (seconds)."""

    model_id: str
    dte0_mean: float
    dte0_half_width: float
    surface_mean: float
    surface_half_width: float

    def __post_init__(self) -> None:
        if self.dte0_half_width < 0.0 or self.surface_half_width < 0.0:
            raise ValueError("half-widths must be >= 0")


@dataclass(frozen=True)
class TimingReport:
    trials: int
    rows: tuple


def _price_tenors(model, theta, tenors, spot: float, quad: QuadratureConfig) -> float:
    """Price the 3-contract cross-section of each tenor; returns a checksum
    so the work cannot be optimized away."""
    sigma0 = model.spot_vol(theta)
    strikes = np.array([spot,
                        spot * math.exp(-_BENCH_LOG_MONEYNESS),
                        spot * math.exp(_BENCH_LOG_MONEYNESS)])
    total = 0.0
    for tau in tenors:
        calls = _checked_slice_calls(lambda u: model.cf_standardized(u, tau, theta),
                                     sigma0, tau, spot, 0.0, strikes, quad)
        # puts at and below spot via parity, matching the fixture's
        # ATM-put / OTM-put / OTM-call mix at identical cost
        total += float(np.where(strikes > spot, calls, _put_from_call(calls, spot, strikes)).sum())
    return total


def timing_bench(
    entries,
    trials: int,
    spot: float = 100.0,
    node_count: int = 2_000,
    tenors=BENCH_TENORS,
) -> TimingReport:
    """Wall-clock pricing bench on the 3-contracts-per-tenor fixture.

    ``entries`` is a sequence of (model_id, theta) pairs; every model is
    priced with the same Fourier node count.  Per trial and model two
    exercises are timed from scratch (fresh per-tenor CF grids): the
    shortest-tenor cross-section alone, then the full surface.  Reported
    half-widths are 1.96 x the standard error of the mean; a single trial
    reports zero width.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    quad = QuadratureConfig(node_count=node_count)
    resolved = [(model_id, get_model(model_id), theta) for model_id, theta in entries]
    times = np.zeros((len(resolved), 2, trials))
    for t in range(trials):
        for i, (_, model, theta) in enumerate(resolved):
            tic = time.perf_counter()
            _price_tenors(model, theta, tenors[:1], spot, quad)
            mid = time.perf_counter()
            _price_tenors(model, theta, tenors, spot, quad)
            toc = time.perf_counter()
            times[i, 0, t] = mid - tic
            times[i, 1, t] = toc - mid
    rows = []
    for i, (model_id, _, _) in enumerate(resolved):
        means = times[i].mean(axis=1)
        if trials > 1:
            hw = 1.96 * times[i].std(axis=1, ddof=1) / math.sqrt(trials)
        else:
            hw = np.zeros(2)
        rows.append(TimingRow(
            model_id=model_id,
            dte0_mean=float(means[0]),
            dte0_half_width=float(hw[0]),
            surface_mean=float(means[1]),
            surface_half_width=float(hw[1]),
        ))
    return TimingReport(trials=trials, rows=tuple(rows))
