"""Short-tenor smile analytics and the pricing speed bench.

The quadratic smile expansion turns the frozen-coefficient parameters into
ATM level, skew and convexity, and ``timing_bench`` measures wall-clock
pricing cost per model on a fixed 3-contracts-by-6-tenors grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cf_edgeworth import EdgeworthParams
from .fourier_pricer import QuadratureConfig, _put_from_call, _surface_calls
from .registry import get_model

__all__ = [
    "SmileExpansion",
    "TimingRow",
    "TimingReport",
    "smile_expansion",
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
    """Price the 3-contract cross-section of each tenor through the
    pricer's surface core (:func:`~ustvol.fourier_pricer._surface_calls`:
    one probe pass, then one slice kernel call per tenor); a failed tenor or
    strike raises its error.  Returns a checksum, summed tenor by tenor, so
    the work cannot be optimized away."""
    strikes = np.array([spot,
                        spot * math.exp(-_BENCH_LOG_MONEYNESS),
                        spot * math.exp(_BENCH_LOG_MONEYNESS)])
    calls, errors, _ = _surface_calls(model, theta, spot, 0.0, tenors,
                                      [strikes] * len(tenors), quad)
    if errors:
        raise next(iter(errors.values()))
    # puts at and below spot via parity, matching the fixture's
    # ATM-put / OTM-put / OTM-call mix at identical cost
    every = np.tile(strikes, len(tenors))
    quotes = np.where(every > spot, calls, _put_from_call(calls, spot, every))
    total = 0.0
    for tenor_quotes in quotes.reshape(len(tenors), strikes.size):
        total += float(tenor_quotes.sum())
    return total


def timing_bench(
    entries,
    trials: int,
    spot: float = 100.0,
    node_count: int = 2_000,
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
            _price_tenors(model, theta, BENCH_TENORS[:1], spot, quad)
            mid = time.perf_counter()
            _price_tenors(model, theta, BENCH_TENORS, spot, quad)
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
