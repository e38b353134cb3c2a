"""Fourier inversion pricing of European options from a standardized-return CF.

The characteristic function Ψ(u, τ) of the standardized return
Z = (X_τ − X₀ − μ₀τ)/(σ₀√τ), μ₀ = r₀ − σ₀²/2, prices a call as

    C = S₀ [½ + (1/π)∫₀^∞ Re( e^{iu d₂} Ψ(u − iσ₀√τ) / (iu Ψ(−iσ₀√τ)) ) du]
      − K e^{−r₀τ} [½ + (1/π)∫₀^∞ Re( e^{iu d₂} Ψ(u) / (iu) ) du],

with d₂ = (X₀ − log K + (r₀ − σ₀²/2)τ)/(σ₀√τ).  The call-leg normalization
by Ψ(−iσ₀√τ) absorbs any drift left over by a CF that is only approximately
martingale-consistent (expansions, discretized benchmarks).

Integrals are discretized by a composite trapezoid on [u_min, u_max] with
u_min = 1e−8 and u_max adaptive (smallest U where |Ψ(U − iσ₀√τ)|/U drops
below 1e−12, capped at 2000).  Every caller prices through one kernel per
tenor slice: CF grids once per tenor, then the trapezoid over (strikes × nodes)
blocks.  Implied vols take one root-find per contract.  Puts come from put/call
parity.
Plain Black–Scholes pricing and a bracketed implied-vol inversion live here
as well, since every consumer of the pricer needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: float) -> float:
    # scalar-fast standard normal CDF; calibration inverts thousands of
    # quotes per objective evaluation through this in a brentq loop
    return 0.5 * math.erfc(-x / _SQRT2)

__all__ = [
    "PricingRequest",
    "QuadratureConfig",
    "CFNormalizationError",
    "NegativePriceError",
    "ArbitrageBoundsError",
    "call_price",
    "put_price",
    "bs_price",
    "implied_vol",
    "price_surface",
]

_U_MIN = 1e-8
_U_MAX_CAP = 2000.0
_DECAY_THRESHOLD = 1e-12
# u_max probe frequencies, scanned in blocks of 8
_PROBES = np.geomspace(5.0, _U_MAX_CAP, 40)
# raw quadrature output below −1e−4·S₀ signals a broken CF or truncation,
# not ordinary floating-point noise around the intrinsic floor
_NEGATIVE_TOL = 1e-4
# strikes × nodes per quadrature block, so the 256 KB complex temporaries stay
# in cache: at 2048 nodes on a 2-core Xeon (2 MB L2 per core), a 27- or
# 40-strike slice in one block took 10-30% longer than one strike at a time,
# and ~10% less in blocks of this size
_BLOCK_POINTS = 16_384


class CFNormalizationError(ValueError):
    """|Ψ(−iσ₀√τ)| too small to normalize the call leg."""


class NegativePriceError(RuntimeError):
    """Quadrature produced a price far below intrinsic (misconfiguration)."""


class ArbitrageBoundsError(ValueError):
    """Option price outside its model-free no-arbitrage bounds."""


@dataclass(frozen=True)
class PricingRequest:
    """One European option contract: spot S₀, strike K, tenor τ (years), r₀."""

    spot: float
    strike: float
    tau: float
    rate: float = 0.0
    is_call: bool = True

    def __post_init__(self) -> None:
        if not self.spot > 0.0:
            raise ValueError(f"spot must be > 0, got {self.spot}")
        if not self.strike > 0.0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Fourier grid: node_count trapezoid nodes on [1e−8, u_max].

    u_max=None selects the adaptive truncation bound.
    """

    node_count: int = 10_000
    u_max: float | None = None

    def __post_init__(self) -> None:
        if self.node_count < 100:
            raise ValueError(f"node_count must be >= 100, got {self.node_count}")
        if self.u_max is not None and not self.u_max > 0.0:
            raise ValueError(f"u_max must be > 0, got {self.u_max}")


def _adaptive_u_max(cf: Callable, shift: complex) -> float:
    """Smallest probe U with |Ψ(U + shift)|/U < 1e−12, capped at 2000.

    Probes in blocks of increasing frequency: CFs backed by numerical solvers
    can fail far beyond the decay point (where their true value has underflown
    anyway), so the scan truncates at the last healthy probe instead of
    letting one far-out failure poison the whole pricing call.
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


def _slice_calls(cf: Callable, sigma0: float, tau: float, spot: float, rate: float,
                 strikes: Sequence[float], quad: QuadratureConfig) -> tuple:
    """Calls of one tenor slice: one normalizer, u_max probe and pair of CF
    grids, then the trapezoid over (strikes × nodes) arrays.

    Prices are floored at intrinsic and capped at S₀.  Returns ``(calls,
    negative)``, where ``negative`` maps the index of each strike whose raw
    value fell below −1e−4·S₀ to its :class:`NegativePriceError`.
    """
    st = sigma0 * math.sqrt(tau)
    psi_norm = complex(np.asarray(cf(np.array([-1j * st])))[0])
    if abs(psi_norm) < _DECAY_THRESHOLD:
        raise CFNormalizationError(
            f"|Psi(-i*sigma0*sqrt(tau))| = {abs(psi_norm):.3e} "
            f"is numerically degenerate (tau={tau})"
        )
    u_max = quad.u_max if quad.u_max is not None else _adaptive_u_max(cf, -1j * st)
    u = np.linspace(_U_MIN, u_max, quad.node_count)
    psi_shift = np.asarray(cf(u - 1j * st))
    psi_plain = np.asarray(cf(u))

    # d₂ through math.log: numpy's vectorized log can differ in the last bit,
    # and prices are kept bit-identical to the scalar formula
    drift = (rate - 0.5 * sigma0**2) * tau
    d2 = np.array([(math.log(spot) - math.log(k) + drift) / st for k in strikes])
    disc_k = np.asarray(strikes, dtype=float) * math.exp(-rate * tau)
    iu = 1j * u
    leg_s, leg_k = np.empty(d2.size), np.empty(d2.size)
    rows = max(1, _BLOCK_POINTS // u.size)
    for lo in range(0, d2.size, rows):
        phase = np.exp(iu * d2[lo:lo + rows, None])
        leg_s[lo:lo + rows] = np.trapezoid(np.real(phase * psi_shift / (iu * psi_norm)), u)
        leg_k[lo:lo + rows] = np.trapezoid(np.real(phase * psi_plain / iu), u)
    raw = spot * (0.5 + leg_s / math.pi) - disc_k * (0.5 + leg_k / math.pi)
    negative = {
        int(j): NegativePriceError(
            f"raw call price {raw[j]:.6g} below -1e-4*spot; quadrature misconfigured "
            f"(strike={strikes[j]}, tau={tau})"
        )
        for j in np.flatnonzero(raw < -_NEGATIVE_TOL * spot)
    }
    return np.minimum(np.maximum(raw, np.maximum(spot - disc_k, 0.0)), spot).tolist(), negative


def _checked_slice_calls(cf, sigma0, tau, spot, rate, strikes, quad) -> list:
    """:func:`_slice_calls` for callers without per-contract errors: the
    first negative raw price raises."""
    calls, negative = _slice_calls(cf, sigma0, tau, spot, rate, strikes, quad)
    if negative:
        raise next(iter(negative.values()))
    return calls


def _put_from_call(call: float, spot: float, disc_k: float) -> float:
    """Put/call parity, floored at intrinsic and capped at Ke^{−rτ}."""
    return min(max(call - spot + disc_k, max(disc_k - spot, 0.0)), disc_k)


def call_price(
    req: PricingRequest,
    cf: Callable,
    sigma0: float,
    quad: QuadratureConfig | None = None,
) -> float:
    """Price a European call by Fourier inversion of a standardized-return CF.

    Parameters
    ----------
    req : PricingRequest
        Contract terms (``is_call`` is ignored; this op always prices the call).
    cf : callable
        Ψ(u, τ) for this tenor: maps a (possibly complex) frequency array to
        CF values of the standardized return.
    sigma0 : float
        The model's annualized spot volatility, anchoring the
        standardization and the call-leg argument shift.
    quad : QuadratureConfig, optional

    The raw quadrature value is floored at intrinsic max(S₀ − Ke^{−rτ}, 0)
    and capped at S₀.  A raw value below −1e−4·S₀ raises
    :class:`NegativePriceError`; a degenerate normalizer raises
    :class:`CFNormalizationError`.
    """
    return _checked_slice_calls(cf, sigma0, req.tau, req.spot, req.rate, [req.strike],
                                quad or QuadratureConfig())[0]


def put_price(
    req: PricingRequest,
    cf: Callable,
    sigma0: float,
    quad: QuadratureConfig | None = None,
) -> float:
    """European put via put/call parity, floored at intrinsic and capped at Ke^{−rτ}."""
    call = call_price(req, cf, sigma0, quad)
    return _put_from_call(call, req.spot, req.strike * math.exp(-req.rate * req.tau))


def bs_price(
    spot: float, strike: float, tau: float, rate: float, vol: float, is_call: bool = True
) -> float:
    """Black–Scholes price; vol=0 returns the discounted intrinsic value."""
    if spot <= 0.0 or strike <= 0.0 or tau <= 0.0:
        raise ValueError("spot, strike and tau must be > 0")
    if vol < 0.0:
        raise ValueError(f"vol must be >= 0, got {vol}")
    disc_k = strike * math.exp(-rate * tau)
    if vol == 0.0:
        intrinsic = spot - disc_k
        return max(intrinsic, 0.0) if is_call else max(-intrinsic, 0.0)
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * tau) / sq
    d2 = d1 - sq
    if is_call:
        return spot * _norm_cdf(d1) - disc_k * _norm_cdf(d2)
    return disc_k * _norm_cdf(-d2) - spot * _norm_cdf(-d1)


def implied_vol(
    price: float, spot: float, strike: float, tau: float, rate: float, is_call: bool = True
) -> float:
    """Invert Black–Scholes on the bracket [1e−6, 10].

    Raises :class:`ArbitrageBoundsError` when the price sits outside its
    model-free bounds (or below the bracket's smallest representable time
    value); ingestion relies on this to drop bad quotes.
    """
    disc_k = strike * math.exp(-rate * tau)
    intrinsic = max(spot - disc_k, 0.0) if is_call else max(disc_k - spot, 0.0)
    upper = spot if is_call else disc_k
    if price <= intrinsic or price >= upper:
        raise ArbitrageBoundsError(
            f"price {price:.6g} outside arbitrage bounds ({intrinsic:.6g}, {upper:.6g}) "
            f"for K={strike}, tau={tau}"
        )
    lo, hi = 1e-6, 10.0
    f_lo = bs_price(spot, strike, tau, rate, lo, is_call) - price
    f_hi = bs_price(spot, strike, tau, rate, hi, is_call) - price
    if f_lo > 0.0:
        raise ArbitrageBoundsError(
            f"price {price:.6g} below the vol={lo} Black–Scholes value; "
            "no implied volatility in bracket"
        )
    if f_hi < 0.0:
        raise ArbitrageBoundsError(
            f"price {price:.6g} above the vol={hi} Black–Scholes value; "
            "no implied volatility in bracket"
        )
    return float(
        brentq(
            lambda v: bs_price(spot, strike, tau, rate, v, is_call) - price,
            lo,
            hi,
            xtol=1e-14,
            rtol=8.9e-16,
        )
    )


def price_surface(
    surface_grid: Sequence[tuple],
    model,
    params,
    spot: float,
    rate: float = 0.0,
    quad: QuadratureConfig | None = None,
) -> list:
    """Price a (strike, tenor) grid under one model and invert to IVs.

    ``model`` is any object exposing ``cf_standardized(u, tau, params)`` and
    ``spot_vol(params)`` (the registry model bundles do).  The strikes of
    each tenor are priced as one array from a single set of CF grids; each
    IV is then one root-find per contract.  Per-contract failures are
    collected in the result's ``error`` field, not raised: an invalid
    contract or a negative raw price fails that contract alone, a CF failure
    the contracts of its tenor.

    Returns a list of dicts: strike, tau, call (call price), iv (inverted on
    the out-of-the-money side for conditioning), error (None on success).
    """
    quad = quad or QuadratureConfig()
    sigma0 = model.spot_vol(params)
    results: dict = {}
    for k, t in surface_grid:
        results.setdefault((k, t), {"strike": k, "tau": t, "call": None, "iv": None, "error": None})
    slices: dict = {}
    for rec in results.values():
        try:
            PricingRequest(spot=spot, strike=rec["strike"], tau=rec["tau"], rate=rate)
            slices.setdefault(rec["tau"], []).append(rec)
        except (TypeError, ValueError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"

    for tau, recs in slices.items():
        try:
            calls, errors = _slice_calls(
                lambda u: model.cf_standardized(u, tau, params),
                sigma0, tau, spot, rate, [rec["strike"] for rec in recs], quad,
            )
        except Exception as exc:  # a failed tenor fails its own contracts only
            calls, errors = [None] * len(recs), dict.fromkeys(range(len(recs)), exc)
        for j, (rec, call) in enumerate(zip(recs, calls)):
            try:
                if j in errors:
                    raise errors[j]
                rec["call"] = call
                strike = rec["strike"]
                if strike >= spot * math.exp(rate * tau):
                    rec["iv"] = implied_vol(call, spot, strike, tau, rate, is_call=True)
                else:
                    put = _put_from_call(call, spot, strike * math.exp(-rate * tau))
                    rec["iv"] = implied_vol(put, spot, strike, tau, rate, is_call=False)
            except Exception as exc:  # per-contract errors collected, not fatal
                rec["error"] = f"{type(exc).__name__}: {exc}"

    return [dict(results[(k, t)]) for k, t in surface_grid]
