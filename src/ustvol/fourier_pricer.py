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
tenor slice: after the u_max probe, one CF call holds the normalizer point
−iσ₀√τ and both legs' grids, so a solver-backed CF solves them together;
then the trapezoid runs as a phase sum whose uniform nodes factor over a
coarse × fine grid, so each strike costs about 2√n complex exponentials
instead of n (the algebra of the fractional FFT, Bailey & Swarztrauber 1991,
here without an FFT, so strikes stay arbitrary).
Implied vols of a slice take one array solve.  Puts come from parity.
Plain Black–Scholes pricing and a bracketed implied-vol inversion live here
as well, since every consumer of the pricer needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

__all__ = [
    "QuadratureConfig",
    "CFNormalizationError",
    "NegativePriceError",
    "ArbitrageBoundsError",
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
# implied vols are sought on this bracket; a price outside its BS image has none
_IV_BRACKET = (1e-6, 10.0)
_NO_IV = "price {:.6g} outside its arbitrage bounds or the BS image of [1e-06, 10] (K={}, tau={})"


class CFNormalizationError(ValueError):
    """|Ψ(−iσ₀√τ)| too small to normalize the call leg."""


class NegativePriceError(RuntimeError):
    """Quadrature produced a price far below intrinsic (misconfiguration)."""


class ArbitrageBoundsError(ValueError):
    """Option price outside its model-free no-arbitrage bounds."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Fourier grid: node_count trapezoid nodes on [1e−8, u_max], u_max the
    adaptive truncation bound of each tenor slice."""

    node_count: int = 10_000

    def __post_init__(self) -> None:
        if self.node_count < 100:
            raise ValueError(f"node_count must be >= 100, got {self.node_count}")


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
    """Calls of one tenor slice: the u_max probe, then one CF call for the
    normalizer and both legs' grids, then the trapezoid as one phase sum per
    leg.

    The n nodes u_k = u₀ + kΔu are uniform, so with F = ⌈√n⌉, A = ⌈n/F⌉ and
    k = aF + b the phase factors exactly, e^{iu_k d₂} = e^{iu_{aF} d₂}·e^{ibΔu d₂}.
    The trapezoid weights, 1/(iu) and the normalizer fold into one (n, 2)
    column pair g (S₀ leg, K leg), zero-padded to A·F rows; each strike then
    takes its A coarse phases times g as an (A, 2F) matrix, and the result
    contracted with its F fine phases.  The coarse product is one 1-row
    product per strike, never one matrix product over the slice: BLAS sums a
    GEMM's rows in an order set by the row count (1e-14 apart from the 1-row
    products on a 41 × 46 × 92 complex product), and a strike's price must
    be bit-identical whatever slice it is priced in.

    Prices are floored at intrinsic and capped at S₀.  Returns ``(calls,
    negative)``, where ``negative`` maps the index of each strike whose raw
    value fell below −1e−4·S₀ to its :class:`NegativePriceError`.
    """
    st = sigma0 * math.sqrt(tau)
    u = np.linspace(_U_MIN, _adaptive_u_max(cf, -1j * st), quad.node_count)
    n = u.size
    # one call: the normalizer Ψ(−iσ₀√τ) sits on the shifted leg's line, at Re u = 0
    psi = np.asarray(cf(np.concatenate([[-1j * st], u - 1j * st, u])))
    psi_norm, psi_shift, psi_plain = complex(psi[0]), psi[1:n + 1], psi[n + 1:]
    if abs(psi_norm) < _DECAY_THRESHOLD:
        raise CFNormalizationError(
            f"|Psi(-i*sigma0*sqrt(tau))| = {abs(psi_norm):.3e} "
            f"is numerically degenerate (tau={tau})"
        )

    # d₂ through math.log: numpy's vectorized log can differ in the last bit,
    # and prices are kept bit-identical to the scalar formula
    drift = (rate - 0.5 * sigma0**2) * tau
    d2 = np.array([(math.log(spot) - math.log(k) + drift) / st for k in strikes])
    disc_k = np.asarray(strikes, dtype=float) * math.exp(-rate * tau)
    # g: node k = aF + b of an A × F grid, zero-padded past n
    fine_n = math.isqrt(n - 1) + 1
    coarse_n = -(-n // fine_n)
    step = (u[-1] - u[0]) / (n - 1)
    weight = np.full(n, step)
    weight[[0, -1]] = 0.5 * step
    g = np.zeros((coarse_n * fine_n, 2), dtype=complex)
    g[:n, 0] = weight * psi_shift / (1j * u * psi_norm)
    g[:n, 1] = weight * psi_plain / (1j * u)
    # A + F complex exponentials per strike
    coarse = np.exp(1j * np.multiply.outer(d2, u[::fine_n]))
    fine = np.exp(1j * np.multiply.outer(d2, step * np.arange(fine_n)))
    partial = coarse[:, None, :] @ g.reshape(coarse_n, 2 * fine_n)
    leg_s, leg_k = np.einsum("sbk,sb->ks", partial.reshape(d2.size, fine_n, 2), fine).real
    raw = spot * (0.5 + leg_s / math.pi) - disc_k * (0.5 + leg_k / math.pi)
    negative = {
        int(j): NegativePriceError(
            f"raw call price {raw[j]:.6g} below -1e-4*spot; quadrature misconfigured "
            f"(strike={strikes[j]}, tau={tau})"
        )
        for j in np.flatnonzero(raw < -_NEGATIVE_TOL * spot)
    }
    return np.minimum(np.maximum(raw, np.maximum(spot - disc_k, 0.0)), spot), negative


def _checked_slice_calls(cf, sigma0, tau, spot, rate, strikes, quad) -> np.ndarray:
    """:func:`_slice_calls` for callers without per-contract errors: the
    first negative raw price raises."""
    calls, negative = _slice_calls(cf, sigma0, tau, spot, rate, strikes, quad)
    if negative:
        raise next(iter(negative.values()))
    return calls


def _put_from_call(call, spot: float, disc_k):
    """Put/call parity, floored at intrinsic and capped at Ke^{−rτ}."""
    return np.minimum(np.maximum(call - spot + disc_k, np.maximum(disc_k - spot, 0.0)), disc_k)


def _bs_prices(spot: float, strikes, tau: float, rate: float, vol, sign) -> tuple:
    """Black–Scholes prices (``sign`` +1 calls, −1 puts) and d₁ at vols > 0."""
    sq = vol * math.sqrt(tau)
    d1 = (np.log(spot / strikes) + (rate + 0.5 * vol * vol) * tau) / sq
    disc_k = strikes * math.exp(-rate * tau)
    return sign * (spot * ndtr(sign * d1) - disc_k * ndtr(sign * (d1 - sq))), d1


def bs_price(
    spot: float, strike: float, tau: float, rate: float, vol: float, is_call: bool = True
) -> float:
    """Black–Scholes price; vol=0 returns the discounted intrinsic value."""
    if spot <= 0.0 or strike <= 0.0 or tau <= 0.0:
        raise ValueError("spot, strike and tau must be > 0")
    if vol < 0.0:
        raise ValueError(f"vol must be >= 0, got {vol}")
    if vol == 0.0:
        intrinsic = spot - strike * math.exp(-rate * tau)
        return max(intrinsic, 0.0) if is_call else max(-intrinsic, 0.0)
    return float(_bs_prices(spot, strike, tau, rate, vol, 1.0 if is_call else -1.0)[0])


def _implied_vols(prices, spot: float, strikes, tau: float, rate: float, is_call) -> np.ndarray:
    """Black–Scholes implied vols of same-shaped arrays of quotes at one tenor.

    NaN where a quote has none: a price at or below intrinsic, at or above
    S₀ (calls) or Ke^{−rτ} (puts), or outside the bracket's Black–Scholes
    prices.  The out-of-the-money time value, price − intrinsic, is inverted
    by Newton steps from the Manaster–Koehler inflection point
    sqrt(2|log(F/K)|/τ), on the log of the time value where the iterate lies
    above the root, each kept inside its quote's bracket by bisection.
    """
    prices, strikes = np.asarray(prices, dtype=float), np.asarray(strikes, dtype=float)
    lo, hi = _IV_BRACKET
    sign = np.where(is_call, 1.0, -1.0)
    disc_k = strikes * math.exp(-rate * tau)
    intrinsic = np.maximum(sign * (spot - disc_k), 0.0)
    ok = ((prices > intrinsic) & (prices < np.where(is_call, spot, disc_k))
          & (_bs_prices(spot, strikes, tau, rate, lo, sign)[0] <= prices)
          & (_bs_prices(spot, strikes, tau, rate, hi, sign)[0] >= prices))
    otm_sign = np.where(disc_k >= spot, 1.0, -1.0)[ok]
    strikes, target = strikes[ok], (prices - intrinsic)[ok]
    vol = np.clip(np.sqrt(2.0 * np.abs(np.log(spot / strikes) + rate * tau) / tau), lo, hi)
    below, above = np.full(vol.shape, lo), np.full(vol.shape, hi)
    # Newton converges quadratically: after a step below 1e-12 only rounding
    # noise is left; bisection needs ~45 steps.  Above the root the step is
    # taken on log(time value), which is near linear in vol where the price
    # itself is steeply convex (deep wings, start far above the root)
    for _ in range(100):
        price, d1 = _bs_prices(spot, strikes, tau, rate, vol, otm_sign)
        gap = price - target
        below, above = np.where(gap < 0.0, vol, below), np.where(gap > 0.0, vol, above)
        # a vega that underflows makes the step infinite or NaN: bisection then
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = np.where(gap > 0.0, price * np.log(price / target), gap)
            step = vol - newton / (spot * math.sqrt(tau / (2.0 * math.pi)) * np.exp(-0.5 * d1 * d1))
        step = np.where((step >= below) & (step <= above), step, 0.5 * (below + above))
        vol, prev = step, vol
        if np.all(np.abs(vol - prev) <= 1e-12):
            break
    out = np.full(prices.shape, np.nan)
    out[ok] = vol
    return out


def implied_vol(
    price: float, spot: float, strike: float, tau: float, rate: float, is_call: bool = True
) -> float:
    """Invert Black–Scholes on the bracket [1e−6, 10].

    Raises :class:`ArbitrageBoundsError` when the price sits outside its
    model-free bounds (or below the bracket's smallest representable time
    value); ingestion relies on this to drop bad quotes.
    """
    vol = float(_implied_vols(price, spot, strike, tau, rate, is_call)[()])
    if math.isnan(vol):
        raise ArbitrageBoundsError(_NO_IV.format(price, strike, tau))
    return vol


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
    each tenor are priced as one array from a single set of CF grids, then
    inverted by one array solve.  Per-contract failures are collected in the
    result's ``error`` field: an invalid contract, a negative raw price or a
    price without an IV fails that contract alone, a numerical CF failure
    the contracts of its tenor; a programming error (TypeError) propagates.

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
            for name, value in (("spot", spot), ("strike", rec["strike"]), ("tau", rec["tau"])):
                if not value > 0.0:
                    raise ValueError(f"{name} must be > 0, got {value}")
            slices.setdefault(rec["tau"], []).append(rec)
        except (TypeError, ValueError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"

    for tau, recs in slices.items():
        strikes = np.array([rec["strike"] for rec in recs], dtype=float)
        try:
            calls, errors = _slice_calls(
                lambda u: model.cf_standardized(u, tau, params),
                sigma0, tau, spot, rate, strikes, quad,
            )
        except (ValueError, ArithmeticError, RuntimeError) as exc:  # fails its tenor only
            calls, errors = np.full(strikes.size, np.nan), dict.fromkeys(range(strikes.size), exc)
        otm_call = strikes >= spot * math.exp(rate * tau)
        puts = _put_from_call(calls, spot, strikes * math.exp(-rate * tau))
        prices = np.where(otm_call, calls, puts)
        ivs = _implied_vols(prices, spot, strikes, tau, rate, otm_call)
        for j, rec in enumerate(recs):
            if j not in errors:
                rec["call"] = float(calls[j])
                if np.isnan(ivs[j]):
                    errors[j] = ArbitrageBoundsError(_NO_IV.format(prices[j], rec["strike"], tau))
                else:
                    rec["iv"] = float(ivs[j])
            if j in errors:
                rec["error"] = f"{type(errors[j]).__name__}: {errors[j]}"

    return [dict(results[(k, t)]) for k, t in surface_grid]
