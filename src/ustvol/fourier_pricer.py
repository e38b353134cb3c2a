"""Fourier inversion pricing of European options from a standardized-return CF.

The characteristic function Ψ(u, τ) of the standardized return
Z = (X_τ − X₀ − μ₀τ)/(σ₀√τ), μ₀ = r₀ − σ₀²/2, prices a call as

    C = S₀ [½ + (1/π)∫₀^∞ Re( e^{iu d₂} Ψ(u − iσ₀√τ) / (iu Ψ(−iσ₀√τ)) ) du]
      − K e^{−r₀τ} [½ + (1/π)∫₀^∞ Re( e^{iu d₂} Ψ(u) / (iu) ) du],

with d₂ = (X₀ − log K + (r₀ − σ₀²/2)τ)/(σ₀√τ).  The call-leg normalization
by Ψ(−iσ₀√τ) absorbs any drift left over by a CF that is only approximately
martingale-consistent (expansions, discretized benchmarks).

Integrals are discretized by the midpoint rule: n nodes u_k = (k + ½)u_max/n
of weight u_max/n, u_max adaptive (smallest U where |Ψ(U − iσ₀√τ)|/U drops
below 1e−12, capped at 2000).  Each leg's integrand is even in u and its
singularity at 0 removable, so this is half the shifted trapezoid over the
whole line, geometrically convergent (Trefethen & Weideman, SIAM Rev. 2014).
Every caller prices through one surface core (`_surface_calls`): one u_max
probe pass over its surface's tenors, each round one CF call with one τ per
frequency, then each tenor slice through one kernel.  A slice's CF values
are the normalizer point −iσ₀√τ and both legs' grids on two lines with the
same real parts, which a solver-backed CF solves and interpolates together;
a solver-backed model gets every slice's grid in one CF call per surface, a
closed form one call per slice.  The uniform nodes then factor each
strike's phase sum over a coarse × fine grid, for about 2√n complex
exponentials instead of n (the fractional FFT's algebra, Bailey &
Swarztrauber 1991, without an FFT, so strikes stay arbitrary).
The implied vols of a whole surface take one array solve of fixed length,
with one tenor per quote, not one solve per tenor: each quote's normalized
out-of-the-money price is inverted from Jäckel's rational initial guess
("Let's be rational", Wilmott 2015) by two Householder steps of order 3, so
every quote gets the same arithmetic whatever array it is in.  Puts
come from parity.  Plain Black–Scholes pricing and the scalar `implied_vol`
live here as well, since every consumer of the pricer needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

__all__ = [
    "QuadratureConfig",
    "CFNormalizationError",
    "NegativePriceError",
    "ArbitrageBoundsError",
    "bs_price",
    "implied_vol",
    "price_surface",
]

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
# Householder steps of order 3 after the rational guess: the guess is within
# ~10% of the root, each step raises the error to about its fourth power
_HOUSEHOLDER_STEPS = 2
# below this normalized price ln b in the steps comes from the erfcx form of
# b, whose Φ form would underflow
_TINY_BETA = 1e-200
_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / _SQRT_2PI
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_PI = 2.0 * math.pi
# the lower map is f = _LOWER_MAP·x·Φ(−|x|/(√3 s))³ at x ≤ 0
_LOWER_MAP = -2.0 * math.pi / math.sqrt(27.0)
# the rational cubic's control parameter: r > −1; r = 2/ε² is linear interpolation
_R_MIN = -(1.0 - math.sqrt(np.finfo(float).eps))
_R_MAX = 2.0 / np.finfo(float).eps ** 2
# rows of _rational_guess's table holding each branch's interpolation data:
# left and right abscissa, left and right value, left and right slope
_GUESS_ROWS = np.array([
    [0, 3, 4, 5],     # 0, b_l, b_c, b_u
    [3, 4, 5, 6],     # b_l, b_c, b_u, e^{x/2}
    [0, 7, 8, 11],    # 0, s_l, s_c, f_u
    [10, 8, 9, 0],    # f_l, s_c, s_u, 0
    [1, 12, 13, 16],  # 1, 1/v_l, 1/v_c, f_u'
    [15, 13, 14, 2],  # f_l', 1/v_c, 1/v_u, −1/2
])
_GUESS_ROWS.setflags(write=False)


class CFNormalizationError(ValueError):
    """|Ψ(−iσ₀√τ)| too small to normalize the call leg."""


class NegativePriceError(RuntimeError):
    """Quadrature produced a price far below intrinsic (misconfiguration)."""


class ArbitrageBoundsError(ValueError):
    """Option price outside its model-free no-arbitrage bounds."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Fourier grid: node_count midpoint nodes on [0, u_max], u_max adaptive per slice."""

    node_count: int = 10_000

    def __post_init__(self) -> None:
        if self.node_count < 100:
            raise ValueError(f"node_count must be >= 100, got {self.node_count}")


def _surface_u_max(cf: Callable, sigma0: float, taus) -> tuple:
    """u_max of each tenor of a surface: its smallest probe U with
    |Ψ(U − iσ₀√τ)|/U < 1e−12, capped at 2000.  Returns ``(u_max,
    truncated)``, two lists over ``taus``; a tenor is truncated where its
    u_max came from a failure or the cap rather than from the decay test.

    ``cf(u, tau)`` takes τ as a scalar or as an array of one tenor per
    frequency.  The probes are scanned in chunks of 8, every tenor still
    scanning in the same round, and each round is one CF call holding the
    chunk of each such tenor on its own shifted line, one τ per frequency (a
    lone tenor passes its scalar τ).  CFs backed by numerical solvers can
    fail far beyond the decay point (where their true value has underflown
    anyway), so a tenor whose chunk raises ValueError, ArithmeticError or
    RuntimeError, or turns non-finite before it decays, stops at the end of
    its last healthy chunk (at the cap if there is none) instead of letting
    one far-out failure poison its slice.  A round that raises fails only
    the tenors whose own calls raise (:func:`_tenor_values`), so each tenor
    stops exactly where it stops when probed alone.  Any other exception
    propagates.

    A solver-backed CF gives each tenor of a round the bits of a call of
    its own (the affine solve steps each tenor on its own), so a tenor's
    probe values do not move with the set of tenors in its round.
    """
    taus = [float(t) for t in taus]
    shifts = [-1j * sigma0 * math.sqrt(t) for t in taus]
    u_max, truncated = np.full(len(taus), _U_MAX_CAP), np.ones(len(taus), dtype=bool)
    scanning = np.arange(len(taus))
    for lo in range(0, _PROBES.size, 8):
        if not scanning.size:
            break
        chunk = _PROBES[lo:lo + 8]
        vals = _probe_round(cf, chunk, [shifts[j] for j in scanning], [taus[j] for j in scanning])
        # a tenor's probes count up to its first non-finite value
        healthy = np.logical_and.accumulate(np.isfinite(vals), axis=1)
        hit = healthy & (vals / chunk < _DECAY_THRESHOLD)
        decayed = hit.any(axis=1)
        u_max[scanning[decayed]] = chunk[np.argmax(hit[decayed], axis=1)]
        truncated[scanning[decayed]] = False
        if lo:  # a failure stops at the last healthy chunk's end
            u_max[scanning[~decayed & ~healthy[:, -1]]] = _PROBES[lo - 1]
        scanning = scanning[~decayed & healthy[:, -1]]
    u_max[scanning] = _PROBES[-1]  # no decay up to the cap
    return u_max.tolist(), truncated.tolist()


def _probe_round(cf: Callable, chunk, shifts: list, taus: list) -> np.ndarray:
    """|Ψ| on one probe chunk of each tenor, one row per tenor, from one CF
    call (:func:`_tenor_values`); a tenor whose own call raises gets a row
    of NaN."""
    vals, _ = _tenor_values(cf, np.concatenate([chunk + s for s in shifts]),
                            [chunk.size] * len(taus), taus)
    return np.abs(vals).reshape(len(taus), chunk.size)


def _tenor_values(cf: Callable, freqs, sizes: list, taus: list) -> tuple:
    """``cf`` at ``freqs``, the frequencies of each tenor of ``taus`` side
    by side, ``sizes`` of them per tenor, from one CF call with one τ per
    frequency (a lone tenor passes its scalar τ).  Returns the values and a
    dict from the index of each tenor whose values failed to its exception;
    its values are NaN.

    A call that raises ValueError, ArithmeticError or RuntimeError fails a
    tenor only where its own call raises.  A solver-backed CF's exception
    names the tenors that failed (``_tenor_errors``, from each such τ to
    the exception its call alone raises): those tenors fail with those
    exceptions, and the rest are solved again in one call.  An exception
    that names none of them (a closed form's, or a
    ``JumpTransformPoleError``) re-runs the call tenor by tenor.  Any other
    exception propagates."""
    try:
        return np.asarray(cf(freqs, taus[0] if len(taus) == 1 else np.repeat(taus, sizes))), {}
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        if len(taus) == 1:
            return np.full(freqs.size, np.nan), {0: exc}
        named = getattr(exc, "_tenor_errors", {})
    failed = {j: named[t] for j, t in enumerate(taus) if t in named}
    bounds = np.cumsum([0] + list(sizes)).tolist()
    parts = [freqs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if not failed:  # re-run tenor by tenor
        runs = [_tenor_values(cf, f, [f.size], [t]) for f, t in zip(parts, taus)]
        return (np.concatenate([vals for vals, _ in runs]),
                {j: errors[0] for j, (_, errors) in enumerate(runs) if errors})
    values = np.full(freqs.size, np.nan, dtype=np.complex128)
    rest = [j for j in range(len(taus)) if j not in failed]
    if rest:
        vals, more = _tenor_values(cf, np.concatenate([parts[j] for j in rest]),
                                   [sizes[j] for j in rest], [taus[j] for j in rest])
        offset = 0
        for j in rest:
            values[bounds[j]:bounds[j + 1]] = vals[offset:offset + sizes[j]]
            offset += sizes[j]
        failed.update((rest[k], exc) for k, exc in more.items())
    return values, failed


def _slice_nodes(st: float, n: int, u_max: float) -> tuple:
    """The midpoint nodes u_k = (k + ½)u_max/n of a slice, and the 2n + 2
    frequencies of its CF call: the normalizer −iσ₀√τ (``st`` = σ₀√τ), the
    shifted grid, u = 0 and the plain grid."""
    u = (u_max / n) * (np.arange(n) + 0.5)
    return u, np.concatenate([[-1j * st], u - 1j * st, [0.0], u])


def _slice_calls(cf: Callable, sigma0: float, tau: float, spot: float, rate: float,
                 strikes: Sequence[float], quad: QuadratureConfig, u_max: float) -> tuple:
    """Calls of one tenor slice on [0, ``u_max``], which the caller's
    surface probe gives (:func:`_surface_u_max`): one CF call for the
    normalizer and both legs' grids, then the midpoint sum as one phase sum
    per leg.  The call's 2n + 2 frequencies are the normalizer −iσ₀√τ, the
    shifted grid, u = 0 and the plain grid: each leg's line then spans the
    same real parts [0, u_{n−1}], so a solver-backed CF interpolates both
    legs from the same Chebyshev nodes through one kernel
    (``benchmarks._exponent_on_line``).

    The n nodes u_k = (k + ½)Δu are uniform, so with F = ⌈√n⌉, A = ⌈n/F⌉ and
    k = aF + b the phase factors exactly, e^{iu_k d₂} = e^{iu_{aF} d₂}·e^{ibΔu d₂}.
    1/(iu) and the normalizer fold into one (n, 2) column pair g (S₀ leg, K
    leg), zero-padded to A·F rows, and the common weight Δu = u_max/n into
    the final 1/π.  Each strike takes its A coarse phases times g as an
    (A, 2F) matrix, and the result contracted with its F fine phases.  The
    coarse product is one 1-row product per strike, never one matrix product
    over the slice: BLAS sums a GEMM's rows in an order set by the row count
    (1e-14 apart from the 1-row products on a 41 × 46 × 92 complex product),
    and a strike's price must be bit-identical whatever slice it is priced in.

    Prices are floored at intrinsic and capped at S₀.  Returns ``(calls,
    negative)``, where ``negative`` maps the index of each strike whose raw
    value fell below −1e−4·S₀ to its :class:`NegativePriceError`.
    """
    st = sigma0 * math.sqrt(tau)
    n = quad.node_count
    step = u_max / n
    # one call: the normalizer Ψ(−iσ₀√τ) sits on the shifted leg's line, at
    # Re u = 0, and the plain leg carries u = 0 (Ψ = 1, unused), so both
    # lines have the same real parts
    u, freqs = _slice_nodes(st, n, u_max)
    psi = np.asarray(cf(freqs))
    psi_norm, psi_shift, psi_plain = complex(psi[0]), psi[1:n + 1], psi[n + 2:]
    if abs(psi_norm) < _DECAY_THRESHOLD:
        raise CFNormalizationError(
            f"|Psi(-i*sigma0*sqrt(tau))| = {abs(psi_norm):.3e} "
            f"is numerically degenerate (tau={tau})"
        )

    # d₂ through math.log, whose bits do not depend on an array's layout as
    # numpy's log's can: a strike's price must not depend on its slice
    drift = (rate - 0.5 * sigma0**2) * tau
    d2 = np.array([(math.log(spot) - math.log(k) + drift) / st for k in strikes])
    disc_k = np.asarray(strikes, dtype=float) * math.exp(-rate * tau)
    # g: node k = aF + b of an A × F grid, zero-padded past n
    fine_n = math.isqrt(n - 1) + 1
    coarse_n = -(-n // fine_n)
    g = np.zeros((coarse_n * fine_n, 2), dtype=complex)
    g[:n, 0] = psi_shift / (1j * u * psi_norm)
    g[:n, 1] = psi_plain / (1j * u)
    # A + F complex exponentials per strike
    coarse = np.exp(1j * np.multiply.outer(d2, u[::fine_n]))
    fine = np.exp(1j * np.multiply.outer(d2, step * np.arange(fine_n)))
    partial = coarse[:, None, :] @ g.reshape(coarse_n, 2 * fine_n)
    leg_s, leg_k = np.einsum("sbk,sb->ks", partial.reshape(d2.size, fine_n, 2), fine).real
    raw = spot * (0.5 + step / math.pi * leg_s) - disc_k * (0.5 + step / math.pi * leg_k)
    negative = {
        int(j): NegativePriceError(
            f"raw call price {raw[j]:.6g} below -1e-4*spot; quadrature misconfigured "
            f"(strike={strikes[j]}, tau={tau})"
        )
        for j in np.flatnonzero(raw < -_NEGATIVE_TOL * spot)
    }
    return np.minimum(np.maximum(raw, np.maximum(spot - disc_k, 0.0)), spot), negative


def _surface_calls(model, theta, spot: float, rate: float, taus, strikes,
                   quad: QuadratureConfig) -> tuple:
    """Calls of a surface's tenor slices under ``model`` at ``theta``: one
    u_max probe pass over ``taus`` (:func:`_surface_u_max`), then one
    :func:`_slice_calls` per tenor on its array of ``strikes``.  The model's
    ``cf_standardized`` takes τ as a scalar or one tenor per frequency.

    A model whose ``_solver_backed`` is true (the registry's affine and
    rough models) gets every tenor's slice frequencies in one CF call, one τ
    per frequency, and each slice prices its part: its solver then runs
    once per order round of the whole surface, and gives each tenor the
    same values as a call of its own.  Any other model (the closed forms,
    whose one big grid costs more to build than it saves) makes one CF call
    per slice.  A tenor whose CF values or slice raise ValueError,
    ArithmeticError or RuntimeError fails alone (:func:`_tenor_values`, which
    solves the rest of a failed grid call again in one call): its calls are
    NaN and each of its strikes gets the exception; any other
    exception propagates.  Returns ``(calls, errors, truncated)``: the calls
    of every tenor's strikes concatenated in tenor order, a dict from the
    index in ``calls`` of each failed strike to its exception, in index
    order, and each tenor's u_max truncation flag.
    """
    sigma0 = model.spot_vol(theta)

    def cf(u, tau):
        return model.cf_standardized(u, tau, theta)

    u_max, truncated = _surface_u_max(cf, sigma0, taus)
    tenor_cfs = [lambda u, tau=tau: cf(u, tau) for tau in taus]
    cf_failed = {}
    if getattr(model, "_solver_backed", False):
        # each slice's kernel then takes its part of the one CF call
        grid_n = 2 * quad.node_count + 2
        values, cf_failed = _tenor_values(
            cf, np.concatenate([_slice_nodes(sigma0 * math.sqrt(t), quad.node_count, top)[1]
                                for t, top in zip(taus, u_max)]), [grid_n] * len(taus), taus)
        tenor_cfs = [lambda u, lo=i * grid_n: values[lo:lo + grid_n] for i in range(len(taus))]
    sizes = [len(k) for k in strikes]
    calls, errors, offset = np.empty(sum(sizes)), {}, 0
    for i, (tau, slice_strikes, size, top) in enumerate(zip(taus, strikes, sizes, u_max)):
        try:
            if i in cf_failed:  # its part of the one CF call failed
                raise cf_failed[i]
            part, failed = _slice_calls(tenor_cfs[i], sigma0, tau, spot, rate, slice_strikes, quad,
                                        top)
        except (ValueError, ArithmeticError, RuntimeError) as exc:  # fails its tenor only
            part, failed = np.nan, dict.fromkeys(range(size), exc)
        calls[offset:offset + size] = part
        errors.update((offset + j, exc) for j, exc in failed.items())
        offset += size
    return calls, errors, truncated


def _put_from_call(call, spot: float, disc_k):
    """Put/call parity, floored at intrinsic and capped at Ke^{−rτ}."""
    return np.minimum(np.maximum(call - spot + disc_k, np.maximum(disc_k - spot, 0.0)), disc_k)


def _tenor_factors(tau, rate: float) -> tuple:
    """√τ and e^{−rτ} for one tenor or one tenor per quote, each distinct
    tenor by ``math`` once, so a quote's bits do not depend on how its tenor
    was passed."""
    if np.ndim(tau) == 0:
        return math.sqrt(tau), math.exp(-rate * tau)
    taus, inverse = np.unique(tau, return_inverse=True)
    factors = np.array([(math.sqrt(t), math.exp(-rate * t)) for t in taus.tolist()])
    return factors[inverse, 0], factors[inverse, 1]


def _bs_prices(spot: float, strikes, tau, rate: float, vol, sign, factors=None):
    """Black–Scholes prices (``sign`` +1 calls, −1 puts) at vols > 0;
    ``factors`` is :func:`_tenor_factors` of ``tau`` where a caller has it."""
    root_tau, disc = factors or _tenor_factors(tau, rate)
    sq = vol * root_tau
    d1 = (np.log(spot / strikes) + (rate + 0.5 * vol * vol) * tau) / sq
    return sign * (spot * ndtr(sign * d1) - strikes * disc * ndtr(sign * (d1 - sq)))


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
    return float(_bs_prices(spot, strike, tau, rate, vol, 1.0 if is_call else -1.0))


def _normalized_black(x, s, e_pos, e_neg) -> tuple:
    """The normalized out-of-the-money Black price b(x, s) = e^{x/2}Φ(h + t)
    − e^{−x/2}Φ(h − t), h = x/s, t = s/2, at x = −|log(F/K)| ≤ 0 and total
    vol s = σ√τ, with e_pos = e^{x/2} and e_neg = e^{−x/2}.

    Returns ``(b, b', h)``, b' = ∂b/∂s = e^{x/2}φ(h + t).  A quote's price is
    √(S₀Ke^{−rτ})·b.
    """
    h = x / s
    up = h + 0.5 * s
    return (e_pos * ndtr(up) - e_neg * ndtr(up - s),
            e_pos * _INV_SQRT_2PI * np.exp(-0.5 * up * up), h)


def _log_tiny_black(x, s) -> tuple:
    """ln b and b'/b from b = ½e^{−(h² + t²)/2}[erfcx(−(h + t)/√2) −
    erfcx((t − h)/√2)], for b too small for the Φ form, whose terms
    underflow."""
    h_r, t_r = x / (_SQRT2 * s), s / (2.0 * _SQRT2)
    scaled = erfcx(-h_r - t_r) - erfcx(t_r - h_r)
    return np.log(0.5 * scaled) - (h_r * h_r + t_r * t_r), _SQRT_2_OVER_PI / scaled


def _rational_guess(beta, gap, x, e_pos, e_neg) -> tuple:
    """Jäckel's ("Let's be rational", Wilmott 2015) initial guess for the
    total vol s with b(x, s) = beta (gap = e^{x/2} − beta), and its branch
    0-3.

    Around s_c = √(2|x|), where b has its inflection point, the tangent at
    s_c meets b = 0 at s_l and b = e^{x/2} at s_u.  Between b(s_l) and
    b(s_u) (branches 1, 2) s(β) is a rational cubic through the breakpoints'
    values and slopes 1/b'; below b(s_l) (branch 0) the interpolated variable
    is f = (2π|x|/√27)Φ(−|x|/(√3 s))³, above b(s_u) (branch 3) f = Φ(−s/2),
    each then inverted in closed form.  Each rational cubic's control
    parameter is the least that keeps it monotone and convex (Delbourgo &
    Gregory 1985).  Jäckel raises it further where that fits the second
    derivative at the breakpoint; on 2466 (x, s) pairs that changed no
    branch's worst guess error by more than 0.003 and no vol after the two
    steps beyond rounding, so the fit and the maps' second derivatives are
    left out.
    """
    s_c = np.sqrt(-2.0 * x)
    b_c = 0.5 * e_pos - e_neg * ndtr(-s_c)
    iv_c = _SQRT_2PI * e_neg  # 1/b'(s_c)
    s_l = s_c - b_c * iv_c
    above_c = beta >= b_c
    zero = np.zeros(x.shape)
    # b at s_l, and at s_u where a quote lies above b_c, in one call; then
    # the upper map f_u and its β-derivative at s_u
    any_above = above_c.any()
    if any_above:
        s_u = s_c + (e_pos - b_c) * iv_c
        (b_l, b_u), vega, _ = _normalized_black(x, np.array([s_l, s_u]), e_pos, e_neg)
        iv_l, iv_u = 1.0 / vega
        w = x / s_u
        f_u = ndtr(-0.5 * s_u)
        fp_u = -0.5 * np.exp(0.5 * w * w)
        branch = 2 * above_c + np.where(above_c, beta > b_u, beta >= b_l)
    else:
        b_l, vega, _ = _normalized_black(x, s_l, e_pos, e_neg)
        iv_l = 1.0 / vega
        s_u = b_u = iv_u = f_u = fp_u = zero
        branch = (beta >= b_l).view(np.int8)
    # the lower map f_l and its β-derivative at s_l
    z = x / (-_SQRT3 * s_l)
    y = z * z
    cdf = ndtr(-z)
    f_l = (_LOWER_MAP * x) * (cdf * cdf * cdf)
    fp_l = _TWO_PI * y * cdf * cdf * np.exp(y + 0.125 * s_l * s_l)
    table = np.array([zero, zero + 1.0, zero - 0.5, b_l, b_c, b_u, e_pos, s_l, s_c, s_u,
                      f_l, f_u, iv_l, iv_c, iv_u, fp_l, fp_u])
    x_l, x_r, y_l, y_r, d_l, d_r = table[_GUESS_ROWS[:, branch], np.arange(x.size)]
    # the least monotone and convex control parameter r, with a = secant − d_r
    # and c = d_l − secant
    width = x_r - x_l
    rise = y_r - y_l
    secant = rise / width
    a, c = secant - d_r, d_l - secant
    r = np.fmax((d_r + d_l) / secant, np.abs(a + c) / np.minimum(np.abs(a), np.abs(c)))
    r = np.minimum(np.fmax(r, _R_MIN), _R_MAX)
    # the rational cubic, written as the chord plus its correction
    t = (beta - x_l) / width
    u = 1.0 - t
    if any_above:  # 1 − t would lose a quote's distance to its cap
        u = np.where(branch == 3, gap / width, u)
    f = y_l + t * (rise + width * u * (a * t + c * u) / (1.0 + (r - 3.0) * t * u))
    # round-off can leave f ≤ 0 at extreme |x|; then, as Jäckel does, the
    # quadratic through the breakpoint and the map's zero with its slope
    # there (1 at β = 0, −1/2 at β = e^{x/2})
    not_positive = ~(f > 0.0)
    if not_positive.any():
        quadratic = np.where(branch == 0, t * (y_r * t + width * u),
                             u * (y_l * u + 0.5 * width * t))
        f = np.where(not_positive, quadratic, f)
    s = np.where(branch == 0, x / (_SQRT3 * ndtri(np.cbrt(f / (_LOWER_MAP * x)))), f)
    return (np.where(branch == 3, -2.0 * ndtri(f), s) if any_above else s), branch


def _normalized_implied_vols(beta, gap, x) -> np.ndarray:
    """Total vols s with b(x, s) = beta: Jäckel's rational guess, then two
    Householder steps of order 3 on the guess branch's objective.

    ``gap`` is e^{x/2} − β, taken from the quote's distance to its price
    cap, where it is exact.  The objectives are 1/ln b − 1/ln β below s_l
    (branch 0), b − β between s_l and s_u, and ln(e^{x/2} − β) −
    ln(e^{x/2} − b) above s_u (branch 3), with e^{x/2} − b summed from its
    two positive terms.  Every quote takes the same two steps, so its vol
    does not depend on the other quotes of the array.
    """
    with np.errstate(all="ignore"):
        e_pos = np.exp(0.5 * x)
        e_neg = 1.0 / e_pos
        s, branch = _rational_guess(beta, gap, x, e_pos, e_neg)
        lower, upper = branch == 0, branch == 3
        any_upper = upper.any()
        # weights that zero the lower objective's terms off branch 0, where
        # they stay finite since b lies in (0, 1)
        neg_lower, two_lower = -1.0 * lower, 2.0 * lower
        # b stays above the Φ form's underflow where β ≥ 1e-200: the guess is
        # within 10% of the root, so ln b is within about h²/10 of ln β
        tiny = lower & (beta < _TINY_BETA)
        any_tiny = tiny.any()
        inv_ln_beta = 1.0 / np.log(beta)
        ln_gap_beta = np.log(gap) if any_upper else None
        for _ in range(_HOUSEHOLDER_STEPS):
            b, vega, h = _normalized_black(x, s, e_pos, e_neg)
            ln_b, lam = np.log(b), vega / b
            if any_tiny:
                ln_b[tiny], lam[tiny] = _log_tiny_black(x[tiny], s[tiny])
            # Householder's step ν(1 + γν/2)/(1 + ν(γ + δν/6)) on the
            # objective g: ν = −g/g', γ = g''/g' = b''/b' + p and
            # δ = g'''/g' = b'''/b' + 3p·b''/b' + 2p² − q, with
            # b''/b' = x²/s³ − s/4, b'''/b' = (b''/b')² − 3x²/s⁴ − 1/4 and
            # p = q = 0 for b − β; p = −(λ + 2m), q = 2m(λ + m) for the lower
            # objective (λ = b'/b, m = λ/ln b); p = b'/(e^{x/2} − b), q = 0
            # for the upper one.  q_4 is q + 1/4.
            m = lam / ln_b
            newton = np.where(lower, ln_b * (1.0 - ln_b * inv_ln_beta) / lam, (beta - b) / vega)
            p = (lam + 2.0 * m) * neg_lower
            q_4 = two_lower * m * (lam + m) + 0.25
            if any_upper:
                up = h + 0.5 * s
                gap_s = e_pos * ndtr(-up) + e_neg * ndtr(up - s)
                gap_p = vega / gap_s
                newton = np.where(upper, (np.log(gap_s) - ln_gap_beta) / gap_p, newton)
                p = np.where(upper, gap_p, p)
            hs = h / s
            halley = h * hs - 0.25 * s + p
            hh3 = halley * (halley + p) - 3.0 * hs * hs - q_4
            s = s + newton * (1.0 + 0.5 * halley * newton) / (
                1.0 + newton * (halley + hh3 * newton / 6.0))
    return s


def _implied_vols(prices, spot: float, strikes, tau, rate: float, is_call) -> np.ndarray:
    """Black–Scholes implied vols of same-shaped arrays of quotes, at one
    tenor ``tau`` or at one tenor per quote.

    NaN where a quote has none: a price at or below intrinsic, at or above
    S₀ (calls) or Ke^{−rτ} (puts), or outside the bracket's Black–Scholes
    prices.  The out-of-the-money time value, price − intrinsic, is reduced
    to the normalized price β = (price − intrinsic)/√(S₀Ke^{−rτ}) at
    x = −|log(F/K)| and inverted by :func:`_normalized_implied_vols` in a
    fixed number of steps; vols are clipped to the bracket.  Every operation
    is elementwise, so a quote's vol is the same bits whether its tenor came
    alone or per quote.
    """
    prices, strikes = np.asarray(prices, dtype=float), np.asarray(strikes, dtype=float)
    lo, hi = _IV_BRACKET
    sign = np.where(is_call, 1.0, -1.0)
    factors = root_tau, disc = _tenor_factors(tau, rate)
    disc_k = strikes * disc
    intrinsic = np.maximum(sign * (spot - disc_k), 0.0)
    cap = np.where(is_call, spot, disc_k)
    ok = ((prices > intrinsic) & (prices < cap)
          & (_bs_prices(spot, strikes, tau, rate, lo, sign, factors) <= prices)
          & (_bs_prices(spot, strikes, tau, rate, hi, sign, factors) >= prices))
    disc_k = disc_k[ok]
    root = np.sqrt(spot * disc_k)
    # by parity the out-of-the-money option's distance to its cap is the
    # quote's own, cap − price
    s = _normalized_implied_vols((prices - intrinsic)[ok] / root, (cap - prices)[ok] / root,
                                 -np.abs(np.log(spot / disc_k)))
    out = np.full(prices.shape, np.nan)
    out[ok] = np.minimum(np.maximum(s / (root_tau[ok] if np.ndim(root_tau) else root_tau), lo), hi)
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
    ``spot_vol(params)`` (the registry model bundles do); the CF takes τ as
    a scalar or one tenor per frequency.  One probe pass sets every tenor's
    u_max and the strikes of each tenor are priced as one array from a
    single set of CF grids, one CF call per surface for a solver-backed
    model (:func:`_surface_calls`); the puts then come from
    one parity pass and every contract of the surface is inverted by one
    array solve, one tenor per quote.  Per-contract failures are collected
    in the result's ``error`` field: an invalid contract, a negative raw
    price or a price without an IV fails that contract alone, a numerical
    CF failure the contracts of its tenor; a programming error (TypeError)
    propagates.

    Returns a list of dicts: strike, tau, call (call price), iv (inverted on
    the out-of-the-money side for conditioning), error (None on success) and
    u_max_truncated (whether the tenor's Fourier cutoff came from a CF
    failure or the cap rather than the decay test; False for a contract
    rejected before pricing).
    """
    quad = quad or QuadratureConfig()
    results: dict = {}
    for k, t in surface_grid:
        results.setdefault((k, t), {"strike": k, "tau": t, "call": None, "iv": None,
                                    "error": None, "u_max_truncated": False})
    slices: dict = {}
    for rec in results.values():
        try:
            for name, value in (("spot", spot), ("strike", rec["strike"]), ("tau", rec["tau"])):
                if not value > 0.0:
                    raise ValueError(f"{name} must be > 0, got {value}")
            slices.setdefault(rec["tau"], []).append(rec)
        except (TypeError, ValueError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"

    if slices:
        taus, counts = list(slices), [len(recs) for recs in slices.values()]
        recs = [rec for tenor_recs in slices.values() for rec in tenor_recs]
        strikes = np.array([rec["strike"] for rec in recs], dtype=float)
        calls, errors, truncated = _surface_calls(
            model, params, spot, rate, taus, np.split(strikes, np.cumsum(counts)[:-1]), quad)
        # e^{−rτ} and e^{rτ} by math once per tenor: a contract's bits must
        # not depend on the other tenors of its surface
        disc = np.repeat([math.exp(-rate * t) for t in taus], counts)
        otm_call = strikes >= spot * np.repeat([math.exp(rate * t) for t in taus], counts)
        prices = np.where(otm_call, calls, _put_from_call(calls, spot, strikes * disc))
        ivs = _implied_vols(prices, spot, strikes, np.repeat(np.array(taus, dtype=float), counts),
                            rate, otm_call)
        for j, (rec, call, iv, flag) in enumerate(zip(recs, calls.tolist(), ivs.tolist(),
                                                      np.repeat(truncated, counts).tolist())):
            rec["u_max_truncated"] = flag
            if j not in errors:
                rec["call"] = call
                if math.isnan(iv):
                    errors[j] = ArbitrageBoundsError(_NO_IV.format(prices[j], rec["strike"], rec["tau"]))
                else:
                    rec["iv"] = iv
            if j in errors:
                rec["error"] = f"{type(errors[j]).__name__}: {errors[j]}"

    return [dict(results[(k, t)]) for k, t in surface_grid]
