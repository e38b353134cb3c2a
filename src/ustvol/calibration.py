"""Surface calibration: the vol-points RMSE objective, fit diagnostics and a
derivative-free box-constrained optimizer with restarts.

The objective is the nested average of squared implied-vol errors -- per
tenor first, then across tenors -- rooted and quoted in vol points (x100).
The quotes are frozen once per calibration as flat arrays, with their market
IVs from mid premiums.  Every evaluation is one flat pass: one u_max probe
pass over the tenors, then each tenor's distinct strikes priced once, from
one set of CF grids, the calls scattered to the quotes (puts by parity), and
every quote of the surface inverted in one array solve.  The fit report
(RMSE, bucket RMSEs, the bid/ask hit share, the count of model IVs clamped
to the bracket edge and the count of tenors whose Fourier cutoff u_max is a
truncation rather than a decay point) comes from the same pass at the final
vector.  The search box is the registry's ``default_bounds`` and the start
the BS++ bootstrap of the ATM term structure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bspp_bootstrap import AtmTermStructure, CalendarArbitrageError, calibrate_shift_from_atm
from .fourier_pricer import (
    ArbitrageBoundsError,
    QuadratureConfig,
    _IV_BRACKET,
    _implied_vols,
    _put_from_call,
    _surface_calls,
    _tenor_factors,
    implied_vol,
)
from .market_data import MoneynessBucket, Surface, bucket_of
from .registry import ModelSpec, get_model

__all__ = [
    "CalibrationResult",
    "rmse",
    "calibrate",
]

_PENALTY = 1e6
_STAGNATION_TOL = 1e-4  # vol points


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted vector with fit diagnostics and the optimizer's audit trail."""

    model_id: str
    params: tuple
    rmse: float
    bucket_rmse: dict = field(compare=False)
    bid_ask_fraction: float = 0.0
    iv_clamps: int = 0
    u_max_truncations: int = 0
    iterations: int = 0
    wall_time: float = 0.0
    converged: bool = False
    trace: tuple = ()

    def __post_init__(self) -> None:
        if self.rmse < 0.0:
            raise ValueError("rmse must be >= 0")
        if not 0.0 <= self.bid_ask_fraction <= 1.0:
            raise ValueError("bid_ask_fraction must lie in [0, 1]")


# ---------------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------------

_BUCKETS = tuple(MoneynessBucket)


@dataclass(frozen=True)
class _MarketView:
    """The surface's quotes as flat arrays in slice order, frozen before
    optimization starts.

    Per tenor: ``tenors``, the sorted distinct strikes ``distinct``, the
    index ``starts`` of its first quote and its quote ``counts``.
    ``scatter`` maps each quote to its strike in the concatenated distinct
    strikes.  Per quote: ``tau``, ``strikes``, ``is_call``, the discounted
    strike ``disc_k``, the intrinsic ``floor`` and the ``cap`` (S₀ or
    Ke^{−rτ}) on its side, ``bids``, ``asks``, ``market_ivs`` and ``cells``,
    the bucket cell tenor·len(_BUCKETS) + bucket.
    """

    tenors: tuple
    distinct: tuple
    starts: np.ndarray
    counts: np.ndarray
    scatter: np.ndarray
    tau: np.ndarray
    strikes: np.ndarray
    is_call: np.ndarray
    disc_k: np.ndarray
    floor: np.ndarray
    cap: np.ndarray
    bids: np.ndarray
    asks: np.ndarray
    market_ivs: np.ndarray
    cells: np.ndarray


def _market_view(surface: Surface, rate: float) -> _MarketView:
    """Flat market data; a tenor without quotes or a mid without an implied
    vol is a ValueError."""
    for sl in surface.slices:
        if not sl.quotes:
            raise ValueError(f"tenor {sl.tau} has no quotes")
    quotes = [(sl.tau, q) for sl in surface.slices for q in sl.quotes]
    tau = np.array([t for t, _ in quotes])
    strikes = np.array([q.strike for _, q in quotes])
    is_call = np.array([q.is_call for _, q in quotes])
    mids = np.array([q.mid for _, q in quotes])
    market_ivs = _implied_vols(mids, surface.spot, strikes, tau, rate, is_call)
    try:  # the scalar inversion of the first mid without an IV raises and says why
        for j in np.flatnonzero(np.isnan(market_ivs)).tolist():
            implied_vol(mids[j], surface.spot, strikes[j], tau[j], rate, is_call=is_call[j])
    except ArbitrageBoundsError as exc:
        raise ValueError(
            f"quote K={strikes[j]} tau={tau[j]} has no finite mid implied vol: {exc}"
        ) from exc

    counts = np.array([len(sl.quotes) for sl in surface.slices])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    disc_k = strikes * _tenor_factors(tau, rate)[1]
    distinct, scatter, offset = [], [], 0
    for start, count in zip(starts.tolist(), counts.tolist()):
        unique, inverse = np.unique(strikes[start:start + count], return_inverse=True)
        distinct.append(unique)
        scatter.append(inverse + offset)
        offset += unique.size
    cells = [idx * len(_BUCKETS) + _BUCKETS.index(bucket_of(m))
             for idx, sl in enumerate(surface.slices) for m in sl.moneyness]
    return _MarketView(
        tenors=surface.tenors,
        distinct=tuple(distinct),
        starts=starts,
        counts=counts,
        scatter=np.concatenate(scatter),
        tau=tau,
        strikes=strikes,
        is_call=is_call,
        disc_k=disc_k,
        floor=np.maximum(np.where(is_call, surface.spot - disc_k, disc_k - surface.spot), 0.0),
        cap=np.where(is_call, surface.spot, disc_k),
        bids=np.array([q.bid for _, q in quotes]),
        asks=np.array([q.ask for _, q in quotes]),
        market_ivs=market_ivs,
        cells=np.array(cells),
    )


def _model_quotes(view: _MarketView, model, theta, spot, rate, quad) -> tuple:
    """Model premium on each quote's side, model IV per quote, the mask of
    IVs clamped to the bracket edge, and the count of tenors whose u_max is
    a truncation (a CF failure or the cap, not the decay point).

    Each tenor's distinct strikes are priced once by the surface core
    (:func:`~ustvol.fourier_pricer._surface_calls`: one probe pass, then
    one slice kernel call per tenor), the calls scattered to the quotes and
    the puts taken by parity; all quotes' IVs then come from one solve per
    surface.  A failed tenor or strike raises its error.  IV inversion
    failures on the model side are clamped to the bracket edge nearer the
    price: a far-off parameter vector then scores a large finite error
    instead of poisoning the whole evaluation.
    """
    calls, errors, truncated = _surface_calls(model, theta, spot, rate, view.tenors,
                                              view.distinct, quad)
    if errors:
        raise next(iter(errors.values()))
    calls = calls[view.scatter]
    prices = np.where(view.is_call, calls, _put_from_call(calls, spot, view.disc_k))
    ivs = _implied_vols(prices, spot, view.strikes, view.tau, rate, view.is_call)
    clamped = np.isnan(ivs)
    near_floor = np.abs(prices - view.floor) < np.abs(prices - view.cap)
    return (prices, np.where(clamped, np.where(near_floor, *_IV_BRACKET), ivs), clamped,
            sum(truncated))


def _nested_rmse(view: _MarketView, ivs) -> float:
    """100·√(mean over tenors of the mean squared IV error within the tenor)."""
    err = ivs - view.market_ivs
    per_tenor = np.add.reduceat(err * err, view.starts) / view.counts
    return 100.0 * math.sqrt(float(np.mean(per_tenor)))


def _report(view: _MarketView, model, theta, spot, rate, quad) -> tuple:
    """The fit report at theta from one flat pass: (vol-points RMSE, bucket
    RMSEs, share of quotes priced inside their bid/ask, count of model IVs
    clamped to the bracket edge, count of u_max truncations)."""
    prices, ivs, clamped, truncations = _model_quotes(view, model, theta, spot, rate, quad)
    err = ivs - view.market_ivs
    sums = np.bincount(view.cells, weights=err * err)
    sizes = np.bincount(view.cells)
    buckets = {
        (cell // len(_BUCKETS), _BUCKETS[cell % len(_BUCKETS)]):
            100.0 * math.sqrt(float(sums[cell] / sizes[cell]))
        for cell in np.flatnonzero(sizes).tolist()
    }
    hits = np.count_nonzero((view.bids <= prices) & (prices <= view.asks))
    return (_nested_rmse(view, ivs), buckets, hits / prices.size,
            int(np.count_nonzero(clamped)), truncations)


def _resolve(model, params, tenors):
    """Accept either a native theta object or a flat parameter vector."""
    if isinstance(params, np.ndarray):
        return model.unpack(tuple(float(x) for x in params), tenors)
    if isinstance(params, (tuple, list)) and params and all(
        isinstance(x, (int, float, np.floating)) for x in params
    ):
        return model.unpack(tuple(float(x) for x in params), tenors)
    return params


def rmse(surface: Surface, model, params, rate: float = 0.0,
         quad: QuadratureConfig | None = None) -> float:
    """Vol-points RMSE of model vs mid-market implied vols.

    100 x sqrt(mean over tenors of (mean squared IV error within tenor)).
    ``model`` may be a model id or a ``ModelSpec``, ``params`` the model's
    native theta or a flat vector.
    """
    model = get_model(model) if isinstance(model, str) else model
    theta = _resolve(model, params, surface.tenors)
    return _report(_market_view(surface, rate), model, theta, surface.spot,
                   rate, quad or QuadratureConfig())[0]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _bootstrap_start(model: ModelSpec, surface: Surface) -> np.ndarray:
    """Starting vector; BS++-bootstrapped sigma0 and shifts where they exist."""
    tenors = surface.tenors
    atm = surface.slices[0].atm_vol
    start = np.asarray(model.default_start(tenors, atm_vol=atm), dtype=float)
    if model.shift_style == "vol":
        try:
            sigma0, shifts = calibrate_shift_from_atm(AtmTermStructure(
                tenors=tenors, atm_vols=tuple(s.atm_vol for s in surface.slices)
            ))
        except CalendarArbitrageError:
            return start  # arbitrage in the ATM slice: fall back to defaults
        start[0] = sigma0
        if len(shifts):
            start[-len(shifts):] = shifts
    return start


def calibrate(
    surface: Surface,
    model_id: str,
    rate: float = 0.0,
    quad: QuadratureConfig | None = None,
    budget: int = 20_000,
    restarts: int = 3,
    rng_seed: int = 0,
) -> CalibrationResult:
    """Fit ``model_id`` to a filtered surface by derivative-free search.

    The search starts from the BS++ bootstrap of the ATM term structure
    (sigma0 and the shifts, for models with volatility shifts) or else the
    model's default start, clipped to the box ``default_bounds``.
    Nelder-Mead under that box, restarted ``restarts`` times from
    seeded perturbations of the incumbent; when restarts stagnate with
    budget left, a seeded differential-evolution sweep followed by a final
    polish spends the remainder.  Evaluations that raise ValueError,
    ArithmeticError or RuntimeError (invalid parameters, CF blow-ups) score
    a large penalty; any other exception propagates.  Deterministic for
    fixed inputs and ``rng_seed``.  If the evaluation budget runs out while
    the objective is still improving, the best-so-far vector is returned
    with ``converged=False``.
    """
    # imported here: scipy.optimize is most of the package's import time,
    # and only a fit needs it
    from scipy import optimize

    t_start = time.perf_counter()
    if budget < 1 or restarts < 0:
        raise ValueError(f"need budget >= 1 and restarts >= 0, got {budget} and {restarts}")
    model = get_model(model_id)
    if not surface.slices or not any(s.quotes for s in surface.slices):
        raise ValueError("cannot calibrate an empty surface")
    tenors = surface.tenors
    expected = model.param_count(len(tenors))
    scipy_bounds = list(model.default_bounds(len(tenors)))
    lo, hi = np.array(scipy_bounds).T
    quad = quad or QuadratureConfig()
    view = _market_view(surface, rate)
    start = np.clip(_bootstrap_start(model, surface), lo, hi)

    evals = 0
    best_val = math.inf
    best_vec = start.copy()
    trace: list = []

    def objective(vec) -> float:
        nonlocal evals, best_val, best_vec
        evals += 1
        try:
            theta = model.unpack(tuple(float(x) for x in vec), tenors)
            val = _nested_rmse(view, _model_quotes(view, model, theta, surface.spot,
                                                   rate, quad)[1])
        except (ValueError, ArithmeticError, RuntimeError):
            val = _PENALTY
        if val < best_val:
            best_val = val
            best_vec = np.asarray(vec, dtype=float).copy()
            trace.append(val)
        return val

    rng = np.random.default_rng(rng_seed)
    per_run = max(budget // (restarts + 2), 50)

    def run_nm(x0, maxfev) -> None:
        optimize.minimize(
            objective, x0, method="Nelder-Mead", bounds=scipy_bounds,
            options={"maxfev": maxfev, "xatol": 1e-7, "fatol": 1e-9,
                     "adaptive": len(x0) > 8},
        )

    run_nm(start, per_run)
    stagnated = False
    for _ in range(restarts):
        before = best_val
        jitter = rng.normal(0.0, 0.05, size=expected) * (hi - lo)
        run_nm(np.clip(best_vec + jitter, lo, hi), per_run)
        if before - best_val < _STAGNATION_TOL:
            stagnated = True
            break
        if evals >= budget:
            break

    remaining = budget - evals
    if stagnated and best_val > _STAGNATION_TOL and remaining >= 20 * expected:
        # restarts have flattened out on a non-trivial objective: sweep the
        # box with a seeded population, then polish the winner
        popsize = 6
        gens = max(remaining // (2 * popsize * expected), 2)
        optimize.differential_evolution(
            objective, scipy_bounds, maxiter=gens, popsize=popsize,
            seed=rng_seed, polish=False, init="sobol", tol=1e-10,
        )
        run_nm(best_vec, max(budget - evals, 50))

    theta = model.unpack(tuple(float(x) for x in best_vec), tenors)
    final_rmse, cells, fraction, clamps, truncations = _report(
        view, model, theta, surface.spot, rate, quad)
    result = CalibrationResult(
        model_id=model_id,
        params=tuple(float(x) for x in best_vec),
        rmse=final_rmse,
        bucket_rmse=cells,
        bid_ask_fraction=fraction,
        iv_clamps=clamps,
        u_max_truncations=truncations,
        iterations=evals,
        wall_time=time.perf_counter() - t_start,
        converged=stagnated or best_val <= _STAGNATION_TOL,
        trace=tuple(trace),
    )
    return result
