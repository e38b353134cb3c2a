"""Surface calibration: the vol-points RMSE objective, fit diagnostics and a
derivative-free box-constrained optimizer with restarts.

The objective is the nested average of squared implied-vol errors -- per
tenor first, then across tenors -- rooted and quoted in vol points (x100).
Market IVs come from mid premiums and are computed once per calibration.
Every evaluation re-prices each tenor slice once, its strikes as one array
from one set of CF grids, then inverts model IVs with one root-find per
quote.  The fit report (RMSE, bucket RMSEs and the bid/ask hit share) comes
out of that same single pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .bspp_bootstrap import AtmTermStructure, CalendarArbitrageError, calibrate_shift_from_atm
from .fourier_pricer import (
    ArbitrageBoundsError,
    QuadratureConfig,
    _checked_slice_calls,
    _put_from_call,
    implied_vol,
)
from .market_data import Surface, bucket_of
from .registry import ModelSpec, get_model

__all__ = [
    "ParamBounds",
    "CalibrationResult",
    "rmse",
    "bid_ask_fraction",
    "bucket_rmse",
    "calibrate",
]

_PENALTY = 1e6
_IV_BRACKET = (1e-6, 10.0)
_STAGNATION_TOL = 1e-4  # vol points


@dataclass(frozen=True)
class ParamBounds:
    """Per-parameter (lower, upper) box constraints."""

    bounds: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        )
        for i, (lo, hi) in enumerate(self.bounds):
            if not lo < hi:
                raise ValueError(f"bounds[{i}]: lower {lo} must be < upper {hi}")

    def __len__(self) -> int:
        return len(self.bounds)

    def clip(self, vector) -> np.ndarray:
        arr = np.asarray(vector, dtype=float)
        lo, hi = np.array(self.bounds).T
        return np.clip(arr, lo, hi)

    def widths(self) -> np.ndarray:
        arr = np.array(self.bounds)
        return arr[:, 1] - arr[:, 0]


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted vector with fit diagnostics and the optimizer's audit trail."""

    model_id: str
    params: tuple
    rmse: float
    bucket_rmse: dict = field(compare=False)
    bid_ask_fraction: float = 0.0
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

@dataclass(frozen=True)
class _SliceView:
    """Per-tenor market data frozen before optimization starts."""

    tau: float
    strikes: tuple
    is_call: tuple
    bids: tuple
    asks: tuple
    market_ivs: tuple
    buckets: tuple


def _market_view(surface: Surface, rate: float, mid_ivs: bool = True) -> list:
    """Per-tenor market data; with ``mid_ivs`` false the mid IVs are left NaN
    instead of inverted (and a mid without one is no error)."""
    views = []
    for sl in surface.slices:
        ivs = []
        for q in sl.quotes:
            if not mid_ivs:
                ivs.append(math.nan)
                continue
            try:
                ivs.append(implied_vol(
                    q.mid, surface.spot, q.strike, sl.tau, rate, is_call=q.is_call
                ))
            except ArbitrageBoundsError as exc:
                raise ValueError(
                    f"quote K={q.strike} tau={sl.tau} has no finite mid "
                    f"implied vol: {exc}"
                ) from exc
        views.append(_SliceView(
            tau=sl.tau,
            strikes=tuple(q.strike for q in sl.quotes),
            is_call=tuple(q.is_call for q in sl.quotes),
            bids=tuple(q.bid for q in sl.quotes),
            asks=tuple(q.ask for q in sl.quotes),
            market_ivs=tuple(ivs),
            buckets=tuple(bucket_of(m) for m in sl.moneyness),
        ))
    return views


def _slice_model_quotes(model, theta, view: _SliceView, spot, rate, quad):
    """Model premium (on each quote's side) and model IV per retained quote.

    IV inversion failures on the model side are clamped to the bracket edge
    nearer the price: a far-off parameter vector then scores a large finite
    error instead of poisoning the whole evaluation.
    """
    calls = _checked_slice_calls(
        lambda u: model.cf_standardized(u, view.tau, theta),
        model.spot_vol(theta), view.tau, spot, rate, view.strikes, quad,
    )
    prices, ivs = [], []
    for strike, is_call, call in zip(view.strikes, view.is_call, calls):
        disc_k = strike * math.exp(-rate * view.tau)
        price = call if is_call else _put_from_call(call, spot, disc_k)
        prices.append(price)
        try:
            ivs.append(implied_vol(price, spot, strike, view.tau, rate, is_call))
        except ArbitrageBoundsError:
            intrinsic = max(spot - disc_k, 0.0) if is_call else max(disc_k - spot, 0.0)
            near_floor = abs(price - intrinsic) < abs(price - (spot if is_call else disc_k))
            ivs.append(_IV_BRACKET[0] if near_floor else _IV_BRACKET[1])
    return prices, ivs


def _report(views, model, theta, spot, rate, quad) -> tuple:
    """One pass that prices every slice once: (vol-points RMSE, bucket RMSEs,
    share of quotes priced inside their bid/ask)."""
    per_tenor, cells, hits = [], {}, 0
    for idx, view in enumerate(views):
        if not view.strikes:
            raise ValueError(f"tenor {view.tau} has no quotes")
        prices, ivs = _slice_model_quotes(model, theta, view, spot, rate, quad)
        err = np.asarray(ivs) - np.asarray(view.market_ivs)
        per_tenor.append(float(np.mean(err * err)))
        for iv, miv, bucket in zip(ivs, view.market_ivs, view.buckets):
            cells.setdefault((idx, bucket), []).append((iv - miv) ** 2)
        hits += sum(b <= p <= a for p, b, a in zip(prices, view.bids, view.asks))
    buckets = {key: 100.0 * math.sqrt(float(np.mean(errs))) for key, errs in cells.items()}
    total = sum(len(view.strikes) for view in views)
    return 100.0 * math.sqrt(float(np.mean(per_tenor))), buckets, hits / total


def _resolve(model, params, tenors):
    """Accept either a native theta object or a flat parameter vector."""
    if isinstance(params, np.ndarray):
        return model.unpack(tuple(float(x) for x in params), tenors)
    if isinstance(params, (tuple, list)) and params and all(
        isinstance(x, (int, float, np.floating)) for x in params
    ):
        return model.unpack(tuple(float(x) for x in params), tenors)
    return params


def _as_model(model) -> ModelSpec:
    return get_model(model) if isinstance(model, str) else model


def rmse(surface: Surface, model, params, rate: float = 0.0,
         quad: QuadratureConfig | None = None) -> float:
    """Vol-points RMSE of model vs mid-market implied vols.

    100 x sqrt(mean over tenors of (mean squared IV error within tenor)).
    ``params`` may be the model's native theta or a flat vector.
    """
    return _surface_report(surface, model, params, rate, quad)[0]


def bid_ask_fraction(surface: Surface, model, params, rate: float = 0.0,
                     quad: QuadratureConfig | None = None) -> float:
    """Share of retained quotes whose model premium lies inside [bid, ask].

    Works from premiums alone, so quotes whose mid has no finite implied
    vol still count (they simply score as misses unless the model lands
    inside their spread).
    """
    return _surface_report(surface, model, params, rate, quad, mid_ivs=False)[2]


def bucket_rmse(surface: Surface, model, params, rate: float = 0.0,
                quad: QuadratureConfig | None = None) -> dict:
    """(tenor index, MoneynessBucket) -> vol-points RMSE over that cell."""
    return _surface_report(surface, model, params, rate, quad)[1]


def _surface_report(surface, model, params, rate, quad, mid_ivs=True) -> tuple:
    model = _as_model(model)
    theta = _resolve(model, params, surface.tenors)
    return _report(_market_view(surface, rate, mid_ivs), model, theta, surface.spot,
                   rate, quad or QuadratureConfig())


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
    bounds: ParamBounds | None = None,
    seed_params=None,
    rate: float = 0.0,
    quad: QuadratureConfig | None = None,
    budget: int = 20_000,
    restarts: int = 3,
    rng_seed: int = 0,
) -> CalibrationResult:
    """Fit ``model_id`` to a filtered surface by derivative-free search.

    Nelder-Mead under the parameter box, restarted ``restarts`` times from
    seeded perturbations of the incumbent; when restarts stagnate with
    budget left, a seeded differential-evolution sweep followed by a final
    polish spends the remainder.  Evaluations that raise ValueError,
    ArithmeticError or RuntimeError (invalid parameters, CF blow-ups) score
    a large penalty; any other exception propagates.  Deterministic for
    fixed inputs and ``rng_seed``.  If the evaluation budget runs out while
    the objective is still improving, the best-so-far vector is returned
    with ``converged=False``.
    """
    t_start = time.perf_counter()
    model = get_model(model_id)
    if not surface.slices or not any(s.quotes for s in surface.slices):
        raise ValueError("cannot calibrate an empty surface")
    tenors = surface.tenors
    expected = model.param_count(len(tenors))
    box = bounds or ParamBounds(model.default_bounds(len(tenors)))
    if len(box) != expected:
        raise ValueError(
            f"{model_id} on {len(tenors)} tenors needs {expected} bounds, "
            f"got {len(box)}"
        )
    quad = quad or QuadratureConfig()
    views = _market_view(surface, rate)

    if seed_params is not None:
        start = np.asarray(seed_params, dtype=float)
        if start.size != expected:
            raise ValueError(f"seed_params needs {expected} entries, got {start.size}")
        start = box.clip(start)
    else:
        start = box.clip(_bootstrap_start(model, surface))

    evals = 0
    best_val = math.inf
    best_vec = start.copy()
    trace: list = []

    def objective(vec) -> float:
        nonlocal evals, best_val, best_vec
        evals += 1
        try:
            theta = model.unpack(tuple(float(x) for x in vec), tenors)
            val = _report(views, model, theta, surface.spot, rate, quad)[0]
        except (ValueError, ArithmeticError, RuntimeError):
            val = _PENALTY
        if val < best_val:
            best_val = val
            best_vec = np.asarray(vec, dtype=float).copy()
            trace.append(val)
        return val

    rng = np.random.default_rng(rng_seed)
    scipy_bounds = list(box.bounds)
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
        jitter = rng.normal(0.0, 0.05, size=expected) * box.widths()
        run_nm(box.clip(best_vec + jitter), per_run)
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
    final_rmse, cells, fraction = _report(views, model, theta, surface.spot, rate, quad)
    result = CalibrationResult(
        model_id=model_id,
        params=tuple(float(x) for x in best_vec),
        rmse=final_rmse,
        bucket_rmse=cells,
        bid_ask_fraction=fraction,
        iterations=evals,
        wall_time=time.perf_counter() - t_start,
        converged=stagnated or best_val <= _STAGNATION_TOL,
        trace=tuple(trace),
    )
    return result
