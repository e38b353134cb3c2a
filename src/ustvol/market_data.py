"""Option-quote ingestion: CSV parsing, implied forwards, standardized
log-moneyness, quote filters and surface assembly.

A surface is built in a fixed pipeline: keep strictly positive quotes, drop
excluded snapshot dates, compute one implied forward and one ATM vol per
tenor, apply the standardized-moneyness window, and keep the shortest
tenors.  Every dropped quote is counted under the reason that removed it,
and the stages commute with re-running the filter (idempotence is tested).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from datetime import datetime

from .fourier_pricer import ArbitrageBoundsError, implied_vol

__all__ = [
    "OptionQuote",
    "TenorSlice",
    "Surface",
    "IngestConfig",
    "MoneynessBucket",
    "bucket_of",
    "implied_forward",
    "log_moneyness",
    "atm_vol_for_tenor",
    "filter_surface",
    "read_quotes_csv",
]

MONEYNESS_WINDOW = (-15.0, 5.0)
_SECONDS_PER_YEAR = 365.0 * 86400.0  # ACT/365 with the intraday fraction


@dataclass(frozen=True)
class OptionQuote:
    """One side-tagged quote: strike, year-fraction tenor, bid/ask premiums."""

    strike: float
    tenor: float
    bid: float
    ask: float
    is_call: bool
    timestamp: str = ""

    def __post_init__(self) -> None:
        if not self.strike > 0.0 or not self.tenor > 0.0:
            raise ValueError(
                f"strike and tenor must be > 0, got K={self.strike}, tau={self.tenor}"
            )
        if not 0.0 <= self.bid <= self.ask:
            raise ValueError(
                f"need ask >= bid >= 0, got bid={self.bid}, ask={self.ask}"
            )

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


class MoneynessBucket(enum.Enum):
    DOTMP = "DOTMP"
    OTMP = "OTMP"
    ATM = "ATM"
    OTMC = "OTMC"
    DOTMC = "DOTMC"


def bucket_of(m: float) -> MoneynessBucket:
    """Bucket of a standardized log-moneyness (boundaries assigned upward)."""
    if m < -1.0:
        return MoneynessBucket.DOTMP
    if m < -0.35:
        return MoneynessBucket.OTMP
    if m < 0.35:
        return MoneynessBucket.ATM
    if m < 1.0:
        return MoneynessBucket.OTMC
    return MoneynessBucket.DOTMC


@dataclass(frozen=True)
class TenorSlice:
    """Retained quotes of one tenor with its forward and ATM anchor vol."""

    tau: float
    forward: float
    atm_vol: float
    quotes: tuple
    moneyness: tuple

    def __post_init__(self) -> None:
        if len(self.quotes) != len(self.moneyness):
            raise ValueError("one moneyness value per quote required")


@dataclass(frozen=True)
class Surface:
    """Filtered quote surface; ``drop_counts`` records why quotes fell out."""

    spot: float
    slices: tuple
    drop_counts: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        taus = [s.tau for s in self.slices]
        if sorted(taus) != taus:
            raise ValueError("tenor slices must be sorted by tau")

    @property
    def tenors(self) -> tuple:
        return tuple(s.tau for s in self.slices)


@dataclass(frozen=True)
class IngestConfig:
    max_tenors: int = 6
    rate: float = 0.0
    exclude_dates: tuple = ()

    def __post_init__(self) -> None:
        if self.max_tenors < 1:
            raise ValueError(f"max_tenors must be >= 1, got {self.max_tenors}")


def log_moneyness(strike: float, forward: float, sigma_bs: float, tau: float) -> float:
    """m = (log K - log F) / (sigma_BS sqrt(tau)), all arguments positive."""
    if min(strike, forward, sigma_bs, tau) <= 0.0:
        raise ValueError("strike, forward, sigma_bs and tau must all be > 0")
    return (math.log(strike) - math.log(forward)) / (sigma_bs * math.sqrt(tau))


def implied_forward(quotes, rate: float = 0.0) -> float:
    """Forward from put-call parity at the strike with the tightest mid gap.

    F = K* + e^{r tau} (C(K*) - P(K*)) where K* minimizes |C - P| over
    strikes quoted on both sides.  All quotes must share one tenor.
    """
    taus = {q.tenor for q in quotes}
    if len(taus) > 1:
        raise ValueError(f"quotes span several tenors: {sorted(taus)}")
    calls = {q.strike: q.mid for q in quotes if q.is_call}
    puts = {q.strike: q.mid for q in quotes if not q.is_call}
    both = sorted(set(calls) & set(puts))
    if not both:
        raise ValueError("no strike carries both a call and a put quote")
    k_star = min(both, key=lambda k: abs(calls[k] - puts[k]))
    tau = next(iter(taus))
    return k_star + math.exp(rate * tau) * (calls[k_star] - puts[k_star])


def atm_vol_for_tenor(quotes, forward: float, spot: float, rate: float = 0.0) -> float:
    """IV of the mid quote at the strike nearest the forward, OTM side.

    Below the forward the put is used, above it the call, avoiding in-the-
    money premiums whose time value is a small residual of a large number.
    """
    tau = quotes[0].tenor
    strikes = sorted({q.strike for q in quotes})
    k_atm = min(strikes, key=lambda k: abs(k - forward))
    want_call = k_atm >= forward
    pick = [q for q in quotes if q.strike == k_atm and q.is_call == want_call]
    if not pick:
        # OTM side not quoted at this strike; fall back to the other side
        pick = [q for q in quotes if q.strike == k_atm]
    return implied_vol(pick[0].mid, spot, k_atm, tau, rate, is_call=pick[0].is_call)


def _date_of(timestamp: str) -> str:
    return timestamp[:10]


def filter_surface(quotes, spot: float, config: IngestConfig | None = None) -> Surface:
    """Assemble a Surface from raw quotes through the fixed filter pipeline.

    Stages, in order: strictly positive bid and ask; excluded snapshot
    dates; per-tenor implied forward and ATM vol (tenors without a usable
    call/put pair or an invertible ATM quote drop whole); the standardized
    log-moneyness window (-15, 5); the shortest ``max_tenors`` tenors.

    Raises ``ValueError`` when no tenor survives.
    """
    cfg = config or IngestConfig()
    if not spot > 0.0:
        raise ValueError(f"spot must be > 0, got {spot}")
    drops = {
        "zero bid": 0,
        "zero ask": 0,
        "excluded date": 0,
        "no forward pair": 0,
        "no atm vol": 0,
        "moneyness window": 0,
        "tenor cap": 0,
    }
    excluded = set(cfg.exclude_dates)

    alive = []
    for q in quotes:
        if q.bid <= 0.0:
            drops["zero bid"] += 1
        elif q.ask <= 0.0:
            drops["zero ask"] += 1
        elif q.timestamp and _date_of(q.timestamp) in excluded:
            drops["excluded date"] += 1
        else:
            alive.append(q)

    by_tenor: dict = {}
    for q in alive:
        by_tenor.setdefault(q.tenor, []).append(q)

    slices = []
    for tau in sorted(by_tenor):
        group = by_tenor[tau]
        try:
            fwd = implied_forward(group, cfg.rate)
        except ValueError:
            drops["no forward pair"] += len(group)
            continue
        try:
            sig = atm_vol_for_tenor(group, fwd, spot, cfg.rate)
        except (ArbitrageBoundsError, ValueError):
            drops["no atm vol"] += len(group)
            continue
        kept, ms = [], []
        for q in group:
            m = log_moneyness(q.strike, fwd, sig, tau)
            if MONEYNESS_WINDOW[0] < m < MONEYNESS_WINDOW[1]:
                kept.append(q)
                ms.append(m)
            else:
                drops["moneyness window"] += 1
        if kept:
            slices.append(TenorSlice(tau, fwd, sig, tuple(kept), tuple(ms)))

    if len(slices) > cfg.max_tenors:
        for cut in slices[cfg.max_tenors:]:
            drops["tenor cap"] += len(cut.quotes)
        slices = slices[: cfg.max_tenors]
    if not slices:
        raise ValueError("no tenor survives filtering")
    return Surface(spot=spot, slices=tuple(slices), drop_counts=drops)


_CSV_COLUMNS = ("timestamp", "expiry_datetime", "strike", "cp_flag", "bid",
                "ask", "underlying")


def read_quotes_csv(path):
    """Parse a quote snapshot CSV into ``(spot, quotes)``.

    Expected columns: timestamp, expiry_datetime, strike, cp_flag (C/P),
    bid, ask, underlying.  Tenor is (expiry - timestamp) in ACT/365 years
    including the intraday fraction.  Lines starting with ``#`` are
    skipped; malformed rows raise with their line number.
    """
    quotes = []
    spot = None
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        missing = set(_CSV_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for i, row in enumerate(reader, start=2):
            try:
                ts = datetime.fromisoformat(row["timestamp"])
                expiry = datetime.fromisoformat(row["expiry_datetime"])
                tau = (expiry - ts).total_seconds() / _SECONDS_PER_YEAR
                flag = row["cp_flag"].strip().upper()
                if flag not in ("C", "P"):
                    raise ValueError(f"cp_flag must be C or P, got {row['cp_flag']!r}")
                q = OptionQuote(
                    strike=float(row["strike"]),
                    tenor=tau,
                    bid=float(row["bid"]),
                    ask=float(row["ask"]),
                    is_call=flag == "C",
                    timestamp=row["timestamp"],
                )
                underlying = float(row["underlying"])
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}: bad row {i}: {exc}") from exc
            if spot is None:
                spot = underlying
            quotes.append(q)
    if spot is None:
        raise ValueError(f"{path}: no data rows")
    return spot, quotes
