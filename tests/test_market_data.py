"""Quote ingestion tests: forwards from parity, moneyness, bucket partition,
the filter pipeline with drop accounting, and CSV parsing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustvol.fourier_pricer import bs_price
from ustvol.market_data import (
    IngestConfig,
    MoneynessBucket,
    OptionQuote,
    bucket_of,
    filter_surface,
    implied_forward,
    log_moneyness,
    read_quotes_csv,
)

TS = "2024-03-15 10:30:00"


def _bs_quotes(spot, sigma, tau, strikes, half_spread=0.0, ts=TS):
    out = []
    for k in strikes:
        for is_call in (True, False):
            p = bs_price(spot, k, tau, 0.0, sigma, is_call)
            out.append(OptionQuote(k, tau, max(p - half_spread, 0.0),
                                   p + half_spread, is_call, ts))
    return out


def test_option_quote_validation():
    with pytest.raises(ValueError, match="ask >= bid"):
        OptionQuote(100.0, 0.01, bid=2.0, ask=1.0, is_call=True)
    with pytest.raises(ValueError, match="strike and tenor"):
        OptionQuote(-1.0, 0.01, bid=0.0, ask=1.0, is_call=True)
    with pytest.raises(ValueError, match="strike and tenor"):
        OptionQuote(100.0, 0.0, bid=0.0, ask=1.0, is_call=True)


def test_implied_forward_formula():
    # one strike quoted both sides with C - P = 1.5 at K = 100
    quotes = [
        OptionQuote(100.0, 0.01, 2.0, 2.0, is_call=True),
        OptionQuote(100.0, 0.01, 0.5, 0.5, is_call=False),
    ]
    assert implied_forward(quotes) == pytest.approx(101.5, abs=1e-12)


def test_implied_forward_synthetic_bs():
    quotes = _bs_quotes(100.0, 0.2, 2.0 / 365.0, [97.0, 99.0, 100.0, 101.0, 103.0])
    assert abs(implied_forward(quotes) - 100.0) < 1e-6


def test_implied_forward_noisy_quotes_within_one_tick():
    # shift every call mid up and every put mid down by half a tick: the
    # parity gap at the best strike is then exactly one tick
    tick = 0.05
    tau = 2.0 / 365.0
    quotes = []
    for k in (95.0, 100.0, 105.0):
        c = bs_price(100.0, k, tau, 0.0, 0.2, True) + tick / 2.0
        p = bs_price(100.0, k, tau, 0.0, 0.2, False) - tick / 2.0
        quotes.append(OptionQuote(k, tau, c, c, is_call=True))
        quotes.append(OptionQuote(k, tau, max(p, 0.0), max(p, 0.0), is_call=False))
    assert abs(implied_forward(quotes) - 100.0) <= tick + 1e-12


def test_implied_forward_requires_a_pair():
    calls_only = [OptionQuote(100.0, 0.01, 1.0, 1.2, is_call=True)]
    with pytest.raises(ValueError, match="both a call and a put"):
        implied_forward(calls_only)
    mixed_tenors = [
        OptionQuote(100.0, 0.01, 1.0, 1.2, is_call=True),
        OptionQuote(100.0, 0.02, 1.0, 1.2, is_call=False),
    ]
    with pytest.raises(ValueError, match="several tenors"):
        implied_forward(mixed_tenors)


def test_log_moneyness():
    assert log_moneyness(100.0, 100.0, 0.2, 0.01) == 0.0
    m = log_moneyness(100.0 * math.exp(0.02), 100.0, 0.2, 0.01)
    assert m == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        log_moneyness(100.0, 100.0, 0.0, 0.01)


def test_bucket_values():
    assert bucket_of(-1.2) is MoneynessBucket.DOTMP
    assert bucket_of(-0.5) is MoneynessBucket.OTMP
    assert bucket_of(0.0) is MoneynessBucket.ATM
    assert bucket_of(0.5) is MoneynessBucket.OTMC
    assert bucket_of(2.0) is MoneynessBucket.DOTMC
    # boundary points go to the upper bucket
    assert bucket_of(-1.0) is MoneynessBucket.OTMP
    assert bucket_of(-0.35) is MoneynessBucket.ATM
    assert bucket_of(0.35) is MoneynessBucket.OTMC
    assert bucket_of(1.0) is MoneynessBucket.DOTMC


_ORDER = list(MoneynessBucket)


@given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
def test_bucket_partition_is_monotone(m1, m2):
    lo, hi = sorted((m1, m2))
    assert _ORDER.index(bucket_of(lo)) <= _ORDER.index(bucket_of(hi))


def test_clean_synthetic_surface_zero_drops():
    sigma = 0.25
    quotes = []
    tenors = [1.0 / 365.0, 2.0 / 365.0, 5.0 / 365.0]
    for tau in tenors:
        width = 2.5 * sigma * math.sqrt(tau) * 100.0
        strikes = np.round(np.linspace(100.0 - width, 100.0 + width, 9), 4)
        quotes += _bs_quotes(100.0, sigma, tau, strikes)
    surf = filter_surface(quotes, spot=100.0)
    assert sum(surf.drop_counts.values()) == 0
    assert surf.tenors == tuple(tenors)
    for sl in surf.slices:
        assert abs(sl.forward - 100.0) < 1e-6
        assert abs(sl.atm_vol - sigma) < 1e-6
        assert all(-15.0 < m < 5.0 for m in sl.moneyness)


def test_filter_drop_reasons_and_tenor_cap():
    tau = 2.0 / 365.0
    good = _bs_quotes(100.0, 0.2, tau, [98.0, 100.0, 102.0])
    zero_bid = OptionQuote(99.0, tau, 0.0, 0.4, is_call=False, timestamp=TS)
    far = OptionQuote(30.0, tau, 0.01, 0.02, is_call=False, timestamp=TS)  # m ~ -80
    extra_tenors = []
    for d in range(3, 10):
        extra_tenors += _bs_quotes(100.0, 0.2, d / 365.0, [99.0, 100.0, 101.0])
    surf = filter_surface(good + [zero_bid, far] + extra_tenors, spot=100.0)
    assert surf.drop_counts["zero bid"] == 1
    assert surf.drop_counts["moneyness window"] == 1
    assert surf.drop_counts["tenor cap"] == 2 * 3 * 2  # two tenors beyond six
    assert len(surf.slices) == 6
    assert surf.tenors[-1] == 7.0 / 365.0


def test_filter_excluded_dates():
    tau = 1.0 / 365.0
    fomc = _bs_quotes(100.0, 0.2, tau, [99.0, 100.0, 101.0], ts="2024-03-20 10:30:00")
    keep = _bs_quotes(100.0, 0.2, tau, [99.0, 100.0, 101.0], ts="2024-03-21 10:30:00")
    cfg = IngestConfig(exclude_dates=("2024-03-20",))
    surf = filter_surface(fomc + keep, spot=100.0, config=cfg)
    assert surf.drop_counts["excluded date"] == 6
    assert all(q.timestamp.startswith("2024-03-21") for s in surf.slices for q in s.quotes)


def test_filter_tenor_without_pair_drops_whole():
    tau_ok = 1.0 / 365.0
    tau_bad = 2.0 / 365.0
    ok = _bs_quotes(100.0, 0.2, tau_ok, [99.0, 100.0, 101.0])
    calls_only = [OptionQuote(100.0, tau_bad, 0.9, 1.0, is_call=True, timestamp=TS)]
    surf = filter_surface(ok + calls_only, spot=100.0)
    assert surf.tenors == (tau_ok,)
    assert surf.drop_counts["no forward pair"] == 1


def test_filter_is_idempotent():
    tau = 2.0 / 365.0
    quotes = _bs_quotes(100.0, 0.2, tau, [96.0, 98.0, 100.0, 102.0, 104.0])
    quotes.append(OptionQuote(99.0, tau, 0.0, 0.4, is_call=False, timestamp=TS))
    quotes.append(OptionQuote(20.0, tau, 0.01, 0.02, is_call=False, timestamp=TS))
    once = filter_surface(quotes, spot=100.0)
    twice = filter_surface([q for s in once.slices for q in s.quotes], spot=100.0)
    assert once == twice  # drop_counts excluded from equality by design
    assert sum(twice.drop_counts.values()) == 0


def test_filter_everything_gone_raises():
    dead = [OptionQuote(100.0, 0.01, 0.0, 1.0, is_call=True, timestamp=TS)]
    with pytest.raises(ValueError, match="no tenor survives"):
        filter_surface(dead, spot=100.0)


def test_read_quotes_csv_round_trip(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text(
        "# snapshot 2024-03-15\n"
        "timestamp,expiry_datetime,strike,cp_flag,bid,ask,underlying\n"
        "2024-03-15 10:30:00,2024-03-15 16:00:00,100,C,0.50,0.54,100.25\n"
        "2024-03-15 10:30:00,2024-03-15 16:00:00,100,p,0.48,0.52,100.25\n"
        "2024-03-15 10:30:00,2024-03-22 16:00:00,105,C,0.20,0.26,100.25\n"
    )
    spot, quotes = read_quotes_csv(path)
    assert spot == 100.25
    assert len(quotes) == 3
    # 5.5 trading-calendar hours left on the 0DTE contract, ACT/365
    assert quotes[0].tenor == pytest.approx(5.5 / (24.0 * 365.0), rel=1e-12)
    assert quotes[1].is_call is False
    assert quotes[2].tenor == pytest.approx((7.0 + 5.5 / 24.0) / 365.0, rel=1e-12)


def test_read_quotes_csv_rejects_bad_rows(tmp_path):
    crossed = tmp_path / "crossed.csv"
    crossed.write_text(
        "timestamp,expiry_datetime,strike,cp_flag,bid,ask,underlying\n"
        "2024-03-15 10:30:00,2024-03-15 16:00:00,100,C,0.60,0.40,100.0\n"
    )
    with pytest.raises(ValueError, match="bad row 2"):
        read_quotes_csv(crossed)
    missing = tmp_path / "missing.csv"
    missing.write_text("timestamp,strike\n2024-03-15,100\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_quotes_csv(missing)
