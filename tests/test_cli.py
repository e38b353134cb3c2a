"""End-to-end command tests: exit codes, artifacts, manifests, rerun
byte-identity and the stderr error contract."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ustvol import calibration, market_data
from ustvol.bspp_bootstrap import bspp_atm_vol, shift_weighted_variance
from ustvol.cf_edgeworth import Displacement
from ustvol.cli import main
from ustvol.fourier_pricer import bs_price
from ustvol.mc_oracle import read_samples_bin

BS_VEC = "[0.2, 0, 0, 0, 0, 0, 0, 0]"
SUBCOMMANDS = ("price", "calibrate", "bootstrap", "ingest", "bench",
               "simulate", "smile-expand", "termstructure")


def _write_quotes(path, sigma0=0.2, shifts=(0.01, -0.005), days=(1, 2, 3),
                  strikes=(98.0, 99.0, 100.0, 101.0, 102.0), spot=100.0,
                  spread=0.004, dead_bid_rows=0):
    t0 = "2024-03-14T10:00:00"
    tenors = tuple(d / 365.0 for d in days)
    disp = Displacement(tenors=tenors, shifts=tuple(shifts)[: len(days) - 1])
    lines = ["timestamp,expiry_datetime,strike,cp_flag,bid,ask,underlying"]
    for d, tau in zip(days, tenors):
        expiry = f"2024-03-{14 + d:02d}T10:00:00"
        vol = sigma0 * math.sqrt(shift_weighted_variance(sigma0, disp, tau) / tau)
        for k in strikes:
            for flag, is_call in (("C", True), ("P", False)):
                p = bs_price(spot, k, tau, 0.0, vol, is_call)
                bid = 0.0 if dead_bid_rows > 0 else max(p - spread / 2, 1e-6)
                dead_bid_rows -= 1
                lines.append(
                    f"{t0},{expiry},{k},{flag},{bid},{p + spread / 2},{spot}"
                )
    path.write_text("\n".join(lines) + "\n")
    return tenors


def _read_csv(path, manifest_name=None):
    lines = path.read_text().splitlines()
    # artifacts reference the manifest of the run that produced them
    assert lines[0] == f"# manifest: {manifest_name or path.name + '.manifest.json'}"
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


def _manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


def test_price_black_scholes_grid(tmp_path):
    out = tmp_path / "prices.csv"
    code = main([
        "price", "--model", "edgeworth", "--params", BS_VEC,
        "--tenors", f"{2 / 365},{7 / 365}", "--strikes", "97,100,103",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["tenor", "strike", "price", "iv", "error", "u_max_truncated"]
    assert len(rows) == 6
    for tau_s, k_s, price_s, iv_s, error_s, truncated_s in rows:
        ref = bs_price(100.0, float(k_s), float(tau_s), 0.0, 0.2, True)
        assert abs(float(price_s) - ref) < 1e-4
        assert abs(float(iv_s) - 0.2) < 1e-3
        assert error_s == "" and truncated_s == "0"
    man = _manifest(out)
    assert man["command"] == "price"
    assert len(man["config_hash"]) == 16
    assert man["versions"]["ustvol"]
    assert man["versions"]["format"] == 2
    assert man["wall_time"] >= 0.0


def test_price_csv_reports_a_failed_contract(tmp_path):
    # at one day a strike of 80 is 21 standard deviations in the money: its
    # call prices at the intrinsic floor and has no IV, so it fails alone,
    # and the CSV keeps its reason next to the contract that priced
    out = tmp_path / "prices.csv"
    assert main(["price", "--model", "edgeworth", "--params", BS_VEC,
                 "--tenors", f"{1 / 365}", "--strikes", "80,100", "--out", str(out)]) == 0
    _, (deep, atm) = _read_csv(out)
    assert float(deep[2]) == 20.0 and deep[3] == ""
    assert deep[4].startswith("ArbitrageBoundsError: ") and deep[5] == "0"
    assert abs(float(atm[3]) - 0.2) < 1e-3 and atm[4:] == ["", "0"]


def test_price_rerun_byte_identical(tmp_path):
    out = tmp_path / "p.csv"
    argv = ["price", "--model", "edgeworth", "--params", BS_VEC,
            "--tenors", f"{1 / 365}", "--strikes", "99,101", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    man_a = _manifest(out)
    assert main(argv) == 0
    assert out.read_bytes() == first
    man_b = _manifest(out)
    man_a.pop("wall_time"), man_b.pop("wall_time")
    assert man_a == man_b


def test_price_malformed_json(tmp_path, capsys):
    code = main(["price", "--model", "edgeworth", "--params", "{not json",
                 "--tenors", "0.01", "--strikes", "100",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = _stderr_error(capsys)
    assert err["category"] == "validation"
    assert err["command"] == "price"


def test_price_rejects_non_positive_inputs(tmp_path, capsys):
    base = ["price", "--model", "edgeworth", "--params", BS_VEC,
            "--out", str(tmp_path / "x.csv")]
    for extra, name in (
        (["--tenors", "0.01", "--strikes", "100", "--spot", "-1"], "spot"),
        (["--tenors", "-0.01", "--strikes", "100"], "tenor"),
        (["--tenors", "0.01,-0.01", "--strikes", "100"], "tenor"),
        (["--tenors", "0.01", "--strikes", "100,0"], "strike"),
    ):
        assert main(base + extra) == 2
        err = _stderr_error(capsys)
        assert err["category"] == "validation"
        assert err["message"].startswith(f"{name} must be > 0")
    assert not (tmp_path / "x.csv").exists()


def test_price_unknown_model_lists_registry(tmp_path, capsys):
    code = main(["price", "--model", "svi", "--params", BS_VEC,
                 "--tenors", "0.01", "--strikes", "100",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = _stderr_error(capsys)
    assert "edgeworth_pp" in err["message"] and "bs_pp" in err["message"]


def test_price_params_from_file(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({
        "sigma0": 0.2, "beta_tilde0": 0.0, "rho0": 0.0, "eta0": 0.0,
        "alpha_prime0": 0.0, "lambda0": 0.0, "mu_J": 0.0, "sigma_J": 0.0,
    }))
    out = tmp_path / "p.csv"
    code = main(["price", "--model", "edgeworth", "--params", f"@{pfile}",
                 "--tenors", f"{1 / 365}", "--strikes", "100", "--out", str(out)])
    assert code == 0
    assert str(pfile) in _manifest(out)["inputs"]
    _, rows = _read_csv(out)
    assert abs(float(rows[0][3]) - 0.2) < 1e-3


def test_calibrate_json_and_report_grid(tmp_path):
    q = tmp_path / "quotes.csv"
    _write_quotes(q)
    out = tmp_path / "fit.json"
    rep = tmp_path / "report.csv"
    code = main(["calibrate", "--model", "bs_pp", "--surface", str(q),
                 "--out", str(out), "--report", str(rep),
                 "--budget", "800", "--fourier-nodes", "2048"])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["manifest"] == out.name + ".manifest.json"
    assert res["model"] == "bs_pp"
    assert res["rmse_vol_points"] <= 0.05
    assert res["params"]["model"] == "bs_pp"
    assert abs(res["param_vector"][0] - 0.2) < 0.01
    assert len(res["param_vector"]) == 3
    assert res["param_names"] == ["sigma0", "shift_1", "shift_2"]
    trace = res["trace"]
    assert trace and all(a >= b for a, b in zip(trace, trace[1:]))
    assert 0.0 <= res["bid_ask_fraction"] <= 1.0
    assert res["iv_clamps"] == 0
    assert res["u_max_truncations"] == 0

    header, rows = _read_csv(rep, manifest_name=out.name + ".manifest.json")
    assert header == ["bucket"] + [f"tenor_{j}" for j in range(1, 4)]
    assert [r[0] for r in rows] == ["DOTMP", "OTMP", "ATM", "OTMC", "DOTMC"]
    assert all(len(r) == 4 for r in rows)
    filled = [c for r in rows for c in r[1:] if c != ""]
    assert filled and all(float(c) >= 0.0 for c in filled)


def test_calibrate_report_has_a_column_per_tenor(tmp_path):
    q = tmp_path / "quotes.csv"
    _write_quotes(q, shifts=(0.01, -0.005, 0.0, 0.005, 0.0, 0.01), days=tuple(range(1, 8)))
    out = tmp_path / "fit.json"
    rep = tmp_path / "report.csv"
    code = main(["calibrate", "--model", "bs_pp", "--surface", str(q),
                 "--out", str(out), "--report", str(rep), "--max-tenors", "7",
                 "--budget", "100", "--restarts", "0", "--fourier-nodes", "512"])
    assert code == 0
    header, rows = _read_csv(rep, manifest_name=out.name + ".manifest.json")
    assert header == ["bucket"] + [f"tenor_{j}" for j in range(1, 8)]
    assert any(r[7] != "" for r in rows)


def test_calibrate_rejects_bad_budget_and_restarts(tmp_path, capsys):
    q = tmp_path / "quotes.csv"
    _write_quotes(q)
    for extra in (["--restarts", "-2"], ["--budget", "0", "--restarts", "0"],
                  ["--budget", "-100", "--restarts", "-3"]):
        code = main(["calibrate", "--model", "bs_pp", "--surface", str(q),
                     "--out", str(tmp_path / "fit.json"), "--fourier-nodes", "512"] + extra)
        assert code == 2
        err = _stderr_error(capsys)
        assert err["category"] == "validation" and "budget" in err["message"]
    assert not (tmp_path / "fit.json").exists()


def test_calibrate_calls_library_through_its_modules(tmp_path, monkeypatch):
    # instrumented runs rebind these names on their modules; the CLI must
    # look them up there at call time
    called = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(calibration, "calibrate")
    spy(market_data, "read_quotes_csv")
    spy(market_data, "filter_surface")
    q = tmp_path / "quotes.csv"
    _write_quotes(q)
    assert main(["calibrate", "--model", "bs_pp", "--surface", str(q),
                 "--out", str(tmp_path / "fit.json"), "--budget", "60",
                 "--restarts", "0", "--fourier-nodes", "512"]) == 0
    assert called == ["read_quotes_csv", "filter_surface", "calibrate"]


def test_calibrate_missing_quote_file(tmp_path, capsys):
    code = main(["calibrate", "--model", "bs_pp",
                 "--surface", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "fit.json")])
    assert code == 2
    assert _stderr_error(capsys)["category"] == "validation"


def test_bootstrap_round_trip(tmp_path):
    tenors = (1 / 365, 2 / 365, 3 / 365)
    disp = Displacement(tenors=tenors, shifts=(0.03, -0.01))
    atm = tmp_path / "atm.csv"
    atm.write_text("tenor_years,atm_vol\n" + "".join(
        f"{t!r},{bspp_atm_vol(t, 0.2, disp)!r}\n" for t in tenors
    ))
    out = tmp_path / "boot.json"
    assert main(["bootstrap", "--atm", str(atm), "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    params = res["params"]
    assert params["model"] == "bs_pp"
    assert abs(params["sigma0"] - 0.2) < 1e-10
    assert abs(params["displacement"]["shifts"][0] - 0.03) < 1e-10
    assert abs(params["displacement"]["shifts"][1] + 0.01) < 1e-10
    assert params["displacement"]["tenors"] == list(tenors)
    assert res["max_round_trip_error"] < 1e-10

    # the fitted model prices its own ATM term structure back
    prices = tmp_path / "atm_prices.csv"
    assert main(["price", "--model", "bs_pp", "--params", json.dumps(params),
                 "--tenors", ",".join(repr(t) for t in tenors), "--strikes", "100",
                 "--out", str(prices)]) == 0
    _, rows = _read_csv(prices)
    assert [float(r[0]) for r in rows] == list(tenors)
    for r, fitted in zip(rows, res["fitted_atm_vols"]):
        assert abs(float(r[3]) - fitted) < 1e-6


def test_bootstrap_arbitrage_names_tenors(tmp_path, capsys):
    atm = tmp_path / "atm.csv"
    atm.write_text("tenor_years,atm_vol\n0.004,0.30\n0.008,0.10\n")
    code = main(["bootstrap", "--atm", str(atm), "--out", str(tmp_path / "b.json")])
    assert code == 2
    msg = _stderr_error(capsys)["message"]
    assert "0.004" in msg and "0.008" in msg


def test_ingest_filters_and_reports_drops(tmp_path, capsys):
    q = tmp_path / "raw.csv"
    _write_quotes(q, dead_bid_rows=2)
    out = tmp_path / "surface.csv"
    code = main(["ingest", "--quotes", str(q), "--out", str(out),
                 "--max-tenors", "2"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["drop_counts"]["zero bid"] == 2
    assert summary["tenors"] == 2
    header, rows = _read_csv(out)
    assert header[:4] == ["tenor_years", "forward", "atm_vol", "strike"]
    assert rows and all(r[8] in ("DOTMP", "OTMP", "ATM", "OTMC", "DOTMC")
                        for r in rows)
    first = out.read_bytes()
    assert main(["ingest", "--quotes", str(q), "--out", str(out),
                 "--max-tenors", "2"]) == 0
    assert out.read_bytes() == first


def test_bench_csv(tmp_path):
    out = tmp_path / "timing.csv"
    code = main(["bench", "--models", "edgeworth,bs_pp", "--trials", "3",
                 "--fourier-nodes", "256", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header[0] == "model_id"
    assert [r[0] for r in rows] == ["edgeworth", "bs_pp"]
    for r in rows:
        assert float(r[1]) > 0.0 and float(r[3]) > 0.0
        assert float(r[3]) > float(r[1])  # full surface costs more than one slice


def test_empty_model_list_rejected(tmp_path, capsys):
    q = tmp_path / "quotes.csv"
    _write_quotes(q)
    for argv in (["bench", "--models", ","], ["termstructure", "--surface", str(q), "--models", " , "]):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = _stderr_error(capsys)
        assert err["category"] == "validation" and "names no model" in err["message"]
        assert not out.exists()


def test_simulate_binary_and_determinism(tmp_path, capsys):
    out = tmp_path / "samples.bin"
    argv = ["simulate", "--model", "bs_pp", "--params", "[0.2]",
            "--tau", f"{2 / 365}", "--paths", "20000", "--steps", "10",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    samples = read_samples_bin(out)
    assert samples.size == 20000 == info["paths"]
    assert abs(info["mean_growth"] - 1.0) < 0.01
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "samples.bin.manifest.json").exists()


def test_simulate_numerical_failure_exit_1(tmp_path, capsys):
    code = main(["simulate", "--model", "rough_heston_pp",
                 "--params", "[0.1, 2.0, -0.6, 0.0001]",
                 "--tau", f"{2 / 365}", "--paths", "5000", "--steps", "50",
                 "--out", str(tmp_path / "s.bin")])
    assert code == 1
    err = _stderr_error(capsys)
    assert err["category"] == "numerical"
    assert "steps_per_tenor" in err["message"]


def test_smile_expand(tmp_path):
    out = tmp_path / "exp.json"
    params = json.dumps({
        "sigma0": 0.2, "beta_tilde0": 0.4, "rho0": -0.7, "eta0": 0.1,
        "alpha_prime0": 0.0, "lambda0": 0.0, "mu_J": 0.0, "sigma_J": 0.0,
    })
    assert main(["smile-expand", "--params", params, "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["theta3"] == pytest.approx(-4.2, abs=1e-12)
    assert res["iv_skew"] == pytest.approx(-0.7, abs=1e-12)
    assert res["iv_level"] == 0.2
    assert res["params"]["model"] == "edgeworth"


def test_termstructure_exact_fit_and_multi_model(tmp_path):
    q = tmp_path / "quotes.csv"
    _write_quotes(q)
    out = tmp_path / "ts.csv"
    assert main(["termstructure", "--surface", str(q), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["tenor_years", "market_atm_vol", "bs_pp_atm_vol"]
    assert len(rows) == 3
    for r in rows:
        assert abs(float(r[1]) - float(r[2])) <= 1e-10

    out2 = tmp_path / "ts2.csv"
    code = main(["termstructure", "--surface", str(q),
                 "--models", "bs_pp,edgeworth_pp", "--out", str(out2),
                 "--budget", "150", "--fourier-nodes", "512"])
    assert code == 0
    header2, rows2 = _read_csv(out2)
    assert header2 == ["tenor_years", "market_atm_vol", "bs_pp_atm_vol",
                       "edgeworth_pp_atm_vol"]
    for r in rows2:
        assert 0.05 < float(r[3]) < 1.0


def test_termstructure_empty_surface(tmp_path, capsys):
    q = tmp_path / "quotes.csv"
    _write_quotes(q, days=(1,), strikes=(100.0,), dead_bid_rows=2)
    code = main(["termstructure", "--surface", str(q),
                 "--out", str(tmp_path / "ts.csv")])
    assert code == 2
    assert _stderr_error(capsys)["category"] == "validation"


def test_config_file_flag_precedence(tmp_path):
    # fourier-nodes belongs to other subcommands: a shared file skips it here
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nfourier-nodes = 512\nseed = 9\n")
    out = tmp_path / "s.bin"
    base = ["simulate", "--model", "bs_pp", "--params", "[0.2]", "--tau", "0.01",
            "--paths", "50", "--steps", "5", "--out", str(out)]
    assert main(base + ["--seed", "9"]) == 0
    seeded = out.read_bytes()
    assert main(base + ["--config", str(cfg)]) == 0
    assert _manifest(out)["rng_seed"] == 9
    assert out.read_bytes() == seeded
    assert main(base + ["--config", str(cfg), "--seed", "4"]) == 0
    assert _manifest(out)["rng_seed"] == 4
    assert out.read_bytes() != seeded


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "p.csv"
    argv = ["price", "--model", "edgeworth", "--params", BS_VEC,
            "--tenors", "0.01", "--strikes", "100",
            "--config", str(cfg), "--out", str(out)]
    for key in ("fourir-nodes", "fourier-umax"):
        cfg.write_text(f"{key} = 512\n")
        assert main(argv) == 2
        err = _stderr_error(capsys)
        assert err["category"] == "validation" and key in err["message"]
    assert not out.exists()
    # a key of another subcommand is skipped
    cfg.write_text("budget = 50\n")
    assert main(argv) == 0


def test_config_file_required_flag_key_rejected(tmp_path, capsys):
    # a required flag must be on the command line, so a file value for it
    # could never take effect; neither could a nested config key
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "p.csv"
    argv = ["price", "--model", "edgeworth", "--params", BS_VEC,
            "--tenors", "0.01", "--strikes", "100",
            "--config", str(cfg), "--out", str(out)]
    for key in ("model", "params", "out", "tenors", "config"):
        cfg.write_text(f"{key} = x\n")
        assert main(argv) == 2
        err = _stderr_error(capsys)
        assert err["category"] == "validation" and key in err["message"]
    assert not out.exists()
    # required by every subcommand that has it: rejected in a shared file too
    cfg.write_text("surface = q.csv\n")
    assert main(argv) == 2
    assert "surface" in _stderr_error(capsys)["message"]


def test_config_hash_of_effective_values(tmp_path):
    out = tmp_path / "p.csv"
    argv = ["price", "--model", "edgeworth", "--params", BS_VEC,
            "--tenors", "0.01", "--strikes", "100", "--out", str(out)]
    assert main(argv) == 0
    omitted = _manifest(out)["config_hash"]
    assert main(argv + ["--spot", "100", "--rate", "0"]) == 0
    assert _manifest(out)["config_hash"] == omitted
    assert main(argv + ["--spot", "101"]) == 0
    assert _manifest(out)["config_hash"] != omitted


def test_config_file_values_take_their_flag_types(tmp_path, capsys):
    # tenors from a config file is a float list, as --tenors would make it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tenors = 0.01,0.02\nsteps = 5\nantithetic = yes\n")
    out = tmp_path / "s.bin"
    argv = ["simulate", "--model", "bs_pp", "--params", "[0.2, 0.01]",
            "--tau", "0.01", "--paths", "10", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    samples = read_samples_bin(out)
    assert samples.size == 10
    assert np.allclose(samples[:5], -samples[5:] - 0.2**2 * 0.01)  # antithetic pairs
    capsys.readouterr()
    cfg.write_text("tenors = 0.01,x\n")
    assert main(argv) == 2
    err = _stderr_error(capsys)
    assert err["category"] == "validation" and "tenors" in err["message"]


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fourier-nodes\n")
    code = main(["price", "--model", "edgeworth", "--params", BS_VEC,
                 "--tenors", "0.01", "--strikes", "100",
                 "--config", str(cfg), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "key=value" in _stderr_error(capsys)["message"]


def test_no_subcommand_and_bad_flag(capsys):
    assert main([]) == 2
    assert main(["price", "--nope"]) == 2
    capsys.readouterr()
    # flags live only on the subcommands that read them
    for argv in (["ingest", "--quotes", "q.csv", "--out", "s.csv", "--fourier-nodes", "512"],
                 ["bootstrap", "--atm", "a.csv", "--out", "b.json", "--seed", "1"]):
        assert main(argv) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_every_subcommand_help(capsys):
    for name in SUBCOMMANDS:
        assert main([name, "--help"]) == 0
        assert f"usage: ustvol {name}" in capsys.readouterr().out


def test_module_entry_help_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ustvol.cli", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    for name in SUBCOMMANDS:
        assert name in proc.stdout
