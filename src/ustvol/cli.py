"""Command-line front end: ingest -> calibrate -> price -> diagnose.

Every successful run writes its data artifact plus a manifest JSON sidecar
(``<out>.manifest.json``) recording the command, input paths, a hash of the
effective configuration (every parsed value but the config file's path), the
RNG seed, artifact versions and wall time.  Text outputs open with a
``# manifest:`` line naming that sidecar; JSON outputs carry a ``"manifest"``
key.  For a fixed command line, config and inputs the data bytes are
identical across reruns -- measured wall time lives only in the manifest.
(The one exception is ``bench``, whose data *is* wall-clock measurement.)

Each flag's default is declared once, on the flag; where a library config
owns it (``QuadratureConfig.node_count``, ``IngestConfig.max_tenors``,
``SimConfig.steps_per_tenor``) the flag takes it from there.  A subcommand
has only the flags it reads: ``--seed`` on calibrate, simulate and
termstructure; ``--fourier-nodes`` on price, calibrate, termstructure and
bench.  ``--config FILE`` holds ``key = value`` lines (``#`` comments, keys
spelled as the flag without its dashes); each value is converted as its flag
converts it and becomes that flag's default, so explicit flags win.  Keys of
other subcommands are skipped, so one file can serve several; a key that no
subcommand defines is a validation failure.

Exit codes: 0 success, 2 validation failure (bad flags, malformed JSON,
missing files, unknown model ids, arbitrage-violating inputs), 1 numerical
failure.  Failures emit one machine-parsable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np
import scipy

# calibration and market_data are called through their modules: callers that
# instrument a run rebind calibrate, read_quotes_csv and filter_surface there
from . import calibration, market_data
from .bspp_bootstrap import AtmTermStructure, bspp_atm_vol, calibrate_shift_from_atm
from .cf_edgeworth import Displacement
from .diagnostics import BENCH_TENORS, smile_expansion, timing_bench
from .fourier_pricer import QuadratureConfig, price_surface
from .mc_oracle import SimConfig, simulate_benchmark, write_samples_bin
from .registry import get_model, model_ids

# 2: the price CSV gained its error and u_max_truncated columns
_FORMAT_VERSION = 2


def _write_manifest(out_path: Path, args, inputs, t0: float) -> str:
    """Write ``<out>.manifest.json`` and return its file name."""
    try:
        own = version("ustvol")
    except PackageNotFoundError:
        own = "unknown"
    config = {k: str(v) for k, v in vars(args).items() if k != "config"}
    manifest = {
        "command": args.cmd,
        "inputs": [str(p) for p in inputs],
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest()[:16],
        "rng_seed": getattr(args, "seed", 0),
        "versions": {"ustvol": own, "numpy": np.__version__,
                     "scipy": scipy.__version__, "format": _FORMAT_VERSION},
        "wall_time": time.monotonic() - t0,
    }
    path = out_path.with_name(out_path.name + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path.name


def _write_csv(out_path: Path, manifest_name: str, header, rows) -> None:
    with open(out_path, "w", newline="") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(out_path: Path, manifest_name: str, payload: dict) -> None:
    payload = {"manifest": manifest_name, **payload}
    out_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_error(category: str, command: str, exc: BaseException) -> None:
    msg = json.dumps(
        {
            "error": {
                "category": category,
                "command": command,
                "type": type(exc).__name__,
                "message": str(exc),
            }
        },
        sort_keys=True,
    )
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _float_list(text: str):
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _build_parser():
    """The ``ustvol`` parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(
        prog="ustvol",
        description="short-tenor vol surface pricing, calibration and diagnostics",
    )
    sub = p.add_subparsers(dest="cmd")

    def command(name, help, seed=False, nodes=None):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="key=value config file; flags take precedence")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if nodes:
            sp.add_argument("--fourier-nodes", type=int, default=nodes,
                            help="Fourier quadrature node count (default %(default)s)")
        return sp

    sp = command("price", "price a (tenor, strike) grid and invert to IVs",
                 nodes=QuadratureConfig.node_count)
    sp.add_argument("--model", required=True)
    sp.add_argument("--params", required=True,
                    help="JSON text or @file: object with named fields, or a vector")
    sp.add_argument("--tenors", required=True, type=_float_list)
    sp.add_argument("--strikes", required=True, type=_float_list)
    sp.add_argument("--spot", type=float, default=100.0)
    sp.add_argument("--rate", type=float, default=0.0)
    sp.add_argument("--out", required=True)

    sp = command("calibrate", "fit a registry model to a quote surface",
                 seed=True, nodes=QuadratureConfig.node_count)
    sp.add_argument("--model", required=True)
    sp.add_argument("--surface", required=True, help="quotes CSV")
    sp.add_argument("--out", required=True, help="result JSON path")
    sp.add_argument("--report", default=None,
                    help="also write a bucket-by-tenor RMSE grid CSV here")
    sp.add_argument("--budget", type=int, default=20_000)
    sp.add_argument("--restarts", type=int, default=3)
    sp.add_argument("--rate", type=float, default=0.0)
    sp.add_argument("--max-tenors", type=int, default=market_data.IngestConfig.max_tenors)
    sp.add_argument("--exclude-dates")

    sp = command("bootstrap", "exact displacement fit from an ATM term structure")
    sp.add_argument("--atm", required=True, help="CSV with tenor_years, atm_vol")
    sp.add_argument("--out", required=True)

    sp = command("ingest", "filter a raw quote file into a pricing surface")
    sp.add_argument("--quotes", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-tenors", type=int, default=market_data.IngestConfig.max_tenors)
    sp.add_argument("--exclude-dates")
    sp.add_argument("--rate", type=float, default=0.0)

    sp = command("bench", "wall-time comparison across pricing models", nodes=2_000)
    sp.add_argument("--models", required=True, help="'all' or comma-separated ids")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--spot", type=float, default=100.0)
    sp.add_argument("--out", required=True)

    sp = command("simulate", "Monte Carlo terminal returns to a binary file", seed=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--params", required=True)
    sp.add_argument("--tau", required=True, type=float)
    sp.add_argument("--paths", required=True, type=int)
    sp.add_argument("--steps", type=int, default=SimConfig.steps_per_tenor)
    sp.add_argument("--tenors", type=_float_list, default=None,
                    help="tenor grid for vector params of displaced models")
    sp.add_argument("--antithetic", action="store_true")
    sp.add_argument("--out", required=True)

    sp = command("smile-expand", "closed-form short-tenor smile coefficients")
    sp.add_argument("--params", required=True)
    sp.add_argument("--out", required=True)

    sp = command("termstructure", "market vs model ATM vol by tenor",
                 seed=True, nodes=QuadratureConfig.node_count)
    sp.add_argument("--surface", required=True)
    sp.add_argument("--models", default="bs_pp", help="comma-separated ids (default bs_pp)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--budget", type=int, default=20_000)
    sp.add_argument("--rate", type=float, default=0.0)
    sp.add_argument("--max-tenors", type=int, default=market_data.IngestConfig.max_tenors)

    return p, sub.choices


def _config_defaults(commands: dict, cmd: str, path: str) -> None:
    """Make the config file's values the defaults of subcommand ``cmd``.

    Each ``key = value`` line is converted as its flag converts it.  A key of
    another subcommand is skipped, so one file can serve several.  A key that
    no subcommand can take as a default is an error: one no subcommand
    defines, ``config``, or a flag this subcommand requires on the command
    line (its file value could never take effect).
    """
    # argparse has no public list of a parser's actions
    dests = {name: {a.dest: a for a in sp._actions
                    if a.dest not in ("help", "config") and not a.required}
             for name, sp in commands.items()}
    required = {a.dest for a in commands[cmd]._actions if a.required}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest in required:
            raise ValueError(f"config key {key}: a required flag must be given on the command line")
        action = dests[cmd].get(dest)
        if action is None:
            if not any(dest in known for known in dests.values()):
                raise ValueError(f"config key {key}: no subcommand takes this flag from a config file")
            continue
        if action.nargs == 0:  # store_true
            values[dest] = text.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                values[dest] = action.type(text)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
        else:
            values[dest] = text
    commands[cmd].set_defaults(**values)


def _model_list(text: str) -> tuple:
    """Comma-separated model ids; a list that names none is an error."""
    ids = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not ids:
        raise ValueError(f"--models {text!r} names no model")
    return ids


def _params_json(raw: str, inputs: list):
    if raw.startswith("@"):
        path = raw[1:]
        inputs.append(path)
        raw = Path(path).read_text()
    return json.loads(raw)


def _native_theta(model, parsed, tenors):
    """Accept either a named-field object or a packed parameter vector."""
    if isinstance(parsed, dict):
        return model.from_json_dict(parsed)
    if isinstance(parsed, list):
        return model.unpack(parsed, tenors=tenors)
    raise ValueError(
        f"params JSON must be an object or an array, got {type(parsed).__name__}"
    )


def _load_surface(path: str, inputs: list, rate: float, max_tenors: int,
                  exclude_dates: str | None = None):
    """Read and filter a quotes CSV; ``inputs`` collects the files read."""
    inputs.append(path)
    spot, quotes = market_data.read_quotes_csv(path)
    dates = ()
    if exclude_dates:
        inputs.append(exclude_dates)
        lines = (s.split("#", 1)[0].strip() for s in Path(exclude_dates).read_text().splitlines())
        dates = tuple(s for s in lines if s)
    cfg = market_data.IngestConfig(max_tenors=max_tenors, rate=rate, exclude_dates=dates)
    return market_data.filter_surface(quotes, spot, cfg), spot


def _bspp_fit(tenors, atm_vols):
    """Exact BS++ fit of an ATM term structure: (sigma0, Displacement, fitted vols)."""
    ts = AtmTermStructure(tuple(tenors), tuple(atm_vols))
    sigma0, shifts = calibrate_shift_from_atm(ts)
    disp = Displacement(tenors=ts.tenors, shifts=shifts)
    return sigma0, disp, [bspp_atm_vol(t, sigma0, disp) for t in ts.tenors]


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_price(args) -> int:
    t0 = time.monotonic()
    for name, values in (("spot", (args.spot,)), ("strike", args.strikes),
                         ("tenor", args.tenors)):
        bad = [v for v in values if not v > 0.0]
        if bad:
            raise ValueError(f"{name} must be > 0, got {bad[0]}")
    inputs = []
    model = get_model(args.model)
    tenors = tuple(sorted(args.tenors))
    theta = _native_theta(model, _params_json(args.params, inputs), tenors)

    grid = [(k, t) for t in tenors for k in args.strikes]
    rows = price_surface(grid, model, theta, args.spot, rate=args.rate,
                         quad=QuadratureConfig(node_count=args.fourier_nodes))
    failed = [r for r in rows if r["call"] is None]
    if len(failed) == len(rows):
        raise RuntimeError(f"no contract priced: {failed[0]['error']}")

    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_csv(
        out, name, ("tenor", "strike", "price", "iv", "error", "u_max_truncated"),
        [
            (r["tau"], r["strike"],
             "" if r["call"] is None else r["call"],
             "" if r["iv"] is None else r["iv"],
             r["error"] or "", int(r["u_max_truncated"]))
            for r in rows
        ],
    )
    return 0


def cmd_calibrate(args) -> int:
    t0 = time.monotonic()
    inputs = []
    model = get_model(args.model)
    surface, _spot = _load_surface(args.surface, inputs, args.rate, args.max_tenors,
                                   args.exclude_dates)
    res = calibration.calibrate(
        surface, args.model, rate=args.rate,
        quad=QuadratureConfig(node_count=args.fourier_nodes),
        budget=args.budget, restarts=args.restarts, rng_seed=args.seed,
    )

    theta = model.unpack(res.params, tenors=surface.tenors)
    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_json(out, name, {
        "model": res.model_id,
        "tenors": list(surface.tenors),
        "param_names": list(model.param_names(len(surface.tenors))),
        "param_vector": list(res.params),
        "params": model.to_json_dict(theta),
        "rmse_vol_points": res.rmse,
        "bid_ask_fraction": res.bid_ask_fraction,
        "iv_clamps": res.iv_clamps,
        "u_max_truncations": res.u_max_truncations,
        "bucket_rmse": {
            f"tenor_{idx + 1}:{bucket.name}": val
            for (idx, bucket), val in sorted(
                res.bucket_rmse.items(), key=lambda kv: (kv[0][0], kv[0][1].name)
            )
        },
        "iterations": res.iterations,
        "converged": res.converged,
        "trace": list(res.trace),
    })

    if args.report:
        report = Path(args.report)
        n_tenors = len(surface.tenors)
        header = ["bucket"] + [f"tenor_{j}" for j in range(1, n_tenors + 1)]
        rows = []
        for bucket in market_data.MoneynessBucket:
            cells = [bucket.name]
            for j in range(n_tenors):
                val = res.bucket_rmse.get((j, bucket))
                cells.append("" if val is None else val)
            rows.append(cells)
        _write_csv(report, name, header, rows)
    return 0


def cmd_bootstrap(args) -> int:
    t0 = time.monotonic()
    inputs = [args.atm]
    tenors, vols = [], []
    with open(args.atm, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.lstrip().startswith("#"))
        need = {"tenor_years", "atm_vol"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(
                f"{args.atm}: missing columns {sorted(need - set(reader.fieldnames or ()))}"
            )
        for row in reader:
            tenors.append(float(row["tenor_years"]))
            vols.append(float(row["atm_vol"]))

    sigma0, disp, fitted = _bspp_fit(tenors, vols)
    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_json(out, name, {
        "model": "bs_pp",
        "params": get_model("bs_pp").to_json_dict((sigma0, disp)),
        "market_atm_vols": vols,
        "fitted_atm_vols": fitted,
        "max_round_trip_error": max(abs(f - v) for f, v in zip(fitted, vols)),
    })
    return 0


def cmd_ingest(args) -> int:
    t0 = time.monotonic()
    inputs = []
    surface, spot = _load_surface(args.quotes, inputs, args.rate, args.max_tenors,
                                  args.exclude_dates)

    rows = []
    for sl in surface.slices:
        for q, m in zip(sl.quotes, sl.moneyness):
            rows.append((
                sl.tau, sl.forward, sl.atm_vol, q.strike,
                int(q.is_call), q.bid, q.ask, m, market_data.bucket_of(m).name,
            ))
    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_csv(
        out, name,
        ("tenor_years", "forward", "atm_vol", "strike", "is_call",
         "bid", "ask", "log_moneyness", "bucket"),
        rows,
    )
    print(json.dumps({
        "spot": spot,
        "tenors": len(surface.slices),
        "quotes_kept": sum(len(s.quotes) for s in surface.slices),
        "drop_counts": surface.drop_counts,
    }, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    t0 = time.monotonic()
    ids = model_ids() if args.models == "all" else _model_list(args.models)
    entries = []
    for mid in ids:
        model = get_model(mid)
        vec = model.default_start(BENCH_TENORS)
        entries.append((mid, model.unpack(vec, tenors=BENCH_TENORS)))

    report = timing_bench(entries, trials=args.trials, spot=args.spot,
                          node_count=args.fourier_nodes)
    out = Path(args.out)
    name = _write_manifest(out, args, inputs=[], t0=t0)
    _write_csv(
        out, name,
        ("model_id", "dte0_mean_s", "dte0_half_width_s",
         "surface_mean_s", "surface_half_width_s"),
        [
            (r.model_id, r.dte0_mean, r.dte0_half_width,
             r.surface_mean, r.surface_half_width)
            for r in report.rows
        ],
    )
    return 0


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    inputs = []
    model = get_model(args.model)
    tenors = args.tenors or (args.tau,)
    theta = _native_theta(model, _params_json(args.params, inputs), tuple(tenors))

    cfg = SimConfig(paths=args.paths, steps_per_tenor=args.steps,
                    rng_seed=args.seed, antithetic=args.antithetic)
    samples = simulate_benchmark(args.model, theta, args.tau, cfg)

    out = Path(args.out)
    write_samples_bin(out, samples)
    name = _write_manifest(out, args, inputs, t0)
    print(json.dumps({
        "manifest": name,
        "paths": int(samples.size),
        "mean_growth": float(np.mean(np.exp(samples))),
    }, sort_keys=True))
    return 0


def cmd_smile_expand(args) -> int:
    t0 = time.monotonic()
    inputs = []
    model = get_model("edgeworth")
    params = _native_theta(model, _params_json(args.params, inputs), ())

    exp = smile_expansion(params)
    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_json(out, name, {
        "params": model.to_json_dict(params),
        "theta3": exp.theta3,
        "theta4": exp.theta4,
        "iv_level": exp.iv_level,
        "iv_skew": exp.iv_skew,
        "iv_convexity": exp.iv_convexity,
    })
    return 0


def cmd_termstructure(args) -> int:
    t0 = time.monotonic()
    ids = _model_list(args.models)
    inputs = []
    surface, spot = _load_surface(args.surface, inputs, args.rate, args.max_tenors)
    quad = QuadratureConfig(node_count=args.fourier_nodes)

    columns = {}
    for mid in ids:
        if mid == "bs_pp":
            # closed-form ATM term structure: exact fit, no optimizer
            columns[mid] = _bspp_fit(surface.tenors, [s.atm_vol for s in surface.slices])[2]
            continue
        model = get_model(mid)
        res = calibration.calibrate(surface, mid, rate=args.rate, quad=quad,
                                    budget=args.budget, rng_seed=args.seed)
        theta = model.unpack(res.params, tenors=surface.tenors)
        atm = [(spot * math.exp(args.rate * tau), tau) for tau in surface.tenors]
        recs = price_surface(atm, model, theta, spot, rate=args.rate, quad=quad)
        for rec in recs:
            if rec["iv"] is None:
                raise RuntimeError(
                    f"{mid}: ATM implied vol failed at tau={rec['tau']}: {rec['error']}"
                )
        columns[mid] = [rec["iv"] for rec in recs]

    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    header = ["tenor_years", "market_atm_vol"] + [f"{mid}_atm_vol" for mid in ids]
    rows = []
    for i, sl in enumerate(surface.slices):
        rows.append([sl.tau, sl.atm_vol] + [columns[mid][i] for mid in ids])
    _write_csv(out, name, header, rows)
    return 0


_DISPATCH = {
    "price": cmd_price,
    "calibrate": cmd_calibrate,
    "bootstrap": cmd_bootstrap,
    "ingest": cmd_ingest,
    "bench": cmd_bench,
    "simulate": cmd_simulate,
    "smile-expand": cmd_smile_expand,
    "termstructure": cmd_termstructure,
}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.config:
            # the file's values become defaults; parsing again lets flags win
            _config_defaults(commands, args.cmd, args.config)
            args = parser.parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except (ValueError, KeyError, OSError) as exc:
        # includes JSON decode errors, unknown models, missing files,
        # malformed CSVs and arbitrage-violating inputs
        _emit_error("validation", args.cmd, exc)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        _emit_error("numerical", args.cmd, exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
