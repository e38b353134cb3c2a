"""Command-line front end: ingest -> calibrate -> price -> diagnose.

Every successful run writes its data artifact plus a manifest JSON sidecar
(``<out>.manifest.json``) recording the command, input paths, a hash of the
effective configuration, the RNG seed, artifact versions and wall time.
Text outputs open with a ``# manifest:`` line naming that sidecar; JSON
outputs carry a ``"manifest"`` key.  For a fixed command line, config and
inputs the data bytes are identical across reruns -- measured wall time
lives only in the manifest.  (The one exception is ``bench``, whose data
*is* wall-clock measurement.)

Exit codes: 0 success, 2 validation failure (bad flags, malformed JSON,
missing files, unknown model ids, arbitrage-violating inputs), 1 numerical
failure.  Failures emit one machine-parsable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every output artifact."""

    command: str
    inputs: tuple
    config_hash: str
    rng_seed: int
    versions: dict
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": list(self.inputs),
            "config_hash": self.config_hash,
            "rng_seed": self.rng_seed,
            "versions": dict(self.versions),
            "wall_time": self.wall_time,
        }


def _versions() -> dict:
    import numpy
    import scipy

    try:
        from importlib.metadata import version

        own = version("ustvol")
    except Exception:
        own = "unknown"
    return {
        "ustvol": own,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "format": _FORMAT_VERSION,
    }


def _config_hash(args) -> str:
    skip = {"func"}
    payload = {
        k: str(v) for k, v in sorted(vars(args).items()) if k not in skip
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out_path: Path, args, inputs, t0: float) -> str:
    """Write ``<out>.manifest.json`` and return its file name."""
    man = RunManifest(
        command=args.cmd,
        inputs=tuple(str(p) for p in inputs),
        config_hash=_config_hash(args),
        rng_seed=int(getattr(args, "seed", 0) or 0),
        versions=_versions(),
        wall_time=time.monotonic() - t0,
    )
    path = out_path.with_name(out_path.name + ".manifest.json")
    path.write_text(json.dumps(man.to_json_dict(), sort_keys=True, indent=2) + "\n")
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    common.add_argument("--fourier-nodes", type=int, default=None, dest="fourier_nodes",
                        help="quadrature node count override")
    common.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")

    p = argparse.ArgumentParser(
        prog="ustvol",
        description="short-tenor vol surface pricing, calibration and diagnostics",
    )
    sub = p.add_subparsers(dest="cmd")

    sp = sub.add_parser("price", parents=[common],
                        help="price a (tenor, strike) grid and invert to IVs")
    sp.add_argument("--model", required=True)
    sp.add_argument("--params", required=True,
                    help="JSON text or @file: object with named fields, or a vector")
    sp.add_argument("--tenors", required=True, type=_float_list)
    sp.add_argument("--strikes", required=True, type=_float_list)
    sp.add_argument("--spot", type=float, default=None)
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("calibrate", parents=[common],
                        help="fit a registry model to a quote surface")
    sp.add_argument("--model", required=True)
    sp.add_argument("--surface", required=True, help="quotes CSV")
    sp.add_argument("--out", required=True, help="result JSON path")
    sp.add_argument("--report", default=None,
                    help="also write a bucket-by-tenor RMSE grid CSV here")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--max-tenors", type=int, default=None, dest="max_tenors")
    sp.add_argument("--exclude-dates", default=None, dest="exclude_dates")

    sp = sub.add_parser("bootstrap", parents=[common],
                        help="exact displacement fit from an ATM term structure")
    sp.add_argument("--atm", required=True, help="CSV with tenor_years, atm_vol")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("ingest", parents=[common],
                        help="filter a raw quote file into a pricing surface")
    sp.add_argument("--quotes", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-tenors", type=int, default=None, dest="max_tenors")
    sp.add_argument("--exclude-dates", default=None, dest="exclude_dates")
    sp.add_argument("--rate", type=float, default=None)

    sp = sub.add_parser("bench", parents=[common],
                        help="wall-time comparison across pricing models")
    sp.add_argument("--models", required=True, help="'all' or comma-separated ids")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--spot", type=float, default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("simulate", parents=[common],
                        help="Monte Carlo terminal returns to a binary file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--params", required=True)
    sp.add_argument("--tau", required=True, type=float)
    sp.add_argument("--paths", required=True, type=int)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--tenors", type=_float_list, default=None,
                    help="tenor grid for vector params of displaced models")
    sp.add_argument("--antithetic", action="store_true", default=None)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("smile-expand", parents=[common],
                        help="closed-form short-tenor smile coefficients")
    sp.add_argument("--params", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("termstructure", parents=[common],
                        help="market vs model ATM vol by tenor")
    sp.add_argument("--surface", required=True)
    sp.add_argument("--models", default=None, help="comma-separated ids (default bs_pp)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--max-tenors", type=int, default=None, dest="max_tenors")

    return p


def _load_config_file(path: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _apply_config(args, parser) -> None:
    """Fill unset flags from the config file, each value converted as the
    subcommand's own flag converts it; explicit flags win."""
    if not getattr(args, "config", None):
        return
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.cmd]._actions}
    for key, raw in _load_config_file(args.config).items():
        if key not in actions or not hasattr(args, key) or getattr(args, key) is not None:
            continue
        action = actions[key]
        if action.nargs == 0:  # store_true
            val = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                val = action.type(raw)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
        else:
            val = raw
        setattr(args, key, val)


def _quad(args):
    from .fourier_pricer import QuadratureConfig

    if args.fourier_nodes is None:
        return None
    return QuadratureConfig(node_count=args.fourier_nodes)


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


def _ingest_config(args):
    from .market_data import IngestConfig

    inputs = []
    dates = ()
    if getattr(args, "exclude_dates", None):
        inputs.append(args.exclude_dates)
        lines = Path(args.exclude_dates).read_text().splitlines()
        dates = tuple(
            s.split("#", 1)[0].strip() for s in lines if s.split("#", 1)[0].strip()
        )
    kwargs = {"exclude_dates": dates}
    if getattr(args, "max_tenors", None) is not None:
        kwargs["max_tenors"] = args.max_tenors
    if getattr(args, "rate", None) is not None:
        kwargs["rate"] = args.rate
    return IngestConfig(**kwargs), inputs


def _load_surface(args, inputs: list):
    from .market_data import filter_surface, read_quotes_csv

    inputs.append(args.surface if hasattr(args, "surface") else args.quotes)
    spot, quotes = read_quotes_csv(inputs[-1])
    cfg, extra = _ingest_config(args)
    inputs.extend(extra)
    return filter_surface(quotes, spot, cfg), spot


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_price(args) -> int:
    from .fourier_pricer import price_surface
    from .registry import get_model

    t0 = time.monotonic()
    inputs = []
    model = get_model(args.model)
    theta = _native_theta(model, _params_json(args.params, inputs),
                          tuple(sorted(args.tenors)))
    spot = args.spot if args.spot is not None else 100.0
    rate = args.rate or 0.0

    grid = [(k, t) for t in sorted(args.tenors) for k in args.strikes]
    rows = price_surface(grid, model, theta, spot, rate=rate, quad=_quad(args))
    failed = [r for r in rows if r["call"] is None]
    if len(failed) == len(rows):
        raise RuntimeError(f"no contract priced: {failed[0]['error']}")

    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_csv(
        out, name, ("tenor", "strike", "price", "iv"),
        [
            (r["tau"], r["strike"],
             "" if r["call"] is None else r["call"],
             "" if r["iv"] is None else r["iv"])
            for r in rows
        ],
    )
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import calibrate
    from .market_data import MoneynessBucket
    from .registry import get_model

    t0 = time.monotonic()
    inputs = []
    model = get_model(args.model)
    surface, _spot = _load_surface(args, inputs)

    kwargs = {
        "rate": args.rate or 0.0,
        "quad": _quad(args),
        "rng_seed": args.seed or 0,
    }
    if args.budget is not None:
        kwargs["budget"] = args.budget
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    res = calibrate(surface, args.model, **kwargs)

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
        for bucket in MoneynessBucket:
            cells = [bucket.name]
            for j in range(n_tenors):
                val = res.bucket_rmse.get((j, bucket))
                cells.append("" if val is None else val)
            rows.append(cells)
        _write_csv(report, name, header, rows)
    return 0


def cmd_bootstrap(args) -> int:
    from .bspp_bootstrap import AtmTermStructure, bspp_atm_vol, calibrate_shift_from_atm
    from .cf_edgeworth import Displacement

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

    ts = AtmTermStructure(tuple(tenors), tuple(vols))
    sigma0, shifts = calibrate_shift_from_atm(ts)
    disp = Displacement(tenors=ts.tenors, shifts=tuple(shifts))
    fitted = [bspp_atm_vol(t, sigma0, disp) for t in ts.tenors]

    out = Path(args.out)
    name = _write_manifest(out, args, inputs, t0)
    _write_json(out, name, {
        "model": "bs_pp",
        "sigma0": sigma0,
        "shifts": list(shifts),
        "tenors": list(ts.tenors),
        "market_atm_vols": list(ts.atm_vols),
        "fitted_atm_vols": fitted,
        "max_round_trip_error": max(
            abs(f - v) for f, v in zip(fitted, ts.atm_vols)
        ),
    })
    return 0


def cmd_ingest(args) -> int:
    from .market_data import bucket_of

    t0 = time.monotonic()
    inputs = []
    args_surface_alias = args  # reuses --quotes via _load_surface
    surface, spot = _load_surface(args_surface_alias, inputs)

    rows = []
    for sl in surface.slices:
        for q, m in zip(sl.quotes, sl.moneyness):
            rows.append((
                sl.tau, sl.forward, sl.atm_vol, q.strike,
                int(q.is_call), q.bid, q.ask, m, bucket_of(m).name,
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
    from .diagnostics import BENCH_TENORS, timing_bench
    from .registry import get_model, model_ids

    t0 = time.monotonic()
    ids = model_ids() if args.models == "all" else tuple(
        tok.strip() for tok in args.models.split(",") if tok.strip()
    )
    entries = []
    for mid in ids:
        model = get_model(mid)
        vec = model.default_start(BENCH_TENORS)
        entries.append((mid, model.unpack(vec, tenors=BENCH_TENORS)))

    report = timing_bench(
        entries,
        trials=args.trials if args.trials is not None else 100,
        spot=args.spot if args.spot is not None else 100.0,
        node_count=args.fourier_nodes if args.fourier_nodes is not None else 2_000,
    )
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
    from .mc_oracle import SimConfig, simulate_benchmark, write_samples_bin
    from .registry import get_model

    t0 = time.monotonic()
    inputs = []
    model = get_model(args.model)
    tenors = args.tenors if args.tenors else (args.tau,)
    theta = _native_theta(model, _params_json(args.params, inputs), tuple(tenors))

    cfg = SimConfig(
        paths=args.paths,
        steps_per_tenor=args.steps if args.steps is not None else 200,
        rng_seed=args.seed or 0,
        antithetic=bool(args.antithetic),
    )
    samples = simulate_benchmark(args.model, theta, args.tau, cfg)

    out = Path(args.out)
    write_samples_bin(out, samples)
    name = _write_manifest(out, args, inputs, t0)
    import numpy as np

    print(json.dumps({
        "manifest": name,
        "paths": int(samples.size),
        "mean_growth": float(np.mean(np.exp(samples))),
    }, sort_keys=True))
    return 0


def cmd_smile_expand(args) -> int:
    from .diagnostics import smile_expansion
    from .registry import get_model

    t0 = time.monotonic()
    inputs = []
    model = get_model("edgeworth")
    parsed = _params_json(args.params, inputs)
    params = _native_theta(model, parsed, ())

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
    import math

    from .bspp_bootstrap import AtmTermStructure, bspp_atm_vol, calibrate_shift_from_atm
    from .calibration import calibrate
    from .cf_edgeworth import Displacement
    from .fourier_pricer import price_surface
    from .registry import get_model

    t0 = time.monotonic()
    inputs = []
    surface, spot = _load_surface(args, inputs)
    rate = args.rate or 0.0
    ids = tuple(
        tok.strip() for tok in (args.models or "bs_pp").split(",") if tok.strip()
    )

    columns = {}
    for mid in ids:
        model = get_model(mid)
        if mid == "bs_pp":
            # closed-form ATM term structure: exact fit, no optimizer
            ts = AtmTermStructure(
                surface.tenors, tuple(s.atm_vol for s in surface.slices)
            )
            sigma0, shifts = calibrate_shift_from_atm(ts)
            disp = Displacement(tenors=ts.tenors, shifts=tuple(shifts))
            columns[mid] = [bspp_atm_vol(t, sigma0, disp) for t in ts.tenors]
            continue
        kwargs = {"rate": rate, "quad": _quad(args), "rng_seed": args.seed or 0}
        if args.budget is not None:
            kwargs["budget"] = args.budget
        res = calibrate(surface, mid, **kwargs)
        theta = model.unpack(res.params, tenors=surface.tenors)
        atm = [(spot * math.exp(rate * tau), tau) for tau in surface.tenors]
        recs = price_surface(atm, model, theta, spot, rate=rate, quad=_quad(args))
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        _apply_config(args, parser)
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
