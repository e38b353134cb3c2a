"""Dump a checkout's priced surface rows, or compare two dumps.

    python3 tools/surface_dump.py dump OUT.json [--root CHECKOUT] [--seeds 1 2 3] [--ops 3] [--tiny]
    python3 tools/surface_dump.py compare A.json B.json

``dump`` imports ``ustvol`` from ``CHECKOUT/src`` and the workloads from
``CHECKOUT/perfbench/workloads.py`` (read, never changed), and for each
seed sets up ``expansion_surface`` and ``ode_surface`` and prices the
inputs of their first ``--ops`` operations with ``price_surface``, one
BLAS thread, as the benchmark does.  It writes every row (strike, tenor,
call, IV, error, truncation flag), each surface's spot and each tenor's
u_max from the pricer's probe pass.  ``--tiny`` takes the workloads'
self-test sizes.

``compare`` prints, per workload and model, how many rows are ``==``
(call, IV and error alike), the largest |ΔC|/S and |ΔIV| over the rows
priced in both, the rows whose failure differs, and whether every tenor's
u_max and truncation flag agree.  It exits 0 whatever it finds.
"""

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("expansion_surface", "ode_surface")


def dump(root: Path, seeds, ops: int, tiny: bool) -> dict:
    os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")})
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import tempfile

    from ustvol.fourier_pricer import _surface_u_max, price_surface
    import workloads

    size = workloads.TINY if tiny else workloads.FULL
    surfaces = []
    for name in WORKLOADS:
        for seed in seeds:
            wl = workloads.WORKLOADS[name](seed, size, Path(tempfile.gettempdir()))
            wl.setup()
            for op in range(ops):
                for mid, theta, grid, _ in wl.prepare(op):
                    spec = wl.specs[mid]
                    taus = list(dict.fromkeys(t for _, t in grid))
                    u_max, truncated = _surface_u_max(
                        lambda u, t: spec.cf_standardized(u, t, theta), spec.spot_vol(theta), taus)
                    rows = price_surface(grid, spec, theta, wl.spot, wl.rate, wl.quad)
                    surfaces.append({"workload": name, "seed": seed, "op": op, "model": mid,
                                     "spot": wl.spot, "u_max": u_max, "truncated": truncated,
                                     "rows": rows})
    return {"root": str(root), "surfaces": surfaces}


def compare(a: dict, b: dict) -> list:
    """Report lines, one per (workload, model), over the surfaces of both."""
    if len(a["surfaces"]) != len(b["surfaces"]):
        return [f"different surface counts: {len(a['surfaces'])} and {len(b['surfaces'])}"]
    stats = {}
    for sa, sb in zip(a["surfaces"], b["surfaces"]):
        key = (sa["workload"], sa["model"])
        if key != (sb["workload"], sb["model"]) or len(sa["rows"]) != len(sb["rows"]):
            return [f"surfaces differ in layout at {key}"]
        st = stats.setdefault(key, {"rows": 0, "equal": 0, "dc": 0.0, "div": 0.0,
                                    "fail_differs": 0, "u_max": True, "truncated": True})
        st["u_max"] &= sa["u_max"] == sb["u_max"]
        st["truncated"] &= sa["truncated"] == sb["truncated"]
        for ra, rb in zip(sa["rows"], sb["rows"]):
            st["rows"] += 1
            st["equal"] += ra == rb
            st["fail_differs"] += (ra["error"] is None) != (rb["error"] is None)
            if ra["call"] is not None and rb["call"] is not None:
                st["dc"] = max(st["dc"], abs(ra["call"] - rb["call"]) / sa["spot"])
            if ra["iv"] is not None and rb["iv"] is not None:
                st["div"] = max(st["div"], abs(ra["iv"] - rb["iv"]))
    return [f"{wl} {mid}: {st['equal']}/{st['rows']} rows ==, max |dC|/S {st['dc']:.3g}, "
            f"max |dIV| {st['div']:.3g}, {st['fail_differs']} rows fail in one only, "
            f"u_max {'==' if st['u_max'] else 'DIFFER'}, "
            f"truncation flags {'==' if st['truncated'] else 'DIFFER'}"
            for (wl, mid), st in stats.items()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("out", type=Path)
    d.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    d.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    d.add_argument("--ops", type=int, default=3)
    d.add_argument("--tiny", action="store_true")
    c = sub.add_parser("compare")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = p.parse_args(argv)
    if args.cmd == "dump":
        record = dump(args.root.resolve(), args.seeds, args.ops, args.tiny)
        args.out.write_text(json.dumps(record) + "\n")
    else:
        print("\n".join(compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
