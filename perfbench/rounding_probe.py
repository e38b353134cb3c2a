"""Rounding sensitivity of the recalibrate workload.

    python3 perfbench/rounding_probe.py [--seed N ...]

Runs one traced recalibrate cycle on the workload's quotes CSV, scales every
bid and ask in the CSV by (1 + 1e-12), and runs the cycle again.  A
numerically neutral change to the pricer perturbs results by about that
much, so the fit quality (``recal_rmse_vp``) and the optimizer's evaluation
count (``calibration.evals``) must move by far less than the smallest
end-to-end bound in BENCHMARK.json; otherwise a neutral refactor could read
as a regression.  Prints both cycles and the relative changes; exits 1 if a
change exceeds the bound.
"""

import argparse
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

import run

run.load_program()

from tracing import Tracer  # noqa: E402
from workloads import FULL, Recalibrate  # noqa: E402

SCALE = 1.0 + 1e-12


def cycle(wl: Recalibrate) -> tuple:
    tracer = Tracer()
    outputs = wl.op(None, tracer)
    counts = wl.check(None, outputs)
    if counts["failed"]:
        raise RuntimeError("recalibrate cycle failed its checks")
    layers = wl.layers(tracer, None, outputs, counts)
    return counts["rmse_vp"], layers["calibration.evals"]


def scale_quotes(path: Path) -> None:
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        row["bid"] = repr(float(row["bid"]) * SCALE)
        row["ask"] = repr(float(row["ask"]) * SCALE)
        writer.writerow(row)
    path.write_text(out.getvalue())


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, nargs="+", default=[0])
    args = p.parse_args()
    bound = min(m["bound"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"])
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    worst = 0.0
    for seed in args.seed:
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            wl = Recalibrate(seed, FULL, workdir)
            wl.setup()
            rmse0, evals0 = cycle(wl)
            scale_quotes(wl.csv)
            wl.ingest()
            rmse1, evals1 = cycle(wl)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        d_rmse = abs(rmse1 - rmse0) / rmse0
        d_evals = abs(evals1 - evals0) / evals0
        worst = max(worst, d_rmse, d_evals)
        print(f"seed {seed}: recal_rmse_vp {rmse0!r} -> {rmse1!r} (rel {d_rmse:.2e}); "
              f"calibration.evals {evals0} -> {evals1} (rel {d_evals:.2e})")
    print(f"largest relative change {worst:.2e}, smallest end-to-end bound {bound}")
    return 0 if worst < bound else 1


if __name__ == "__main__":
    raise SystemExit(main())
