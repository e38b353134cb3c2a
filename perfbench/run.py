"""Layered benchmark of ustvol: surface pricing, recalibration, Monte Carlo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: expansion_surface, ode_surface, recalibrate, mc_oracle (see
workloads.py and NOTES.md).  The program is imported from ``src/`` of the
checkout this file sits in.  The run sets up the workload several times,
then runs operations in a closed loop for ``--seconds`` and checks every
output.  It prints a report (machine fingerprint, each metric with its unit
and sample count) and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the checked units of the run.  ``failed`` counts the
units that fail a check outside the known failure classes of NOTES.md, so
any failure it counts also makes the run incorrect.  Units of a known class
(the pricer's wing defect, the expansion's butterfly violations, the
martingale test's false alarms) are deterministic in the inputs or
statistical; they enter the end-to-end metric ``ok_frac`` and the report's
``fail_frac`` instead, where a change in their share is measured and
bounded.

``--trace 0`` reports the end-to-end metrics of untraced operations;
``--trace 1`` alternates traced and untraced operations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# one caller, one core: the BLAS/OpenMP pools are pinned before numpy loads
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
TAIL_BEYOND = 10
# the reference kernel runs at least once between operations and for
# REF_SHARE of their time
REF_SHARE = 0.10

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better) of the per-layer metrics, as in BENCHMARK.json
PER_LAYER = (
    ("fourier_pricer.surface_ms", "ms", "lower"),
    ("fourier_pricer.quad_ms", "ms", "lower"),
    ("fourier_pricer.iv_ms", "ms", "lower"),
    ("fourier_pricer.iv_calls", "count", "lower"),
    ("fourier_pricer.probe_ms", "ms", "lower"),
    ("fourier_pricer.cf_points", "count", "lower"),
    ("fourier_pricer.floored", "count", "lower"),
    ("fourier_pricer.no_iv", "count", "lower"),
    ("cf_edgeworth.cf_ms", "ms", "lower"),
    ("cf_edgeworth.cf_calls", "count", "lower"),
    ("registry.bs_pp.cf_ms", "ms", "lower"),
    ("registry.unpack_ms", "ms", "lower"),
    ("benchmarks.heston_merton_2f.cf_ms", "ms", "lower"),
    ("benchmarks.rough_heston_pp.cf_ms", "ms", "lower"),
    ("calibration.evals", "count", "lower"),
    ("calibration.eval_ms", "ms", "lower"),
    ("calibration.surface_sweeps", "count", "lower"),
    ("calibration.report_ms", "ms", "lower"),
    ("calibration.iv_clamps", "count", "lower"),
    ("calibration.penalized", "count", "lower"),
    ("calibration.rmse_vp", "vol_points", "lower"),
    ("market_data.read_ms", "ms", "lower"),
    ("market_data.filter_ms", "ms", "lower"),
    ("market_data.quotes_kept", "count", "higher"),
    ("market_data.drops.zero_bid", "count", "lower"),
    ("market_data.drops.no_forward_pair", "count", "lower"),
    ("market_data.drops.moneyness_window", "count", "lower"),
    ("market_data.drops.tenor_cap", "count", "lower"),
    ("bspp_bootstrap.start_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("mc_oracle.edgeworth.paths_per_s", "1/s", "higher"),
    ("mc_oracle.edgeworth_pp.paths_per_s", "1/s", "higher"),
    ("mc_oracle.bs_pp.paths_per_s", "1/s", "higher"),
    ("mc_oracle.heston_merton_1f.paths_per_s", "1/s", "higher"),
    ("mc_oracle.heston_merton_1f_pp.paths_per_s", "1/s", "higher"),
    ("mc_oracle.heston_merton_2f.paths_per_s", "1/s", "higher"),
    ("mc_oracle.heston_merton_2f_pp.paths_per_s", "1/s", "higher"),
    ("mc_oracle.rough_heston_pp.paths_per_s", "1/s", "higher"),
    ("mc_oracle.rough_heston_merton_pp.paths_per_s", "1/s", "higher"),
    ("mc_oracle.exact_submodel.paths_per_s", "1/s", "higher"),
    ("mc_oracle.empirical_cf_ms", "ms", "lower"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
)


def load_program():
    """Import ustvol from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ustvol
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ustvol from {src}: {exc}")
    if src not in Path(ustvol.__file__).resolve().parents:
        raise SystemExit(f"perfbench: ustvol resolved to {ustvol.__file__}, not under {src}")


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "pinned_threads": PINNED_THREADS,
    }


class Reference:
    """A fixed kernel that does not touch ustvol.  It mixes the kinds of work
    the workloads do: complex numpy arithmetic on 2048-point grids, a scalar
    Python loop and random-number generation.  With ``stream_memory`` it
    adds a fractional-Adams-like sweep of matrix-vector products over an
    8 MB complex history, which streams memory the way the ODE CF solvers
    do.  This host's speed drifts by up to a quarter within minutes and
    flips between a fast and a slow mode within a second.  The mean time of
    the kernel runs next to an operation measures the speed that operation
    saw, and scales its time to the nominal machine, on which the kernel
    takes ``nominal_ms`` (its mean on the machine the benchmark was defined
    on, rounded)."""

    def __init__(self, stream_memory: bool) -> None:
        import numpy as np

        self.stream_memory = stream_memory
        self.nominal_ms = 12.0 if stream_memory else 5.0

        self.np = np
        self.u = np.linspace(1e-8, 50.0, 2048)
        self.rng = np.random.default_rng(0)
        if stream_memory:
            fixed = np.random.default_rng(1)
            self.hist = fixed.standard_normal((257, 2000)) + 1j * fixed.standard_normal((257, 2000))
            self.weights = fixed.random(257)
            self.linear = fixed.standard_normal(2000) + 0j

    def run_ms(self) -> float:
        np, u = self.np, self.u
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(20):
            acc += float(np.trapezoid(np.real(np.exp(1j * u * (0.1 * k)) / (1j * u)), u))
        for k in range(2000):
            acc += math.erfc(k * 1e-4)
        for _ in range(4):
            g = self.rng.standard_normal((4, 5000))
            acc += float(self.rng.poisson(np.abs(g[0]) + 1.0).sum() + g.sum())
        for n in range(0, 256 if self.stream_memory else 0, 8):
            psi = self.weights[n::-1] @ self.hist[: n + 1]
            acc += float(np.abs(self.linear * psi + psi * psi).max())
        return 1e3 * (time.perf_counter() - t0)


def tail(values) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it; none
    when that percentile would not lie above the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return None, None
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, seconds: float, trace: bool) -> dict:
    """Closed loop of operations for ``seconds``; with ``trace`` every odd
    operation is traced and the even ones give the untraced reference.
    Reference kernel runs fill the gaps between operations."""
    from tracing import Tracer

    plain, traced, layers, surfaces = [], [], [], {}
    totals = {"attempted": 0, "failed": 0, "core_failed": 0}
    extras = []
    ref = Reference(getattr(wl, "stream_memory", False))
    ref_ms, ref_gap = [], []  # kernel times and the gap each ran in; gap i precedes operation i
    op_ms_total = 0.0

    def reference(gap: int) -> None:
        ref_ms.append(ref.run_ms())
        ref_gap.append(gap)
        while sum(ref_ms) < REF_SHARE * op_ms_total:
            ref_ms.append(ref.run_ms())
            ref_gap.append(gap)

    plain_at = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() < deadline:
        reference(i)
        inputs = wl.prepare(i)
        tracer = Tracer() if trace and i % 2 else None
        t0 = time.perf_counter()
        outputs = wl.op(inputs, tracer)
        dt = time.perf_counter() - t0
        op_ms_total += 1e3 * dt
        counts = wl.check(inputs, outputs)
        for key in totals:
            totals[key] += counts[key]
        extras.append(counts)
        if tracer is None:
            plain.append(dt)
            plain_at.append(i)
            for mid, ms in getattr(wl, "last_surface_ms", {}).items():
                surfaces.setdefault(mid, []).append(ms)
        else:
            traced.append(dt)
            row = wl.layers(tracer, inputs, outputs, counts)
            row["trace.op_ms"] = 1e3 * dt
            row["trace.coverage_pct"] = 100.0 * tracer.top_level() / dt
            layers.append(row)
        i += 1
    reference(i)
    # operation i ran between gaps i and i + 1
    gap_ms = {}
    for g, x in zip(ref_gap, ref_ms):
        gap_ms.setdefault(g, []).append(x)
    speed = [ref.nominal_ms / statistics.fmean(gap_ms[j] + gap_ms[j + 1]) for j in plain_at]
    return {"plain": plain, "plain_speed": speed, "traced": traced, "layers": layers,
            "surfaces": surfaces, "totals": totals, "extras": extras, "ref_ms": ref_ms,
            "ref_nominal_ms": ref.nominal_ms}


def report_line(name: str, value, unit: str, n, note: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"metric {name} = {shown} {unit} (n={n}){' ' + note if note else ''}"


def run(workload: str, seed: int, seconds: float, trace: bool, size, workdir: Path):
    """Set up and measure one workload; returns (report lines, result dict)."""
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T_START
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = WORKLOADS[workload](seed, size, workdir)
        wl.setup()
        setups.append(time.perf_counter() - t0)
    m = measure(wl, seconds, trace)
    tot = m["totals"]
    lines = [f"fingerprint {json.dumps(fingerprint(), sort_keys=True)}",
             f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}"]
    ref_mean = statistics.fmean(m["ref_ms"])
    speed = m["ref_nominal_ms"] / ref_mean
    lines.append(report_line("machine_speed", speed, "x", len(m["ref_ms"]),
                             f"reference kernel mean {ref_mean:.4f} ms vs nominal {m['ref_nominal_ms']} ms; "
                             "setup_s is its wall time x this factor, op_ms_p50 scales each "
                             "operation by the kernel runs next to it"))
    setup_wall = import_s + statistics.median(setups)
    setup_s = setup_wall * speed
    lines.append(report_line("setup_s", setup_s, "s", SETUP_REPS,
                             f"wall {setup_wall:.4f} s = import {import_s:.3f} s + median of {SETUP_REPS} set-ups"))
    ops_ms = [1e3 * x for x in m["plain"]]
    op_wall = statistics.median(ops_ms)
    op_p50 = statistics.median(ms * f for ms, f in zip(ops_ms, m["plain_speed"]))
    fail_frac = tot["failed"] / tot["attempted"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines += _named_lines(workload, m, ops_ms, op_wall)
    lines.append(report_line("op_ms_p50", op_p50, "ms", len(ops_ms),
                             f"untraced operations, wall {op_wall:.4f} ms"))
    lines.append(report_line("fail_frac", fail_frac, "frac", tot["attempted"],
                             f"{tot['failed']} units fail a check, {tot['core_failed']} of them "
                             "outside the known failure classes (the result's failed)"))
    lines.append(report_line("ok_frac", 1.0 - fail_frac, "frac", tot["attempted"]))
    lines.append(report_line("peak_rss_mb", rss_mb, "MB", 1))
    if trace:
        overhead = 100.0 * (statistics.median(m["traced"]) / statistics.median(m["plain"]) - 1.0)
        lines.append(report_line("trace_overhead_pct", overhead, "%", f"{len(m['traced'])}+{len(m['plain'])}",
                                 "median traced vs untraced operation"))
        metrics = {}
        for row in m["layers"]:
            row["trace.overhead_pct"] = overhead
        for name, unit, _ in PER_LAYER:
            vals = [row.get(name, 0) for row in m["layers"]]
            metrics[name] = {"value": float(statistics.median(vals)), "unit": unit}
            lines.append(report_line("layer " + name, metrics[name]["value"], unit, len(vals)))
    else:
        values = {"setup_s": setup_s, "op_ms_p50": op_p50, "ok_frac": 1.0 - fail_frac,
                  "peak_rss_mb": rss_mb}
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    result = {"correct": tot["core_failed"] == 0, "attempted": tot["attempted"],
              "failed": tot["core_failed"], "metrics": metrics}
    return lines, result


def _named_lines(workload: str, m: dict, ops_ms: list, op_p50: float) -> list:
    """The workload's own names for its end-to-end latency and quality, in
    wall time."""
    lines = []
    if m["surfaces"]:
        pooled = [x for xs in m["surfaces"].values() for x in xs]
        lines.append(report_line("surface_ms_p50", statistics.median(pooled), "ms", len(pooled)))
        t, pct = tail(pooled)
        lines.append(report_line("surface_ms_tail", t, "ms", len(pooled),
                                 f"p{pct:.1f}" if pct else f"needs {2 * TAIL_BEYOND} samples"))
        for mid, xs in m["surfaces"].items():
            lines.append(report_line(f"surface_ms_p50[{mid}]", statistics.median(xs), "ms", len(xs)))
    elif workload == "recalibrate":
        lines.append(report_line("recal_s", op_p50 / 1e3, "s", len(ops_ms)))
        rmse = [c["rmse_vp"] for c in m["extras"]]
        lines.append(report_line("recal_rmse_vp", statistics.median(rmse), "vol_points", len(rmse)))
    elif workload == "mc_oracle":
        lines.append(report_line("mc_sweep_s", op_p50 / 1e3, "s", len(ops_ms)))
    t, pct = tail(ops_ms)
    lines.append(report_line("op_ms_tail", t, "ms", len(ops_ms),
                             f"p{pct:.1f}" if pct else f"needs {2 * TAIL_BEYOND} samples"))
    return lines


def main(argv=None) -> int:
    from workloads import FULL, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    load_program()
    raise SystemExit(main())
