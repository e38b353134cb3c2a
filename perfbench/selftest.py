"""Self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py

Runs every workload in-process at ``TINY`` sizes, untraced and traced, and
checks that

* the result line has exactly its four keys, and every metric named in
  BENCHMARK.json is emitted with its unit (end-to-end metrics untraced,
  per-layer metrics traced), each also in the report with a sample count;
* on ``expansion_surface`` the traced spans account for the surface time;
* the tracing overhead is reported;
* the recalibrate evaluation count read from the spans equals the
  optimizer's own count;
* the command-line entry point prints the result as its last line, and
  fails without a result where the program is absent.

Exits 1 and lists the failed checks if any fails.  Takes about ten seconds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.load_program()

from tracing import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, Recalibrate  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_result(workload: str, trace: bool, lines: list, result: dict, spec: dict) -> None:
    tag = f"{workload} trace {int(trace)}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int), f"{tag}: attempted/failed counts")
    expect(result["correct"] is True and result["failed"] == 0, f"{tag}: outputs correct, none failed")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in want}, f"{tag}: emits exactly the {len(want)} named metrics")
    expect(all(got[m["name"]]["unit"] == m["unit"] for m in want if m["name"] in got), f"{tag}: units")
    report = {ln.split()[1] if not ln.startswith("metric layer") else ln.split()[2]: ln
              for ln in lines if ln.startswith("metric ")}
    missing = [m["name"] for m in want if "(n=" not in report.get(m["name"], "")]
    expect(not missing, f"{tag}: report gives unit and sample count of every metric {missing or ''}")
    expect(any(ln.startswith("fingerprint ") for ln in lines), f"{tag}: machine fingerprint")
    if trace:
        expect("trace_overhead_pct" in report, f"{tag}: tracing overhead reported")
    else:
        expect("fail_frac" in report, f"{tag}: fail_frac reported")


def check_spans(result: dict) -> None:
    v = {k: m["value"] for k, m in result["metrics"].items()}
    parts = v["fourier_pricer.quad_ms"] + v["fourier_pricer.iv_ms"] + v["fourier_pricer.probe_ms"] \
        + v["cf_edgeworth.cf_ms"] + v["registry.bs_pp.cf_ms"]
    expect(v["fourier_pricer.quad_ms"] > 0.0, "expansion_surface: quadrature self time is positive")
    expect(abs(parts - v["fourier_pricer.surface_ms"]) <= 0.05 * v["fourier_pricer.surface_ms"],
           f"expansion_surface: quad+iv+probe+cf {parts:.3f} ms accounts for surface "
           f"{v['fourier_pricer.surface_ms']:.3f} ms")
    expect(v["trace.coverage_pct"] >= 95.0,
           f"expansion_surface: surface spans cover {v['trace.coverage_pct']:.1f}% of the traced operation")


def check_eval_count(workdir: Path) -> None:
    wl = Recalibrate(0, TINY, workdir)
    wl.setup()
    tracer = Tracer()
    outputs = wl.op(None, tracer)
    counts = wl.check(None, outputs)
    layers = wl.layers(tracer, None, outputs, counts)
    expect(layers["calibration.evals"] == counts["iterations"],
           f"recalibrate: evaluations from spans {layers['calibration.evals']} "
           f"== optimizer count {counts['iterations']}")


def check_command(scratch: Path) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "expansion_surface",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    try:
        parsed = json.loads(last)
    except json.JSONDecodeError:
        parsed = {}
    expect(proc.returncode == 0 and "metrics" in parsed, "command line: exit 0, result on the last line")

    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "command line: fails without a result where src/ is absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end-to-end metrics match the harness")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per-layer metrics match the harness")
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for workload in WORKLOADS:
            for trace in (False, True):
                lines, result = run.run(workload, 0, 0.5, trace, TINY, workdir)
                check_result(workload, trace, lines, result, spec)
                if trace and workload == "expansion_surface":
                    check_spans(result)
        check_eval_count(workdir)
        check_command(scratch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
