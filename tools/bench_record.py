"""Record a checkout's end-to-end benchmark metrics in one BENCH_<label>.json.

    python3 tools/bench_record.py BENCH_<label>.json [--root CHECKOUT]

Runs the checkout's unchanged ``perfbench/run.py`` (untraced, ``run_seconds``
of its BENCHMARK.json) once per workload and seed 1-3, reads the result JSON
on its last line and the fingerprint and ``metric`` lines of its report, and
writes per workload the median and 95% half-width (Student t) over the seeds
of every end-to-end metric, plus the median of each numeric report metric.
A run that exits non-zero stops the record: the workload, seed, exit code
and the run's last 40 stderr lines go to stderr, the exit code is 1 and no
file is written.  scipy (for the t quantile) is imported only after the last
run, so that each run's ``peak_rss_mb`` is its own and not the recorder's.
"""
import argparse, json, statistics, subprocess, sys  # noqa: E401
from pathlib import Path

SEEDS = (1, 2, 3)
p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
p.add_argument("out", type=Path)
p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
args = p.parse_args()
bench = json.loads((args.root / "BENCHMARK.json").read_text())
record = {"seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
results = {}
for name in (w["name"] for w in bench["workloads"]):
    runs, report = [], {}
    for seed in SEEDS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=args.root, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-40:])
            sys.exit(f"bench_record: workload {name} seed {seed} exited {proc.returncode}; "
                     f"last 40 stderr lines:\n{tail}")
        lines = proc.stdout.splitlines()
        record["fingerprint"] = json.loads(next(ln for ln in lines if ln.startswith("fingerprint "))[12:])
        for key, value in (ln[7:].split(" = ")[:2] for ln in lines if ln.startswith("metric ")):
            report.setdefault(key, []).append(value.split()[0])
        runs.append(json.loads(lines[-1]))
    results[name] = runs, report
# only after the last run: a child starts from its parent's peak RSS
# (ru_maxrss survives fork and exec), and scipy.stats takes the recorder to
# about 99 MB
from scipy.stats import t as student_t  # noqa: E402

t = student_t.ppf(0.975, len(SEEDS) - 1) / len(SEEDS) ** 0.5
for name, (runs, report) in results.items():
    end = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in bench["end_to_end"]}
    record["workloads"][name] = {
        "correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs),
        "end_to_end": {k: {"median": statistics.median(v), "half_width_95": t * statistics.stdev(v),
                           "runs": v} for k, v in end.items()},
        "report_median": {k: statistics.median(map(float, v)) for k, v in report.items() if "n/a" not in v}}
args.out.write_text(json.dumps(record, indent=1) + "\n")
