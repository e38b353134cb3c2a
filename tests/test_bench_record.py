"""tools/bench_record.py reports a failing benchmark run and writes nothing."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_run_reports_its_stderr_tail_and_writes_no_record(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "broken_surface"}], "end_to_end": []}))
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(50):\n"
        "    print(f'stderr line {i}', file=sys.stderr)\n"
        "sys.exit(3)\n")
    out = tmp_path / "BENCH_broken.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), str(out),
                           "--root", str(checkout)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert not out.exists()
    err = proc.stderr.splitlines()
    assert "workload broken_surface seed 1 exited 3" in err[0]
    assert err[1:] == [f"stderr line {i}" for i in range(10, 50)]


def test_run_peak_rss_is_the_runs_own(tmp_path):
    # a child's ru_maxrss starts from its parent's peak, so a recorder that
    # had imported scipy.stats (~99 MB) would record that instead
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "tiny"}],
         "end_to_end": [{"name": "peak_rss_mb"}]}))
    (checkout / "perfbench" / "run.py").write_text(
        "import json, resource\n"
        "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0\n"
        "print('fingerprint {}')\n"
        "print(json.dumps({'correct': True, 'failed': 0,\n"
        "                  'metrics': {'peak_rss_mb': {'value': rss_mb}}}))\n")
    out = tmp_path / "BENCH_tiny.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), str(out),
                           "--root", str(checkout)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rss = json.loads(out.read_text())["workloads"]["tiny"]["end_to_end"]["peak_rss_mb"]["runs"]
    assert len(rss) == 3
    assert max(rss) < 60.0
