"""tools/surface_dump.py dumps a checkout's surface rows and compares two dumps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = str(ROOT / "tools" / "surface_dump.py")


def _compare(a: Path, b: Path) -> list:
    proc = subprocess.run([sys.executable, TOOL, "compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dump_equals_itself_and_the_comparison_shows_a_changed_row(tmp_path):
    dump = tmp_path / "dump.json"
    proc = subprocess.run([sys.executable, TOOL, "dump", str(dump), "--root", str(ROOT),
                           "--tiny", "--seeds", "1", "--ops", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(dump.read_text())
    surfaces = record["surfaces"]
    assert [(s["workload"], s["model"]) for s in surfaces] == [
        ("expansion_surface", "edgeworth_pp"), ("expansion_surface", "bs_pp"),
        ("ode_surface", "heston_merton_2f"), ("ode_surface", "rough_heston_pp")]
    # the tiny sizes: 2 tenors x 7 ladder points per surface
    assert all(len(s["rows"]) == 14 and len(s["u_max"]) == len(s["truncated"]) == 2
               for s in surfaces)
    assert _compare(dump, dump) == [
        f"{wl} {mid}: 14/14 rows ==, max |dC|/S 0, max |dIV| 0, 0 rows fail in one only, "
        "u_max ==, truncation flags ==" for wl, mid in [(s["workload"], s["model"])
                                                       for s in surfaces]]
    # one call moved by 1e-3 S, one contract failed and one tenor's flag flipped
    ode = surfaces[2]
    row = next(r for r in ode["rows"] if r["call"] is not None and r["iv"] is not None)
    row["call"] += 1e-3 * ode["spot"]
    ode["rows"][-1].update(call=None, iv=None, error="RuntimeError: diverged")
    ode["truncated"][0] = not ode["truncated"][0]
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(record))
    line = _compare(dump, changed)[2]
    assert line.startswith("ode_surface heston_merton_2f: 12/14 rows ==, max |dC|/S 0.001, ")
    assert line.endswith(", 1 rows fail in one only, u_max ==, truncation flags DIFFER")
