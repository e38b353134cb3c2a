"""Smoke test: every gallery script runs to completion at its smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = {
    "benchmark_pricing_speed.py": ["--trials", "1"],
    "calibrate_synthetic_surface.py": ["--budget", "100"],
    "smile_and_term_structure.py": [],
}


def test_gallery_scripts_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    procs = {
        name: subprocess.Popen([sys.executable, str(ROOT / "examples_gallery" / name), *args],
                               env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, args in SCRIPTS.items()
    }
    try:
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"{name} failed:\n{err}"
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
