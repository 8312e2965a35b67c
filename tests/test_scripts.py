"""Smoke tests of the scripts under scripts/, each run as a program."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_export_models_writes_every_bundled_model(tmp_path):
    proc = _run_script("export_models.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    stems = ("voter_base", "voter_base_fixed_cast_verify", "voter_check4",
             "voter_full_7_5", "coercion_punisher", "coercion_infector",
             "coercion_watchdog", "infrastructure")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{stem}{suffix}" for stem in stems for suffix in (".xml", ".q"))


def test_coercion_analysis_runs():
    proc = _run_script("coercion_analysis.py")
    assert proc.returncode == 0, proc.stderr
    assert "receipt-freeness, vote private: True" in proc.stdout
