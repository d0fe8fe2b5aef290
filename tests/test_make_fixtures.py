"""scripts/make_fixtures.py as a program: it loads without sympy, and it
refuses to run under ``python -O``, where the asserts that guard every
fixture it writes would vanish."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"
FIXTURES = ROOT / "src" / "eiscong" / "fixtures"


def test_make_fixtures_loads_without_sympy():
    code = ("import sys, runpy; sys.modules['sympy'] = None; "
            "ns = runpy.run_path(sys.argv[1], run_name='make_fixtures'); "
            "print(callable(ns['main']))")
    proc = subprocess.run([sys.executable, "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_make_fixtures_refuses_python_O():
    def snapshot():
        return {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in FIXTURES.iterdir()}

    before = snapshot()
    proc = subprocess.run([sys.executable, "-O", str(SCRIPT)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode != 0
    assert len(proc.stderr.strip().splitlines()) == 1 and "-O" in proc.stderr
    assert proc.stdout == ""
    assert snapshot() == before
