"""scripts/make_fixtures.py as a program: it loads without sympy, its
checks hold under ``python -O``, its field arithmetic agrees with sympy,
its dimension formula and fixture table match what it builds, and it
rebuilds a packaged fixture from scratch."""

import os
import random
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import invert

from eiscong.characters import DirichletChar
from eiscong.newforms import load_fixture
from helpers import from_qq, qq

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


def test_make_fixtures_checks_survive_python_O():
    # the builder's checks are code, not asserts: under -O a bad modulus
    # is still refused, and no fixture is written
    def snapshot():
        return {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in FIXTURES.iterdir()}

    code = ("import sys, runpy; ns = runpy.run_path(sys.argv[1], run_name='make_fixtures'); "
            "ns['KField']([2, 2])")
    before = snapshot()
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == "AssertionError: KField needs a monic modulus"
    assert proc.stdout == ""
    assert snapshot() == before


@pytest.fixture(scope="module")
def builder():
    return runpy.run_path(str(SCRIPT), run_name="make_fixtures")


@pytest.mark.parametrize("label", ["1.12.a.a", "10.8.b.a", "14.7.d.a", "42.6.e.c"])
def test_kfield_mul_and_inv_match_sympy(builder, label):
    g = list(load_fixture(label).field_poly)
    kf = builder["KField"](g)
    rng = random.Random(label)
    for _ in range(20):
        a, b = ([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(kf.deg)]
                for _ in range(2))
        a, b = builder["trim"](a), builder["trim"](b)
        assert kf.mul(a, b) == from_qq((qq(a) * qq(b)).rem(qq(g)))
        if a:
            assert kf.inv(a) == from_qq(invert(qq(a), qq(g)))
            assert kf.mul(a, kf.inv(a)) == [1]


def test_rebuilds_10_8_b_a(builder):
    # levels 5 and 10 from Eisenstein series, the level-5 old forms split
    # off, and the rebase onto x^4 - 15x^2 + 64
    built = builder["build_fixture"]("10.8.b.a", {})
    assert built.to_json() == load_fixture("10.8.b.a").to_json()


@pytest.mark.parametrize("level, k, chi, dim", [
    (5, 8, "5.4", 2), (10, 8, "10.9", 8), (7, 7, "7.3", 3), (14, 7, "14.3", 10),
    (7, 6, "7.4", 2), (14, 6, "14.11", 8), (21, 6, "21.4", 11), (42, 6, "42.25", 36)])
def test_cohen_oesterle_dim_cusp_at_the_built_spaces(builder, level, k, chi, dim):
    # each value passed the span-rank check of a full build
    chi = DirichletChar.from_label(chi)
    assert chi.modulus == level
    assert builder["cohen_oesterle_dim_cusp"](k, chi) == dim


def test_fixture_table_names_the_packaged_fixtures(builder):
    labels = sorted([*builder["FIXTURE_SPECS"], "1.12.a.a"])
    assert labels == sorted(f.stem for f in FIXTURES.iterdir())
