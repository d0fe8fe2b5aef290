import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import Poly, Symbol
from sympy import resultant as sympy_resultant

from eiscong import qpoly
from eiscong.cyclotomic import CycNum, cyclotomic_poly

X = Symbol("x")


def to_sympy(f):
    return Poly(list(reversed(f)) or [0], X, domain="QQ")


def test_divmod_roundtrip():
    f = qpoly.from_ints([3, 0, -2, 1, 7])
    g = qpoly.from_ints([1, 2, 1])
    q, r = qpoly.divmod_poly(f, g)
    assert qpoly.add(qpoly.mul(q, g), r) == f
    assert qpoly.degree(r) < qpoly.degree(g)


def test_ext_gcd_bezout():
    f = qpoly.from_ints([1, 0, 1])
    g = qpoly.from_ints([-1, 1])
    u, v, d = qpoly.ext_gcd(f, g)
    assert qpoly.add(qpoly.mul(u, f), qpoly.mul(v, g)) == d
    assert d[-1] == 1


@pytest.mark.parametrize("f,g", [
    ([1, 0, 1], [3, 1]),
    ([1, 1, 1, 1], [5, -2, 1]),
    ([-1, 0, 0, 0, 1], [7, 1, 2]),
])
def test_resultant_matches_sympy(f, g):
    # f is a product of cyclotomic polynomials, so Res(f, g) is the product
    # of the norms of g(zeta_n) over the factors Phi_n of f
    rest, mine = qpoly.from_ints(f), Fraction(1)
    for n in range(1, 4 * len(f)):
        phi = qpoly.from_ints(cyclotomic_poly(n))
        while qpoly.degree(rest) >= qpoly.degree(phi):
            q, r = qpoly.divmod_poly(rest, phi)
            if r:
                break
            rest, mine = q, mine * CycNum(n, g).norm()
    assert rest == [1]
    theirs = sympy_resultant(to_sympy(qpoly.from_ints(f)).as_expr(),
                             to_sympy(qpoly.from_ints(g)).as_expr(), X)
    assert mine == Fraction(int(theirs))


def test_library_does_not_import_qpoly():
    # qpoly serves the fixture builder and the tests; the runtime works on
    # integer vectors and must not pull it in
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eiscong, eiscong.cli; "
            "print('eiscong.qpoly' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
