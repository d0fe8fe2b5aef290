from fractions import Fraction

import pytest
from sympy import Poly, Symbol
from sympy import resultant as sympy_resultant

from eiscong import qpoly

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
    ([2, 0, 1], [3, 1]),
    ([1, 1, 1, 1], [5, -2, 1]),
    ([-1, 0, 0, 0, 1], [7, 1, 2]),
])
def test_resultant_matches_sympy(f, g):
    mine = qpoly.resultant(qpoly.from_ints(f), qpoly.from_ints(g))
    theirs = sympy_resultant(to_sympy(qpoly.from_ints(f)).as_expr(),
                             to_sympy(qpoly.from_ints(g)).as_expr(), X)
    assert mine == Fraction(int(theirs))
