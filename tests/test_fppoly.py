import random

import pytest
from sympy import GF, Poly, Symbol

from eiscong import fppoly
from eiscong.cyclotomic import cyclotomic_poly

X = Symbol("x")


def sympy_factors(coeffs, p):
    f = Poly(list(reversed(coeffs)), X, modulus=p, symmetric=False)
    out = []
    for fac, mult in f.factor_list()[1]:
        cs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append((tuple(cs), mult))
    return sorted(out)


def test_divmod_roundtrip_mod_prime_power():
    rng = random.Random(2)
    for m in (7, 49, 343, 11**3):
        f = [rng.randrange(m) for _ in range(9)] + [1]
        g = [rng.randrange(m) for _ in range(4)] + [1]
        q, r = fppoly.divmod_poly(f, g, m)
        back = fppoly.add(fppoly.mul(q, g, m), r, m)
        assert back == fppoly.normalize(f, m)
        assert len(r) < len(g)


def test_ext_gcd_bezout():
    f = [1, 0, 1]
    g = [3, 1]
    u, v, d = fppoly.ext_gcd(f, g, 7)
    lhs = fppoly.add(fppoly.mul(u, f, 7), fppoly.mul(v, g, 7), 7)
    assert lhs == d and d[-1] == 1


@pytest.mark.parametrize("ell,coeffs", [
    (2, [1, 1, 1, 0, 1, 1]),       # needs char-2 splitting
    (3, [1, 0, 1, 2, 0, 1]),
    (337, [1, 1, 1]),              # Phi_6-like split
    (73, [1, 1, 1]),
    (13, [1, 0, 0, 0, 0, 0, 1]),
])
def test_factor_squarefree_matches_sympy(ell, coeffs):
    f = fppoly.monic(fppoly.normalize(coeffs, ell), ell)
    if len(fppoly.gcd(f, fppoly.derivative(f, ell), ell)) > 1:
        pytest.skip("not squarefree")
    mine = [tuple(g) for g in fppoly.factor_squarefree(f, ell)]
    theirs = [c for c, m in sympy_factors(f, ell)]
    assert sorted(mine) == sorted(theirs)
    prod = [1]
    for g in mine:
        prod = fppoly.mul(prod, list(g), ell)
    assert prod == f


def test_factor_cyclotomic_cases():
    # Phi_6 mod 337: roots -128 and -208
    phi6 = list(cyclotomic_poly(6))
    facs = fppoly.factor_squarefree(phi6, 337)
    assert facs == [[128, 1], [208, 1]]
    # Phi_5 mod 2 is irreducible (2 has order 4 mod 5)
    phi5 = list(cyclotomic_poly(5))
    assert fppoly.factor_squarefree(phi5, 2) == [fppoly.normalize(phi5, 2)]


def test_factor_deterministic():
    phi7 = list(cyclotomic_poly(7))
    a = fppoly.factor_squarefree(phi7, 2)
    b = fppoly.factor_squarefree(phi7, 2)
    assert a == b and len(a) == 2 and all(len(g) == 4 for g in a)


def test_is_irreducible():
    assert fppoly.is_irreducible([1, 1, 1], 2)          # x^2+x+1 over F_2
    assert not fppoly.is_irreducible([1, 0, 1], 2)      # (x+1)^2
    assert fppoly.is_irreducible([1, 1], 5)
    assert not fppoly.is_irreducible([1], 5)


def test_lex_least_irreducible():
    assert fppoly.lex_least_irreducible(2, 1) == (0, 1)
    assert fppoly.lex_least_irreducible(2, 2) == (1, 1, 1)
    for ell, r in [(3, 2), (5, 3), (257, 2), (2, 4)]:
        f = list(fppoly.lex_least_irreducible(ell, r))
        assert len(f) == r + 1 and f[-1] == 1
        assert fppoly.is_irreducible(f, ell)


def test_hensel_lift_factor():
    phi6 = list(cyclotomic_poly(6))
    f0 = [128, 1]
    for prec in (1, 2, 5, 9):
        lifted = fppoly.hensel_lift_factor(phi6, f0, 337, prec)
        m = 337**prec
        assert lifted[-1] == 1 and len(lifted) == 2
        assert fppoly.normalize([c - d for c, d in zip(lifted, f0)], 337) == []
        # lifted root satisfies Phi_6 mod 337^prec
        root = (-lifted[0]) % m
        assert (root * root - root + 1) % m == 0


def test_hensel_rejects_non_factor():
    phi6 = list(cyclotomic_poly(6))
    with pytest.raises(ValueError):
        fppoly.hensel_lift_factor(phi6, [5, 1], 337, 3)
