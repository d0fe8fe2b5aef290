"""Recertify the packaged newform fixtures from first principles.

These checks are independent of how the data was produced: coefficient
vectors are mapped into the abstract coefficient field K_f = Q[x]/(f) and
the full Hecke eigensystem structure is verified exactly there, then the
archimedean size bounds are checked through high-precision embeddings.
"""

from math import gcd

import mpmath as mp
import pytest
from sympy import Rational, primefactors, primerange

from eiscong.newforms import load_fixture
from helpers import qq

LABELS = ["1.12.a.a", "10.8.b.a", "14.7.d.a", "42.6.e.c"]


class FieldView:
    """a_n as exact elements of Q[x]/(field_poly), via the stored basis."""

    def __init__(self, nf):
        self.nf = nf
        self.poly = qq(nf.field_poly)
        self.basis = [qq(row) for row in nf.basis]
        self.one = qq([1])

    def a(self, n):
        return sum((c * row for c, row in zip(self.nf.a_vector(n), self.basis) if c),
                   qq([]))

    def mul(self, x, y):
        return (x * y).rem(self.poly)

    def pow(self, x, e):
        acc = self.one
        while e:
            if e & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            e >>= 1
        return acc


@pytest.mark.parametrize("label", LABELS)
def test_multiplicativity(label):
    nf = load_fixture(label)
    fv = FieldView(nf)
    b = nf.b_data
    cache = {n: fv.a(n) for n in range(1, b + 1)}
    for m in range(2, b + 1):
        for n in range(m, b + 1):
            if m * n > b:
                break
            if gcd(m, n) == 1:
                assert cache[m * n] == fv.mul(cache[m], cache[n]), (label, m, n)


@pytest.mark.parametrize("label", LABELS)
def test_prime_power_recursions_and_nebentypus_structure(label):
    nf = load_fixture(label)
    fv = FieldView(nf)
    b = nf.b_data
    k = nf.weight
    order = nf.character.order
    for p in primerange(2, b + 1):
        if p * p > b:
            break
        ap = fv.a(p)
        if nf.level % p == 0:
            # U_p: a_(p^(j+1)) = a_p a_(p^j)
            pj = p
            while pj * p <= b:
                assert fv.a(pj * p) == fv.mul(ap, fv.a(pj)), (label, p, pj)
                pj *= p
            continue
        # chi(p) p^(k-1) recovered from the first recursion step
        cp = fv.mul(ap, ap) - fv.a(p * p)
        # it must be p^(k-1) times a root of unity of the character's order
        u = cp * Rational(1, p ** (k - 1))
        assert fv.pow(u, order) == fv.one, (label, p)
        # and it must drive every further prime-power step
        pj = p * p
        while pj * p <= b:
            expect = fv.mul(ap, fv.a(pj)) - fv.mul(cp, fv.a(pj // p))
            assert fv.a(pj * p) == expect, (label, p, pj)
            pj *= p
        # exact match with the stored character where its values are rational
        if order <= 2:
            val = nf.character(p)
            assert u == qq([val.rational_value()]), (label, p)


@pytest.mark.parametrize("label", ["10.8.b.a", "14.7.d.a", "42.6.e.c"])
def test_atkin_lehner_squares(label):
    nf = load_fixture(label)
    fv = FieldView(nf)
    k = nf.weight
    chi0 = nf.character.primitive()
    for p in primefactors(nf.level):
        if chi0.modulus % p == 0:
            continue  # |a_p| = p^((k-1)/2), not a rational-square relation
        sq = fv.mul(fv.a(p), fv.a(p))
        # a_p^2 = chi'(p) p^(k-2) with chi'(p) a root of unity
        u = sq * Rational(1, p ** (k - 2))
        assert fv.pow(u, chi0.order) == fv.one, (label, p)
        if chi0.order <= 2:
            assert u == qq([chi0(p).rational_value()]), (label, p)


@pytest.mark.parametrize("label", LABELS)
def test_archimedean_bounds(label):
    # |a_q| <= 2 q^((k-1)/2) for q coprime to the level, with the boundary
    # attained only at ramified primes; checked at 60 digits
    mp.mp.dps = 60
    nf = load_fixture(label)
    k = nf.weight
    coeffs = [mp.mpf(c.numerator) / int(c.denominator) for c in nf.field_poly]
    roots = (mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=200)
             if nf.dim > 1 else [mp.mpf(0)])
    basis = [[mp.mpf(c.numerator) / int(c.denominator) for c in row]
             for row in nf.basis]
    for q in primerange(2, min(nf.b_data, 60) + 1):
        vec = nf.a_vector(q)
        for r in roots:
            powers = [r**i for i in range(nf.dim)]
            beta = [mp.fsum([basis[j][i] * powers[i] for i in range(nf.dim)])
                    for j in range(nf.dim)]
            val = mp.fsum([int(c) * beta[j] for j, c in enumerate(vec)])
            if nf.level % q:
                bound = 2 * mp.mpf(q) ** ((k - 1) / mp.mpf(2))
            else:
                bound = mp.mpf(q) ** ((k - 1) / mp.mpf(2))
            assert abs(val) <= bound * (1 + mp.mpf(10) ** -30), (label, q)
