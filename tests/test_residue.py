import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime, n_order, primerange, totient

from eiscong import fppoly
from eiscong.cyclotomic import CycNum, cyclotomic_poly
from eiscong.errors import DenominatorDivisibleByEll, NotASubfield, RamifiedUnsupported
from eiscong.residue import (FFElem, PrimeAbove, canonical_modulus, ff_embed, ord_exact,
                             ord_positive, primes_above, reduce_cyc)
from helpers import random_cycnum


def test_primes_above_337_conductor_6():
    ps = primes_above(337, 6)
    assert [p.factor for p in ps] == [(128, 1), (208, 1)]
    assert all(p.residue_degree == 1 for p in ps)
    # root check: (-128)^2 - (-128) + 1 = 337 * 49
    assert ((-128) ** 2 + 128 + 1) == 337 * 49
    assert ps[0].pretty() == "<337, z6 + 128>"


def test_primes_above_73_conductor_6():
    ps = primes_above(73, 6)
    assert [p.factor for p in ps] == [(8, 1), (64, 1)]
    assert 64**2 + 64 + 1 == 73 * 57


def test_primes_above_rational():
    ps = primes_above(691, 1)
    assert len(ps) == 1 and ps[0].residue_degree == 1
    assert ps[0].pretty() == "<691>"


def test_splitting_structure():
    # residue degree equals the order of ell mod m; count * degree = phi(m)
    for m in (1, 3, 4, 5, 6, 7, 12):
        for ell in primerange(2, 400):
            if m % ell == 0:
                continue
            ps = primes_above(ell, m)
            e = ps[0].residue_degree
            expect = n_order(ell, m) if m > 1 else 1
            assert e == expect, (ell, m)
            assert all(p.residue_degree == e for p in ps)
            assert e * len(ps) == int(totient(m)), (ell, m)


def test_ramified_distinct_factors():
    # ell | m: distinct factors come from the ell-free part
    ps = primes_above(3, 6)  # Phi_6 mod 3 = (x+1)^2
    assert [p.factor for p in ps] == [(1, 1)]
    ps = primes_above(5, 5)
    assert [p.factor for p in ps] == [(4, 1)]  # x - 1 = x + 4
    ps = primes_above(2, 8)  # Phi_8 mod 2 = (x+1)^4
    assert [p.factor for p in ps] == [(1, 1)]


def test_reduce_examples():
    lam = primes_above(337, 6)[0]
    assert reduce_cyc(CycNum.zeta(6), lam).coeffs == ((-128) % 337,)
    assert reduce_cyc(CycNum.from_rational(-5), lam).coeffs == (332,)
    assert reduce_cyc(CycNum.zero(6), lam).is_zero()
    # conductor must divide m (coercion from a divisor happens automatically)
    z3_img = reduce_cyc(CycNum.zeta(3), lam)
    z6_img = reduce_cyc(CycNum.zeta(6), lam)
    assert z6_img * z6_img == z3_img  # zeta_6^2 = zeta_3


def test_reduce_rejects_bad_conductor():
    lam = primes_above(337, 6)[0]
    with pytest.raises(ValueError):
        reduce_cyc(CycNum.zeta(5), lam)


def test_denominator_divisible_by_ell():
    lam = primes_above(5, 1)[0]
    with pytest.raises(DenominatorDivisibleByEll):
        reduce_cyc(CycNum.from_rational(Fraction(1, 5)), lam)
    with pytest.raises(DenominatorDivisibleByEll):
        ord_exact(CycNum.from_rational(Fraction(3, 10)), lam)


def test_ord_positive_examples():
    lam257 = primes_above(257, 1)[0]
    assert ord_positive(CycNum.from_rational(257), lam257)
    lam13 = primes_above(13, 1)[0]
    assert not ord_positive(CycNum.from_rational(257), lam13)
    lam = next(p for p in primes_above(337, 6) if p.factor == (128, 1))
    assert ord_positive(CycNum.zeta(6) + 128, lam)


def test_ord_positive_works_when_ramified():
    lam = primes_above(3, 6)[0]  # factor x + 1: zeta_6 = -1 mod lambda
    assert ord_positive(CycNum.zeta(6) + 1, lam)
    with pytest.raises(RamifiedUnsupported):
        ord_exact(CycNum.zeta(6) + 1, lam)


def test_ord_exact_rational():
    lam = primes_above(691, 1)[0]
    assert ord_exact(CycNum.from_rational(691**2), lam) == 2
    assert ord_exact(CycNum.from_rational(3), lam) == 0
    assert ord_exact(CycNum.from_rational(Fraction(7, 3)), lam) == 0
    with pytest.raises(ValueError):
        ord_exact(CycNum.zero(1), lam)
    assert ord_exact(CycNum.from_rational(691**5), lam) == 5
    assert ord_exact(CycNum.from_rational(691**200), lam) == 200


def test_ord_exact_cyclotomic():
    ps = primes_above(337, 6)
    lam, lam2 = ps
    x = (CycNum.zeta(6) + 128) ** 3 * (CycNum.zeta(6) + 5)
    assert ord_exact(x, lam) == 3
    assert ord_exact(x, lam2) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_reduce_is_ring_hom(seed):
    rng = random.Random(seed)
    m = rng.choice([3, 5, 6, 12])
    ell = rng.choice([p for p in (5, 7, 11, 13, 17) if m % p])
    lam = rng.choice(primes_above(ell, m))
    x = random_cycnum(rng, m, 6)
    y = random_cycnum(rng, m, 6)
    assert reduce_cyc(x * y, lam) == reduce_cyc(x, lam) * reduce_cyc(y, lam)
    assert reduce_cyc(x + y, lam) == reduce_cyc(x, lam) + reduce_cyc(y, lam)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_ord_exact_additive_and_matches_membership(seed):
    rng = random.Random(seed)
    m = rng.choice([1, 3, 6])
    ell = rng.choice([5, 7, 13])
    lam = rng.choice(primes_above(ell, m))
    x = random_cycnum(rng, m, 8)
    y = random_cycnum(rng, m, 8)
    if not x or not y:
        return
    try:
        vx = ord_exact(x, lam)
        vy = ord_exact(y, lam)
        vxy = ord_exact(x * y, lam)
    except DenominatorDivisibleByEll:
        return
    assert vxy == vx + vy
    assert (vx >= 1) == ord_positive(x, lam)


def test_norm_valuation_consistency():
    # v_ell(Norm(x)) equals the sum of f_lambda * v_lambda(x) over lambda | ell
    rng = random.Random(17)
    for m, ell in [(6, 337), (6, 73), (5, 11), (12, 13)]:
        x = random_cycnum(rng, m, 20)
        if not x:
            continue
        total = 0
        for lam in primes_above(ell, m):
            total += lam.residue_degree * ord_exact(x, lam)
        nrm = x.norm()
        v = 0
        num, den = abs(nrm.numerator), nrm.denominator
        assert den % ell != 0 or num % ell != 0
        while num and num % ell == 0:
            num //= ell
            v += 1
        while den % ell == 0:
            den //= ell
            v -= 1
        assert v == total, (m, ell)


def test_ffelem_field_axioms():
    mod = canonical_modulus(7, 3)
    rng = random.Random(1)
    for _ in range(20):
        a = FFElem.make(7, mod, [rng.randrange(7) for _ in range(3)])
        b = FFElem.make(7, mod, [rng.randrange(7) for _ in range(3)])
        assert (a + b) - b == a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == FFElem.one(7, mod)
    a = FFElem.make(7, mod, [1, 2, 3])
    assert a ** (7**3 - 1) == FFElem.one(7, mod)  # multiplicative order divides q-1


def test_inverse_of_zero_divisor_raises_under_optimize():
    # x^2 + 1 = (x - 2)(x + 2) over F_5, so x + 2 has no inverse; the check
    # must hold under python -O, which strips asserts
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from eiscong.residue import FFElem\n"
            "try:\n"
            "    FFElem.make(5, (1, 0, 1), [2, 1]).inverse()\n"
            "except ZeroDivisionError:\n"
            "    print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_canonical_modulus_is_deterministic_and_irreducible():
    for ell, r in [(5, 2), (7, 4), (337, 2), (2, 3)]:
        m1 = canonical_modulus(ell, r)
        assert m1 == canonical_modulus(ell, r)
        assert fppoly.is_irreducible(list(m1), ell)


def test_ff_embed_constant_and_counts():
    lam = primes_above(11, 12)[0]  # degree 2
    a = reduce_cyc(CycNum.zeta(12) + 3, lam)
    assert a.degree == 2
    ims = [ff_embed(a, 4, j) for j in range(a.degree)]
    assert len(ims) == 2 and ims[0] != ims[1]
    # degree-1 element embeds as a constant
    c = FFElem.from_int(11, lam.factor, 5)
    e = ff_embed(FFElem.from_int(11, (3, 1), 5), 2)
    assert e.coeffs[0] == 5 and all(x == 0 for x in e.coeffs[1:])


def test_ff_embed_is_hom_and_frobenius_fixed():
    lam = primes_above(11, 12)[0]
    a = reduce_cyc(CycNum.zeta(12) + 3, lam)
    b = reduce_cyc(5 * CycNum.zeta(12) + 7, lam)
    for twist in (0, 1):
        assert ff_embed(a * b, 4, twist) == ff_embed(a, 4, twist) * ff_embed(b, 4, twist)
        assert ff_embed(a + b, 4, twist) == ff_embed(a, 4, twist) + ff_embed(b, 4, twist)
    img = ff_embed(a, 4)
    assert img ** 11**2 == img  # lands in the degree-2 subfield
    assert img ** 11 != img


def test_ff_embed_requires_divisibility():
    lam = primes_above(11, 12)[0]
    a = reduce_cyc(CycNum.zeta(12), lam)
    with pytest.raises(NotASubfield):
        ff_embed(a, 3)


def test_prime_above_json_roundtrip():
    lam = primes_above(337, 6)[0]
    assert PrimeAbove.from_json(lam.to_json()) == lam


def _split_prime(m: int, digits: int) -> int:
    """The least prime ell = 1 mod m above 10**(digits - 1)."""
    ell = (10 ** (digits - 1) // m + 1) * m + 1
    while not isprime(ell):
        ell += m
    return ell


def test_primes_above_degree_one_are_the_roots_of_phi():
    # ell = 1 mod m splits Phi_m into phi(m) linear factors x + c, named in
    # increasing c, one per root -c; ell runs over 1 to 20 digits
    for m in range(1, 201):
        ell = _split_prime(m, 1 + m % 20)
        phi = list(cyclotomic_poly(m))
        lams = primes_above(ell, m)
        cs = [p.factor[0] for p in lams]
        assert all(p.factor[1:] == (1,) for p in lams)
        assert len(cs) == int(totient(m)), (ell, m)
        assert cs == sorted(set(cs)), (ell, m)
        assert all(not fppoly.mod(phi, [c, 1], ell) for c in cs), (ell, m)


def test_primes_above_degree_one_factors_nothing(monkeypatch):
    # ell = 1 mod m' needs no polynomial arithmetic at all
    def fail(*args, **kwargs):
        raise AssertionError("called")

    for name in ("factor_squarefree", "distinct_degree_factor", "normalize",
                 "mul", "mod", "pow_mod"):
        monkeypatch.setattr(fppoly, name, fail)
    assert [p.factor for p in primes_above(337, 6)] == [(128, 1), (208, 1)]
    assert [p.factor for p in primes_above(7, 42)] == [(2, 1), (4, 1)]


def _higher_degree_pairs():
    # every ell < 200 where Phi_m' has degree <= 8, and ell = 2, 3 at every
    # m <= 60 (m' the ell-free part of m, ell | m included)
    for m in range(1, 61):
        for ell in primerange(2, 200):
            m0 = m
            while m0 % ell == 0:
                m0 //= ell
            if (m0 > 1 and n_order(ell, m0) > 1
                    and (totient(m0) <= 8 or ell in (2, 3))):
                yield ell, m, m0


def test_primes_above_higher_degree_splits_phi():
    # distinct monic factors of the one degree ord_m'(ell), sorted, whose
    # product is Phi_m' mod ell: as every irreducible factor of Phi_m' has
    # that degree, each is irreducible
    pairs = list(_higher_degree_pairs())
    assert len(pairs) > 600
    for ell, m, m0 in pairs:
        d = n_order(ell, m0)
        factors = [list(p.factor) for p in primes_above(ell, m)]
        assert all(len(f) == d + 1 and f[-1] == 1 for f in factors), (ell, m)
        assert factors == sorted(factors) and len(set(map(tuple, factors))) == len(factors)
        product = [1]
        for f in factors:
            product = fppoly.mul(product, f, ell)
        assert product == fppoly.normalize(cyclotomic_poly(m0), ell), (ell, m)


def test_primes_above_inert_is_phi_itself():
    # ord_m'(ell) = phi(m'): Phi_m' stays irreducible mod ell and names the
    # one prime above ell, the list factor_squarefree gives; every m < 120
    # and ell < 200, ell | m included, with phi(m') < 40 (the degrees up to
    # 118 add 10 s of factoring and passed as well)
    pairs = {}
    for m in range(3, 120):
        for ell in primerange(2, 200):
            m0 = m
            while m0 % ell == 0:
                m0 //= ell
            if m0 > 2 and totient(m0) < 40 and n_order(ell, m0) == totient(m0):
                pairs.setdefault((ell, m0), []).append(m)
    assert len(pairs) > 500
    for (ell, m0), ms in pairs.items():
        want = [tuple(f) for f in fppoly.factor_squarefree(list(cyclotomic_poly(m0)), ell)]
        for m in ms:
            assert [p.factor for p in primes_above(ell, m)] == want, (ell, m)


def test_primes_above_inert_factors_nothing(monkeypatch):
    # 13 is inert in Q(zeta_4918): factoring Phi_4918, of degree 2458, mod 13
    # ran for minutes
    def fail(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(fppoly, "factor_squarefree", fail)
    lam, = primes_above(13, 4918)
    assert lam.residue_degree == 2458 and lam.pretty() == "<13>"
    assert lam.factor == tuple(fppoly.normalize(cyclotomic_poly(4918), 13))
