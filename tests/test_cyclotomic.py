import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol, div
from sympy import cyclotomic_poly as sympy_cyclotomic

from eiscong import cyclotomic
from eiscong.cyclotomic import CycNum, _ks_mul, cyclotomic_poly
from helpers import assert_close, cyc_to_complex, qq, random_cycnum

X = Symbol("x")


def test_cyclotomic_matches_sympy():
    for n in list(range(1, 40)) + [60, 105, 1332, 2310, 4946]:
        mine = cyclotomic_poly(n)
        assert all(type(c) is int for c in mine)
        assert Poly(list(reversed(mine)), X) == Poly(sympy_cyclotomic(n, X), X), n


def test_cyclotomic_frozen_examples():
    assert cyclotomic_poly(1) == (-1, 1)            # x - 1
    assert cyclotomic_poly(6) == (1, -1, 1)         # x^2 - x + 1
    assert cyclotomic_poly(5) == (1,) * 5           # x^4+x^3+x^2+x+1


_COEF = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_reduce_matches_sympy_remainder(data):
    # one case per input shape the reduction serves: already reduced,
    # a product of two reduced vectors, an integer vector as built by
    # zeta/coerce/gauss_sum, and a long vector with mixed denominators,
    # also one long enough to be folded twice mod x^n - 1; conductors on
    # both sides of the packed kernel's cutoff
    n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 15, 20, 21, 30, 60,
                                   105, 156, 210]))
    d = len(cyclotomic_poly(n)) - 1
    shape = data.draw(st.sampled_from(["reduced", "product", "integer", "long", "folded"]))
    if shape == "reduced":
        coeffs = data.draw(st.lists(_COEF, max_size=d))
    elif shape == "product":
        coeffs = data.draw(st.lists(_COEF, min_size=2 * d - 1, max_size=2 * d - 1))
    elif shape == "integer":
        coeffs = data.draw(st.lists(st.integers(-10**6, 10**6), max_size=n))
    elif shape == "long":
        coeffs = data.draw(st.lists(_COEF, min_size=2 * d, max_size=3 * n + 2))
    else:
        coeffs = data.draw(st.lists(_COEF, min_size=2 * n + 1, max_size=3 * n + 2))
    rem = Poly(list(reversed(coeffs)) or [0], X, domain="QQ").rem(
        Poly(sympy_cyclotomic(n, X), X, domain="QQ"))
    expect = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    expect += [Fraction(0)] * (d - len(expect))
    assert CycNum(n, coeffs).coeffs == tuple(expect)


def test_zeta6_square_reduction():
    z6 = CycNum.zeta(6)
    assert z6 * z6 == z6 - 1  # x^2 mod x^2 - x + 1


def test_additive_identity():
    z = CycNum.zeta(5) + Fraction(3, 7)
    assert z + CycNum.zero() == z


def test_coercion_embedding():
    z3 = CycNum.zeta(3)
    assert z3.coerce(6) == CycNum.zeta(6) - 1
    assert z3.coerce(6) == z3  # cross-conductor equality coerces


def test_coerce_then_descend_roundtrip():
    rng = random.Random(5)
    for n, m in [(3, 6), (4, 12), (5, 20), (6, 30)]:
        x = random_cycnum(rng, n)
        up = x.coerce(m)
        back = up.try_descend(n)
        assert back is not None and back == x


def test_descend_fails_outside_subfield():
    assert CycNum.zeta(5).try_descend(1) is None


def test_norms():
    z6 = CycNum.zeta(6)
    assert (z6 + 1).norm() == 3
    assert (CycNum.one() - CycNum.zeta(5)).norm() == 5
    assert CycNum.from_rational(Fraction(-7, 3)).norm() == Fraction(-7, 3)
    assert CycNum.from_rational(Fraction(-7, 3), 12).norm() == Fraction(2401, 81)
    assert CycNum.zero(12).norm() == 0


def test_norm_against_conjugate_product_oracle():
    # product over all primitive residues of numeric conjugates
    import mpmath as mp
    rng = random.Random(11)
    from math import gcd
    for n in (5, 7, 12):
        x = random_cycnum(rng, n, size=4)
        prod = mp.mpc(1)
        for j in range(1, n):
            if gcd(j, n) == 1:
                z = mp.e ** (2j * mp.pi * j / n)
                acc = mp.mpc(0)
                for c in reversed(x.coeffs):
                    acc = acc * z + mp.mpf(c.numerator) / mp.mpf(c.denominator)
                prod *= acc
        nrm = x.norm()
        assert abs(prod - mp.mpf(nrm.numerator) / mp.mpf(nrm.denominator)) < 1e-25


def test_inverse_examples():
    assert CycNum.one().inverse() == 1
    z6 = CycNum.zeta(6)
    assert z6 * z6.inverse() == 1
    assert CycNum.from_rational(2).inverse() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(6).inverse()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_axioms_mixed_conductors(seed):
    rng = random.Random(seed)
    conds = [1, 3, 4, 5, 6, 12]
    a = random_cycnum(rng, rng.choice(conds), 5)
    b = random_cycnum(rng, rng.choice(conds), 5)
    c = random_cycnum(rng, rng.choice(conds), 5)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_inverse_property(seed):
    rng = random.Random(seed)
    a = random_cycnum(rng, rng.choice([3, 4, 5, 6, 12]), 5)
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_multiplicative(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5, 6])
    a = random_cycnum(rng, n, 4)
    b = random_cycnum(rng, n, 4)
    assert (a * b).norm() == a.norm() * b.norm()


def test_numeric_embedding_consistency():
    z12 = CycNum.zeta(12)
    x = z12 ** 7 + 3 * z12 - Fraction(1, 2)
    import mpmath as mp
    target = mp.e ** (2j * mp.pi * 7 / 12) + 3 * mp.e ** (2j * mp.pi / 12) - 0.5
    assert_close(x, target, tol=1e-30)


def test_json_roundtrip():
    x = CycNum(6, [Fraction(3, 2), Fraction(-7, 5)])
    assert CycNum.from_json(x.to_json()) == x
    assert x.to_json() == {"conductor": 6, "coeffs": [["3", "2"], ["-7", "5"]]}


def test_division():
    z5 = CycNum.zeta(5)
    assert (z5 + 2) / (z5 + 2) == 1
    assert (z5 * 6) / 3 == z5 * 2


# -- the integer-numerator kernel ------------------------------------------


def assert_normal(x: CycNum):
    """num has phi(n) int entries over an int den > 0 with gcd 1; zero is
    all zeros over 1."""
    assert len(x.num) == len(cyclotomic_poly(x.conductor)) - 1
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def _sympy_product(n1, a, n2, b) -> tuple[Fraction, ...]:
    """rem(a(x^(m/n1)) * b(x^(m/n2)), Phi_m) over QQ, m = lcm(n1, n2)."""
    m = lcm(n1, n2)
    pa = Poly(list(reversed(a)) or [0], X, domain="QQ").compose(Poly(X ** (m // n1), X))
    pb = Poly(list(reversed(b)) or [0], X, domain="QQ").compose(Poly(X ** (m // n2), X))
    rem = (pa * pb).rem(Poly(sympy_cyclotomic(m, X), X, domain="QQ"))
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return tuple(out + [Fraction(0)] * (len(cyclotomic_poly(m)) - 1 - len(out)))


_KERNEL_N = [1, 2, 3, 4, 5, 6, 7, 12, 15, 21, 60, 105, 156, 210, 420]


@st.composite
def _factor(draw, n):
    """A coefficient list for conductor n of one of four shapes: zero, a
    single term, small integers next to one coefficient of size 10^50, and
    negative entries over mixed denominators."""
    d = len(cyclotomic_poly(n)) - 1
    shape = draw(st.sampled_from(["zero", "single", "huge", "mixed"]))
    if shape == "zero":
        return []
    if shape == "single":
        j = draw(st.integers(0, d - 1))
        return [0] * j + [draw(st.sampled_from([1, -1, 2, Fraction(-3, 7)]))]
    if shape == "huge":
        vec = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        vec[draw(st.integers(0, d - 1))] = draw(st.sampled_from([10**50, -10**50 + 1]))
        return vec
    return draw(st.lists(_COEF, min_size=1, max_size=d))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_sympy_remainder(data):
    n1 = data.draw(st.sampled_from(_KERNEL_N))
    # half the cases share a conductor; the rest need coercion to the lcm
    n2 = data.draw(st.sampled_from([n1] + [n for n in _KERNEL_N if lcm(n, n1) <= 420]))
    a, b = data.draw(_factor(n1)), data.draw(_factor(n2))
    x, y = CycNum(n1, a), CycNum(n2, b)
    prod = x * y
    assert_normal(prod)
    assert prod.conductor == lcm(n1, n2)
    assert prod.coeffs == _sympy_product(n1, a, n2, b)
    assert y * x == prod
    assert (x * x).coeffs == _sympy_product(n1, a, n1, a)  # one packed factor
    for out in (x + y, x - y, -x, x * Fraction(-5, 3), x / 7):
        assert_normal(out)


def test_ks_mul_slot_width_covers_inputs():
    # the product bound is 0 when one factor is zero and small next to a
    # single unit term, but the slot must still hold the other factor
    big = [10**50, -3, 0, -10**50 + 1]
    assert _ks_mul([0, 0], big) == [0] * 5
    assert _ks_mul([0, 1], big) == [0] + big
    assert _ks_mul(big, [-1]) == [-c for c in big]
    assert _ks_mul(big, big) == [sum(big[i] * big[k - i] for i in range(4) if 0 <= k - i < 4)
                                 for k in range(7)]


def _int_coeffs(poly, length):
    """poly's integer coefficients, lowest degree first, padded to length."""
    cs = [int(c) for c in reversed(poly.all_coeffs())] if poly else []
    return cs + [0] * (length - len(cs))


def test_divide_monic_leaves_remainder_then_quotient():
    # fppoly.factor_over_q reads its exact quotients off f[len(g) - 1:]
    rng = random.Random(7)
    for _ in range(300):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [1]
        f = [rng.randint(-99, 99) for _ in range(rng.randint(len(g), 12))]
        e = len(g) - 1
        q, r = div(qq(f), qq(g))
        v = list(f)
        cyclotomic._divide_monic(v, g)
        assert v[:e] == _int_coeffs(r, e) and v[e:] == _int_coeffs(q, len(f) - e)


def _by_division(n, v):
    """v mod Phi_n by the long division of the short-vector kernel."""
    v = list(v)
    cyclotomic._divide_monic(v, cyclotomic_poly(n))
    d = len(cyclotomic_poly(n)) - 1
    return (v + [0] * d)[:d]


def test_packed_reduction_matches_division_every_n():
    # both kernels on every conductor up to 400, whichever side of the
    # cutoff it falls on: a product-length vector of 100-bit entries, a
    # length n + 1 vector of 4-bit ones (one slot past x^n) and a 20-bit
    # one of length 3n + 2, which a single fold mod x^n - 1 leaves too long
    rng = random.Random(400)
    for n in range(1, 401):
        d = len(cyclotomic_poly(n)) - 1
        for length, bits in [(2 * d - 1, 100), (n + 1, 4), (3 * n + 2, 20)]:
            v = [rng.getrandbits(bits) - (1 << bits - 1) for _ in range(length)]
            width = cyclotomic._packed_width(n, (1 << bits - 1) * -(-length // n))
            packed = cyclotomic._packed_mod_phi(n, cyclotomic._pack(v, width), width)
            assert packed == _by_division(n, v), (n, length)


def test_packed_slot_width_covers_inputs():
    # as for _ks_mul: a 10^50 entry next to zeros, against a zero factor, a
    # unit and itself, and alone in a vector long enough to fold twice
    n = 105
    assert len(cyclotomic_poly(n)) - 1 >= cyclotomic._PACKED_MIN_DEGREE
    big = [0] * 20 + [10**50, -3] + [0] * 25 + [-10**50 + 1]
    unit = [1] + [0] * 47
    assert cyclotomic._mul_mod(n, [0] * 48, big) == [0] * 48
    assert cyclotomic._mul_mod(n, unit, big) == big
    assert cyclotomic._mul_mod(n, big, [-1]) == [-c for c in big]
    assert cyclotomic._mul_mod(n, big, big) == _by_division(n, _ks_mul(big, big))
    long = [0] * 300 + [10**50] + [0] * 16
    assert cyclotomic._mod_phi(n, list(long)) == _by_division(n, long)


def test_packed_product_large_conductors():
    # the conductors of cusp-constants' largest fields, against the product
    # reduced by long division
    rng = random.Random(1332)
    for n in (812, 930, 1332):
        d = len(cyclotomic_poly(n)) - 1
        a = [rng.randint(-2**40, 2**40) for _ in range(d)]
        b = [rng.randint(-9, 9) for _ in range(d)]
        assert cyclotomic._mul_mod(n, a, b) == _by_division(n, _ks_mul(a, b))
        assert cyclotomic._mul_mod(n, a, a) == _by_division(n, _ks_mul(a, a))


def test_packed_width_guard_raises(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_packed_width", lambda n, top, inputs=0: 1)
    with pytest.raises(ArithmeticError, match="Phi_105"):
        cyclotomic._mod_phi(105, [100] * 317)
    with pytest.raises(ArithmeticError, match="Phi_420"):
        cyclotomic._mul_mod(420, [100] * 96, [-99] * 96)


def test_phi_times_psi_is_x_n_minus_1():
    for n in range(1, 1501):
        psi = cyclotomic._cofactor(n)[0]
        assert _ks_mul(cyclotomic_poly(n), psi) == [-1] + [0] * (n - 1) + [1], n


def test_zero_and_rationals_in_normal_form():
    for n in (1, 6, 105):
        z = CycNum.zero(n)
        assert z.num == (0,) * (len(cyclotomic_poly(n)) - 1) and z.den == 1
        for x in (z, CycNum.zeta(n) - CycNum.zeta(n), CycNum(n, [Fraction(4, -6)]),
                  CycNum.from_rational(Fraction(-2, 4), n) * 0):
            assert_normal(x)
    assert CycNum(6, [Fraction(4, -6), Fraction(2, 3)]).num == (-2, 2)


def test_frozen_dense_product_1332():
    # recorded from the Fraction-vector kernel before the integer kernel
    d = len(cyclotomic_poly(1332)) - 1
    x = CycNum(1332, [Fraction((i * 7919) % 23 - 11, 1 + i % 3) for i in range(d)])
    y = CycNum(1332, [Fraction((i * 104729) % 17 - 8, 1 + i % 5) for i in range(d)])
    prod = x * y
    assert_normal(prod)
    js = prod.to_json()
    assert js["coeffs"][:3] == [["-55547", "120"], ["-35857", "120"], ["6211", "40"]]
    assert js["coeffs"][-1] == ["61087", "180"]
    assert hashlib.sha256(json.dumps(js, sort_keys=True).encode()).hexdigest() == \
        "70f9835ac61a1165426daf92bb5f62af591d34d17c1b57596286d4b8893198a2"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_inverse_up_to_105(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 28, 30, 60, 84, 105])
    a = random_cycnum(rng, n, 10**6)
    if a:
        inv = a.inverse()
        assert_normal(inv)
        assert a * inv == 1


_NORM_N = [1, 2, 3, 4, 5, 6, 7, 12, 15, 60, 105, 156]


def _sympy_norm(x: CycNum) -> Fraction:
    """Res(Phi_n, f) / den^phi(n), f the numerator polynomial of x."""
    n = x.conductor
    f = Poly(list(reversed(x.num)), X, domain="ZZ")
    res = Poly(sympy_cyclotomic(n, X), X, domain="ZZ").resultant(f)
    return Fraction(int(res), x.den ** (len(cyclotomic_poly(n)) - 1))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_norm_matches_sympy_resultant(data):
    n = data.draw(st.sampled_from(_NORM_N))
    # the kernel shapes (zero, single terms, 10^50 entries, negative mixed
    # denominators) and rationals of conductor n
    coeffs = data.draw(st.one_of(_factor(n), st.lists(_COEF, min_size=1, max_size=1)))
    x = CycNum(n, coeffs)
    assert x.norm() == _sympy_norm(x)


@pytest.mark.parametrize("f,g", [
    ([1, 0, 1], [3, 1]),
    ([1, 1, 1, 1], [5, -2, 1]),
    ([-1, 0, 0, 0, 1], [7, 1, 2]),
])
def test_resultant_matches_sympy(f, g):
    # f is a product of cyclotomic polynomials, so Res(f, g) is the product
    # of the norms of g(zeta_n) over the factors Phi_n of f
    rest, mine = qq(f), Fraction(1)
    for n in range(1, 4 * len(f)):
        phi = qq(cyclotomic_poly(n))
        while rest.degree() >= phi.degree():
            q, r = div(rest, phi)
            if not r.is_zero:
                break
            rest, mine = q, mine * CycNum(n, g).norm()
    assert rest == qq([1])
    theirs = qq(f).resultant(qq(g))
    assert mine == Fraction(int(theirs))


def test_norm_of_inverse_420():
    rng = random.Random(420)
    x = CycNum(420, [rng.choice([-1, 0, 1]) for _ in range(96)])
    assert x.norm() * x.inverse().norm() == 1


def test_norm_multiplicative_420():
    rng = random.Random(421)
    a, b = random_cycnum(rng, 420), random_cycnum(rng, 420)
    assert (a * b).norm() == a.norm() * b.norm()
