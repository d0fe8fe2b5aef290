"""eiscong.arith and fppoly's factoring over Q against sympy, which the
runtime no longer imports but the tests keep as their oracle."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol

from eiscong import arith, fppoly
from eiscong.errors import NotSquareFree
from helpers import from_qq, qq

X = Symbol("x")
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "eiscong" / "fixtures"

# strong pseudoprimes to base 2; the third one to every prime base below 37
STRONG_PSP2 = [2047, 3215031751, 3825123056546413051]
# strong Lucas pseudoprimes (Selfridge's parameters), none with a prime
# factor below 256, so isprime reaches BPSW on them
STRONG_LUCAS_PSP = [161027, 176399, 189419, 192509, 231703, 288919]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973,
              75361, 101101, 126217, 172081, 188461, 278545, 340561]


def test_isprime_on_ranges():
    for lo, hi in [(-5, 40000), (10**9, 10**9 + 3000), (2**61 - 500, 2**61 + 500)]:
        assert [n for n in range(lo, hi) if arith.isprime(n)] == \
            [n for n in range(lo, hi) if sympy.isprime(n)], lo


@given(st.integers(0, 2**80))
def test_isprime_matches_sympy(n):
    assert arith.isprime(n) == sympy.isprime(n)


def test_isprime_rejects_pseudoprimes():
    # Chernick's (6k+1)(12k+1)(18k+1) are Carmichael numbers with three
    # large prime factors when all three are prime
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 400)
                if all(sympy.isprime(j * k + 1) for j in (6, 12, 18))]
    assert len(chernick) > 10
    for n in STRONG_PSP2 + CARMICHAEL + chernick + STRONG_LUCAS_PSP:
        assert not arith.isprime(n), n
    # each BPSW half is what rejects the other half's pseudoprimes
    assert all(arith._strong_probable_prime_base2(n) for n in STRONG_PSP2)
    assert not any(arith._strong_lucas_probable_prime(n) for n in STRONG_PSP2)
    assert all(arith._strong_lucas_probable_prime(n) for n in STRONG_LUCAS_PSP)
    assert not any(arith._strong_probable_prime_base2(n) for n in STRONG_LUCAS_PSP)


def _next_prime(x):
    return int(sympy.nextprime(x))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(10**4, 10**10), st.integers(1, 3)), max_size=3),
       st.integers(10**4, 10**25), st.integers(1, 2))
def test_factorint_products_of_primes(small, big, big_exp):
    # primes of 5-11 digits with multiplicities times one of 5-26 digits
    expect: dict[int, int] = {}
    for x, e in small + [(big, big_exp)]:
        p = _next_prime(x)
        expect[p] = expect.get(p, 0) + e
    n = prod(p ** e for p, e in expect.items())
    assert arith.factorint(n) == dict(sorted(expect.items())) == sympy.factorint(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(2**15, 10**30), st.integers(2, 6))
def test_factorint_prime_powers(x, e):
    p = _next_prime(x)
    assert arith.factorint(p ** e) == {p: e}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10**12), st.integers(2, 3))
def test_factorint_squares_and_cubes(m, e):
    assert arith.factorint(m ** e) == dict(sorted(sympy.factorint(m ** e).items()))


# (digits of p, digits of q, seed): seeded products p * q of a 9-13-digit
# prime and a 14-40-digit one, like the search's norms; the first ECM round
# (B1 = 2000) splits all but the last, which goes on to B1 = 10^4
SEMIPRIMES = [(9, 14, 1), (10, 25, 3), (11, 40, 0), (13, 14, 1), (12, 25, 3)]


def test_factorint_search_grid_norms(monkeypatch):
    b1s = set()
    curve = arith._ecm_curve
    monkeypatch.setattr(arith, "_ecm_curve",
                        lambda n, b1, b2, rng: b1s.add(b1) or curve(n, b1, b2, rng))
    # a 38-digit norm with an 11-digit factor and a 69-digit one with a
    # 12-digit factor, both split by ECM
    for f in [{2: 6, 79176562369: 1, 5192911867660585049670889: 1},
              {2: 6, 37: 1, 694146268537: 1,
               177740459061679146827198392716455946609939334717434829: 1}]:
        assert arith.factorint(prod(p ** e for p, e in f.items())) == f
    for dp, dq, seed in SEMIPRIMES:
        rng = random.Random(seed)
        p = _next_prime(rng.randrange(10 ** (dp - 1), 10 ** dp))
        q = _next_prime(rng.randrange(10 ** (dq - 1), 10 ** dq))
        assert (len(str(p)), len(str(q))) == (dp, dq)
        assert arith.factorint(p * q) == {p: 1, q: 1} == sympy.factorint(p * q)
    assert b1s == {2000, 10_000}


@pytest.mark.parametrize("b1", [2000, 10_000])
def test_stage_two_plan_lists_each_prime_once(b1):
    # the primes in (b1, b2] as r + 2 delta, r = r0 + 2 D i: a plan that
    # dropped one would only make ECM slower, which no result test sees
    b2 = 50 * b1
    d, r0, blocks = arith._stage_two_plan(b1, b2)
    listed = [r0 + 2 * d * i + 2 * delta
              for i, deltas in enumerate(blocks) for delta in deltas]
    assert listed == sorted(set(listed)) and listed[0] > b1
    assert [m for m in listed if m <= b2] == list(sympy.primerange(b1 + 1, b2 + 1))
    assert all(map(sympy.isprime, listed))
    # the sliced flags give the blocks of a flag test per delta
    flags = arith._sieve(b2 + 2 * d + 1)
    assert blocks == tuple(tuple(delta for delta in range(1, d + 1) if flags[r + 2 * delta])
                           for r in range(r0, b2, 2 * d))


@given(st.integers(1, 10**12), st.integers(0, 2**16))
def test_factorint_limit(n, limit):
    full = sympy.factorint(n)
    assert arith.factorint(n, limit=limit) == \
        {p: e for p, e in sorted(full.items()) if p <= limit}


def test_factorint_limit_factors_nothing():
    # a product of two 40-digit primes: nothing to find below the limit,
    # and trial division alone says so
    p, q = _next_prime(10**39), _next_prime(3 * 10**39)
    assert arith.factorint(2**5 * 3 * p * q, limit=1000) == {2: 5, 3: 1}
    assert arith.factorint(p * q, limit=2**15) == {}


def test_factorint_rejects_bad_input():
    with pytest.raises(ValueError):
        arith.factorint(0)
    assert arith.factorint(1) == {}


def test_factorint_checks_its_result(monkeypatch):
    n = 1000000007 * 1000000009
    # a splitting step that returns a non-divisor breaks the product
    monkeypatch.setattr(arith, "_proper_factor", lambda m, rng: 3)
    with pytest.raises(ArithmeticError):
        arith.factorint(n)
    # a composite recorded as prime multiplies back but fails isprime
    monkeypatch.setattr(arith, "_factor_large", lambda m, out: out.update({m: 1}))
    with pytest.raises(ArithmeticError):
        arith.factorint(n)


@given(st.integers(1, 10**9))
def test_divisor_functions_match_sympy(n):
    assert arith.primefactors(n) == sympy.primefactors(n)
    assert arith.divisors(n) == sympy.divisors(n)
    assert arith.totient(n) == sympy.totient(n)


@example(7, 1)
@example(1, 0)
@given(st.integers(-10**20, 10**20), st.integers(0, 10**9))
def test_multiplicative_order_matches_sympy(a, n):
    if n == 0 or sympy.gcd(a, n) != 1:
        with pytest.raises(ValueError):
            arith.multiplicative_order(a, n)
    elif n == 1:
        assert arith.multiplicative_order(a, n) == 1
    else:
        assert arith.multiplicative_order(a, n) == sympy.n_order(a, n)


@given(st.integers(-10, 70000), st.integers(0, 3000))
def test_primerange_matches_sympy(a, width):
    assert arith.primerange(a, a + width) == list(sympy.primerange(a, a + width))


def test_primerange_segments():
    for lo, hi in [(0, 2**15 + 100), (2**15 - 7, 2**15 + 7), (10**12, 10**12 + 3000), (9, 3)]:
        assert arith.primerange(lo, hi) == list(sympy.primerange(lo, hi)), lo


def _sympy_irreducible(coeffs) -> bool:
    return Poly([Fraction(c) for c in reversed(coeffs)], X, domain="QQ").is_irreducible


def _fixture_polys():
    return [tuple(Fraction(int(p), int(q)) for p, q in json.loads(f.read_text())["field_poly"])
            for f in sorted(FIXTURES.glob("*.json"))]


@pytest.mark.parametrize("coeffs", _fixture_polys() + [
    (1, 0, 0, 0, 1),                                 # x^4 + 1
    (1, 0, -10, 0, 1),                               # reducible mod every prime
    (Fraction(1, 4), Fraction(-3, 2), 0, 1),         # denominators
    (Fraction(-5, 36), Fraction(1, 6), Fraction(7, 3), 0, 1),
    (64, 0, -15, 0, 1), (0, 0, 1), (1, 2, 1), (6, 5, 1), (-4, 0, 0, 0, 1),
    (2, 0, -2, 0, 1), (1, 1, 1, 1, 1, 1, 1), (0, 1),
], ids=str)
def test_irreducible_over_q_examples(coeffs):
    assert fppoly.is_irreducible_over_q(coeffs) == _sympy_irreducible(coeffs)


monic_int_poly = st.lists(st.integers(-30, 30), min_size=1, max_size=4).map(lambda c: c + [1])


@settings(max_examples=60, deadline=None)
@given(monic_int_poly, monic_int_poly)
def test_irreducible_over_q_products(f, g):
    h = fppoly.mul(f, g, 10**30)
    h = [c - 10**30 if c > 10**29 else c for c in h]
    assert not fppoly.is_irreducible_over_q(h)
    for p in (f, g):
        assert fppoly.is_irreducible_over_q(p) == _sympy_irreducible(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                min_size=2, max_size=6))
def test_irreducible_over_q_matches_sympy(coeffs):
    coeffs = coeffs + [Fraction(1)]
    assert fppoly.is_irreducible_over_q(coeffs) == _sympy_irreducible(coeffs)


monic_frac_poly = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                          min_size=1, max_size=4).map(lambda c: c + [Fraction(1)])

FACTOR_EXAMPLES = [
    [(1, 0, -10, 0, 1)],                          # irreducible, reducible mod every prime
    [(-1, 1), (1, 1), (1, 0, 1), (1, -1, 1)],     # Phi_1 Phi_2 Phi_4 Phi_6
    [(64, 0, -15, 0, 1)],
    [(1, 0, 1), (-2, 0, 1), (Fraction(-1, 3), 0, 1), (1, 1, 1)],  # four quadratics
] + [[p] for p in _fixture_polys()]


def _with_examples(examples):
    def wrap(test):
        for ex in examples:
            test = example(ex)(test)
        return test
    return wrap


@_with_examples(FACTOR_EXAMPLES)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(monic_int_poly, monic_frac_poly), min_size=1, max_size=4))
def test_factor_over_q_matches_sympy(polys):
    product = qq([1])
    for p in polys:
        product *= qq(p)
    f = from_qq(product)
    theirs = product.factor_list()[1]
    assume(all(mult == 1 for _, mult in theirs))
    theirs = sorted(tuple(Fraction(str(c)) for c in reversed(g.monic().all_coeffs()))
                    for g, _ in theirs)
    mine = fppoly.factor_over_q(f)
    assert all(isinstance(c, Fraction) for g in mine for c in g)
    assert sorted(tuple(g) for g in mine) == theirs


def test_factor_over_q_refuses_a_repeated_factor():
    with pytest.raises(NotSquareFree):
        fppoly.factor_over_q([2, -3, 0, 1])  # (x - 1)^2 (x + 2)


def test_library_does_not_import_sympy():
    # sympy is the tests' oracle; the runtime, every reproduce example
    # included, works without it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, io, contextlib; sys.path.insert(0, sys.argv[1]); "
            "import eiscong, eiscong.cli; print('sympy' in sys.modules); "
            "codes = [] \n"
            "for ex in ['ramanujan', '5.1', '5.2', '5.3']:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(eiscong.cli.run(['reproduce', ex, '--offline', '--json']))\n"
            "print(codes, 'sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[0, 0, 0, 0] False"]
