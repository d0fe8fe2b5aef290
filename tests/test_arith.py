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


# n: [outcome of each of 8 successive _ecm_curve(n, 2000, 100000, rng)
# calls with rng = random.Random(n)], recorded at commit 9d706a5, whose
# stage 2 took X_R Z_S - X_S Z_R in projective coordinates.  The n are the
# cofactors ECM gets from the two norms above (their primes below 2^15
# taken out) and the SEMIPRIMES products, in that order.
ECM_OUTCOMES = {
    411156910366548586308296105832176041:
        [None, None, None, 79176562369, None, None, None, None],
    123377876425717988099645507045931814414433484230047643826830675173:
        [None, None, None, None, None, 694146268537, None, None],
    11211524157577973901757:
        [244272517, None, None, 244272517, 45897607701721, 244272517, 244272517, 244272517],
    22830714162619795407402780666854837:
        [None, 3337446743, None, 3337446743, None, None, None, 3337446743],
    243463849566718339950868232848471827462551731482203:
        [None, None, None, 65166371807, 65166371807, None, 65166371807, 65166371807],
    56147038879263423419088991:
        [2111381949409, None, None, None, None, None, 26592554177599, None],
    3431486524273338412397538523086430771:
        [None] * 8,
}


def test_ecm_curve_outcomes_unchanged():
    # the same sigma and the same primes in stage 2: every curve splits n,
    # or fails to, as it did before stage 2 was normalised
    semiprimes = []
    for dp, dq, seed in SEMIPRIMES:
        rng = random.Random(seed)
        semiprimes.append(_next_prime(rng.randrange(10 ** (dp - 1), 10 ** dp))
                          * _next_prime(rng.randrange(10 ** (dq - 1), 10 ** dq)))
    assert list(ECM_OUTCOMES)[2:] == semiprimes
    for n, expect in ECM_OUTCOMES.items():
        rng = random.Random(n)
        assert [arith._ecm_curve(n, 2000, 100_000, rng) for _ in range(8)] == expect


def test_normalise_one_inversion_and_its_failure():
    n = 101 * 103
    xs, zs = [3, 7, 11, 0], [5, 2 * 101, 13, 1]
    assert arith._normalise(xs, zs, n) == 101
    xs, zs[1] = [3, 7, 11, 0], 2 * 107
    assert arith._normalise(xs, zs, n) == 1
    assert [x * z % n for x, z in zip(xs, zs)] == [3, 7, 11, 0]


def test_ecm_curve_returns_the_factor_a_stage_two_z_shares(monkeypatch):
    # a non-unit Z among the steps to normalise is returned the way stage
    # 1's gcd(z, n) is: a proper divisor, or None when it is n itself
    n, p = 411156910366548586308296105832176041, 79176562369
    normalise = arith._normalise
    for q, expect in [(p, p), (n, None)]:
        def z_of_2q_times_q(xs, zs, m, q=q):
            zs[1] *= q  # the Z of 2 * Q
            return normalise(xs, zs, m)
        monkeypatch.setattr(arith, "_normalise", z_of_2q_times_q)
        # the first curve on n fails in both stages (ECM_OUTCOMES)
        assert arith._ecm_curve(n, 2000, 100_000, random.Random(n)) == expect


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


def test_stage_two_plan_refuses_r0_at_most_2d():
    # B2 = 400 B1 at B1 = 1000 gives D = 632 and r0 = 999 < 2D: stage 2
    # would ladder by r0 - 2D = -265
    with pytest.raises(ValueError, match="r0 = 999"):
        arith._stage_two_plan(1000, 400000)
    # the smallest b2 past the edge at b1 = 1000 (D = 500, r0 = 999 < 1000)
    assert arith._stage_two_plan(1000, 249999)[:2] == (499, 999)
    with pytest.raises(ValueError):
        arith._stage_two_plan(1000, 250000)


def test_ladder_refuses_a_multiplier_below_one():
    n, a24 = 1000003, 5
    assert arith._ladder(1, 7, a24, n) == (7, 1)
    for k in (0, -265):
        with pytest.raises(ValueError, match="must be >= 1"):
            arith._ladder(k, 7, a24, n)


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
    # included, works without it, and without loading an HTTP client
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, io, contextlib; sys.path.insert(0, sys.argv[1]); "
            "import eiscong, eiscong.cli; print('sympy' in sys.modules); "
            "codes = [] \n"
            "for ex in ['ramanujan', '5.1', '5.2', '5.3']:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(eiscong.cli.run(['reproduce', ex, '--offline', '--json']))\n"
            "print(codes, 'sympy' in sys.modules, "
            "any(m in sys.modules for m in ['requests', 'urllib.request']))")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[0, 0, 0, 0] False False"]
