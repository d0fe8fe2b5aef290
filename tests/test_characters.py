import random
import sys
import threading
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, legendre_symbol, totient

from eiscong import characters
from eiscong.characters import (MODULUS_MAX, DirichletChar, check_gauss_conductor,
                                conrey_generator, enumerate_pairs, gauss_sum,
                                is_square_free, parity_matches, primitive_characters)
from eiscong.cyclotomic import CycNum
from eiscong.errors import ModulusTooLarge, NotAMultiple, NotPrimitive, NotSquareFree
from helpers import char_to_complex, cyc_to_complex

# every modulus up to 64, and the 2-power moduli up to 2^7
SWEEP_MODULI = list(range(1, 65)) + [128]


def all_characters(q):
    return [DirichletChar(q, a) for a in range(1, q + 1) if gcd(a, q) == 1]


def agree_on_units(chi, other, q):
    """Whether two characters have equal values on the units mod q."""
    return all(chi.exponent(n) == other.exponent(n) for n in range(1, q + 1) if gcd(n, q) == 1)


def local_units(m):
    """For each prime power p^e exactly dividing m, every unit mod p^e
    lifted to 1 mod m / p^e: a set that generates (Z/m)^x."""
    out = []
    for p, e in factorint(m).items():
        pe, rest = p**e, m // p**e
        t = pow(pe, -1, rest) if rest > 1 else 0
        out += [r + pe * ((1 - r) * t % rest) for r in range(1, pe) if r % p]
    return out


def test_quadratic_character_mod5_is_legendre():
    chi = DirichletChar(5, 4)
    for n in range(1, 20):
        if n % 5 == 0:
            assert not chi(n)
        else:
            assert chi(n) == int(legendre_symbol(n, 5))
    assert chi(2) == -1


def test_conrey_7_3_at_3():
    chi = DirichletChar(7, 3)
    assert chi(3) == CycNum.zeta(6)
    assert chi.order == 6


def test_vanishing_off_units():
    chi = DirichletChar(10, 9)
    for n in (0, 2, 4, 5, 6, 15):
        assert not chi(n)


def test_trivial_character_mod_1():
    one = DirichletChar(1, 1)
    assert one(0) == 1 and one(17) == 1 and one(-3) == 1
    assert one.order == 1 and one.conductor == 1 and one.parity == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_complete_multiplicativity_and_periodicity(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 40])
    units = [a for a in range(1, q + 1) if gcd(a, q) == 1]
    chi = DirichletChar(q, rng.choice(units))
    m, n = rng.choice(units), rng.choice(units)
    assert chi(m * n) == chi(m) * chi(n)
    t = rng.randrange(-3, 4)
    assert chi(n + t * q) == chi(n)


def test_parity_matches_value_at_minus_one():
    for q in (1, 3, 4, 5, 7, 8, 12, 21):
        for a in range(1, q + 1):
            if gcd(a, q) == 1:
                chi = DirichletChar(q, a)
                assert chi(-1) == chi.parity
                assert chi.parity in (1, -1)


def test_order_conductor_against_brute_force():
    for q in (3, 4, 5, 7, 8, 9, 12, 16, 24, 21, 45, 32, 48, 64, 80):
        for a in range(1, q + 1):
            if gcd(a, q) != 1:
                continue
            chi = DirichletChar(q, a)
            # brute-force order: smallest t with all values^t = 1
            t = 1
            while True:
                if all(chi.exponent(n) is None or (chi.exponent(n) * t).denominator == 1
                       for n in range(1, q + 1)):
                    break
                t += 1
            assert chi.order == t
            # brute-force conductor: smallest divisor c with chi trivial on
            # units congruent to 1 mod c
            cond = next(c for c in sorted(d for d in range(1, q + 1) if q % d == 0)
                        if all(chi.exponent(n) == 0 for n in range(1, q + 1)
                               if n % c == 1 % c and gcd(n, q) == 1))
            assert chi.conductor == cond


def test_primitive_part_matches_on_units():
    for q in SWEEP_MODULI:
        for chi in all_characters(q):
            prim = chi.primitive()
            assert prim.modulus == chi.conductor and prim.is_primitive(), chi
            assert agree_on_units(chi, prim, q), chi


def test_lift_definition_and_conductor():
    chi = DirichletChar(5, 4)
    lifted = chi.lift(10)
    assert lifted.modulus == 10 and lifted.conductor == 5
    for n in range(1, 21):
        if gcd(n, 10) == 1:
            assert lifted(n) == chi(n)
        else:
            assert not lifted(n)
    assert DirichletChar(1, 1).lift(10).is_trivial()
    assert chi.lift(5) == chi
    with pytest.raises(NotAMultiple):
        chi.lift(12)


def test_lift_evaluation_agreement_two_power():
    chi = DirichletChar(8, 3)
    lifted = chi.lift(48)
    assert lifted.conductor == chi.conductor == 8
    for n in range(1, 49):
        if gcd(n, 48) == 1:
            assert lifted(n) == chi(n)
        else:
            assert not lifted(n)


def test_lift_conductor_preserved_many():
    for q, a, m in [(3, 2, 12), (4, 3, 8), (7, 3, 42), (5, 2, 40), (8, 5, 48)]:
        chi = DirichletChar(q, a)
        assert chi.lift(m * 1).conductor == chi.conductor
    for q in SWEEP_MODULI:
        targets = {2 * q, 3 * q} | ({128} if 128 % q == 0 else set())
        for chi in all_characters(q):
            for m in targets:
                lifted = chi.lift(m)
                assert lifted.modulus == m and lifted.conductor == chi.conductor, (chi, m)
                assert agree_on_units(chi, lifted, m), (chi, m)


def test_char_mul_and_inverse():
    phi = DirichletChar(5, 4)
    one1 = DirichletChar(1, 1)
    assert one1 * phi == phi
    assert (phi * phi.inverse()).is_trivial()
    assert (phi * phi).is_trivial()  # quadratic
    # different moduli multiply at the lcm
    chi3 = DirichletChar(3, 2)
    prod = chi3 * phi
    assert prod.modulus == 15
    for n in range(1, 16):
        if gcd(n, 15) == 1:
            assert prod(n) == chi3(n) * phi(n)


def test_mul_matches_pointwise_at_lcm():
    rng = random.Random(3)
    for _ in range(20):
        q1, q2 = rng.choice([3, 4, 5, 7, 8]), rng.choice([3, 4, 5, 9, 16])
        a1 = rng.choice([a for a in range(1, q1 + 1) if gcd(a, q1) == 1])
        a2 = rng.choice([a for a in range(1, q2 + 1) if gcd(a, q2) == 1])
        c1, c2 = DirichletChar(q1, a1), DirichletChar(q2, a2)
        prod = c1 * c2
        q = lcm(q1, q2)
        for n in range(1, q + 1):
            if gcd(n, q) == 1:
                assert prod(n) == c1(n) * c2(n)
    partners = [DirichletChar.from_label(lab)
                for lab in ("4.3", "8.3", "9.2", "5.2")]
    for q in SWEEP_MODULI:
        for chi in all_characters(q):
            assert (chi * chi.inverse()).is_trivial()
            for other in partners:
                prod = chi * other
                m = lcm(q, other.modulus)
                assert prod.modulus == m
                # both sides are characters mod m, so agreeing on a
                # generating set of units means agreeing on all units
                for n in local_units(m):
                    assert prod.exponent(n) == (chi.exponent(n) + other.exponent(n)) % 1


# labels recorded from the implementation that walked each prime's local
# data separately; every --json output carries these labels
FROZEN_LIFTS = [
    ("8.3", 48, "48.7"), ("8.5", 16, "16.9"), ("8.7", 128, "128.127"),
    ("4.3", 40, "40.31"), ("16.3", 96, "96.55"), ("32.9", 64, "64.17"),
    ("3.2", 12, "12.5"), ("5.2", 40, "40.17"), ("7.3", 42, "42.31"),
    ("9.2", 54, "54.35"), ("25.2", 125, "125.32"), ("12.5", 72, "72.17"),
    ("15.7", 90, "90.37"), ("20.3", 120, "120.103"), ("1.1", 10, "10.1"),
    ("64.63", 128, "128.127"),
]
FROZEN_PRIMITIVES = [
    ("12.5", "3.2"), ("12.7", "4.3"), ("20.9", "5.4"), ("45.8", "15.8"),
    ("10.9", "5.4"), ("8.5", "8.5"), ("48.7", "8.3"), ("64.17", "16.13"),
    ("128.3", "128.3"), ("128.65", "8.5"), ("80.31", "4.3"), ("72.55", "4.3"),
    ("96.95", "12.11"), ("63.20", "63.20"), ("125.26", "25.6"), ("100.51", "4.3"),
    ("90.7", "45.7"), ("12.1", "1.1"),
]
FROZEN_PRODUCTS = [
    ("3.2", "5.2", "15.2"), ("4.3", "8.5", "8.3"), ("8.3", "16.5", "16.3"),
    ("9.2", "27.4", "27.5"), ("12.5", "20.3", "60.23"), ("7.3", "28.3", "28.23"),
    ("32.3", "48.5", "96.11"), ("5.2", "1.1", "5.2"), ("64.3", "64.5", "64.15"),
    ("45.2", "12.7", "180.47"),
]


def test_frozen_labels():
    for lab, m, want in FROZEN_LIFTS:
        assert DirichletChar.from_label(lab).lift(m).label == want
    for lab, want in FROZEN_PRIMITIVES:
        assert DirichletChar.from_label(lab).primitive().label == want
    for a, b, want in FROZEN_PRODUCTS:
        assert (DirichletChar.from_label(a) * DirichletChar.from_label(b)).label == want


def test_gauss_sum_trivial_and_quadratic():
    assert gauss_sum(DirichletChar(1, 1)) == 1
    g = gauss_sum(DirichletChar(5, 4))
    assert g * g == 5
    with pytest.raises(NotPrimitive):
        gauss_sum(DirichletChar(10, 9))


def test_gauss_sum_refuses_a_conductor_above_the_ceiling(monkeypatch):
    # 4919.13 has order 4918: g lies in Q(zeta_lcm(4919, 4918)), refused
    # before the table of 24191642 entries is built or a slot is read
    phi = DirichletChar(4919, 13)
    assert phi.order == 4918 and phi.is_primitive()
    monkeypatch.setattr(DirichletChar, "slot", None)
    with pytest.raises(ModulusTooLarge, match="conductor 24191642 is above"):
        gauss_sum(phi)
    monkeypatch.undo()
    check_gauss_conductor(MODULUS_MAX)
    with pytest.raises(ModulusTooLarge):
        check_gauss_conductor(MODULUS_MAX + 1)


def test_gauss_sum_norm_identity_small():
    # g(phi) g(phi_bar) = phi(-1) v, checked exactly for v <= 24
    for v in range(1, 25):
        for phi in primitive_characters(v):
            g1 = gauss_sum(phi)
            g2 = gauss_sum(phi.inverse())
            assert g1 * g2 == phi(-1) * Fraction(v)


def test_gauss_sum_matches_numeric_oracle():
    import mpmath as mp
    for v, a in [(5, 2), (7, 3), (12, 11)]:
        phi = DirichletChar(v, a)
        target = mp.mpc(0)
        for n in range(v):
            target += char_to_complex(phi, n) * mp.e ** (2j * mp.pi * n / v)
        assert abs(cyc_to_complex(gauss_sum(phi)) - target) < 1e-30


@pytest.fixture
def gauss_store(monkeypatch):
    """An empty Gauss-sum store for one test; the process's store comes back
    after it."""
    monkeypatch.setattr(characters, "_GAUSS", {})
    monkeypatch.setattr(characters, "_gauss_held", 0)
    return characters._GAUSS


def test_gauss_sum_kept_once_per_character(gauss_store):
    import eiscong
    from eiscong import eisenstein
    assert eiscong.gauss_sum is gauss_sum and eisenstein.gauss_sum is gauss_sum
    g = gauss_sum(DirichletChar(13, 2))
    assert gauss_sum(DirichletChar.from_label("13.2")) is g  # equal, built separately
    assert gauss_sum(DirichletChar(13, 15)) is g  # index 15 = 2 mod 13
    psi, phi = DirichletChar(5, 2), DirichletChar(7, 3)
    eisenstein._gauss_ratio(psi, phi)  # the cusp constants fill the same store
    assert set(gauss_store) == {DirichletChar(13, 2), psi * phi.inverse(), phi}
    assert characters._gauss_held == sum(len(x.num) for x in gauss_store.values())


def test_refused_gauss_sums_raise_every_time_and_store_nothing(gauss_store):
    imprimitive, too_big = DirichletChar(10, 9), DirichletChar(4919, 13)
    for _ in range(2):
        with pytest.raises(NotPrimitive):
            gauss_sum(imprimitive)
        with pytest.raises(ModulusTooLarge, match="conductor 24191642 is above"):
            gauss_sum(too_big)
    assert gauss_store == {} and characters._gauss_held == 0


def test_gauss_store_stays_within_its_budget(gauss_store, monkeypatch):
    # 400 numerators hold a few of the sums of conductor <= 30 (15197 in
    # all, the largest 336, in Q(zeta_812)): filling past the budget drops
    # the oldest, and every sum handed out is still the right one
    monkeypatch.setattr(characters, "_GAUSS_NUMERATORS", 400)
    for v in range(1, 31):
        for phi in primitive_characters(v):
            g = gauss_sum(phi)
            assert g == characters._build_gauss_sum(phi)
            held = sum(len(x.num) for x in gauss_store.values())
            assert characters._gauss_held == held <= 400
            assert gauss_store[phi] is g  # the newest sum is always kept
    assert len(gauss_store) < sum(len(primitive_characters(v)) for v in range(1, 31))
    # a sum larger than the whole budget is handed out but not kept
    monkeypatch.setattr(characters, "_GAUSS_NUMERATORS", 100)
    gauss_store.clear()
    monkeypatch.setattr(characters, "_gauss_held", 0)
    phi = DirichletChar(29, 2)
    assert gauss_sum(phi) == characters._build_gauss_sum(phi)
    assert gauss_store == {} and characters._gauss_held == 0


def test_gauss_store_shared_by_threads(gauss_store, monkeypatch):
    # threads racing on the same characters, first with room for all of
    # them (one object per character), then with a budget that forces
    # evictions (the held count matches the store); switches are forced
    # often so that a read-modify-write without the lock would show
    chars = [phi for v in range(1, 26) for phi in primitive_characters(v)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for budget in (characters._GAUSS_NUMERATORS, 250):
            monkeypatch.setattr(characters, "_GAUSS_NUMERATORS", budget)
            gauss_store.clear()
            monkeypatch.setattr(characters, "_gauss_held", 0)
            seen = [[] for _ in range(4)]
            threads = [threading.Thread(target=lambda out=out, r=r: out.extend(
                (phi, gauss_sum(phi)) for phi in (chars[r:] + chars[:r]) * 2))
                for r, out in zip(range(0, 80, 20), seen)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert all(len(out) == 2 * len(chars) for out in seen)
            held = sum(len(x.num) for x in gauss_store.values())
            assert characters._gauss_held == held <= budget
            if budget != 250:
                assert len(gauss_store) == len(chars)
                assert all(g is gauss_store[phi] for out in seen for phi, g in out)
    finally:
        sys.setswitchinterval(interval)


def test_enumerate_pairs():
    assert [(p.label, q.label) for p, q in enumerate_pairs(1)] == [("1.1", "1.1")]
    pairs5 = enumerate_pairs(5)
    # brute force: primitive characters mod 5 are the three with conductor 5
    prim5 = [a for a in range(1, 6) if gcd(a, 5) == 1
             and DirichletChar(5, a).conductor == 5]
    assert len(prim5) == 3
    assert len(pairs5) == 2 * len(prim5)
    with pytest.raises(NotSquareFree):
        enumerate_pairs(12)


def test_parity_filter():
    pairs = [pq for pq in enumerate_pairs(7) if parity_matches(*pq, 7)]
    assert pairs and all((p * q).parity == -1 for p, q in pairs)


def test_conrey_generator_values():
    assert conrey_generator(7) == 3
    assert conrey_generator(5) == 2


def test_is_square_free():
    assert is_square_free(42) and not is_square_free(12)
