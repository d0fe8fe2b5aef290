import copy
import dataclasses
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import divisors, invert, primefactors, primerange

from eiscong import arith, characters, eisenstein
from eiscong.characters import DirichletChar, gauss_sum, is_square_free, primitive_characters
from eiscong.cyclotomic import CycNum, _phi, cyclotomic_poly
from eiscong.eisenstein import (_SERIES_CACHE, CuspMatrix, DeltaChoice, EisensteinParams,
                                QExpansion, _multiplier, _row, _series_rows, alpha_m, c_gamma,
                                constant_term_alpha_m, constant_term_e_delta, cusp_matrix_for,
                                cusp_representatives, e_delta, e_delta_via_hecke,
                                eisenstein_qexp, eisenstein_series, hecke_tp, sigma_power_div)
from eiscong.errors import (InsufficientPrecision, ModulusTooLarge, NotSquareFree,
                            PrecisionTooLarge)
from eiscong.lvalues import PREC_MAX, l_value_at_negative
from eiscong.record import replace
from helpers import (CoeffQExpansion, from_qq, qq, ref_alpha_m, ref_e_delta,
                     ref_e_delta_via_hecke, ref_eisenstein_qexp, ref_hecke_tp)

TRIV = DirichletChar(1, 1)
PHI5 = DirichletChar(5, 4)
PHI74 = DirichletChar(7, 4)

P0 = EisensteinParams(1, 1, 12, TRIV, TRIV)
P51 = EisensteinParams(5, 2, 8, TRIV, PHI5)
P53 = EisensteinParams(7, 6, 6, TRIV, PHI74)


def random_gamma(rng, bound=60):
    while True:
        a = rng.randrange(-bound, bound + 1)
        b = rng.randrange(-bound, bound + 1)
        if (a, b) != (0, 0) and gcd(a, b) == 1:
            return cusp_matrix_for(a, b)


def test_params_validation():
    with pytest.raises(NotSquareFree):
        EisensteinParams(4, 1, 12, TRIV, TRIV)
    with pytest.raises(ValueError):
        EisensteinParams(1, 1, 2, TRIV, TRIV)  # k must exceed 2
    with pytest.raises(ValueError):
        EisensteinParams(5, 2, 7, TRIV, PHI5)  # parity mismatch
    with pytest.raises(ValueError):
        EisensteinParams(5, 5, 8, TRIV, PHI5)  # N, M not coprime
    with pytest.raises(ValueError):
        EisensteinParams(10, 1, 8, TRIV, PHI5)  # u*v != N


def test_params_copy_and_pickle_with_their_cached_values():
    params = EisensteinParams(5, 2, 8, TRIV, PHI5)  # a new instance: nothing cached
    params.cusp_constant, params.cond1_quantity
    for other in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert other == params and other is not params
        assert other.describe() == params.describe()
        assert other.__dict__.keys() == params.__dict__.keys()
        assert other.cusp_constant == params.cusp_constant
        assert other.cond1_quantity == params.cond1_quantity
        with pytest.raises(AttributeError, match="immutable"):
            other.k = 6


def test_sigma_examples():
    assert sigma_power_div(1, 8, TRIV, PHI5) == 1
    assert sigma_power_div(2, 12, TRIV, TRIV) == 2049
    assert sigma_power_div(3, 8, TRIV, PHI5) == -2186  # 1 + (-1) * 3^7


def test_eisenstein_qexp_level_one():
    e = eisenstein_qexp(P0, 2)
    assert e.coeffs[0] == Fraction(691, 65520)
    assert e.coeffs[1] == 1
    assert e.coeffs[2] == 2049
    assert e.level == 1 and e.weight == 12


def test_eisenstein_qexp_nontrivial_psi_has_zero_a0():
    params = EisensteinParams(5, 1, 8, PHI5, TRIV)
    e = eisenstein_qexp(params, 3)
    assert not e.coeffs[0]
    assert e.coeffs[1] == 1


@pytest.mark.parametrize("psi, phi", [("1.1", "1.1"), ("1.1", "5.4"), ("5.4", "1.1"),
                                      ("3.2", "4.3"), ("5.2", "3.2")])
def test_weight_2_series_against_divisor_sums(psi, phi):
    # EisensteinParams refuses k = 2, so the series is read by its
    # characters: a_n = sigma_power_div for n >= 1 (tags included), and
    # a_0 = -1/24 for E_2, L(-1, phi)/2 for psi trivial, else zero
    psi, phi = DirichletChar.from_label(psi), DirichletChar.from_label(phi)
    f = eisenstein_series(2, psi, phi, 60)
    assert (f.weight, f.level, f.character) == (2, psi.modulus * phi.modulus, psi * phi)
    if psi.modulus > 1:
        a0 = CycNum.zero(1)
    elif phi.modulus == 1:
        a0 = CycNum.from_rational(Fraction(-1, 24))
    else:
        a0 = l_value_at_negative(2, phi) * Fraction(1, 2)
    assert f[0].to_json() == a0.to_json()
    for n in range(1, 61):
        assert f[n].to_json() == sigma_power_div(n, 2, psi, phi).to_json(), n
    if phi.label == "5.4":  # B_(2, phi) = 4/5, so L(-1, phi) = -2/5
        assert f[0] == Fraction(-1, 5)


def test_alpha_m():
    e = eisenstein_qexp(P0, 8)
    d = alpha_m(e, 2)
    assert d.precision == e.precision
    assert not d.coeffs[1] and d.coeffs[2] == e.coeffs[1] and d.coeffs[4] == e.coeffs[2]
    assert d.level == 2
    assert alpha_m(e, 1) is e


def test_hecke_a1_reads_ap():
    e = eisenstein_qexp(P51, 30)
    t3 = hecke_tp(e, 3, 10)
    assert t3.coeffs[1] == e.coeffs[3]


def test_hecke_eigenvalue_on_eisenstein_series():
    # T_p E = sigma_{k-1}(p) E for all p coprime to N, to the precision cap
    e = eisenstein_qexp(P51, 60)
    for p in (2, 3, 7):
        lam = sigma_power_div(p, P51.k, P51.psi, P51.phi)
        out = hecke_tp(e, p, 60 // p)
        expect = e.truncate(60 // p).scale(lam)
        assert out.coeffs == expect.coeffs


def test_hecke_insufficient_precision():
    e = eisenstein_qexp(P51, 10)
    with pytest.raises(InsufficientPrecision):
        hecke_tp(e, 3, 5)


def test_powerdiv_identity_randomized():
    # sigma(np) + chi(p) p^(k-1) sigma(n/p) = (psi(p)+phi(p)p^(k-1)) sigma(n)
    rng = random.Random(40)
    cases = 0
    while cases < 60:
        params = rng.choice([P0, P51, P53])
        p = rng.choice([q for q in primerange(2, 20) if params.N % q])
        n = rng.randrange(1, 50)
        k, psi, phi = params.k, params.psi, params.phi
        chi_p = params.chi(p)
        lhs = sigma_power_div(n * p, k, psi, phi)
        if n % p == 0:
            lhs = lhs + chi_p * Fraction(p) ** (k - 1) * sigma_power_div(n // p, k, psi, phi)
        rhs = (psi(p) + phi(p) * Fraction(p) ** (k - 1)) * sigma_power_div(n, k, psi, phi)
        assert lhs == rhs
        cases += 1


PRIMITIVE_30 = [c for q in range(1, 31) for c in primitive_characters(q)]


def sigma_by_cycnum(n, k, psi, phi):
    # one CycNum product and sum per divisor, from the rational zero
    acc = CycNum.zero(1)
    for d in divisors(n):
        a, b = psi(n // d), phi(d)
        if a and b:
            acc = acc + a * b * Fraction(d) ** (k - 1)
    return acc


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), st.integers(3, 12),
       st.sampled_from(PRIMITIVE_30), st.sampled_from(PRIMITIVE_30))
# psi and phi share a prime of n: every term vanishes in the first three,
# and the sum must stay the rational zero, not a zero of conductor o
@example(3, 6, DirichletChar(3, 2), DirichletChar(3, 2))
@example(6, 5, DirichletChar(12, 11), DirichletChar(4, 3))
@example(10, 7, DirichletChar(5, 2), DirichletChar(10, 3))
@example(30, 8, DirichletChar(15, 2), DirichletChar(5, 2))
def test_sigma_power_div_matches_cycnum_sum(n, k, psi, phi):
    # to_json compares the conductor as well as the value
    assert sigma_power_div(n, k, psi, phi).to_json() == \
        sigma_by_cycnum(n, k, psi, phi).to_json()


def _params(psi, phi, k):
    psi, phi = DirichletChar.from_label(psi), DirichletChar.from_label(phi)
    return EisensteinParams(psi.modulus * phi.modulus, 1, k, psi, phi)


# psi trivial and not, characters of modulus above 600 on either side,
# every weight 3 <= k <= 12 of both parities, and fields Q(zeta_105) and
# Q(zeta_33), whose Phi_o are past the packed cutoff (Phi_105 has a
# coefficient -2)
FILL_PARAMS = [_params(psi, phi, k) for psi, phi, ks in [
    ("1.1", "1.1", (4, 12)), ("1.1", "5.4", (8,)), ("1.1", "5.2", (3, 5)),
    ("3.2", "5.2", (6,)), ("3.2", "5.4", (7, 9)), ("3.2", "7.3", (10,)),
    ("1.1", "601.32", (12,)), ("1.1", "613.35", (11,)), ("613.35", "1.1", (3,)),
    ("607.211", "5.4", (9,)), ("1.1", "211.4", (6,)), ("1.1", "67.4", (4,))] for k in ks]


def _fresh_cache(params):
    _SERIES_CACHE.pop((params.k, params.psi, params.phi), None)
    eisenstein_qexp(params, 1)
    return _SERIES_CACHE[params.k, params.psi, params.phi][:3]


@pytest.mark.parametrize("params", FILL_PARAMS, ids=lambda p: f"{p.psi.label}-{p.phi.label}-k{p.k}")
def test_series_rows_match_sigma_power_div(params):
    # each (row, tag) against one sigma_power_div per n, the tag being the
    # conductor it returns (lcm(ord psi, ord phi) once any term is nonzero)
    o, den, lst = _fresh_cache(params)
    eisenstein_qexp(params, 600)
    for n in range(1, 601):
        c = sigma_power_div(n, params.k, params.psi, params.phi)
        assert lst[n] == (_row(c, o, den), c.conductor), n


@pytest.mark.parametrize("slots", [eisenstein._FILL_SLOTS, 37])
def test_series_cache_grown_in_steps_equals_one_fill(monkeypatch, slots):
    # 37 accumulator slots make the sieve run in segments of 37 // o rows
    monkeypatch.setattr(eisenstein, "_FILL_SLOTS", slots)
    for params in FILL_PARAMS:
        lst = _fresh_cache(params)[2]
        for b in (1, 2, 3, 40, 41, 232, 600):
            eisenstein_qexp(params, b)
        stepped = list(lst)
        lst = _fresh_cache(params)[2]
        eisenstein_qexp(params, 600)
        assert lst == stepped and len(lst) == 601


@pytest.mark.parametrize("labels", [("1.1", "5.4", 8), ("3.2", "5.2", 6), ("613.35", "1.1", 3)],
                         ids=lambda t: f"{t[0]}-{t[1]}-k{t[2]}")
def test_series_rows_to_large_precision_in_segments(monkeypatch, labels):
    # a fill grown to 7000 and then to 20000 in segments of 8192 // o rows,
    # read at each segment's first and last row, at the step between the two
    # fills and at random n: psi trivial and psi = 3.2 (strided slices while
    # a segment holds 8 * modulus multiples of d, then one multiple at a
    # time) and psi of modulus 613 (one multiple at a time throughout)
    monkeypatch.setattr(eisenstein, "_FILL_SLOTS", 1 << 13)
    params = _params(*labels)
    o, den, lst = _fresh_cache(params)
    step = (1 << 13) // o
    ns = set()
    for lo, hi in ((1, 7000), (7001, 20000)):
        eisenstein_qexp(params, hi)
        ns.update(n for s in range(lo, hi + 1, step) for n in (s, min(hi, s + step - 1)))
    assert step < 7000 and len(lst) == 20001  # two segments or more per fill
    rng = random.Random(20000)
    ns.update(rng.sample(range(1, 20001), 200 - len(ns)))
    for n in sorted(ns):
        c = sigma_power_div(n, params.k, params.psi, params.phi)
        assert lst[n] == (_row(c, o, den), c.conductor), n


def test_series_rows_take_no_divisors(monkeypatch):
    # the fill tabulates each character's slots once, at most b + 1 of
    # them, and factors nothing
    fields = {params: _fresh_cache(params)[:2] for params in FILL_PARAMS}

    def no_call(*args):
        raise AssertionError("the fill called a per-n helper")
    for name in ("sigma_power_div", "divisors"):
        monkeypatch.setattr(eisenstein, name, no_call)
    monkeypatch.setattr(arith, "factorint", no_call)
    monkeypatch.setattr(characters, "factorint", no_call)
    calls = []
    slot = DirichletChar.slot
    monkeypatch.setattr(DirichletChar, "slot", lambda self, n: calls.append(n) or slot(self, n))
    for params, (o, den) in fields.items():
        for b in (10, 600):
            calls.clear()
            _series_rows(params.k, params.psi, params.phi, o, den, 1, b)
            assert len(calls) == min(params.u, b + 1) + min(params.v, b + 1) <= 2 * (b + 1)


P30 = EisensteinParams(7, 30, 6, TRIV, PHI74)
P154 = EisensteinParams(15, 154, 6, DirichletChar(3, 2), DirichletChar(5, 2))


@pytest.mark.parametrize("params", [P0, P51, P53, P30, P154], ids=lambda p: f"M{p.M}")
def test_e_delta_matches_alternating_divisor_sum(params):
    # sum_{m | M} (-1)^(#P_m) delta_m alpha_m E, each coefficient from the
    # rational zero; to_json compares conductors too
    b = 41
    base = eisenstein_qexp(params, b).coeffs
    for dc in DeltaChoice.all_choices(params):
        want = []
        for n in range(b + 1):
            acc = CycNum.zero(1)
            for m in divisors(params.M):
                if n % m == 0:
                    acc = acc + dc.delta_m(m) * (-1) ** len(primefactors(m)) * base[n // m]
            want.append(acc.to_json())
        assert [c.to_json() for c in e_delta(params, dc, b).coeffs] == want, dc


def _lift_json(f):
    return [c.to_json() for c in f.coeffs]


@pytest.mark.parametrize("order", [(12, 41), (41, 12)], ids=["short-first", "long-first"])
@pytest.mark.parametrize("params", [P51, P53], ids=lambda p: f"M{p.M}")
def test_e_delta_reuses_the_longest_lift(params, order):
    # every request, before or after a longer one, equals a cold build on a
    # fresh delta-choice; to_json compares the conductor tags too
    for dc in DeltaChoice.all_choices(params):
        for b in order:
            cold = e_delta(params, DeltaChoice(params, dc.selection), b)
            assert _lift_json(e_delta(params, dc, b)) == _lift_json(cold), (dc, b)
        assert dc._lift.precision == max(order)
        # reading a returned lift's coefficients pins nothing in the store
        assert "coeffs" not in vars(dc._lift)
        assert e_delta(params, dc, 12) is not e_delta(params, dc, 12)


def test_e_delta_refuses_a_delta_choice_of_other_params():
    # delta_p of one parameter set over the series of another is E_delta of
    # neither (the Hecke construction gave a_2 = -95 where the lift has 1);
    # an equal parameter set built anew is the same one
    p51_k6 = EisensteinParams(5, 2, 6, TRIV, PHI5)
    dc = DeltaChoice.constant(p51_k6, "phi")
    gamma = CuspMatrix(1, 0, 5, 1)
    for call in (lambda: e_delta(P51, dc, 6), lambda: e_delta_via_hecke(P51, dc, 6),
                 lambda: constant_term_e_delta(P51, dc, gamma)):
        with pytest.raises(ValueError, match="made for other parameters"):
            call()
    assert dc._lift is None
    same = EisensteinParams(5, 2, 6, TRIV, PHI5)
    assert same is not p51_k6
    assert _lift_json(e_delta(same, dc, 6)) == \
        _lift_json(e_delta(p51_k6, DeltaChoice.constant(p51_k6, "phi"), 6))
    assert constant_term_e_delta(same, dc, gamma) == constant_term_e_delta(p51_k6, dc, gamma)


def test_e_delta_checks_precision_before_the_store():
    dc = DeltaChoice.constant(P53, "psi")
    e_delta(P53, dc, 41)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        e_delta(P53, dc, 0)
    with pytest.raises(PrecisionTooLarge):
        e_delta(P53, dc, PREC_MAX + 1)
    assert dc._lift.precision == 41


def test_e_delta_via_hecke_reads_no_store():
    for dc in DeltaChoice.all_choices(P53):
        e_delta_via_hecke(P53, dc, 12)
        assert dc._lift is None


def test_cusp_constant_taken_once_per_parameter_set(monkeypatch):
    calls = Counter()
    for name in ("gauss_sum", "l_value_at_negative"):
        fn = getattr(eisenstein, name)
        monkeypatch.setattr(eisenstein, name,
                            lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    params = EisensteinParams(7, 6, 6, TRIV, PHI74)  # a new instance: nothing cached
    gamma = cusp_matrix_for(3, 14)  # v = 7 divides b / gcd(b, m) for every m | 6
    assert c_gamma(params, gamma) == constant_term_alpha_m(params, 1, gamma)
    assert all(constant_term_alpha_m(params, m, gamma) for m in divisors(params.M))
    for dc in DeltaChoice.all_choices(params):
        constant_term_e_delta(params, dc, gamma)
    assert c_gamma(params, CuspMatrix(1, 0, 0, 1)) == params.cusp_constant
    cond1 = params.cond1_quantity  # Condition (1) reads the same L-value
    assert calls == {"gauss_sum": 2, "l_value_at_negative": 1}
    assert cond1 == params.l_value * prod(e_k for e_k, _ in params.euler_factors.values())


def test_e_delta_leaves_series_cache_alone():
    params = EisensteinParams(5, 6, 8, TRIV, PHI5)
    before = [c.to_json() for c in eisenstein_qexp(params, 40).coeffs]
    for dc in DeltaChoice.all_choices(params):
        e_delta(params, dc, 40)
    assert [c.to_json() for c in eisenstein_qexp(params, 40).coeffs] == before


# every (psi, phi) of the parameter sets with N = u * v <= 15
SMALL_PAIRS = [(psi, phi) for u in range(1, 16) for v in range(1, 15 // u + 1)
               if gcd(u, v) == 1 and is_square_free(u * v)
               for psi in primitive_characters(u) for phi in primitive_characters(v)]


@st.composite
def small_params(draw):
    psi, phi = draw(st.sampled_from(SMALL_PAIRS))
    n = psi.modulus * phi.modulus
    m = draw(st.sampled_from([m for m in range(1, 78) if gcd(m, n) == 1 and is_square_free(m)]))
    k = draw(st.sampled_from([k for k in range(3, 11)
                              if (-1) ** k == psi.parity * phi.parity]))
    return EisensteinParams(n, m, k, psi, phi)


@settings(max_examples=60, deadline=None)
@given(small_params(), st.integers(1, 60))
# at delta = 2:psi,7:psi,11:psi, a zero a_0 of conductor 2 among rows of
# conductor 4
@example(P154, 41)
def test_rows_match_per_coefficient_reference(params, b):
    # to_json compares the conductor of every coefficient as well as its value
    want = ref_eisenstein_qexp(params, b)
    assert eisenstein_qexp(params, b).to_json() == want.to_json()
    o, den, cached, _ = _SERIES_CACHE[params.k, params.psi, params.phi]
    before = (o, den, list(cached[: b + 1]))
    assert alpha_m(eisenstein_qexp(params, b), 3).to_json() == ref_alpha_m(want, 3).to_json()
    for dc in DeltaChoice.all_choices(params):
        f, ref = e_delta(params, dc, b), ref_e_delta(params, dc, b)
        assert f.to_json() == ref.to_json(), dc
        for p in (2, 3, 5):
            assert hecke_tp(f, p).to_json() == ref_hecke_tp(ref, p).to_json(), (dc, p)
        if b * params.M <= 300:
            assert e_delta_via_hecke(params, dc, b).to_json() == \
                ref_e_delta_via_hecke(params, dc, b).to_json(), dc
    assert (o, den, cached[: b + 1]) == before


def test_row_ops_across_fields():
    # rational rows under a character of order 4: T_2 moves the rows n = 2j
    # into Q(zeta_4) and leaves the others rational, read back through
    # try_descend in conductor 1; scale and sub then join Q(zeta_3)
    chi = DirichletChar(5, 2)
    nums = [3, 1, -2, 5, 7, 0, 13, 17, 19, 23, 29, 31, 37]
    f = QExpansion(3, 5, chi, tuple((a,) for a in nums), (1,) * len(nums), den=4)
    ref = CoeffQExpansion(3, 5, chi, tuple(CycNum.from_rational(Fraction(a, 4)) for a in nums))
    t2 = hecke_tp(f, 2)
    assert t2.field == 4 and t2.tags[1] == 1 and t2[1].conductor == 1
    assert t2.to_json() == ref_hecke_tp(ref, 2).to_json()
    z3 = CycNum.zeta(3)
    assert t2.scale(z3).sub(f).to_json() == \
        ref_hecke_tp(ref, 2).scale(z3).sub(ref).to_json()
    assert f.scale(Fraction(2, 3)).to_json() == ref.scale(Fraction(2, 3)).to_json()
    # at weight 0, chi(p) p^(k-1) has denominator p
    assert hecke_tp(replace(f, weight=0), 2).to_json() == \
        ref_hecke_tp(dataclasses.replace(ref, weight=0), 2).to_json()


# o = p, 2p, p^e and o = 2 mod 4 among the conductors to 60
MULTIPLIER_CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 21, 25, 26, 27,
                         30, 32, 34, 35, 42, 45, 49, 50, 54, 58, 59, 60]


@pytest.mark.parametrize("o", MULTIPLIER_CONDUCTORS)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_multiplier_is_the_cycnum_product(o, data):
    def vec(lo, hi):
        return data.draw(st.lists(st.integers(lo, hi), min_size=_phi(o), max_size=_phi(o)))
    x = CycNum(o, [Fraction(a, b) for a, b in zip(vec(-10**6, 10**6), vec(1, 30))])
    acc, row = tuple(vec(-10**6, 10**6)), tuple(vec(-10**6, 10**6))
    # the matrix is that of x's numerators, an element of Z[zeta_o]
    want = CycNum(o, acc) + CycNum(o, x.num) * CycNum(o, row)
    assert want.den == 1
    assert _multiplier(x)(acc, row) == want.num


ROW_PARAMS = (P0, P51, P53, EisensteinParams(5, 6, 8, TRIV, PHI5))


def _series(b):
    return [eisenstein_qexp(params, b) for params in ROW_PARAMS] + \
        [eisenstein_series(3, TRIV, DirichletChar(5, 2), b)]


# each way the library builds a QExpansion, on several parameter sets
BUILDERS = {
    "eisenstein_series": lambda: _series(24),
    "e_delta": lambda: [e_delta(params, dc, 12) for params in ROW_PARAMS
                        for dc in DeltaChoice.all_choices(params)],
    "e_delta_via_hecke": lambda: [e_delta_via_hecke(params, dc, 6) for params in ROW_PARAMS
                                  for dc in DeltaChoice.all_choices(params)],
    "hecke_tp": lambda: [hecke_tp(f, p) for f in _series(24) for p in (2, 3, 5)],
    "scale": lambda: [f.scale(c) for f in _series(12)
                      for c in (CycNum.zeta(3) + Fraction(1, 7), Fraction(-9, 4))],
    "sub": lambda: [g for f in _series(12) for g in (
        f.sub(f.scale(CycNum.zeta(4, 3))),
        f.scale(Fraction(1, 6)).sub(f.scale(Fraction(1, 10))))],
    "alpha_m": lambda: [alpha_m(f, 3) for f in _series(24)],
}


@pytest.mark.parametrize("name", BUILDERS)
def test_built_rows_are_reduced_over_a_positive_denominator(name):
    # rows of phi(field) numerators over den > 0, each read as the CycNum
    # of its row over den (in the tag's field, which coerces back)
    built = BUILDERS[name]()
    assert built
    for f in built:
        assert f.den > 0 and len(f.rows) == len(f.tags) == f.precision + 1
        assert all(len(row) == _phi(f.field) for row in f.rows)
        for n, row in enumerate(f.rows):
            assert f[n] == CycNum(f.field, row) * Fraction(1, f.den)


def test_a_row_of_the_wrong_length_is_refused():
    f = eisenstein_qexp(P53, 4)
    assert f.field == 3
    # an unreduced row: 1 + zeta_3 + zeta_3^2 = 0 left in three slots, not two
    bad = replace(f, rows=f.rows[:2] + ((1, 1, 1),) + f.rows[3:])
    assert bad[1] == f[1]
    with pytest.raises(ValueError, match="row 2 has 3 entries, not phi"):
        bad[2]


def test_e_delta_m1_is_plain_series():
    dc = DeltaChoice(P0, {})
    assert e_delta(P0, dc, 6).coeffs == eisenstein_qexp(P0, 6).coeffs


def test_e_delta_prime_m_two_divisor_form():
    for dc in DeltaChoice.all_choices(P51):
        f = e_delta(P51, dc, 14)
        base = eisenstein_qexp(P51, 14)
        d2 = dc.delta(2)
        for n in range(1, 15):
            expect = base.coeffs[n]
            if n % 2 == 0:
                expect = expect - d2 * base.coeffs[n // 2]
            assert f.coeffs[n] == expect
        assert f.coeffs[1] == 1  # normalised
        assert f.level == 10 and f.character == P51.chi_tilde


def test_e_delta_equals_operator_form():
    for params in (P51, P53):
        for dc in DeltaChoice.all_choices(params):
            assert e_delta(params, dc, 10).coeffs == \
                e_delta_via_hecke(params, dc, 10).coeffs


def test_lifted_series_eigenvalues_small():
    params = P51
    b = 6
    for dc in DeltaChoice.all_choices(params):
        f = e_delta(params, dc, b * 13)
        for p in (2, 3, 5, 7, 11, 13):
            out = hecke_tp(f, p, b)
            if p in params.m_primes:
                lam = dc.eps(p)
            elif params.N % p == 0:
                continue  # eigenvalue statement covers p | M and p coprime to NM
            else:
                lam = params.psi(p) + params.phi(p) * Fraction(p) ** (params.k - 1)
            assert out.coeffs == f.truncate(b).scale(lam).coeffs


def test_cusp_matrix_validation():
    with pytest.raises(ValueError):
        CuspMatrix(1, 1, 1, 1)
    g = cusp_matrix_for(3, 5)
    assert (g.a, g.b) == (3, 5) and g.a * g.d - g.beta * g.b == 1


def test_cusp_representatives_count():
    # number of cusps of Gamma_0(N) is sum over b | N of phi(gcd(b, N/b))
    from sympy import totient
    for level in (1, 6, 10, 42, 36):
        expect = sum(int(totient(gcd(b, level // b))) for b in divisors(level))
        got = cusp_representatives(level)
        assert len(got) == expect
        assert all(g.a * g.d - g.beta * g.b == 1 for g in got)


def test_c_gamma_level_one():
    assert c_gamma(P0, CuspMatrix(1, 0, 0, 1)) == Fraction(-691, 65520)


def test_c_gamma_character_factors_are_units():
    # the Gauss-sum ratio has norm +- a power of v, character values norm 1
    from eiscong.characters import gauss_sum
    for params in (P51, P53):
        ratio = gauss_sum(params.psi * params.phi.inverse()) * \
            gauss_sum(params.phi.inverse()).inverse()
        n = ratio.norm()
        v = params.v
        num = abs(n.numerator * n.denominator)
        while num % v == 0:
            num //= v
        assert num == 1


def test_cusp_constant_refuses_a_gauss_conductor_above_the_ceiling(monkeypatch):
    # g(psi phi^-1) g(phi) for phi = 4919.13 (order 4918) would lie in
    # Q(zeta_24191642): refused before either Gauss sum is taken
    def no_sum(chi):
        raise AssertionError("a Gauss sum was taken")
    monkeypatch.setattr(eisenstein, "gauss_sum", no_sum)
    params = EisensteinParams(4919, 2, 7, TRIV, DirichletChar(4919, 13))
    with pytest.raises(ModulusTooLarge, match="conductor 24191642 is above"):
        c_gamma(params, CuspMatrix(1, 0, 4919, 1))


def test_gauss_sum_inverse_identity():
    # 1/g(phi^-1) = phi(-1) g(phi) / v, the identity the cusp constants use
    # in place of an inverse, against sympy's inverse modulo Phi_n over Q for
    # every primitive phi of conductor <= 13
    for v in range(1, 14):
        for phi in primitive_characters(v):
            g = gauss_sum(phi.inverse())
            n = g.conductor
            u = from_qq(invert(qq(g.coeffs), qq(cyclotomic_poly(n))))
            expect = phi(-1) * gauss_sum(phi) / v
            assert CycNum(n, u) == expect == g.inverse(), phi.label


def test_constant_term_alpha_m_reduces_to_c_gamma():
    rng = random.Random(9)
    for params in (P51, P53):
        for _ in range(8):
            g = random_gamma(rng)
            if g.b % params.v:
                continue
            assert constant_term_alpha_m(params, 1, g) == c_gamma(params, g)


def test_constant_term_zero_when_v_does_not_divide():
    g = cusp_matrix_for(1, 3)  # b = 3, v = 5 does not divide
    assert not constant_term_alpha_m(P51, 2, g)
    dc = DeltaChoice.constant(P51, "psi")
    assert not constant_term_e_delta(P51, dc, g)


def test_inclusion_exclusion_matches_closed_form():
    rng = random.Random(77)
    for params in (P51, P53):
        for dc in DeltaChoice.all_choices(params):
            for _ in range(10):
                g = random_gamma(rng)
                total = CycNum.zero(1)
                for m in divisors(params.M):
                    w = dc.delta_m(m) * (-1) ** len(primefactors(m))
                    total = total + w * constant_term_alpha_m(params, m, g)
                assert total == constant_term_e_delta(params, dc, g)


def test_cusp_constant_factorisations():
    # all-psi choice at a cusp with gcd(b, M) = 1: the closed form equals
    # (-1)^(#P_M) C_gamma/M^k prod(psi(p) - phi(p) p^k) times a unit
    params = P51
    dc = DeltaChoice.constant(params, "psi")
    g = cusp_matrix_for(3, 5)
    lhs = constant_term_e_delta(params, dc, g)
    rhs = c_gamma(params, g) * Fraction((-1) ** 1, params.M ** params.k)
    for p in params.m_primes:
        rhs = rhs * (params.psi(p) - params.phi(p) * Fraction(p) ** params.k)
    unit = params.phi.inverse()(params.M)
    assert lhs == rhs * unit
    # all-phi choice at a cusp with M | b: product collapses to the
    # (1 - psi^-1(p) phi(p) p^(k-1)) form
    dc2 = DeltaChoice.constant(params, "phi")
    g2 = cusp_matrix_for(3, 10)
    lhs2 = constant_term_e_delta(params, dc2, g2)
    rhs2 = c_gamma(params, g2)
    for p in params.m_primes:
        rhs2 = rhs2 * (CycNum.one() - params.psi.inverse()(p) * params.phi(p)
                       * Fraction(p) ** (params.k - 1))
    assert lhs2 == rhs2


def test_a0_of_e_delta_uses_indicator_of_trivial_psi():
    # psi nontrivial: a_0 = 0 after any delta choice
    params = EisensteinParams(5, 1, 8, PHI5, TRIV)
    dc = DeltaChoice(params, {})
    assert not e_delta(params, dc, 4).coeffs[0]


def test_qexpansion_json():
    e = eisenstein_qexp(P51, 3)
    obj = e.to_json()
    assert obj["weight"] == 8 and obj["level"] == 5
    assert obj["character"] == "5.4"
    assert len(obj["coeffs"]) == 4
