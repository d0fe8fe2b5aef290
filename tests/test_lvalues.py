import json
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from sympy import Poly, Symbol, bernoulli as sympy_bernoulli

from eiscong import lvalues
from eiscong.characters import DirichletChar, primitive_characters
from eiscong.cyclotomic import CycNum
from eiscong.eisenstein import EisensteinParams
from eiscong.errors import BadDivisor, OrderTooLarge, WeightTooLarge
from eiscong.lvalues import (K_MAX, ORDER_MAX, bernoulli, bk_quotient_order_factor,
                             euler_factor, generalized_bernoulli, l_value_at_negative,
                             partial_l_order_data)
from helpers import char_to_complex, cyc_to_complex

TRIV = DirichletChar(1, 1)
X = Symbol("x")
LVALUES = Path(__file__).resolve().parent / "data" / "lvalues.json"


def test_bernoulli_base_cases_and_b12():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    # 691 divides the numerator of -B_12/24
    assert (-bernoulli(12) / 24).numerator % 691 == 0


def test_bernoulli_matches_sympy(monkeypatch):
    # from an empty cache, in mixed order, so that both refills are covered;
    # sympy >= 1.12 uses B_1 = +1/2, our convention is -1/2
    monkeypatch.setattr(lvalues, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)])
    for k in (7, 400, 3):
        bernoulli(k)
    assert len(lvalues._BERNOULLI) == 401
    for k in range(401):
        b = sympy_bernoulli(k)
        expect = Fraction(-1, 2) if k == 1 else Fraction(int(b.p), int(b.q))
        assert bernoulli(k) == expect, k


def test_bernoulli_odd_vanishing():
    for k in range(3, 20, 2):
        assert bernoulli(k) == 0


def test_generalized_bernoulli_trivial_matches_plain():
    for k in range(2, 14):
        assert generalized_bernoulli(k, TRIV) == bernoulli(k)
    # k = 1 convention: B_{1,1} = +1/2
    assert generalized_bernoulli(1, TRIV) == Fraction(1, 2)


def test_generalized_bernoulli_k1_formula():
    chi = DirichletChar(5, 4)
    direct = CycNum.zero(1)
    for a in range(1, 6):
        direct = direct + chi(a) * Fraction(a, 5)
    assert generalized_bernoulli(1, chi) == direct


def test_l_value_zeta_minus_11():
    assert l_value_at_negative(12, TRIV) == Fraction(691, 32760)


def test_l_value_numeric_oracle():
    # independent continuation through mpmath's Hurwitz zeta
    for k, (q, a) in [(8, (5, 4)), (6, (7, 4)), (7, (7, 3)), (4, (12, 11))]:
        chi = DirichletChar(q, a)
        if chi.parity != (-1) ** k:
            continue
        target = mp.mpc(0)
        for r in range(1, q + 1):
            e = chi.exponent(r)
            if e is None:
                continue
            target += char_to_complex(chi, r) * mp.power(q, k - 1) * mp.zeta(1 - k, mp.mpf(r) / q)
        got = cyc_to_complex(l_value_at_negative(k, chi))
        assert abs(got - target) < 1e-30


def test_parity_vanishing():
    # chi(-1) != (-1)^k forces L(1-k, chi) = 0, except (k, chi) = (1, trivial)
    for f in range(1, 13):
        for chi in primitive_characters(f):
            for k in range(1, 11):
                if chi.parity == (-1) ** k:
                    continue
                if k == 1 and chi.is_trivial():
                    assert l_value_at_negative(1, chi) == Fraction(-1, 2)
                else:
                    assert not l_value_at_negative(k, chi), (f, chi.label, k)


def test_l_value_uses_primitive_part():
    chi10 = DirichletChar(5, 4).lift(10)
    assert l_value_at_negative(8, chi10) == l_value_at_negative(8, DirichletChar(5, 4))
    for label, modulus in [("1.1", 6), ("5.2", 15), ("7.3", 28), ("12.11", 60), ("29.2", 58)]:
        chi = DirichletChar.from_label(label)
        lifted = chi.lift(modulus)
        assert not lifted.is_primitive()
        for k in range(1, 13):
            assert l_value_at_negative(k, lifted).to_json() == \
                l_value_at_negative(k, chi).to_json(), (label, modulus, k)


def test_partial_l_order_data_level_one():
    params = EisensteinParams(1, 1, 12, TRIV, TRIV)
    val = partial_l_order_data(params).rational_value()
    # (1/(2*11!)) * zeta(-11) up to sign; 691 appears to the first power
    assert abs(val) == Fraction(691, 32760) / (2 * 39916800)
    assert val.numerator % 691 == 0 and val.numerator % (691**2) != 0


def test_partial_l_order_data_level10():
    phi = DirichletChar(5, 4)
    params = EisensteinParams(5, 2, 8, TRIV, phi)
    val = partial_l_order_data(params).rational_value()
    assert val.numerator % 257 == 0  # the factor 1 - phi(2) 2^8 = 257


def test_euler_factor_values():
    phi = DirichletChar(5, 4)
    params = EisensteinParams(5, 2, 8, TRIV, phi)
    assert euler_factor(params, 2) == 257          # 1 + 2^8
    assert euler_factor(params, 2, 2) == 65        # 1 + 2^6
    assert euler_factor(params, 3) == 1 + 3**8     # phi(3) = -1 -> 1+6561


def test_bk_quotient_order_factor():
    phi = DirichletChar(5, 4)
    params = EisensteinParams(5, 2, 8, TRIV, phi)
    # M = p prime, d = 1: (psi(p) - phi(p) p^k) / ((p-1) p^k)
    assert bk_quotient_order_factor(params, 1).rational_value() == Fraction(257, 256)
    assert bk_quotient_order_factor(params, 1, 2).rational_value() == \
        Fraction(65, 1 * 2**6)
    with pytest.raises(BadDivisor):
        bk_quotient_order_factor(params, 2)
    with pytest.raises(BadDivisor):
        bk_quotient_order_factor(params, 3)


def test_bk_quotient_level42_two_factor():
    phi74 = DirichletChar(7, 4)
    params = EisensteinParams(7, 6, 6, TRIV, phi74)
    # d = 1: product over p in {2, 3}, divided by totient(6) * 6^k
    direct = (euler_factor(params, 2) * euler_factor(params, 3)
              * Fraction(1, 2 * 6**6))
    assert bk_quotient_order_factor(params, 1) == direct
    direct2 = (euler_factor(params, 2, 2) * euler_factor(params, 3, 2)
               * Fraction(1, 2 * 6**4))
    assert bk_quotient_order_factor(params, 1, 2) == direct2
    # d = 2: only p = 3 remains
    assert bk_quotient_order_factor(params, 2) == \
        euler_factor(params, 3) * Fraction(1, 2 * 3**6)


def test_functional_equation_specialisation():
    # with no primes omitted the identity reduces to the complete L-value
    # normalised by 2 (k-1)!: tested against an independently assembled value
    params = EisensteinParams(1, 1, 12, TRIV, TRIV)
    from math import factorial
    expected = l_value_at_negative(12, TRIV).rational_value() * \
        Fraction((-1) ** 12, 2 * factorial(11))
    assert partial_l_order_data(params).rational_value() == expected


def test_bernoulli_refill_stops_at_the_ceiling(monkeypatch):
    monkeypatch.setattr(lvalues, "_BERNOULLI", [Fraction(1), Fraction(-1, 2)] +
                        [bernoulli(k) for k in range(2, 601)])
    bernoulli(601)  # twice the cached length would be 1202
    assert len(lvalues._BERNOULLI) == K_MAX + 1


def _textbook_bernoulli(k: int, chi: DirichletChar, b_at) -> CycNum:
    """F^(k-1) sum_a chi(a) B_k(a/F), one CycNum term per a."""
    f = chi.modulus
    total = CycNum.zero(1)
    for a in range(1, f + 1):
        total = total + chi(a) * b_at[a]
    return total * Fraction(f) ** (k - 1)


def test_generalized_bernoulli_matches_textbook_sum():
    for f in range(1, 41):
        chars = primitive_characters(f)
        for k in range(1, 15):
            # B_k(x) from sympy, highest power first
            poly = [Fraction(int(c.p), int(c.q))
                    for c in Poly(sympy_bernoulli(k, X), X).all_coeffs()]
            b_at = {}
            for a in range(1, f + 1):
                x, acc = Fraction(a, f), Fraction(0)
                for c in poly:
                    acc = acc * x + c
                b_at[a] = acc
            for chi in chars:
                assert generalized_bernoulli(k, chi).to_json() == \
                    _textbook_bernoulli(k, chi, b_at).to_json(), (chi.label, k)


def lvalues_json(entries) -> str:
    """The L-value golden text: json.dumps(L(1-k, chi).to_json()) per (chi, k)."""
    out = [{"chi": e["chi"], "k": e["k"],
            "value": json.dumps(l_value_at_negative(e["k"], DirichletChar.from_label(e["chi"]))
                                .to_json())}
           for e in entries]
    return json.dumps(out, indent=1) + "\n"


def test_l_values_golden():
    # every primitive chi of conductor <= 30 at k = 1..12 (both parities, so
    # the zeros too), and k = 100, 300 at 1.1, 5.2, 29.2 and 7.3, recorded
    # from the sources that ran the Bernoulli recurrence and summed
    # chi(a) B_k(a/F) in Fractions
    golden = LVALUES.read_text()
    entries = json.loads(golden)
    expect = [(chi.label, k) for f in range(1, 31) for chi in primitive_characters(f)
              for k in range(1, 13)]
    expect += [(label, k) for k in (100, 300) for label in ("1.1", "5.2", "29.2", "7.3")]
    assert [(e["chi"], e["k"]) for e in entries] == expect
    assert lvalues_json(entries) == golden


@pytest.mark.parametrize("k", [K_MAX + 1, 10**5])
def test_weight_ceiling(k):
    five2, five4 = DirichletChar(5, 2), DirichletChar(5, 4)
    for call in (lambda: bernoulli(k), lambda: generalized_bernoulli(k, five2),
                 lambda: l_value_at_negative(k, five2),
                 lambda: EisensteinParams(5, 2, k, TRIV, five4)):
        with pytest.raises(WeightTooLarge, match=rf"k = {k} .*K_MAX = {K_MAX}"):
            call()


def test_order_ceiling():
    # 5003.2 has order 5002; 101.2 and 103.5 have orders 100 and 102, each
    # below the ceiling, but their values generate Q(zeta_5100)
    big, a, b = DirichletChar(5003, 2), DirichletChar(101, 2), DirichletChar(103, 5)
    assert (big.order, a.order, b.order) == (5002, 100, 102) and ORDER_MAX < 5002
    for order, call in ((5002, lambda: generalized_bernoulli(12, big)),
                        (5002, lambda: l_value_at_negative(12, big)),
                        (5002, lambda: EisensteinParams(5003, 2, 7, TRIV, big)),
                        (5100, lambda: EisensteinParams(101 * 103, 2, 6, a, b))):
        with pytest.raises(OrderTooLarge, match=rf"order {order} .*ORDER_MAX = {ORDER_MAX}"):
            call()
