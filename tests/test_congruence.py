import json
from math import gcd, lcm
from pathlib import Path

import pytest
from sympy import factorint

from eiscong import congruence, eisenstein
from eiscong.characters import DirichletChar, enumerate_pairs, parity_matches
from eiscong.cli import run
from eiscong.congruence import (bk_report, check_conditions, check_conditions_above,
                                diamond_hypothesis,
                                search_congruence_primes, value_conductor)
from eiscong.cyclotomic import CycNum
from eiscong.eisenstein import EisensteinParams
from eiscong.lvalues import euler_factor, l_value_at_negative
from eiscong.record import replace
from eiscong.residue import FFElem, ord_exact, ord_positive, primes_above, reduce_cyc

TRIV = DirichletChar(1, 1)
P0 = EisensteinParams(1, 1, 12, TRIV, TRIV)
P51 = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
P52 = EisensteinParams(7, 2, 7, TRIV, DirichletChar(7, 3))
P53 = EisensteinParams(7, 6, 6, TRIV, DirichletChar(7, 4))


def test_search_ramanujan():
    out = search_congruence_primes(P0)
    assert [(e, lam.factor) for e, lam, _ in out] == [(691, (690, 1))]
    rep = out[0][2]
    assert rep.cond1 and rep.cond2 == {} and rep.admissible


def test_search_level10_returns_only_257():
    out = search_congruence_primes(P51)
    assert [e for e, _, _ in out] == [257]
    rep = out[0][2]
    assert rep.cond1 and rep.cond2[2]["factor_k"] and not rep.cond2[2]["factor_k2"]


def test_level10_ell_13_fails():
    lam = primes_above(13, value_conductor(P51))[0]
    rep = check_conditions(P51, 13, lam)
    assert not rep.satisfied
    assert not rep.cond1
    # 13 divides 65 = 1 + 2^6 but not 257
    assert rep.cond2[2] == {"factor_k": False, "factor_k2": True}
    # at every prime above 13 the conditions fail, the first one as above
    reports = check_conditions_above(P51, 13)
    assert [r.lambda_prime for r in reports] == primes_above(13, value_conductor(P51))
    assert reports[0].to_json() == rep.to_json()
    assert not any(r.satisfied for r in reports)


def test_level10_19_fails_condition_two():
    # 19^2 divides the L-value numerator but neither Euler factor
    lam = primes_above(19, value_conductor(P51))[0]
    rep = check_conditions(P51, 19, lam)
    assert rep.cond1 and not rep.cond2_ok and rep.admissible
    assert not rep.satisfied


def test_search_level14():
    out = search_congruence_primes(P52)
    assert len(out) == 1
    ell, lam, rep = out[0]
    assert ell == 337 and lam.m == 6 and lam.factor == (128, 1)
    assert lam.pretty() == "<337, z6 + 128>"
    # local origin: the weight-k Euler factor vanishes mod lambda'
    assert rep.cond2[2]["factor_k"]


def test_search_level42_and_ideal_identity():
    out = search_congruence_primes(P53)
    assert len(out) == 1
    ell, lam, rep = out[0]
    assert ell == 73 and lam.m == 3
    # the same prime is often written in terms of zeta_6 as <73, zeta_6 + 64>
    # since Q(zeta_3) = Q(zeta_6); zeta_6 + 64 = zeta_3 + 65 lies in lam
    gen = CycNum.zeta(6) + 64
    assert gen.try_descend(3) == CycNum.zeta(3) + 65
    assert ord_positive(CycNum.zeta(3) + 65, lam)
    # equality of ideals: same residue degree, same ell, generator contained
    lam6 = [p for p in primes_above(73, 6) if p.factor == (64, 1)][0]
    assert ord_positive(gen, lam6)
    # the Galois conjugate does not satisfy the conditions
    other = [p for p in primes_above(73, 3) if p != lam][0]
    assert not check_conditions(P53, 73, other).satisfied


def test_search_determinism_and_replay():
    a = search_congruence_primes(P53)
    b = search_congruence_primes(P53)
    assert [(e, lam) for e, lam, _ in a] == [(e, lam) for e, lam, _ in b]
    c = search_congruence_primes(P53, ell_max=10**6)
    assert [(e, lam) for e, lam, _ in c] == [(e, lam) for e, lam, _ in a]
    for ell, lam, rep in a:
        rep2 = check_conditions(P53, ell, lam)
        assert rep2.to_json() == rep.to_json()


def test_search_evaluates_condition_one_once(monkeypatch):
    calls = []
    real = eisenstein.l_value_at_negative
    monkeypatch.setattr(eisenstein, "l_value_at_negative",
                        lambda *a: calls.append(a) or real(*a))
    for params in (P0, P51, P53):
        calls.clear()
        # a fresh copy, so that a quantity cached by an earlier test is not read
        search_congruence_primes(replace(params))
        assert len(calls) == 1


def test_search_and_check_report_through_check_conditions(capsys, monkeypatch):
    # a wrapper on the module attribute, as perfbench's tracer sets one, sees
    # every report that the search returns and that check prints
    made = []
    real = congruence.check_conditions
    monkeypatch.setattr(congruence, "check_conditions",
                        lambda *a: made.append(real(*a)) or made[-1])
    out = search_congruence_primes(P51)
    assert out and all(any(rep is m for m in made) for _, _, rep in out)
    made.clear()
    assert run(["--json", "check", "--M", "2", "--k", "7",
                "--psi", "1.1", "--phi", "7.3", "--ell", "337"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert len(printed) == 2
    assert printed == json.loads(json.dumps([rep.to_json() for rep in made]))


def test_condition_one_quantity_value():
    assert P51.cond1_quantity.rational_value().numerator % 257 == 0


def test_condition_one_quantity_lives_in_the_value_field_at_m1():
    # for M = 1 the quantity is L(1 - k, psi^-1 phi), of conductor
    # ord(psi^-1 phi) = lcm(ord psi, ord phi) since u and v are coprime, so
    # there is no smaller field Q(zeta_o), o < m, to take its norm in
    entries = [e for e in json.loads(SEARCH_GRID.read_text()) if e["M"] == 1]
    assert len(entries) == 25
    for e in entries:
        params = _params(e["psi"], e["phi"], 1, e["k"])
        assert params.cond1_quantity.conductor == value_conductor(params), e


def test_check_conditions_wrong_ell_rejected():
    lam = primes_above(257, 1)[0]
    params = replace(P51)
    with pytest.raises(ValueError):
        check_conditions(params, 13, lam)
    assert "cond1_quantity" not in vars(params)  # refused before the L-value


def test_m1_reduces_to_lvalue_divisibility():
    lam = primes_above(691, 1)[0]
    rep = check_conditions(P0, 691, lam)
    assert rep.cond1 and rep.cond2 == {} and rep.cond2_ok


def test_bk_report_level10():
    lam = primes_above(257, value_conductor(P51))[0]
    rep = bk_report(P51, lam, 1)
    assert rep.order_k == 1          # 257 || 257/256
    assert rep.order_k2 == 0         # 65/64 is a 257-unit
    assert rep.p_new_primes == (2,)  # S = {2}
    j = rep.to_json()
    assert j["order_k"] == 1 and j["p_new_primes"] == [2]


def test_bk_report_m1_trivial():
    lam = primes_above(691, 1)[0]
    rep = bk_report(P0, lam, 1)
    assert rep.order_k == 0 and rep.order_k2 == 0 and rep.p_new_primes == ()


def test_bk_report_level42():
    out = search_congruence_primes(P53)
    _, lam, _ = out[0]
    rep = bk_report(P53, lam, 1)
    # cond2 at 73 holds through the k-factor at p = 3 only
    crep = check_conditions(P53, 73, lam)
    expected_s = tuple(p for p in (2, 3) if crep.cond2[p]["factor_k"])
    assert rep.p_new_primes == expected_s
    assert rep.order_k >= 1


def test_diamond_hypothesis_branches():
    # symbolic check in the residue field: a_p = psi(p)(1 + p^-1) when
    # psi(p) = phi(p) p^k, and a_p = psi(p)(1 + p) when psi(p) = phi(p) p^(k-2)
    params = P51
    p = 2
    k = params.k
    lam = primes_above(257, value_conductor(params))[0]
    # at ell = 257: psi(2) = 1 = phi(2) 2^8 mod 257 (the k-branch)
    psi_p = reduce_cyc(params.psi(p), lam)
    p_inv = FFElem.from_int(257, lam.factor, p).inverse()
    one = FFElem.one(257, lam.factor)
    a_p = psi_p * (one + p_inv)
    assert diamond_hypothesis(params, a_p, lam)
    # at ell = 13: psi(2) = phi(2) 2^6 mod 13 (the k-2 branch)
    lam13 = primes_above(13, value_conductor(params))[0]
    a_p = reduce_cyc(params.psi(p), lam13) * FFElem.from_int(13, lam13.factor, 1 + p)
    assert diamond_hypothesis(params, a_p, lam13)
    # generic wrong value fails
    bad = FFElem.from_int(257, lam.factor, 5)
    assert not diamond_hypothesis(params, bad, lam)
    # 11 is inert in Q(zeta_6), so lambda' has degree 2: the Frobenius
    # conjugate of a square root of the right side squares to its conjugate
    # and matches only at the twist pairs (0, 1) and (1, 0)
    lam11 = primes_above(11, value_conductor(P52))[0]
    assert lam11.residue_degree == 2
    rhs = reduce_cyc(P52.chi(2) * (2**5 * 3**2), lam11)
    root = FFElem.make(11, lam11.factor, [1, 5])
    assert root * root == rhs
    a_p = root**11
    assert a_p * a_p != rhs
    assert diamond_hypothesis(P52, a_p, lam11)


def test_diamond_requires_prime_m():
    lam = primes_above(73, 3)[0]
    with pytest.raises(ValueError):
        diamond_hypothesis(P53, FFElem.from_int(73, lam.factor, 1), lam)


def test_diamond_refuses_a_p_of_another_characteristic():
    # an F_13 value against lambda' above 257 is a caller's error, not a
    # failed hypothesis
    lam = primes_above(257, value_conductor(P51))[0]
    with pytest.raises(ValueError, match="characteristic 13"):
        diamond_hypothesis(P51, FFElem.from_int(13, (0, 1), 3), lam)


SEARCH_GRID = Path(__file__).resolve().parent / "data" / "search_grid.json"


def _params(psi: str, phi: str, m: int, k: int) -> EisensteinParams:
    a, b = DirichletChar.from_label(psi), DirichletChar.from_label(phi)
    return EisensteinParams(a.conductor * b.conductor, m, k, a, b)


def search_grid_json(entries) -> str:
    """The search grid's golden text: per (psi, phi, M, k), every report."""
    out = []
    for e in entries:
        triples = search_congruence_primes(_params(e["psi"], e["phi"], e["M"], e["k"]))
        out.append({"psi": e["psi"], "phi": e["phi"], "M": e["M"], "k": e["k"],
                    "reports": [rep.to_json() for _, _, rep in triples]})
    return json.dumps(out, indent=1) + "\n"


def test_search_grid_golden():
    # 60 parameter sets (psi trivial and not, phi of conductor up to 29,
    # M in {1, 2, 6}, k in 6..12), recorded from the sources that factored
    # the whole Condition-(1) norm
    golden = SEARCH_GRID.read_text()
    entries = json.loads(golden)
    assert len(entries) == 60
    assert search_grid_json(entries) == golden


def test_search_ell_max_filters_the_full_search():
    # the M = 1 and M > 1 rules with ell_max on both sides of 2^15, where
    # the bounded search stops factoring and trial-divides alone
    entries = json.loads(SEARCH_GRID.read_text())
    assert {e["M"] for e in entries} >= {1, 2, 6}
    for bound in (40, 700, 2**15, 10**9):
        for e in entries:
            got = search_congruence_primes(_params(e["psi"], e["phi"], e["M"], e["k"]),
                                           ell_max=bound)
            assert [rep.to_json() for _, _, rep in got] == \
                [rep for rep in e["reports"] if rep["ell"] <= bound], (e, bound)


def _search_by_full_factoring(params: EisensteinParams) -> list:
    """The search as it was before Condition (2) picked the candidates:
    every prime of the whole Condition-(1) norm numerator and of each
    N(E'_p), every lambda' above them checked, the satisfied ones kept."""
    q = l_value_at_negative(params.k, params.psi.inverse() * params.phi)
    for p in params.m_primes:
        q = q * euler_factor(params, p)
    candidates = set(factorint(abs(q.norm().numerator)))
    for p in params.m_primes:
        candidates |= set(factorint(abs(euler_factor(params, p, 2).norm().numerator)))
    out = []
    for ell in sorted(candidates):
        if ell <= params.k + 1 or (params.N * params.M) % ell == 0:
            continue
        for lam in primes_above(ell, value_conductor(params)):
            cond2 = {p: {"factor_k": ord_positive(euler_factor(params, p, 0), lam),
                         "factor_k2": ord_positive(euler_factor(params, p, 2), lam)}
                     for p in params.m_primes}
            if ord_positive(q, lam) and all(v["factor_k"] or v["factor_k2"]
                                            for v in cond2.values()):
                out.append((ell, lam.factor, cond2))
    return sorted(out, key=lambda t: t[:2])


def _orbit_representatives(n: int) -> list:
    """One (psi, phi) of conductor product n per Galois orbit (psi^s, phi^s)."""
    reps = {}
    for psi, phi in enumerate_pairs(n):
        o = lcm(psi.order, phi.order)
        key = min((psi.power(s).label, phi.power(s).label)
                  for s in range(1, o + 1) if gcd(s, o) == 1)
        reps.setdefault(key, (psi, phi))
    return list(reps.values())


def test_search_matches_full_factoring():
    # M with one prime and with two, N <= 13 and k <= 9, one character pair
    # per Galois orbit: 420 parameter sets whose whole Condition-(1)
    # norm sympy factors at once
    seen_k2_only = seen_two_primes = 0
    for m in (2, 3, 5, 6, 10, 15):
        for n in (1, 3, 5, 7, 13):
            if gcd(n, m) != 1:
                continue
            for psi, phi in _orbit_representatives(n):
                for k in range(3, 10):
                    if not parity_matches(psi, phi, k):
                        continue
                    params = EisensteinParams(n, m, k, psi, phi)
                    got = [(ell, lam.factor, rep.cond2)
                           for ell, lam, rep in search_congruence_primes(params)]
                    assert got == _search_by_full_factoring(params), params.describe()
                    seen_two_primes += len(params.m_primes) == 2 and bool(got)
                    seen_k2_only += any(v["factor_k2"] and not v["factor_k"]
                                        for _, _, cond2 in got for v in cond2.values())
    # the grid reaches satisfied triples through the weight-(k-2) factor
    # alone and at M with two primes
    assert seen_k2_only >= 10 and seen_two_primes >= 10
