"""Acceptance suite: one criterion per test, each printing a PASS line with
its runtime.  Everything runs offline from the packaged fixtures; all
comparisons are exact (the stated runtime caps are the only tolerances)."""

import random
import time
from fractions import Fraction
from math import gcd

from sympy import divisors, primefactors, primerange

from eiscong.characters import DirichletChar, gauss_sum, primitive_characters
from eiscong.congruence import (bk_report, check_conditions,
                                search_congruence_primes, value_conductor)
from eiscong.cyclotomic import CycNum
from eiscong.eisenstein import (DeltaChoice, EisensteinParams, constant_term_alpha_m,
                                constant_term_e_delta, cusp_matrix_for, e_delta,
                                e_delta_via_hecke, eisenstein_qexp, hecke_tp,
                                sigma_power_div)
from eiscong.lvalues import partial_l_order_data
from eiscong.newforms import load_fixture, replay_certificate, sturm_bound, verify_congruence
from eiscong.residue import ord_exact, ord_positive, primes_above, reduce_cyc
from helpers import delta_an

TRIV = DirichletChar(1, 1)


def grid_params():
    out = []
    for k in (6, 8):
        out.append(EisensteinParams(1, 2, k, TRIV, TRIV))
        out.append(EisensteinParams(5, 2, k, TRIV, DirichletChar(5, 4)))
        out.append(EisensteinParams(7, 6, k, TRIV, DirichletChar(7, 4)))
    return out


def test_criterion_1_ramanujan():
    t0 = time.perf_counter()
    params = EisensteinParams(1, 1, 12, TRIV, TRIV)
    found = search_congruence_primes(params)
    assert [e for e, _, _ in found] == [691]
    nf = load_fixture("1.12.a.a")
    taus = delta_an(200)
    assert all(nf.a_vector(n) == (taus[n],) for n in range(1, 201))
    cert = verify_congruence(nf, params, found[0][1], bound=200)
    assert cert.passed
    assert all(q <= 200 for q in cert.checked_primes)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"\nACCEPTANCE 1 (Ramanujan 691, q <= 200): PASS in {dt:.2f}s")


def test_criterion_2_level10_mod_257():
    t0 = time.perf_counter()
    params = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
    found = search_congruence_primes(params)
    assert [e for e, _, _ in found] == [257]
    assert sturm_bound(8, 10) == 12
    nf = load_fixture("10.8.b.a")
    assert [int(c) for c in nf.field_poly] == [64, 0, -15, 0, 1]
    cert = verify_congruence(nf, params, found[0][1], bound=100)
    assert cert.passed and cert.bound >= sturm_bound(8, 10)
    assert replay_certificate(cert, nf)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"ACCEPTANCE 2 (case 5.1: level 10 mod 257, bound 100): PASS in {dt:.2f}s")


def test_criterion_3_level14_mod_337():
    t0 = time.perf_counter()
    params = EisensteinParams(7, 2, 7, TRIV, DirichletChar(7, 3))
    lams = primes_above(337, 6)
    target = [lam for lam in lams if lam.factor == (128, 1)]
    assert target, "<337, z6 + 128> must appear among primes_above(337, 6)"
    lam = target[0]
    assert ord_positive(CycNum.zeta(6) + 128, lam)
    rep = check_conditions(params, 337, lam)
    assert rep.satisfied
    nf = load_fixture("14.7.d.a")
    assert nf.dim == 8  # degree-8 coefficient field
    cert = verify_congruence(nf, params, lam)
    assert cert.passed
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"ACCEPTANCE 3 (case 5.2: level 14 mod <337, z6+128>): PASS in {dt:.2f}s")


def test_criterion_4_level42_mod_73():
    t0 = time.perf_counter()
    params = EisensteinParams(7, 6, 6, TRIV, DirichletChar(7, 4))
    found = search_congruence_primes(params)
    assert len(found) == 1
    ell, lam, rep = found[0]
    assert ell == 73
    # the target ideal in its zeta_6 form is <73, zeta_6 + 64>; under
    # Q(zeta_6) = Q(zeta_3) its generator is zeta_3 + 65, so descend first
    paper_gen = (CycNum.zeta(6) + 64).try_descend(3)
    conj_gen = (CycNum.zeta(6) + 8).try_descend(3)
    assert paper_gen == CycNum.zeta(3) + 65
    if ord_positive(paper_gen, lam):
        which = "the ideal <73, z6 + 64>"
    else:
        assert ord_positive(conj_gen, lam)
        which = "the Galois conjugate <73, z6 + 8>"
    nf = load_fixture("42.6.e.c")
    cert = verify_congruence(nf, params, lam)
    assert cert.passed
    dt = time.perf_counter() - t0
    assert dt < 20.0
    print(f"ACCEPTANCE 4 (case 5.3: level 42 mod 73): PASS in {dt:.2f}s - found {which}")


def test_criterion_5_structural_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260809)

    # (a) operator-product and alternating-sum constructions agree, all
    #     delta choices, precision 40
    for params in grid_params():
        for dc in DeltaChoice.all_choices(params):
            assert e_delta(params, dc, 40).coeffs == \
                e_delta_via_hecke(params, dc, 40).coeffs

    # (b) eigenvalue identities at all p <= 30
    for params in grid_params():
        b = 8
        for dc in DeltaChoice.all_choices(params):
            f = e_delta(params, dc, b * 29)
            for p in primerange(2, 31):
                out = hecke_tp(f, p, b)
                if p in params.m_primes:
                    lam = dc.eps(p)
                else:
                    lam = params.psi(p) + params.phi(p) * Fraction(p) ** (params.k - 1)
                assert out.coeffs == f.truncate(b).scale(lam).coeffs, (params.N, p)

    # (c) 500 randomized instances of the twisted divisor-sum identity
    cases = 0
    gp = grid_params()
    while cases < 500:
        params = rng.choice(gp)
        p = rng.choice([q for q in primerange(2, 24) if params.N % q])
        n = rng.randrange(1, 60)
        k, psi, phi = params.k, params.psi, params.phi
        lhs = sigma_power_div(n * p, k, psi, phi)
        if n % p == 0:
            lhs = lhs + params.chi(p) * Fraction(p) ** (k - 1) * \
                sigma_power_div(n // p, k, psi, phi)
        rhs = (psi(p) + phi(p) * Fraction(p) ** (k - 1)) * sigma_power_div(n, k, psi, phi)
        assert lhs == rhs
        cases += 1

    # (d) cusp constant closed form vs inclusion-exclusion, 20 random
    #     matrices per parameter set
    for params in gp:
        gammas = []
        while len(gammas) < 20:
            a = rng.randrange(-50, 51)
            b = rng.randrange(-50, 51)
            if (a, b) != (0, 0) and gcd(a, b) == 1:
                gammas.append(cusp_matrix_for(a, b))
        for dc in DeltaChoice.all_choices(params):
            for g in gammas:
                total = CycNum.zero(1)
                for m in divisors(params.M):
                    w = dc.delta_m(m) * (-1) ** len(primefactors(m))
                    total = total + w * constant_term_alpha_m(params, m, g)
                assert total == constant_term_e_delta(params, dc, g)

    # (e) Gauss-sum norm identity for every primitive character of
    #     conductor <= 40
    for v in range(1, 41):
        for phi in primitive_characters(v):
            assert gauss_sum(phi) * gauss_sum(phi.inverse()) == phi(-1) * Fraction(v)

    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"ACCEPTANCE 5 (structural identity suite): PASS in {dt:.2f}s")


def test_criterion_6_bloch_kato_bookkeeping():
    t0 = time.perf_counter()
    params = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
    lam = primes_above(257, value_conductor(params))[0]
    rep = bk_report(params, lam, 1)
    assert rep.order_k >= 1
    assert rep.p_new_primes == (2,)
    p0 = EisensteinParams(1, 1, 12, TRIV, TRIV)
    lam691 = primes_above(691, 1)[0]
    assert ord_exact(partial_l_order_data(p0), lam691) == 1
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE 6 (Bloch-Kato orders): PASS in {dt:.2f}s")


def test_criterion_7_property_suites():
    # representative runs of each module's invariant properties; the full
    # suites live in the per-module test files of this test run
    t0 = time.perf_counter()
    rng = random.Random(7)
    from helpers import random_cycnum

    # ring axioms over mixed conductors
    for _ in range(25):
        a = random_cycnum(rng, rng.choice([3, 4, 5, 6, 12]), 5)
        b = random_cycnum(rng, rng.choice([3, 4, 5, 6, 12]), 5)
        c = random_cycnum(rng, rng.choice([3, 4, 5, 6, 12]), 5)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1

    # character multiplicativity and periodicity
    for _ in range(40):
        q = rng.choice([5, 7, 12, 21, 40])
        units = [x for x in range(1, q + 1) if gcd(x, q) == 1]
        chi = DirichletChar(q, rng.choice(units))
        m, n = rng.choice(units), rng.choice(units)
        assert chi(m * n) == chi(m) * chi(n)
        assert chi(n + q) == chi(n)

    # reduction is a ring homomorphism; valuations add on products
    for _ in range(15):
        m = rng.choice([3, 6, 12])
        ell = rng.choice([7, 13, 19])
        lam = rng.choice(primes_above(ell, m))
        x = random_cycnum(rng, m, 6)
        y = random_cycnum(rng, m, 6)
        assert reduce_cyc(x * y, lam) == reduce_cyc(x, lam) * reduce_cyc(y, lam)
        assert reduce_cyc(x + y, lam) == reduce_cyc(x, lam) + reduce_cyc(y, lam)
        if x and y:
            assert ord_exact(x * y, lam) == ord_exact(x, lam) + ord_exact(y, lam)

    # certificate replay on a pass and on an engineered failure
    params = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
    nf = load_fixture("10.8.b.a")
    lam = primes_above(257, value_conductor(params))[0]
    cert = verify_congruence(nf, params, lam, bound=50)
    assert cert.passed and replay_certificate(cert, nf)
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE 7 (module property suites): PASS in {dt:.2f}s")
