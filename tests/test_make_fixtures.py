"""The fixture builder: eiscong.spaces and scripts/make_fixtures.py,
which runs it over the fixture table.  Both load without sympy, the
checks hold under ``python -O``, the field arithmetic agrees with sympy,
P^1(Z/N) and the Manin-symbol quotient have the sizes the dimension
formulas give, the Hecke and zeta matrices commute, a space derives its
Hecke prime and Atkin-Lehner primes and refuses what the new-part kernel
does not cover, the Hecke primes taken in order separate its new part or
the space is refused by name, and the script rebuilds the packaged
fixtures from scratch, Delta's against tau(n), without writing to
stdout."""

import functools
import os
import random
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import invert

from eiscong import spaces
from eiscong.characters import DirichletChar, is_square_free
from eiscong.cyclotomic import cyclotomic_poly
from eiscong.fppoly import trim
from eiscong.newforms import gamma0_index, load_fixture
from helpers import delta_an, from_qq, qq

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"
FIXTURES = ROOT / "src" / "eiscong" / "fixtures"


def test_make_fixtures_loads_without_sympy():
    code = ("import sys, runpy; sys.modules['sympy'] = None; "
            "ns = runpy.run_path(sys.argv[1], run_name='make_fixtures'); "
            "print(callable(ns['main']))")
    proc = subprocess.run([sys.executable, "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_make_fixtures_checks_survive_python_O():
    # the builder's checks are code, not asserts: under -O a bad modulus
    # is still refused, and no fixture is written
    def snapshot():
        return {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in FIXTURES.iterdir()}

    code = ("import sys, runpy; runpy.run_path(sys.argv[1], run_name='make_fixtures'); "
            "from eiscong.spaces import KField; KField([2, 2])")
    before = snapshot()
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == "AssertionError: KField needs a monic modulus"
    assert proc.stdout == ""
    assert snapshot() == before


@pytest.fixture(scope="module")
def builder():
    return runpy.run_path(str(SCRIPT), run_name="make_fixtures")


@pytest.mark.parametrize("label", ["1.12.a.a", "10.8.b.a", "14.7.d.a", "42.6.e.c"])
def test_kfield_mul_and_inv_match_sympy(label):
    g = list(load_fixture(label).field_poly)
    kf = spaces.KField(g)
    rng = random.Random(label)
    for _ in range(20):
        a, b = ([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(kf.deg)]
                for _ in range(2))
        a, b = trim(a), trim(b)
        assert kf.mul(a, b) == from_qq((qq(a) * qq(b)).rem(qq(g)))
        if a:
            assert kf.inv(a) == from_qq(invert(qq(a), qq(g)))
            assert kf.mul(a, kf.inv(a)) == [1]


@pytest.mark.parametrize("label", ["1.12.a.a", "10.8.b.a", "14.7.d.a"])
def test_rebuilds_a_packaged_fixture(builder, capsys, label):
    # one path for every label: Delta rebased onto x, 10.8.b.a with its
    # 2-old forms outside the kernel of U_2^2 - chi0(2) 2^6 and rebased onto
    # x^4 - 15x^2 + 64, and 14.7.d.a, whose space is flattened over
    # Q(zeta_6)
    # progress goes to stderr, so that stdout stays free for a caller's
    # output; the space's least Hecke prime alone separates its new part
    built = builder["build_fixture"](label)
    assert built.to_json() == load_fixture(label).to_json()
    out, err = capsys.readouterr()
    assert out == "" and "newform orbits" in err
    assert re.search(r"C = zeta \+ T_\d+ separates the new part", err)


def test_built_delta_is_ramanujans_tau(builder):
    built = builder["build_fixture"]("1.12.a.a")
    taus = delta_an(220)
    assert built.b_data == 220
    assert all(built.a_vector(n) == (taus[n],) for n in range(1, 221))


@functools.cache
def _space(level, k, chi, b0):
    return spaces.Space(level, k, DirichletChar.from_label(chi), b0)


@pytest.mark.parametrize("level, k, chi, b0, q, built", [
    (1, 12, "1.1", 220, 2, 220), (6, 6, "6.1", 40, 5, 40), (10, 8, "10.9", 110, 3, 110),
    (14, 7, "14.3", 60, 3, 60), (42, 6, "42.25", 60, 5, 60)])
def test_space_derives_its_hecke_prime_and_precision(level, k, chi, b0, q, built):
    # q is the least prime not dividing the level, and a packet carries the
    # caller's b0 coefficients: 60 at level 42, below q (Sturm bound + 1) = 245
    space = _space(level, k, chi, b0)
    assert (space.q, space.b0) == (q, built)


@pytest.mark.parametrize("level, k, chi, al_primes", [
    (1, 12, "1.1", []), (10, 8, "10.9", [2]), (42, 6, "42.25", [2, 3]), (35, 3, "35.22", [7])])
def test_atkin_lehner_primes_are_prime_to_cond_chi(level, k, chi, al_primes):
    assert _space(level, k, chi, 60).al_primes == al_primes


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 210).filter(is_square_free), st.integers(0, 10**6), st.integers(0, 10**6))
def test_p1_normalisation(level, u, v):
    # (u, v) = lam (u0, v0) mod N with lam a unit, each representative is
    # its own class with lam = 1, and there are [SL_2(Z) : Gamma_0(N)] of them
    reps, normalise = spaces.p1_classes(level)
    assert len(reps) == gamma0_index(level)
    assert all(normalise(*rep) == (cls, 1 % level) for cls, rep in enumerate(reps))
    assume(gcd(u, v, level) == 1)
    cls, lam = normalise(u, v)
    u0, v0 = reps[cls]
    assert gcd(lam, level) == 1
    assert ((u - lam * u0) % level, (v - lam * v0) % level) == (0, 0)


@pytest.mark.parametrize("level, k, chi", [(1, 12, "1.1"), (7, 3, "7.6"), (10, 8, "10.9"),
                                           (30, 4, "30.1")])
def test_manin_symbols_number_k_minus_1_per_class_of_p1(level, k, chi):
    # (k - 1) [SL_2(Z) : Gamma_0(N)] Manin symbols, with w = phi(ord chi) columns each
    space = _space(level, k, chi, 60)
    assert len(space.coords) == (k - 1) * gamma0_index(level) * space.w
    assert all(len(c) == space.dim_q for c in space.coords)


@pytest.mark.parametrize("level, k, chi, c, dims", [
    (1, 12, "1.1", 1, (1, 1, 2)), (10, 8, "10.9", 2, (8, 4, 12)),
    (14, 7, "14.3", 6, (10, 2, 24)), (42, 6, "42.25", 3, (36, 8, 88)),
    (15, 4, "15.2", 4, (4, 2, 12)), (15, 4, "15.8", 4, (4, 2, 12)),
    (21, 4, "21.5", 6, (6, 2, 16))])
def test_quotient_dimension_at_the_fixture_spaces(level, k, chi, c, dims):
    # sign +1 keeps S_k once and each E_k(psi, phi)(tz) with psi(-1) = +1:
    # at odd k one of each pair, 2 of the 4 at 14.7.d.a's space, and at even
    # k those with psi and phi even, 2 of the 4 at levels 15 and 21, where
    # E_4(chi_3, chi_5) and E_4(chi_5, chi_3) have both odd.  The elimination
    # over Q(zeta_c), c = ord chi, leaves w = phi(c) times their sum
    space = _space(level, k, chi, 60)
    assert space.c == c
    assert (space.dim_cusp, space.dim_eis, space.dim_q) == dims
    assert space.dim_q == space.w * (space.dim_cusp + space.dim_eis)


def test_space_refuses_a_b0_below_the_primes_its_checks_read():
    # a packet's checks read a_q and each Atkin-Lehner a_p: at level 6, q = 5
    with pytest.raises(AssertionError, match="b0 = 4: "):
        spaces.Space(6, 6, DirichletChar(6, 1), 4)
    assert spaces.Space(6, 6, DirichletChar(6, 1), 5).b0 == 5


@pytest.mark.parametrize("level, k, named", [(12, 6, "level 12"), (11, 2, "weight 2")])
def test_space_refuses_what_the_new_part_kernel_does_not_cover(level, k, named):
    # a level that is not square-free, and k = 2, where the Eisenstein
    # U_p-eigenvalue 1 squares to chi0(p) p^0
    with pytest.raises(AssertionError, match=named):
        spaces.Space(level, k, DirichletChar(level, 1), 40)


def test_hecke_and_zeta_matrices_commute_and_phi_c_kills_zeta():
    # on 14.7.d.a's space over Q(zeta_6): T_3, U_2 (its Heilbronn sum less
    # the terms not prime to the level) and zeta_6 commute, and Phi_6(Z) = 0
    space = _space(14, 7, "14.3", 60)
    mats = [space.matrix(lambda s, t: space.hecke(s, t, spaces.heilbronn(n))) for n in (3, 2)]
    mats.append(space.matrix(lambda s, t: space.hecke(s, t + 1, [(1, 0, 0, 1)])))
    dim, zmat = space.dim_q, mats[-1]
    phi_c = cyclotomic_poly(space.c)
    assert space.c == 6 and len(phi_c) == 3 and dim == 24
    for j in range(dim):
        e = [Fraction(int(i == j)) for i in range(dim)]
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            ab = spaces.matvec(mats[a], spaces.matvec(mats[b], e))
            assert ab == spaces.matvec(mats[b], spaces.matvec(mats[a], e)), (j, a, b)
        acc = [Fraction(0)] * dim  # Phi_c(Z) e by Horner
        for c in reversed(phi_c):
            acc = [a + c * b for a, b in zip(spaces.matvec(zmat, acc), e)]
        assert not any(acc), j


def test_rational_reconstruct_past_float_range():
    m = 10**400 + 1
    assert spaces._rational_reconstruct(7 * pow(11, -1, m) % m, m) == Fraction(7, 11)


@pytest.mark.parametrize("level, k, chi, dim", [
    (5, 8, "5.4", 2), (10, 8, "10.9", 8), (7, 7, "7.3", 3), (14, 7, "14.3", 10),
    (7, 6, "7.4", 2), (14, 6, "14.11", 8), (21, 6, "21.4", 11), (42, 6, "42.25", 36)])
def test_cohen_oesterle_dim_cusp_at_the_built_spaces(level, k, chi, dim):
    # each value but that of M_6(7, chi) enters a quotient-dimension check;
    # that one enters the build through the newform-dimension guard at level 42
    chi = DirichletChar.from_label(chi)
    assert chi.modulus == level
    assert spaces.cohen_oesterle_dim_cusp(k, chi) == dim


def test_fixture_table_names_the_packaged_fixtures(builder):
    labels = sorted(builder["FIXTURE_SPECS"])
    assert labels == sorted(f.stem for f in FIXTURES.iterdir())


@pytest.mark.parametrize("level, k, chi, dim", [
    (10, 8, "10.9", 4), (14, 7, "14.3", 4), (42, 6, "42.25", 6), (6, 6, "6.1", 1)])
def test_newform_dimension(level, k, chi, dim):
    # the three fixture spaces, whose builds pass the guard, and
    # S_6^new(Gamma_0(6)), spanned by 6.6.a.a
    chi = DirichletChar.from_label(chi)
    assert chi.modulus == level
    assert spaces.newform_dimension(k, chi) == dim


@pytest.mark.parametrize("level, k, chi, b0", [
    (10, 8, "10.9", 130),  # old forms from M_8(5) alone
    (6, 6, "6.1", 40),     # from M_6(3) and M_6(2)
])
def test_old_forms_leave_the_new_part(level, k, chi, b0):
    # the joint kernel of U_p^2 - chi0(p) p^(k-2) holds no old form and no
    # Eisenstein series: a new part of w times the newform dimension, which
    # the orbits then fill
    space = spaces.Space(level, k, DirichletChar.from_label(chi), b0)
    packets = spaces.extract_newforms(space)
    assert sum(p.kf.deg for p in packets) == space.w * spaces.newform_dimension(k, space.chi)
    if level == 6:  # 6.6.a.a = q + 4q^2 - 9q^3 + ...
        assert [a[0] for a in packets[0].a[:3]] == [1, 4, -9]


def test_guard_refuses_a_new_part_that_keeps_old_forms():
    # without p = 2 the kernel keeps the two 2-old forms from S_6(Gamma_0(3)),
    # a new part of 3, which is refused rather than split into orbits
    space = spaces.Space(6, 6, DirichletChar(6, 1), 40)
    space.al_primes.remove(2)
    with pytest.raises(AssertionError, match="new part 3 is not 1 times the newform dimension"):
        spaces.extract_newforms(space)


def test_level_30_separates_once_the_old_forms_are_gone():
    # M_4(Gamma_0(30)) has old forms from levels 5, 6, 10 and 15; with them
    # outside the Krylov run, the first Hecke mix separates its two rational
    # newforms, which come out over Q, each packet verified
    space = spaces.Space(30, 4, DirichletChar(30, 1), 40)
    packets = spaces.extract_newforms(space)
    assert sum(p.kf.deg for p in packets) == space.w * spaces.newform_dimension(4, space.chi) == 2
    assert sorted([p.a_n(n)[0] for n in (2, 3, 5)] for p in packets) == [[-2, 3, 5], [2, 3, -5]]
    for p in packets:
        spaces.verify_packet(p)


@pytest.mark.parametrize("level, k, chi, packets", [(7, 4, "7.2", 1), (5, 6, "5.4", 1),
                                                    (5, 3, "5.2", 0)])
def test_eisenstein_factors_leave_where_no_atkin_lehner_prime_exists(level, k, chi, packets):
    # level = cond(chi), so the kernel keeps the Eisenstein series, and the
    # factors of m_all that vanish at an Eisenstein eigenvalue of C are
    # dropped; at (5, 3, 5.2), S_3 = 0 and the Eisenstein series fill the quotient.
    # b0 = 40 gives verify_packet 40 coefficients to check
    space = spaces.Space(level, k, DirichletChar.from_label(chi), 40)
    assert space.al_primes == []
    found = spaces.extract_newforms(space)
    assert space.dim_eis > 0
    assert len(found) == packets
    assert sum(p.kf.deg for p in found) == space.w * spaces.newform_dimension(k, space.chi)
    for p in found:
        spaces.verify_packet(p)


@pytest.mark.parametrize("level, k, chi", [
    (15, 4, "15.2"), (15, 6, "15.2"), (30, 3, "30.29"), (15, 5, "15.14"), (17, 4, "17.16"),
    (17, 6, "17.16"), (19, 4, "19.7")])
def test_hecke_primes_in_order_separate_the_new_part(level, k, chi):
    # the first two spaces count 2 Eisenstein series of sign +1, not 4; in
    # the other five zeta + T_q leaves newforms with equal eigenvalues, and
    # the next prime not dividing the level separates them
    space = spaces.Space(level, k, DirichletChar.from_label(chi), 40)
    packets = spaces.extract_newforms(space)
    assert sum(p.kf.deg for p in packets) == space.w * spaces.newform_dimension(k, space.chi)
    for p in packets:
        spaces.verify_packet(p)


def test_a_new_part_left_unseparated_at_the_bound_is_refused_under_python_O():
    # at (30, 3, 30.29) the newforms come in pairs with equal a_7, so with
    # the bound cut to 7 zeta + T_7 is all C gets, and the space is named
    code = ("import sys, runpy; runpy.run_path(sys.argv[1], run_name='make_fixtures'); "
            "from eiscong import spaces; from eiscong.characters import DirichletChar; "
            "space = spaces.Space(30, 3, DirichletChar.from_label('30.29'), 40); "
            "space.hecke_bound = 7; spaces.extract_newforms(space)")
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(SCRIPT)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == (
        "AssertionError: 30.3.30.29: zeta + T_p over the p <= 7 prime to the level"
        " did not separate the new part")
    assert proc.stdout == ""


def test_weight_3_builds_the_cm_newform_7_3_b_a():
    # S_3(7, chi_7) is the CM form of Q(sqrt(-7)): 3 and 5 are inert, so
    # a_3 = a_5 = 0, and a_2 = -3
    space = spaces.Space(7, 3, DirichletChar.from_label("7.6"), 40)
    (packet,) = spaces.extract_newforms(space)
    assert [packet.a_n(n) for n in (1, 2, 3, 5)] == [[1], [-3], [], []]
    spaces.verify_packet(packet)


def test_orbit_order_needs_trace_terms_coefficients():
    # a packet with fewer than TRACE_TERMS coefficients is refused, not
    # ordered on fewer traces
    def packet(n):
        return spaces.EigenPacket(None, [0, 1], [[Fraction(1)]] * n, [Fraction(1)],
                                  DirichletChar(1, 1))

    assert len(spaces.lmfdb_orbits([packet(spaces.TRACE_TERMS)])) == 1
    with pytest.raises(AssertionError, match=f"fewer than the {spaces.TRACE_TERMS}"):
        spaces.lmfdb_orbits([packet(spaces.TRACE_TERMS - 1)])


@pytest.mark.parametrize("label", ["1.12.a.a", "10.8.b.a", "14.7.d.a", "42.6.e.c"])
def test_kfield_trace_is_the_sum_over_the_roots(label):
    # Tr_{K/Q}(a) = sum of a(r) over the complex roots r of g
    def real(c):
        return mp.mpf(c.numerator) / c.denominator

    g = list(load_fixture(label).field_poly)
    kf = spaces.KField(g)
    roots = mp.polyroots([real(c) for c in reversed(g)], maxsteps=200, extraprec=200)
    rng = random.Random(label)
    for _ in range(10):
        a = trim([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(kf.deg)])
        want = sum(mp.polyval([real(c) for c in reversed(a)], r) for r in roots) if a else 0
        assert abs(real(kf.trace(a)) - want) < mp.mpf(10) ** -30
