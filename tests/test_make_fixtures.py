"""The fixture builder: eiscong.spaces and scripts/make_fixtures.py,
which runs it over the fixture table.  Both load without sympy, the
checks hold under ``python -O``, the field arithmetic agrees with sympy,
the dimension formula and fixture table match what is built, a space
derives its Hecke prime, Atkin-Lehner primes and precision and refuses
what the new-part kernel does not cover, and the script rebuilds the
packaged fixtures from scratch, Delta's against tau(n), without writing
to stdout."""

import os
import random
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from sympy import divisor_sigma, invert

from eiscong import spaces
from eiscong.characters import DirichletChar
from eiscong.cyclotomic import CycNum, cyclotomic_poly
from eiscong.eisenstein import alpha_m, eisenstein_series, hecke_tp
from eiscong.fppoly import trim
from eiscong.newforms import load_fixture
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
    # Q(zeta_6); progress goes to stderr, so that stdout stays free for a
    # caller's output
    built = builder["build_fixture"](label)
    assert built.to_json() == load_fixture(label).to_json()
    out, err = capsys.readouterr()
    assert out == "" and "newform orbits" in err


def test_built_delta_is_ramanujans_tau(builder):
    built = builder["build_fixture"]("1.12.a.a")
    taus = delta_an(220)
    assert built.b_data == 220
    assert all(built.a_vector(n) == (taus[n],) for n in range(1, 221))


@pytest.mark.parametrize("level, k, chi, b0, q, built", [
    (1, 12, "1.1", 220, 2, 220), (6, 6, "6.1", 40, 5, 40), (10, 8, "10.9", 110, 3, 110),
    (14, 7, "14.3", 60, 3, 60), (42, 6, "42.25", 60, 5, 245)])
def test_space_derives_its_hecke_prime_and_precision(level, k, chi, b0, q, built):
    # q is the least prime not dividing the level, and the space is built
    # to max(b0, q (Sturm bound + 1)): at level 42, 5 * (48 + 1)
    space = spaces.Space(level, k, DirichletChar.from_label(chi), b0)
    assert (space.q, space.b0) == (q, built)
    assert space.b0 // q >= space.sturm + 1


def test_precision_reads_each_atkin_lehner_image_to_the_sturm_bound():
    # at level 35 with chi = 5.2 lifted, q = 2 but U_7 is read: 7 (12 + 1)
    space = spaces.Space(35, 3, DirichletChar(5, 2).lift(35), 0)
    assert (space.q, space.al_primes, space.sturm) == (2, [7], 12)
    assert space.b0 == 7 * (space.sturm + 1) == 91


@pytest.mark.parametrize("level, k, named", [(12, 6, "level 12"), (11, 2, "weight 2")])
def test_space_refuses_what_the_new_part_kernel_does_not_cover(level, k, named):
    # a level that is not square-free, and k = 2, where the Eisenstein
    # U_p-eigenvalue 1 squares to chi0(p) p^0
    with pytest.raises(AssertionError, match=named):
        spaces.Space(level, k, DirichletChar(level, 1), 40)


@pytest.fixture(scope="module")
def space_10_8():
    space = spaces.Space(10, 8, DirichletChar.from_label("10.9"), 0)
    space.build_basis()
    return space


def test_matrix_refuses_an_image_that_leaves_the_span_past_the_sturm_bound(space_10_8):
    # T_q with a_(Sturm + 1) moved by 1: every coefficient that is read,
    # here to b0 // q, is checked, not only those up to the Sturm bound
    space = space_10_8
    q, n, prec = space.q, space.sturm + 1, space.b0 // space.q
    assert n <= prec

    def bumped(f):
        vec = space.flat(hecke_tp(f, q), prec)
        vec[n * space.w] += 1
        return space.unflat(vec)

    assert len(space.matrix(lambda f: hecke_tp(f, q), prec)) == space.ech.rank
    with pytest.raises(ValueError, match="not in the span"):
        space.matrix(bumped, prec)


def test_hecke_and_zeta_matrices_commute_and_phi_c_kills_zeta(space_10_8):
    space = space_10_8
    zeta = CycNum.zeta(space.c)
    tmat = space.matrix(lambda f: hecke_tp(f, space.q), space.b0 // space.q)
    zmat = space.matrix(lambda f: f.scale(zeta), space.b0)
    dim = space.ech.rank
    phi_c = cyclotomic_poly(space.c)
    assert space.c == 4 and len(phi_c) == 3
    for j in range(dim):
        e = [Fraction(int(i == j)) for i in range(dim)]
        tz = spaces.matvec(tmat, spaces.matvec(zmat, e))
        assert tz == spaces.matvec(zmat, spaces.matvec(tmat, e)), j
        acc = [Fraction(0)] * dim  # Phi_c(Z) e by Horner
        for c in reversed(phi_c):
            acc = [a + c * b for a, b in zip(spaces.matvec(zmat, acc), e)]
        assert not any(acc), j


def test_rational_reconstruct_past_float_range():
    m = 10**400 + 1
    assert spaces._rational_reconstruct(7 * pow(11, -1, m) % m, m) == Fraction(7, 11)


@pytest.mark.parametrize("level", [6, 10])
def test_e2_atoms(level):
    # the weight-2 atoms that replace E_2 are E_2(z) - t E_2(tz), of level t
    ts = [t for t in range(2, level + 1) if level % t == 0]
    atoms = spaces.weight_atoms(2, level, 40)[-len(ts):]
    for t, f in zip(ts, atoms):
        assert f.level == t and f.character == DirichletChar(t, 1)
        want = [Fraction(t - 1, 24)] + [
            int(divisor_sigma(n)) - (t * int(divisor_sigma(n // t)) if n % t == 0 else 0)
            for n in range(1, 41)]
        assert [f[n].rational_value() for n in range(41)] == want, t


def _schoolbook(f, g, b):
    out = [CycNum.zero(1)] * (b + 1)
    for i in range(b + 1):
        for j in range(b + 1 - i):
            out[i + j] = out[i + j] + f[i] * g[j]
    return out


def test_mul_series_matches_schoolbook_product():
    # atoms in Q, Q(zeta_4) and Q(zeta_6), some dilated, and products across
    # two fields: rows spread 2 phi(o) - 1 apart must not overlap
    one = DirichletChar(1, 1)
    e4 = eisenstein_series(4, one, one, 30)
    f4 = eisenstein_series(3, one, DirichletChar(5, 2), 30)
    f6 = alpha_m(eisenstein_series(3, one, DirichletChar(7, 3), 30), 2)
    g6 = eisenstein_series(3, DirichletChar(7, 3), one, 30)
    assert (e4.field, f4.field, f6.field) == (1, 4, 6)
    for f, g in [(e4, e4), (f4, f4), (f6, g6), (e4, f6), (f4, f6), (f4, g6)]:
        h = spaces.mul_series(f, g, 30)
        assert h.precision == 30 and h.den == f.den * g.den
        assert [h[n] for n in range(31)] == _schoolbook(f, g, 30)


@pytest.mark.parametrize("level, k, chi, dim", [
    (5, 8, "5.4", 2), (10, 8, "10.9", 8), (7, 7, "7.3", 3), (14, 7, "14.3", 10),
    (7, 6, "7.4", 2), (14, 6, "14.11", 8), (21, 6, "21.4", 11), (42, 6, "42.25", 36)])
def test_cohen_oesterle_dim_cusp_at_the_built_spaces(level, k, chi, dim):
    # each value but that of M_6(7, chi) passed the span-rank check of a
    # full build; no build spans M_6(7, chi) any more, and its value enters
    # the build only through the newform-dimension guard at level 42
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
    # newforms, which come out over Q(zeta_4), each packet verified
    space = spaces.Space(30, 4, DirichletChar(30, 1), 40)
    packets = spaces.extract_newforms(space)
    assert sum(p.kf.deg for p in packets) == space.w * spaces.newform_dimension(4, space.chi) == 4
    assert sorted([p.a_n(n)[0] for n in (2, 3, 5)] for p in packets) == [[-2, 3, 5], [2, 3, -5]]
    for p in packets:
        spaces.verify_packet(p)


@pytest.mark.parametrize("level, k, chi, packets", [(7, 4, "7.2", 1), (5, 6, "5.4", 1),
                                                    (5, 3, "5.2", 0)])
def test_eisenstein_factors_leave_where_no_atkin_lehner_prime_exists(level, k, chi, packets):
    # level = cond(chi), so the kernel keeps the Eisenstein series, and the
    # factors of m_all that vanish at an atom's eigenvalue of C are dropped;
    # at (5, 3, 5.2), S_3 = 0 and the atoms alone fill the basis
    space = spaces.Space(level, k, DirichletChar.from_label(chi), 0)
    assert space.al_primes == []
    found = spaces.extract_newforms(space)
    assert space.eis_rank == space.w * space.dim_eis > 0
    assert len(found) == packets
    assert sum(p.kf.deg for p in found) == space.w * spaces.newform_dimension(k, space.chi)
    for p in found:
        spaces.verify_packet(p)


def test_weight_3_with_cusp_forms_is_refused_before_the_span():
    # no two weights >= 2 sum to 3, so S_3 would need the weight-1 atoms
    space = spaces.Space(7, 3, DirichletChar.from_label("7.6"), 0)
    assert space.pairs == [] and space.dim_cusp > 0
    with pytest.raises(AssertionError, match="weight 3: .*weight-1 atoms"):
        space.build_basis()


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
