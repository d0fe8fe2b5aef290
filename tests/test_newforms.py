import ast
import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from eiscong.arith import primerange
from eiscong.characters import DirichletChar
from eiscong.congruence import search_congruence_primes, value_conductor
from eiscong.eisenstein import EisensteinParams
from eiscong import newforms
from eiscong.errors import (BadFixture, BadLabel, BadPrimeForBasis, CharacterMismatch,
                            InsufficientData, NonSquarefreeReduction, NotFound)
from eiscong.newforms import (CongruenceCertificate, NewformData, load_fixture,
                              replay_certificate, residue_maps_of_kf, save_fixture,
                              sturm_bound, verify_at_ell, verify_congruence)
from eiscong.record import field_names, replace
from eiscong.residue import PrimeAbove, ff_embed, matching_prefix, primes_above, reduce_cyc
from helpers import delta_an

TRIV = DirichletChar(1, 1)
P0 = EisensteinParams(1, 1, 12, TRIV, TRIV)
P51 = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
P52 = EisensteinParams(7, 2, 7, TRIV, DirichletChar(7, 3))


def test_sturm_bound_examples():
    assert sturm_bound(12, 1) == 1
    assert sturm_bound(8, 10) == 12
    assert sturm_bound(6, 42) == 48
    assert sturm_bound(7, 14) == 14


def brute_delta(b):
    # direct expansion of q prod (1-q^n)^24 without the pentagonal shortcut
    poly = [1] + [0] * b
    for n in range(1, b + 1):
        for _ in range(24):
            new = list(poly)
            for i in range(b + 1 - n):
                new[i + n] -= poly[i]
            poly = new
    return [0] + poly[:b]


def test_delta_qexp_against_brute_force():
    got = delta_an(40)
    assert got == brute_delta(40)
    assert got[1] == 1 and got[2] == -24 and got[3] == 252


def test_delta_an_is_multiplicative_to_1000():
    # past the 220 coefficients the fixture pins: tau(mn) = tau(m) tau(n)
    # for coprime m, n and the Hecke recursion at prime powers
    b = 1000
    taus = delta_an(b)
    assert len(taus) == b + 1 and delta_an(1) == [0, 1]
    for m in range(2, b + 1):
        for n in range(m + 1, b // m + 1):
            if gcd(m, n) == 1:
                assert taus[m * n] == taus[m] * taus[n], (m, n)
    for p in primerange(2, b + 1):
        r = 1
        while p ** (r + 1) <= b:
            assert taus[p ** (r + 1)] == \
                taus[p] * taus[p**r] - p**11 * taus[p ** (r - 1)], (p, r)
            r += 1
    with pytest.raises(ValueError):
        delta_an(0)


def test_delta_ramanujan_congruence():
    taus = delta_an(200)
    for n in range(1, 201):
        sigma11 = sum(d**11 for d in range(1, n + 1) if n % d == 0)
        assert (taus[n] - sigma11) % 691 == 0


def test_fixture_delta_matches_oracle():
    nf = load_fixture("1.12.a.a")
    taus = delta_an(min(nf.b_data, 150))
    for n in range(1, min(nf.b_data, 150) + 1):
        assert nf.a_vector(n) == (taus[n],)


def test_load_fixture_validates():
    nf = load_fixture("10.8.b.a")
    assert nf.level == 10 and nf.weight == 8
    assert [int(c) for c in nf.field_poly] == [64, 0, -15, 0, 1]
    assert nf.character == DirichletChar(10, 9)
    nf.validate()


def test_fixture_roundtrip(tmp_path):
    nf = load_fixture("10.8.b.a")
    save_fixture(nf, tmp_path)
    again = load_fixture("10.8.b.a", tmp_path)
    assert again == nf


@pytest.mark.parametrize("label", ["../escape", "10.8.b.a/../../escape", "10.8.B.a", "10.8.b"])
def test_a_label_that_is_no_lmfdb_label_names_no_file(tmp_path, label):
    # neither read nor written: such a label could name a file outside the store
    with pytest.raises(BadLabel, match="not an LMFDB newform label"):
        save_fixture(replace(load_fixture("10.8.b.a"), label=label), tmp_path / "store")
    with pytest.raises(BadLabel):
        load_fixture(label, tmp_path / "store")
    assert list(tmp_path.iterdir()) == []


def test_missing_fixture_offline(monkeypatch, tmp_path):
    # the error says where the file may go: every directory searched, in order
    monkeypatch.setenv("EISCONG_FIXTURES", str(tmp_path / "env"))
    with pytest.raises(NotFound) as exc:
        load_fixture("999.888.z.z", tmp_path / "flag")
    message = str(exc.value)
    assert "'999.888.z.z'" in message and "999.888.z.z.json" in message
    dirs = [str(tmp_path / "flag"), str(tmp_path / "env"), str(newforms._PACKAGED_FIXTURES)]
    assert message.endswith(", ".join(dirs))


def test_no_module_imports_a_network_library():
    # newform data comes only from fixture files; the sources are read, not
    # sys.modules, since pathlib itself loads urllib.parse
    found = []
    for path in sorted(Path(newforms.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in ("urllib", "http", "socket")]
    assert found == []


def test_newform_validation_rejects_bad_a1():
    with pytest.raises(ValueError):
        NewformData(label="x", level=1, weight=12, character=TRIV,
                    field_poly=(Fraction(0), Fraction(1)),
                    basis=((Fraction(1),),),
                    an=((2,), (0,))).validate()


@pytest.mark.parametrize("poly, irreducible", [
    ((64, 0, -15, 0, 1), True),                    # 10.8.b.a
    ((1, 0, 0, 0, 1), True),                       # x^4 + 1, split mod every prime
    ((64, 0, -16, 0, 1), False),                   # (x^2 - 8)^2
    ((Fraction(-1, 4), 0, 0, 0, 1), False),        # (x^2 - 1/2)(x^2 + 1/2)
])
def test_newform_validation_checks_irreducibility(poly, irreducible):
    d = len(poly) - 1
    nf = NewformData(label="x", level=1, weight=12, character=TRIV,
                     field_poly=tuple(map(Fraction, poly)),
                     basis=tuple(tuple(Fraction(int(i == j)) for j in range(d))
                                 for i in range(d)),
                     an=((1,) + (0,) * (d - 1),))
    if irreducible:
        nf.validate()
    else:
        with pytest.raises(ValueError, match="reducible"):
            nf.validate()


def test_residue_maps_delta():
    nf = load_fixture("1.12.a.a")
    maps = residue_maps_of_kf(nf, 691)
    assert len(maps) == 1 and maps[0].degree == 1
    assert maps[0].reduce_vector(nf.a_vector(2)).coeffs == ((-24) % 691,)


def test_residue_maps_quartic():
    nf = load_fixture("10.8.b.a")
    maps = residue_maps_of_kf(nf, 257)
    assert sum(m.degree for m in maps) == 4
    # squarefree mod 2 fails (or basis denominators), depending on the data
    with pytest.raises((BadPrimeForBasis, NonSquarefreeReduction)):
        # x^4 - 15x^2 + 64 = (x^2+x)^2 mod 2 -> never squarefree
        residue_maps_of_kf(nf, 2)


def test_verify_congruence_delta():
    nf = load_fixture("1.12.a.a")
    lam = primes_above(691, 1)[0]
    cert = verify_congruence(nf, P0, lam, bound=200)
    assert cert.passed and cert.bound == 200
    assert len(cert.checked_primes) == 46  # primes up to 200


def test_include_ell_flag_controls_checked_set():
    nf = load_fixture("1.12.a.a")
    lam = primes_above(5, 1)[0]  # not a congruence prime; set structure only
    cert = verify_congruence(nf, P0, lam, bound=20)
    assert 5 in cert.checked_primes
    cert2 = verify_congruence(nf, P0, lam, bound=20, include_ell=False)
    assert 5 not in cert2.checked_primes and 3 in cert2.checked_primes


def test_verify_congruence_example51_and_replay():
    nf = load_fixture("10.8.b.a")
    lam = primes_above(257, value_conductor(P51))[0]
    cert = verify_congruence(nf, P51, lam, bound=100)
    assert cert.passed
    assert replay_certificate(cert, nf)
    # json roundtrip of the certificate
    obj = cert.to_json()
    assert obj["ell"] == 257 and obj["passed"] is True
    assert obj["bound"] == 100


def test_replay_rejects_a_factor_not_dividing_the_field_poly():
    nf = load_fixture("10.8.b.a")
    lam = primes_above(257, value_conductor(P51))[0]
    cert = verify_congruence(nf, P51, lam, bound=20)
    assert cert.passed and replay_certificate(cert, nf)
    assert (3, 1) not in [m.factor for m in residue_maps_of_kf(nf, 257)]
    assert not replay_certificate(replace(cert, field_poly_factor=(3, 1)), nf)


def test_replay_refuses_an_inconsistent_certificate():
    # an honest failure at 13 replays; no edit of it that claims a pass,
    # changes the prime list or names another form, another ell or a
    # degree other than lcm(d, e) = 2 does
    nf = load_fixture("10.8.b.a")
    lam = primes_above(13, value_conductor(P51))[0]
    cert = verify_congruence(nf, P51, lam, bound=20)
    qs = cert.checked_primes
    assert not cert.passed and cert.first_failing_q == 3 == qs[0]
    assert cert.embedding_degree == 2 and replay_certificate(cert, nf)
    claimed_pass = replace(cert, passed=True, first_failing_q=None)
    for forged in (claimed_pass,
                   replace(claimed_pass, checked_primes=()),  # cut before q = 3
                   replace(claimed_pass, checked_primes=qs[1:]),
                   replace(cert, checked_primes=qs[:-1]),
                   replace(cert, label="1.12.a.a"),
                   replace(cert, embedding_degree=4),
                   replace(cert, lambda_prime=primes_above(257, value_conductor(P51))[0])):
        assert replay_certificate(forged, nf) is False, forged


def test_verify_at_ell_prefers_a_passing_prime():
    # example 5.3 passes at the second prime above 73 only; at 13 no prime
    # passes and the first prime's certificate is returned
    p53 = EisensteinParams(7, 6, 6, TRIV, DirichletChar(7, 4))
    nf = load_fixture("42.6.e.c")
    first, second = primes_above(73, value_conductor(p53))
    assert not verify_congruence(nf, p53, first).passed
    assert verify_at_ell(nf, p53, 73) == verify_congruence(nf, p53, second)
    lams = primes_above(13, value_conductor(p53))
    assert len(lams) == 2
    cert = verify_at_ell(nf, p53, 13, bound=20)
    assert not cert.passed
    assert cert == verify_congruence(nf, p53, lams[0], bound=20)


def test_verify_refuses_wrong_character():
    nf = load_fixture("10.8.b.a")
    wrong = NewformData(label=nf.label, level=nf.level, weight=nf.weight,
                        character=DirichletChar(10, 1), field_poly=nf.field_poly,
                        basis=nf.basis, an=nf.an)
    lam = primes_above(257, value_conductor(P51))[0]
    with pytest.raises(CharacterMismatch):
        verify_congruence(wrong, P51, lam)


def test_verify_insufficient_bound():
    nf = load_fixture("10.8.b.a")
    lam = primes_above(257, value_conductor(P51))[0]
    with pytest.raises(InsufficientData):
        verify_congruence(nf, P51, lam, bound=nf.b_data + 1)


def test_verify_refuses_a_bound_with_no_prime_to_check():
    # Sturm(12, 1) = 1 leaves no prime q, so an empty check would pass mod
    # 13, where tau(2) - 2049 = -3 * 691 is not 0; replay of such a
    # certificate refuses the same way
    nf = load_fixture("1.12.a.a")
    lam13 = primes_above(13, 1)[0]
    for call in (lambda: verify_congruence(nf, P0, lam13),
                 lambda: verify_at_ell(nf, P0, 13),
                 lambda: verify_congruence(nf, P0, lam13, bound=0)):
        with pytest.raises(InsufficientData, match="leaves no prime q to check"):
            call()
    cert = verify_congruence(nf, P0, lam13, bound=20)
    assert not cert.passed and cert.first_failing_q == 2
    empty = replace(cert, bound=1, checked_primes=(), passed=True, first_failing_q=None)
    with pytest.raises(InsufficientData, match="bound 1 leaves no prime"):
        replay_certificate(empty, nf)
    nf10 = load_fixture("10.8.b.a")
    for bound in (0, 1, 2):
        with pytest.raises(InsufficientData, match=f"bound {bound} leaves no prime"):
            verify_at_ell(nf10, P51, 257, bound=bound)


def test_verify_at_ell_refuses_before_finding_the_primes_above_ell(monkeypatch):
    # primes_above(127, 59) takes seconds (residue degree 29); a newform of
    # another character, or too short for the bound, is refused first
    monkeypatch.setattr(newforms, "primes_above", lambda ell, m: pytest.fail("primes_above ran"))
    nf = load_fixture("10.8.b.a")
    with pytest.raises(CharacterMismatch):
        verify_at_ell(nf, EisensteinParams(709, 1, 4, TRIV, DirichletChar(709, 20)), 127)
    with pytest.raises(InsufficientData, match="fixture has 110"):
        verify_at_ell(nf, P51, 257, bound=1000)


def test_perturbed_coefficient_fails_at_three():
    nf = load_fixture("10.8.b.a")
    vecs = list(nf.an)
    bad = list(vecs[2])
    bad[0] += 1  # a_3 shifted by 1
    vecs[2] = tuple(bad)
    broken = NewformData(label=nf.label, level=nf.level, weight=nf.weight,
                         character=nf.character, field_poly=nf.field_poly,
                         basis=nf.basis, an=tuple(vecs))
    lam = primes_above(257, value_conductor(P51))[0]
    cert = verify_congruence(broken, P51, lam, bound=20)
    assert not cert.passed and cert.first_failing_q == 3
    assert replay_certificate(cert, broken)


def test_embedding_completeness_counts(monkeypatch):
    # a failing verify compares once per prime of K_f and twist of lambda':
    # at 13, K_f has two primes of degree 2 and lambda' has degree e = 1,
    # so 2 comparisons, not the 2 * 2 * 1 of twisting the K_f side too
    calls = []

    def counting(pairs, r, twist):
        calls.append((r, twist))
        return matching_prefix(pairs, r, twist)

    monkeypatch.setattr(newforms, "matching_prefix", counting)
    nf = load_fixture("10.8.b.a")
    lam = primes_above(13, value_conductor(P51))[0]
    assert [m.degree for m in residue_maps_of_kf(nf, 13)] == [2, 2]
    assert lam.residue_degree == 1
    cert = verify_congruence(nf, P51, lam, bound=20)
    assert not cert.passed  # 13 is not a congruence prime
    assert calls == [(2, 0), (2, 0)]


def exhaustive_certificate(nf, params, lam, bound):
    """verify_congruence's answer by trying every twist of both sides: the
    first passing (prime of K_f, twist_f, twist_cyc), else the first with
    the longest matching prefix."""
    qs = tuple(q for q in primerange(2, bound + 1) if nf.level % q)
    rhs = [reduce_cyc(params.psi(q) + params.phi(q) * Fraction(q) ** (params.k - 1), lam)
           for q in qs]
    best = None
    for kmap in residue_maps_of_kf(nf, lam.ell):
        r = lcm(kmap.degree, lam.residue_degree)
        lhs = [kmap.reduce_vector(nf.a_vector(q)) for q in qs]
        for jf in range(kmap.degree):
            for jc in range(lam.residue_degree):
                npass = 0
                while npass < len(qs) and \
                        ff_embed(lhs[npass], r, jf) == ff_embed(rhs[npass], r, jc):
                    npass += 1
                cert = CongruenceCertificate(
                    label=nf.label, params=params, ell=lam.ell, lambda_prime=lam,
                    field_poly_factor=kmap.factor, embedding_degree=r, twist_f=jf,
                    twist_cyc=jc, bound=bound, checked_primes=qs, include_ell=True,
                    passed=npass == len(qs),
                    first_failing_q=qs[npass] if npass < len(qs) else None)
                if cert.passed:
                    return cert
                if best is None or npass > best[0]:
                    best = (npass, cert)
    return best[1]


@pytest.mark.parametrize("label, params, ell, degree", [
    ("14.7.d.a", P52, 337, 1),   # eight primes of K_f of degree 1, one passes
    ("10.8.b.a", P51, 13, 2),    # two primes of K_f of degree 2, e = 1
    ("14.7.d.a", P52, 11, 4),    # two primes of K_f of degree 4, e = 2
], ids=["degree-1", "degree-2", "degree-4"])
def test_verify_equals_the_search_over_both_twists(label, params, ell, degree):
    # the Frobenius of the common field moves any twist of the K_f side to
    # twist 0, so untwisting it loses no certificate
    nf = load_fixture(label)
    lam = primes_above(ell, value_conductor(params))[0]
    cert = verify_congruence(nf, params, lam, bound=14)
    assert cert.embedding_degree == degree
    assert cert == exhaustive_certificate(nf, params, lam, 14)
    assert replay_certificate(cert, nf)


def test_replay_refuses_every_single_field_edit():
    # each edit leaves a certificate that verify does not write at the
    # choice it records; twist_f is never 1, and twist_cyc 1 is twist 0
    # when lambda' has degree 1
    nf = load_fixture("10.8.b.a")
    lam13, = primes_above(13, value_conductor(P51))
    lam257, = primes_above(257, value_conductor(P51))
    failed = verify_congruence(nf, P51, lam13, bound=20)
    passed = verify_congruence(nf, P51, lam257, bound=20)
    assert not failed.passed and failed.first_failing_q == 3 and 13 in failed.checked_primes
    assert passed.passed and passed.field_poly_factor == (95, 1)
    edits = [(failed, "label", "1.12.a.a"), (failed, "ell", 257),
             (failed, "lambda_prime", lam257), (passed, "field_poly_factor", (111, 1)),
             (failed, "embedding_degree", 4), (failed, "twist_f", 1),
             (failed, "twist_cyc", 1), (failed, "bound", 30),
             (failed, "checked_primes", failed.checked_primes[:-1]),
             (failed, "include_ell", False), (failed, "passed", True),
             (failed, "first_failing_q", 7)]
    for cert, name, value in edits:
        assert replay_certificate(cert, nf)
        assert replay_certificate(replace(cert, **{name: value}), nf) is False, name
    # parameters the newform does not fit are refused as verify refuses them
    with pytest.raises(ValueError, match="level/weight"):
        replay_certificate(replace(failed, params=EisensteinParams(5, 2, 6, TRIV, P51.phi)), nf)
    assert {name for _, name, _ in edits} | {"params"} == \
        set(field_names(CongruenceCertificate))


@pytest.mark.parametrize("label, params, ell, bound, factor", [
    ("10.8.b.a", P51, 257, 100, (0, 1)), ("10.8.b.a", P51, 257, 100, (5, 1)),
    ("1.12.a.a", P0, 691, 200, (0, 1))])
def test_a_lambda_prime_that_is_no_prime_above_ell_is_refused(label, params, ell, bound,
                                                               factor):
    # the edited lambda' prints as the true one: replay and verify compare
    # it with the primes above ell in the value field
    nf = load_fixture(label)
    lam, = primes_above(ell, value_conductor(params))
    cert = verify_congruence(nf, params, lam, bound=bound)
    assert cert.passed and replay_certificate(cert, nf)
    forged = PrimeAbove(lam.ell, lam.m, factor)
    assert forged != lam and forged.pretty() == lam.pretty()
    assert replay_certificate(replace(cert, lambda_prime=forged), nf) is False
    with pytest.raises(ValueError, match=r"lambda' .* is not a prime of Z\[zeta_"):
        verify_congruence(nf, params, forged, bound=bound)


def test_replay_accepts_sequences_as_lists():
    # a certificate read back from JSON holds lists where verify wrote tuples
    nf = load_fixture("10.8.b.a")
    lam, = primes_above(257, value_conductor(P51))
    cert = verify_congruence(nf, P51, lam, bound=20)
    as_lists = {f: list(getattr(cert, f)) for f in field_names(cert)
                if isinstance(getattr(cert, f), tuple)}
    assert sorted(as_lists) == ["checked_primes", "field_poly_factor"]
    assert replay_certificate(replace(cert, **as_lists), nf)


def test_fixture_of_another_label_is_refused(tmp_path):
    (tmp_path / "10.8.b.b.json").write_text(
        json.dumps(load_fixture("10.8.b.a").to_json()))
    with pytest.raises(BadFixture, match=r"'10\.8\.b\.a', not the requested '10\.8\.b\.b'"):
        load_fixture("10.8.b.b", tmp_path)
