import json
from dataclasses import replace
from fractions import Fraction

import pytest

from eiscong.characters import DirichletChar
from eiscong.congruence import search_congruence_primes, value_conductor
from eiscong.eisenstein import EisensteinParams
from eiscong.errors import (BadPrimeForBasis, CharacterMismatch, InsufficientData,
                            NonSquarefreeReduction, NotFound)
from eiscong.newforms import (CongruenceCertificate, LmfdbClient, NewformData,
                              convert_lmfdb_records, delta_an, delta_qexp,
                              fetch_newform, load_fixture, replay_certificate,
                              residue_maps_of_kf, save_fixture, sturm_bound,
                              verify_at_ell, verify_congruence)
from eiscong.residue import primes_above

TRIV = DirichletChar(1, 1)
P0 = EisensteinParams(1, 1, 12, TRIV, TRIV)
P51 = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))


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


def test_missing_fixture_offline():
    with pytest.raises(NotFound):
        fetch_newform("999.888.z.z", offline=True)


def test_insufficient_data_offline():
    with pytest.raises(InsufficientData):
        fetch_newform("10.8.b.a", min_coeffs=10**6, offline=True)


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


def test_embedding_completeness_counts():
    # the failing path enumerates every (factor, twist) pair: degree * e each
    nf = load_fixture("10.8.b.a")
    lam = primes_above(13, value_conductor(P51))[0]
    cert = verify_congruence(nf, P51, lam, bound=20)
    assert not cert.passed  # 13 is not a congruence prime


# -- LMFDB client against canned responses ------------------------------


class FakeResponse:
    def __init__(self, payload):
        self.status_code = 200
        self._payload = payload

    def json(self):
        return self._payload


def canned_api(url, params=None, timeout=None):
    delta_an40 = delta_an(40)
    if "mf_newforms" in url:
        return FakeResponse({"data": [{
            "label": "1.12.a.a", "level": 1, "weight": 12,
            "conrey_indexes": [1], "field_poly": [0, 1],
        }]})
    if "mf_hecke_nf" in url:
        return FakeResponse({"data": [{
            "field_poly": [0, 1],
            "hecke_ring_power_basis": True,
            "an": [[delta_an40[n]] for n in range(1, 41)],
        }]})
    raise AssertionError(f"unexpected url {url}")


def test_lmfdb_client_conversion(monkeypatch, tmp_path):
    import types

    import requests
    from eiscong import newforms as nfmod
    monkeypatch.setattr(requests, "get", canned_api)
    # a fake clock: sleeping advances it, and the waits are recorded
    clock, waits = [1000.0], []

    def sleep(s):
        waits.append(s)
        clock[0] += s
    monkeypatch.setattr(nfmod, "time", types.SimpleNamespace(monotonic=lambda: clock[0],
                                                             sleep=sleep))
    # the last-request instant is per process; start this test from none
    monkeypatch.setattr(LmfdbClient, "_last_request", 0.0, raising=False)
    client = LmfdbClient(endpoint="https://example.test/api")
    nf = client.fetch("1.12.a.a")
    assert nf.label == "1.12.a.a" and nf.b_data == 40
    assert nf.a_vector(2) == (-24,)
    # two requests: no wait before the first, about 1 s before the second
    assert waits == [pytest.approx(1.0, abs=0.05)]
    # fetch_newform caches into the fixture directory once the store misses
    monkeypatch.setattr(nfmod, "_PACKAGED_FIXTURES", tmp_path / "none")
    monkeypatch.delenv("EISCONG_FIXTURES", raising=False)
    got = fetch_newform("1.12.a.a", min_coeffs=30, fixture_dir=tmp_path / "empty",
                        endpoint="https://example.test/api",
                        cache_dir=tmp_path / "cache")
    assert got.b_data == 40
    assert (tmp_path / "cache" / "1.12.a.a.json").is_file()
    # two fetches in a row, each with a new client, still send one request
    # per second: the second fetch's first request waits about 1 s
    for i in range(2):
        waits.clear()
        fetch_newform("1.12.a.a", min_coeffs=30, fixture_dir=tmp_path / "empty",
                      endpoint="https://example.test/api", cache_dir=tmp_path / f"cache{i}")
        assert waits == [pytest.approx(1.0, abs=0.05)] * 2, i


def test_convert_lmfdb_records_with_basis_matrix():
    form = {"label": "5.8.b.a", "level": 5, "weight": 8, "conrey_indexes": [4],
            "field_poly": [116, 0, 1]}
    hecke = {"field_poly": [116, 0, 1],
             "hecke_ring_power_basis": False,
             "hecke_ring_numerators": [[1, 0], [0, 2]],
             "hecke_ring_denominators": [1, 2],
             "an": [[1, 0], [0, 1]]}
    nf = convert_lmfdb_records(form, hecke)
    assert nf.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert nf.character == DirichletChar(5, 4)
