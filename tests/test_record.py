"""eiscong.record on the library's own classes: the frozen, field-wise
behaviour their dataclass decorators used to give."""

import subprocess
import sys
from pathlib import Path

import pytest

from eiscong.characters import DirichletChar
from eiscong.congruence import BKReport, check_conditions, value_conductor
from eiscong.eisenstein import CuspMatrix, DeltaChoice, EisensteinParams, e_delta, eisenstein_qexp
from eiscong.newforms import CongruenceCertificate
from eiscong.record import field_names, replace
from eiscong.residue import FFElem, PrimeAbove, primes_above

TRIV = DirichletChar(1, 1)
P51 = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
P52 = EisensteinParams(7, 2, 7, TRIV, DirichletChar(7, 3))


def records():
    lam = primes_above(13, 6)[0]
    return [P51, lam, FFElem.make(13, (2, 0, 1), [3, 4]), eisenstein_qexp(P51, 3),
            CuspMatrix(2, 1, 1, 1), BKReport(P51, lam, 1, 0, 0)]


@pytest.mark.parametrize("obj", records(), ids=lambda obj: type(obj).__name__)
def test_fields_refuse_assignment_and_deletion(obj):
    name = field_names(obj)[0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before


def test_equal_fields_give_equal_objects_and_hashes():
    again = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
    assert again is not P51 and again == P51 and hash(again) == hash(P51)
    assert {P51: 1}[again] == 1
    assert P51 != replace(P51, M=3) and P51 != P52
    # a delta-choice made for an equal parameter set is accepted as its own
    delta = DeltaChoice.constant(again, "psi")
    assert e_delta(P51, delta, 4).to_json() == e_delta(again, delta, 4).to_json()
    with pytest.raises(ValueError, match="other parameters"):
        e_delta(replace(P51, M=3), delta, 4)
    lam, = primes_above(257, 2)
    same = PrimeAbove(257, 2, (1, 1))
    assert lam == same and hash(lam) == hash(same) and lam != PrimeAbove(257, 4, (1, 1))
    x, y = FFElem.make(13, (2, 0, 1), [3, 17]), FFElem(13, (2, 0, 1), (3, 4))
    assert x == y and hash(x) == hash(y) and len({x, y, x + y}) == 2
    # another class, even with the same field values, is never equal
    assert P51 != (5, 2, 8, TRIV, P51.phi) and P51.__eq__(object()) is NotImplemented
    assert PrimeAbove(13, 1, (1,)) != FFElem(13, 1, (1,))


def test_qexpansion_compares_by_identity():
    f = eisenstein_qexp(P51, 4)
    g = replace(f)
    assert g.to_json() == f.to_json()
    assert f == f and f != g and len({f, g}) == 2
    assert hash(f) == object.__hash__(f)


def test_replace_validates_again():
    with pytest.raises(ValueError, match="weight k must exceed 2"):
        replace(P51, k=2)
    with pytest.raises(TypeError):
        replace(P51, level=10)


@pytest.mark.parametrize("obj", records(), ids=lambda obj: type(obj).__name__)
def test_replace_refuses_an_unknown_field(obj):
    name = field_names(obj)[0]
    with pytest.raises(TypeError, match="no field not_a_field"):
        replace(obj, not_a_field=1)
    # also beside a real field, which alone would build a new record
    with pytest.raises(TypeError, match="no field x"):
        replace(obj, **{name: getattr(obj, name), "x": 1})


def test_replace_carries_no_cached_property():
    f = eisenstein_qexp(P51, 4)
    assert len(f.coeffs) == 5
    short = f.truncate(2)
    assert short.coeffs == f.coeffs[:3]
    assert replace(f, rows=f.rows[:2], tags=f.tags[:2]).coeffs == f.coeffs[:2]
    assert f.scale(2).coeffs == tuple(c * 2 for c in f.coeffs)
    params = EisensteinParams(5, 2, 8, TRIV, DirichletChar(5, 4))
    before = params.cusp_constant
    assert params.chi_tilde.modulus == 10
    other = replace(params, k=6)
    assert other.cusp_constant == EisensteinParams(5, 2, 6, TRIV, P51.phi).cusp_constant
    assert other.cusp_constant != before
    assert replace(params, M=3).chi_tilde.modulus == 15


def test_defaults_and_keyword_binding():
    lam, = primes_above(257, 2)
    rep = BKReport(P51, lam, 1, 0, 0)
    assert rep.p_new_primes == ()
    assert BKReport(p_new_primes=(2,), order_k2=0, order_k=1, d=1, lambda_prime=lam,
                    params=P51) == BKReport(P51, lam, 1, 1, 0, (2,))
    cert = CongruenceCertificate("10.8.b.a", P51, 257, lam, (1, 1), 1, 1, 2, 12, (3, 7),
                                 include_ell=False, passed=True)
    assert cert.first_failing_q is None
    assert field_names(cert)[-1] == "first_failing_q"
    # a missing, unknown, repeated or surplus argument
    for args, kwargs in [((P51, lam, 1, 0), {}), ((P51, lam, 1, 0), {"order_k": 0}),
                         ((P51, lam, 1, 0, 0), {"colour": "red"}),
                         ((P51, lam, 1, 0, 0), {"d": 1}), ((P51, lam, 1, 0, 0, (), ()), {})]:
        with pytest.raises(TypeError, match=r"BKReport\(\) takes each of \('params', "):
            BKReport(*args, **kwargs)
    # __post_init__ runs on every path into __init__
    with pytest.raises(ValueError, match="determinant"):
        CuspMatrix(a=2, beta=1, b=1, d=2)


def test_repr_prints_as_the_dataclasses_did():
    # strings recorded from the dataclass versions of these classes
    params = "EisensteinParams(N=7, M=2, k=7, psi=chi(1.1), phi=chi(7.3))"
    assert repr(P52) == params
    lams = primes_above(13, value_conductor(P52))
    assert repr(lams) == "[<13, z6 + 3>, <13, z6 + 9>]"
    assert repr(primes_above(13, 5)) == "[<13>]"
    assert repr(check_conditions(P52, 13, lams[0])) == (
        f"ConditionsReport(params={params}, ell=13, lambda_prime=<13, z6 + 3>, cond1=False, "
        "cond2={2: {'factor_k': False, 'factor_k2': False}}, admissible=True)")
    assert repr(BKReport(P52, lams[0], 1, 0, 0)) == (
        f"BKReport(params={params}, lambda_prime=<13, z6 + 3>, d=1, order_k=0, order_k2=0, "
        "p_new_primes=())")
    assert repr(CuspMatrix(2, 1, 1, 1)) == "[2 1; 1 1]"


def test_library_does_not_import_code_generation():
    # a cold CLI loads no dataclasses, and with it none of the source and
    # bytecode inspection modules dataclasses pulls in, nor the space
    # builder, which only scripts/make_fixtures.py calls
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "eiscong.spaces"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eiscong, eiscong.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
