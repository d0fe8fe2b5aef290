"""Newform Hecke-eigenvalue ingestion and congruence verification.

Eigenvalue data comes only from fixture files in a canonical JSON schema,
one ``<label>.json`` per LMFDB label, searched in a given directory, then
EISCONG_FIXTURES, then the packaged data; nothing is downloaded, so every
verification below runs bit-exactly from those files.

A coefficient field K_f is handled only through its residue fields: a_n
is stored as an integer vector on a lattice basis, the basis is reduced
modulo a chosen irreducible factor of the defining polynomial, and the
congruence test happens inside a common finite field together with the
cyclotomic side, by :func:`residue.matching_prefix`.  One routine builds
every certificate: verification runs it at each prime of K_f and twist
of lambda', and replay runs it again at the certificate's recorded
choice and compares the JSON, so a certificate replays only if it is
what verification records at that choice.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

from . import fppoly
from .arith import primefactors, primerange
from .characters import DirichletChar
from .congruence import value_conductor
from .eisenstein import EisensteinParams
from .errors import (BadFixture, BadLabel, BadPrimeForBasis, CharacterMismatch,
                     InsufficientData, NonSquarefreeReduction, NotFound)
from .record import Record
from .residue import FFElem, PrimeAbove, matching_prefix, primes_above, reduce_cyc

_PACKAGED_FIXTURES = Path(__file__).parent / "fixtures"
_LABEL = re.compile(r"[0-9]+\.[0-9]+\.[a-z]+\.[a-z]+")


def gamma0_index(level: int) -> int:
    """[SL_2(Z) : Gamma_0(level)] = level * prod_{p | level} (1 + 1/p)."""
    ps = primefactors(level)
    return level * prod(p + 1 for p in ps) // prod(ps)


def sturm_bound(k: int, level: int) -> int:
    """ceil(k * mu / 12) with mu the index of Gamma_0(level): a sufficient
    coefficient bound for eigenform congruences."""
    return -(-k * gamma0_index(level) // 12)


class NewformData(Record):
    """Complete eigenvalue package for one newform."""

    label: str
    level: int
    weight: int
    character: DirichletChar
    field_poly: tuple  # Fraction coefficients, lowest first, monic, irreducible
    basis: tuple       # rows of Fraction coords on the power basis of the root
    an: tuple          # an[i] = integer coordinate vector of a_(i+1) on basis

    @property
    def dim(self) -> int:
        return len(self.field_poly) - 1

    @property
    def b_data(self) -> int:
        return len(self.an)

    def a_vector(self, n: int) -> tuple:
        if not 1 <= n <= self.b_data:
            raise InsufficientData(f"a_{n} not stored (have {self.b_data})")
        return self.an[n - 1]

    def validate(self):
        d = self.dim
        if d < 1:
            raise ValueError("field_poly must have positive degree")
        if self.field_poly[-1] != 1:
            raise ValueError("field_poly must be monic")
        if any(len(row) != d for row in self.basis) or len(self.basis) != d:
            raise ValueError("basis must be a square matrix of the field degree")
        if not fppoly.is_irreducible_over_q(self.field_poly):
            raise ValueError("field_poly is reducible")
        for n, vec in enumerate(self.an, 1):
            if len(vec) != d:
                raise ValueError(f"a_{n} has {len(vec)} entries, the field degree is {d}")
        one = [Fraction(0)] * d
        for j, c in enumerate(self.a_vector(1)):
            for i in range(d):
                one[i] += c * self.basis[j][i]
        if one != [Fraction(1)] + [Fraction(0)] * (d - 1):
            raise ValueError("a_1 must represent 1 (normalised eigenform)")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "level": self.level,
            "weight": self.weight,
            "character": self.character.label,
            "field_poly": [[str(c.numerator), str(c.denominator)]
                           for c in self.field_poly],
            "basis": [[[str(c.numerator), str(c.denominator)] for c in row]
                      for row in self.basis],
            "an": [[str(c) for c in vec] for vec in self.an],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NewformData":
        """Raises BadFixture naming the first field that is missing or
        cannot be parsed."""
        def field(name, parse):
            if not isinstance(obj, dict) or name not in obj:
                raise BadFixture(f"missing field {name!r}")
            try:
                return parse(obj[name])
            except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
                raise BadFixture(f"bad field {name!r}: {exc}") from exc

        def fractions(pairs):
            return tuple(Fraction(int(p), int(q)) for p, q in pairs)

        nf = cls(
            label=field("label", str),
            level=field("level", int),
            weight=field("weight", int),
            character=field("character", DirichletChar.from_label),
            field_poly=field("field_poly", fractions),
            basis=field("basis", lambda rows: tuple(fractions(row) for row in rows)),
            an=field("an", lambda vecs: tuple(tuple(int(c) for c in vec) for vec in vecs)),
        )
        nf.validate()
        return nf


# -- fixture store -----------------------------------------------------


def _fixture_dirs(fixture_dir=None) -> list[Path]:
    """The directories the fixture lookup searches, in order: the explicit
    one, then EISCONG_FIXTURES, then the packaged data."""
    env = os.environ.get("EISCONG_FIXTURES")
    dirs = [] if fixture_dir is None else [Path(fixture_dir)]
    return dirs + ([Path(env)] if env else []) + [_PACKAGED_FIXTURES]


def _fixture_file(d: Path, label: str) -> Path:
    """The file of the label in the directory d.  Only an LMFDB newform
    label N.k.a.x is taken, since any other could name a file outside d."""
    if not _LABEL.fullmatch(label):
        raise BadLabel(f"{label!r} is not an LMFDB newform label N.k.a.x")
    return d / f"{label}.json"


def load_fixture(label: str, fixture_dir=None) -> NewformData:
    """The fixture of the newform label from the first of :func:`_fixture_dirs`
    that holds one; NotFound naming every directory searched when none does,
    BadFixture when the file cannot be parsed or holds another label."""
    dirs = _fixture_dirs(fixture_dir)
    for d in dirs:
        p = _fixture_file(d, label)
        if p.is_file():
            break
    else:
        raise NotFound(f"no fixture for label {label!r}: {label}.json is in none of "
                       + ", ".join(map(str, dirs)))
    with open(p, encoding="utf-8") as fh:
        try:
            nf = NewformData.from_json(json.load(fh))
        except ValueError as exc:
            raise BadFixture(f"fixture {p}: {exc}") from exc
    if nf.label != label:
        raise BadFixture(f"fixture {p} holds newform {nf.label!r}, not the requested {label!r}")
    return nf


def save_fixture(nf: NewformData, fixture_dir) -> Path:
    p = _fixture_file(Path(fixture_dir), nf.label)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(nf.to_json(), fh, indent=1)
        fh.write("\n")
    return p


# -- residue maps of the coefficient field ------------------------------


class KfResidueMap(Record):
    """Reduction of K_f at one prime above ell, named by an irreducible
    factor of the defining polynomial mod ell."""

    ell: int
    factor: tuple
    beta_images: tuple  # image of each basis row in F_ell[x]/(factor)

    @property
    def degree(self) -> int:
        return len(self.factor) - 1

    def reduce_vector(self, vec) -> FFElem:
        acc = FFElem.zero(self.ell, self.factor)
        for c, img in zip(vec, self.beta_images):
            if c:
                acc = acc + img * int(c)
        return acc


def residue_maps_of_kf(nf: NewformData, ell: int) -> list[KfResidueMap]:
    """One residue map per irreducible factor of field_poly mod ell, in
    canonical factor order."""
    if lcm(*(c.denominator for row in nf.basis for c in row)) % ell == 0:
        raise BadPrimeForBasis(f"ell = {ell} divides a basis denominator")
    fp_int = []
    for c in nf.field_poly:
        if c.denominator != 1:
            raise ValueError("field_poly must have integer coefficients")
        fp_int.append(int(c) % ell)
    fbar = fppoly.trim(list(fp_int))
    if len(fbar) - 1 != nf.dim:
        raise BadPrimeForBasis(f"field_poly degenerates mod {ell}")
    if len(fppoly.gcd(fbar, fppoly.derivative(fbar, ell), ell)) > 1:
        raise NonSquarefreeReduction(
            f"field_poly is not squarefree mod {ell}; skipping this ell")
    maps = []
    for g in fppoly.factor_squarefree(fbar, ell):
        imgs = []
        for row in nf.basis:
            vec = [int(c.numerator) * pow(c.denominator, -1, ell) % ell for c in row]
            imgs.append(FFElem.make(ell, tuple(g), vec))
        maps.append(KfResidueMap(ell, tuple(g), tuple(imgs)))
    return maps


# -- verification -------------------------------------------------------


class CongruenceCertificate(Record):
    """Replayable witness that a_q = psi(q) + phi(q) q^(k-1) holds mod a
    compatible prime for all checked q (or the first failure)."""

    label: str
    params: EisensteinParams
    ell: int
    lambda_prime: PrimeAbove
    field_poly_factor: tuple
    embedding_degree: int
    twist_f: int
    twist_cyc: int
    bound: int
    checked_primes: tuple
    include_ell: bool
    passed: bool
    first_failing_q: int | None = None

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "params": self.params.describe(),
            "ell": self.ell,
            "lambda_prime": self.lambda_prime.to_json(),
            "lambda_pretty": self.lambda_prime.pretty(),
            "field_poly_factor": list(self.field_poly_factor),
            "embedding_degree": self.embedding_degree,
            "twist_f": self.twist_f,
            "twist_cyc": self.twist_cyc,
            "bound": self.bound,
            "checked_primes": list(self.checked_primes),
            "include_ell": self.include_ell,
            "passed": self.passed,
            "first_failing_q": self.first_failing_q,
        }


def _checked_primes(nf: NewformData, params: EisensteinParams, ell: int,
                    bound: int | None, include_ell: bool) -> tuple[int, tuple]:
    """The checks verify and replay share, then (bound, primes to check):
    the primes q <= bound prime to N*M, and to ell unless include_ell;
    the bound defaults to the Sturm bound and may not exceed b_data, and
    a bound that leaves no prime to check is refused (an empty check
    would pass whatever the newform)."""
    if nf.character != params.chi_tilde:
        raise CharacterMismatch(
            f"newform character {nf.character.label} != lifted character "
            f"{params.chi_tilde.label}")
    if nf.level != params.N * params.M or nf.weight != params.k:
        raise ValueError("newform level/weight do not match the parameters")
    if bound is None:
        bound = sturm_bound(params.k, params.N * params.M)
    if bound > nf.b_data:
        raise InsufficientData(
            f"need coefficients up to {bound}, fixture has {nf.b_data}")
    qs = tuple(q for q in primerange(2, bound + 1) if nf.level % q and (include_ell or q != ell))
    if not qs:
        raise InsufficientData(f"bound {bound} leaves no prime q to check")
    return bound, qs


def _is_prime_above(lam: PrimeAbove, params: EisensteinParams) -> bool:
    """Whether lam is one of the :func:`primes_above` its ell in the value
    field of the parameters, the only primes verify reduces at."""
    return lam in primes_above(lam.ell, value_conductor(params))


def _certificate(nf: NewformData, params: EisensteinParams, lam: PrimeAbove,
                 kmap: KfResidueMap, jc: int, bound: int, qs: tuple, include_ell: bool
                 ) -> tuple[int, CongruenceCertificate]:
    """(length of the matching prefix, certificate) of the comparison of
    a_q with psi(q) + phi(q) q^(k-1) at one choice: the prime of K_f that
    kmap reduces at, and twist jc (mod the degree of lambda') of lambda'
    against the untwisted K_f side (see :func:`residue.matching_prefix`).
    Each q is reduced only when compared.  The only code that writes a certificate, so verify and
    replay agree."""
    r = lcm(kmap.degree, lam.residue_degree)
    jc %= lam.residue_degree
    pairs = ((kmap.reduce_vector(nf.a_vector(q)),
              reduce_cyc(params.psi(q) + params.phi(q) * Fraction(q) ** (params.k - 1), lam))
             for q in qs)
    npass = matching_prefix(pairs, r, jc)
    return npass, CongruenceCertificate(
        label=nf.label, params=params, ell=lam.ell, lambda_prime=lam,
        field_poly_factor=kmap.factor, embedding_degree=r, twist_f=0, twist_cyc=jc,
        bound=bound, checked_primes=qs, include_ell=include_ell,
        passed=npass == len(qs), first_failing_q=qs[npass] if npass < len(qs) else None)


def _best_certificate(nf: NewformData, params: EisensteinParams, lams: list[PrimeAbove],
                      bound: int, qs: tuple, include_ell: bool) -> CongruenceCertificate:
    """Compare at each lambda' of lams, every prime of K_f above their ell
    and every Frobenius twist of lambda' inside the common field, the K_f
    side untwisted; return the first passing certificate in that order,
    else the first one with the longest matching prefix at lams[0]."""
    kmaps = residue_maps_of_kf(nf, lams[0].ell)
    best = None  # (#passed prefix, certificate) at lams[0]
    for lam in lams:
        for kmap in kmaps:
            for jc in range(lam.residue_degree):
                npass, cert = _certificate(nf, params, lam, kmap, jc, bound, qs, include_ell)
                if cert.passed:
                    return cert
                if lam is lams[0] and (best is None or npass > best[0]):
                    best = (npass, cert)
    return best[1]


def verify_congruence(nf: NewformData, params: EisensteinParams, lam: PrimeAbove,
                      bound: int | None = None, include_ell: bool = True
                      ) -> CongruenceCertificate:
    """The first passing certificate at lambda' over the primes of K_f and
    the twists of lambda', else the first with the longest matching prefix."""
    bound, qs = _checked_primes(nf, params, lam.ell, bound, include_ell)
    if not _is_prime_above(lam, params):
        raise ValueError(f"lambda' {lam.to_json()} is not a prime of "
                         f"Z[zeta_{value_conductor(params)}] above {lam.ell}")
    return _best_certificate(nf, params, [lam], bound, qs, include_ell)


def verify_at_ell(nf: NewformData, params: EisensteinParams, ell: int,
                  bound: int | None = None, include_ell: bool = True
                  ) -> CongruenceCertificate:
    """:func:`verify_congruence` over the primes of Z[psi, phi] above ell in
    :func:`primes_above` order, each found once: the first passing
    certificate, else the certificate of the first prime.  A newform that
    does not fit the parameters or the bound is refused before the primes
    above ell, which can take seconds at a large residue degree, are found."""
    bound, qs = _checked_primes(nf, params, ell, bound, include_ell)
    lams = primes_above(ell, value_conductor(params))
    return _best_certificate(nf, params, lams, bound, qs, include_ell)


def replay_certificate(cert: CongruenceCertificate, nf: NewformData) -> bool:
    """True iff the certificate rebuilt at its recorded choice (its factor's
    prime of K_f, twist of lambda', bound and include_ell) has the same
    JSON; False if the factor names no prime of K_f above ell or lambda'
    is no prime of the value field above ell.  Raises as verify does on a
    newform that does not fit the parameters."""
    bound, qs = _checked_primes(nf, cert.params, cert.ell, cert.bound, cert.include_ell)
    if not _is_prime_above(cert.lambda_prime, cert.params):
        return False
    kmap = next((m for m in residue_maps_of_kf(nf, cert.ell)
                 if m.factor == tuple(cert.field_poly_factor)), None)
    if kmap is None:
        return False
    _, rebuilt = _certificate(nf, cert.params, cert.lambda_prime, kmap, cert.twist_cyc,
                              bound, qs, cert.include_ell)
    return rebuilt.to_json() == cert.to_json()
