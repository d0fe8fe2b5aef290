"""Newform Hecke-eigenvalue ingestion and congruence verification.

Eigenvalue data comes from a canonical on-disk JSON schema (one file per
LMFDB label); a thin web client can populate the store from the LMFDB API
when the network is available, but every verification below runs offline
and bit-exactly from fixtures.

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
import threading
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

from . import fppoly
from .arith import primefactors, primerange
from .characters import DirichletChar
from .congruence import value_conductor
from .eisenstein import EisensteinParams
from .errors import (BadFixture, BadPrimeForBasis, CharacterMismatch, InsufficientData,
                     NetworkError, NonSquarefreeReduction, NotFound)
from .record import Record
from .residue import FFElem, PrimeAbove, matching_prefix, primes_above, reduce_cyc

_PACKAGED_FIXTURES = Path(__file__).parent / "fixtures"
_REQUEST_TIMEOUT_S = 30.0


def sturm_bound(k: int, level: int) -> int:
    """ceil(k * mu / 12) with mu the index of Gamma_0(level): a sufficient
    coefficient bound for eigenform congruences."""
    mu = Fraction(level)
    for p in primefactors(level):
        mu *= Fraction(p + 1, p)
    val = Fraction(k) * mu / 12
    return -(-val.numerator // val.denominator)


def delta_an(b: int) -> list[int]:
    """Integer coefficients tau(0..b) (tau(0) = 0) of Delta = q prod (1 - q^n)^24,
    from q dDelta/dq = E_2 Delta read coefficient by coefficient:
    (n - 1) tau(n) = -24 sum_{m < n} sigma(m) tau(n - m), sigma from one
    divisor sieve."""
    if b < 1:
        raise ValueError("b must be >= 1")
    sigma = [0] * (b + 1)
    for d in range(1, b + 1):
        for m in range(d, b + 1, d):
            sigma[m] += d
    tau = [0, 1] + [0] * (b - 1)
    for n in range(2, b + 1):
        tau[n] = -24 * sum(sigma[m] * tau[n - m] for m in range(1, n)) // (n - 1)
    return tau


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
            return _field(obj, name, parse)

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


def _field(obj, name: str, parse, where: str = ""):
    """parse(obj[name]), or BadFixture naming the field if obj has no such
    field or parse fails on it."""
    if not isinstance(obj, dict) or name not in obj:
        raise BadFixture(f"{where}missing field {name!r}")
    try:
        return parse(obj[name])
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise BadFixture(f"{where}bad field {name!r}: {exc}") from exc


# -- fixture store -----------------------------------------------------


def _fixture_dirs(fixture_dir=None) -> list[Path]:
    """The directories the fixture lookup searches, in order: the explicit
    one, then EISCONG_FIXTURES, then the packaged data."""
    env = os.environ.get("EISCONG_FIXTURES")
    dirs = [] if fixture_dir is None else [Path(fixture_dir)]
    return dirs + ([Path(env)] if env else []) + [_PACKAGED_FIXTURES]


def fixture_path(label: str, fixture_dir: str | os.PathLike | None = None) -> Path | None:
    """First existing fixture file for the label in :func:`_fixture_dirs`."""
    for d in _fixture_dirs(fixture_dir):
        p = d / f"{label}.json"
        if p.is_file():
            return p
    return None


def _check_label(nf: NewformData, label: str, where: str) -> NewformData:
    """nf, or BadFixture when it is another newform than the one asked for."""
    if nf.label != label:
        raise BadFixture(f"{where} holds newform {nf.label!r}, not the requested {label!r}")
    return nf


def load_fixture(label: str, fixture_dir=None) -> NewformData:
    """The fixture of the newform label; BadFixture when the file found for
    it cannot be parsed or holds another label."""
    p = fixture_path(label, fixture_dir)
    if p is None:
        raise NotFound(f"no fixture for label {label!r}")
    with open(p, encoding="utf-8") as fh:
        try:
            nf = NewformData.from_json(json.load(fh))
        except ValueError as exc:
            raise BadFixture(f"fixture {p}: {exc}") from exc
    return _check_label(nf, label, f"fixture {p}")


def save_fixture(nf: NewformData, fixture_dir) -> Path:
    d = Path(fixture_dir)
    d.mkdir(parents=True, exist_ok=True)
    p = d / f"{nf.label}.json"
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(nf.to_json(), fh, indent=1)
        fh.write("\n")
    return p


class LmfdbClient:
    """Minimal, polite client for the LMFDB API: at most one request per
    second from the whole process, whichever client sends it, exponential
    backoff; fetch_newform caches the results on disk.  Endpoint
    configurable for mirrors."""

    # shared by all clients, since fetch_newform builds one per call
    _last_request = 0.0
    _pace_lock = threading.Lock()

    def __init__(self, endpoint: str | None = None):
        self.endpoint = (endpoint or os.environ.get("EISCONG_ENDPOINT")
                         or "https://www.lmfdb.org/api").rstrip("/")

    @staticmethod
    def _pace():
        """Wait until one second after the process's last request, then
        stamp this one."""
        with LmfdbClient._pace_lock:
            wait = LmfdbClient._last_request + 1.0 - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            LmfdbClient._last_request = time.monotonic()

    def _get(self, table: str, query: dict) -> list[dict]:
        """The records of one API query.  HTTP 429, 502 and 503 and failed
        connections are retried, three attempts in all, with a doubling
        delay.  The HTTP stack is imported here, so that importing the
        package does not load it."""
        import urllib.request
        from urllib.error import HTTPError
        from urllib.parse import urlencode

        url = f"{self.endpoint}/{table}/"
        delay = 1.0
        for attempt in range(3):
            self._pace()
            try:
                with urllib.request.urlopen(f"{url}?{urlencode({**query, '_format': 'json'})}",
                                            timeout=_REQUEST_TIMEOUT_S) as resp:
                    if resp.status == 200:
                        return json.load(resp).get("data", [])
                    raise NetworkError(f"GET {url} -> HTTP {resp.status}")
            except HTTPError as exc:
                if exc.code not in (429, 502, 503) or attempt == 2:
                    raise NetworkError(f"GET {url} -> HTTP {exc.code}") from exc
            except NetworkError:
                raise
            except Exception as exc:  # connection errors, bad JSON, ...
                if attempt == 2:
                    raise NetworkError(f"GET {url} failed: {exc}") from exc
            time.sleep(delay)
            delay *= 2

    def fetch(self, label: str) -> NewformData:
        forms = self._get("mf_newforms", {"label": label})
        if not forms:
            raise NotFound(f"label {label!r} not in mf_newforms")
        form = forms[0]
        hecke = self._get("mf_hecke_nf", {"label": label})
        if not hecke:
            raise NotFound(f"label {label!r} has no stored eigenvalue data")
        return _check_label(convert_lmfdb_records(form, hecke[0]), label, "LMFDB record")


def convert_lmfdb_records(form: dict, hecke: dict) -> NewformData:
    """Map an (mf_newforms, mf_hecke_nf) record pair onto the canonical
    fixture schema.  Coefficients are ascending lists; the hecke-ring
    basis is given by numerator rows over a per-row denominator, or is
    the power basis when flagged.  Raises BadFixture naming the first
    field that is missing or cannot be parsed."""
    def field(rec, name, parse=int):
        return _field(rec, name, parse, "LMFDB record: ")

    if not (isinstance(form, dict) and isinstance(hecke, dict)):
        raise BadFixture("LMFDB record is not a JSON object")
    field_poly = field(hecke if hecke.get("field_poly") else form, "field_poly",
                       lambda cs: [Fraction(c) for c in cs])
    d = len(field_poly) - 1
    if form.get("conrey_index") is not None:
        conrey = field(form, "conrey_index")
    else:
        conrey = field(form, "conrey_indexes", lambda cs: int(min(cs)))
    if hecke.get("hecke_ring_power_basis"):
        basis = [[Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    else:
        dens = field(hecke, "hecke_ring_denominators",
                     lambda ds: [Fraction(1, int(x)) for x in ds])
        basis = field(hecke, "hecke_ring_numerators",
                      lambda nums: [[int(nums[j][i]) * dens[j] for i in range(d)]
                                    for j in range(d)])
    level = field(form, "level")
    nf = NewformData(
        label=field(form, "label", str),
        level=level,
        weight=field(form, "weight"),
        character=DirichletChar(level, conrey),
        field_poly=tuple(field_poly),
        basis=tuple(tuple(row) for row in basis),
        an=field(hecke, "an", lambda vecs: tuple(tuple(int(c) for c in vec) for vec in vecs)),
    )
    nf.validate()
    return nf


def fetch_newform(label: str, min_coeffs: int = 1, *, offline: bool = False,
                  fixture_dir=None, endpoint: str | None = None) -> NewformData:
    """Fixture-first loader; falls back to the web API unless offline.

    Fetched data is saved where the lookup reads first: fixture_dir, else
    EISCONG_FIXTURES.  With neither set nothing is written, since the
    packaged data is not a cache.
    """
    try:
        nf = load_fixture(label, fixture_dir)
    except NotFound:
        nf = None
    if nf is not None and nf.b_data >= min_coeffs:
        return nf
    if offline or os.environ.get("EISCONG_OFFLINE"):
        if nf is not None:
            raise InsufficientData(
                f"fixture for {label} has {nf.b_data} coefficients, need {min_coeffs}")
        raise NotFound(f"no fixture for {label!r} and offline mode is set")
    fetched = LmfdbClient(endpoint).fetch(label)
    if fetched.b_data < min_coeffs:
        raise InsufficientData(
            f"{label} provides {fetched.b_data} coefficients, need {min_coeffs}")
    cache = [d for d in _fixture_dirs(fixture_dir) if d != _PACKAGED_FIXTURES]
    if cache:
        save_fixture(fetched, cache[0])
    return fetched


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
        bound = sturm_bound(params.k, nf.level)
    if bound > nf.b_data:
        raise InsufficientData(
            f"need coefficients up to {bound}, fixture has {nf.b_data}")
    qs = tuple(q for q in primerange(2, bound + 1) if nf.level % q and (include_ell or q != ell))
    if not qs:
        raise InsufficientData(f"bound {bound} leaves no prime q to check")
    return bound, qs


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


def verify_congruence(nf: NewformData, params: EisensteinParams, lam: PrimeAbove,
                      bound: int | None = None, include_ell: bool = True
                      ) -> CongruenceCertificate:
    """Compare at every prime of K_f above ell and every Frobenius twist of
    lambda' inside the common field, the K_f side untwisted; return the
    first passing certificate in that order, else the first one with the
    longest matching prefix."""
    bound, qs = _checked_primes(nf, params, lam.ell, bound, include_ell)
    best = None  # (#passed prefix, certificate)
    for kmap in residue_maps_of_kf(nf, lam.ell):
        for jc in range(lam.residue_degree):
            npass, cert = _certificate(nf, params, lam, kmap, jc, bound, qs, include_ell)
            if cert.passed:
                return cert
            if best is None or npass > best[0]:
                best = (npass, cert)
    return best[1]


def verify_at_ell(nf: NewformData, params: EisensteinParams, ell: int,
                  bound: int | None = None, include_ell: bool = True
                  ) -> CongruenceCertificate:
    """:func:`verify_congruence` at each prime of Z[psi, phi] above ell in
    :func:`primes_above` order; the first passing certificate, else the
    certificate of the first prime."""
    first = None
    for lam in primes_above(ell, value_conductor(params)):
        cert = verify_congruence(nf, params, lam, bound=bound, include_ell=include_ell)
        if cert.passed:
            return cert
        if first is None:
            first = cert
    return first


def replay_certificate(cert: CongruenceCertificate, nf: NewformData) -> bool:
    """True iff the certificate rebuilt at its recorded choice (its factor's
    prime of K_f, twist of lambda', bound and include_ell) has the same
    JSON; False if the factor names no prime of K_f above ell.  Raises as
    verify does on a newform that does not fit the parameters."""
    bound, qs = _checked_primes(nf, cert.params, cert.ell, cert.bound, cert.include_ell)
    kmap = next((m for m in residue_maps_of_kf(nf, cert.ell)
                 if m.factor == tuple(cert.field_poly_factor)), None)
    if kmap is None:
        return False
    _, rebuilt = _certificate(nf, cert.params, cert.lambda_prime, kmap, cert.twist_cyc,
                              bound, qs, cert.include_ell)
    return rebuilt.to_json() == cert.to_json()
