"""Primes of Z[zeta_m] above a rational prime, residue fields, reduction
of cyclotomic numbers, and exact lambda'-valuations.

A prime above ell is named by an irreducible factor of Phi_m' mod ell,
m' the ell-free part of m; the factor set for fixed (ell, m) is
enumerated canonically (sorted by degree then coefficient vector), so
certificates replay bit-identically.  Every factor has the one residue
degree d = ord_m'(ell) (Cohen, *A Course in Computational Algebraic
Number Theory*, 1993, 4.8.1); for d = 1 the factors are x - r^a over the
a prime to m', r an element of exact order m' mod ell, and need no
factorization.  Membership (ord > 0) works in ramified cases too; exact
multiplicities are restricted to ell coprime to m and go through Hensel
lifting of the chosen factor.  Two residue fields meet in the canonical
field of a common degree, where :func:`matching_prefix` compares them.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd

from . import fppoly
from .arith import _remove, isprime, multiplicative_order, primefactors
from .cyclotomic import CycNum, cyclotomic_poly
from .errors import DenominatorDivisibleByEll, NotASubfield, RamifiedUnsupported
from .record import Record


class PrimeAbove(Record):
    """lambda' = <ell, f(zeta_m)> for an irreducible factor f of
    Phi_m mod ell."""

    ell: int
    m: int
    factor: tuple[int, ...]

    @property
    def residue_degree(self) -> int:
        return len(self.factor) - 1

    def pretty(self) -> str:
        if self.m == 1 or self.residue_degree == len(cyclotomic_poly(self.m)) - 1:
            return f"<{self.ell}>"
        return f"<{self.ell}, {_poly_str(self.factor, f'z{self.m}')}>"

    def to_json(self) -> dict:
        return {"ell": self.ell, "m": self.m, "factor": list(self.factor)}

    @classmethod
    def from_json(cls, obj: dict) -> "PrimeAbove":
        return cls(int(obj["ell"]), int(obj["m"]), tuple(int(c) for c in obj["factor"]))

    def __repr__(self):
        return self.pretty()


def _poly_str(coeffs, var: str) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
    return " + ".join(terms) if terms else "0"


def primes_above(ell: int, m: int) -> list[PrimeAbove]:
    """One prime per distinct irreducible factor of Phi_m mod ell.

    When ell | m the reduction factors with multiplicity phi(ell-part);
    the distinct factors are those of Phi_(m'), m' the ell-free part.
    Each has degree d = ord_m'(ell): for d = 1 they are the x - r^a of
    :func:`_roots_of_unity`, for d = phi(m') Phi_m' itself, else its factors.
    """
    if not isprime(ell):
        raise ValueError(f"ell must be a prime > 1, got {ell}")
    if m < 1:
        raise ValueError("m must be >= 1")
    m0 = m
    while m0 % ell == 0:
        m0 //= ell
    d, phi = multiplicative_order(ell, m0), list(cyclotomic_poly(m0))
    if d == 1:
        factors = sorted([-r % ell, 1] for r in _roots_of_unity(ell, m0))
    elif d == len(phi) - 1:
        factors = [fppoly.normalize(phi, ell)]
    else:
        factors = fppoly.factor_squarefree(phi, ell)
    return [PrimeAbove(ell, m, tuple(f)) for f in factors]


def _roots_of_unity(ell: int, n: int) -> list[int]:
    """The phi(n) roots of Phi_n mod ell for ell = 1 mod n: the powers r^a,
    a prime to n, of r = g^((ell-1)/n) for the least g >= 2 that gives r
    of exact order n."""
    if (ell - 1) % n:
        raise ValueError(f"ell = {ell} is not 1 mod {n}")
    qs = primefactors(n)
    for g in range(2, ell + 2):
        r = pow(g, (ell - 1) // n, ell)
        if pow(r, n, ell) == 1 and all(pow(r, n // q, ell) != 1 for q in qs):
            break
    else:
        raise ArithmeticError(f"no element of order {n} mod {ell}")
    roots, power = [], 1
    for a in range(1, n + 1):
        power = power * r % ell
        if gcd(a, n) == 1:
            roots.append(power)
    return roots


class FFElem(Record):
    """Element of F_ell[x]/(modulus); coefficient vector of fixed length."""

    ell: int
    modulus: tuple[int, ...]
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, ell, modulus, coeffs) -> "FFElem":
        vec = fppoly.mod([c % ell for c in coeffs], list(modulus), ell)
        vec = vec + [0] * (len(modulus) - 1 - len(vec))
        return cls(ell, tuple(modulus), tuple(vec))

    @classmethod
    def from_int(cls, ell, modulus, n: int) -> "FFElem":
        return cls.make(ell, modulus, [n])

    @classmethod
    def zero(cls, ell, modulus) -> "FFElem":
        return cls.make(ell, modulus, [])

    @classmethod
    def one(cls, ell, modulus) -> "FFElem":
        return cls.make(ell, modulus, [1])

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "FFElem"):
        if self.ell != other.ell or self.modulus != other.modulus:
            raise ValueError("elements live in different fields")

    def __add__(self, other):
        self._check(other)
        return FFElem.make(self.ell, self.modulus,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return FFElem.make(self.ell, self.modulus,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FFElem.make(self.ell, self.modulus, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return FFElem.make(self.ell, self.modulus, [a * other for a in self.coeffs])
        self._check(other)
        prod = fppoly.mul(list(self.coeffs), list(other.coeffs), self.ell)
        return FFElem.make(self.ell, self.modulus, prod)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = FFElem.one(self.ell, self.modulus)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "FFElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        u, _v, d = fppoly.ext_gcd(fppoly.trim(list(self.coeffs)),
                                  list(self.modulus), self.ell)
        if d != [1]:
            raise ZeroDivisionError(f"{self!r} is not invertible: the modulus is not irreducible")
        return FFElem.make(self.ell, self.modulus, u)

    def __repr__(self):
        return f"FF({self.ell}^{self.degree}: {_poly_str(self.coeffs, 'x')})"


def reduce_cyc(x: CycNum, lam: PrimeAbove) -> FFElem:
    """Image of x in Z[zeta_m]/lambda', sending zeta_m to the class of the
    variable; requires conductor(x) | m and denominator coprime to ell."""
    if lam.m % x.conductor:
        raise ValueError(f"conductor {x.conductor} does not divide m = {lam.m}")
    ell = lam.ell
    num, den = _numerators(x.coerce(lam.m), ell)
    inv = pow(den, -1, ell)
    return FFElem.make(ell, lam.factor, [c * inv % ell for c in num])


def _numerators(x: CycNum, ell: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators of x over a common denominator prime to ell."""
    if x.den % ell == 0:
        raise DenominatorDivisibleByEll(
            f"denominator {x.den} is divisible by ell = {ell}")
    return x.num, x.den


def ord_positive(x: CycNum, lam: PrimeAbove) -> bool:
    """Membership of x in lambda' (valid in ramified cases too)."""
    return reduce_cyc(x, lam).is_zero()


def ord_exact(x: CycNum, lam: PrimeAbove) -> int:
    """val_lambda'(x) for unramified lambda' and nonzero x, by evaluating
    the representing polynomial against the Hensel-lifted factor mod
    ell**T, T doubling until the image is nonzero; that happens once T
    exceeds the valuation, so the loop is bounded by the size of x."""
    ell, m = lam.ell, lam.m
    if m % ell == 0:
        raise RamifiedUnsupported(f"ell = {ell} divides the conductor {m}")
    if not x:
        raise ValueError("valuation of zero is undefined")
    num, den = _numerators(x.coerce(m), ell)
    phi = list(cyclotomic_poly(m))
    t = 4
    while True:
        modulus = ell**t
        inv = pow(den, -1, modulus)
        vec = [c * inv % modulus for c in num]
        lifted = fppoly.hensel_lift_factor(phi, list(lam.factor), ell, t)
        rem = fppoly.mod(vec, lifted, modulus)
        if rem:
            return min(_remove(c, ell)[1] for c in rem if c)
        t *= 2


# -- finite-field embeddings ------------------------------------------


def canonical_modulus(ell: int, r: int) -> tuple[int, ...]:
    """Deterministic modulus for 'the' field with ell**r elements."""
    return fppoly.lex_least_irreducible(ell, r)


def _gp_trim(f):
    while f and f[-1].is_zero():
        f.pop()
    return f


def _gp_add(f, g):
    out = list(f) if len(f) >= len(g) else list(g)
    short = g if len(f) >= len(g) else f
    for i, c in enumerate(short):
        out[i] = out[i] + c
    return _gp_trim(out)


def _gp_mul(f, g):
    if not f or not g:
        return []
    zero = f[0] - f[0]
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a.is_zero():
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return _gp_trim(out)


def _gp_mod(f, g):
    f = list(f)
    inv = g[-1].inverse()
    while len(f) >= len(g):
        c = f[-1] * inv
        d = len(f) - len(g)
        if not c.is_zero():
            for i, b in enumerate(g):
                f[d + i] = f[d + i] - c * b
        f.pop()
    return _gp_trim(f)


def _gp_gcd(f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, _gp_mod(f, g)
    if f:
        inv = f[-1].inverse()
        f = [c * inv for c in f]
    return f


def _gp_powmod(base, e, modpoly):
    one = modpoly[-1] ** 0
    result = [one]
    base = _gp_mod(list(base), modpoly)
    while e:
        if e & 1:
            result = _gp_mod(_gp_mul(result, base), modpoly)
        base = _gp_mod(_gp_mul(base, base), modpoly)
        e >>= 1
    return result


def _find_root(src_poly: tuple[int, ...], ell: int,
               target_modulus: tuple[int, ...]) -> FFElem:
    """A deterministic root in F_ell[x]/(target) of an irreducible prime-field
    polynomial whose degree divides the target degree.

    The input splits completely over the target field, so repeated
    Cantor-Zassenhaus splits always terminate at a linear factor.
    """
    r = len(target_modulus) - 1
    f = [FFElem.from_int(ell, target_modulus, c) for c in src_poly]
    inv = f[-1].inverse()
    f = [c * inv for c in f]
    rng = random.Random(repr(("embed", ell, target_modulus, src_poly)))
    q = ell**r
    one = FFElem.one(ell, target_modulus)
    while len(f) > 2:
        u = _gp_trim([FFElem.make(ell, target_modulus,
                                  [rng.randrange(ell) for _ in range(r)])
                      for _ in range(len(f) - 1)])
        if not u:
            continue
        if ell == 2:
            w = []
            acc = list(u)
            for _ in range(r):
                w = _gp_add(w, acc)
                acc = _gp_powmod(acc, 2, f)
        else:
            w = _gp_powmod(u, (q - 1) // 2, f)
            w = _gp_add(w, [-one])
        g = _gp_gcd(w, f)
        if 1 < len(g) < len(f):
            f = g
    return -f[0]


@lru_cache(maxsize=None)
def _embedding_orbit(ell: int, src_modulus: tuple[int, ...], r: int) -> tuple:
    """All images of the source generator in the canonical degree-r field,
    sorted; entry j is the canonical embedding twisted j times."""
    d = len(src_modulus) - 1
    if r % d:
        raise NotASubfield(f"degree {d} does not divide {r}")
    rho = _find_root(src_modulus, ell, canonical_modulus(ell, r))
    orbit = [rho]
    for _ in range(d - 1):
        orbit.append(orbit[-1] ** ell)
    orbit.sort(key=lambda e: e.coeffs)
    return tuple(orbit)


def ff_embed(a: FFElem, r: int, twist: int = 0) -> FFElem:
    """Image of a under a fixed embedding into the canonical field of
    degree r over F_ell; twist selects the Frobenius conjugate."""
    d = a.degree
    orbit = _embedding_orbit(a.ell, a.modulus, r)
    rho = orbit[twist % d]
    target = canonical_modulus(a.ell, r)
    acc = FFElem.zero(a.ell, target)
    for c in reversed(a.coeffs):
        acc = acc * rho + FFElem.from_int(a.ell, target, c)
    return acc


def matching_prefix(pairs, r: int, twist: int) -> int:
    """How many leading pairs (a, b) have equal images in the canonical
    degree-r field, a embedded untwisted and b with the given twist.
    Twisting a as well finds no other match: the Frobenius of the common
    field generates its Galois group, moves every twist of a to twist 0,
    and keeps every equality."""
    n = 0
    for a, b in pairs:
        if ff_embed(a, r) != ff_embed(b, r, twist):
            break
        n += 1
    return n
