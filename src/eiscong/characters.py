"""Dirichlet characters in the Conrey labelling.

A character mod q is named by a Conrey index a coprime to q (label
"q.a").  Each prime power p^e exactly dividing q has fixed Conrey
generators of (Z/p^e)^x: for odd p the smallest integer g that is a
primitive root mod p and mod p^2 (hence mod every p^e), and for 2^e the
pair -1 (when e >= 2) and 5 (when e >= 3).  A unit n has exponents y_j
on these generators, and chi_a(n) = exp(2 pi i * sum_j x_j y_j / o_j),
with x_j the exponents of the index a and o_j the generator orders.  A
character stores the x_j, each scaled to w_j = x_j * L / o_j over L, the
lcm of all the o_j, so chi_a(g_j) = exp(2 pi i * w_j / L).  Order,
conductor, lifts and primitive parts are all read off the w_j.  Values
are exact roots of unity (:class:`~eiscong.cyclotomic.CycNum`).

The generators and exponent table of each prime power are built once and
cached; readers may share them freely, initialisation is idempotent.
``DirichletChar(q, a)`` is one shared object per (q, a mod q), kept in a
table bounded by the sum of its moduli, so labels, inverses, products,
lifts and primitive parts reuse the order, conductor and values an equal
character holds.  The Gauss-sum store keeps each sum :func:`gauss_sum`
builds, by character, up to a fixed total of numerators.  Both tables
drop their oldest entries first and are written under a lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .arith import factorint, primefactors
from .cyclotomic import CycNum, _from_ints
from .errors import ModulusTooLarge, NotAMultiple, NotPrimitive, NotSquareFree

# the largest modulus accepted for a character: each prime power p^e of the
# modulus gets a table of all its units, so the character 1000003.2 takes
# 0.8 s and 202 MiB of peak RSS to build, and 199999.2 takes 0.13 s and
# 58 MiB (2-vCPU x86 host, Python 3.11)
MODULUS_MAX = 2 * 10**5


@lru_cache(maxsize=None)
def _factor(q: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(factorint(q).items()))


@lru_cache(maxsize=None)
def conrey_generator(p: int) -> int:
    """Smallest g that generates (Z/p^e)^x for every e >= 1 (p odd)."""
    rads = primefactors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in rads) and pow(g, p - 1, p * p) != 1:
            return g
        g += 1


@lru_cache(maxsize=None)
def _local(p: int, e: int) -> tuple[tuple[tuple[int, int], ...], dict[int, tuple[int, ...]]]:
    """Conrey generators (g, order) of (Z/p^e)^x, e >= 1, and the table
    n -> exponents of n on them."""
    q = p**e
    if p == 2:
        gens = ((q - 1, 2),) * (e >= 2) + ((5, q >> 2),) * (e >= 3)
    else:
        gens = ((conrey_generator(p), q - q // p),)
    table = {1: ()}
    for g, o in gens:
        powers = [1] * o
        for i in range(1, o):
            powers[i] = powers[i - 1] * g % q
        table = {n * gi % q: xs + (i,) for n, xs in table.items()
                 for i, gi in enumerate(powers)}
    return gens, table


@lru_cache(maxsize=None)
def _layout(q: int) -> tuple[int, tuple]:
    """(L, parts) for modulus q: L the lcm of all generator orders, and one
    part (p, p^e, exponent table, (L / o_j per generator)) per p^e || q."""
    local = [(p, p**e, *_local(p, e)) for p, e in _factor(q)]
    den = lcm(*(o for *_, gens, _ in local for _, o in gens))
    return den, tuple((p, pe, table, tuple(den // o for _, o in gens))
                      for p, pe, gens, table in local)


# the characters built so far by (q, a), a in [1, q], oldest first, and the
# sum of their moduli; every write holds _CHARS_LOCK.  A character caches at
# most q values, so _CHAR_MODULI bounds the values kept alive, and the largest
# modulus the ceiling admits fits on its own.
_CHARS: dict[tuple[int, int], "DirichletChar"] = {}
_chars_held = 0
_CHARS_LOCK = threading.Lock()
_CHAR_MODULI = 1 << 18


class DirichletChar:
    """Dirichlet character of given modulus in the Conrey convention."""

    __slots__ = ("modulus", "index", "order", "_parts", "_den", "_conductor", "_values")

    def __new__(cls, modulus: int, index: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if modulus > MODULUS_MAX:
            raise ModulusTooLarge(f"modulus {modulus} is above the ceiling "
                                  f"MODULUS_MAX = {MODULUS_MAX} on character moduli")
        index %= modulus
        if index == 0:
            index = modulus  # canonical representative in [1, q]
        if (kept := _CHARS.get((modulus, index))) is not None:
            return kept
        if gcd(index, modulus) != 1:
            raise ValueError(f"index {index} not coprime to modulus {modulus}")
        self = object.__new__(cls)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "index", index)
        # one part (p, p^e, exponent table, (w_j)) per prime power p^e || q
        den, layout = _layout(modulus)
        parts, g = [], den
        for p, pe, table, scales in layout:
            weights = tuple(map(mul, table[index % pe], scales))
            parts.append((p, pe, table, weights))
            g = gcd(g, *weights)
        object.__setattr__(self, "_parts", tuple(parts))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "order", den // g)
        object.__setattr__(self, "_conductor", None)
        object.__setattr__(self, "_values", {})
        global _chars_held
        with _CHARS_LOCK:  # another thread may have stored it meanwhile
            if (kept := _CHARS.get((modulus, index))) is not None:
                return kept
            while _chars_held + modulus > _CHAR_MODULI:
                _chars_held -= _CHARS.pop(next(iter(_CHARS))).modulus
            _CHARS[modulus, index] = self
            _chars_held += modulus
        return self

    def __setattr__(self, *args):
        raise AttributeError("DirichletChar is immutable")

    def __reduce__(self):
        return DirichletChar, (self.modulus, self.index)

    # -- identification -------------------------------------------------

    @property
    def label(self) -> str:
        return f"{self.modulus}.{self.index}"

    @classmethod
    def from_label(cls, label: str) -> "DirichletChar":
        try:
            q, a = map(int, label.split("."))
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"bad character label {label!r}; expected 'modulus.index'") from exc
        return cls(q, a)

    def __eq__(self, other):
        return (isinstance(other, DirichletChar)
                and self.modulus == other.modulus and self.index == other.index)

    def __hash__(self):
        return hash((self.modulus, self.index))

    def __repr__(self):
        return f"chi({self.label})"

    # -- evaluation -------------------------------------------------------

    def slot(self, n: int) -> int | None:
        """The j in [0, order) with chi(n) = zeta_order^j; None encodes the
        value 0."""
        q = self.modulus
        n %= q
        if gcd(n, q) != 1:
            return None
        num = 0
        for _, pe, table, weights in self._parts:
            for w, y in zip(weights, table[n % pe]):
                num += w * y
        return num % self._den * self.order // self._den

    def exponent(self, n: int) -> Fraction | None:
        """chi(n) = e^(2 pi i * exponent); None encodes the value 0."""
        j = self.slot(n)
        return None if j is None else Fraction(j, self.order)

    def __call__(self, n: int) -> CycNum:
        n %= self.modulus
        val = self._values.get(n)
        if val is None:
            j = self.slot(n)
            val = CycNum.zero(1) if j is None else CycNum.zeta(self.order, j)
            self._values[n] = val  # values are immutable; idempotent writes
        return val

    # -- structure ----------------------------------------------------------

    @property
    def conductor(self) -> int:
        """Product over p of the least p^f with the p-part of chi trivial at
        1 + p^f; those elements generate the units = 1 mod p^f for f >= 1
        (p odd) and f >= 2 (p = 2), and a nontrivial 2-part is never
        trivial on all units, so its search starts at f = 2."""
        if self._conductor is None:
            c = 1
            for p, pe, table, weights in self._parts:
                if not any(weights):
                    continue
                f = 2 if p == 2 else 1
                while sum(w * y for w, y in zip(weights, table[(1 + p**f) % pe])) % self._den:
                    f += 1
                c *= p**f
            object.__setattr__(self, "_conductor", c)
        return self._conductor

    @property
    def parity(self) -> int:
        return 1 if self.slot(-1) == 0 else -1

    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def is_trivial(self) -> bool:
        return self.index % self.modulus == 1 % self.modulus

    # -- arithmetic on characters ------------------------------------------

    def _at_modulus(self, q: int) -> "DirichletChar":
        """The character mod q that agrees with this one on units, for q a
        multiple of the modulus or of the conductor dividing it.  The
        exponent on each generator of order o mod the new prime power is
        w_j * o / L, the old exponent scaled by the ratio of the orders
        (generators one of the two prime powers lacks carry exponent 0),
        and the index is rebuilt by CRT."""
        if q == self.modulus:
            return self
        old = {p: weights for p, _, _, weights in self._parts}
        residues, moduli = [], []
        for p, E in _factor(q):
            pE = p**E
            b = 1
            for (g, o), w in zip(_local(p, E)[0], old.get(p, ())):
                b = b * pow(g, w * o // self._den, pE) % pE
            residues.append(b)
            moduli.append(pE)
        return DirichletChar(q, _crt(residues, moduli))

    def lift(self, new_modulus: int) -> "DirichletChar":
        """Character mod new_modulus induced by this one."""
        if new_modulus % self.modulus:
            raise NotAMultiple(f"{new_modulus} is not a multiple of modulus {self.modulus}")
        return self._at_modulus(new_modulus)

    def primitive(self) -> "DirichletChar":
        """The primitive character inducing this one."""
        return self._at_modulus(self.conductor)

    def __mul__(self, other: "DirichletChar") -> "DirichletChar":
        if not isinstance(other, DirichletChar):
            return NotImplemented
        q = lcm(self.modulus, other.modulus)
        a = self.lift(q).index * other.lift(q).index % q
        return DirichletChar(q, a)

    def inverse(self) -> "DirichletChar":
        q = self.modulus
        if q == 1:
            return self
        return DirichletChar(q, pow(self.index, -1, q))

    def power(self, s: int) -> "DirichletChar":
        q = self.modulus
        if q == 1:
            return self
        return DirichletChar(q, pow(self.index, s % self.order, q))


def _crt(residues, moduli) -> int:
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        h = (r - x) * pow(m, -1, q) % q
        x += m * h
        m *= q
    return x % m


def check_gauss_conductor(n: int) -> None:
    """Raise ModulusTooLarge when a Gauss sum would be taken in Q(zeta_n)
    with n above MODULUS_MAX: its vector has n entries, so the sum of
    4919.13 (order 4918) would fill one in Q(zeta_24191642)."""
    if n > MODULUS_MAX:
        raise ModulusTooLarge(f"Gauss-sum conductor {n} is above the ceiling "
                              f"MODULUS_MAX = {MODULUS_MAX}")


# Gauss sums built so far, oldest first, and the numerators they hold in
# all; every write holds _GAUSS_LOCK, reads take the dict as it stands
_GAUSS: dict[DirichletChar, CycNum] = {}
_gauss_held = 0
_GAUSS_LOCK = threading.Lock()

# the most numerators _GAUSS holds: a sum in Q(zeta_n) has phi(n) <= n <=
# MODULUS_MAX of them, so the largest sum the ceiling admits fits on its
# own (443.2, conductor 195806, has 84864 and takes 2.8 s to build), while
# the store stays near 2 MiB of slots; the oldest sums go first
_GAUSS_NUMERATORS = 1 << 18


def gauss_sum(phi: DirichletChar) -> CycNum:
    """g(phi) = sum_{n=0}^{v-1} phi(n) zeta_v^n for primitive phi of
    conductor v; the result lives in conductor lcm(v, order), refused
    above MODULUS_MAX before any vector is built.

    Each sum is built once per process and kept, by character, while the
    store holds at most _GAUSS_NUMERATORS numerators; a refused character
    raises on every call and leaves nothing stored.
    """
    g = _GAUSS.get(phi)
    return g if g is not None else _keep_gauss_sum(phi, _build_gauss_sum(phi))


def _build_gauss_sum(phi: DirichletChar) -> CycNum:
    """g(phi), built anew: every term is a single root of unity in the
    target field, so the sum is accumulated as one exponent vector and
    reduced once."""
    if not phi.is_primitive():
        raise NotPrimitive(f"{phi!r} is imprimitive (conductor {phi.conductor})")
    v = phi.modulus
    if v == 1:
        return CycNum.one()
    o = phi.order
    big = lcm(v, o)
    check_gauss_conductor(big)
    vec = [0] * big
    for n in range(v):
        j = phi.slot(n)
        if j is not None:
            vec[(j * (big // o) + n * (big // v)) % big] += 1
    return _from_ints(big, vec, 1)


def _keep_gauss_sum(phi: DirichletChar, g: CycNum) -> CycNum:
    """The stored sum of phi, storing g first when none is (dropping the
    oldest sums until it fits the budget), so that every caller gets one
    object per character."""
    global _gauss_held
    size = len(g.num)
    with _GAUSS_LOCK:
        if (kept := _GAUSS.get(phi)) is not None:
            return kept
        if size <= _GAUSS_NUMERATORS:
            while _gauss_held + size > _GAUSS_NUMERATORS:
                _gauss_held -= len(_GAUSS.pop(next(iter(_GAUSS))).num)
            _GAUSS[phi] = g
            _gauss_held += size
    return g


def is_square_free(n: int) -> bool:
    return n >= 1 and all(e == 1 for _, e in _factor(n))


def primitive_characters(m: int) -> list[DirichletChar]:
    out = []
    for a in range(1, m + 1):
        if gcd(a, m) == 1:
            ch = DirichletChar(m, a)
            if ch.is_primitive():
                out.append(ch)
    return out


def enumerate_pairs(n: int) -> list[tuple[DirichletChar, DirichletChar]]:
    """All ordered pairs (psi, phi) of primitive characters with conductor
    product n, over all factorisations u*v = n."""
    if not is_square_free(n):
        raise NotSquareFree(f"{n} is not square-free")
    pairs = []
    for u in sorted(d for d in range(1, n + 1) if n % d == 0):
        v = n // u
        for psi in primitive_characters(u):
            for phi in primitive_characters(v):
                pairs.append((psi, phi))
    return pairs


def parity_matches(psi: DirichletChar, phi: DirichletChar, k: int) -> bool:
    """Whether (psi*phi)(-1) = (-1)^k, the weight-consistency constraint."""
    return psi.parity * phi.parity == (-1) ** k
