"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A :class:`CycNum` is a vector of rationals on the power basis
zeta_n^0, ..., zeta_n^(phi(n)-1), reduced modulo the n-th cyclotomic
polynomial.  Elements carry their own conductor; binary operations coerce
both sides into Q(zeta_lcm) through the ring embedding
zeta_n -> zeta_lcm^(lcm/n).  There is no automatic conductor
minimisation: an element of Q(zeta_6) that happens to be rational keeps
conductor 6 unless :meth:`CycNum.try_descend` is called explicitly.

Reduction clears denominators to integer numerators over one common
denominator and long-divides by the monic integer Phi_n (the layout of
ANTIC's ``nf_elem``); the stored vector stays a tuple of ``Fraction``.
Values are immutable after construction and safe to share between
threads; the only shared state is the memoised Phi_n table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import qpoly

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest
    degree first, from Phi_n(x) = Phi_m(x^p) when p^2 | n and
    Phi_n(x) = Phi_m(x^p) / Phi_m(x) otherwise (p the least prime of n,
    m = n/p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    p = next(q for q in range(2, n + 1) if n % q == 0)
    m = n // p
    g = cyclotomic_poly(m)
    f = [0] * ((len(g) - 1) * p + 1)
    f[::p] = g
    if m % p == 0:
        return tuple(f)
    return tuple(_divide_monic(f, g))


def _phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _divide_monic(f: list[int], g) -> list[int]:
    """Long-divide f in place by the monic integer polynomial g, using only
    g's nonzero terms; returns the quotient and leaves the remainder in
    f[:len(g) - 1]."""
    e = len(g) - 1
    terms = [(i, c) for i, c in enumerate(g[:e]) if c]
    q = [0] * max(0, len(f) - e)
    for j in range(len(f) - 1, e - 1, -1):
        c = f[j]
        if c:
            off = j - e
            q[off] = c
            for i, t in terms:
                f[off + i] -= c * t
    return q


def clear_denominators(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of a vector of
    Fractions."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce(n: int, coeffs: list[Fraction]) -> list[Fraction]:
    """Reduce an arbitrary-length coefficient vector mod Phi_n, returning a
    dense vector of length phi(n)."""
    d = _phi(n)
    if len(coeffs) <= d:
        return list(coeffs) + [_ZERO] * (d - len(coeffs))
    nums, den = clear_denominators(coeffs)
    _divide_monic(nums, cyclotomic_poly(n))
    return [Fraction(x, den) for x in nums[:d]]


class CycNum:
    """Element of Q(zeta_n) on the reduced power basis."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "conductor", conductor)
        vec = _reduce(conductor, [Fraction(c) for c in coeffs])
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, *args):
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r, conductor: int = 1) -> "CycNum":
        return cls(conductor, [Fraction(r)])

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycNum":
        return cls(conductor, [])

    @classmethod
    def one(cls, conductor: int = 1) -> "CycNum":
        return cls(conductor, [_ONE])

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        """zeta_n**power as an element of conductor n."""
        power %= n
        vec = [_ZERO] * power + [_ONE]
        return cls(n, vec)

    # -- structure ----------------------------------------------------

    def coerce(self, m: int) -> "CycNum":
        """Image under zeta_n -> zeta_m^(m/n); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"cannot coerce conductor {n} into {m}")
        step = m // n
        out = [_ZERO] * ((len(self.coeffs) - 1) * step + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return CycNum(m, out)

    def try_descend(self, d: int) -> "CycNum | None":
        """Rewrite in Q(zeta_d) when possible (d | conductor), else None."""
        n = self.conductor
        if n % d:
            raise ValueError("target conductor must divide the current one")
        if d == n:
            return self
        cols = [CycNum.zeta(d, j).coerce(n).coeffs for j in range(_phi(d))]
        sol = _solve_columns(cols, self.coeffs)
        if sol is None:
            return None
        return CycNum(d, sol)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0] if self.coeffs else _ZERO

    # -- arithmetic ---------------------------------------------------

    def _pair(self, other) -> tuple["CycNum", "CycNum"]:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        elif not isinstance(other, CycNum):
            return NotImplemented, NotImplemented
        m = lcm(self.conductor, other.conductor)
        return self.coerce(m), other.coerce(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNum(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNum(a.conductor, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CycNum(self.conductor, [x * c for x in self.coeffs])
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.conductor == 1:
            c = other.coeffs[0] if other.coeffs else _ZERO
            return CycNum(self.conductor, [x * c for x in self.coeffs])
        if self.conductor == 1:
            c = self.coeffs[0] if self.coeffs else _ZERO
            return CycNum(other.conductor, [x * c for x in other.coeffs])
        a, b = self._pair(other)
        n = a.conductor
        d = _phi(n)
        out = [_ZERO] * (2 * d - 1)
        bc = b.coeffs
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(bc):
                    if y:
                        out[i + j] += x * y
        return CycNum(n, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero")
            return CycNum(self.conductor, [x / c for x in self.coeffs])
        if not isinstance(other, CycNum):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = CycNum.one(self.conductor)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-conductor equality makes a consistent hash costly

    def inverse(self) -> "CycNum":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n = self.conductor
        if n == 1 or self.is_rational():
            inv = _ONE / self.coeffs[0]
            return CycNum(n, [inv])
        u, _v, d = qpoly.ext_gcd(qpoly.trim(list(self.coeffs)), cyclotomic_poly(n))
        if d != [_ONE]:
            raise ZeroDivisionError(f"{self!r} shares a factor with Phi_{n}")
        return CycNum(n, u)

    def norm(self) -> Fraction:
        """Field norm down to Q: the product of all conjugates, computed as
        the resultant of Phi_n with the representing polynomial."""
        if not self:
            return _ZERO
        if self.conductor == 1:
            return self.coeffs[0]
        return qpoly.resultant(cyclotomic_poly(self.conductor),
                               qpoly.trim(list(self.coeffs)))

    # -- serialisation ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CycNum":
        coeffs = [Fraction(int(p), int(q)) for p, q in obj["coeffs"]]
        return cls(int(obj["conductor"]), coeffs)

    def __repr__(self):
        n = self.conductor
        if self.is_rational():
            return str(self.rational_value())
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{n}" if i == 1 else f"z{n}^{i}"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")


def _solve_columns(cols, target):
    """Solve sum_j y_j * cols[j] = target over Q; None if inconsistent."""
    nrows = len(target)
    ncols = len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = _ONE / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    sol = [_ZERO] * ncols
    for row, c in enumerate(piv_cols):
        sol[c] = aug[row][ncols]
    return sol
