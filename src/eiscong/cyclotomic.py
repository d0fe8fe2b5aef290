"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A :class:`CycNum` is an element of Q(zeta_n) on the power basis
zeta_n^0, ..., zeta_n^(phi(n)-1), stored as a tuple ``num`` of phi(n)
integer numerators over one common denominator ``den`` (the layout of
ANTIC's ``nf_elem``).  The pair is kept in normal form: ``den > 0``,
gcd(num..., den) = 1, and zero is all zeros over 1, so equal elements of
one conductor have equal fields.  ``coeffs`` is a derived view of the
same vector as ``Fraction`` for serialisation and display.

Elements carry their own conductor; binary operations coerce both sides
into Q(zeta_lcm) through the ring embedding zeta_n -> zeta_lcm^(lcm/n).
There is no automatic conductor minimisation: an element of Q(zeta_6)
that happens to be rational keeps conductor 6 unless
:meth:`CycNum.try_descend` is called explicitly.

Products pack each numerator vector into one Python int (Kronecker
substitution) and multiply once; the new denominator is the product of
the two.  A slot of the packing is a signed little-endian machine word
of 1, 2, 4 or 8 bytes, read and written for the whole vector by one
``struct`` call (3 and 5 to 7 bytes round up to the next word); wider
slots keep their width and go through ``int.from_bytes`` one at a time.
From phi(n) = 32 on, reduction mod Phi_n stays packed (a fold
mod x^n - 1 by shifts, the quotient from the high slots of a product by
the sparse Psi_n = (x^n - 1) / Phi_n, only the remainder's phi(n) slots
unpacked); below that it is long division.
The norm is x times the product of its other Galois conjugates, which is
rational, and the inverse is that product over the norm.
Values are immutable after construction and safe to share between
threads; the only shared state is the memoised Phi_n and Psi_n tables.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm

from .arith import primefactors, totient


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest
    degree first: for n > 1, Phi_n = prod_{d | n} (1 - x^d)^mu(n/d) taken
    as a power series to degree phi(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (-1, 1) if n == 1 else tuple(_binomial_product(n, 1, totient(n) + 1))


def _binomial_product(n: int, sign: int, length: int) -> list[int]:
    """prod_{d | n} (1 - x^d)^(sign * mu(n/d)) mod x^length, one stride-d pass
    per factor: times 1 - x^d, or the power-series quotient g_i = f_i + g_(i-d)."""
    f = [1] + [0] * (length - 1)
    moebius = [(n, 1)]  # (n/s, mu(s)) over the square-free s | n
    for p in primefactors(n):
        moebius += [(d // p, -mu) for d, mu in moebius]
    for d, mu in moebius:
        if d < length and sign * mu > 0:
            f[d:] = [a - b for a, b in zip(f[d:], f)]
        elif d < length:
            for j in range(d, length, d):
                f[j:j + d] = [a + b for a, b in zip(f[j:j + d], f[j - d:j])]
    return f


def _phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _divide_monic(f: list[int], g):
    """Long-divide f in place by the monic integer polynomial g, using only
    g's nonzero terms; the remainder is left in f[:len(g) - 1] and the
    quotient in f[len(g) - 1:], whose leading-term updates are skipped."""
    e = len(g) - 1
    terms = [(i, c) for i, c in enumerate(g[:e]) if c]
    for j in range(len(f) - 1, e - 1, -1):
        c = f[j]
        if c:
            off = j - e
            for i, t in terms:
                f[off + i] -= c * t


def clear_denominators(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of a vector of
    Fractions."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


# From this phi(n) on _packed_mod_phi reduces, below it _divide_monic.  On
# x86-64 with Python 3.11 and word slots, dense products are faster packed
# from phi(n) = 12 (n = 21: 15 against 21 us), length-n vectors of 0s and 1s,
# as gauss_sum builds, only from about 36 (n = 63: 14 against 13 us; n = 105:
# 29 against 84 us; at phi(n) = 24 division wins on n = 35, 39, 45 and 56);
# a cusp-constants pass moved < 4% for cutoffs 12 to 64 (with byte slots).
_PACKED_MIN_DEGREE = 32


def _mod_phi(n: int, nums: list[int]) -> list[int]:
    """Integer vector of any length reduced mod Phi_n to length phi(n)
    (in place when it is longer and phi(n) is below the packed cutoff)."""
    d = _phi(n)
    if len(nums) > d:
        if d >= _PACKED_MIN_DEGREE:  # a fold adds <= ceil(len / n) entries per slot
            width = _packed_width(n, max(map(abs, nums)) * -(-len(nums) // n))
            return _packed_mod_phi(n, _pack(nums, width), width)
        _divide_monic(nums, cyclotomic_poly(n))
        del nums[d:]
    elif len(nums) < d:
        nums = nums + [0] * (d - len(nums))
    return nums


def _reduce(n: int, nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Numerators nums over den (nonzero, any sign) reduced mod Phi_n and
    normalised to den > 0 and gcd(num..., den) = 1."""
    nums = _mod_phi(n, nums)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return tuple(nums), den


def _offset(length: int, width: int) -> int:
    """2^(8*width - 1) in each of length slots of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")


# struct codes of the signed little-endian machine words; a slot of any
# other width is read and written one int.from_bytes / to_bytes at a time
_WORDS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _word(width: int) -> int:
    """Slot bytes rounded up to a machine word, which struct reads and
    writes; no struct word is wider than 8 bytes, so wider slots keep
    their width."""
    return width if width > 8 else 1 << (width - 1).bit_length()


def _pack(v, width: int) -> int:
    """sum v[i] * 2^(8*width*i) for |v[i]| < 2^(8*width - 1).  The slots are
    written in two's complement; flipping each slot's top bit turns them
    into the offset slots v[i] + 2^(8*width - 1), whose sum is the packed
    value plus _offset."""
    code = _WORDS.get(width)
    if code:
        raw = struct.pack(f"<{len(v)}{code}", *v)
    else:
        zero = bytes(width)
        raw = b"".join([x.to_bytes(width, "little", signed=True) if x else zero for x in v])
    off = _offset(len(v), width)
    return (int.from_bytes(raw, "little") ^ off) - off


def _unpack(v: int, length: int, width: int) -> list[int]:
    """The slots of v - _offset(length, width), 0 <= v < 2^(8*width*length):
    v's slots are x + 2^(8*width - 1), and flipping their top bits leaves
    each x in two's complement."""
    raw = (v ^ _offset(length, width)).to_bytes(length * width, "little")
    code = _WORDS.get(width)
    if code:
        return list(struct.unpack(f"<{length}{code}", raw))
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, length * width, width)]


def _ks_mul(a, b) -> list[int]:
    """Product of two integer coefficient vectors by Kronecker substitution:
    each vector becomes one int in base 2^(8*width), the two are multiplied
    once, and the signed slots of the product are read back with a single
    offset.  A slot holds the inputs and every product coefficient, which
    is at most max|a| * max|b| * min(len a, len b), plus a sign bit, in
    whole bytes rounded up to a machine word by _word."""
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    width = _word((max(ma * mb * min(len(a), len(b)), ma, mb).bit_length() + 8) // 8)
    pa = _pack(a, width)
    prod = pa * pa if a is b else pa * _pack(b, width)
    length = len(a) + len(b) - 1
    return _unpack(prod + _offset(length, width), length, width)


@lru_cache(maxsize=None)
def _cofactor(n: int) -> tuple[tuple[int, ...], int]:
    """Psi_n = (x^n - 1) / Phi_n = -prod_{d | n} (1 - x^d)^(-mu(n/d)), lowest
    degree first, and 1 + |Phi_n|_1 * |Psi_n|_1."""
    phi = cyclotomic_poly(n)
    psi = tuple(-c for c in _binomial_product(n, -1, n - len(phi) + 2)) if n > 1 else (1,)
    return psi, 1 + sum(map(abs, phi)) * sum(map(abs, psi))


def _packed_width(n: int, top: int, inputs: int = 0) -> int:
    """Slot bytes for _packed_mod_phi when the fold f' mod x^n - 1 has
    entries <= top in absolute value: q = f' div Phi_n is the high half of
    f' * Psi_n, so q * Phi_n and every partial sum of f' - q * Phi_n have
    entries <= top * (1 + |Phi_n|_1 * |Psi_n|_1).  A slot holds that, the
    packed inputs (<= inputs), a spare bit (checked) and a sign bit, in
    whole bytes rounded up to a machine word by _word."""
    return _word((2 * max(top * _cofactor(n)[1], inputs)).bit_length() // 8 + 1)


def _packed_mod_phi(n: int, f: int, width: int) -> list[int]:
    """The phi(n) numerators of F mod Phi_n, for the vector F packed as
    f = F(2^(8*width)), width from _packed_width.  Each fold mod x^n - 1
    adds the slots of f from n up, rounded off, to the rest; as Phi_n *
    Psi_n = x^n - 1, q = F div Phi_n is the slots from n up of F * Psi_n."""
    bits = 8 * width
    top = bits * n
    while hi := ((f >> (top - 1)) + 1) >> 1:
        f += hi - (hi << top)
    psi, phi = _cofactor(n)[0], cyclotomic_poly(n)
    # q = sum_j psi_j * (F div x^(n-j)), each quotient a rounded shift of f
    q = sum(psi[j] * (((f >> (bits * (n - j) - 1)) + 1) >> 1)
            for j in compress(range(len(psi)), psi))
    d = len(phi) - 1
    r = f + _offset(d, width)
    for i in compress(range(d + 1), phi):
        t = q << bits * i
        r = r - t if phi[i] == 1 else r + t if phi[i] == -1 else r - phi[i] * t
    return _unpack_fitted(n, r, d, width)


def _unpack_fitted(n: int, r: int, length: int, width: int) -> list[int]:
    """The slots of r - _offset(length, width) for r packed at a width from
    _packed_width, too narrow if a slot is at or above length or uses the spare bit."""
    out = None if r >> (8 * width * length) else _unpack(r, length, width)
    if out is None or max(map(abs, out)) >> (8 * width - 2):
        raise ArithmeticError(f"packed reduction mod Phi_{n}: the remainder does not fit "
                              f"its {length} slots of {width} bytes")
    return out


def _mul_mod(n: int, a, b) -> list[int]:
    """a * b mod Phi_n for integer vectors of length <= phi(n)."""
    if _phi(n) < _PACKED_MIN_DEGREE:
        return _mod_phi(n, _ks_mul(a, b))
    ma, mb = max(map(abs, a)), max(map(abs, b))
    # folded mod x^n - 1, a * b is a cyclic convolution (len a, len b < n)
    width = _packed_width(n, ma * mb * min(len(a), len(b)), max(ma, mb))
    pa = _pack(a, width)
    return _packed_mod_phi(n, pa * pa if a is b else pa * _pack(b, width), width)


def _new(n: int, num: tuple[int, ...], den: int) -> "CycNum":
    """A CycNum from numerators already in normal form."""
    x = object.__new__(CycNum)
    _SET_CONDUCTOR(x, n)
    _SET_NUM(x, num)
    _SET_DEN(x, den)
    return x


def _from_ints(n: int, nums: list[int], den: int) -> "CycNum":
    return _new(n, *_reduce(n, nums, den))


class CycNum:
    """Element of Q(zeta_n) on the reduced power basis, as integer
    numerators ``num`` over a positive denominator ``den``."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        vec = list(coeffs)
        den = 1
        if not all(type(c) is int for c in vec):
            vec, den = clear_denominators([Fraction(c) for c in vec])
        num, den = _reduce(conductor, vec, den)
        _SET_CONDUCTOR(self, conductor)
        _SET_NUM(self, num)
        _SET_DEN(self, den)

    def __setattr__(self, *args):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient vector as ``Fraction``s."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r, conductor: int = 1) -> "CycNum":
        r = Fraction(r)
        return _from_ints(conductor, [r.numerator], r.denominator)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycNum":
        return _from_ints(conductor, [], 1)

    @classmethod
    def one(cls, conductor: int = 1) -> "CycNum":
        return _from_ints(conductor, [1], 1)

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycNum":
        """zeta_n**power as an element of conductor n."""
        power %= n
        return _from_ints(n, [0] * power + [1], 1)

    # -- structure ----------------------------------------------------

    def coerce(self, m: int) -> "CycNum":
        """Image under zeta_n -> zeta_m^(m/n); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"cannot coerce conductor {n} into {m}")
        step = m // n
        out = [0] * ((len(self.num) - 1) * step + 1)
        out[::step] = self.num
        return _from_ints(m, out, self.den)

    def try_descend(self, d: int) -> "CycNum | None":
        """Rewrite in Q(zeta_d) when possible (d | conductor), else None."""
        n = self.conductor
        if n % d:
            raise ValueError("target conductor must divide the current one")
        if d == n:
            return self
        from .linalg import solver  # off the import path: only a few series call this

        cols = [CycNum.zeta(d, j).coerce(n).coeffs for j in range(_phi(d))]
        sol = solver(cols)(self.coeffs)
        if sol is None:
            return None
        return CycNum(d, sol)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------

    def _pair(self, other) -> tuple["CycNum", "CycNum"]:
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        elif not isinstance(other, CycNum):
            return NotImplemented, NotImplemented
        m = lcm(self.conductor, other.conductor)
        return self.coerce(m), other.coerce(m)

    def _scale(self, p: int, q: int) -> "CycNum":
        """self * p / q for integers p and q != 0."""
        return _from_ints(self.conductor, [x * p for x in self.num], self.den * q)

    def _add(self, other, sign: int):
        """self + sign * other over the cross-multiplied denominator."""
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        s = sign * da
        return _from_ints(a.conductor, [x * db + y * s for x, y in zip(a.num, b.num)],
                          da * db)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.conductor, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, CycNum):
            if other.conductor == 1:
                return self._scale(other.num[0], other.den)
            if self.conductor == 1:
                return other._scale(self.num[0], self.den)
            a, b = self._pair(other)
            n = a.conductor
            return _from_ints(n, _mul_mod(n, a.num, b.num), a.den * b.den)
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero")
            return self._scale(c.denominator, c.numerator)
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
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = (self, other) if self.conductor == other.conductor else self._pair(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # cross-conductor equality makes a consistent hash costly

    def inverse(self) -> "CycNum":
        """1/x = (product of the conjugates sigma_a(x), a != 1) / N(x)."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n, num, den = self.conductor, self.num, self.den
        if self.is_rational():
            return _from_ints(n, [den], num[0])
        rest, nrm = _conjugate_product(n, num)
        return _from_ints(n, [x * den for x in rest], nrm)

    def norm(self) -> Fraction:
        """Field norm down to Q: the product of all conjugates, read off x
        times the product of the others."""
        if self.is_rational():
            return self.rational_value() ** _phi(self.conductor)
        _, nrm = _conjugate_product(self.conductor, self.num)
        return Fraction(nrm, self.den ** _phi(self.conductor))

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


_SET_CONDUCTOR = CycNum.conductor.__set__
_SET_NUM = CycNum.num.__set__
_SET_DEN = CycNum.den.__set__


def _conjugate(n: int, num, a: int) -> list[int]:
    """Integer numerators of sigma_a, zeta_n -> zeta_n^a, applied to num."""
    out = [0] * n
    for i, c in enumerate(num):
        out[i * a % n] = c
    return _mod_phi(n, out)


def _conjugate_product(n: int, num) -> tuple[list[int], int]:
    """Numerators of the product of the conjugates sigma_a(x), a != 1, of
    the integer vector num (not rational), multiplied pairwise in a
    balanced tree, and the integer N = x * that product."""
    level = [_conjugate(n, num, a) for a in range(2, n) if gcd(a, n) == 1]
    while len(level) > 1:
        level = [_mul_mod(n, *level[i:i + 2]) if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    rest = level[0]
    nrm = _mul_mod(n, num, rest)
    if not nrm[0] or any(nrm[1:]):
        raise ArithmeticError(f"a product of conjugates in Q(zeta_{n}) "
                              "is not a nonzero rational")
    return rest, nrm[0]
