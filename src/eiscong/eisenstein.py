"""q-expansions of the character Eisenstein series, their lifts to level
N*M, Hecke action, and exact constant terms at arbitrary cusps.

The lifted series attached to a delta-choice is the product of one
factor (1 - delta_p alpha_p) per prime p | M applied to the base series
(no precision is lost that way); the operator-product construction is
kept alongside as a reference path, with its working precision computed
up front so the two can be compared coefficient by coefficient.

A q-expansion is stored as integer rows over one field Q(zeta_o): one
row of phi(o) numerators per coefficient, over one common denominator,
with a conductor tag per row.  eisenstein_series builds E_k(psi, phi) in
that form for any weight k >= 2, and eisenstein_qexp reads it for a
parameter set; e_delta and hecke_tp rewrite rows through the integer
matrix of one multiplier per prime, and coefficients are built as CycNum,
in their tag's field, only when read.

What is built once is reused: the base series for the life of the
process (the series cache, keyed by (k, psi, phi)), Gauss sums, per
character, for the life of the process (the store of
characters.gauss_sum, bounded by the numerators it holds), the longest
lift E_delta for as long as its DeltaChoice lives (shorter requests are
truncated copies), and the cusp constant for as long as its
EisensteinParams lives.  e_delta_via_hecke reads only the series cache,
so it stays an independent reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import gcd, lcm, prod

from .arith import divisors, primefactors
from .characters import (MODULUS_MAX, DirichletChar, check_gauss_conductor, gauss_sum,
                         is_square_free, parity_matches)
from .cyclotomic import (CycNum, _divide_monic, _new, _offset, _pack, _packed_width, _phi,
                         _unpack_fitted, cyclotomic_poly)
from .errors import InsufficientPrecision, ModulusTooLarge, NotSquareFree
from .lvalues import check_order, check_precision, check_weight, l_value_at_negative
from .record import Record, replace


class EisensteinParams(Record):
    """Shape of one congruence instance: coprime square-free N = u*v and M,
    weight 2 < k <= lvalues.K_MAX, and an ordered pair of primitive
    characters of conductors u and v with (psi*phi)(-1) = (-1)^k whose
    values generate Q(zeta_m), m = lcm(ord psi, ord phi) <= lvalues.ORDER_MAX,
    and level N*M <= characters.MODULUS_MAX, the modulus of chi_tilde."""

    N: int
    M: int
    k: int
    psi: DirichletChar
    phi: DirichletChar

    def __post_init__(self):
        if not is_square_free(self.N):
            raise NotSquareFree(f"N = {self.N} is not square-free")
        if not is_square_free(self.M):
            raise NotSquareFree(f"M = {self.M} is not square-free")
        if gcd(self.N, self.M) != 1:
            raise ValueError("N and M must be coprime")
        if self.k <= 2:
            raise ValueError("weight k must exceed 2")
        check_weight(self.k)
        check_order(lcm(self.psi.order, self.phi.order), self.psi, self.phi)
        if self.N * self.M > MODULUS_MAX:
            raise ModulusTooLarge(f"level N*M = {self.N * self.M} is above the ceiling "
                                  f"MODULUS_MAX = {MODULUS_MAX} on character moduli")
        if not self.psi.is_primitive() or not self.phi.is_primitive():
            raise ValueError("psi and phi must be primitive")
        if self.psi.modulus * self.phi.modulus != self.N:
            raise ValueError("conductors must satisfy u*v = N")
        if not parity_matches(self.psi, self.phi, self.k):
            raise ValueError("(psi*phi)(-1) must equal (-1)^k")

    @cached_property
    def chi(self) -> DirichletChar:
        return (self.psi * self.phi).lift(self.N) if self.N > 1 else DirichletChar(1, 1)

    @cached_property
    def chi_tilde(self) -> DirichletChar:
        return self.chi.lift(self.N * self.M)

    @cached_property
    def m_primes(self) -> tuple[int, ...]:
        return tuple(primefactors(self.M))

    @cached_property
    def cusp_constant(self) -> CycNum:
        """-(g(psi phi^-1)/g(phi^-1)) L(1-k, psi^-1 phi)/2, the part of c_gamma
        and of every constant term at a cusp that depends on the parameter
        set alone; the Gauss-sum ratio is taken first, so its conductor
        ceiling refuses before the L-value is computed."""
        return _gauss_ratio(self.psi, self.phi) * Fraction(-1, 2) * \
            l_value_at_negative(self.k, self.psi.inverse() * self.phi)

    @property
    def u(self) -> int:
        return self.psi.modulus

    @property
    def v(self) -> int:
        return self.phi.modulus

    def describe(self) -> dict:
        return {"N": self.N, "M": self.M, "k": self.k,
                "psi": self.psi.label, "phi": self.phi.label,
                "chi_tilde": self.chi_tilde.label}


class DeltaChoice:
    """Assignment p -> delta_p in {psi(p), phi(p) p^(k-1)} for p | M, with
    eps_p the other member of the pair."""

    def __init__(self, params: EisensteinParams, selection: dict[int, str]):
        if set(selection) != set(params.m_primes):
            raise ValueError(f"selection must cover exactly the primes {params.m_primes}")
        for p, side in selection.items():
            if side not in ("psi", "phi"):
                raise ValueError(f"selection for {p} must be 'psi' or 'phi'")
        self.params = params
        self.selection = dict(sorted(selection.items()))
        # the longest lift e_delta has built for this choice
        self._lift: QExpansion | None = None

    @classmethod
    def all_choices(cls, params: EisensteinParams) -> list["DeltaChoice"]:
        ps = params.m_primes
        return [cls(params, dict(zip(ps, sides)))
                for sides in iter_product(("psi", "phi"), repeat=len(ps))]

    @classmethod
    def constant(cls, params: EisensteinParams, side: str) -> "DeltaChoice":
        return cls(params, {p: side for p in params.m_primes})

    def _value(self, p: int, side: str) -> CycNum:
        if side == "psi":
            return self.params.psi(p)
        return self.params.phi(p) * Fraction(p) ** (self.params.k - 1)

    def delta(self, p: int) -> CycNum:
        return self._value(p, self.selection[p])

    def eps(self, p: int) -> CycNum:
        return self._value(p, "phi" if self.selection[p] == "psi" else "psi")

    def delta_m(self, m: int) -> CycNum:
        acc = CycNum.one()
        for p in primefactors(m):
            acc = acc * self.delta(p)
        return acc

    def label(self) -> str:
        return ",".join(f"{p}:{side}" for p, side in self.selection.items()) or "-"

    def __repr__(self):
        return f"DeltaChoice({self.label()})"


def _check_delta(params: EisensteinParams, delta: DeltaChoice) -> None:
    """Refuse a delta-choice made for another parameter set: its delta_p
    and the series of params would mix into a lift of neither."""
    if delta.params is not params and delta.params != params:
        raise ValueError(f"{delta!r} was made for other parameters than {params.describe()}")


class QExpansion(Record, eq=False):
    """Truncated q-expansion a_0 + ... + a_B q^B: rows[n] holds the phi(o)
    integer numerators of a_n in Q(zeta_o), o = ``field``, over the common
    denominator ``den``.  tags[n] is the conductor a_n is read in, the lcm
    of the conductors it was computed from (rationals count as 1), as CycNum
    arithmetic would give it (in the series built here, only a_0 and zero
    rows have tags below o)."""

    weight: int
    level: int
    character: DirichletChar
    rows: tuple
    tags: tuple
    field: int = 1
    den: int = 1

    @property
    def precision(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, n: int) -> CycNum:
        """a_n, from a row already reduced mod Phi_o: only the common
        factor of den and the row is taken out (a row of another length
        than phi(o) is refused, not read as some other number)."""
        row, tag = self.rows[n], self.tags[n]
        if not any(row):
            return CycNum.zero(tag)
        if len(row) != _phi(self.field):
            raise ValueError(f"row {n} has {len(row)} entries, not phi({self.field}) = "
                             f"{_phi(self.field)}")
        g = gcd(self.den, *row)
        x = _new(self.field, tuple(row) if g == 1 else tuple(v // g for v in row), self.den // g)
        return x if tag == self.field else x.try_descend(tag)

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(self[n] for n in range(len(self.rows)))

    def truncate(self, b: int) -> "QExpansion":
        if b > self.precision:
            raise InsufficientPrecision(f"have {self.precision}, need {b}")
        return replace(self, rows=self.rows[: b + 1], tags=self.tags[: b + 1])

    def scale(self, c) -> "QExpansion":
        c = c if isinstance(c, CycNum) else CycNum.from_rational(c)
        o = lcm(self.field, c.conductor)
        x = c.coerce(o)
        axpy, zero = _multiplier(x), (0,) * len(x.num)
        return replace(self, rows=tuple(axpy(zero, row) for row in _rows_in(self, o)), field=o,
                       tags=tuple(lcm(t, c.conductor) for t in self.tags), den=self.den * x.den)

    def sub(self, other: "QExpansion") -> "QExpansion":
        b = min(self.precision, other.precision)
        o, den = lcm(self.field, other.field), lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        rows = tuple(tuple(x * s - y * t for x, y in zip(r, q)) for r, q in
                     zip(_rows_in(self.truncate(b), o), _rows_in(other.truncate(b), o)))
        return replace(self, rows=rows, tags=tuple(map(lcm, self.tags[: b + 1], other.tags)),
                       field=o, den=den)

    def to_json(self) -> dict:
        return {"weight": self.weight, "level": self.level,
                "character": self.character.label, "precision": self.precision,
                "coeffs": [c.to_json() for c in self.coeffs]}


def _row(x: CycNum, o: int, den: int) -> tuple:
    """Numerators of x in Q(zeta_o) over den, a multiple of their own
    denominator there."""
    x = x.coerce(o)
    s = den // x.den
    return x.num if s == 1 else tuple(v * s for v in x.num)


def _rows_in(f: QExpansion, o: int) -> tuple:
    """The rows of f coerced into Q(zeta_o), o a multiple of f.field (still
    over f.den: a CycNum over 1 is never renormalised)."""
    if o == f.field:
        return f.rows
    return tuple(CycNum(f.field, row).coerce(o).num for row in f.rows)


def _multiplier(x: CycNum):
    """(acc, row) -> the numerators acc + x * row on Z[zeta_o], o = x.conductor,
    through the integer matrix of x's numerators: column j, the image of
    zeta_o^j, is kept as its nonzero (index, entry) pairs.  Column j + 1 is
    zeta_o times column j by the recurrence of Phi_o = sum Phi_i t^i (monic
    of degree d = phi(o)): zeta_o (c_0, ..., c_(d-1)) = (0, c_0, ..., c_(d-2))
    - c_(d-1) (Phi_0, ..., Phi_(d-1))."""
    phi, col, cols = cyclotomic_poly(x.conductor), x.num, []
    for _ in x.num:
        cols.append([(i, v) for i, v in enumerate(col) if v])
        top, col = col[-1], (0, *col[:-1])
        if top:
            col = tuple(c - top * f for c, f in zip(col, phi))

    def axpy(acc: tuple, row: tuple) -> tuple:
        out = list(acc)
        for v, col in zip(row, cols):
            if v:
                for i, c in col:
                    out[i] += c * v
        return tuple(out)
    return axpy


def _plus_dilated(f: QExpansion, c: CycNum, p: int, step: int, b: int) -> QExpansion:
    """The expansion with a_n = a_(n*step) + c * a_(n/p) for the n <= b that p
    divides and a_n = a_(n*step) for the others, all read from f."""
    o = lcm(f.field, c.conductor)
    rows, x = _rows_in(f, o), c.coerce(o)
    axpy, s = _multiplier(x), x.den
    out = [row if s == 1 else tuple(v * s for v in row) for row in rows[: b * step + 1: step]]
    tags = list(f.tags[: b * step + 1: step])
    for n in range(0, b + 1, p):
        out[n] = axpy(out[n], rows[n // p])
        tags[n] = lcm(tags[n], c.conductor, f.tags[n // p])
    return replace(f, rows=tuple(out), tags=tuple(tags), field=o, den=f.den * s)


def sigma_power_div(n: int, k: int, psi: DirichletChar, phi: DirichletChar) -> CycNum:
    """Twisted power-divisor sum: sum over d | n of psi(n/d) phi(d) d^(k-1),
    accumulated from the characters' slots as one vector over zeta_o,
    o = lcm(ord psi, ord phi), and reduced once (the rational zero when no
    term is nonzero)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    o = lcm(psi.order, phi.order)
    sa, sb = o // psi.order, o // phi.order
    vec, hit = [0] * o, False
    for d in divisors(n):
        if (a := psi.slot(n // d)) is None or (b := phi.slot(d)) is None:
            continue
        vec[(a * sa + b * sb) % o] += d ** (k - 1) if k >= 1 else Fraction(d) ** (k - 1)
        hit = True
    return CycNum(o, vec) if hit else CycNum.zero(1)


# per (k, psi, phi): the rows' field o, their denominator (that of a_0),
# the (row, tag) pairs computed so far, a list that only grows (single
# writer), and the series' character psi * phi; rows past the list's end
# are added by one _series_rows sieve per request
_SERIES_CACHE: dict[tuple, tuple[int, int, list, DirichletChar]] = {}

# the most accumulator entries (o columns of one entry per coefficient) one
# _series_rows segment holds, so that at a large field o the sieve takes no
# more memory than the rows it returns; at o <= 2 every fill up to PREC_MAX
# is one segment
_FILL_SLOTS = 1 << 18


def _series_rows(k: int, psi: DirichletChar, phi: DirichletChar, o: int, den: int,
                 lo: int, hi: int) -> list:
    """The (row, tag) pairs of a_n = sigma_power_div(n, k, psi, phi) for
    lo <= n <= hi (lo >= 1), rows in Q(zeta_o) over den, from one divisor
    sieve per segment, held as o columns, one per zeta_o exponent: each d
    with phi(d) != 0 adds d^(k-1) to the column psi(m) + phi(d) of each
    multiple n = m*d with psi(m) != 0 (slot tables over the residues below
    qa = min(modulus, hi + 1)), by one strided slice per class of m mod qa,
    or one multiple at a time if the segment holds fewer than 8*qa multiples
    of d; the columns, each packed into one int, are long-divided by Phi_o.
    Every tag is lcm(ord psi, ord phi), as sigma_power_div gives it when
    some term is nonzero (even if the sum is zero): the conductors u and v
    are coprime, so d = the part of n prime to v always gives one, with
    psi(n/d) and phi(d) both nonzero."""
    tag = lcm(psi.order, phi.order)
    qa, qb = min(psi.modulus, hi + 1), min(phi.modulus, hi + 1)
    ta = [None if (j := psi.slot(r)) is None else j * (o // psi.order) for r in range(qa)]
    tb = [None if (j := phi.slot(r)) is None else j * (o // phi.order) for r in range(qb)]
    out, step = [], max(1, _FILL_SLOTS // o)
    for s in range(lo, hi + 1, step):
        e = min(hi, s + step - 1)
        cols = [[0] * (e - s + 1) for _ in range(o)]
        for d in range(1, e + 1):
            first, last = -(-s // d), e // d
            if (b := tb[d % qb]) is None or first > last:
                continue
            w = d ** (k - 1)
            if last - first + 1 < 8 * qa:  # a slice costs about 8 steps of this loop
                for m in range(first, last + 1):
                    if (a := ta[m % qa]) is not None:
                        cols[(a + b) % o][m * d - s] += w
                continue
            for r, a in enumerate(ta):  # m = first + (r - first) % qa <= last
                if a is not None:
                    col, i = cols[(a + b) % o], (first + (r - first) % qa) * d - s
                    col[i::qa * d] = map(w.__add__, col[i::qa * d])
        width = _packed_width(o, max(map(max, cols)))  # every entry is >= 0
        f = [_pack(col, width) for col in cols]
        _divide_monic(f, cyclotomic_poly(o))
        off = _offset(e - s + 1, width)
        for row in zip(*[_unpack_fitted(o, r + off, e - s + 1, width) for r in f[:_phi(o)]]):
            out.append((row if den == 1 else tuple(v * den for v in row), tag))
    return out


def _check_b(b: int) -> None:
    if b < 1:
        raise ValueError("precision must be >= 1")
    check_precision(b)


def eisenstein_series(k: int, psi: DirichletChar, phi: DirichletChar, b: int) -> QExpansion:
    """E_k(psi, phi) = a_0 + sum_n sigma_power_div(n, k, psi, phi) q^n for
    primitive psi and phi of coprime conductors u and v and weight k >= 2,
    of level u*v and character psi * phi, to precision b <= lvalues.PREC_MAX
    (checked before any work).  a_0 is L(1-k, psi^-1 phi)/2 when u = 1 and
    0 otherwise; at k = 2 with u = v = 1 this is the quasimodular E_2.  Rows
    past the cached ones come from one _series_rows sieve, in place of one
    sigma_power_div per coefficient."""
    _check_b(b)
    key = (k, psi, phi)
    entry = _SERIES_CACHE.get(key)
    if entry is None:
        if psi.modulus == 1:
            a0 = l_value_at_negative(k, psi.inverse() * phi) * Fraction(1, 2)
        else:
            a0 = CycNum.zero(1)
        o = lcm(psi.order, phi.order, a0.conductor)
        den = a0.coerce(o).den
        entry = _SERIES_CACHE.setdefault(
            key, (o, den, [(_row(a0, o, den), a0.conductor)], psi * phi))
    o, den, lst, chi = entry
    if b >= len(lst):
        lst += _series_rows(k, psi, phi, o, den, len(lst), b)
    rows, tags = zip(*lst[: b + 1])
    return QExpansion(k, chi.modulus, chi, rows, tags, o, den)


def eisenstein_qexp(params: EisensteinParams, b: int) -> QExpansion:
    """The normalised weight-k Eisenstein series attached to (psi, phi),
    new at level N, to precision b <= lvalues.PREC_MAX."""
    return eisenstein_series(params.k, params.psi, params.phi, b)


def alpha_m(f: QExpansion, m: int) -> QExpansion:
    """Index dilation f(z) -> f(mz); level is multiplied by m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return f
    zero = (0,) * len(f.rows[0])
    idx = range(f.precision + 1)
    return replace(f, level=f.level * m, character=f.character.lift(f.level * m),
                   rows=tuple(f.rows[n // m] if n % m == 0 else zero for n in idx),
                   tags=tuple(f.tags[n // m] if n % m == 0 else 1 for n in idx))


def hecke_tp(f: QExpansion, p: int, out_prec: int | None = None) -> QExpansion:
    """a_n(T_p f) = a_(np)(f) + chi(p) p^(k-1) a_(n/p)(f), with chi the
    character of f (so chi(p) = 0 when p divides the level's modulus)."""
    if out_prec is None:
        out_prec = f.precision // p
    if out_prec * p > f.precision:
        raise InsufficientPrecision(
            f"T_{p} to precision {out_prec} needs input precision {out_prec * p}, "
            f"have {f.precision}")
    return _plus_dilated(f, f.character(p) * Fraction(p) ** (f.weight - 1), p, p, out_prec)


def e_delta(params: EisensteinParams, delta: DeltaChoice, b: int) -> QExpansion:
    """The level-NM lift attached to a delta-choice,
    prod_{p | M} (1 - delta_p alpha_p) E, which is the alternating divisor
    sum sum_{m | M} (-1)^(#P_m) delta_m alpha_m E since the alpha_p commute
    and alpha_p alpha_q = alpha_pq.  Each factor rewrites the rows n of
    the multiples of p, through the integer matrix of -delta_p.

    The delta-choice must be one made for params.  The longest lift built
    is kept on it for as long as it lives: a request at or below its
    precision is a truncated copy (a new object, so reading its
    coefficients pins nothing there), and a longer one rebuilds at b."""
    _check_delta(params, delta)
    _check_b(b)
    f = delta._lift
    if f is None or f.precision < b:
        f = eisenstein_qexp(params, b)
        for p in params.m_primes:
            f = _plus_dilated(f, -delta.delta(p), p, 1, b)
        f = delta._lift = replace(f, level=params.N * params.M, character=params.chi_tilde)
    return f.truncate(b)


def e_delta_via_hecke(params: EisensteinParams, delta: DeltaChoice, b: int) -> QExpansion:
    """Reference construction: apply prod_{p | M} (T_p - delta_p) to
    alpha_M E at working precision b * prod p, so no precision is lost.
    The delta-choice must be one made for params."""
    _check_delta(params, delta)
    work = b * prod(params.m_primes) if params.m_primes else b
    f = alpha_m(eisenstein_qexp(params, work), params.M)
    for p in params.m_primes:
        out = f.precision // p
        f = hecke_tp(f, p, out).sub(f.truncate(out).scale(delta.delta(p)))
    return f.truncate(b)


# -- cusps and constant terms -------------------------------------------


class CuspMatrix(Record):
    """Integer matrix (a, beta; b, d) of determinant one."""

    a: int
    beta: int
    b: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.beta * self.b != 1:
            raise ValueError("matrix must have determinant 1")

    def __repr__(self):
        return f"[{self.a} {self.beta}; {self.b} {self.d}]"


def cusp_matrix_for(a: int, b: int) -> CuspMatrix:
    """Some gamma in SL_2(Z) with first column (a, b); needs gcd(a, b) = 1."""
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    # a*d - beta*b = 1 via the extended Euclidean algorithm
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    return CuspMatrix(a, -old_t, b, old_s)


def cusp_representatives(level: int) -> list[CuspMatrix]:
    """Matrices whose first columns hit each cusp of Gamma_0(level) once,
    generated from fractions a/b with b | level."""
    out = []
    for b in divisors(level):
        g = gcd(b, level // b)
        seen = set()
        for a0 in range(1, g + 1):
            if gcd(a0, g) != 1 or a0 in seen:
                continue
            seen.add(a0)
            a = a0
            while gcd(a, b) != 1:
                a += g
            out.append(cusp_matrix_for(a, b))
    return out


def _gauss_ratio(psi: DirichletChar, phi: DirichletChar) -> CycNum:
    """g(psi phi^-1) / g(phi^-1), where 1/g(phi^-1) = phi(-1) g(phi) / v
    because g(phi) g(phi^-1) = phi(-1) v for primitive phi of conductor v.
    The product's conductor is checked against MODULUS_MAX first."""
    chi = psi * phi.inverse()
    check_gauss_conductor(lcm(chi.modulus, chi.order, phi.modulus, phi.order))
    return gauss_sum(chi) * gauss_sum(phi) * Fraction(phi.parity, phi.modulus)


def c_gamma(params: EisensteinParams, gamma: CuspMatrix) -> CycNum:
    """The cusp constant
    -(g(psi phi^-1)/g(phi^-1)) (phi^-1(a) psi(-b/v) / u^k) L(1-k, psi^-1 phi)/2,
    defined when v | b: the constant term of E[gamma]_k (m = 1 below)."""
    if gamma.b % params.v:
        raise ValueError("c_gamma requires v | b")
    return constant_term_alpha_m(params, 1, gamma)


def constant_term_alpha_m(params: EisensteinParams, m: int, gamma: CuspMatrix) -> CycNum:
    """Constant term of (alpha_m E)[gamma]_k, for m coprime to N: with
    b1 = b / gcd(b, m) and m1 = m / gcd(b, m), params.cusp_constant times
    phi^-1(m1 a) psi(-b1/v) / (u m1)^k when v | b1, else zero."""
    if gcd(m, params.N) != 1:
        raise ValueError("m must be coprime to N")
    g0 = gcd(gamma.b, m)
    b1, m1 = gamma.b // g0, m // g0
    v = params.v
    if b1 % v:
        return CycNum.zero(1)
    val = params.cusp_constant * params.phi.inverse()(m1 * gamma.a) * params.psi(-b1 // v)
    return val * Fraction(1, (params.u * m1) ** params.k)


def constant_term_e_delta(params: EisensteinParams, delta: DeltaChoice,
                          gamma: CuspMatrix) -> CycNum:
    """Closed form for the constant term of E_delta[gamma]_k: the cusp
    constant times one local factor per prime of M, split by whether the
    prime survives in M' = M / gcd(M, b).  The delta-choice must be one
    made for params."""
    _check_delta(params, delta)
    v = params.v
    if gamma.b % v:
        return CycNum.zero(1)
    m_loc = params.M // gcd(params.M, gamma.b)
    acc = c_gamma(params, gamma)
    phi_inv = params.phi.inverse()
    psi_inv = params.psi.inverse()
    for p in params.m_primes:
        if m_loc % p == 0:
            acc = acc * (CycNum.one() - delta.delta(p) * phi_inv(p) * Fraction(1, p ** params.k))
        else:
            acc = acc * (CycNum.one() - delta.delta(p) * psi_inv(p))
    return acc
