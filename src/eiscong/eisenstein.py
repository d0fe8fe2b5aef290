"""q-expansions of the character Eisenstein series, their lifts to level
N*M, Hecke action, and exact constant terms at arbitrary cusps.

The lifted series attached to a delta-choice is the product of one
factor (1 - delta_p alpha_p) per prime p | M applied to the base series
(no precision is lost that way); the operator-product construction is
kept alongside as a reference path, with its working precision computed
up front so the two can be compared coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import gcd, lcm, prod

from .arith import divisors, primefactors
from .characters import DirichletChar, gauss_sum, is_square_free
from .cyclotomic import CycNum
from .errors import InsufficientPrecision, NotSquareFree
from .lvalues import check_order, check_weight, l_value_at_negative


@dataclass(frozen=True)
class EisensteinParams:
    """Shape of one congruence instance: coprime square-free N = u*v and M,
    weight 2 < k <= lvalues.K_MAX, and an ordered pair of primitive
    characters of conductors u and v with (psi*phi)(-1) = (-1)^k whose
    values generate Q(zeta_m), m = lcm(ord psi, ord phi) <= lvalues.ORDER_MAX."""

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
            raise ValueError("weight must satisfy k > 2")
        check_weight(self.k)
        check_order(lcm(self.psi.order, self.phi.order), self.psi, self.phi)
        if not self.psi.is_primitive() or not self.phi.is_primitive():
            raise ValueError("psi and phi must be primitive")
        if self.psi.modulus * self.phi.modulus != self.N:
            raise ValueError("conductors must satisfy u*v = N")
        if self.psi.parity * self.phi.parity != (-1) ** self.k:
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


@dataclass(frozen=True)
class QExpansion:
    """Truncated q-expansion a_0 + a_1 q + ... + a_B q^B."""

    weight: int
    level: int
    character: DirichletChar
    coeffs: tuple

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> CycNum:
        return self.coeffs[n]

    def truncate(self, b: int) -> "QExpansion":
        if b > self.precision:
            raise InsufficientPrecision(f"have {self.precision}, need {b}")
        return QExpansion(self.weight, self.level, self.character, self.coeffs[: b + 1])

    def scale(self, c) -> "QExpansion":
        return QExpansion(self.weight, self.level, self.character,
                          tuple(a * c for a in self.coeffs))

    def sub(self, other: "QExpansion") -> "QExpansion":
        b = min(self.precision, other.precision)
        return QExpansion(self.weight, self.level, self.character,
                          tuple(self.coeffs[n] - other.coeffs[n] for n in range(b + 1)))

    def to_json(self) -> dict:
        return {"weight": self.weight, "level": self.level,
                "character": self.character.label, "precision": self.precision,
                "coeffs": [c.to_json() for c in self.coeffs]}


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


# coefficient prefixes are shared across calls: they are immutable and the
# per-parameter list only ever grows (single-writer appends)
_SERIES_CACHE: dict[EisensteinParams, list] = {}


def _base_coeffs(params: EisensteinParams, b: int) -> list:
    lst = _SERIES_CACHE.get(params)
    if lst is None:
        if params.psi.modulus == 1:
            a0 = l_value_at_negative(params.k, params.psi.inverse() * params.phi) \
                * Fraction(1, 2)
        else:
            a0 = CycNum.zero(1)
        lst = _SERIES_CACHE.setdefault(params, [a0])
    for n in range(len(lst), b + 1):
        lst.append(sigma_power_div(n, params.k, params.psi, params.phi))
    return lst[: b + 1]


def eisenstein_qexp(params: EisensteinParams, b: int) -> QExpansion:
    """The normalised weight-k Eisenstein series attached to (psi, phi),
    new at level N, to precision b."""
    if b < 1:
        raise ValueError("precision must be >= 1")
    return QExpansion(params.k, params.N, params.chi, tuple(_base_coeffs(params, b)))


def alpha_m(f: QExpansion, m: int) -> QExpansion:
    """Index dilation f(z) -> f(mz); level is multiplied by m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return f
    zero = CycNum.zero(1)
    coeffs = tuple(f.coeffs[n // m] if n % m == 0 else zero
                   for n in range(f.precision + 1))
    return QExpansion(f.weight, f.level * m, f.character.lift(f.level * m), coeffs)


def hecke_tp(f: QExpansion, p: int, out_prec: int | None = None) -> QExpansion:
    """a_n(T_p f) = a_(np)(f) + chi(p) p^(k-1) a_(n/p)(f), with chi the
    character of f (so chi(p) = 0 when p divides the level's modulus)."""
    if out_prec is None:
        out_prec = f.precision // p
    if out_prec * p > f.precision:
        raise InsufficientPrecision(
            f"T_{p} to precision {out_prec} needs input precision {out_prec * p}, "
            f"have {f.precision}")
    cp = f.character(p) * Fraction(p) ** (f.weight - 1)
    coeffs = []
    for n in range(out_prec + 1):
        a = f.coeffs[n * p]
        if n % p == 0:
            a = a + cp * f.coeffs[n // p]
        coeffs.append(a)
    return QExpansion(f.weight, f.level, f.character, tuple(coeffs))


def e_delta(params: EisensteinParams, delta: DeltaChoice, b: int) -> QExpansion:
    """The level-NM lift attached to a delta-choice,
    prod_{p | M} (1 - delta_p alpha_p) E, which is the alternating divisor
    sum sum_{m | M} (-1)^(#P_m) delta_m alpha_m E since the alpha_p commute
    and alpha_p alpha_q = alpha_pq.  Each factor rewrites a_n for the
    multiples n of p, downwards, so a_(n/p) is read before it is rewritten."""
    if b < 1:
        raise ValueError("precision must be >= 1")
    coeffs = _base_coeffs(params, b)  # a copy: the cached prefix is not written
    for p in params.m_primes:
        d = delta.delta(p)
        for n in range(b - b % p, -1, -p):
            coeffs[n] = coeffs[n] - d * coeffs[n // p]
    return QExpansion(params.k, params.N * params.M, params.chi_tilde, tuple(coeffs))


def e_delta_via_hecke(params: EisensteinParams, delta: DeltaChoice, b: int) -> QExpansion:
    """Reference construction: apply prod_{p | M} (T_p - delta_p) to
    alpha_M E at working precision b * prod p, so no precision is lost."""
    work = b * prod(params.m_primes) if params.m_primes else b
    f = alpha_m(eisenstein_qexp(params, work), params.M)
    for p in params.m_primes:
        out = f.precision // p
        f = hecke_tp(f, p, out).sub(f.truncate(out).scale(delta.delta(p)))
    return f.truncate(b)


# -- cusps and constant terms -------------------------------------------


@dataclass(frozen=True)
class CuspMatrix:
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
    because g(phi) g(phi^-1) = phi(-1) v for primitive phi of conductor v."""
    return (gauss_sum(psi * phi.inverse()) * gauss_sum(phi)
            * Fraction(phi.parity, phi.modulus))


def c_gamma(params: EisensteinParams, gamma: CuspMatrix) -> CycNum:
    """The cusp constant
    -(g(psi phi^-1)/g(phi^-1)) (phi^-1(a) psi(-b/v) / u^k) L(1-k, psi^-1 phi)/2,
    defined when v | b.  The Gauss-sum ratio is taken without an inverse,
    as g(psi phi^-1) g(phi) phi(-1) / v (from g(phi) g(phi^-1) = phi(-1) v)."""
    v = params.v
    if gamma.b % v:
        raise ValueError("c_gamma requires v | b")
    psi, phi = params.psi, params.phi
    ratio = _gauss_ratio(psi, phi)
    val = ratio * phi.inverse()(gamma.a) * psi(-gamma.b // v)
    val = val * l_value_at_negative(params.k, psi.inverse() * phi)
    return val * Fraction(-1, 2 * params.u ** params.k)


def constant_term_alpha_m(params: EisensteinParams, m: int, gamma: CuspMatrix) -> CycNum:
    """Constant term of (alpha_m E)[gamma]_k, for m coprime to N."""
    if gcd(m, params.N) != 1:
        raise ValueError("m must be coprime to N")
    g0 = gcd(gamma.b, m)
    b1, m1 = gamma.b // g0, m // g0
    v = params.v
    if b1 % v:
        return CycNum.zero(1)
    psi, phi = params.psi, params.phi
    ratio = _gauss_ratio(psi, phi)
    val = ratio * phi.inverse()(m1 * gamma.a) * psi(-b1 // v)
    val = val * l_value_at_negative(params.k, psi.inverse() * phi)
    return val * Fraction(-1, 2 * (params.u * m1) ** params.k)


def constant_term_e_delta(params: EisensteinParams, delta: DeltaChoice,
                          gamma: CuspMatrix) -> CycNum:
    """Closed form for the constant term of E_delta[gamma]_k: the cusp
    constant times one local factor per prime of M, split by whether the
    prime survives in M' = M / gcd(M, b)."""
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
