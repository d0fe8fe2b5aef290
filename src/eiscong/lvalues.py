"""Exact Bernoulli numbers, their chi-twisted generalisations, and the
Dirichlet L-values L(1-k, chi) they produce.

Conventions: B_1 = -1/2 in the plain sequence, while the twisted number
attached to the trivial character at k = 1 is +1/2 (the two standard
conventions disagree only there, and nothing downstream evaluates at
k = 1 anyway since all Eisenstein parameters require k > 2).

Everything is exact and computed in integers: the plain numbers come
from the tangent numbers (Brent and Harvey, *Fast computation of
Bernoulli, tangent and secant numbers*, 2011), and B_{k,chi} is one
integer vector over zeta_ord(chi) divided once by a common denominator.
The weight is capped at K_MAX and the character order at ORDER_MAX, so
every L-value ends in bounded time (PREC_MAX, beside them, caps the
precision of Eisenstein q-expansions);
the only consumer of these values is prime-ideal valuation, so no
floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .arith import primefactors, totient
from .characters import DirichletChar
from .cyclotomic import CycNum
from .errors import BadDivisor, OrderTooLarge, PrecisionTooLarge, WeightTooLarge

# the largest k accepted for B_k, B_{k,chi} and L(1-k, chi), and so for the
# weight of Eisenstein parameters: the tangent numbers behind B_0 ... B_k
# cost O(k^2) operations on O(k log k)-bit integers
K_MAX = 1000

# the largest character order accepted for B_{k,chi} and L(1-k, chi), and
# for the value field Q(zeta_m), m = lcm(ord psi, ord phi), of Eisenstein
# parameters: B_{k,chi} is one integer vector reduced once mod Phi_m,
# packed (see cyclotomic), so L(-11, chi) takes about 0.2 s at order
# 4918 = 2 * 2459 and 0.7 s at 10006 on a 2-vCPU x86 host under Python
# 3.11 (orders 2p are the worst case); the cap also bounds the field that
# the norms and inverses of a search over such parameters work in
ORDER_MAX = 5000

# the largest precision b accepted for a q-expansion a_0 + ... + a_b q^b
# of an Eisenstein series: the a_n come from one divisor sieve and are
# printed by `eis qexp` one by one, so `eis qexp --psi 1.1 --phi 5.4 --M 6
# --k 8` at b = PREC_MAX takes about 3 s and prints 4.3 MB on a 2-vCPU
# x86 host
PREC_MAX = 10**5

_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def check_weight(k: int) -> None:
    """Raise WeightTooLarge when k is above K_MAX."""
    if k > K_MAX:
        raise WeightTooLarge(f"k = {k} is above the ceiling K_MAX = {K_MAX} "
                             "for Bernoulli numbers and L-values")


def check_precision(b: int) -> None:
    """Raise PrecisionTooLarge when b is above PREC_MAX."""
    if b > PREC_MAX:
        raise PrecisionTooLarge(f"precision {b} is above the ceiling PREC_MAX = {PREC_MAX} "
                                "for q-expansions")


def check_order(order: int, *chars: DirichletChar) -> None:
    """Raise OrderTooLarge when order, that of the values of chars, is
    above ORDER_MAX."""
    if order > ORDER_MAX:
        names = " and ".join(map(repr, chars))
        raise OrderTooLarge(f"order {order} of {names} is above the ceiling "
                            f"ORDER_MAX = {ORDER_MAX} on character orders")


def _tangent_numbers(n: int) -> list[int]:
    """T_1 ... T_n (index 0 unused), the coefficients of tan x =
    sum T_m x^(2m-1) / (2m-1)!, by Brent and Harvey's in-place integer
    recurrence."""
    t = [0, 1] + [0] * (n - 1)
    for i in range(2, n + 1):
        t[i] = (i - 1) * t[i - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t


def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, for 0 <= k <= K_MAX.

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) with T_m the tangent
    numbers; odd B_k vanish for k >= 3.  A request past the cached range
    refills it in one go to max(k, twice its length), capped at K_MAX, so
    raising k step by step costs a constant factor over one fill."""
    if k < 0:
        raise ValueError("k must be >= 0")
    check_weight(k)
    have = len(_BERNOULLI)
    if k >= have:
        top = min(max(k, 2 * have), K_MAX)
        t = _tangent_numbers(top // 2)
        new = [Fraction(0)] * (top + 1 - have)
        for m in range((have + 1) // 2, top // 2 + 1):
            four = 4**m
            new[2 * m - have] = Fraction((-1) ** (m - 1) * 2 * m * t[m], four * (four - 1))
        _BERNOULLI.extend(new)
    return _BERNOULLI[k]


def generalized_bernoulli(k: int, chi: DirichletChar) -> CycNum:
    """B_{k,chi} = F^(k-1) sum_{a=1}^{F} chi(a) B_k(a/F) at the character's
    own modulus F.

    With D the lcm of the denominators of B_0 ... B_k, the polynomial
    D F^k B_k(a/F) = sum_j D C(k, j) B_j F^j a^(k-j) has integer
    coefficients.  It is evaluated by Horner's rule in integers at each a
    with chi(a) = zeta^j != 0 and added into slot j of one vector over
    zeta_ord(chi), which is divided by D F and reduced once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_order(chi.order, chi)
    bernoulli(k)
    bs = _BERNOULLI[:k + 1]
    f = chi.modulus
    d = lcm(*(b.denominator for b in bs))
    poly = [b.numerator * (d // b.denominator) * comb(k, j) * f**j
            for j, b in enumerate(bs)]  # highest power of a first
    vec = [0] * chi.order
    for a in range(1, f + 1):
        j = chi.slot(a)
        if j is not None:
            acc = 0
            for c in poly:
                acc = acc * a + c
            vec[j] += acc
    return CycNum(chi.order, vec) / (d * f)


def l_value_at_negative(k: int, chi: DirichletChar) -> CycNum:
    """L(1-k, chi) = -B_{k,chi*}/k where chi* is the primitive part."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return generalized_bernoulli(k, chi.primitive()) * Fraction(-1, k)


def euler_factor(params, p: int, weight_shift: int = 0) -> CycNum:
    """psi(p) - phi(p) p^(k - weight_shift), the local quantity whose
    divisibility by lambda' drives the congruence conditions."""
    k = params.k - weight_shift
    return params.psi(p) - params.phi(p) * Fraction(p) ** k


def partial_l_order_data(params) -> CycNum:
    """Algebraic part of the Gauss-sum-normalised partial L-value
    L_{P(NM)}(k, psi phi^-1) / (g(psi phi^-1) (2 pi i)^k), carried exactly
    so that its lambda'-order equals the order of the normalised value.

    The transcendental factors are not represented; only the algebraic
    right-hand side of the functional-equation identity is.
    """
    n, m, k = params.N, params.M, params.k
    nm = n * m
    ps = primefactors(nm)
    sign = (-1) ** (len(ps) + k)
    pref = Fraction(sign, 2 * factorial(k - 1) * totient(nm) * (n * n * m) ** k)
    acc = l_value_at_negative(k, params.psi.inverse() * params.phi)
    for p in ps:
        acc = acc * euler_factor(params, p)
    return acc * pref


def bk_quotient_order_factor(params, d: int, weight_shift: int = 0) -> CycNum:
    """prod_{p | M/d} (psi(p) - phi(p) p^(k-ws)) / (totient(M/d) (M/d)^(k-ws)),
    whose lambda'-order is the predicted Selmer quotient order between
    levels NM and Nd."""
    if weight_shift not in (0, 2):
        raise ValueError("weight_shift must be 0 or 2")
    m = params.M
    if d < 1 or m % d or d == m:
        raise BadDivisor(f"d = {d} must be a proper divisor of M = {m}")
    md = m // d
    ks = params.k - weight_shift
    acc = CycNum.from_rational(Fraction(1, totient(md) * md**ks))
    for p in primefactors(md):
        acc = acc * euler_factor(params, p, weight_shift)
    return acc
