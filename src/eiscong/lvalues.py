"""Exact Bernoulli numbers, their chi-twisted generalisations, and the
Dirichlet L-values L(1-k, chi) they produce.

Conventions: B_1 = -1/2 in the plain sequence, while the twisted number
attached to the trivial character at k = 1 is +1/2 (the two standard
conventions disagree only there, and nothing downstream evaluates at
k = 1 anyway since all Eisenstein parameters require k > 2).

Everything is exact; the only consumer of these values is prime-ideal
valuation, so no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .arith import primefactors, totient
from .characters import DirichletChar
from .cyclotomic import CycNum
from .errors import BadDivisor

_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the recurrence sum_j C(m+1, j) B_j = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    while len(_BERNOULLI) <= k:
        m = len(_BERNOULLI)
        acc = sum(comb(m + 1, j) * _BERNOULLI[j] for j in range(m))
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[k]


def bernoulli_poly(k: int) -> list[Fraction]:
    """Coefficients of B_k(x) = sum_j C(k, j) B_j x^(k-j), lowest first."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        out[k - j] = comb(k, j) * bernoulli(j)
    while out and out[-1] == 0:
        out.pop()
    return out


def generalized_bernoulli(k: int, chi: DirichletChar) -> CycNum:
    """B_{k,chi} = F^(k-1) sum_{a=1}^{F} chi(a) B_k(a/F) at the character's
    own modulus F."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = chi.modulus
    poly = bernoulli_poly(k)
    total = CycNum.zero(1)
    for a in range(1, f + 1):
        val = chi(a)
        if val:
            b = Fraction(0)
            x = Fraction(a, f)
            for c in reversed(poly):
                b = b * x + c
            total = total + val * b
    return total * Fraction(f) ** (k - 1)


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
