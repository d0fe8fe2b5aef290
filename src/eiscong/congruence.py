"""Congruence-prime prediction: the two divisibility conditions, a search
over candidate residue characteristics, the level-raising hypothesis at a
single prime, and the Selmer-quotient order bookkeeping.

A prime lambda' above ell counts when it divides the Condition-(1)
quantity L(1-k, psi^-1 phi) * prod_{p | M} E_p and, for every p | M, one
of E_p = psi(p) - phi(p) p^k and E'_p = psi(p) - phi(p) p^(k-2)
(Condition (2)).  Candidates for ell come from both conditions: as
gcd(N, M) = 1, psi(p) and phi(p) are roots of unity, so E_p and E'_p are
nonzero algebraic integers (their terms differ in absolute value), and
lambda' dividing either one puts ell in N(E_p) * N(E'_p); by Condition
(1) ell also divides the numerator of the Condition-(1) norm.  So one
integer is factored: the gcd of that numerator and of N(E_p) * N(E'_p)
over every p | M, which for M = 1 is the numerator itself.  The
enumeration cannot miss a prime that satisfies both conditions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .arith import factorint
from .cyclotomic import CycNum
from .eisenstein import EisensteinParams
from .errors import BadDivisor
from .lvalues import bk_quotient_order_factor
from .record import Record
from .residue import (FFElem, PrimeAbove, matching_prefix, ord_exact, ord_positive,
                      primes_above, reduce_cyc)


def value_conductor(params: EisensteinParams) -> int:
    """Conductor m with Z[psi, phi] = Z[zeta_m]."""
    return lcm(params.psi.order, params.phi.order)


class ConditionsReport(Record):
    """Outcome of the two conditions at one prime lambda' above ell."""

    params: EisensteinParams
    ell: int
    lambda_prime: PrimeAbove
    cond1: bool
    cond2: dict  # p -> {"factor_k": bool, "factor_k2": bool}
    admissible: bool

    @property
    def cond2_ok(self) -> bool:
        return all(v["factor_k"] or v["factor_k2"] for v in self.cond2.values())

    @property
    def satisfied(self) -> bool:
        return self.cond1 and self.cond2_ok and self.admissible

    def to_json(self) -> dict:
        return {
            "params": self.params.describe(),
            "ell": self.ell,
            "lambda_prime": self.lambda_prime.to_json(),
            "lambda_pretty": self.lambda_prime.pretty(),
            "cond1": self.cond1,
            "cond2": {str(p): dict(v) for p, v in sorted(self.cond2.items())},
            "cond2_ok": self.cond2_ok,
            "admissible": self.admissible,
            "satisfied": self.satisfied,
        }


def check_conditions(params: EisensteinParams, ell: int, lam: PrimeAbove) -> ConditionsReport:
    """Evaluate both conditions at lambda'; Condition (1) tests the combined
    L-value-times-Euler-product quantity, Condition (2) is reported per
    prime of M with both factor memberships kept separately.  Both are read
    off params, which evaluates them once; a wrong ell is refused first."""
    if lam.ell != ell:
        raise ValueError("lambda' does not lie above ell")
    cond1 = ord_positive(params.cond1_quantity, lam)
    cond2 = {p: {"factor_k": ord_positive(e_k, lam), "factor_k2": ord_positive(e_k2, lam)}
             for p, (e_k, e_k2) in params.euler_factors.items()}
    admissible = ell > params.k + 1 and (params.N * params.M) % ell != 0
    return ConditionsReport(params, ell, lam, cond1, cond2, admissible)


def check_conditions_above(params: EisensteinParams, ell: int) -> list[ConditionsReport]:
    """check_conditions at every prime above ell, in primes_above order."""
    return [check_conditions(params, ell, lam)
            for lam in primes_above(ell, value_conductor(params))]


def _norm_numerator(x: CycNum) -> int:
    return abs(x.norm().numerator)


def search_congruence_primes(params: EisensteinParams, ell_max: int | None = None):
    """All (ell, lambda', report) with both conditions satisfied at an
    admissible ell, sorted by ell then by the canonical factor order.

    The candidates for ell are the primes of one gcd: of the Condition-(1)
    norm numerator, which Condition (1) forces, and of N(E_p) N(E'_p) at
    every p | M, which Condition (2) forces (see the module docstring).
    With ell_max only the primes <= ell_max of that gcd are taken, which
    for ell_max <= 2^15 is trial division alone.
    """
    m = value_conductor(params)
    g = gcd(_norm_numerator(params.cond1_quantity),
            *(_norm_numerator(e_k) * _norm_numerator(e_k2)
              for e_k, e_k2 in params.euler_factors.values()))
    nm = params.N * params.M
    out = []
    # factorint lists primes in increasing order and primes_above lists
    # the factors in the canonical order, so out needs no sort
    for ell in (factorint(g, limit=ell_max) if g > 1 else ()):
        if ell <= params.k + 1 or nm % ell == 0:
            continue
        for lam in primes_above(ell, m):
            report = check_conditions(params, ell, lam)
            if report.satisfied:
                out.append((ell, lam, report))
    return out


def diamond_hypothesis(params: EisensteinParams, a_p_image: FFElem,
                       lam: PrimeAbove) -> bool:
    """Level-raising hypothesis for M = p prime: whether
    a_p^2 = chi(p) p^(k-2) (1+p)^2 holds in a common residue field, for
    some compatible pair of embeddings of the two sides."""
    if len(params.m_primes) != 1:
        raise ValueError("the level-raising check applies to M = p prime")
    if a_p_image.ell != lam.ell:
        raise ValueError(f"a_p lies in characteristic {a_p_image.ell}, lambda' above {lam.ell}")
    p = params.m_primes[0]
    k = params.k
    rhs_cyc = params.chi(p) * Fraction(p ** (k - 2) * (1 + p) ** 2)
    rhs = reduce_cyc(rhs_cyc, lam)
    pair = [(a_p_image * a_p_image, rhs)]
    r = lcm(a_p_image.degree, rhs.degree)
    return any(matching_prefix(pair, r, jc) for jc in range(rhs.degree))


class BKReport(Record):
    """Exact lambda'-orders of the two Bloch-Kato quotient quantities for
    levels NM over Nd, plus the set of primes that can carry new classes."""

    params: EisensteinParams
    lambda_prime: PrimeAbove
    d: int
    order_k: int
    order_k2: int
    p_new_primes: tuple = ()

    def to_json(self) -> dict:
        return {
            "params": self.params.describe(),
            "lambda_prime": self.lambda_prime.to_json(),
            "lambda_pretty": self.lambda_prime.pretty(),
            "d": self.d,
            "order_k": self.order_k,
            "order_k2": self.order_k2,
            "p_new_primes": list(self.p_new_primes),
        }


def bk_report(params: EisensteinParams, lam: PrimeAbove, d: int) -> BKReport:
    """Selmer-quotient orders at weight k and k-2 between levels NM and Nd,
    with the set S = {p | M : ord(psi(p) - phi(p) p^k) > 0}.  At M = 1 both
    levels are N and d must be 1: the report is trivial."""
    if params.M == 1:
        if d != 1:
            raise BadDivisor(f"d = {d} must be 1 when M = 1")
        return BKReport(params, lam, d, 0, 0, ())
    ok = ord_exact(bk_quotient_order_factor(params, d, 0), lam)
    ok2 = ord_exact(bk_quotient_order_factor(params, d, 2), lam)
    s = tuple(p for p, (e_k, _) in params.euler_factors.items() if ord_positive(e_k, lam))
    return BKReport(params, lam, d, ok, ok2, s)
