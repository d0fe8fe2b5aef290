"""Congruence-prime prediction: the two divisibility conditions, a search
over candidate residue characteristics, the level-raising hypothesis at a
single prime, and the Selmer-quotient order bookkeeping.

Candidate primes come from the rational norm of the full Condition-(1)
quantity: any prime of Z[psi, phi] with positive order contributes to the
norm numerator, so the enumeration cannot miss one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from sympy import factorint

from .cyclotomic import CycNum
from .eisenstein import EisensteinParams
from .lvalues import bk_quotient_order_factor, euler_factor, l_value_at_negative
from .residue import FFElem, PrimeAbove, ff_embed, ord_exact, ord_positive, primes_above, reduce_cyc


def value_conductor(params: EisensteinParams) -> int:
    """Conductor m with Z[psi, phi] = Z[zeta_m]."""
    return lcm(params.psi.order, params.phi.order)


def condition_one_quantity(params: EisensteinParams) -> CycNum:
    """L(1-k, psi^-1 phi) * prod_{p | M} (psi(p) - phi(p) p^k)."""
    acc = l_value_at_negative(params.k, params.psi.inverse() * params.phi)
    for p in params.m_primes:
        acc = acc * euler_factor(params, p)
    return acc


@dataclass(frozen=True)
class ConditionsReport:
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
    prime of M with both factor memberships kept separately."""
    if lam.ell != ell:
        raise ValueError("lambda' does not lie above ell")
    cond1 = ord_positive(condition_one_quantity(params), lam)
    cond2 = {}
    for p in params.m_primes:
        fk = ord_positive(euler_factor(params, p, 0), lam)
        fk2 = ord_positive(euler_factor(params, p, 2), lam)
        cond2[p] = {"factor_k": fk, "factor_k2": fk2}
    admissible = ell > params.k + 1 and (params.N * params.M) % ell != 0
    return ConditionsReport(params, ell, lam, cond1, cond2, admissible)


def _numerator_primes(x: CycNum) -> set[int]:
    n = abs(x.norm().numerator)
    return set(factorint(n)) if n > 1 else set()


def search_congruence_primes(params: EisensteinParams, ell_max: int | None = None,
                             include_failures: bool = False):
    """All (ell, lambda', report) with both conditions satisfied at an
    admissible ell, sorted by ell then by the canonical factor order.

    Candidates are the prime factors of the norm numerator of the
    Condition-(1) quantity, together with (diagnostics only) factors of
    the norms of the individual weight-(k-2) Euler quantities; the latter
    cannot pass Condition (1) but are checked and reported when
    include_failures is set.
    """
    m = value_conductor(params)
    candidates = _numerator_primes(condition_one_quantity(params))
    for p in params.m_primes:
        candidates |= _numerator_primes(euler_factor(params, p, 2))
    nm = params.N * params.M
    out = []
    for ell in sorted(candidates):
        if ell <= params.k + 1 or nm % ell == 0:
            continue
        if ell_max is not None and ell > ell_max:
            continue
        for lam in primes_above(ell, m):
            report = check_conditions(params, ell, lam)
            if report.satisfied or include_failures:
                out.append((ell, lam, report))
    out.sort(key=lambda t: (t[0], t[1].factor))
    return out


def diamond_hypothesis(params: EisensteinParams, a_p_image: FFElem,
                       lam: PrimeAbove) -> bool:
    """Level-raising hypothesis for M = p prime: whether
    a_p^2 = chi(p) p^(k-2) (1+p)^2 holds in a common residue field, for
    some compatible pair of embeddings of the two sides."""
    if len(params.m_primes) != 1:
        raise ValueError("the level-raising check applies to M = p prime")
    p = params.m_primes[0]
    k = params.k
    rhs_cyc = params.chi(p) * Fraction(p ** (k - 2) * (1 + p) ** 2)
    rhs = reduce_cyc(rhs_cyc, lam)
    lhs = a_p_image * a_p_image
    r = lcm(lhs.degree, rhs.degree)
    for jf in range(lhs.degree):
        for jc in range(rhs.degree):
            if ff_embed(lhs, r, jf) == ff_embed(rhs, r, jc):
                return True
    return False


@dataclass(frozen=True)
class BKReport:
    """Exact lambda'-orders of the two Bloch-Kato quotient quantities for
    levels NM over Nd, plus the set of primes that can carry new classes."""

    params: EisensteinParams
    lambda_prime: PrimeAbove
    d: int
    order_k: int
    order_k2: int
    p_new_primes: tuple = field(default_factory=tuple)

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


def bk_report(params: EisensteinParams, lam: PrimeAbove, d: int,
              cap: int = 64) -> BKReport:
    """Selmer-quotient orders at weight k and k-2 between levels NM and Nd,
    with the set S = {p | M : ord(psi(p) - phi(p) p^k) > 0}."""
    if params.M == 1:
        return BKReport(params, lam, d, 0, 0, ())
    ok = ord_exact(bk_quotient_order_factor(params, d, 0), lam, cap)
    ok2 = ord_exact(bk_quotient_order_factor(params, d, 2), lam, cap)
    s = tuple(p for p in params.m_primes
              if ord_positive(euler_factor(params, p, 0), lam))
    return BKReport(params, lam, d, ok, ok2, s)
