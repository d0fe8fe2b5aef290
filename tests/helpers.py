"""Shared independent oracles for the test suite.

Numeric embeddings go through mpmath at high precision so that exact
values computed by the package can be cross-checked against an
implementation-independent path (direct complex sums, Hurwitz zeta).

The q-expansion reference below keeps one CycNum per coefficient and
applies E_delta, alpha_m and T_p coefficient by coefficient, as the
package did before it stored q-expansions as integer rows; its to_json()
is the oracle for the row operations, conductors included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from eiscong.characters import DirichletChar
from eiscong.cyclotomic import CycNum
from eiscong.eisenstein import sigma_power_div
from eiscong.lvalues import l_value_at_negative

mp.mp.dps = 60


def cyc_to_complex(x: CycNum) -> mp.mpc:
    """Embed zeta_n -> exp(2 pi i / n)."""
    z = mp.e ** (2j * mp.pi / x.conductor)
    acc = mp.mpc(0)
    for c in reversed(x.coeffs):
        acc = acc * z + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


def assert_close(x: CycNum, target, tol=1e-35):
    got = cyc_to_complex(x)
    assert abs(got - target) < tol, f"{got} != {target}"


def char_to_complex(chi, n) -> mp.mpc:
    e = chi.exponent(n)
    if e is None:
        return mp.mpc(0)
    return mp.e ** (2j * mp.pi * mp.mpf(e.numerator) / mp.mpf(e.denominator))


def random_cycnum(rng: random.Random, conductor: int, size: int = 9) -> CycNum:
    from sympy import totient
    coeffs = [Fraction(rng.randrange(-size, size + 1),
                       rng.randrange(1, 4)) for _ in range(int(totient(conductor)))]
    return CycNum(conductor, coeffs)


@dataclass(frozen=True)
class CoeffQExpansion:
    """Truncated q-expansion as one CycNum per coefficient."""

    weight: int
    level: int
    character: DirichletChar
    coeffs: tuple

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, b: int) -> "CoeffQExpansion":
        assert b <= self.precision
        return CoeffQExpansion(self.weight, self.level, self.character, self.coeffs[: b + 1])

    def scale(self, c) -> "CoeffQExpansion":
        return CoeffQExpansion(self.weight, self.level, self.character,
                               tuple(a * c for a in self.coeffs))

    def sub(self, other: "CoeffQExpansion") -> "CoeffQExpansion":
        b = min(self.precision, other.precision)
        return CoeffQExpansion(self.weight, self.level, self.character,
                               tuple(self.coeffs[n] - other.coeffs[n] for n in range(b + 1)))

    def to_json(self) -> dict:
        return {"weight": self.weight, "level": self.level,
                "character": self.character.label, "precision": self.precision,
                "coeffs": [c.to_json() for c in self.coeffs]}


def ref_eisenstein_qexp(params, b: int) -> CoeffQExpansion:
    """The base series from sigma_power_div, outside the series cache."""
    if params.psi.modulus == 1:
        a0 = l_value_at_negative(params.k, params.psi.inverse() * params.phi) * Fraction(1, 2)
    else:
        a0 = CycNum.zero(1)
    coeffs = [a0] + [sigma_power_div(n, params.k, params.psi, params.phi)
                     for n in range(1, b + 1)]
    return CoeffQExpansion(params.k, params.N, params.chi, tuple(coeffs))


def ref_alpha_m(f: CoeffQExpansion, m: int) -> CoeffQExpansion:
    if m == 1:
        return f
    zero = CycNum.zero(1)
    coeffs = tuple(f.coeffs[n // m] if n % m == 0 else zero
                   for n in range(f.precision + 1))
    return CoeffQExpansion(f.weight, f.level * m, f.character.lift(f.level * m), coeffs)


def ref_hecke_tp(f: CoeffQExpansion, p: int, out_prec: int | None = None) -> CoeffQExpansion:
    if out_prec is None:
        out_prec = f.precision // p
    assert out_prec * p <= f.precision
    cp = f.character(p) * Fraction(p) ** (f.weight - 1)
    coeffs = []
    for n in range(out_prec + 1):
        a = f.coeffs[n * p]
        if n % p == 0:
            a = a + cp * f.coeffs[n // p]
        coeffs.append(a)
    return CoeffQExpansion(f.weight, f.level, f.character, tuple(coeffs))


def ref_e_delta(params, delta, b: int) -> CoeffQExpansion:
    """prod_{p | M} (1 - delta_p alpha_p) E, each factor rewriting a_n for
    the multiples n of p downwards, so a_(n/p) is read before it is
    rewritten."""
    coeffs = list(ref_eisenstein_qexp(params, b).coeffs)
    for p in params.m_primes:
        d = delta.delta(p)
        for n in range(b - b % p, -1, -p):
            coeffs[n] = coeffs[n] - d * coeffs[n // p]
    return CoeffQExpansion(params.k, params.N * params.M, params.chi_tilde, tuple(coeffs))


def ref_e_delta_via_hecke(params, delta, b: int) -> CoeffQExpansion:
    work = b * params.M
    f = ref_alpha_m(ref_eisenstein_qexp(params, work), params.M)
    for p in params.m_primes:
        out = f.precision // p
        f = ref_hecke_tp(f, p, out).sub(f.truncate(out).scale(delta.delta(p)))
    return f.truncate(b)
