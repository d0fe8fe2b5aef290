"""Dense univariate polynomial arithmetic over the rationals.

Polynomials are lists of ``Fraction`` coefficients, lowest degree first,
with no trailing zeros; ``[]`` is the zero polynomial.  These exact
kernels serve the fixture builder (``scripts/make_fixtures.py``), which
does its coefficient-field arithmetic with them, and the test oracles;
the library itself does not import this module.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: list) -> int:
    """Degree with the convention deg 0 = -1."""
    return len(f) - 1


def from_ints(coeffs) -> list:
    return trim([Fraction(c) for c in coeffs])


def add(f: list, g: list) -> list:
    n = max(len(f), len(g))
    out = [_ZERO] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def neg(f: list) -> list:
    return [-c for c in f]


def sub(f: list, g: list) -> list:
    return add(f, neg(g))


def mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [_ZERO] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def scale(f: list, c) -> list:
    c = Fraction(c)
    if not c:
        return []
    return [a * c for a in f]


def divmod_poly(f: list, g: list) -> tuple[list, list]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [_ZERO] * max(0, len(f) - len(g) + 1)
    inv_lead = _ONE / g[-1]
    while len(f) >= len(g):
        c = f[-1] * inv_lead
        d = len(f) - len(g)
        if c:
            q[d] = c
            for i, b in enumerate(g):
                f[d + i] -= c * b
        f.pop()
    return trim(q), trim(f)


def mod(f: list, g: list) -> list:
    return divmod_poly(f, g)[1]


def monic(f: list) -> list:
    if not f:
        return []
    return scale(f, _ONE / f[-1])


def gcd(f: list, g: list) -> list:
    while g:
        f, g = g, mod(f, g)
    return monic(f)


def ext_gcd(f: list, g: list) -> tuple[list, list, list]:
    """Return (u, v, d) with u*f + v*g = d, d the monic gcd."""
    r0, r1 = list(f), list(g)
    u0, u1 = [_ONE], []
    v0, v1 = [], [_ONE]
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1))
        v0, v1 = v1, sub(v0, mul(q, v1))
    if not r0:
        return [], [], []
    lead = r0[-1]
    inv = _ONE / lead
    return scale(u0, inv), scale(v0, inv), scale(r0, inv)
