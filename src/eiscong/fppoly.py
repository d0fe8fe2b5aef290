"""Dense polynomial kernels over Z/m, specialised to prime moduli for
factorization and to prime powers for Hensel lifting.

Polynomials are lists of ints in [0, m), lowest degree first, trimmed.
Factorization is distinct-degree followed by Cantor-Zassenhaus
equal-degree splitting with a per-call seeded generator, so the factor
set (and hence every prime enumeration built on it) is reproducible.
Factorization and irreducibility over Q come from these kernels alone:
factor at a good prime, Hensel-lift, recombine.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm

from .arith import isprime, primefactors
from .errors import NotSquareFree


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def normalize(f, m: int) -> list[int]:
    return trim([c % m for c in f])


def add(f, g, m):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % m
    return trim(out)


def sub(f, g, m):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % m
    return trim(out)


def mul(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % m for c in out])


def scalar(f, c, m):
    c %= m
    return trim([a * c % m for a in f])


def divmod_poly(f, g, m):
    """Requires the leading coefficient of g to be invertible mod m."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, m)
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = f[-1] * inv % m
        d = len(f) - len(g)
        if c:
            q[d] = c
            for i, b in enumerate(g):
                f[d + i] = (f[d + i] - c * b) % m
        f.pop()
    return trim(q), trim(f)


def mod(f, g, m):
    return divmod_poly(f, g, m)[1]


def monic(f, m):
    if not f:
        return []
    return scalar(f, pow(f[-1], -1, m), m)


def gcd(f, g, ell):
    while g:
        f, g = g, mod(f, g, ell)
    return monic(f, ell)


def ext_gcd(f, g, ell):
    """(u, v, d) with u*f + v*g = d, d monic, over F_ell."""
    r0, r1 = list(f), list(g)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, ell)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, ell), ell)
        v0, v1 = v1, sub(v0, mul(q, v1, ell), ell)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, ell)
    return scalar(u0, inv, ell), scalar(v0, inv, ell), scalar(r0, inv, ell)


def pow_mod(base, e: int, modpoly, m):
    result = [1]
    base = mod(base, modpoly, m)
    while e:
        if e & 1:
            result = mod(mul(result, base, m), modpoly, m)
        base = mod(mul(base, base, m), modpoly, m)
        e >>= 1
    return result


def derivative(f, m):
    return trim([i * c % m for i, c in enumerate(f)][1:])


def is_irreducible(f, ell) -> bool:
    """Rabin's test for monic f over F_ell."""
    r = len(f) - 1
    if r <= 0:
        return False
    x = [0, 1]
    h = pow_mod(x, ell**r, f, ell)
    if sub(h, mod(x, f, ell), ell):
        return False
    for t in primefactors(r):
        h = pow_mod(x, ell ** (r // t), f, ell)
        if len(gcd(sub(h, x, ell), f, ell)) > 1:
            return False
    return True


def distinct_degree_factor(f, ell):
    """[(product of irreducible factors of degree d, d)] for squarefree
    monic f."""
    out = []
    x = [0, 1]
    h = list(x)
    d = 0
    while len(f) - 1 > 2 * (d + 1) - 2:
        d += 1
        h = pow_mod(h, ell, f, ell)
        g = gcd(sub(h, x, ell), f, ell)
        if len(g) > 1:
            out.append((g, d))
            f, rem = divmod_poly(f, g, ell)
            if rem:
                raise ArithmeticError(f"degree-{d} gcd does not divide f mod {ell}")
            h = mod(h, f, ell)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _split_equal_degree(f, d, ell, rng):
    """Split squarefree monic f, a product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [rng.randrange(ell) for _ in range(n)]
        r = trim(r)
        if len(r) < 2 and ell > 2:
            continue
        if ell == 2:
            w = []
            acc = list(r)
            for _ in range(d):
                w = add(w, acc, ell)
                acc = pow_mod(acc, 2, f, ell)
        else:
            w = sub(pow_mod(r, (ell**d - 1) // 2, f, ell), [1], ell)
        g = gcd(w, f, ell)
        if 1 < len(g) < len(f):
            rest, rem = divmod_poly(f, g, ell)
            if rem:
                raise ArithmeticError(f"split factor does not divide f mod {ell}")
            return _split_equal_degree(g, d, ell, rng) + \
                _split_equal_degree(monic(rest, ell), d, ell, rng)


def factor_squarefree(f, ell):
    """Sorted distinct irreducible factors of squarefree monic f over F_ell.

    The splitting RNG is seeded from the input, so concurrent calls are
    deterministic and independent.
    """
    f = monic(normalize(f, ell), ell)
    rng = random.Random((0, ell, tuple(f)).__repr__())
    out = []
    for block, d in distinct_degree_factor(f, ell):
        out.extend(_split_equal_degree(block, d, ell, rng))
    out.sort(key=lambda g: (len(g), tuple(g)))
    return out


@lru_cache(maxsize=None)
def lex_least_irreducible(ell: int, r: int) -> tuple[int, ...]:
    """Monic irreducible of degree r over F_ell with the least coefficient
    vector (compared as the base-ell integer c_0 + c_1 ell + ...)."""
    if r == 1:
        return (0, 1)
    count = 0
    while True:
        digits = []
        c = count
        for _ in range(r):
            digits.append(c % ell)
            c //= ell
        f = digits + [1]
        if is_irreducible(f, ell):
            return tuple(f)
        count += 1
        if count >= ell**r:
            raise RuntimeError("no irreducible polynomial found")


def hensel_lift_factor(full_int, f0, ell: int, precision: int):
    """Lift the monic irreducible factor f0 of full_int mod ell to a monic
    factor mod ell**precision (full_int monic over Z, reduction squarefree).

    Quadratic lifting; every step re-checks the factorization and Bezout
    identities, so a silent drift is impossible.
    """
    target = ell**precision
    fbar = normalize(full_int, ell)
    h = list(f0)
    g, rem = divmod_poly(fbar, h, ell)
    if rem:
        raise ValueError("f0 does not divide the reduction")
    sg, th, d = ext_gcd(g, h, ell)
    if d != [1]:
        raise ValueError("factor is not coprime to its cofactor (ramified?)")
    s, t = sg, th
    m = ell
    while m < target:
        m2 = m * m
        full = normalize(full_int, m2)
        e = sub(full, mul(g, h, m2), m2)
        q, r = divmod_poly(mul(s, e, m2), h, m2)
        g = add(g, add(mul(t, e, m2), mul(q, g, m2), m2), m2)
        h = add(h, r, m2)
        b = sub(add(mul(s, g, m2), mul(t, h, m2), m2), [1], m2)
        c, dd = divmod_poly(mul(s, b, m2), h, m2)
        s = sub(s, dd, m2)
        t = sub(t, add(mul(t, b, m2), mul(c, g, m2), m2), m2)
        m = m2
        if sub(full, mul(g, h, m), m):
            raise ArithmeticError(f"Hensel step lost the factorization mod {m}")
        if sub(add(mul(s, g, m), mul(t, h, m), m), [1], m):
            raise ArithmeticError(f"Hensel step lost the Bezout identity mod {m}")
    return normalize(h, target)


def _exact_quotient(g, h):
    """g / h in Z[x] for monic h, or None when h does not divide g."""
    r = list(g)
    q = [0] * (len(g) - len(h) + 1)
    for i in range(len(g) - len(h), -1, -1):
        c = q[i] = r[i + len(h) - 1]
        if c:
            for j, b in enumerate(h):
                r[i + j] -= c * b
    return None if any(r[:len(h) - 1]) else q


def factor_over_q(coeffs) -> list[list[Fraction]]:
    """Monic irreducible factors over Q of the squarefree monic rational
    polynomial coeffs (lowest degree first), by Zassenhaus (1969).

    x -> x/D with D the lcm of the denominators gives a monic g in Z[x],
    factored mod the good prime ell, among the first five, with the fewest
    factors. Each is Hensel-lifted until ell^a exceeds twice the
    Landau-Mignotte bound 2^d ||g||_2; products of ever more lifted factors
    are tried by exact division, and a factor found leaves g together with
    its lifted factors. A repeated factor raises NotSquareFree.
    """
    f = [Fraction(c) for c in coeffs]
    d = len(f) - 1
    if d <= 1:
        return [f] if d == 1 else []
    den = lcm(*(c.denominator for c in f))
    g = [int(c * den ** (d - i)) for i, c in enumerate(f)]
    norm = isqrt(sum(c * c for c in g)) + 1
    # a squarefree g has a discriminant 0 < |disc| <= d^d ||g||^(2d-2), so
    # fewer bad primes than its bit length; past them g has a square factor
    bad_left = (d ** d * norm ** (2 * d - 2)).bit_length()
    best = None
    ell, samples = 1, 5
    while samples:
        ell += 1
        if not isprime(ell):
            continue
        gbar = normalize(g, ell)
        if len(gcd(gbar, derivative(gbar, ell), ell)) > 1:
            bad_left -= 1
            if bad_left < 0:
                raise NotSquareFree("polynomial is not squarefree")
            continue
        factors = factor_squarefree(gbar, ell)
        if len(factors) == 1:
            return [f]
        if best is None or len(factors) < len(best[1]):
            best = (ell, factors)
        samples -= 1
    ell, factors = best
    a = 1
    while ell ** a <= 2 * 2 ** d * norm:
        a += 1
    m = ell ** a
    lifted = [hensel_lift_factor(g, u, ell, a) for u in factors]
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            h = [1]
            for i in subset:
                h = mul(h, lifted[i], m)
            h = [c - m if 2 * c > m else c for c in h]
            if (q := _exact_quotient(g, h)) is not None:
                found, g = found + [h], q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return [[Fraction(c, den ** (len(h) - 1 - i)) for i, c in enumerate(h)]
            for h in found + [g]]


def is_irreducible_over_q(coeffs) -> bool:
    """Whether the monic rational polynomial coeffs is irreducible over Q."""
    try:
        return len(factor_over_q(coeffs)) == 1
    except NotSquareFree:
        return False
