"""Integer arithmetic for the runtime: primes, primality and factoring.

A bytearray sieve serves the primes below 2^15 and :func:`primerange`.
:func:`isprime` is trial division followed by BPSW (a strong base-2
test and a strong Lucas test with Selfridge's parameters; Baillie and
Wagstaff, 1980), which no composite is known to pass.

:func:`factorint` takes out the primes below 2^15 by trial division (for
n >= 2^30, only of those dividing gcd(n, their product)), then splits
each cofactor that is neither prime nor a perfect power with a short
Brent rho, Pollard's p-1 (stage 1), and two-stage ECM on Montgomery
curves with Suyama's parametrisation (Lenstra, 1987; Montgomery, 1987).
ECM's first round is sized for the 9-15-digit primes the search's norms
carry: B1 = 2000, the 15-digit row of Zimmermann and Dodson's table
(*20 Years of ECM*, 2006), with B2 = 50 B1.  Stage 1 starts from a
base point of Z = 1, and its result is brought to Z = 1 before stage 2,
so the difference in every differential addition of a Montgomery ladder
has Z = 1.
Stage 2 brings its baby and giant steps to Z = 1 with one batched
inversion, so that each prime in (B1, B2] costs one multiplication
(Montgomery, 1987).
The curve generator is seeded from the integer, so every factorization
is reproducible.  The result is checked before it is returned: the
prime powers multiply back to n and every prime passes :func:`isprime`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt, prod

_TRIAL = 1 << 15


def _sieve(n: int) -> bytearray:
    """flags[i] == 1 exactly when i < n is prime, for n >= 2."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n, p)))
    return flags


_SMALL = _sieve(_TRIAL)
_SMALL_PRIMES = list(compress(range(_TRIAL), _SMALL))
_ISPRIME_TRIAL = _SMALL_PRIMES[:54]  # the primes below 256


def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, in increasing order (segmented sieve)."""
    a = max(a, 2)
    if b <= a:
        return []
    if b <= _TRIAL:
        return list(compress(range(a, b), _SMALL[a:b]))
    flags = bytearray([1]) * (b - a)
    for p in primerange(2, isqrt(b - 1) + 1):
        start = max(p * p, -(-a // p) * p) - a
        flags[start::p] = bytes(len(range(start, b - a, p)))
    return list(compress(range(a, b), flags))


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_probable_prime_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with P = 1 and Selfridge's D (odd n, not a square)."""
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_j, V_j and Q^j mod n for j the prefix of k read so far, from j = 1
    u, v, qj = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qj = u * v % n, (v * v - 2 * qj) % n, qj * qj % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = (u + n if u & 1 else u) // 2 % n
            v = (v + n if v & 1 else v) // 2 % n
            qj = qj * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
        if v == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Trial division by the primes below 256, then BPSW."""
    if n < _TRIAL:
        return n >= 2 and bool(_SMALL[n])
    for p in _ISPRIME_TRIAL:
        if n % p == 0:
            return False
    if isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime_base2(n) and _strong_lucas_probable_prime(n)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with r^k = n and k maximal, for n free of primes below 2^15."""
    for k in _SMALL_PRIMES:
        if _TRIAL ** k > n:
            break
        r = _iroot(n, k)
        if r ** k == n:
            s, j = _perfect_power(r)
            return s, j * k
    return n, 1


@lru_cache(maxsize=None)
def _primorial() -> int:
    return prod(_SMALL_PRIMES)


@lru_cache(maxsize=None)
def _smooth_exponent(bound: int) -> int:
    """The product of the largest powers of each prime p <= bound that
    stay <= bound."""
    out = 1
    for p in primerange(2, bound + 1):
        q = p
        while q * p <= bound:
            q *= p
        out *= q
    return out


def _pminus1(n: int) -> int | None:
    """Pollard p-1, stage 1 to 10^4."""
    g = gcd(pow(2, _smooth_exponent(10_000), n) - 1, n)
    return g if 1 < g < n else None


def _brent_rho(n: int, max_r: int) -> int | None:
    """Brent's variant of Pollard rho on x -> x^2 + 1, cycle lengths up to
    max_r, with one gcd per 128 steps."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    while g == 1 and r <= max_r:
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + 1) % n
            g = gcd(x - ys, n)
    return g if 1 < g < n else None


# -- ECM: x-only arithmetic on b y^2 = x^3 + A x^2 + x, a24 = (A + 2) / 4 --

def _xdbl(x, z, a24, n):
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(xp, zp, xq, zq, xd, zd, n):
    """P + Q from P, Q and P - Q (zd = 1 in the ladder, whose difference
    is its base point)."""
    u = (xp - zp) * (xq + zq) % n
    v = (xp + zp) * (xq - zq) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k, x, a24, n):
    """k * (x : 1) by the Montgomery ladder, k >= 1 (checked: k = 0 would
    return (x : 1) itself and a negative k a meaningless point)."""
    if k < 1:
        raise ValueError(f"ladder multiplier must be >= 1, got {k}")
    x0, z0, x1, z1 = x, 1, *_xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0 = _xadd(x1, z1, x0, z0, x, 1, n)
            x1, z1 = _xdbl(x1, z1, a24, n)
        else:
            x1, z1 = _xadd(x1, z1, x0, z0, x, 1, n)
            x0, z0 = _xdbl(x0, z0, a24, n)
    return x0, z0


@lru_cache(maxsize=4)
def _stage_two_plan(b1: int, b2: int) -> tuple[int, int, tuple]:
    """(D, r0, blocks): the primes in [b1, b2] written r + 2*delta with
    r = r0 + 2*D*i and 1 <= delta <= D; blocks[i] lists those deltas.
    Stage 2 ladders to r0 - 2D, so r0 > 2D is required (about b1^2 > 4 b2)."""
    d = isqrt(b2)
    r0 = b1 - 1 if b1 % 2 == 0 else b1 - 2
    if r0 <= 2 * d:
        raise ValueError(f"stage 2 plan needs r0 = {r0} > 2D = {2 * d} (b1 = {b1}, b2 = {b2})")
    flags = _sieve(b2 + 2 * d + 1)
    blocks = tuple(tuple(compress(range(1, d + 1), flags[r + 2: r + 2 * d + 1: 2]))
                   for r in range(r0, b2, 2 * d))
    return d, r0, blocks


def _normalise(xs: list, zs: list, n: int) -> int:
    """g = gcd(prod zs, n); when g is 1, each xs[i] is replaced by
    xs[i] / zs[i] mod n, with one inversion for all of them (Montgomery's
    trick), and otherwise xs is left scaled."""
    total = 1
    for i, z in enumerate(zs):
        xs[i] = xs[i] * total % n  # times zs[0] ... zs[i - 1]
        total = total * z % n
    g = gcd(total, n)
    if g != 1:
        return g
    inv = pow(total, -1, n)  # 1 / (zs[0] ... zs[i]), for i from the last down
    for i in reversed(range(len(xs))):
        xs[i] = xs[i] * inv % n
        inv = inv * zs[i] % n
    return 1


def _ecm_curve(n: int, b1: int, b2: int, rng: random.Random) -> int | None:
    """One curve: stage 1 to b1, stage 2 to b2; a proper factor or None."""
    sigma = rng.randrange(6, n - 1)
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    den = 16 * pow(u, 3, n) * v % n
    g = gcd(den, n)
    if g != 1:
        return g if g < n else None
    inv = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * inv % n
    v_inv = 16 * pow(u, 3, n) * inv % n  # den = 16 u^3 v
    x, z = _ladder(_smooth_exponent(b1), pow(u * v_inv, 3, n), a24, n)  # from (u^3 / v^3 : 1)
    g = gcd(z, n)
    if g != 1:
        return g if g < n else None
    x = x * pow(z, -1, n) % n  # Q = (x : 1)
    d, r0, blocks = _stage_two_plan(b1, b2)
    # (xs[j] : zs[j]) = 2j * Q for 1 <= j <= d after a placeholder (0 : 1),
    # then r * Q for r = r0 + 2 d i, one per block; kept as two lists of
    # ints, not as tuples, to hold the memory peak down
    x2, z2 = _xdbl(x, 1, a24, n)
    x4, z4 = _xdbl(x2, z2, a24, n)
    xs, zs = [0, x2, x4], [1, z2, z4]
    for _ in range(3, d + 1):
        xj, zj = _xadd(xs[-1], zs[-1], x2, z2, xs[-2], zs[-2], n)
        xs.append(xj)
        zs.append(zj)
    x2d, z2d = xs[-1], zs[-1]
    t, r = _ladder(r0 - 2 * d, x, a24, n), _ladder(r0, x, a24, n)
    for _ in blocks:
        xs.append(r[0])
        zs.append(r[1])
        t, r = r, _xadd(*r, x2d, z2d, *t, n)
    g = _normalise(xs, zs, n)
    if g != 1:
        return g if g < n else None
    acc = 1
    for x_r, deltas in zip(islice(xs, d + 1, None), blocks):
        for delta in deltas:
            # zero mod p when r * Q = +-2 delta * Q mod p
            acc = acc * (x_r - xs[delta]) % n
    g = gcd(acc, n)
    return g if 1 < g < n else None


def _ecm(n: int, rng: random.Random) -> int:
    """Curves until one splits n: 25 with B1 = 2000 and B2 = 50 B1, then
    each round five times B1 and twice the curves."""
    b1, curves = 2000, 25
    while True:
        for _ in range(curves):
            g = _ecm_curve(n, b1, 50 * b1, rng)
            if g:
                return g
        b1, curves = 5 * b1, 2 * curves


def _proper_factor(n: int, rng: random.Random) -> int:
    """A divisor 1 < g < n of the odd composite n, not a perfect power.

    A short rho comes first: it splits a cofactor with a prime below about
    10^6 in under a millisecond, while p-1 costs 2-5 ms even when it fails.
    No longer rho follows p-1: one with cycles to 2^14 spent about 30 ms
    failing on each cofactor whose least prime has 11 digits or more, and
    ECM's first round also finds the 7-10-digit primes it split, in 1-3
    curves of about 15 ms each.
    """
    return _brent_rho(n, 1 << 10) or _pminus1(n) or _ecm(n, rng)


def _factor_large(n: int, out: dict[int, int]):
    """Add to out the factorization of n, which has no prime below 2^15."""
    rng = random.Random(n)
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if m < _TRIAL * _TRIAL or isprime(m):
            out[m] = out.get(m, 0) + e
            continue
        r, k = _perfect_power(m)
        if k > 1:
            stack.append((r, e * k))
            continue
        g = _proper_factor(m, rng)
        stack += [(g, e), (m // g, e)]


def _remove(n: int, p: int) -> tuple[int, int]:
    """(n / p^e, e) with p^e the largest power of p dividing n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def factorint(n: int, limit: int | None = None) -> dict[int, int]:
    """{p: e} with n = prod p^e, in increasing p, for n >= 1.

    With limit, only the primes p <= limit: for limit <= 2^15 this is
    trial division alone and nothing is factored; for a larger limit n
    is factored in full and the result filtered.  Raises ArithmeticError
    if the factorization does not multiply back to n or holds a p that
    fails isprime.
    """
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict[int, int] = {}
    rest = n
    trial_only = limit is not None and limit <= _TRIAL
    # small has the primes below 2^15 that divide n, and no others once
    # n >= 2^30: one gcd in place of trial division of a large n
    small = n if n < _TRIAL * _TRIAL else gcd(n, _primorial())
    for p in _SMALL_PRIMES:
        if p * p > small or trial_only and p > limit:
            break
        if small % p == 0:
            small = _remove(small, p)[0]
            rest, out[p] = _remove(rest, p)
    if small > 1 and p * p > small:  # every prime below p is out, so small is prime
        rest, out[small] = _remove(rest, small)
    if rest > 1 and not trial_only:
        _factor_large(rest, out)
        rest = 1
    if prod(p ** e for p, e in out.items()) * rest != n or not all(map(isprime, out)):
        raise ArithmeticError(f"factorization of {n} failed its check: {out}")
    return {p: e for p, e in sorted(out.items()) if limit is None or p <= limit}


def primefactors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing."""
    return list(factorint(n))


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, increasing."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


def totient(n: int) -> int:
    """Euler's phi of n >= 1."""
    out = n
    for p in factorint(n):
        out -= out // p
    return out


def multiplicative_order(a: int, n: int) -> int:
    """The least e >= 1 with a^e = 1 mod n, for n >= 1 and a prime to n:
    phi(n) with each prime p taken out while a^(e/p) is still 1."""
    if n < 1:
        raise ValueError(f"multiplicative_order needs n >= 1, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not prime to {n}")
    order = totient(n)
    for p in factorint(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order
