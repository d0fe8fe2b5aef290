"""Spaces of modular forms with character, and their newform eigensystems,
from Manin symbols (W. Stein, *Modular Forms: A Computational Approach*,
2007, ch. 8; L. Merel, *Universal Fourier expansions of modular forms*,
LNM 1585, 1994).

M_k(Gamma_0(N), chi) is the sign-(+1) quotient of the symbols [X^i
Y^(k-2-i), (u : v)], (u : v) in P^1(Z/N), over Q(zeta_c), c = ord chi:
one elimination leaves the free symbols as a basis, of size dim S_k plus
the E_k(psi, phi)(tz) with psi(-1) = +1, those of sign +1 under the star
involution (Stein, ch. 8).  Every T_n, U_p at p | N included, is a sum
over Merel's Heilbronn matrices of determinant n, and the matrices act
on linear forms on the quotient.  Levels are square-free and k >= 3, so
the new part is the joint kernel of U_p^2 - chi0(p) p^(k-2) over the p |
N prime to cond(chi): a newform has a_p^2 = chi0(p) p^(k-2) there (W.-C.
W. Li, Math. Ann. 212, 1975), while U_p has eigenvalues of absolute
value p^((k-1)/2) on p-old forms (P. Deligne, *La conjecture de Weil I*,
1974) and 1 or p^(k-1) on Eisenstein series.  Less the Eisenstein series
it holds where no such p exists, it is checked against the newform
dimension.  C = zeta_c + T_q1 + ... + T_qj takes the primes q1 < q2 <
... not dividing N until it separates the new part, none past a Sturm
bound.  The eigenvector phi, a linear form, of a factor g of the minimal
polynomial m of C on a form u0 of the new part is r(C) u0, r = m / (x -
x mod g), read off the Krylov vectors C^j u0, and a_n = phi(T_n x) /
phi(x) for one Manin symbol x.  g is Eisenstein when it vanishes at the
C-eigenvalue of an E_k(psi, phi).  Each packet is verified (coefficient
multiplicativity and recursions, Atkin-Lehner squares) before it becomes
a NewformData.  Linear algebra is :mod:`eiscong.linalg` over Q; an
element of K = Q[x]/(g) is a list of Fractions, lowest degree first.

The checks are code, not asserts, so they hold under ``python -O``.
Progress goes to stderr; nothing here writes to stdout.  The command
line does not import this module.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import count, permutations, product
from math import comb, gcd, isqrt, lcm

from . import fppoly
from .arith import divisors, isprime, primefactors, primerange
from .characters import DirichletChar, parity_matches, primitive_characters
from .cyclotomic import CycNum, _divide_monic, _phi, clear_denominators, cyclotomic_poly
from .fppoly import trim
from .linalg import Echelon, kernel, solver
from .newforms import NewformData, gamma0_index, sturm_bound

ZERO = Fraction(0)
ONE = Fraction(1)


def require(ok, msg):
    """A check that python -O keeps: raise AssertionError(msg) unless ok."""
    if not ok:
        raise AssertionError(msg)


def log(msg: str):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


# -- Manin symbols ------------------------------------------------------

# x - xJ (sign +1), x + xS and x + xT + xT^2 as pairs (g, coefficient of xg),
# g = (a, b, c, d) for [[a, b], [c, d]]; the two-term ones first keep rows short
RELATIONS = ((((1, 0, 0, 1), 1), ((-1, 0, 0, 1), -1)),
             (((1, 0, 0, 1), 1), ((0, -1, 1, 0), 1)),
             (((1, 0, 0, 1), 1), ((0, -1, 1, -1), 1), ((-1, 1, -1, 0), 1)))


def p1_classes(level: int):
    """P^1(Z/level), square-free level: the class representatives (u0, v0),
    and the map (u, v) -> (class, lam), (u, v) = lam (u0, v0) mod level with
    lam a unit, or None where gcd(u, v, level) > 1.  Each prime p takes
    (u, v) to (0 : 1) or (1 : t), and CRT joins the primes."""
    primes = primefactors(level)
    idem = [level // p * pow(level // p, -1, p) for p in primes]  # 1 mod p, 0 mod the rest

    @cache
    def normalise(u, v):
        cls, lam = 0, 0
        for p, e in zip(primes, idem):
            if u % p:
                local, lam_p = 1 + v * pow(u, -1, p) % p, u
            elif v % p:
                local, lam_p = 0, v
            else:
                return None
            cls, lam = cls * (p + 1) + local, lam + e * lam_p
        return cls, lam % level

    locs = product(*([(0, 1)] + [(1, t) for t in range(p)] for p in primes))  # normalise's order
    return [tuple(sum(e * uv[j] for e, uv in zip(idem, loc)) % level for j in (0, 1))
            for loc in locs], normalise


def heilbronn(n: int) -> list[tuple[int, int, int, int]]:
    """Merel's matrices [[a, b], [c, d]] of determinant n with a > b >= 0
    and d > c >= 0: c = 0 or b = 0 where ad = n, else b = (ad - n) / c."""
    out = []
    for a in range(1, n + 1):
        d0, r = divmod(n, a)
        if r == 0:
            out += [(a, b, 0, d0) for b in range(a)] + [(a, 0, c, d0) for c in range(1, d0)]
        out += [(a, bc // c, c, d) for d in range(d0 + 1, n + 1) for bc in (a * d - n,)
                for c in range(bc // a + 1, d) if bc % c == 0]
    return out


# -- K = Q[x]/(g) arithmetic (lists of Fractions, lowest degree first) ---


class KField:
    """K = Q[x]/(g) for monic irreducible g; elements are trimmed lists of
    Fractions of length at most deg g."""

    def __init__(self, g: list[Fraction]):
        self.g = trim([Fraction(c) for c in g])
        require(self.g[-1] == 1, "KField needs a monic modulus")
        self.deg = len(self.g) - 1

    def mul(self, a, b):
        """The product, reduced by the monic g."""
        if not a or not b:
            return []
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        _divide_monic(out, self.g)
        return trim(out[:self.deg])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return trim(out)

    def combo(self, pairs):
        """sum c x over the (c, x) pairs, c rational and x in K."""
        out = [ZERO] * self.deg
        for c, x in pairs:
            if c:
                for i, xi in enumerate(x):
                    out[i] += c * xi
        return trim(out)

    def powers(self, a, n: int) -> list[list[Fraction]]:
        """1, a, ..., a^(n-1)."""
        out = [[ONE]]
        for _ in range(n - 1):
            out.append(self.mul(out[-1], a))
        return out

    def inv(self, a):
        """y with a*y = 1: the coordinates of 1 over the columns a*x^j."""
        cols = [self.mul(a, xj) for xj in self.powers([ZERO, ONE], self.deg)]
        return trim(self.coords_over(cols)([ONE]))

    def trace(self, a) -> Fraction:
        """Tr_{K/Q}(a), the trace of multiplication by a on the power basis."""
        cols = (self.mul(a, xj) for xj in self.powers([ZERO, ONE], self.deg))
        return sum((col[j] for j, col in enumerate(cols) if j < len(col)), ZERO)

    def eval_poly(self, coeffs, point):
        """Evaluate a polynomial with Fraction coefficients at a K-point."""
        acc: list[Fraction] = []
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, point), [Fraction(c)])
        return acc

    def coords_over(self, elements):
        """The map taking a K-element to its coordinates as a Q-combination
        of the given K-elements, from one elimination of them."""
        def pad(x):
            return list(x) + [ZERO] * (self.deg - len(x))

        solve = solver([pad(e) for e in elements])

        def coords(a) -> list[Fraction]:
            y = solve(pad(a))
            require(y is not None, "element is not a Q-combination of the given ones")
            return y

        return coords


# -- Space builder ---------------------------------------------------


def cohen_oesterle_dim_cusp(k: int, chi: DirichletChar) -> int:
    """dim S_k(Gamma_0(N), chi) by Cohen-Oesterle (LNM 627) for k >= 3 and
    square-free N, where each prime p | N has lambda = 2."""
    n = chi.modulus
    term = Fraction(k - 1, 12) * gamma0_index(n)
    prod_term = 2 ** len(primefactors(n))
    gamma_k = {0: Fraction(1, 4), 2: Fraction(-1, 4)}.get(k % 4, ZERO)
    mu_k = {0: Fraction(1, 3), 2: Fraction(-1, 3)}.get(k % 3, ZERO)
    e4 = sum((chi(x) for x in range(n) if (x * x + 1) % n == 0), CycNum.zero(1))
    e3 = sum((chi(x) for x in range(n) if (x * x + x + 1) % n == 0), CycNum.zero(1))
    total = term - Fraction(1, 2) * prod_term \
        + gamma_k * e4.rational_value() + mu_k * e3.rational_value()
    require(total.denominator == 1, f"dimension formula gave {total}")
    return int(total)


def newform_dimension(k: int, chi: DirichletChar) -> int:
    """dim S_k^new(Gamma_0(N), chi), N the square-free modulus of chi: the
    sum over the d | N with cond(chi) | d of (-2)^omega(N/d)
    dim S_k(Gamma_0(d), chi), the inverse of
    dim S_k(N) = sum_d sigma_0(N/d) dim S_k^new(d)."""
    n, chi0 = chi.modulus, chi.primitive()
    return sum((-2) ** len(primefactors(n // d)) * cohen_oesterle_dim_cusp(k, chi0.lift(d))
               for d in divisors(n) if d % chi0.modulus == 0)


class Space:
    """M_k(Gamma_0(level), chi), square-free level and k >= 3, as the
    sign-(+1) quotient of its Manin symbols over Q(zeta_c), c = ord chi.
    Symbol s = (k - 1) class + i is [X^i Y^(k-2-i), reps[class]], with w =
    phi(c) columns, one per power of zeta_c.  q is the least prime not
    dividing the level, the Atkin-Lehner primes are the p | level prime to
    cond(chi), and newform packets carry a_1 .. a_b0."""

    def __init__(self, level: int, k: int, chi: DirichletChar, b0: int):
        require(all(level % (p * p) for p in primefactors(level)),
                f"level {level} is not square-free")
        require(k >= 3, f"weight {k} < 3: Eisenstein series would pass as new")
        require(chi.parity == (-1) ** k, f"chi(-1) != (-1)^{k}: the space is 0")
        self.level, self.k, self.chi, self.chi0, self.b0 = level, k, chi, chi.primitive(), b0
        self.q = next(p for p in count(2) if level % p and isprime(p))
        # newforms whose a_p agree at the p <= hecke_bound prime to the level are equal: rid of
        # their a_n at the n not prime to it (f - a_p f(p tau) at each p | level), they agree to
        # the Sturm bound of level level^2 (Sturm, LNM 1240, 1987), then strong multiplicity one
        self.hecke_bound = max(self.q, sturm_bound(k, level * level))
        self.al_primes = [p for p in primefactors(level) if self.chi0.modulus % p]
        require(b0 >= max([self.q, *self.al_primes]),
                f"b0 = {b0}: a packet's checks read a_q and each Atkin-Lehner a_p")
        self.c, self.w = chi.order, _phi(chi.order)
        # E_k(psi, phi)(tz), t | level / (u v), psi phi inducing chi, psi and phi primitive of
        # conductors u and v: T_p-eigenvalue psi(p) + phi(p) p^(k-1), sign +1 iff psi(-1) = +1
        pairs = [(psi, phi, len(divisors(level // (u * v)))) for u in divisors(level)
                 for v in divisors(level // u) for psi in primitive_characters(u)
                 for phi in primitive_characters(v)
                 if parity_matches(psi, phi, k) and (psi * phi).primitive() == self.chi0]
        self.eis_pairs = [(psi, phi) for psi, phi, _ in pairs]
        self.dim_eis = sum(t for psi, _, t in pairs if psi.parity == 1)
        self.dim_cusp = cohen_oesterle_dim_cusp(k, chi)
        self.reps, p1 = p1_classes(level)
        slots = [chi.slot(lam) for lam in range(level)]  # normalise: (class, slot of chi(lam))
        self.normalise = lambda u, v: (cls := p1(u % level, v % level)) and (cls[0], slots[cls[1]])
        self.binomials = [[comb(n, j) for j in range(n + 1)] for n in range(k - 1)]
        self.zeta_rows = [CycNum.zeta(self.c, e).num for e in range(self.c)]
        self.n_cols = len(self.reps) * (k - 1) * self.w
        ech = Echelon()
        for relation in RELATIONS:
            seen = set()  # the classes of (u, v) g over the relation's g share its relations
            for cls, (u, v) in enumerate(self.reps):
                if cls not in seen:
                    seen.update(self.normalise(u * a + v * c, u * b + v * d)[0]
                                for (a, b, c, d), _ in relation)
                    for i, t in product(range(k - 1), range(self.w)):
                        terms = {}
                        for g, x in relation:
                            self.act(terms, x, i, u, v, g, t)
                        ech.add(self.flat(terms))
        rows = dict(zip(ech.pivots, ech.rows))
        free = [col for col in range(self.n_cols) if col not in rows]
        self.basis = [col // self.w for col in free[::self.w]]
        self.dim_q = len(free)
        require(free == [s * self.w + t for s in self.basis for t in range(self.w)],
                "the free columns do not fill whole symbols")
        require(self.dim_q == self.w * (self.dim_cusp + self.dim_eis),
                f"quotient dimension {self.dim_q} != {self.w} ({self.dim_cusp} + {self.dim_eis})")
        # a column's coordinates: its remainder at the free columns, less its row if a pivot
        self.coords = [[-rows[col][j] if col in rows else int(j == col) for j in free]
                       for col in range(self.n_cols)]
        log(f"space {level}.{k}.{chi.label}: dim {self.dim_cusp} + {self.dim_eis}, c = {self.c}")

    def act(self, terms: dict, x: int, i: int, u: int, v: int, g, t: int):
        """terms += x zeta_c^t [X^i Y^(k-2-i), (u, v)] g, where [P, (u, v)] g =
        [P(aX + bY, cX + dY), (ua + vc, ub + vd)], [P, lam (u0, v0)] = chi(lam)
        [P, (u0, v0)], and 0 where (u, v) g is not prime to the level: terms
        maps (class, e) to zeta_c^e times its symbols' coefficients."""
        a, b, c, d = g
        if (key := self.normalise(u * a + v * c, u * b + v * d)) is None:
            return
        m, rows = self.k - 2, self.binomials
        poly = terms.setdefault((key[0], (key[1] + t) % self.c), [0] * (m + 1))
        right = [r * c ** j * d ** (m - i - j) for j, r in enumerate(rows[m - i])]
        for j, r in enumerate(rows[i]):  # (aX + bY)^i (cX + dY)^(m-i)
            y = x * r * a ** j * b ** (i - j)
            if y:
                for jz, z in enumerate(right, j):
                    poly[jz] += y * z

    def hecke(self, s: int, t: int, mats) -> dict:
        """zeta_c^t T_n [s], the sum of [s] g over Merel's matrices g of
        determinant n (U_n at n | level), as terms."""
        cls, i = divmod(s, self.k - 1)
        terms = {}
        for g in mats:
            self.act(terms, 1, i, *self.reps[cls], g, t)
        return terms

    def flat(self, terms: dict) -> list[int]:
        """The terms on the symbols' columns."""
        vec = [0] * self.n_cols
        for (cls, e), poly in terms.items():
            for s, x in enumerate(poly, cls * (self.k - 1)):
                for col, z in enumerate(self.zeta_rows[e], s * self.w):
                    vec[col] += x * z
        return vec

    def vector(self, terms: dict) -> list:
        """The coordinates of the terms in the quotient."""
        out = [0] * self.dim_q
        for x, coords in zip(self.flat(terms), self.coords):
            if x:
                for j, y in enumerate(coords):
                    if y:
                        out[j] += x * y
        return out

    def matrix(self, image) -> list[list]:
        """A linear map as its images: row b w + t is image(basis[b], t), its
        terms at zeta_c^t [basis[b]], so matvec(matrix, form) is form o map."""
        return [self.vector(image(s, t)) for s in self.basis for t in range(self.w)]


def matvec(mat, vec):
    return [sum((c * v for c, v in zip(row, vec) if v), ZERO) for row in mat]


def minpoly(step, u, dim) -> list[Fraction]:
    """Monic minimal polynomial of the linear map step on the cyclic
    subspace generated by u, a vector of length dim (shorter ones are
    padded with zeros).  Each Krylov vector step^j(u), joined to the unit
    vector e_j, is reduced against those before it; the first one to
    reduce to 0 + t has t = (c_0, ..., c_(j-1), 1) with sum c_i step^i(u) =
    -step^j(u), the polynomial itself."""
    ech = Echelon()
    vec = list(u) + [ZERO] * (dim - len(u))
    for j in range(dim + 1):
        rem = ech.reduce(vec + [ZERO] * j + [ONE] + [ZERO] * (dim - j))[1]
        if not any(rem[:dim]):
            return rem[dim: dim + j + 1]
        ech.insert(rem)
        vec = list(step(vec))
        vec += [ZERO] * (dim - len(vec))
    raise AssertionError("no linear relation closes the Krylov sequence")


# -- Newform extraction ----------------------------------------------


class EigenPacket:
    """One newform orbit: a_n as elements of K = Q[x]/(g)."""

    def __init__(self, space: Space, g: list[Fraction], a_list, zeta_img, chi):
        self.space = space
        self.kf = KField(g)
        self.a = a_list          # a[n-1] = K-element for a_n
        self.zeta_img = zeta_img
        self.chi = chi

    def a_n(self, n: int):
        return self.a[n - 1]

    def chi_image(self, n: int, chi=None):
        """The image in K of (chi or the packet's character)(n)."""
        expo = (chi or self.chi).exponent(n)
        if expo is None:
            return []
        return self.kf.powers(self.zeta_img, int(expo * self.space.c) + 1)[-1]

    @cached_property
    def coefficient_field(self):
        """A generator theta of Q({a_n}) inside K, its minimal polynomial,
        and the coordinates of every a_n over the power basis of theta."""
        kf = self.kf
        best = None
        for theta in theta_candidates(self):
            mp = minpoly(lambda v: kf.mul(v, theta), [ONE], kf.deg)
            if best is None or len(mp) > len(best[1]):
                best = (theta, mp)
            if len(mp) - 1 == kf.deg:
                break
        theta, mp = best
        coords = kf.coords_over(kf.powers(theta, len(mp) - 1))
        return theta, mp, [coords(a) for a in self.a]


def extract_newforms(space: Space) -> list[EigenPacket]:
    """All newform orbits of the space, as eigenvalue packets."""
    dim, q, w, k = space.dim_q, space.q, space.w, space.k
    tmat = space.matrix(partial(space.hecke, mats=heilbronn(q)))
    zmat = space.matrix(lambda s, t: space.hecke(s, t + 1, [(1, 0, 0, 1)]))

    # the new part: the linear forms killed by each W_p = U_p^2 - chi0(p) p^(k-2), which
    # vanish on every old form, so an old form sharing a newform's factor g never enters
    # its eigenvector; cols[j] holds row j of each W_p, with U_p^2 the Heilbronn sum U_(p^2)
    cols = [[] for _ in range(dim)]
    for p in space.al_primes:
        umat = space.matrix(partial(space.hecke, mats=heilbronn(p * p)))
        e, scalar = space.chi0.slot(p), p ** (k - 2)
        smat = space.matrix(lambda s, t: space.hecke(s, t + e, [(1, 0, 0, 1)]))
        for j, col in enumerate(zip(*umat)):
            cols[j] += [u - scalar * row[j] for u, row in zip(col, smat)]
    new = kernel(cols)
    # the kernel holds the Eisenstein series only where no Atkin-Lehner prime exists
    dim_new = len(new) - (0 if space.al_primes else w * space.dim_eis)
    log(f"  kernel rank {len(new)}, Eisenstein rank {w * space.dim_eis}, new part {dim_new}")
    require(dim_new == w * newform_dimension(k, space.chi),
            f"new part {dim_new} is not {w} times the newform dimension")
    if dim_new == 0:
        return []

    # C = zeta + T_q1 + ... + T_qj: zeta separates conjugate copies of an eigensystem, and the
    # next prime enters while m_all's cusp factors (squarefree: C is semisimple) miss dim_new
    u0 = [sum((Fraction((7 * i * i + 3 * i + 5) % 101 - 50) * vec[j]
               for i, vec in enumerate(new)), ZERO) for j in range(dim)]
    primes = [p for p in primerange(q, space.hecke_bound + 1) if space.level % p]
    cmat, mus = zmat, [CycNum.zeta(space.c)] * len(space.eis_pairs)
    for j, p in enumerate(primes):
        pmat = tmat if p == q else space.matrix(partial(space.hecke, mats=heilbronn(p)))
        cmat = [[c + t for c, t in zip(crow, prow)] for crow, prow in zip(cmat, pmat)]
        # the Eisenstein eigenvalues of C: m_all has them where no Atkin-Lehner prime exists
        mus = [mu + psi(p) + phi(p) * p ** (k - 1) for mu, (psi, phi) in zip(mus, space.eis_pairs)]
        krylov = [u0]  # C^j u0, j <= deg m_all, kept for the eigenvectors

        def step(v):
            krylov.append(matvec(cmat, v))
            return krylov[-1]

        m_all = minpoly(step, u0, dim)
        factors = [f for f in fppoly.factor_over_q(m_all)  # f(mu) by Horner's rule
                   if all(reduce(lambda acc, c: acc * mu + c, reversed(f), CycNum.zero())
                          for mu in mus)]
        if separated := sum(len(f) - 1 for f in factors) == dim_new:
            break
    require(separated, f"{space.level}.{k}.{space.chi.label}: zeta + T_p over the p <= "
            f"{space.hecke_bound} prime to the level did not separate the new part")
    log(f"  C = zeta + {' + '.join(f'T_{p}' for p in primes[:j + 1])} separates the new part")

    packets = []
    for g in sorted(factors, key=lambda f: (len(f), [str(c) for c in f])):
        kf = KField(g)
        # v = r(C) u0, r = m_all / (x - lam) with lam = x mod g, which is
        # (g(x) - g(lam)) / (x - lam) times m_all / g: the lam-eigenvector of
        # the g-part of u0.  Synthetic division: r_(D-1) = 1, r_(s-1) = m_s + lam r_s
        r = [[ONE]]
        for m_s in reversed(m_all[1:-1]):
            r.append(kf.add([m_s], kf.mul([ZERO, ONE], r[-1])))
        r.reverse()
        v = [kf.combo(zip((vec[i] for vec in krylov), r)) for i in range(dim)]
        require(any(v), "eigenvector is zero")
        pivot = next(i for i in range(dim) if v[i])
        inv_piv = kf.inv(v[pivot])
        img = [kf.combo(zip(row, v)) for row in tmat]
        a_q = kf.mul(img[pivot], inv_piv)
        require(all(x == kf.mul(a_q, y) for x, y in zip(img, v)), f"not an eigenvector of T_{q}")
        z = kf.mul(kf.combo(zip(zmat[pivot], v)), inv_piv)
        require(kf.eval_poly(list(cyclotomic_poly(space.c)), z) == [],
                "character value is not a root of its cyclotomic polynomial")
        # a_n = v(T_n x) / v(x) for x = [X^i Y^(k-2-i), ...], v(x) != 0, at i = 0 or
        # k - 2 where it can be (one binomial row per matrix); v(zeta_c^t [s]) = z^t v([s])
        at = [kf.mul(zt, kf.combo(zip(coords, v))) for coords in space.coords[::w]
              for zt in kf.powers(z, w)]
        m = k - 1  # symbol s is [X^i Y^(k-2-i), ...] with i = s % m
        x = min((s for s in range(len(at) // w) if at[s * w]), key=lambda s: 0 < s % m < m - 1)
        inv_x = kf.inv(at[x * w])
        a_list = [kf.mul(inv_x, kf.combo(zip(space.flat(space.hecke(x, 0, heilbronn(n))), at)))
                  for n in range(1, space.b0 + 1)]
        require(a_list[q - 1] == a_q, f"a_{q} is not the T_{q}-eigenvalue")
        packet = EigenPacket(space, g, a_list, z, space.chi)
        verify_packet(packet)
        packets.append(packet)
        log(f"  newform orbit: deg {kf.deg} over Q, a_2 = {a_list[1:2]}")
    return packets


def verify_packet(packet: EigenPacket):
    """Sturm-certified Hecke structure of the coefficient list."""
    kf = packet.kf
    space = packet.space
    b = len(packet.a)
    k = space.k
    for p in primerange(2, b + 1):
        cp = packet.chi_image(p)
        cppow = kf.mul(cp, [Fraction(p) ** (k - 1)])
        # a_(np) + chi(p) p^(k-1) a_(n/p) = a_p a_n for every n: this is the
        # full eigenform property of T_p at the coefficient level
        for n in range(1, b // p + 1):
            lhs = packet.a_n(n * p)
            rhs = kf.mul(packet.a_n(p), packet.a_n(n))
            if n % p == 0 and cppow:
                lhs = kf.add(lhs, kf.mul(cppow, packet.a_n(n // p)))
            require(lhs == rhs, (p, n, "hecke coefficient relation"))
    # Atkin-Lehner squares at the space's Atkin-Lehner primes
    for p in space.al_primes:
        rhs = kf.mul(packet.chi_image(p, space.chi0), [Fraction(p) ** (k - 2)])
        lhs = kf.mul(packet.a_n(p), packet.a_n(p))
        require(lhs == rhs, f"Atkin-Lehner square failed at {p}")
    log(f"    packet verified (hecke structure to {b}, AL squares)")


# -- K_f extraction and fixture serialisation ------------------------


def theta_candidates(packet: EigenPacket):
    a = packet.a_n
    cands = [a(2), a(3), a(5), a(7),
             packet.kf.add(a(2), a(3)), packet.kf.add(a(2), a(5)),
             packet.kf.add(a(3), a(5)), packet.kf.add(a(2), packet.kf.add(a(3), a(5)))]
    return [c for c in cands if c]


def hnf_lattice(coords: list[list[Fraction]], deg: int):
    """Lower-triangular Hermite basis of the lattice spanned by the power
    basis and all coefficient vectors; returns (basis rows as Fractions,
    integer coordinates of each coefficient vector)."""
    den = lcm(*(c.denominator for vec in coords for c in vec))
    work = [[den if i == j else 0 for i in range(deg)] for j in range(deg)]
    work += [[int(c * den) for c in vec] for vec in coords]
    basis = []
    for col in range(deg):
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            small = nz[0]
            for r in nz[1:]:
                f = r[col] // small[col]
                if f:
                    for i in range(deg):
                        r[i] -= f * small[i]
        nz = [r for r in work if r[col] != 0]
        if not nz:
            raise RuntimeError("lattice not full rank")
        piv = nz[0]
        work = [r for r in work if r is not piv]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    # basis[i] has its first nonzero entry at column i; size-reduce the
    # tails of earlier rows against later pivots
    for i in range(deg):
        for j in range(i):
            f = basis[j][i] // basis[i][i]
            if f:
                basis[j] = [a - f * b for a, b in zip(basis[j], basis[i])]
    frac_basis = [[Fraction(x, den) for x in row] for row in basis]
    solve = solver(basis)
    int_coords = []
    for vec in coords:
        ys = solve([c * den for c in vec])
        require(ys is not None and all(y.denominator == 1 for y in ys),
                "coefficient outside the lattice")
        int_coords.append(tuple(map(int, ys)))
    return frac_basis, int_coords


def packet_to_fixture(packet: EigenPacket, label: str, b_data: int,
                      field_poly: list[Fraction] | None = None) -> NewformData:
    """The packet's first b_data coefficients as a fixture, on the HNF basis
    of the lattice they span, over its coefficient field's defining
    polynomial or the given field_poly of the same field."""
    theta, mp, coords = packet.coefficient_field
    if field_poly is not None:
        kk = KField(mp)
        rebase = kk.coords_over(kk.powers(find_root_in_field(mp, field_poly), len(mp) - 1))
        coords = [rebase(vec) for vec in coords]
        mp = list(field_poly)
    coords = coords[:b_data]
    basis, int_coords = hnf_lattice(coords, len(mp) - 1)
    nf = NewformData(
        label=label,
        level=packet.space.level,
        weight=packet.space.k,
        character=packet.chi,
        field_poly=tuple(Fraction(c) for c in mp),
        basis=tuple(tuple(row) for row in basis),
        an=tuple(int_coords),
    )
    nf.validate()
    return nf


def find_root_in_field(field_minpoly: list[Fraction], target_poly: list[Fraction]):
    """A root of target_poly inside Q[y]/(field_minpoly), found p-adically
    and verified exactly."""
    deg = len(field_minpoly) - 1
    require(len(target_poly) - 1 == deg, "target polynomial degree differs from the field degree")
    kk = KField(field_minpoly)
    f_int = clear_denominators(field_minpoly)[0]
    t_int = clear_denominators(target_poly)[0]
    for p in primerange(10**4, 10**5):
        f_mod = [c % p for c in f_int]
        t_mod = [c % p for c in t_int]
        if f_mod[-1] % p == 0 or t_mod[-1] % p == 0:
            continue
        f_roots = _roots_mod_p(f_mod, p)
        t_roots = _roots_mod_p(t_mod, p)
        if len(f_roots) == deg and len(t_roots) == deg:
            break
    else:
        raise RuntimeError("no fully split prime found")
    prec = 1
    modulus = p
    while modulus < 10**120:
        modulus *= p
        prec += 1
    # each simple root mod p, read off its Hensel-lifted linear factor
    f_roots = [-fppoly.hensel_lift_factor(f_int, [-r % p, 1], p, prec)[0] % modulus
               for r in f_roots]
    t_roots = [-fppoly.hensel_lift_factor(t_int, [-r % p, 1], p, prec)[0] % modulus
               for r in t_roots]
    # solve for rho = h(theta): h(f_roots[i]) = t_roots[sigma(i)].  The
    # roots are distinct mod p, so the Vandermonde determinant is a p-adic
    # unit: the solution over Q, taken mod p^prec, is the one mod p^prec
    solve = solver([[pow(r, j, modulus) for r in f_roots] for j in range(deg)])
    for sigma in permutations(range(deg)):
        sol = solve([t_roots[sigma[i]] for i in range(deg)])
        cand = [_rational_reconstruct(y.numerator * pow(y.denominator, -1, modulus), modulus)
                for y in sol]
        if None in cand:
            continue
        cand = trim(cand)
        if kk.eval_poly(target_poly, cand) == []:
            return cand
    raise RuntimeError("no root of the target polynomial in the field")


def _roots_mod_p(poly: list[int], p: int) -> list[int]:
    """The roots of poly mod p in increasing order; none where poly is not
    squarefree mod p."""
    f = fppoly.monic(fppoly.normalize(poly, p), p)
    if len(fppoly.gcd(f, fppoly.derivative(f, p), p)) > 1:
        return []
    return sorted(-g[0] % p for g in fppoly.factor_squarefree(f, p) if len(g) == 2)


def _rational_reconstruct(a: int, m: int):
    """Classic half-extended Euclid: a = n/d mod m with |n|, d <= sqrt(m/2)."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or t1 == 0:
        return None
    if gcd(r1, abs(t1)) != 1 and r1 != 0:
        return None
    return Fraction(r1, t1) if t1 > 0 else Fraction(-r1, -t1)


# -- Spaces and their orbits -----------------------------------------


# the orbits are ordered on the traces of a_1, ..., a_TRACE_TERMS
TRACE_TERMS = 50


def lmfdb_orbits(packets):
    """The distinct newform orbits in LMFDB's letter order: by dimension,
    then by the sequence of traces Tr_{Q(theta)/Q}(a_n), which is also what
    identifies the conjugate copies that restriction of scalars can produce
    (the first copy is kept).  Tr_{Q(theta)/Q} is Tr_{K/Q} over [K : Q(theta)]."""
    orbits = {}
    for p in packets:
        require(len(p.a) >= TRACE_TERMS,
                f"{len(p.a)} coefficients, fewer than the {TRACE_TERMS} the orbit order reads")
        dim = len(p.coefficient_field[1]) - 1
        key = (dim, tuple(p.kf.trace(a) / (p.kf.deg // dim) for a in p.a[:TRACE_TERMS]))
        orbits.setdefault(key, p)
    return [orbits[key] for key in sorted(orbits)]
