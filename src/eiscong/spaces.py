"""Spaces of modular forms with character, and their newform eigensystems,
from exact q-expansions (W. Stein, *Modular Forms: A Computational
Approach*, 2007).

M_k(Gamma_0(N), chi) is spanned by Eisenstein series and products of two
Eisenstein series of weights >= 2, under a rank check against the
Cohen-Oesterle dimension.  No two such weights sum to 3, so a space with
S_3 != 0, which needs weight-1 atoms, is refused before its span is
built.  Levels are square-free and k >= 3, so the new part is the
joint kernel of U_p^2 - chi0(p) p^(k-2) over the p | N prime to cond(chi):
a newform has a_p^2 = chi0(p) p^(k-2) there (W.-C. W. Li, *Newforms and
functional equations*, Math. Ann. 212, 1975), while U_p has eigenvalues
of absolute value p^((k-1)/2) on p-old forms (P. Deligne, *La conjecture
de Weil I*, 1974) and 1 or p^(k-1) on Eisenstein series.  Less the
Eisenstein series it holds where no such p exists, the new part is
checked against the newform dimension.  A space takes one Hecke prime q,
the least prime not dividing the level, and reads T_q and each U_p to
the Sturm bound.  They and zeta_c act on the q-expansion lattice through
one matrix builder, which checks every coefficient it reads.  Newform
eigensystems are cut out over an irreducible factor g of the minimal
polynomial m of a combination C of T_q and zeta_c on a vector u0 of the
new part; the eigenvector is r(C) u0, r = m / (x - x mod g), read off the
Krylov vectors C^j u0.  A factor g is Eisenstein when it vanishes at
c_z zeta_c + c_q a_q of an atom, a normalised T_q-eigenform.  Each
eigenvalue packet is verified
(Sturm-certified eigenform property, coefficient multiplicativity and
recursions, Atkin-Lehner squares) before it becomes a
:class:`NewformData`.  Linear algebra is :mod:`eiscong.linalg` over
Q; elements of a coefficient field K = Q[x]/(g) are lists of Fractions,
lowest degree first.

The checks are code, not asserts, so they hold under ``python -O``.
Progress goes to stderr; nothing here writes to stdout.  The command
line does not import this module.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import cached_property, reduce
from itertools import count, permutations
from math import gcd, isqrt, lcm

from . import fppoly
from .arith import divisors, isprime, primefactors, primerange
from .characters import DirichletChar, parity_matches, primitive_characters
from .cyclotomic import (CycNum, _divide_monic, _ks_mul, _mod_phi, _phi, clear_denominators,
                         cyclotomic_poly)
from .eisenstein import QExpansion, _rows_in, alpha_m, eisenstein_series, hecke_tp
from .errors import NotSquareFree
from .fppoly import trim
from .linalg import Echelon, kernel, solver
from .newforms import NewformData, gamma0_index, sturm_bound
from .record import replace

ZERO = Fraction(0)
ONE = Fraction(1)


def require(ok, msg):
    """A check that python -O keeps: raise AssertionError(msg) unless ok."""
    if not ok:
        raise AssertionError(msg)


def log(msg: str):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


# -- Eisenstein atoms ------------------------------------------------


def weight_atoms(k1: int, level: int, b: int) -> list[QExpansion]:
    """All Eisenstein atoms of weight k1 >= 2 with level dividing `level`,
    to precision b: each E_k1(psi, phi)(tz), and at k1 = 2, in place of the
    quasimodular E_2, each E_2(z) - t E_2(tz) with t > 1."""
    out = []
    for u in divisors(level):
        for v in divisors(level // u):
            for psi in primitive_characters(u):
                for phi in primitive_characters(v):
                    if not parity_matches(psi, phi, k1):
                        continue
                    if k1 == 2 and u == v == 1:
                        continue
                    series = eisenstein_series(k1, psi, phi, b)
                    out += [alpha_m(series, t) for t in divisors(level // (u * v))]
    if k1 == 2:
        one = DirichletChar(1, 1)
        e2 = eisenstein_series(2, one, one, b)
        out += [replace(e2.sub(alpha_m(e2, t).scale(t)), level=t, character=one.lift(t))
                for t in divisors(level) if t > 1]
    return out


def mul_series(f: QExpansion, g: QExpansion, b: int) -> QExpansion:
    """f * g to precision b.  The rows of each, in their common field
    Q(zeta_o), are spread 2 phi(o) - 1 slots apart, room for the product of
    two rows, so one Kronecker product of the two arrays holds every sum
    of row products side by side; each is then reduced mod Phi_o."""
    o = lcm(f.field, g.field)
    d = _phi(o)
    s, pad = 2 * d - 1, (0,) * (d - 1)
    spread = ([v for row in _rows_in(h.truncate(b), o) for v in row + pad] for h in (f, g))
    fg = _ks_mul(*spread)
    rows = tuple(tuple(_mod_phi(o, fg[n * s: n * s + s])) for n in range(b + 1))
    return QExpansion(f.weight + g.weight, lcm(f.level, g.level), f.character * g.character,
                      rows, (o,) * (b + 1), o, f.den * g.den)


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

    def scal(self, a, c: Fraction):
        return [x * c for x in a] if c else []

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
    e4 = CycNum.zero(1)
    e3 = CycNum.zero(1)
    for x in range(n):
        if (x * x + 1) % n == 0:
            e4 = e4 + chi(x)
        if (x * x + x + 1) % n == 0:
            e3 = e3 + chi(x)
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
    """M_k(Gamma_0(level), chi) realised as exact truncated q-expansions,
    for a square-free level and k >= 3.  Its Hecke prime q is the least
    prime not dividing the level, its Atkin-Lehner primes are the p | level
    with p not dividing cond(chi), and it is built to precision
    max(b0, max(q, those p) (Sturm bound + 1)), so that T_q and each U_p of
    a basis form are known to the Sturm bound, where they are determined
    (J. Sturm, *On the congruence of modular forms*, LNM 1240, 1987)."""

    def __init__(self, level: int, k: int, chi: DirichletChar, b0: int):
        require(all(level % (p * p) for p in primefactors(level)),
                f"level {level} is not square-free")
        require(k >= 3, f"weight {k} < 3: Eisenstein series would pass as new")
        self.level, self.k, self.chi, self.chi0 = level, k, chi, chi.primitive()
        self.sturm = sturm_bound(k, level)
        self.q = next(p for p in count(2) if level % p and isprime(p))
        self.al_primes = [p for p in primefactors(level) if self.chi0.modulus % p]
        self.b0 = b0 = max(b0, max([self.q, *self.al_primes]) * (self.sturm + 1))
        self.eis_atoms = [a for a in weight_atoms(k, level, b0)
                          if a.character.primitive() == self.chi0]
        fields = {a.field for a in self.eis_atoms} | {chi.order}
        self.pairs = []
        for k1 in range(2, k // 2 + 1):
            a2 = weight_atoms(k - k1, level, b0)
            for x in weight_atoms(k1, level, b0):
                for y in a2:
                    if (x.character * y.character).primitive() == self.chi0:
                        self.pairs.append((x, y))
                        fields |= {x.field, y.field}
        self.c = lcm(*fields)
        self.w = _phi(self.c)
        self.dim_eis = len(self.eis_atoms)
        self.dim_cusp = cohen_oesterle_dim_cusp(k, chi)
        self.dim_c = self.dim_eis + self.dim_cusp
        self.dim_q = self.w * self.dim_c
        log(f"space level={level} k={k} chi={chi.label}: dim_C = {self.dim_eis}+"
            f"{self.dim_cusp} = {self.dim_c}, zeta-conductor {self.c}, "
            f"{len(self.pairs)} candidate products")

    # -- flattening ----------------------------------------------------

    def flat(self, f: QExpansion, prec: int | None = None) -> list[Fraction]:
        """a_0 .. a_prec of f (prec = b0 by default) in Q(zeta_c), one
        coefficient vector after another."""
        f = f.truncate(self.b0 if prec is None else prec)
        return [Fraction(v, f.den) for row in _rows_in(f, self.c) for v in row]

    def unflat(self, vec: list[Fraction]) -> QExpansion:
        nums, den = clear_denominators(vec)
        rows = tuple(tuple(nums[i: i + self.w]) for i in range(0, len(nums), self.w))
        return QExpansion(self.k, self.level, self.chi, rows, (self.c,) * len(rows), self.c, den)

    def zeta_shifts(self, f: QExpansion) -> list[list[Fraction]]:
        """flat(f), flat(zeta_c f), ..., flat(zeta_c^(w-1) f)."""
        return [self.flat(f.scale(CycNum.zeta(self.c, j))) for j in range(self.w)]

    # -- basis ----------------------------------------------------------

    def build_basis(self):
        require(self.pairs or not self.dim_cusp,
                f"weight {self.k}: dim S_k = {self.dim_cusp}, but no product of two Eisenstein "
                f"series of weights >= 2 lies in the space (none does at weight 3), and "
                f"weight-1 atoms are not built")
        ech = Echelon()
        for f in self.eis_atoms:
            for vec in self.zeta_shifts(f):
                ech.add(vec)
        self.eis_rank = ech.rank  # the atoms come first
        for x, y in self.pairs:
            if ech.rank >= self.dim_q:
                break
            for vec in self.zeta_shifts(mul_series(x, y, self.b0)):
                ech.add(vec)
        require(ech.rank == self.dim_q, f"span rank {ech.rank} != expected {self.dim_q}")
        self.ech = ech
        log(f"  basis complete: rank {ech.rank}")

    # -- Hecke action -----------------------------------------------------

    def matrix(self, op, prec: int) -> list[list[Fraction]]:
        """The matrix of the map op on QExpansions over the basis, each image
        read to precision prec, where it must lie in the span (ValueError
        otherwise): column j holds the coordinates of op(row j)."""
        rows = [self.ech.express(self.flat(op(self.unflat(r)), prec)) for r in self.ech.rows]
        return [list(col) for col in zip(*rows)]


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
    space.build_basis()
    dim = space.ech.rank
    q = space.q
    zeta = CycNum.zeta(space.c)
    tmat = space.matrix(lambda f: hecke_tp(f, q), space.b0 // q)
    zmat = space.matrix(lambda f: f.scale(zeta), space.b0)
    log(f"  hecke matrices done (q = {q})")

    # the new part: the joint kernel of W_p = U_p^2 - chi0(p) p^(k-2), whose
    # column j is U_p applied to column j of U_p, less column j of chi0(p) p^(k-2)
    cols = [[] for _ in range(dim)]
    for p in space.al_primes:
        umat = space.matrix(lambda f: hecke_tp(f, p), space.b0 // p)
        scalar = space.chi0(p) * Fraction(p) ** (space.k - 2)
        smat = space.matrix(lambda f: f.scale(scalar), space.b0)
        for j, col in enumerate(zip(*umat)):
            cols[j] += [u - row[j] for u, row in zip(matvec(umat, col), smat)]
    new = kernel(cols)
    # the kernel holds the Eisenstein subspace only where no Atkin-Lehner prime exists
    dim_new = len(new) - (0 if space.al_primes else space.eis_rank)
    log(f"  kernel rank {len(new)}, Eisenstein rank {space.eis_rank}, new part {dim_new}")
    require(dim_new == space.w * newform_dimension(space.k, space.chi),
            f"new part {dim_new} is not {space.w} times the newform dimension")
    if dim_new == 0:
        return []

    # C = c_z zeta + c_q T_q: zeta-multiplication always enters the mix so
    # that conjugate copies of the same eigensystem get distinct eigenvalues
    for attempt, (cz, cq) in enumerate([(1, 1), (3, 1), (1, 2), (5, 1)]):
        cmat = [[cz * z + cq * t for z, t in zip(zrow, trow)] for zrow, trow in zip(zmat, tmat)]
        u0 = [sum((Fraction((7 * i * i + 3 * i + 5 + attempt) % 101 - 50) * vec[j]
                   for i, vec in enumerate(new)), ZERO) for j in range(dim)]
        krylov = [u0]  # C^j u0, j <= deg m_all, kept for the eigenvectors

        def step(v):
            krylov.append(matvec(cmat, v))
            return krylov[-1]

        m_all = minpoly(step, u0, dim)
        # m_all is squarefree: C combines commuting semisimple operators
        try:
            all_factors = fppoly.factor_over_q(m_all)
        except NotSquareFree:  # a repeated factor: the mix did not separate
            all_factors = []
        # on an atom's zeta-multiples C is multiplication by c_z zeta_c + c_q a_q
        # (an undilated atom, a_1 = 1, is a normalised T_q-eigenform, and its
        # dilations share its a_q), so the factors of m_all that vanish there
        # are the Eisenstein ones, which it has where no Atkin-Lehner prime exists
        mus = [CycNum.zeta(space.c) * cz + f[q] * cq for f in space.eis_atoms if f[1]]
        factors = [f for f in all_factors  # f(mu) by Horner's rule
                   if all(reduce(lambda acc, c: acc * mu + c, reversed(f), CycNum.zero())
                          for mu in mus)]
        if sum(len(f) - 1 for f in factors) == dim_new:
            break
        log(f"  combination {(cz, cq)} did not separate (attempt {attempt}); retrying")
    else:
        raise RuntimeError("no Hecke combination separated the new part")

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
        # eigenvalue checks and extraction
        pivot = next(i for i in range(dim) if v[i])
        inv_piv = kf.inv(v[pivot])
        img = [kf.combo(zip(row, v)) for row in tmat]
        a_q = kf.mul(img[pivot], inv_piv)
        for i in range(dim):
            require(img[i] == kf.mul(a_q, v[i]), f"not an eigenvector of T_{q}")
        z = kf.mul(kf.combo(zip(zmat[pivot], v)), inv_piv)
        require(kf.eval_poly(list(cyclotomic_poly(space.c)), z) == [],
                "character value is not a root of its cyclotomic polynomial")
        # q-expansion over K: a_n = sum_(i, j) rows[i][n w + j] z^j v_i
        w, rows, zpow = space.w, space.ech.rows, kf.powers(z, space.w)
        vz = [kf.mul(vi, zj) for vi in v for zj in zpow]  # z^j v_i at i w + j
        a_list = [kf.combo(zip((c for row in rows for c in row[n * w: n * w + w]), vz))
                  for n in range(space.b0 + 1)]
        require(a_list[0] == [], "newform must vanish at infinity")
        inv_a1 = kf.inv(a_list[1])
        a_list = [kf.mul(a, inv_a1) for a in a_list[1:]]
        require(a_list[q - 1] == a_q, f"a_{q} mismatch after normalisation")
        packet = EigenPacket(space, g, a_list, z, space.chi)
        verify_packet(packet)
        packets.append(packet)
        log(f"  newform orbit: deg {kf.deg} over Q, "
            f"a_2 = {a_list[1] if len(a_list) > 1 else '?'}")
    return packets


def verify_packet(packet: EigenPacket):
    """Sturm-certified Hecke structure of the coefficient list."""
    kf = packet.kf
    space = packet.space
    b = len(packet.a)
    k = space.k
    for p in primerange(2, b + 1):
        cp = packet.chi_image(p)
        cppow = kf.scal(cp, Fraction(p) ** (k - 1)) if cp else []
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
        rhs = kf.scal(packet.chi_image(p, space.chi0), Fraction(p) ** (k - 2))
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
