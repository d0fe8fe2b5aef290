#!/usr/bin/env python3
"""Build the newform eigenvalue fixtures offline.

Spaces of modular forms with character are spanned exactly by Eisenstein
series and products of two Eisenstein series (weights >= 2 suffice for
every space needed here; a rank check against the dimension formula
guards the assumption).  Hecke operators act on the exact q-expansion
lattice; newform eigensystems are cut out over an irreducible factor of
the minimal polynomial of a generic Hecke combination, and the resulting
eigenvalue packets are verified (Sturm-certified eigenform property,
coefficient multiplicativity and recursions, Atkin-Lehner squares) before
being serialised into the package fixture schema.

Run from the repository root:  python scripts/make_fixtures.py
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm, prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eiscong import fppoly  # noqa: E402
from eiscong.arith import divisors, factorint, primefactors, primerange  # noqa: E402
from eiscong.characters import DirichletChar, parity_matches, primitive_characters  # noqa: E402
from eiscong.cyclotomic import (CycNum, _divide_monic, _ks_mul, _mod_phi, _phi,  # noqa: E402
                                 _solve_columns, clear_denominators, cyclotomic_poly)
from eiscong.errors import NotSquareFree  # noqa: E402
from eiscong.eisenstein import (QExpansion, _rows_in, alpha_m, eisenstein_series,  # noqa: E402
                                hecke_tp)
from eiscong.fppoly import trim  # noqa: E402
from eiscong.newforms import NewformData, delta_an, save_fixture, sturm_bound  # noqa: E402
from eiscong.record import replace  # noqa: E402

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "eiscong" / "fixtures"

ZERO = Fraction(0)
ONE = Fraction(1)


def require(ok, msg):
    """A check that python -O keeps: raise AssertionError(msg) unless ok."""
    if not ok:
        raise AssertionError(msg)


def log(msg: str):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


# ----------------------------------------------------------------------
# Eisenstein atoms
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Exact linear algebra over Q
# ----------------------------------------------------------------------


class Echelon:
    """Maintains an RREF basis of flat rational vectors."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        coords = []
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            coords.append(c)
            if c:
                for i in range(piv, len(vec)):
                    if row[i]:
                        vec[i] -= c * row[i]
        return coords, vec

    def add(self, vec: list[Fraction]) -> bool:
        coords, rem = self._reduce(vec)
        piv = next((i for i, c in enumerate(rem) if c), None)
        if piv is None:
            return False
        inv = ONE / rem[piv]
        new_row = [c * inv for c in rem]
        for row in self.rows:
            c = row[piv]
            if c:
                for i in range(piv, self.width):
                    if new_row[i]:
                        row[i] -= c * new_row[i]
        self.rows.append(new_row)
        self.pivots.append(piv)
        order = sorted(range(len(self.rows)), key=lambda j: self.pivots[j])
        self.rows = [self.rows[j] for j in order]
        self.pivots = [self.pivots[j] for j in order]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def express(self, vec: list[Fraction], check_cols: int | None = None):
        """Coordinates of vec over the basis rows; vec may be truncated, in
        which case all pivots must lie inside it and the residual is checked
        on the available columns."""
        require(all(p < len(vec) for p in self.pivots), "vector too short for the pivot set")
        coords, rem = self._reduce(vec)
        require(not any(rem[:check_cols]), "vector is not in the span")
        return coords


# ----------------------------------------------------------------------
# K = Q[x]/(g) arithmetic (lists of Fractions, lowest degree first)
# ----------------------------------------------------------------------


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

    def inv(self, a):
        """y with a*y = 1: the coordinates of 1 over the columns a*x^j."""
        cols = [a]
        for _ in range(self.deg - 1):
            cols.append(self.mul(cols[-1], [ZERO, ONE]))
        y = self.coords_over([ONE], cols)
        require(y is not None, "element is not invertible")
        return trim(y)

    def eval_poly(self, coeffs, point):
        """Evaluate a polynomial with Fraction coefficients at a K-point."""
        acc: list[Fraction] = []
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, point), [Fraction(c)])
        return acc

    def coords_over(self, a, gen_powers) -> list[Fraction] | None:
        """Express a as a Q-combination of the given K-elements (or None)."""
        cols = [list(gp) + [ZERO] * (self.deg - len(gp)) for gp in gen_powers]
        return _solve_columns(cols, list(a) + [ZERO] * (self.deg - len(a)))


# ----------------------------------------------------------------------
# Space builder
# ----------------------------------------------------------------------


def cohen_oesterle_dim_cusp(k: int, chi: DirichletChar) -> int:
    """dim S_k(Gamma_0(N), chi) by Cohen-Oesterle (LNM 627) for k >= 3
    (also k = 2 away from the trivial-character correction, handled)."""
    n = chi.modulus
    f = chi.conductor
    mu = n * prod(Fraction(p + 1, p) for p in primefactors(n))
    term = Fraction(k - 1, 12) * mu

    def lam(r, s, p):
        if 2 * s <= r:
            if r % 2 == 0:
                return p ** (r // 2) + p ** (r // 2 - 1)
            return 2 * p ** ((r - 1) // 2)
        return 2 * p ** (r - s)

    prod_term = Fraction(1)
    for p, r in factorint(n).items():
        s = 0
        ff = f
        while ff % p == 0:
            ff //= p
            s += 1
        prod_term *= lam(r, s, p)
    gamma_k = Fraction(0)
    if k % 4 == 2:
        gamma_k = Fraction(-1, 4)
    elif k % 4 == 0:
        gamma_k = Fraction(1, 4)
    mu_k = Fraction(0)
    if k % 3 == 2:
        mu_k = Fraction(-1, 3)
    elif k % 3 == 0:
        mu_k = Fraction(1, 3)
    e4 = CycNum.zero(1)
    e3 = CycNum.zero(1)
    for x in range(n):
        if (x * x + 1) % n == 0:
            e4 = e4 + chi(x)
        if (x * x + x + 1) % n == 0:
            e3 = e3 + chi(x)
    total = term - Fraction(1, 2) * prod_term \
        + gamma_k * e4.rational_value() + mu_k * e3.rational_value()
    if k == 2 and chi.is_trivial():
        total += 1
    require(total.denominator == 1, f"dimension formula gave {total}")
    return int(total)


class Space:
    """M_k(Gamma_0(level), chi) realised as exact truncated q-expansions."""

    def __init__(self, level: int, k: int, chi: DirichletChar, b0: int, qset: list[int]):
        self.level, self.k, self.chi, self.b0 = level, k, chi, b0
        self.qset = qset
        self.sturm = sturm_bound(k, level)
        require(all(b0 // q >= self.sturm + 1 for q in qset), "b0 too small for qset")
        self.eis_atoms = [a for a in weight_atoms(k, level, b0)
                          if a.character.primitive() == chi.primitive()]
        fields = {a.field for a in self.eis_atoms} | {chi.order}
        self.pairs = []
        for k1 in range(2, k // 2 + 1):
            k2 = k - k1
            if k2 < k1:
                continue
            a2 = weight_atoms(k2, level, b0)
            for x in weight_atoms(k1, level, b0):
                for y in a2:
                    if (x.character * y.character).primitive() == chi.primitive():
                        self.pairs.append((x, y))
                        fields |= {x.field, y.field}
        self.c = lcm(*fields)
        self.w = _phi(self.c)
        self.width = (b0 + 1) * self.w
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
        ech = Echelon(self.width)
        products = (mul_series(x, y, self.b0) for x, y in self.pairs)
        for f in chain(self.eis_atoms, products):
            if ech.rank >= self.dim_q:
                break
            for vec in self.zeta_shifts(f):
                ech.add(vec)
        require(ech.rank == self.dim_q, f"span rank {ech.rank} != expected {self.dim_q}")
        self.ech = ech
        log(f"  basis complete: rank {ech.rank}")

    # -- Hecke action -----------------------------------------------------

    def hecke_matrix(self, q: int) -> list[list[Fraction]]:
        rows = []
        check = (self.sturm + 1) * self.w
        for r in self.ech.rows:
            img = self.flat(hecke_tp(self.unflat(r), q), self.b0 // q)
            rows.append(self.ech.express(img, check_cols=check))
        # column-major action: (A v)_i = sum_j rows[j][i] v_j
        return [list(col) for col in zip(*rows)]

    def zeta_matrix(self) -> list[list[Fraction]]:
        z = CycNum.zeta(self.c)
        rows = [self.ech.express(self.flat(self.unflat(r).scale(z))) for r in self.ech.rows]
        return [list(col) for col in zip(*rows)]


def matvec(mat, vec):
    return [sum((c * v for c, v in zip(row, vec) if v), ZERO) for row in mat]


def kmatvec(mat, vec, kf: KField):
    out = []
    for row in mat:
        acc: list[Fraction] = []
        for c, v in zip(row, vec):
            if c and v:
                acc = kf.add(acc, kf.scal(v, c))
        out.append(acc)
    return out


def minpoly(step, u, dim) -> list[Fraction]:
    """Monic minimal polynomial of the linear map step on the cyclic
    subspace generated by u, a vector of length dim (shorter ones are
    padded with zeros)."""
    ech = Echelon(dim)
    krylov = [list(u) + [ZERO] * (dim - len(u))]
    while ech.add(krylov[-1]):
        vec = step(krylov[-1])
        krylov.append(list(vec) + [ZERO] * (dim - len(vec)))
    sol = _solve_columns(krylov[:-1], krylov[-1])
    require(sol is not None, "no linear relation closes the Krylov sequence")
    return [-c for c in sol] + [ONE]


def poly_apply(coeffs, cmat, u):
    """(sum coeffs[i] C^i) u via Horner."""
    acc = [ZERO] * len(u)
    for c in reversed(coeffs):
        acc = matvec(cmat, acc)
        if c:
            acc = [a + c * b for a, b in zip(acc, u)]
    return acc


# ----------------------------------------------------------------------
# Newform extraction
# ----------------------------------------------------------------------


class EigenPacket:
    """One newform orbit: a_n as elements of K = Q[x]/(g), plus the
    rational basis of the orbit's isotypic block inside the ambient space
    (the component vectors of the K-eigenvector), which is what oldform
    constructions at higher level must dilate."""

    def __init__(self, space: Space, g: list[Fraction], a_list, zeta_img, chi,
                 block_series):
        self.space = space
        self.kf = KField(g)
        self.a = a_list          # a[n-1] = K-element for a_n
        self.zeta_img = zeta_img
        self.chi = chi
        self.block_series = block_series  # QExpansions in Q(zeta_c)

    def a_n(self, n: int):
        return self.a[n - 1]

    def chi_image(self, n: int, chi=None):
        """The image in K of (chi or the packet's character)(n)."""
        expo = (chi or self.chi).exponent(n)
        if expo is None:
            return []
        t = int(expo * self.space.c)
        acc = [ONE]
        for _ in range(t):
            acc = self.kf.mul(acc, self.zeta_img)
        return acc

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
        deg = len(mp) - 1
        powers = [[ONE]]
        for _ in range(deg - 1):
            powers.append(kf.mul(powers[-1], theta))
        coords = []
        for a in self.a:
            sol = kf.coords_over(a, powers)
            require(sol is not None, "coefficient not in Q(theta); enlarge theta")
            coords.append(sol)
        return theta, mp, coords


def extract_newforms(space: Space, old_packets) -> list[EigenPacket]:
    """All newform orbits of the space, as eigenvalue packets."""
    space.build_basis()
    dim = space.ech.rank
    amats = {q: space.hecke_matrix(q) for q in space.qset}
    zmat = space.zeta_matrix()
    log(f"  hecke matrices done (q in {space.qset})")

    # old + Eisenstein subspace, in basis coordinates
    u_ech = Echelon(dim)
    for atom in space.eis_atoms:
        for vec in space.zeta_shifts(atom):
            u_ech.add(space.ech.express(vec))
    for packet in old_packets:
        lower_level = packet.space.level
        require(space.c % packet.space.c == 0, "flattening conductors incompatible")
        for t in divisors(space.level // lower_level):
            for series in packet.block_series:
                for vec in space.zeta_shifts(alpha_m(series.truncate(space.b0), t)):
                    u_ech.add(space.ech.express(vec))
    dim_new = dim - u_ech.rank
    log(f"  old+eis rank {u_ech.rank}, new part {dim_new}")
    if dim_new == 0:
        return []

    # zeta-multiplication always enters the mix so that conjugate copies of
    # the same eigensystem get distinct eigenvalues
    mixes = [(1, 1, 0, 0, 0), (3, 1, 2, 0, 0), (1, 2, 1, 1, 0), (5, 1, 3, 2, 1)]
    ops = [zmat] + [amats[q] for q in space.qset]
    for attempt, mix in enumerate(mixes):
        cmat = [[ZERO] * dim for _ in range(dim)]
        for coeff, mat in zip(mix, ops):
            if coeff:
                for i in range(dim):
                    row = mat[i]
                    crow = cmat[i]
                    for j in range(dim):
                        if row[j]:
                            crow[j] += coeff * row[j]
        u0 = [Fraction((7 * i * i + 3 * i + 5 + attempt) % 101 - 50, 1)
              for i in range(dim)]
        m_all = minpoly(lambda v: matvec(cmat, v), u0, dim)
        mu_polys = []
        for idx in range(min(3, u_ech.rank)):
            uu = [ZERO] * dim
            for j, row in enumerate(u_ech.rows):
                w_ = Fraction(((idx + 2) * (j + 1) * (j + 3)) % 19 + 1)
                uu = [a + w_ * b for a, b in zip(uu, row)]
            mu_polys.append(minpoly(lambda v: matvec(cmat, v), uu, dim))
        # m_all is squarefree: C combines commuting semisimple operators
        try:
            all_factors = fppoly.factor_over_q(m_all)
        except NotSquareFree:  # a repeated factor: the mix did not separate
            all_factors = []
        x = [ZERO, ONE]
        factors = [f for f in all_factors
                   if all(KField(f).eval_poly(mu, x) for mu in mu_polys)]
        if sum(len(f) - 1 for f in factors) == dim_new:
            break
        log(f"  combination {mix} did not separate (attempt {attempt}); retrying")
    else:
        raise RuntimeError("no Hecke combination separated the new part")

    packets = []
    for g in sorted(factors, key=lambda f: (len(f), [str(c) for c in f])):
        kf = KField(g)
        # w = (m_all / g)(C) u0, one other factor of m_all at a time
        w = u0
        for h in all_factors:
            if h != g:
                w = poly_apply(h, cmat, w)
        require(any(w), "projection collapsed; retry with another vector")
        # v = q(C, lambda) w with q(x, lam) = (g(x) - g(lam)) / (x - lam)
        d = kf.deg
        ctw = [w]
        for _ in range(d - 1):
            ctw.append(matvec(cmat, ctw[-1]))
        lam_coeff = []
        for t in range(d):
            poly_l = [g[s] for s in range(t + 1, d + 1)]
            lam_coeff.append(poly_l)  # coefficient of C^t as polynomial in lam
        v = []
        for i in range(dim):
            acc: list[Fraction] = []
            for t in range(d):
                if ctw[t][i]:
                    acc = kf.add(acc, kf.scal(lam_coeff[t], ctw[t][i]))
            v.append(acc)
        require(any(v), "eigenvector is zero")
        # eigenvalue checks and extraction
        pivot = next(i for i in range(dim) if v[i])
        inv_piv = kf.inv(v[pivot])
        eigs = {}
        for q, mat in amats.items():
            img = kmatvec(mat, v, kf)
            a_q = kf.mul(img[pivot], inv_piv)
            for i in range(dim):
                require(img[i] == kf.mul(a_q, v[i]), f"not an eigenvector of T_{q}")
            eigs[q] = a_q
        zimg_vec = kmatvec(zmat, v, kf)
        z = kf.mul(zimg_vec[pivot], inv_piv)
        require(kf.eval_poly(list(cyclotomic_poly(space.c)), z) == [],
                "character value is not a root of its cyclotomic polynomial")
        # q-expansion over K
        flat_k = [[] for _ in range(space.width)]
        for i in range(dim):
            if v[i]:
                row = space.ech.rows[i]
                for col in range(space.width):
                    if row[col]:
                        flat_k[col] = kf.add(flat_k[col], kf.scal(v[i], row[col]))
        zpow = [[ONE]]
        for _ in range(space.w - 1):
            zpow.append(kf.mul(zpow[-1], z))
        a_list = []
        for n in range(space.b0 + 1):
            acc: list[Fraction] = []
            for j in range(space.w):
                cell = flat_k[n * space.w + j]
                if cell:
                    acc = kf.add(acc, kf.mul(cell, zpow[j]))
            a_list.append(acc)
        require(a_list[0] == [], "newform must vanish at infinity")
        a1 = a_list[1]
        inv_a1 = kf.inv(a1)
        a_list = [kf.mul(a, inv_a1) for a in a_list[1:]]
        for q, a_q in eigs.items():
            require(a_list[q - 1] == a_q, f"a_{q} mismatch after normalisation")
        # rational basis of the isotypic block: the K-component vectors of
        # the eigenvector's flat expansion
        block_series = []
        blk_ech = Echelon(space.width)
        for s in range(kf.deg):
            flat_s = [cell[s] if s < len(cell) else ZERO for cell in flat_k]
            require(blk_ech.add(list(flat_s)), "degenerate eigenvector component")
            block_series.append(space.unflat(flat_s))
        packet = EigenPacket(space, g, a_list, z, space.chi, block_series)
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
    level = space.level
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
    # Atkin-Lehner squares at p || level away from the conductor
    chi0 = packet.chi.primitive()
    for p in primefactors(level):
        if chi0.modulus % p == 0 or (level // p) % p == 0:
            continue
        rhs = kf.scal(packet.chi_image(p, chi0), Fraction(p) ** (k - 2))
        lhs = kf.mul(packet.a_n(p), packet.a_n(p))
        require(lhs == rhs, f"Atkin-Lehner square failed at {p}")
    log(f"    packet verified (hecke structure to {b}, AL squares)")


# ----------------------------------------------------------------------
# K_f extraction and fixture serialisation
# ----------------------------------------------------------------------


def theta_candidates(packet: EigenPacket):
    a = packet.a_n
    cands = [a(2), a(3), a(5), a(7),
             packet.kf.add(a(2), a(3)), packet.kf.add(a(2), a(5)),
             packet.kf.add(a(3), a(5)), packet.kf.add(a(2), packet.kf.add(a(3), a(5)))]
    return [c for c in cands if c]


def trace_sequence(mp: list[Fraction], coords: list[list[Fraction]], upto: int):
    """Tr_{Q(theta)/Q}(a_n) for n = 1..upto from power sums of the roots."""
    deg = len(mp) - 1
    # Newton identities: power sums s_i of the roots of mp
    e = [mp[deg - i] * (-1) ** i for i in range(deg + 1)]  # elementary symm
    s = [Fraction(deg)]
    for i in range(1, deg):
        acc = Fraction(i) * e[i] * (-1) ** (i + 1)
        for j in range(1, i):
            acc += (-1) ** (j + 1) * e[j] * s[i - j]
        s.append(acc)
    out = []
    for vec in coords[:upto]:
        out.append(sum((c * s[i] for i, c in enumerate(vec)), ZERO))
    return out


def hnf_lattice(coords: list[list[Fraction]], deg: int):
    """Lower-triangular Hermite basis of the lattice spanned by the power
    basis and all coefficient vectors; returns (basis rows as Fractions,
    integer coordinates of each coefficient vector)."""
    den = 1
    for vec in coords:
        for c in vec:
            den = den * c.denominator // gcd(den, c.denominator)
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
    int_coords = []
    for vec in coords:
        target = [int(c * den) for c in vec]
        ys = [0] * deg
        for i in range(deg):
            y, rem = divmod(target[i], basis[i][i])
            require(rem == 0, "coefficient outside the lattice")
            ys[i] = y
            if y:
                target = [t - y * b for t, b in zip(target, basis[i])]
        require(not any(target), "coefficient outside the lattice")
        int_coords.append(tuple(ys))
    return frac_basis, int_coords


def packet_to_fixture(packet: EigenPacket, label: str, b_data: int,
                      field_poly: list[Fraction] | None = None) -> NewformData:
    theta, mp, coords = packet.coefficient_field
    kf = packet.kf
    if field_poly is not None:
        rho = find_root_in_field(mp, field_poly)
        deg = len(mp) - 1
        kk = KField(mp)
        powers = [[ONE]]
        for _ in range(deg - 1):
            powers.append(kk.mul(powers[-1], rho))
        new_coords = []
        for vec in coords:
            sol = kk.coords_over(vec, powers)
            require(sol is not None, "rebasing failed")
            new_coords.append(sol)
        coords = new_coords
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
    # solve for rho = h(theta): h(f_roots[i]) = t_roots[sigma(i)]
    from itertools import permutations
    van = [[pow(r, j, modulus) for j in range(deg)] for r in f_roots]
    for sigma in permutations(range(deg)):
        target = [t_roots[sigma[i]] for i in range(deg)]
        sol = _solve_mod(van, target, modulus)
        if sol is None:
            continue
        cand = [_rational_reconstruct(c, modulus) for c in sol]
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


def _solve_mod(mat, target, m):
    n = len(mat)
    rows = [list(r) + [t] for r, t in zip(mat, target)]
    for col in range(n):
        piv = next((i for i in range(col, n) if gcd(rows[i][col], m) == 1), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, m)
        rows[col] = [v * inv % m for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % m for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] for i in range(n)]


def _rational_reconstruct(a: int, m: int):
    """Classic half-extended Euclid: a = n/d mod m with |n|, d <= sqrt(m/2)."""
    bound = int((m // 2) ** 0.5)
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


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def build_space_packets(level, k, chi, b0, qset, old_specs, cache):
    key = (level, k, chi.label)
    if key in cache:
        return cache[key]
    old_packets = []
    for spec in old_specs:
        old_packets.extend(build_space_packets(*spec, cache=cache))
    space = Space(level, k, chi, b0, qset)
    packets = extract_newforms(space, old_packets)
    cache[key] = packets
    return packets


def lmfdb_orbits(packets):
    """The distinct newform orbits in LMFDB's letter order: by dimension,
    then by the rational trace sequence, which is also what identifies the
    conjugate copies that restriction of scalars can produce (the first
    copy is kept)."""
    orbits = {}
    for p in packets:
        theta, mp, coords = p.coefficient_field
        key = (len(mp) - 1, tuple(trace_sequence(mp, coords, 50)))
        orbits.setdefault(key, p)
    return [orbits[key] for key in sorted(orbits)]


CHI5, CHI7_7, CHI7_6 = DirichletChar(5, 4), DirichletChar(7, 3), DirichletChar(7, 4)
SPEC_7_6 = (7, 6, CHI7_6, 280, [2, 3, 5], [])

# label -> (space spec as build_space_packets takes it, with the specs of
# its old-form spaces; orbit dimension; b_data; field polynomial to rebase
# onto or None)
FIXTURE_SPECS = {
    "10.8.b.a": ((10, 8, CHI5.lift(10), 130, [3, 7], [(5, 8, CHI5, 130, [2, 3], [])]),
                 4, 110, [Fraction(c) for c in (64, 0, -15, 0, 1)]),
    "14.7.d.a": ((14, 7, CHI7_7.lift(14), 120, [3, 5], [(7, 7, CHI7_7, 120, [2, 3], [])]),
                 8, 60, None),
    "42.6.e.c": ((42, 6, CHI7_6.lift(42), 280, [5],
                  [SPEC_7_6, (14, 6, CHI7_6.lift(14), 280, [3, 5], [SPEC_7_6]),
                   (21, 6, CHI7_6.lift(21), 280, [2, 5], [SPEC_7_6])]),
                 4, 60, None),
}


def build_fixture(label: str, cache) -> NewformData:
    """The fixture of the orbit that the label's last letter names among
    the newform orbits of its space (a the first)."""
    space_spec, dim, b_data, field_poly = FIXTURE_SPECS[label]
    orbits = lmfdb_orbits(build_space_packets(*space_spec, cache=cache))
    dims = [len(p.coefficient_field[1]) - 1 for p in orbits]
    log(f"level {space_spec[0]}: {len(orbits)} newform orbits, dims {dims}")
    idx = ord(label[-1]) - ord("a")
    require(idx < len(dims) and dims[idx] == dim, f"{label}: expected dimension {dim}, dims {dims}")
    return packet_to_fixture(orbits[idx], label, b_data, field_poly)


def main():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    cache = {}

    log("writing 1.12.a.a from the eta-product expansion")
    taus = delta_an(220)
    nf = NewformData(
        label="1.12.a.a", level=1, weight=12, character=DirichletChar(1, 1),
        field_poly=(Fraction(0), Fraction(1)),
        basis=((Fraction(1),),),
        an=tuple((t,) for t in taus[1:]),
    )
    nf.validate()
    save_fixture(nf, FIXTURE_DIR)

    for label in FIXTURE_SPECS:
        save_fixture(build_fixture(label, cache), FIXTURE_DIR)
        log(f"wrote {label}")
    log("all fixtures written")


if __name__ == "__main__":
    main()
