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
(it refuses ``python -O``, which would strip the asserts guarding them).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from math import gcd, lcm, prod
from functools import cached_property
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eiscong import fppoly  # noqa: E402
from eiscong.arith import divisors, factorint, primefactors, primerange  # noqa: E402
from eiscong.characters import DirichletChar, primitive_characters  # noqa: E402
from eiscong.cyclotomic import (CycNum, _phi, _solve_columns, clear_denominators,  # noqa: E402
                                 cyclotomic_poly)
from eiscong.errors import NotSquareFree  # noqa: E402
from eiscong.eisenstein import sigma_power_div  # noqa: E402
from eiscong.fppoly import trim  # noqa: E402
from eiscong.lvalues import l_value_at_negative  # noqa: E402
from eiscong.newforms import NewformData, delta_an, save_fixture, sturm_bound  # noqa: E402

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "eiscong" / "fixtures"

ZERO = Fraction(0)
ONE = Fraction(1)


def log(msg: str):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


# ----------------------------------------------------------------------
# Eisenstein atoms
# ----------------------------------------------------------------------


def sigma_series(k1: int, psi: DirichletChar, phi: DirichletChar, b: int) -> list[CycNum]:
    """a_0 .. a_b of the (psi, phi) Eisenstein series of weight k1 >= 2."""
    if psi.modulus == 1:
        a0 = l_value_at_negative(k1, psi.inverse() * phi) * Fraction(1, 2)
    else:
        a0 = CycNum.zero(1)
    return [a0] + [sigma_power_div(n, k1, psi, phi) for n in range(1, b + 1)]


def e2t_series(t: int, b: int) -> list[CycNum]:
    """E_2(z) - t E_2(tz), holomorphic of level t (t > 1)."""
    out = [CycNum.from_rational(Fraction(t - 1, 24))]
    for n in range(1, b + 1):
        s = sum(d for d in divisors(n))
        s2 = sum(d for d in divisors(n // t)) if n % t == 0 else 0
        out.append(CycNum.from_rational(Fraction(s - t * s2)))
    return out


def dilate(coeffs: list[CycNum], t: int) -> list[CycNum]:
    if t == 1:
        return coeffs
    zero = CycNum.zero(1)
    return [coeffs[n // t] if n % t == 0 else zero for n in range(len(coeffs))]


class Atom:
    """One Eisenstein factor: weight, character pair, dilation."""

    def __init__(self, k1, psi, phi, t, special_e2=False):
        self.k1, self.psi, self.phi, self.t = k1, psi, phi, t
        self.special_e2 = special_e2

    @property
    def char_order(self) -> int:
        return lcm(self.psi.order, self.phi.order)

    def series(self, b: int) -> list[CycNum]:
        if self.special_e2:
            return e2t_series(self.t, b)
        return dilate(sigma_series(self.k1, self.psi, self.phi, b), self.t)

    def __repr__(self):
        if self.special_e2:
            return f"E2^({self.t})"
        return f"E{self.k1}[{self.psi.label},{self.phi.label}]({self.t})"


def weight_atoms(k1: int, level: int) -> list[Atom]:
    """All Eisenstein atoms of weight k1 >= 2 with level dividing `level`."""
    out = []
    for u in divisors(level):
        for v in divisors(level // u):
            for psi in primitive_characters(u):
                for phi in primitive_characters(v):
                    if psi.parity * phi.parity != (-1) ** k1:
                        continue
                    if k1 == 2 and u == v == 1:
                        continue
                    for t in divisors(level // (u * v)):
                        out.append(Atom(k1, psi, phi, t))
    if k1 == 2:
        for t in divisors(level):
            if t > 1:
                out.append(Atom(2, DirichletChar(1, 1), DirichletChar(1, 1), t,
                                special_e2=True))
    return out


def mul_series(f: list[CycNum], g: list[CycNum], b: int) -> list[CycNum]:
    out = [CycNum.zero(1) for _ in range(b + 1)]
    for i, a in enumerate(f[: b + 1]):
        if not a:
            continue
        top = min(b - i, len(g) - 1)
        for j in range(top + 1):
            if g[j]:
                out[i + j] = out[i + j] + a * g[j]
    return out


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
        assert all(p < len(vec) for p in self.pivots), "vector too short for the pivot set"
        coords, rem = self._reduce(vec)
        assert not any(rem[:check_cols]), "vector is not in the span"
        return coords


# ----------------------------------------------------------------------
# K = Q[x]/(g) arithmetic (lists of Fractions, lowest degree first)
# ----------------------------------------------------------------------


class KField:
    """K = Q[x]/(g) for monic irreducible g; elements are trimmed lists of
    Fractions of length at most deg g."""

    def __init__(self, g: list[Fraction]):
        self.g = trim([Fraction(c) for c in g])
        assert self.g[-1] == 1, "KField needs a monic modulus"
        self.deg = len(self.g) - 1

    def mul(self, a, b):
        """The product, reduced by the monic g from the top down."""
        if not a or not b:
            return []
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        d = self.deg
        low = self.g[:d]
        while len(out) > d:
            c = out.pop()
            if c:
                base = len(out) - d
                for i, gi in enumerate(low):
                    out[base + i] -= c * gi
        return trim(out)

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
        assert y is not None, "element is not invertible"
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
    """dim S_k(Gamma_0(N), chi) for k >= 3 (also k = 2 away from the
    trivial-character correction, which is handled)."""
    n = chi.modulus
    f = chi.conductor
    mu = n * prod(Fraction(p + 1, p) for p in primefactors(n)) if n > 1 else Fraction(1)
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
    for x in range(n if n > 1 else 1):
        if (x * x + 1) % n == 0 if n > 1 else x == 0:
            e4 = e4 + chi(x)
        if n > 1 and (x * x + x + 1) % n == 0:
            e3 = e3 + chi(x)
    if n == 1:
        e4 = CycNum.one()
        e3 = CycNum.one()
    total = term - Fraction(1, 2) * prod_term \
        + gamma_k * e4.rational_value() + mu_k * e3.rational_value()
    if k == 2 and chi.is_trivial():
        total += 1
    assert total.denominator == 1, f"dimension formula gave {total}"
    return int(total)


class Space:
    """M_k(Gamma_0(level), chi) realised as exact truncated q-expansions."""

    def __init__(self, level: int, k: int, chi: DirichletChar, b0: int, qset: list[int]):
        self.level, self.k, self.chi, self.b0 = level, k, chi, b0
        self.qset = qset
        self.sturm = sturm_bound(k, level)
        assert all(b0 // q >= self.sturm + 1 for q in qset), "b0 too small for qset"
        self.eis_atoms = [a for a in weight_atoms(k, level)
                          if (a.psi * a.phi).primitive() == chi.primitive()]
        orders = {a.char_order for a in self.eis_atoms} | {chi.order}
        self.pairs = []
        for k1 in range(2, k // 2 + 1):
            k2 = k - k1
            if k2 < k1:
                continue
            a1 = weight_atoms(k1, level)
            a2 = weight_atoms(k2, level)
            for x in a1:
                for y in a2:
                    if (x.psi * x.phi * y.psi * y.phi).primitive() == chi.primitive():
                        self.pairs.append((x, y))
                        orders.add(x.char_order)
                        orders.add(y.char_order)
        self.c = lcm(*orders) if orders else 1
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

    def flat(self, coeffs: list[CycNum], prec: int | None = None) -> list[Fraction]:
        prec = self.b0 if prec is None else prec
        out = [ZERO] * ((prec + 1) * self.w)
        for n, a in enumerate(coeffs[: prec + 1]):
            if a:
                v = a.coerce(self.c)
                base = n * self.w
                for j, cc in enumerate(v.coeffs):
                    out[base + j] = cc
        return out

    def unflat(self, vec: list[Fraction]) -> list[CycNum]:
        out = []
        n_coeffs = len(vec) // self.w
        for n in range(n_coeffs):
            out.append(CycNum(self.c, vec[n * self.w:(n + 1) * self.w]))
        return out

    def zeta_shift(self, vec: list[Fraction]) -> list[Fraction]:
        out = [ZERO] * len(vec)
        z = CycNum.zeta(self.c)
        n_coeffs = len(vec) // self.w
        for n in range(n_coeffs):
            block = CycNum(self.c, vec[n * self.w:(n + 1) * self.w]) * z
            for j, cc in enumerate(block.coeffs):
                out[n * self.w + j] = cc
        return out

    # -- basis ----------------------------------------------------------

    def build_basis(self):
        ech = Echelon(self.width)
        sources = []
        for atom in self.eis_atoms:
            sources.append(("eis", atom))
        for pair in self.pairs:
            sources.append(("prod", pair))
        series_cache = {}

        def atom_series(atom):
            key = repr(atom)
            if key not in series_cache:
                series_cache[key] = atom.series(self.b0)
            return series_cache[key]

        for kind, payload in sources:
            if ech.rank >= self.dim_q:
                break
            if kind == "eis":
                coeffs = atom_series(payload)
            else:
                x, y = payload
                coeffs = mul_series(atom_series(x), atom_series(y), self.b0)
            vec = self.flat(coeffs)
            for _ in range(self.w):
                ech.add(vec)
                vec = self.zeta_shift(vec)
        assert ech.rank == self.dim_q, \
            f"span rank {ech.rank} != expected {self.dim_q}"
        self.ech = ech
        log(f"  basis complete: rank {ech.rank}")

    # -- Hecke action -----------------------------------------------------

    def hecke_flat(self, vec: list[Fraction], q: int) -> list[Fraction]:
        coeffs = self.unflat(vec)
        out_prec = self.b0 // q
        cp = self.chi(q) * Fraction(q) ** (self.k - 1)
        out = []
        for n in range(out_prec + 1):
            a = coeffs[n * q]
            if n % q == 0:
                a = a + cp * coeffs[n // q]
            out.append(a)
        return self.flat(out, out_prec)

    def hecke_matrix(self, q: int) -> list[list[Fraction]]:
        rows = []
        check = (self.sturm + 1) * self.w
        for r in self.ech.rows:
            img = self.hecke_flat(r, q)
            rows.append(self.ech.express(img, check_cols=check))
        # column-major action: (A v)_i = sum_j rows[j][i] v_j
        return [list(col) for col in zip(*rows)]

    def zeta_matrix(self) -> list[list[Fraction]]:
        rows = [self.ech.express(self.zeta_shift(r)) for r in self.ech.rows]
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
    assert sol is not None
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
        self.block_series = block_series  # CycNum coefficient series

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
            assert sol is not None, "coefficient not in Q(theta); enlarge theta"
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
        vec = space.flat(atom.series(space.b0))
        for _ in range(space.w):
            u_ech.add(space.ech.express(vec))
            vec = space.zeta_shift(vec)
    for packet in old_packets:
        lower_level = packet.space.level
        assert space.c % packet.space.c == 0, "flattening conductors incompatible"
        for t in divisors(space.level // lower_level):
            for series in packet.block_series:
                vec = space.flat(dilate(series[: space.b0 + 1], t))
                for _ in range(space.w):
                    u_ech.add(space.ech.express(vec))
                    vec = space.zeta_shift(vec)
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
        assert any(w), "projection collapsed; retry with another vector"
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
        assert any(v)
        # eigenvalue checks and extraction
        pivot = next(i for i in range(dim) if v[i])
        inv_piv = kf.inv(v[pivot])
        eigs = {}
        for q, mat in amats.items():
            img = kmatvec(mat, v, kf)
            a_q = kf.mul(img[pivot], inv_piv)
            for i in range(dim):
                assert img[i] == kf.mul(a_q, v[i]), f"not an eigenvector of T_{q}"
            eigs[q] = a_q
        zimg_vec = kmatvec(zmat, v, kf)
        z = kf.mul(zimg_vec[pivot], inv_piv)
        assert kf.eval_poly(list(cyclotomic_poly(space.c)), z) == []
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
        assert a_list[0] == [], "newform must vanish at infinity"
        a1 = a_list[1]
        inv_a1 = kf.inv(a1)
        a_list = [kf.mul(a, inv_a1) for a in a_list[1:]]
        for q, a_q in eigs.items():
            assert a_list[q - 1] == a_q, f"a_{q} mismatch after normalisation"
        # rational basis of the isotypic block: the K-component vectors of
        # the eigenvector's flat expansion
        block_series = []
        blk_ech = Echelon(space.width)
        for s in range(kf.deg):
            flat_s = [cell[s] if s < len(cell) else ZERO for cell in flat_k]
            assert blk_ech.add(list(flat_s)), "degenerate eigenvector component"
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
            assert lhs == rhs, (p, n, "hecke coefficient relation")
    # Atkin-Lehner squares at p || level away from the conductor
    chi0 = packet.chi.primitive()
    for p in primefactors(level):
        if chi0.modulus % p == 0 or (level // p) % p == 0:
            continue
        rhs = kf.scal(packet.chi_image(p, chi0), Fraction(p) ** (k - 2))
        lhs = kf.mul(packet.a_n(p), packet.a_n(p))
        assert lhs == rhs, f"Atkin-Lehner square failed at {p}"
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
            assert rem == 0, "coefficient outside the lattice"
            ys[i] = y
            if y:
                target = [t - y * b for t, b in zip(target, basis[i])]
        assert not any(target)
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
            assert sol is not None, "rebasing failed"
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
    assert len(target_poly) - 1 == deg
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


def packet_dim(packet):
    theta, mp, _ = packet.coefficient_field
    return len(mp) - 1


def orbit_key(packet):
    """Intrinsic invariants of the newform orbit: coefficient-field degree
    and the rational trace sequence (identical for the conjugate copies
    that restriction of scalars can produce)."""
    theta, mp, coords = packet.coefficient_field
    traces = tuple(trace_sequence(mp, coords, min(50, len(coords))))
    return (len(mp) - 1, traces)


def dedupe_orbits(packets):
    seen = {}
    for p in packets:
        key = orbit_key(p)
        if key not in seen:
            seen[key] = p
    return list(seen.values())


def fixture_10_8_b_a(cache) -> NewformData:
    """The quartic orbit at level 10 (old forms from level 5), rebased onto
    the field polynomial x^4 - 15x^2 + 64."""
    chi10 = DirichletChar(5, 4).lift(10)
    chi5 = DirichletChar(5, 4)
    packets10 = build_space_packets(
        10, 8, chi10, 130, [3, 7],
        old_specs=[(5, 8, chi5, 130, [2, 3], [])],
        cache=cache)
    packets10 = dedupe_orbits(packets10)
    log(f"level 10: {len(packets10)} newform orbits, dims "
        f"{[packet_dim(p) for p in packets10]}")
    target = [p for p in packets10 if packet_dim(p) == 4]
    assert len(target) == 1, "expected a unique quartic orbit at level 10"
    return packet_to_fixture(target[0], "10.8.b.a", 110,
                             field_poly=[Fraction(64), Fraction(0), Fraction(-15),
                                         Fraction(0), Fraction(1)])


def main():
    if not __debug__:
        sys.exit("make_fixtures.py: its asserts guard every fixture; run it without -O")
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    cache = {}

    # --- Delta (1.12.a.a) -------------------------------------------------
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

    # --- 10.8.b.a ----------------------------------------------------------
    save_fixture(fixture_10_8_b_a(cache), FIXTURE_DIR)
    log("wrote 10.8.b.a")

    # --- 14.7.d.a ----------------------------------------------------------
    chi7 = DirichletChar(7, 3)
    chi14 = chi7.lift(14)
    packets14 = build_space_packets(
        14, 7, chi14, 120, [3, 5],
        old_specs=[(7, 7, chi7, 120, [2, 3], [])],
        cache=cache)
    packets14 = dedupe_orbits(packets14)
    log(f"level 14: {len(packets14)} orbits, dims {[packet_dim(p) for p in packets14]}")
    target = [p for p in packets14 if packet_dim(p) == 8]
    assert len(target) == 1, "expected a unique degree-8 orbit at level 14"
    fx = packet_to_fixture(target[0], "14.7.d.a", 60)
    save_fixture(fx, FIXTURE_DIR)
    log("wrote 14.7.d.a")

    # --- 42.6.e.c ----------------------------------------------------------
    chi7e = DirichletChar(7, 4)
    chi14e = chi7e.lift(14)
    chi21e = chi7e.lift(21)
    chi42e = chi7e.lift(42)
    spec7 = (7, 6, chi7e, 280, [2, 3, 5], [])
    spec14 = (14, 6, chi14e, 280, [3, 5], [spec7])
    spec21 = (21, 6, chi21e, 280, [2, 5], [spec7])
    packets42 = build_space_packets(
        42, 6, chi42e, 280, [5], [spec7, spec14, spec21], cache=cache)
    packets42 = dedupe_orbits(packets42)
    dims = [packet_dim(p) for p in packets42]
    log(f"level 42: {len(packets42)} orbits, dims {dims}")
    # LMFDB letters sort by dimension, then lexicographically by traces
    decorated = []
    for p in packets42:
        theta, mp, coords = p.coefficient_field
        traces = tuple(trace_sequence(mp, coords, 20))
        decorated.append(((len(mp) - 1, traces), p))
    decorated.sort(key=lambda x: x[0])
    letters = "abcdefgh"
    for i, ((d, tr), p) in enumerate(decorated):
        log(f"  42.6.e.{letters[i]}: dim {d}, traces {[str(t) for t in tr[:8]]}")
    target_idx = 2  # the 'c' slot
    dim_c = decorated[target_idx][0][0]
    assert dim_c == 4, f"42.6.e.c expected dimension 4, got {dim_c}"
    fx = packet_to_fixture(decorated[target_idx][1], "42.6.e.c", 60)
    save_fixture(fx, FIXTURE_DIR)
    log("wrote 42.6.e.c")
    log("all fixtures written")


if __name__ == "__main__":
    main()
