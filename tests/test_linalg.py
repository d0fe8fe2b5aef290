"""eiscong.linalg against sympy: Echelon's rank, reduced rows and
membership; solver on unique, inconsistent and repeated targets; kernel
against nullspace; and spaces.minpoly, the Krylov relation it finds with
Echelon."""

import random
from fractions import Fraction

import pytest
from sympy import Matrix, diag

from eiscong.linalg import Echelon, kernel, solver
from eiscong.spaces import matvec, minpoly


def _matrix(rng, rows, cols, rank):
    """A random integer matrix of rank at most rank, as a product."""
    return (Matrix(rows, rank, lambda i, j: rng.randint(-5, 5))
            * Matrix(rank, cols, lambda i, j: rng.randint(-5, 5)))


def _fractions(m):
    return [Fraction(str(c)) for c in m]


def _cols(m):
    return [_fractions(m.col(j)) for j in range(m.cols)]


@pytest.mark.parametrize("seed", range(6))
def test_echelon_rank_rows_and_membership_match_sympy(seed):
    rng = random.Random(seed)
    m = _matrix(rng, 7, 6, rng.randint(1, 5))
    ech = Echelon()
    for i in range(m.rows):
        ech.add(_fractions(m.row(i)))
    assert ech.rank == m.rank()
    assert [Fraction(str(c)) for c in m.rref()[0][:ech.rank, :]] == [c for r in ech.rows for c in r]
    y = [Fraction(rng.randint(-3, 3)) for _ in range(ech.rank)]
    inside = [sum(c * row[i] for c, row in zip(y, ech.rows)) for i in range(m.cols)]
    assert ech.reduce(inside) == (y, [0] * m.cols)
    # a unit vector outside the row space (the rank is below 6) leaves a remainder
    unit = next(e for e in (Matrix.eye(m.cols).row(i) for i in range(m.cols))
                if Matrix.vstack(m, e).rank() > m.rank())
    assert any(ech.reduce(_fractions(unit))[1])


@pytest.mark.parametrize("seed", range(6))
def test_solver_matches_sympy_on_several_targets(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    a = next(m for m in iter(lambda: _matrix(rng, n, n, n), None) if m.det())
    solve = solver(_cols(a))
    for _ in range(4):  # one elimination serves every target
        t = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        assert solve(t) == _fractions(a.LUsolve(Matrix(t)))


def test_solver_refuses_an_inconsistent_target():
    # four dependent columns in Q^6: a target outside their span gets None,
    # one inside it some y with A y = target
    rng = random.Random(11)
    a = _matrix(rng, 6, 4, 3)
    solve = solver(_cols(a))
    for trial in range(8):
        x = Matrix(4, 1, lambda i, j: rng.randint(-4, 4))
        t = a * x if trial % 2 else Matrix(6, 1, lambda i, j: rng.randint(-4, 4))
        y = solve(_fractions(t))
        if Matrix.hstack(a, t).rank() > a.rank():
            assert y is None
        else:
            assert a * Matrix(y) == t


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_sympy_nullspace(seed):
    # columns in Q^rows, more of them than their rank: count - rank vectors,
    # each annihilating the columns, spanning what nullspace spans
    rng = random.Random(seed)
    rows, count = rng.randint(2, 6), rng.randint(3, 7)
    a = _matrix(rng, rows, count, rng.randint(1, min(rows, count - 1))) / rng.randint(1, 4)
    basis = kernel(_cols(a))
    assert len(basis) == count - a.rank() == len(a.nullspace())
    for y in basis:
        assert a * Matrix(y) == Matrix.zeros(rows, 1)
    mine = Matrix.hstack(*(Matrix(y) for y in basis))
    theirs = Matrix.hstack(*a.nullspace())
    assert Matrix.hstack(mine, theirs).rank() == mine.rank() == len(basis)


def test_kernel_of_empty_columns_is_the_identity_basis():
    # every y annihilates columns of length 0
    assert kernel([[] for _ in range(3)]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel([]) == []


@pytest.mark.parametrize("seed", range(8))
def test_minpoly_matches_sympy(seed):
    # the minimal polynomial of u is the monic polynomial of degree the rank
    # of the Krylov matrix (u, Au, ...) that kills u; doubled blocks give
    # one below the dimension
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    block = Matrix(n, n, lambda i, j: rng.randint(-4, 4))
    a = diag(block, block) if seed % 2 else block
    dim = a.rows
    u = Matrix(dim, 1, lambda i, j: rng.randint(-3, 3))
    mat = [_fractions(a.row(i)) for i in range(dim)]
    poly = minpoly(lambda v: matvec(mat, v), _fractions(u), dim)
    krylov = Matrix.hstack(*(a ** j * u for j in range(dim)))
    assert poly[-1] == 1 and len(poly) - 1 == krylov.rank()
    zero = Matrix.zeros(dim, 1)
    assert sum((c * a ** i * u for i, c in enumerate(poly)), zero) == zero
