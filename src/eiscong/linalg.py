"""Exact linear algebra over Q: a reduced row echelon form of Fraction
vectors, grown a vector at a time, and linear solves and kernels built
on it, one elimination for any number of targets."""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Echelon:
    """A reduced row echelon basis of rational vectors of one length,
    rows sorted by pivot."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def reduce(self, vec) -> tuple[list[Fraction], list[Fraction]]:
        """(coordinates taken off the rows, remainder) of vec, whose
        remainder is 0 at every pivot."""
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

    def insert(self, rem) -> bool:
        """Join a remainder of :meth:`reduce` as a row; False if it is 0."""
        piv = next((i for i, c in enumerate(rem) if c), None)
        if piv is None:
            return False
        inv = _ONE / rem[piv]
        new_row = [c * inv for c in rem]
        for row in self.rows:
            c = row[piv]
            if c:
                for i in range(piv, len(new_row)):
                    if new_row[i]:
                        row[i] -= c * new_row[i]
        self.rows.append(new_row)
        self.pivots.append(piv)
        order = sorted(range(len(self.rows)), key=lambda j: self.pivots[j])
        self.rows = [self.rows[j] for j in order]
        self.pivots = [self.pivots[j] for j in order]
        return True

    def add(self, vec) -> bool:
        """Join vec to the span; False if it lies in it already."""
        return self.insert(self.reduce(vec)[1])

    @property
    def rank(self) -> int:
        return len(self.rows)


def _augmented(cols) -> Echelon:
    """The row echelon form of the rows cols[j] + e_j, e_j the j-th unit vector."""
    ech = Echelon()
    for j, col in enumerate(cols):
        ech.add([*col, *(_ONE if i == j else _ZERO for i in range(len(cols)))])
    return ech


def solver(cols):
    """The solve of sum_j y_j cols[j] = target over Q, as a function of the
    target (as long as each column): y, or None if there is none.  The
    columns are eliminated once, by :func:`_augmented`; a target reduced
    against them leaves 0 + (-y) exactly when y solves, so y comes off the
    remainder's tail."""
    ech = _augmented(cols)

    def solve(target) -> list[Fraction] | None:
        n = len(target)
        rem = ech.reduce([*target, *(_ZERO,) * len(cols)])[1]
        if any(rem[:n]):
            return None
        return [-c for c in rem[n:]]

    return solve


def kernel(cols) -> list[list[Fraction]]:
    """A basis of the y with sum_j y_j cols[j] = 0: the tails of the rows of
    :func:`_augmented` that are 0 on the columns."""
    n = len(cols[0]) if cols else 0
    ech = _augmented(cols)
    return [row[n:] for row, piv in zip(ech.rows, ech.pivots) if piv >= n]
