"""Exact linear algebra over the rationals.

Dense routines for the small per-vertex-pair blocks used in reduction, and a
sparse incremental eliminator, fraction-free on integer rows, that serves the
rigidity test alone.
"""

from fractions import Fraction
from math import gcd, lcm


def rank(matrix):
    """Rank of a dense matrix given as a list of rows: the r of `diagonalize_pairing`."""
    return diagonalize_pairing(matrix)[2]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            if a[i][t] == 0:
                continue
            f = a[i][t]
            row = b[t]
            oi = out[i]
            for j in range(m):
                if row[j] != 0:
                    oi[j] += f * row[j]
    return out


def diagonalize_pairing(m):
    """Invertible P, Q with P m Q having an identity block of size rank(m).

    Gauss-Jordan with both row and column operations, deterministic pivoting
    on the smallest available index pair.  Returns (P, Q, r).
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in m]
    p = identity(nr)
    q = identity(nc)
    r = 0
    while True:
        pivot = None
        for i in range(r, nr):
            for j in range(r, nc):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            p[r], p[pi] = p[pi], p[r]
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            for row in q:
                row[r], row[pj] = row[pj], row[r]
        inv = 1 / a[r][r]
        a[r] = [x * inv for x in a[r]]
        p[r] = [x * inv for x in p[r]]
        for i in range(nr):
            if i != r and a[i][r] != 0:
                f = a[i][r]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                p[i] = [x - f * y for x, y in zip(p[i], p[r])]
        for j in range(nc):
            if j != r and a[r][j] != 0:
                f = a[r][j]
                for row in a:
                    row[j] -= f * row[r]
                for row in q:
                    row[j] -= f * row[r]
        r += 1
    return p, q, r


class SparseEliminator:
    """Row space over the rationals in row echelon form, built incrementally.

    Rows are dicts column-key -> int or Fraction; column keys must be
    orderable.  Elimination is fraction-free: a row's denominators are
    cleared once, on entry, and from then on every row is an integer vector.
    Each basis row is stored under its least column, divided by its content
    (the gcd of its entries), with a positive coefficient there, so no two
    basis rows share a least column.  That echelon invariant is all
    `contains` needs: reducing a row cancels its least column against the
    basis row stored there, which only touches larger columns, until the row
    vanishes (it lies in the span) or its least column has no basis row (it
    does not).  Basis rows are not reduced against each other.
    """

    def __init__(self):
        self.basis = {}

    def _reduce(self, row):
        """Cancel least columns against the basis while it has a row there.

        Returns (least column, reduced integer row) at the first least column
        with no basis row, or (None, {}) when the row reduces to zero, i.e.
        lies in the span.  With f the row's entry and p > 0 the pivot, the row
        becomes r - (f//p)*b when p divides f, and (p*r - f*b)/gcd(p, f)
        otherwise.
        """
        basis = self.basis
        den = 0
        for v in row.values():
            if type(v) is not int:
                den = lcm(den or 1, v.denominator)
        if den:
            row = {c: int(v * den) for c, v in row.items() if v}
        else:
            row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            piv = basis.get(col)
            if piv is None:
                return col, row
            f = row[col]
            p = piv[col]
            if f % p:
                g = gcd(p, f)
                m = p // g
                f //= g
                row = {c: m * v for c, v in row.items()}
            else:
                f //= p
            for c, v in piv.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
        return None, row

    def add_row(self, row):
        """Insert a row; returns True if it enlarged the span."""
        col, red = self._reduce(row)
        if col is None:
            return False
        g = gcd(*red.values())
        if red[col] < 0:
            g = -g
        if g != 1:
            red = {c: v // g for c, v in red.items()}
        self.basis[col] = red
        return True

    def contains(self, row):
        col, _ = self._reduce(row)
        return col is None

    @property
    def rank(self):
        return len(self.basis)
