import random
from fractions import Fraction
from math import gcd

from oracles import oracle_rank
from qpsurf.linalg import SparseEliminator, diagonalize_pairing, mat_mul, rank


def dense_rank(m):
    """The oracle's rank of a dense matrix given as a list of rows."""
    return oracle_rank([dict(enumerate(row)) for row in m], range(len(m[0]) if m else 0))


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 3]]) == 2
    assert rank([[Fraction(1, 2), 1], [1, 2], [0, 1]]) == 2


def test_diagonalize_pairing_random():
    rng = random.Random(99)
    for _ in range(60):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        m = [[Fraction(rng.randrange(-3, 4)) for _ in range(nc)] for _ in range(nr)]
        p, q, r = diagonalize_pairing(m)
        prod = mat_mul(mat_mul(p, m), q)
        for i in range(nr):
            for j in range(nc):
                expect = Fraction(int(i == j and i < r))
                assert prod[i][j] == expect
        assert dense_rank(p) == nr and dense_rank(q) == nc
        assert r == dense_rank(m)


def test_diagonalize_pairing_keeps_an_identity_as_it_is():
    # qp._diagonal_pairing skips Gauss-Jordan on an identity block, which is
    # exact only because it would return P = Q = I and r = n there
    for n in range(1, 5):
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert diagonalize_pairing(eye) == (eye, eye, n)


def test_sparse_eliminator_membership():
    elim = SparseEliminator()
    assert elim.add_row({"x": Fraction(1), "y": Fraction(2)})
    assert elim.add_row({"y": Fraction(1), "z": Fraction(1)})
    assert not elim.add_row({"x": Fraction(1), "z": Fraction(-2)})  # dependent
    assert elim.rank == 2
    assert elim.contains({"x": Fraction(2), "y": Fraction(4)})
    assert not elim.contains({"z": Fraction(1)})
    assert elim.contains({})


def assert_primitive_echelon(elim):
    # each basis row sits under its least column, as a primitive integer
    # vector (content 1) with a positive pivot
    for col, brow in elim.basis.items():
        assert min(brow) == col and brow[col] > 0
        assert all(type(v) is int and v != 0 for v in brow.values())
        assert gcd(*brow.values()) == 1


def test_sparse_eliminator_matches_dense_rank_random():
    rng = random.Random(2008)
    for _ in range(100):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        m = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, rng.randrange(-5, 6)]),
                       rng.randrange(1, 4)) for _ in range(nc)] for _ in range(nr)]
        elim = SparseEliminator()
        for i, row in enumerate(m):
            enlarged = elim.add_row(dict(enumerate(row)))
            assert enlarged == (dense_rank(m[:i + 1]) > dense_rank(m[:i]))
        assert elim.rank == dense_rank(m)
        assert_primitive_echelon(elim)
        for _ in range(4):
            probe = [Fraction(rng.randrange(-2, 3)) for _ in range(nc)]
            if rng.random() < 0.5:  # a combination of the rows, so inside the span
                coeffs = [rng.randrange(-2, 3) for _ in range(nr)]
                probe = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(nc)]
            inside = dense_rank(m + [probe]) == dense_rank(m)
            assert elim.contains(dict(enumerate(probe))) == inside


def test_sparse_eliminator_clears_denominators_up_to_seven():
    # wider rows with denominators 1..7: clearing them on entry and reducing
    # fraction-free keeps ranks, add_row's answer and membership exact
    rng = random.Random(7)
    for _ in range(25):
        nr = rng.randrange(4, 12)
        nc = rng.randrange(10, 14)
        m = [[Fraction(rng.choice([0, 0, 0, rng.randrange(-9, 10)]), rng.randrange(1, 8))
              for _ in range(nc)] for _ in range(nr)]
        if nr > 3:  # a dependent row, so some add_row calls answer False
            m[-1] = [x - 3 * y for x, y in zip(m[0], m[1])]
        elim = SparseEliminator()
        for i, row in enumerate(m):
            enlarged = elim.add_row(dict(enumerate(row)))
            assert enlarged == (dense_rank(m[:i + 1]) > dense_rank(m[:i]))
        assert elim.rank == dense_rank(m)
        assert_primitive_echelon(elim)
        for _ in range(4):
            coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 8)) for _ in range(nr)]
            probe = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(nc)]
            if rng.random() < 0.5:
                probe[rng.randrange(nc)] += Fraction(1, rng.randrange(1, 8))
            inside = dense_rank(m + [probe]) == dense_rank(m)
            assert elim.contains(dict(enumerate(probe))) == inside
