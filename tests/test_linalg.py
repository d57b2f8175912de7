import random
from fractions import Fraction

from qpsurf.linalg import SparseEliminator, diagonalize_pairing, mat_mul, rank


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
        assert rank(p) == nr and rank(q) == nc
        assert r == rank(m)


def test_sparse_eliminator_membership():
    elim = SparseEliminator()
    assert elim.add_row({"x": Fraction(1), "y": Fraction(2)})
    assert elim.add_row({"y": Fraction(1), "z": Fraction(1)})
    assert not elim.add_row({"x": Fraction(1), "z": Fraction(-2)})  # dependent
    assert elim.rank == 2
    assert elim.contains({"x": Fraction(2), "y": Fraction(4)})
    assert not elim.contains({"z": Fraction(1)})
    assert elim.contains({})


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
            assert enlarged == (rank(m[:i + 1]) > rank(m[:i]))
        assert elim.rank == rank(m)
        for col, brow in elim.basis.items():
            assert min(brow) == col and brow[col] == 1
            assert all(v != 0 for v in brow.values())
        for _ in range(4):
            probe = [Fraction(rng.randrange(-2, 3)) for _ in range(nc)]
            if rng.random() < 0.5:  # a combination of the rows, so inside the span
                coeffs = [rng.randrange(-2, 3) for _ in range(nr)]
                probe = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(nc)]
            inside = rank(m + [probe]) == rank(m)
            assert elim.contains(dict(enumerate(probe))) == inside
