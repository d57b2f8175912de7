import hashlib
import random
import warnings
from fractions import Fraction
from itertools import accumulate

import pytest
from oracles import (
    oracle_cartan,
    oracle_derivative,
    oracle_dims,
    oracle_is_rigid,
    oracle_paths,
)
from test_qp import random_premutation_qp

from qpsurf.algebra import (
    AlgebraElement,
    Path,
    Substitution,
    apply_substitution,
    cyclic_derivative,
    cyclic_normal_form,
    least_rotation,
)
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.jacobian import (
    JacobianError,
    _groebner,
    _integer_generators,
    _reduce,
    cartan_matrix,
    finite_dim_evidence,
    is_rigid_up_to,
    truncated_quotient_dim,
)
from qpsurf.potential import PotentialBuildWarning, qp_of_triangulation
from qpsurf.qp import QP, mutate_qp
from qpsurf.quiver import Arrow, Quiver
from qpsurf.surface import SurfaceError, Triangulation, flip


def load_qp(name, order=6):
    return qp_of_triangulation(Triangulation.from_text(example_text(name)), order)


def word(q, order, *names):
    return AlgebraElement.from_word(q, order, names)


# -- generators ---------------------------------------------------------------


def test_generators_of_oriented_triangle():
    q = Quiver(["1", "2", "3"],
               [Arrow("al", "1", "2"), Arrow("be", "2", "3"), Arrow("ga", "3", "1")])
    potential = QP(q, word(q, 6, "be", "al", "ga")).potential
    assert cyclic_derivative(potential, "al") == word(q, 6, "ga", "be")
    assert cyclic_derivative(potential, "be") == word(q, 6, "al", "ga")
    assert cyclic_derivative(potential, "ga") == word(q, 6, "be", "al")


def test_generators_of_zero_potential():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    potential = QP(q, AlgebraElement.zero(q, 6)).potential
    assert cyclic_derivative(potential, "a").is_zero()


def test_torus_generator_literal():
    qp = load_qp("torus")
    x = Fraction(2)
    expect = (word(qp.quiver, 6, "2>3~t0", "1>2~t0")
              + x * word(qp.quiver, 6, "2>3~t1", "1>2~t0", "3>1~t1", "2>3~t0", "1>2~t1"))
    assert cyclic_derivative(qp.potential, "3>1~t0") == expect


def assert_integer_generators_match_oracle(qp, label):
    """Each entry is an integer multiple of the arrow's derivative by the
    rotation formula, arrows with a zero derivative are left out, and the
    terms go shortest first."""
    terms = [(p.arrows, c) for p, c in qp.potential.terms.items()]
    expect = [(a, oracle_derivative(qp.quiver, terms, a.name)) for a in qp.quiver.arrows]
    expect = [(a, d) for a, d in expect if d]
    gens = _integer_generators(qp)
    assert len(gens) == len(expect), label
    for (got, gmin), (a, d) in zip(gens, expect):
        lengths = [len(w) for w, _ in got]
        assert lengths == sorted(lengths) and gmin == lengths[0], (label, a.name)
        assert all(type(c) is int for _, c in got), (label, a.name)
        w0, c0 = got[0]
        r = Fraction(c0) / d[w0]
        assert r and dict(got) == {w: r * c for w, c in d.items()}, (label, a.name)


def rotated_qp(qp):
    """The QP read back from its text with every term rotated by one arrow."""
    head, pot = qp.to_text().split("potential:\n")
    rows = [line.split() for line in pot.splitlines()]
    return QP.from_text(head + "potential:\n" + "".join(
        " ".join([c] + w[1:] + w[:1]) + "\n" for c, *w in rows))


def test_integer_generators_match_oracle():
    for name in CORPUS:
        qp = load_qp(name)
        assert_integer_generators_match_oracle(qp, name)
        for k in qp.quiver.vertices:
            assert_integer_generators_match_oracle(mutate_qp(qp, k), (name, k))
    for seed in range(40):
        assert_integer_generators_match_oracle(random_premutation_qp(seed), seed)
    torus = rotated_qp(load_qp("torus"))
    assert any(p.arrows != least_rotation(p.arrows) for p in torus.potential.terms)
    assert_integer_generators_match_oracle(torus, "rotated torus")
    for name, x in (("torus", Fraction(2, 3)), ("punctured-square-sf", Fraction(5, 7))):
        tri = Triangulation.from_text(example_text(name), {"p": x})
        qp = qp_of_triangulation(tri, 6)
        assert any(c.denominator > 1 for c in qp.potential.terms.values()), name
        assert_integer_generators_match_oracle(qp, (name, x))
        for k in qp.quiver.vertices:
            assert_integer_generators_match_oracle(mutate_qp(qp, k), (name, x, k))


# -- dimensions ---------------------------------------------------------------


def test_arrowless_quiver_dims():
    q = Quiver(["1", "2"])
    qp = QP(q, AlgebraElement.zero(q, 6))
    rep = truncated_quotient_dim(qp, 6)
    assert rep.dims == [2] * 7
    assert rep.certified and rep.certified_order == 1
    assert rep.dimension == 2


def test_hexagon_dimension_six_certified_by_two():
    qp = load_qp("hexagon-central", 10)
    rep = finite_dim_evidence(qp, 10)
    assert rep.certified and rep.certified_order == 2
    assert rep.dimension == 6


def test_pentagon_dimension_three():
    qp = load_qp("pentagon", 10)
    rep = finite_dim_evidence(qp, 10)
    assert rep.certified
    assert rep.dimension == 3


def two_degree_certificate(dims, order):
    """The first c >= 1 with c + 1 <= order whose degrees c and c + 1 add
    nothing to the quotient, from the oracle's dims alone; None if none."""
    return next((c for c in range(1, order)
                 if dims[c] == dims[c - 1] and dims[c + 1] == dims[c]), None)


def flip_or_none(tri, arc):
    """The flip, or None where it is undefined, or where the QP does not fit
    order 9 or leaves a puncture without its cycle."""
    try:
        out = flip(tri, arc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PotentialBuildWarning)
            qp_of_triangulation(out, 9)
    except (SurfaceError, PotentialBuildWarning):
        return None
    return out


def assert_matches_oracle(qp, order, label):
    """One pass against one oracle call: dims, path counts, absorbed degrees
    (a degree is absorbed exactly when it adds nothing to the quotient), and
    the certificate, which one absorbed degree below the order decides, as
    against the rule that asks for two, computed from the oracle's dims."""
    rep = truncated_quotient_dim(qp, order)
    dims = oracle_dims(qp, order)
    assert rep.dims == dims, label
    counts = [len(qp.quiver.vertices)] + [len(oracle_paths(qp.quiver, d))
                                          for d in range(1, order + 1)]
    assert rep.path_counts == list(accumulate(counts)), label
    for d in range(1, order + 1):
        assert rep.absorbed[d] == (dims[d] == dims[d - 1]), (label, d)
    c = two_degree_certificate(dims, order)
    assert (rep.certified, rep.certified_order) == (c is not None, c), label
    return rep


def test_dims_match_brute_force_oracle():
    for name in ("pentagon", "hexagon-central", "annulus", "punctured-square-2"):
        assert_matches_oracle(load_qp(name), 5, name)
    # the degrees above certified_order are filled by counting, not
    # eliminated, so the random inputs must reach well past the certificate
    rng = random.Random(2008)
    filled = 0
    for i in range(40):
        order = rng.randrange(3, 7)
        rep = assert_matches_oracle(random_small_qp(rng, order), order, i)
        filled += rep.certified and rep.certified_order <= order - 2
    assert filled >= 10


def test_certificate_matches_two_degree_rule_of_oracle():
    # `assert_matches_oracle` checks the certificate against the two-degree
    # rule on every oracle input; the top degree alone does not certify:
    # the torus absorbs degree 7 first
    torus = load_qp("torus", 9)
    rep = truncated_quotient_dim(torus, 7)
    assert not rep.certified and rep.certified_order is None and rep.absorbed[7]
    rep = truncated_quotient_dim(torus, 8)
    assert rep.certified and rep.certified_order == 7


def test_dims_match_oracle_where_the_basis_needs_overlaps():
    # punctured surfaces and premutations have leading words that overlap, so
    # S-polynomials add to the Groebner basis; unpunctured surfaces have none
    # that matter.  Premutation seed 5 needs an S-polynomial by degree 3, and
    # seeds 103, 113, 176 and 387 a new leading word inside an older one by
    # degree 3, so that the older element must be reduced again.  The two
    # small QPs need the overlap of a leading word with itself.
    for name, order in (("torus", 4), ("punctured-square-4", 5), ("punctured-square-sf", 5)):
        tri = Triangulation.from_text(example_text(name))
        rng = random.Random("overlaps:" + name)
        for step in range(3):
            assert_matches_oracle(qp_of_triangulation(tri, 9), order, (name, step))
            tri = next(t for t in (flip_or_none(tri, rng.choice(tri.arcs)) for _ in range(99))
                       if t is not None)
    for seed in (5, 103, 113, 176, 387):
        assert_matches_oracle(random_premutation_qp(seed), 3, seed)
    for seed in (261, 403):
        assert_matches_oracle(random_small_qp(random.Random(seed), 5), 5, ("small", seed))


def test_torus_dims_match_oracle_smaller_order():
    qp = load_qp("torus")
    rep = truncated_quotient_dim(qp, 4)
    assert rep.dims == oracle_dims(qp, 4)


def test_dims_match_oracle_on_one_step_mutations():
    # the graded pass counts pivots by path length; the oracle re-eliminates
    # densely at every degree, here on QPs that are not hand-written
    for name in CORPUS:
        qp = load_qp(name)
        rep = truncated_quotient_dim(qp, 5)
        for d in range(1, 6):
            assert rep.absorbed[d] == (rep.dims[d] == rep.dims[d - 1]), (name, d)
        for k in qp.quiver.vertices:
            assert_matches_oracle(mutate_qp(qp, k), 5, (name, k))


def test_dim_zero_counts_vertices():
    for name in CORPUS:
        qp = load_qp(name)
        rep = truncated_quotient_dim(qp, 2)
        assert rep.dims[0] == len(qp.quiver.vertices), name


def test_dims_invariant_under_right_equivalence():
    # the valence-2 square pinch and its reduction witness give the same dims
    from qpsurf.examples_data import example_text
    from qpsurf.potential import unreduced_potential
    from qpsurf.qp import split_qp

    tri = Triangulation.from_text(example_text("punctured-square-2"))
    pot = unreduced_potential(tri, 6)
    qp = QP(pot.quiver, pot, 6)
    res = split_qp(qp)
    image = apply_substitution(res.witness, qp.potential)
    qp2 = QP(qp.quiver, cyclic_normal_form(image), 6)
    a = truncated_quotient_dim(qp, 6)
    b = truncated_quotient_dim(qp2, 6)
    assert a.dims == b.dims


def test_order_bounds_enforced():
    qp = load_qp("torus")
    with pytest.raises(JacobianError):
        truncated_quotient_dim(qp, 0)
    with pytest.raises(JacobianError):
        truncated_quotient_dim(qp, 7)
    for dmax in (0, -3):
        with pytest.raises(JacobianError, match="^order must be >= 1$"):
            finite_dim_evidence(qp, dmax)
    # the pentagon's certificate fires below its truncation, so only the
    # order check refuses this
    with pytest.raises(JacobianError, match="^order 99 exceeds the QP truncation 6; rebuild"):
        finite_dim_evidence(load_qp("pentagon"), 99)


# -- rigidity -----------------------------------------------------------------


def test_hexagon_rigid_up_to_eight():
    qp = load_qp("hexagon-central", 8)
    rep = is_rigid_up_to(qp, 8)
    assert rep.rigid and rep.witness is None


def test_torus_non_rigid_with_witness():
    qp = load_qp("torus")
    rep = is_rigid_up_to(qp, 6)
    assert not rep.rigid
    assert rep.witness is not None
    assert len(rep.witness) <= 6


def test_acyclic_quiver_vacuously_rigid():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2")])
    rep = is_rigid_up_to(QP(q, AlgebraElement.zero(q, 6)), 6)
    assert rep.rigid


def test_rigidity_monotone_in_order():
    hexagon = load_qp("hexagon-central", 8)
    for d in range(2, 9):
        assert is_rigid_up_to(hexagon, d).rigid
    torus = load_qp("torus")
    first_bad = None
    for d in range(2, 7):
        if not is_rigid_up_to(torus, d).rigid:
            first_bad = d
            break
    assert first_bad is not None
    for d in range(first_bad, 7):
        assert not is_rigid_up_to(torus, d).rigid


def assert_rigidity_matches_oracle(qp, order, label):
    rep = is_rigid_up_to(qp, order)
    got = (rep.rigid, None if rep.witness is None else rep.witness.arrows)
    assert got == oracle_is_rigid(qp, order), (label, order)
    assert rep.witness is None or type(rep.witness) is Path
    return rep.rigid


def test_rigidity_matches_oracle_on_corpus():
    for name in CORPUS:
        for d in range(3, 6):
            assert_rigidity_matches_oracle(load_qp(name), d, name)


def test_rigidity_matches_oracle_on_one_step_mutations():
    # the torus mutations have the most cycles, so they stop at order 4
    for name in CORPUS:
        qp = load_qp(name)
        top = 4 if name == "torus" else 5
        for k in qp.quiver.vertices:
            for d in range(top - 1, top + 1):
                assert_rigidity_matches_oracle(mutate_qp(qp, k), d, (name, k))


def random_small_qp(rng, order):
    """Two or three vertices, two to four arrows (parallel ones allowed), and
    one or two cycles of length <= order with non-unit coefficients."""
    while True:
        verts = ["1", "2", "3"][:rng.choice([2, 3])]
        pairs = [(i, j) for i in verts for j in verts if i != j]
        q = Quiver(verts, [Arrow("a%d" % k, *rng.choice(pairs))
                           for k in range(rng.randrange(2, 5))])
        cycles = sorted({min(w[k:] + w[:k] for k in range(d))
                         for d in range(2, order + 1) for w in oracle_paths(q, d)
                         if q.arrow(w[0]).head == q.arrow(w[-1]).tail})
        if cycles:
            break
    picked = rng.sample(cycles, min(len(cycles), rng.randrange(1, 3)))
    terms = {Path(w): Fraction(rng.choice([-5, -3, -2, 2, 3, 7]), rng.randrange(1, 6))
             for w in picked}
    return QP(q, AlgebraElement(q, order, terms))


def test_rigidity_matches_oracle_on_random_small_qps():
    rng = random.Random(2008)
    outcomes = []
    for i in range(20):
        qp = random_small_qp(rng, 4)
        for d in (3, 4):
            outcomes.append(assert_rigidity_matches_oracle(qp, d, i))
    assert outcomes.count(False) * 3 >= len(outcomes)


def test_witness_with_a_normal_rotation_matches_oracle():
    # W = a b a b leads with a b a and b a b, so the witness a b is its own
    # normal form; the commutator a b - b a spans only the difference
    qp = QP.from_text("truncation: 4\nv 1\nv 2\na a 1 2\na b 2 1\n"
                      "potential:\n3/2 a b a b\n")
    assert not assert_rigidity_matches_oracle(qp, 4, "abab")
    witness = is_rigid_up_to(qp, 4).witness.arrows
    assert witness == ("a", "b")


def test_witness_without_a_normal_rotation_matches_oracle():
    # W = a1 a2 + 2 a2 a3 makes a2 zero and a1 = -2 a3, so neither rotation of
    # the witness a0 a1 is normal and its normal form -2 a0 a3 comes from the
    # reduction; the commutators span only a0 a3 - a3 a0, which misses it
    qp = QP.from_text("truncation: 3\nv 1\nv 2\na a0 1 2\na a1 2 1\na a2 1 2\na a3 2 1\n"
                      "potential:\n1 a1 a2\n2 a2 a3\n")
    assert not assert_rigidity_matches_oracle(qp, 3, "a1 a2 + 2 a2 a3")
    witness = is_rigid_up_to(qp, 3).witness.arrows
    assert witness == ("a0", "a1")


# sha256 of the dim, rigid and dim --stabilize text at orders 6 and 7 of the
# corpus QPs and their 58 one-step mutations, recorded from an earlier
# version whose eliminator worked on Fraction rows
JACOBIAN_TEXT_SHA256 = "4217f2d22314057b6101ecfcb18354ba54fb4cbd553202a0d110c98e6d447168"


def test_jacobian_text_pinned_on_corpus_and_mutations():
    h = hashlib.sha256()
    for order in (6, 7):
        for name in CORPUS:
            qp = load_qp(name, order)
            for k, q in [(None, qp)] + [(k, mutate_qp(qp, k)) for k in qp.quiver.vertices]:
                h.update(("%s %s %d\n" % (name, k, order)).encode())
                h.update(truncated_quotient_dim(q, order).to_text().encode())
                h.update(is_rigid_up_to(q, order).to_text().encode())
                h.update(finite_dim_evidence(q, order).to_text().encode())
    assert h.hexdigest() == JACOBIAN_TEXT_SHA256


# sha256 of the dim and dim --stabilize text at every order 1-9 of the corpus
# QPs built at order 9 and their one-step mutations, recorded before the
# Jacobian pass stopped at its certificate
JACOBIAN_ORDERS_SHA256 = "04596af089b984066137d28ddd33a3976afb08099b759b10186ec8034fa7b5b9"


def test_dim_text_pinned_at_every_order_to_nine():
    h = hashlib.sha256()
    for name in CORPUS:
        qp = load_qp(name, 9)
        for k, q in [(None, qp)] + [(k, mutate_qp(qp, k)) for k in qp.quiver.vertices]:
            for order in range(1, 10):
                h.update(("%s %s %d\n" % (name, k, order)).encode())
                h.update(truncated_quotient_dim(q, order).to_text().encode())
                h.update(finite_dim_evidence(q, order).to_text().encode())
    assert h.hexdigest() == JACOBIAN_ORDERS_SHA256


# sha256 of the dim and rigid text of 120 random_small_qp draws at orders 3-7
# and of random_premutation_qp seeds 0-29 (dim at orders 6 and 7, rigid at
# 6), recorded before the derivatives came from one pass over the potential
# and the overlaps from an index of leading words
RANDOM_JACOBIAN_SHA256 = "825f0b626c32bddac681d0bbe628fa8588bd8e1105dd030070fc74e8c6970c98"


def test_jacobian_text_pinned_on_random_qps():
    h = hashlib.sha256()
    rng = random.Random("jacobian pin")
    for i in range(120):
        order = rng.randrange(3, 8)
        qp = random_small_qp(rng, order)
        h.update(("small %d %d\n" % (i, order)).encode())
        h.update(truncated_quotient_dim(qp, order).to_text().encode())
        h.update(is_rigid_up_to(qp, order).to_text().encode())
    for seed in range(30):
        qp = random_premutation_qp(seed)
        for order in (6, 7):
            h.update(("premutation %d %d\n" % (seed, order)).encode())
            h.update(truncated_quotient_dim(qp, order).to_text().encode())
        h.update(is_rigid_up_to(qp, 6).to_text().encode())
    assert h.hexdigest() == RANDOM_JACOBIAN_SHA256


# sha256 of the rigid text at every order 1-9 of the corpus QPs built at
# order 9 and their one-step mutations, and of random_premutation_qp seeds
# 30-59 at orders 3-7 (492 cases, 43 non-rigid), recorded while rigidity
# still had one column per rotation class of cycles
RIGID_ORDERS_SHA256 = "62566313da64e547e295703d8ff5ad40625612cef75d483928cfd28bd2717049"


def test_rigid_text_pinned_at_every_order_to_nine():
    h = hashlib.sha256()
    for name in CORPUS:
        qp = load_qp(name, 9)
        for k, q in [(None, qp)] + [(k, mutate_qp(qp, k)) for k in qp.quiver.vertices]:
            for order in range(1, 10):
                h.update(("%s %s %d\n" % (name, k, order)).encode())
                h.update(is_rigid_up_to(q, order).to_text().encode())
    for seed in range(30, 60):
        qp = random_premutation_qp(seed)
        for order in range(3, 8):
            h.update(("premutation %d %d\n" % (seed, order)).encode())
            h.update(is_rigid_up_to(qp, order).to_text().encode())
    assert h.hexdigest() == RIGID_ORDERS_SHA256


def test_unpunctured_corpus_certified_by_ten():
    for name in ("pentagon", "hexagon-fan", "hexagon-central", "annulus"):
        qp = load_qp(name, 10)
        rep = finite_dim_evidence(qp, 10)
        assert rep.certified, name


def test_boundary_corpus_rigid_and_finite():
    # every corpus surface with boundary yields a rigid QP with a certified
    # finite quotient; the boundaryless torus is the lone non-rigid member
    expected_dims = {
        "pentagon": 3,
        "hexagon-fan": 6,
        "hexagon-central": 6,
        "annulus": 4,
        "punctured-square-4": 12,
        "punctured-square-3": 10,
        "punctured-square-2": 12,
        "punctured-square-sf": 10,
    }
    for name, dim in expected_dims.items():
        assert is_rigid_up_to(load_qp(name, 6), 6).rigid, name
        rep = finite_dim_evidence(load_qp(name, 10), 10)
        assert rep.certified and rep.dimension == dim, (name, rep.dimension)


def test_rigidity_report_reads_certificate_and_dim_def():
    # measured: each corpus surface with boundary certifies at c = 2-3 with
    # dim Def 0, which is its rigidity; the closed torus certifies at 7 with
    # dim Def 1.  Orders 10 and 12 are past every puncture valence.
    expected = {"torus": (7, 1), "pentagon": (2, 0), "hexagon-fan": (3, 0),
                "hexagon-central": (2, 0), "annulus": (2, 0), "punctured-square-4": (3, 0),
                "punctured-square-3": (3, 0), "punctured-square-2": (3, 0),
                "punctured-square-sf": (3, 0)}
    assert sorted(expected) == sorted(CORPUS)
    for name, read in expected.items():
        for order in (10, 12):
            rep = is_rigid_up_to(load_qp(name, order), order)
            assert (rep.certified_order, rep.dim_def) == read, (name, order)
            assert rep.rigid == (read[1] == 0)
    # below its certificate a report reads no dim Def
    rep = is_rigid_up_to(load_qp("torus", 6), 6)
    assert (rep.rigid, rep.certified_order, rep.dim_def) == (False, None, None)


def test_cartan_matrix_symmetric_on_closed_surfaces():
    # the Jacobian algebras of closed surfaces are symmetric (Ladkani,
    # arXiv:1207.3778, cited from memory), so their Cartan matrices are;
    # that they are was measured here, on the corpus torus, the twice-
    # punctured torus and each of their one-flip neighbours
    from test_verify import TORUS_TWO_PUNCTURES

    cases = 0
    for text in (example_text("torus"), TORUS_TWO_PUNCTURES):
        tri = Triangulation.from_text(text)
        fold = tri.analysis().fold
        for t in [tri] + [flip(tri, arc) for arc in tri.arcs if fold[arc] == arc]:
            for order in (10, 12):
                qp = qp_of_triangulation(t, order)
                c = cartan_matrix(qp, order)
                assert c.vertices == qp.quiver.vertices
                assert c.rows == tuple(zip(*c.rows)), (t.to_text(), order)
                assert sum(map(sum, c.rows)) == truncated_quotient_dim(qp, order).dimension
                cases += 1
    assert cases == 22
    # a surface with boundary gives no such symmetry
    c = cartan_matrix(load_qp("punctured-square-2", 10), 10)
    assert c.rows != tuple(zip(*c.rows))
    # arrows 2 -> 1 and 3 -> 2 and no potential: C[t][h] counts the paths from t to h
    assert cartan_matrix(load_qp("hexagon-fan", 4), 4).rows == ((1, 0, 0), (1, 1, 0), (1, 1, 1))


def test_cartan_matrix_matches_oracle():
    # the corpus QPs and their one-step mutations at orders 3 and 4, and
    # seeded premutation QPs at order 3, whose entries also sum to the
    # oracle's dimension
    cases = 0
    for name in CORPUS:
        qp = load_qp(name)
        for q in [qp] + [mutate_qp(qp, k) for k in qp.quiver.vertices]:
            for order in (3, 4):
                got = [list(row) for row in cartan_matrix(q, order).rows]
                assert got == oracle_cartan(q, order), (name, order)
                cases += 1
    assert cases == 76
    for seed in range(10):
        q = random_premutation_qp(seed)
        want = oracle_cartan(q, 3)
        assert [list(row) for row in cartan_matrix(q, 3).rows] == want, seed
        assert sum(map(sum, want)) == oracle_dims(q, 3)[-1], seed


def test_restriction_preserves_rigidity_on_corpus():
    from qpsurf.qp import restrict_qp

    qp = load_qp("hexagon-central")
    assert is_rigid_up_to(qp, 6).rigid
    verts = qp.quiver.vertices
    for drop in verts:
        keep = [v for v in verts if v != drop]
        assert is_rigid_up_to(restrict_qp(qp, keep), 6).rigid, drop


def assert_diamond_lemma_holds(qp, order, label):
    """`_groebner`'s basis meets the diamond lemma's conditions, read off the
    words alone: no leading word lies inside another, every overlap of
    degree <= order reduces to zero, and the normal words of each length are
    the composable words with no leading word inside.

    An overlap a = a'x, b = xb' (x, a', b' nonempty) gives g_a*b' - a'*g_b
    with g = l + tail; its reduction uses lengths recomputed here.
    """
    lead, _, levels, _, _ = _groebner(qp, order)
    lens = sorted({len(b) for b in lead})

    def inside(b, a):
        return any(a[i:i + len(b)] == b for i in range(len(a) - len(b) + 1))

    for a, ta in lead.items():
        for b, tb in lead.items():
            assert a == b or not inside(b, a), (label, order, a, b)
            for k in range(1, min(len(a), len(b))):
                if a[-k:] == b[:k] and len(a) + len(b) - k <= order:
                    terms = ([(a + b[k:], 1)] + [(t + b[k:], e) for t, e in ta]
                             + [(a[:-k] + b, -1)] + [(a[:-k] + t, -e) for t, e in tb])
                    assert _reduce(terms, lead, lens, order) == {}, (label, order, a, b, k)
    normal = [((), v, v) for v in qp.quiver.vertices]
    for d in range(order + 1):
        got = levels[d] if d < len(levels) else []
        assert sorted(got) == sorted(normal), (label, order, d)
        normal = [(w, x.tail, h) for u, t, h in normal for x in qp.quiver.arrows
                  if x.head == t for w in [u + (x.name,)]
                  if not any(w[i:j] in lead for j in range(d + 2) for i in range(j))]


# certify's four benchmark shapes and four more generated surfaces:
# (kind, size, punctures, generator seed)
DIAMOND_SURFACES = [("torus", 0, 0, 0), ("torus", 0, 1, 0), ("polygon", 5, 2, 2),
                    ("polygon", 6, 2, 1), ("torus", 0, 1, 1), ("torus", 0, 2, 3),
                    ("polygon", 4, 3, 0), ("polygon", 7, 2, 0)]


def test_groebner_basis_meets_the_diamond_lemma_on_generated_surfaces(gen):
    # no digest: each case is checked from its words, at orders that the
    # dense-rank oracle cannot reach
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PotentialBuildWarning)
        for kind, size, punctures, seed in DIAMOND_SURFACES:
            qp = qp_of_triangulation(gen.surface(kind, size, punctures, seed, 6), 9)
            for order in range(6, 10):
                assert_diamond_lemma_holds(qp, order, (kind, size, punctures, seed))


def test_groebner_basis_meets_the_diamond_lemma_on_random_qps():
    for seed in range(20):
        qp = random_premutation_qp(seed)
        for order in (5, 6):
            assert_diamond_lemma_holds(qp, order, ("premutation", seed))
    rng = random.Random("diamond lemma")
    for i in range(60):
        order = rng.randrange(3, 8)
        assert_diamond_lemma_holds(random_small_qp(rng, order), order, ("small", i))


def test_report_table_format():
    rep = truncated_quotient_dim(load_qp("pentagon"), 3)
    lines = rep.to_text().strip().splitlines()
    assert lines[0] == "order #paths ideal-rank dim certified"
    assert len(lines) == 5
