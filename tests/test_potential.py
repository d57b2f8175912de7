from fractions import Fraction

import pytest

from qpsurf.algebra import AlgebraElement, cyclic_normal_form, cyclically_equivalent
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.potential import PotentialBuildWarning, qp_of_triangulation, unreduced_potential
from qpsurf.qp import QP
from qpsurf.quiver import quiver_from_matrix
from qpsurf.surface import SurfaceError, Triangulation, flip, signed_adjacency, unreduced_quiver


def load(name):
    return Triangulation.from_text(example_text(name))


def word(quiver, order, *names):
    return AlgebraElement.from_word(quiver, order, names)


TWICE_PUNCTURED_HEXAGON = """
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked E boundary=0
marked F boundary=0
marked P puncture
marked Q puncture
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DE D E on=0
bseg EF E F on=0
bseg FA F A on=0
arc M A A
arc lP A A
arc fP A P
arc lQ A A
arc fQ A Q
arc c1 A C
arc c2 A C
arc ce C E
arc cf C F
tri lP fP fP
tri lQ fQ fQ
tri M lP lQ
tri AB BC c1
tri CD DE ce
tri ce EF cf
tri cf FA c2
tri c2 M c1
"""


def test_torus_potential_is_the_double_triangle_plus_six_cycle():
    tri = load("torus")
    pot = unreduced_potential(tri, 6)
    q = pot.quiver
    x = tri.surface.scalars["p"]
    expect = (word(q, 6, "2>3~t0", "1>2~t0", "3>1~t0")
              + word(q, 6, "2>3~t1", "1>2~t1", "3>1~t1")
              + x * word(q, 6, "1>2~t0", "3>1~t1", "2>3~t0", "1>2~t1", "3>1~t0", "2>3~t1"))
    assert pot == cyclic_normal_form(expect)


def test_square_potential_matches_valence_two_pattern():
    tri = load("punctured-square-2")
    pot = unreduced_potential(tri, 6)
    q = pot.quiver
    x = tri.surface.scalars["p"]
    a, b = "2>1~pp", "1>2~pp"
    al, be = "3>2~t0", "1>3~t0"
    ga, de = "4>1~t1", "2>4~t1"
    expect = (word(q, 6, a, al, be) + word(q, 6, ga, de, b) + x * word(q, 6, a, b))
    assert pot == cyclic_normal_form(expect)


def test_square_reduced_potential_single_quartic_term():
    tri = load("punctured-square-2")
    red = qp_of_triangulation(tri, 6)
    x = tri.surface.scalars["p"]
    expect = -(1 / x) * word(red.quiver, 6, "4>1~t1", "2>4~t1", "3>2~t0", "1>3~t0")
    assert cyclically_equivalent(red.potential, expect)
    assert red.quiver.multiplicities() == \
        quiver_from_matrix(signed_adjacency(tri)).multiplicities()


def test_hexagon_central_single_triangle_term():
    tri = load("hexagon-central")
    pot = unreduced_potential(tri, 6)
    assert len(pot.terms) == 1
    ((path, coeff),) = pot.terms.items()
    assert coeff == 1 and len(path) == 3


def test_unpunctured_surfaces_reduce_to_themselves():
    for name in ("pentagon", "hexagon-fan", "hexagon-central", "annulus"):
        tri = load(name)
        pot = unreduced_potential(tri, 6)
        red = qp_of_triangulation(tri, 6)
        assert cyclically_equivalent(
            red.potential,
            AlgebraElement(red.quiver, 6, dict(pot.terms))), name


def test_boundaryless_fan_and_empty_potentials():
    assert unreduced_potential(load("pentagon"), 6).is_zero()
    assert unreduced_potential(load("hexagon-fan"), 6).is_zero()
    assert unreduced_potential(load("annulus"), 6).is_zero()


def test_square_valence_four_puncture_cycle():
    tri = load("punctured-square-4")
    pot = unreduced_potential(tri, 6)
    ((path, coeff),) = pot.terms.items()
    assert coeff == tri.surface.scalars["p"]
    assert len(path) == 4


def test_self_folded_square_words():
    tri = load("punctured-square-sf")
    pot = unreduced_potential(tri, 6)
    q = pot.quiver
    x = tri.surface.scalars["p"]
    plain = word(q, 6, "x>y~t1", "L>x~t1", "y>L~t1")
    folded = word(q, 6, "x>y~t1", "f>x~t1", "y>f~t1")
    assert pot == cyclic_normal_form(plain - (1 / x) * folded)


def test_potential_is_a_valid_qp_over_corpus():
    for name in CORPUS:
        tri = load(name)
        pot = unreduced_potential(tri, 6)
        QP(pot.quiver, pot, 6)  # refuses an invalid potential


def test_assembly_term_bounds_over_corpus():
    from qpsurf.potential import potential_assembly

    for name in CORPUS:
        tri = load(name)
        asm = potential_assembly(tri, 6)
        assert set(asm.triangle_terms) <= set(range(len(tri.triangles))), name
        assert set(asm.correction_terms) <= set(asm.triangle_terms), name
        # exactly one term per puncture unless boundary segments block it
        assert len(asm.puncture_terms) + len(asm.warnings) \
            == len(tri.surface.punctures), name
        assert asm.total() == unreduced_potential(tri, 6), name


def test_degree_two_terms_are_exactly_the_puncture_pairs():
    for name in CORPUS:
        tri = load(name)
        pot = unreduced_potential(tri, 6)
        deg2 = pot.degree_part(2)
        pairs = {p for p, ends in tri.analysis().puncture_ends.items() if len(ends) == 2}
        assert len(deg2.terms) == len(pairs), name
        for path in deg2.terms:
            assert all("~p" in a for a in path.arrows), name


TWICE_PUNCTURED_MONOGON = """
surface genus=0 boundary=1
marked A boundary=0
marked P puncture
marked Q puncture
bseg b A A on=0
arc j A P
arc j2 A P
arc k P P
arc f P Q
tri k f f
tri j k j2
tri j b j2
"""


def test_twice_punctured_monogon_walk_through_folded_side():
    # P is the base of the enclosing loop k, so its cycle deletes both k-ends
    # and runs through the folded side f, sharing two arrows with the word of
    # the enclosed puncture Q
    tri = Triangulation.from_text(TWICE_PUNCTURED_MONOGON)
    pot = unreduced_potential(tri, 6)
    q = pot.quiver
    xp = tri.surface.scalars["P"]
    xq = tri.surface.scalars["Q"]
    plain = word(q, 6, "j2>j~t1", "k>j2~t1", "j>k~t1")
    q_word = word(q, 6, "f>j2~t1", "j>f~t1", "j2>j~t1")
    p_word = word(q, 6, "f>j2~t1", "j>f~t1", "j2>j~t2")
    assert pot == cyclic_normal_form(plain - (1 / xq) * q_word + xp * p_word)


def test_twice_punctured_monogon_checks():
    from qpsurf.verify import check_flip_compatibility

    tri = Triangulation.from_text(TWICE_PUNCTURED_MONOGON)
    a = tri.analysis()
    for arc in [x for x in tri.arcs if a.fold[x] == x]:
        rep = check_flip_compatibility(tri, arc, 6)
        assert rep.passed, (arc, rep.to_text())


def test_twice_punctured_hexagon_word_family():
    tri = Triangulation.from_text(TWICE_PUNCTURED_HEXAGON)
    pot = unreduced_potential(tri, 6)
    q = pot.quiver
    xp = tri.surface.scalars["P"]
    xq = tri.surface.scalars["Q"]
    outer = word(q, 6, "M>c1~t7", "c2>M~t7", "c1>c2~t7")
    plain = word(q, 6, "M>lP~t2", "lQ>M~t2", "lP>lQ~t2")
    corr = word(q, 6, "M>fP~t2", "fQ>M~t2", "fP>fQ~t2")
    vp = word(q, 6, "M>fP~t2", "lQ>M~t2", "fP>lQ~t2")
    vq = word(q, 6, "M>lP~t2", "fQ>M~t2", "lP>fQ~t2")
    expect = outer + plain + (1 / (xp * xq)) * corr - (1 / xp) * vp - (1 / xq) * vq
    assert pot == cyclic_normal_form(expect)
    # already reduced: no valence-2 punctures
    red = qp_of_triangulation(tri, 6)
    assert cyclically_equivalent(red.potential, AlgebraElement(red.quiver, 6, dict(pot.terms)))


def test_twice_punctured_hexagon_flips_pass_matrix_oracle():
    tri = Triangulation.from_text(TWICE_PUNCTURED_HEXAGON)
    a = tri.analysis()
    for arc in tri.arcs:
        if a.fold[arc] != arc:
            continue
        flip(tri, arc)  # raises if the mutation oracle fails


def test_valence_one_word_skipped_on_boundary_neighbours():
    # flipping x in the self-folded square leaves the loop flanked by a
    # boundary segment; the puncture keeps no cycle and a warning is emitted
    tri = flip(load("punctured-square-sf"), "x")
    with pytest.warns(PotentialBuildWarning):
        pot = unreduced_potential(tri, 6)
    assert pot.is_zero()


def test_order_too_small_raises():
    with pytest.raises(SurfaceError):
        unreduced_potential(load("torus"), 4)


def test_restriction_of_torus_to_two_vertices_kills_potential():
    from qpsurf.qp import restrict_qp

    red = qp_of_triangulation(load("torus"), 6)
    r = restrict_qp(red, ["1", "2"])
    assert r.potential.is_zero()
    assert {a.name for a in r.quiver.arrows} == {"1>2~t0", "1>2~t1"}
