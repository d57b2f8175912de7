"""Acceptance suite: one test per criterion, exact rational equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
from fractions import Fraction

from oracles import oracle_dims

from qpsurf.algebra import (
    AlgebraElement,
    Path,
    apply_substitution,
    cyclic_derivative,
    cyclic_normal_form,
    vertex_path,
)
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.jacobian import finite_dim_evidence, is_rigid_up_to
from qpsurf.potential import qp_of_triangulation, unreduced_potential
from qpsurf.qp import QP, mutate_qp, premutate_qp, split_qp
from qpsurf.quiver import Arrow, IntegerMatrix, Quiver, mutate_matrix
from qpsurf.surface import Triangulation, flip, signed_adjacency
from qpsurf.verify import (
    check_flip_compatibility,
    check_involution,
    check_restriction_commutes,
    explore_mutation_class,
)

UNPUNCTURED = ["pentagon", "hexagon-fan", "hexagon-central", "annulus"]


def load(name):
    return Triangulation.from_text(example_text(name))


def word(q, order, *names):
    return AlgebraElement.from_word(q, order, names)


def flippable_arcs(tri):
    a = tri.analysis()
    return [arc for arc in tri.arcs if a.fold[arc] == arc]


def report(n, text):
    print("criterion %02d PASS: %s" % (n, text))


def test_criterion_01_torus_potential():
    tri = load("torus")
    qp = qp_of_triangulation(tri, 6)
    q = qp.quiver
    x = tri.surface.scalars["p"]
    expect = cyclic_normal_form(
        word(q, 6, "2>3~t0", "1>2~t0", "3>1~t0")
        + word(q, 6, "2>3~t1", "1>2~t1", "3>1~t1")
        + x * word(q, 6, "1>2~t0", "3>1~t1", "2>3~t0", "1>2~t1", "3>1~t0", "2>3~t1"))
    assert cyclic_normal_form(qp.potential) == expect
    report(1, "once-punctured torus potential: both triangles plus x times the six-cycle")


def test_criterion_02_torus_mutation():
    tri = load("torus")
    qp = qp_of_triangulation(tri, 6)
    x = tri.surface.scalars["p"]
    mut = mutate_qp(qp, "2")  # the tail of both arrows 2>3~t*
    q = mut.quiver
    h01 = "[2>3~t0.1>2~t1]"
    h10 = "[2>3~t1.1>2~t0]"
    expect = cyclic_normal_form(
        word(q, 6, "1>2~t1*", "2>3~t0*", h01)
        + word(q, 6, "1>2~t0*", "2>3~t1*", h10)
        + x * word(q, 6, "1>2~t1*", "2>3~t1*", h01, "1>2~t0*", "2>3~t0*", h10))
    assert cyclic_normal_form(mut.potential) == expect
    assert {a.name for a in q.arrows} == {
        "1>2~t0*", "1>2~t1*", "2>3~t0*", "2>3~t1*", h01, h10}
    report(2, "mutated torus potential matches the starred six-arrow form exactly")


def test_criterion_03_once_punctured_square():
    tri = load("once-punctured-square")
    x = tri.surface.scalars["p"]
    pot = unreduced_potential(tri, 6)
    q = pot.quiver
    a, b = "2>1~pp", "1>2~pp"
    expect = cyclic_normal_form(
        word(q, 6, a, "3>2~t0", "1>3~t0")
        + word(q, 6, "4>1~t1", "2>4~t1", b)
        + x * word(q, 6, a, b))
    assert pot == expect
    red = qp_of_triangulation(tri, 6)
    target = cyclic_normal_form(
        -(1 / x) * word(red.quiver, 6, "4>1~t1", "2>4~t1", "3>2~t0", "1>3~t0"))
    assert cyclic_normal_form(red.potential) == target
    report(3, "once-punctured square: pinch potential and its single quartic reduction")


def test_criterion_04_triangle_premutation_and_split():
    q = Quiver(["1", "2", "3"],
               [Arrow("a", "3", "1"), Arrow("b", "2", "3"), Arrow("c", "1", "2")])
    qp = QP(q, word(q, 6, "a", "b", "c"))
    pre = premutate_qp(qp, "2")
    expect = cyclic_normal_form(
        word(pre.quiver, 6, "a", "[b.c]") + word(pre.quiver, 6, "c*", "b*", "[b.c]"))
    assert pre.potential == expect
    res = split_qp(pre)
    assert res.reduced.potential.is_zero()
    assert {arr.name for arr in res.reduced.quiver.arrows} == {"b*", "c*"}
    report(4, "triangle premutation at 2 and its reduced part on the two starred arrows")


def test_criterion_05_flip_matrix_oracle():
    checked = 0
    for name in CORPUS:
        tri = load(name)
        b = signed_adjacency(tri)
        for arc in flippable_arcs(tri):
            got = signed_adjacency(flip(tri, arc))
            relabeled = IntegerMatrix(
                [arc if v == arc + "'" else v for v in got.vertices], got.rows)
            assert relabeled == mutate_matrix(b, arc), (name, arc)
            checked += 1
    assert checked >= 25
    report(5, "matrix mutation equals the flipped adjacency matrix on %d corpus flips" % checked)


def test_criterion_06_flip_compatibility():
    checked = 0
    for name in CORPUS:
        tri = load(name)
        for arc in flippable_arcs(tri):
            rep = check_flip_compatibility(tri, arc, 6)
            assert rep.passed, (name, arc, rep.to_text())
            checked += 1
    report(6, "flip compatibility invariants hold at order 6 on %d corpus flips" % checked)


def test_criterion_07_involution():
    checked = 0
    for name in CORPUS:
        qp = qp_of_triangulation(load(name), 6)
        for k in qp.quiver.vertices:
            rep = check_involution(qp, k, 6)
            assert rep.passed, (name, k, rep.to_text())
            checked += 1
    report(7, "double mutation restores quiver and dimensions on %d corpus cases" % checked)


def test_criterion_08_restriction_commutes():
    checked = 0
    for name in CORPUS:
        qp = qp_of_triangulation(load(name), 6)
        verts = qp.quiver.vertices
        for drop in verts:
            keep = [v for v in verts if v != drop]
            for k in keep:
                rep = check_restriction_commutes(qp, keep, k, 6)
                assert rep.passed, (name, drop, k, rep.to_text())
                checked += 1
    report(8, "restriction commutes with mutation on %d co-size-1 corpus cases" % checked)


def test_criterion_09_rigidity_split():
    hexagon = qp_of_triangulation(load("hexagon-central"), 8)
    rep = is_rigid_up_to(hexagon, 8)
    assert rep.rigid
    torus = qp_of_triangulation(load("torus"), 6)
    rep = is_rigid_up_to(torus, 6)
    assert not rep.rigid and rep.witness is not None
    report(9, "hexagon rigid up to 8; torus non-rigid with witness %s"
           % " ".join(rep.witness.arrows))


def test_criterion_10_finite_dimension():
    for name in UNPUNCTURED:
        qp = qp_of_triangulation(load(name), 10)
        rep = finite_dim_evidence(qp, 10)
        assert rep.certified, name
    hexagon = qp_of_triangulation(load("hexagon-central"), 10)
    hex_rep = finite_dim_evidence(hexagon, 10)
    assert hex_rep.dimension == 6
    assert oracle_dims(hexagon, 4)[-1] == 6
    pentagon = qp_of_triangulation(load("pentagon"), 10)
    pent_rep = finite_dim_evidence(pentagon, 10)
    assert pent_rep.dimension == 3
    assert oracle_dims(pentagon, 4)[-1] == 3
    report(10, "unpunctured corpus certified finite; hexagon dim 6 and pentagon dim 3 "
               "match the brute-force oracle")


def test_criterion_11_mutation_class_probe():
    qp = qp_of_triangulation(load("torus"), 6)
    rep, graph = explore_mutation_class(qp, 4, 6)
    assert rep.passed, rep.to_text()
    report(11, "torus mutation class to depth 4: %d nodes, all 2-acyclic" % len(graph.nodes))


def _random_element(rng, quiver, order, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        length = rng.randrange(order + 1)
        if length == 0:
            p = vertex_path(rng.choice(quiver.vertices))
        else:
            arrows = []
            first = rng.choice(quiver.arrows)
            arrows.append(first.name)
            cur = first.tail
            ok = True
            for _ in range(length - 1):
                nxt = [a for a in quiver.arrows if a.head == cur]
                if not nxt:
                    ok = False
                    break
                pick = rng.choice(nxt)
                arrows.append(pick.name)
                cur = pick.tail
            if not ok:
                continue
            p = Path(tuple(arrows))
        coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        if coeff:
            terms[p] = terms.get(p, Fraction(0)) + coeff
    return AlgebraElement(quiver, order, terms)


def test_criterion_12_structural_invariants():
    import os

    from qpsurf.algebra import Substitution, path_head, path_tail

    rng = random.Random(int(os.environ.get("QPSURF_TEST_SEED", "20260810")))
    q1 = Quiver(["1", "2", "3"],
                [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1")])
    q2 = qp_of_triangulation(load("once-punctured-square"), 6).quiver
    for trial in range(1000):
        quiver = q1 if trial % 2 else q2
        x = _random_element(rng, quiver, 6)
        y = _random_element(rng, quiver, 6)
        z = _random_element(rng, quiver, 6)
        assert (x * y) * z == x * (y * z)

        cycles = {p for p in x.terms
                  if len(p) >= 1 and path_head(quiver, p) == path_tail(quiver, p)}
        s = AlgebraElement(quiver, 6, {p: x.terms[p] for p in cycles})
        arrow = rng.choice(quiver.arrows).name
        assert cyclic_derivative(s, arrow) == cyclic_derivative(cyclic_normal_form(s), arrow)

        scale = {a.name: Fraction(rng.choice([1, 2, -1, 3])) for a in quiver.arrows}
        f = Substitution(quiver, quiver, 6,
                         {n: c * AlgebraElement.from_word(quiver, 6, [n])
                          for n, c in scale.items()})
        assert apply_substitution(f, x * y) == apply_substitution(f, x) * apply_substitution(f, y)

    for name in CORPUS:
        m = signed_adjacency(load(name))
        assert m.is_skew_symmetric(), name
        assert all(abs(e) <= 2 for row in m.rows for e in row), name
    report(12, "1000 seeded algebra triples and all corpus matrices pass the invariants")
