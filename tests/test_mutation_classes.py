"""Whole mutation classes from the flip graph of ideal triangulations.

The matrices B(t) over the ideal triangulations t of a surface are its whole
mutation class up to relabelling, and flips connect the ideal triangulations
(Fomin-Shapiro-Thurston, arXiv:math/0608367, section 7; Hatcher, "On
triangulations of surfaces", 1991; both cited from memory).  So a
breadth-first search over `flip` gives a second enumeration of the class,
with no mutation and no canonical search, to hold against `explore`.

The same search checks the paper's theorems on every triangulation of a
small surface: a triangulation's QP depends only on the triangulation up to
homeomorphism (and on the scalars), so one triangulation per class covers
them all, for the default scalars.
"""

import functools
import hashlib
import re
import warnings

import pytest
from oracles import oracle_canonical_form
from test_qp import depth_limit_quiver
from test_verify import _outcome

from qpsurf import QpsurfError
from qpsurf.algebra import (
    AlgebraElement, apply_substitution, cyclically_equivalent, substitution_is_isomorphism,
)
from qpsurf.jacobian import cartan_matrix, is_rigid_up_to
from qpsurf.potential import PotentialBuildWarning, qp_of_triangulation
from qpsurf.qp import _diagonal_pairing, mutate_qp, premutate_qp, split_qp
from qpsurf.surface import (
    Side, SurfaceError, Triangulation, flip, signed_adjacency, unreduced_quiver,
)
from qpsurf.verify import (
    canonical_matrix_form, check_flip_compatibility, check_involution, explore_mutation_class,
)


def triangulation_code(tri):
    """A code of `tri` up to orientation-preserving relabelling.

    The darts are the (triangle, slot) pairs.  From a root dart a
    breadth-first walk steps to the next slot of the same triangle and to
    the other slot of the same side, numbering darts as it meets them; the
    code lists both steps of every dart by number, -1 for a boundary
    segment, and is the least such list over all roots.
    """
    slots = {}
    for t, triple in enumerate(tri.triangles):
        for m, side in enumerate(triple):
            slots.setdefault(side, []).append((t, m))
    mate = {d: e for pair in slots.values() if len(pair) == 2 for d, e in (pair, pair[::-1])}

    def walk(root):
        number, order, code = {root: 0}, [root], []
        for t, m in order:
            for step in ((t, (m + 1) % 3), mate.get((t, m))):
                if step is not None and step not in number:
                    number[step] = len(order)
                    order.append(step)
                code.append(-1 if step is None else number[step])
        return tuple(code)

    return min(walk(root) for pair in slots.values() for root in pair)


def flip_class(tri):
    """One triangulation per code over every triangulation that flips reach
    from `tri`.  The arc `arc'` that a flip makes is named `arc` again, so
    arc names do not grow along the search; this is `gen.relabel_flipped`
    without its second validation of what `flip` has just validated, which
    would make the test ~50 % slower."""
    seen, found = {triangulation_code(tri)}, [tri]
    for t in found:
        for arc in t.arcs:
            try:
                out = flip(t, arc)
            except SurfaceError:  # a folded side
                continue
            fresh = arc + "'"
            out = Triangulation(out.surface,
                                [Side(arc, s.kind, s.ends) if s.name == fresh else s
                                 for s in out.sides.values()],
                                [tuple(arc if s == fresh else s for s in x) for x in out.triangles])
            code = triangulation_code(out)
            if code not in seen:
                seen.add(code)
                found.append(out)
    return found


@pytest.fixture(scope="module")
def surface_class(gen):
    """`flip_class` of `gen.surface(kind, size, punctures, 0, 6)` by (kind,
    size, punctures), searched once for this module's tests, which only read it."""
    @functools.cache
    def search(kind, size, punctures):
        return tuple(flip_class(gen.surface(kind, size, punctures, 0, 6)))
    return search


# (label, kind, size, punctures, triangulations up to relabelling, class size,
# explore's order): A_n is the (n + 3)-gon and D_n the n-gon with one
# puncture.  The sizes are as measured; the A_n sizes agree with Torkildsen's
# count of cluster-tilted algebras of type A_n, D5 and D6 with values
# recalled from Buan-Torkildsen, and D4 = 6 was counted by hand.  At orders 6
# and 7 explore asks for a rebuild on the thrice-punctured torus, as its
# potentials are cut too low; at order 8 it finds all 46 classes.
CLASSES = [
    ("A3", "polygon", 6, 0, 4, 4, 6),
    ("A4", "polygon", 7, 0, 6, 6, 6),
    ("A5", "polygon", 8, 0, 19, 19, 6),
    ("A6", "polygon", 9, 0, 49, 49, 6),
    ("A7", "polygon", 10, 0, 150, 150, 6),
    ("D4", "polygon", 4, 1, 10, 6, 6),
    ("D5", "polygon", 5, 1, 26, 26, 6),
    ("D6", "polygon", 6, 1, 80, 80, 6),
    ("torus1", "torus", 0, 0, 1, 1, 6),
    ("torus2", "torus", 0, 1, 5, 5, 6),
    ("torus3", "torus", 0, 2, 46, 46, 8),
]


def test_flip_graph_gives_the_explored_mutation_class(gen, surface_class):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PotentialBuildWarning)
        for label, kind, size, punctures, count, classes, order in CLASSES:
            tri = gen.surface(kind, size, punctures, 0, 6)
            found = surface_class(kind, size, punctures)
            forms = {canonical_matrix_form(signed_adjacency(t))[0] for t in found}
            assert (len(found), len(forms)) == (count, classes), label
            rep, graph = explore_mutation_class(qp_of_triangulation(tri, order), 99, order)
            assert rep.passed, label
            assert set(graph.nodes.values()) == forms, label
            if len(tri.arcs) <= 6:
                assert {oracle_canonical_form(signed_adjacency(t).rows) for t in found} == forms


def test_explore_refuses_the_thrice_punctured_torus_below_order_8(gen):
    """At orders 6 and 7 a node's 2-cycle rests on degree-2 terms that the
    truncation cut, so explore asks for a rebuild; at order 8 it finds the
    whole class, which `test_flip_graph_gives_the_explored_mutation_class`
    holds against the flip graph."""
    tri = gen.surface("torus", 0, 2, 0, 6)
    for order, node in ((6, "db83ba742baa"), (7, "c01b7f1d069b")):
        with pytest.raises(QpsurfError) as info:
            explore_mutation_class(qp_of_triangulation(tri, order), 99, order)
        assert str(info.value) == (
            "node %s has a 2-cycle, but its degree-2 terms are exact only through degree 1; "
            "rebuild the QP deeper" % node)
    rep, graph = explore_mutation_class(qp_of_triangulation(tri, 8), 99, 8)
    assert rep.passed and len(graph.nodes) == 46


def test_explore_refuses_a_two_cycle_at_the_depth_limit(gen):
    """The order-6 refusal's node lies at distance 6 from the start, so at
    depth 6 it is a depth-limit node, whose exactness is read off the
    premutation that its quiver comes from; at depth 5 it is not reached."""
    qp = qp_of_triangulation(gen.surface("torus", 0, 2, 0, 6), 6)
    with pytest.raises(QpsurfError) as info:
        explore_mutation_class(qp, 6, 6)
    assert str(info.value) == (
        "node db83ba742baa has a 2-cycle, but its degree-2 terms are exact only through "
        "degree 1; rebuild the QP deeper")
    rep, graph = explore_mutation_class(qp, 5, 6)
    assert rep.passed and len(graph.nodes) == 24


def test_the_depth_limit_quiver_is_that_of_mutate_qp_on_whole_flip_classes(surface_class):
    """Explore reads a depth-limit node's quiver off the degree-2 part of its
    premutation alone.  On every triangulation of CLASSES at the class's
    order, at every vertex, that quiver is the quiver of `mutate_qp`, or
    both refuse with the same text; the pairing moves arrows in some of
    these premutations, so not every block is the identity."""
    checked, moved, refused = 0, 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PotentialBuildWarning)
        for label, kind, size, punctures, _, _, order in CLASSES:
            for tri in surface_class(kind, size, punctures):
                try:
                    qp = qp_of_triangulation(tri, order)
                except SurfaceError:
                    continue  # a puncture cycle longer than the order
                for k in qp.quiver.vertices:
                    got = _outcome(depth_limit_quiver, qp, k)
                    assert got == _outcome(lambda q, k: mutate_qp(q, k).quiver, qp, k), (
                        label, tri.to_text(), k)
                    checked += 1
                    if isinstance(got, tuple):
                        refused += 1
                        continue
                    pre = premutate_qp(qp, k)
                    moved += bool(_diagonal_pairing(pre.quiver, pre.words.items())[0])
    assert (checked, moved, refused) == (2224, 108, 0)


# sha256 over every triangulation of every class of CLASSES, in that order and
# in `flip_class` order: its unreduced quiver's text, its sorted provenance
# and the text of its QP at the class's order, or the refusal.  Recorded
# while the unreduced quiver was still built by cancelling opposite corner
# contributions and replacing them with the valence-2 puncture arrows.
CLASSES_BUILD_SHA256 = "7bd221424514b9f30be104d487dcf16aa8e2505ddaa453b5dca3c486034df061"


def test_the_build_over_whole_flip_classes_is_pinned(surface_class):
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PotentialBuildWarning)
        for label, kind, size, punctures, _, _, order in CLASSES:
            for tri in surface_class(kind, size, punctures):
                quiver, provenance = unreduced_quiver(tri)
                try:
                    qp = qp_of_triangulation(tri, order).to_text()
                except SurfaceError as exc:
                    qp = "refused: %s\n" % exc
                h.update(("%s\n%s%r\n%s" % (label, quiver.to_text(), sorted(provenance.items()),
                                              qp)).encode())
    assert h.hexdigest() == CLASSES_BUILD_SHA256


# (label, kind, size, punctures, flip-compat passes, folded-side refusals,
# involution passes, "rebuild" refusals), as measured: every arc and every
# vertex of every triangulation up to relabelling
THEOREM_CLASSES = [
    ("A5", "polygon", 8, 0, 95, 0, 95, 0),
    ("A6", "polygon", 9, 0, 294, 0, 294, 0),
    ("D5", "polygon", 5, 1, 116, 14, 130, 0),
    ("D6", "polygon", 6, 1, 438, 42, 480, 0),
    ("torus2", "torus", 0, 1, 29, 1, 29, 1),
]


def test_the_papers_theorems_hold_on_every_triangulation_of_a_small_surface(gen, surface_class):
    """On each triangulation, built at D = max(largest puncture valence + 4, 10):
    - a flip is a QP-mutation (flip-compat passes), and a folded side is refused;
    - each one-step mutation's split witness is a right-equivalence from the
      premutation to its trivial part plus its reduced part;
    - the QP is rigid (dim Def 0) with boundary, the paper's second theorem;
      closed, dim Def is 1 and the Cartan matrix is symmetric (measured, as
      in `test_flip_walks`);
    - mutating twice at a vertex keeps the quiver and the dims, or the check
      asks for a rebuild where the truncation cut a term it reads."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PotentialBuildWarning)
        for label, kind, size, punctures, *expected in THEOREM_CLASSES:
            counts = [0, 0, 0, 0]
            for tri in surface_class(kind, size, punctures):
                order = max(gen.max_valence(tri) + 4, 10)
                where = (label, tri.to_text())
                for arc in tri.arcs:
                    try:
                        assert check_flip_compatibility(tri, arc, order).passed, (where, arc)
                        counts[0] += 1
                    except SurfaceError as exc:
                        assert str(exc) == "arc %r is a folded side; flip undefined" % arc
                        counts[1] += 1
                qp = qp_of_triangulation(tri, order)
                for k in qp.quiver.vertices:
                    pre = premutate_qp(qp, k)
                    res = split_qp(pre)
                    assert substitution_is_isomorphism(res.witness), (where, k)
                    recombined = AlgebraElement(pre.quiver, order, {
                        **res.trivial.potential.terms, **res.reduced.potential.terms})
                    image = apply_substitution(res.witness, pre.potential)
                    assert cyclically_equivalent(image, recombined), (where, k)
                    try:
                        assert check_involution(qp, k, order).passed, (where, k)
                        counts[2] += 1
                    except QpsurfError as exc:
                        assert re.search(r", which is exact only through degree \d+; "
                                         r"rebuild the QP deeper$", str(exc)), (where, k)
                        counts[3] += 1
                closed = tri.surface.boundary == 0
                rep = is_rigid_up_to(qp, order)
                assert (rep.certified_order is not None, rep.dim_def) == (True, closed), where
                if closed:
                    c = cartan_matrix(qp, order)
                    assert c.rows == tuple(zip(*c.rows)), where
            assert counts == expected, label


def test_triangulation_code_ignores_triangle_order_and_rotation(gen):
    tri = gen.surface("polygon", 5, 1, 0, 6)
    turned = Triangulation(tri.surface, tri.sides.values(),
                           [t[1:] + t[:1] for t in reversed(tri.triangles)])
    assert triangulation_code(turned) == triangulation_code(tri)
