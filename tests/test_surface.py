import pytest

from qpsurf.examples_data import CORPUS, example_text
from qpsurf.quiver import IntegerMatrix, matrix_from_quiver, mutate_matrix, mutate_quiver, quiver_from_matrix
from qpsurf.surface import (
    SurfaceError,
    Triangulation,
    flip,
    fold_map,
    signed_adjacency,
    unreduced_quiver,
    validate_triangulation,
)


def load(name):
    return Triangulation.from_text(example_text(name))


def corpus():
    return [(name, load(name)) for name in CORPUS]


def test_corpus_validates():
    for name, tri in corpus():
        assert validate_triangulation(tri) == [], name


def test_torus_rank_and_matrix():
    tri = load("torus")
    assert tri.surface.rank() == 3
    assert len(tri.arcs) == 3
    assert signed_adjacency(tri) == IntegerMatrix(
        ["1", "2", "3"], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def test_unpunctured_triangle_rejected():
    text = """
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
bseg AB A B on=0
bseg BC B C on=0
bseg CA C A on=0
tri AB BC CA
"""
    problems = validate_triangulation(Triangulation.from_text(text))
    assert any("excluded surface" in p for p in problems)


def test_arc_slot_count_diagnostic():
    text = example_text("torus") + "tri 1 2 3\n"
    problems = validate_triangulation(Triangulation.from_text(text))
    assert any("slots" in p for p in problems)


def test_constructor_takes_sides_from_a_generator():
    tri = load("punctured-square-sf")
    again = Triangulation(tri.surface, (s for s in tri.sides.values()), iter(tri.triangles))
    assert again.to_text() == tri.to_text()
    assert validate_triangulation(again) == []
    side = next(iter(tri.sides.values()))
    with pytest.raises(SurfaceError, match="duplicate side ids"):
        Triangulation(tri.surface, (s for s in [side, side]), [])


def test_constructor_refuses_a_short_triangle_and_an_unknown_side():
    tri = load("torus")
    sides = list(tri.sides.values())
    with pytest.raises(SurfaceError) as short:
        Triangulation(tri.surface, sides, [("1", "2")])
    assert str(short.value) == "triangle ('1', '2') does not have three sides"
    with pytest.raises(SurfaceError) as unknown:
        Triangulation(tri.surface, sides, [("1", "2", "9")])
    assert str(unknown.value) == "triangle references unknown side '9'"


def test_fold_map_identity_without_self_folded():
    for name in ("torus", "pentagon", "hexagon-central"):
        tri = load(name)
        fm = fold_map(tri)
        assert all(fm[s] == s for s in fm)


def test_fold_map_self_folded_square():
    fm = fold_map(load("punctured-square-sf"))
    assert fm["f"] == "L"
    assert all(fm[s] == s for s in fm if s != "f")


def test_self_folded_triangle_read_in_each_rotation():
    # the folded side f may be listed at slots 0-1, 1-2 or 2-0 of the triple
    base = load("punctured-square-sf")
    for triple in ("L f f", "f L f", "f f L"):
        tri = Triangulation.from_text(example_text("punctured-square-sf").replace(
            "tri L f f", "tri " + triple))
        a = tri.analysis()
        assert a.self_folded == {0: ("f", "L")} and a.fold == fold_map(base), triple
        assert signed_adjacency(tri) == signed_adjacency(base), triple


def test_signed_adjacency_hexagon_central():
    tri = load("hexagon-central")
    m = signed_adjacency(tri)
    assert m == IntegerMatrix(["1", "2", "3"], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


def test_signed_adjacency_square_valence_two():
    tri = load("punctured-square-2")
    m = signed_adjacency(tri)
    assert m.entry("1", "2") == 0
    assert m.entry("2", "1") == 0


def test_signed_adjacency_bounds_and_skewness():
    for name, tri in corpus():
        m = signed_adjacency(tri)
        assert m.is_skew_symmetric(), name
        assert all(abs(x) <= 2 for row in m.rows for x in row), name


def test_unreduced_quiver_square_two_cycle():
    tri = load("punctured-square-2")
    quiver, provenance = unreduced_quiver(tri)
    mult = quiver.multiplicities()
    assert mult[("1", "2")] == 1 and mult[("2", "1")] == 1
    assert provenance["1>2~pp"] == ("puncture", "p")
    # the reduced quiver is the unreduced one minus the added pair
    reduced = quiver_from_matrix(signed_adjacency(tri))
    survivors = {k: v for k, v in mult.items() if k not in (("1", "2"), ("2", "1"))}
    assert survivors == reduced.multiplicities()


def test_unreduced_equals_reduced_without_valence_two_punctures():
    for name in ("torus", "pentagon", "hexagon-fan", "hexagon-central", "annulus",
                 "punctured-square-4", "punctured-square-3", "punctured-square-sf"):
        tri = load(name)
        quiver, _ = unreduced_quiver(tri)
        assert quiver.multiplicities() == quiver_from_matrix(signed_adjacency(tri)).multiplicities(), name


def test_unreduced_provenance_triangles():
    quiver, provenance = unreduced_quiver(load("torus"))
    assert provenance["1>2~t0"] == ("triangle", 0, 0)
    assert provenance["1>2~t1"] == ("triangle", 1, 0)
    assert len(quiver.arrows) == 6


def test_flip_torus_literal():
    tri = load("torus")
    out = flip(tri, "1")
    assert out.triangles == [("1'", "3", "2"), ("1'", "3", "2")]
    m = signed_adjacency(out)
    relabeled = IntegerMatrix([v if v != "1'" else "1" for v in m.vertices], m.rows)
    assert relabeled == IntegerMatrix(["1", "2", "3"], [[0, -2, 2], [2, 0, -2], [-2, 2, 0]])


def test_flip_fourth_piece_creates_self_folded():
    # flipping a puncture arc of the valence-2 square produces a self-folded triangle
    tri = load("punctured-square-2")
    out = flip(tri, "1")
    assert validate_triangulation(out) == []
    a = out.analysis()
    assert len(a.self_folded) == 1


def test_flip_consumes_self_folded():
    tri = load("punctured-square-sf")
    out = flip(tri, "L")
    assert validate_triangulation(out) == []
    assert len(out.analysis().self_folded) == 0


def test_flip_folded_side_is_an_error():
    tri = load("punctured-square-sf")
    with pytest.raises(SurfaceError):
        flip(tri, "f")
    with pytest.raises(SurfaceError):
        flip(tri, "nope")


def flippable_arcs(tri):
    a = tri.analysis()
    return [arc for arc in tri.arcs if a.fold[arc] == arc]


def test_matrix_mutation_oracle_over_corpus():
    for name, tri in corpus():
        b = signed_adjacency(tri)
        for arc in flippable_arcs(tri):
            out = flip(tri, arc)
            got = signed_adjacency(out)
            relabeled = IntegerMatrix(
                [arc if v == arc + "'" else v for v in got.vertices], got.rows)
            assert relabeled == mutate_matrix(b, arc), (name, arc)
            via_quiver = matrix_from_quiver(mutate_quiver(quiver_from_matrix(b), arc))
            assert relabeled == via_quiver, (name, arc)


def test_flip_involution_and_rank_over_corpus():
    for name, tri in corpus():
        n = len(tri.arcs)
        for arc in flippable_arcs(tri):
            once = flip(tri, arc)
            assert len(once.arcs) == n, (name, arc)
            assert validate_triangulation(once) == [], (name, arc)
            back = flip(once, arc + "'")
            m = signed_adjacency(back)
            relabeled = IntegerMatrix(
                [arc if v == arc + "''" else v for v in m.vertices], m.rows)
            assert relabeled == signed_adjacency(tri), (name, arc)


def test_serialization_roundtrip_bit_exact():
    for name, tri in corpus():
        text = tri.to_text()
        again = Triangulation.from_text(text)
        assert again.to_text() == text, name


def test_scalar_defaults_are_distinct_primes():
    text = """
surface genus=1 boundary=0
marked p puncture
marked q puncture
marked r puncture
arc 1 p p
arc 2 p p
arc 3 p p
tri 1 2 3
tri 1 2 3
"""
    tri = Triangulation.from_text(text)
    assert [tri.surface.scalars[m] for m in ("p", "q", "r")] == [2, 3, 5]


def test_scalar_override():
    from fractions import Fraction

    tri = Triangulation.from_text(example_text("torus"), {"p": Fraction(7, 3)})
    assert tri.surface.scalars["p"] == Fraction(7, 3)
