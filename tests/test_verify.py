import functools
import hashlib
import itertools
import random
import time
import warnings

import pytest
from oracles import oracle_canonical_form
from test_qp import depth_limit_quiver

from qpsurf import verify
from qpsurf.algebra import AlgebraElement, AlgebraError, Path, least_rotation, truncate
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.jacobian import (
    JacobianError,
    cartan_matrix,
    is_rigid_up_to,
    truncated_quotient_dim,
)
from qpsurf.potential import qp_of_triangulation
from qpsurf.qp import QP, mutate_qp, premutate_qp, restrict_qp
from qpsurf.quiver import (
    Arrow,
    IntegerMatrix,
    Quiver,
    QuiverError,
    is_two_acyclic,
    matrix_from_quiver,
    mutate_matrix,
    net_matrix,
)
from qpsurf.surface import SurfaceError, Triangulation
from qpsurf.verify import (
    canonical_matrix_form,
    check_flip_compatibility,
    check_involution,
    check_restriction_commutes,
    explore_mutation_class,
)


def load(name):
    return Triangulation.from_text(example_text(name))


def load_qp(name, order=6):
    return qp_of_triangulation(load(name), order)


# the torus with two punctures that bench/gen.py builds as
# surface("torus", 0, 1, 0, 6); rank 6
TORUS_TWO_PUNCTURES = """\
surface genus=1 boundary=0
marked P2 puncture scalar=2/1
marked p puncture scalar=3/1
arc 1 P2 p
arc 2 P2 P2
arc 3 p p
arc 4 p P2
arc 5 p P2
arc 6 p P2
tri 4 1 2
tri 5 3 6
tri 4 1 3
tri 5 2 6
"""


def test_double_mutation_below_the_truncation_is_exact_or_refused():
    # built at order 7, mutating twice at vertex 2 keeps only one of the
    # potential's two degree-6 terms: the dims of the result end 66, 73, 79
    # where the QP's own end 66, 72, 72, and the involution check would FAIL
    # at vertices 2 and 3.  A truncated QP that says how far it is exact
    # either gets these right or refuses with "rebuild".
    qp = qp_of_triangulation(Triangulation.from_text(TORUS_TWO_PUNCTURES), 7)
    for k in ("2", "3"):
        try:
            assert check_involution(qp, k, 7).passed, k
        except ValueError as exc:
            assert "rebuild" in str(exc)
    try:
        back = truncated_quotient_dim(mutate_qp(mutate_qp(qp, "2"), "2"), 7)
    except ValueError as exc:
        assert "rebuild" in str(exc)
    else:
        assert back.dims == truncated_quotient_dim(qp, 7).dims


def test_exact_is_lowered_by_a_second_mutation():
    qp = qp_of_triangulation(Triangulation.from_text(TORUS_TWO_PUNCTURES), 7)
    once = mutate_qp(qp, "2")
    assert (qp.exact, once.exact) == (None, 7)
    twice = mutate_qp(once, "2")
    assert twice.exact == 5
    assert truncated_quotient_dim(twice, 4).dims == truncated_quotient_dim(qp, 4).dims
    with pytest.raises(JacobianError, match=r"^order 5 reads the potential through degree 6, "
                       r"which is exact only through degree 5; rebuild the QP deeper$"):
        truncated_quotient_dim(twice, 5)
    # at order 8 no product is skipped, and the involution checks all pass
    qp = qp_of_triangulation(Triangulation.from_text(TORUS_TWO_PUNCTURES), 8)
    assert mutate_qp(mutate_qp(qp, "2"), "2").exact is None
    assert all(check_involution(qp, k, 8).passed for k in qp.quiver.vertices)


def test_explore_reads_no_exactness_past_its_nodes_quivers():
    # explore reads only degree-2 terms, so a QP exact through degree 5 gives
    # one graph at every order it accepts, 1 to its truncation 7, though the
    # dims refuse the orders 5 to 7 that read past degree 5
    qp = qp_of_triangulation(Triangulation.from_text(TORUS_TWO_PUNCTURES), 7)
    twice = mutate_qp(mutate_qp(qp, "2"), "2")
    assert twice.exact == 5
    graphs = set()
    for order in range(1, 8):
        rep, graph = explore_mutation_class(twice, 2, order)
        assert rep.passed, order
        graphs.add(graph.to_text())
    assert len(graphs) == 1 and len(graph.nodes) == 3 and len(graph.edges) == 12


# `bench/gen.py` shapes whose double and triple mutations at orders 4-6 lose terms
EXACT_SHAPES = [("polygon", 5, 1), ("polygon", 6, 2), ("polygon", 4, 2), ("torus", 0, 1),
                ("torus", 0, 2)]


def test_exact_agrees_with_a_deeper_build_after_two_or_three_mutations(gen):
    # the oracle takes the same steps on the QP built at D + 6 and cuts the
    # result to D with `algebra.truncate`; it never reads `exact`.  The dims
    # agree up to the order that `exact` allows, which is all a call gets,
    # and every mismatch lies past it.  A dims table at order d reads the
    # terms of degree d + 1, so a QP exact through degree e < D serves only
    # the orders below e: some chains differ at degree e itself.
    lowered = mismatched = at_exact = 0
    for kind, size, punctures in EXACT_SHAPES:
        for seed in range(10):
            try:
                tri = gen.surface(kind, size, punctures, seed, 6)
            except SurfaceError:  # the flip walk found no triangulation
                continue
            for order in (4, 5, 6):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # PotentialBuildWarning
                        start, deep_start = (qp_of_triangulation(tri, order),
                                             qp_of_triangulation(tri, order + 6))
                except SurfaceError:  # a puncture cycle longer than the order
                    continue
                rng = random.Random("%s %d %d %d %d" % (kind, size, punctures, seed, order))
                for _ in range(4):
                    qp, deep = start, deep_start
                    for _ in range(rng.choice((2, 3))):
                        k = rng.choice(qp.quiver.vertices)
                        qp, deep = mutate_qp(qp, k), mutate_qp(deep, k)
                    want = truncated_quotient_dim(
                        QP(deep.quiver, truncate(deep.potential, order), order), order).dims
                    # the same words, read as exact
                    got = truncated_quotient_dim(QP(qp.quiver, qp.potential, order), order).dims
                    e = qp.exact
                    limit = order if e is None or e >= order else e - 1
                    if limit >= 1:
                        assert truncated_quotient_dim(qp, limit).dims == want[:limit + 1]
                    if limit < order:
                        lowered += 1
                        with pytest.raises(JacobianError, match=r", which is exact only "
                                           r"through degree \d+; rebuild the QP deeper$"):
                            truncated_quotient_dim(qp, limit + 1)
                    first = next((d for d, (x, y) in enumerate(zip(got, want)) if x != y), None)
                    if first is not None:
                        mismatched += 1
                        assert first > limit, (kind, size, punctures, seed, order, e, got, want)
                        at_exact += first == e
    assert (lowered, mismatched, at_exact) == (42, 17, 5)


def test_flip_compat_torus():
    rep = check_flip_compatibility(load("torus"), "1", 6)
    assert rep.passed, rep.to_text()
    assert rep.first_failure is None


def test_flip_compat_square_all_arcs():
    tri = load("punctured-square-2")
    for arc in tri.arcs:
        rep = check_flip_compatibility(tri, arc, 6)
        assert rep.passed, rep.to_text()


def test_flip_compat_witness_is_optional():
    rep = check_flip_compatibility(load("hexagon-fan"), "2", 6)
    assert rep.passed
    assert all(label != "witness" for label, _, _ in rep.subresults)


def test_flip_compat_with_explicit_torus_witness():
    # for the torus the flip is realised by a plain renaming of arrows
    from qpsurf.algebra import AlgebraElement, Substitution
    from qpsurf.qp import mutate_qp
    from qpsurf.surface import flip
    from qpsurf.verify import relabel_vertices

    tri = load("torus")
    left = mutate_qp(load_qp("torus"), "1")
    right = relabel_vertices(qp_of_triangulation(flip(tri, "1"), 6), {"1'": "1"})
    rename = {
        "1>2~t0*": "2>1'~t1",
        "1>2~t1*": "2>1'~t0",
        "3>1~t0*": "1'>3~t0",
        "3>1~t1*": "1'>3~t1",
        "[1>2~t0.3>1~t1]": "3>2~t1",
        "[1>2~t1.3>1~t0]": "3>2~t0",
    }
    witness = Substitution(
        left.quiver, right.quiver, 6,
        {src: AlgebraElement.from_word(right.quiver, 6, [dst])
         for src, dst in rename.items()})
    rep = check_flip_compatibility(tri, "1", 6, witness=witness)
    assert rep.passed, rep.to_text()
    assert ("witness", True, "") in rep.subresults


def test_flip_compat_witness_detects_mismatch():
    from qpsurf.algebra import AlgebraElement, Substitution
    from qpsurf.qp import mutate_qp
    from qpsurf.surface import flip
    from qpsurf.verify import relabel_vertices

    tri = load("torus")
    left = mutate_qp(load_qp("torus"), "1")
    right = relabel_vertices(qp_of_triangulation(flip(tri, "1"), 6), {"1'": "1"})
    rename = {
        "1>2~t0*": "2>1'~t1",
        "1>2~t1*": "2>1'~t0",
        "3>1~t0*": "1'>3~t0",
        "3>1~t1*": "1'>3~t1",
        "[1>2~t0.3>1~t1]": "3>2~t1",
        "[1>2~t1.3>1~t0]": "3>2~t0",
    }
    images = {src: AlgebraElement.from_word(right.quiver, 6, [dst])
              for src, dst in rename.items()}
    images["1>2~t0*"] = -images["1>2~t0*"]  # a lone sign flip breaks it
    witness = Substitution(left.quiver, right.quiver, 6, images)
    rep = check_flip_compatibility(tri, "1", 6, witness=witness)
    assert not rep.passed
    assert rep.first_failure.startswith("witness")


def test_involution_example_triangle():
    q = Quiver(["1", "2", "3"],
               [Arrow("a", "3", "1"), Arrow("b", "2", "3"), Arrow("c", "1", "2")])
    qp = QP(q, AlgebraElement.from_word(q, 6, ["a", "b", "c"]))
    rep = check_involution(qp, "2", 6)
    assert rep.passed, rep.to_text()


def test_involution_torus_every_vertex():
    qp = load_qp("torus")
    for k in qp.quiver.vertices:
        rep = check_involution(qp, k, 6)
        assert rep.passed, rep.to_text()


def test_restriction_full_vertex_set_is_exact():
    qp = load_qp("torus")
    rep = check_restriction_commutes(qp, list(qp.quiver.vertices), "1", 6)
    assert rep.passed
    assert ("exact-potentials", True, "reduced parts differ") in rep.subresults


def test_restriction_torus_pairs():
    qp = load_qp("torus")
    rep = check_restriction_commutes(qp, ["1", "2"], "2", 6)
    assert rep.passed, rep.to_text()


def test_restriction_square_co_size_one():
    qp = load_qp("punctured-square-2")
    verts = qp.quiver.vertices
    for drop in verts:
        keep = [v for v in verts if v != drop]
        for k in keep:
            rep = check_restriction_commutes(qp, keep, k, 6)
            assert rep.passed, (drop, k, rep.to_text())


def test_restriction_premutates_each_route_once(monkeypatch):
    # one premutation per route, restricted-then-premutated first; the
    # reduced parts and the exact comparison both come from these two
    calls = []

    def counting(qp, k):
        calls.append(len(qp.quiver.arrows))
        return premutate_qp(qp, k)

    monkeypatch.setattr("qpsurf.qp.premutate_qp", counting)
    monkeypatch.setattr(verify, "premutate_qp", counting)
    qp = load_qp("torus")
    rep = check_restriction_commutes(qp, ["1", "2"], "2", 6)
    assert rep.passed, rep.to_text()
    assert calls == [2, 6]


def test_explore_depth_zero_single_node():
    rep, graph = explore_mutation_class(load_qp("torus"), 0, 6)
    assert rep.passed
    assert len(graph.nodes) == 1
    assert graph.edges == []


def test_explore_torus_depth_four_all_two_acyclic():
    rep, graph = explore_mutation_class(load_qp("torus"), 4, 6)
    assert rep.passed, rep.to_text()
    assert len(graph.nodes) >= 1
    # closure: every edge target is a known node
    for (_src, _k, dst) in graph.edges:
        assert dst in graph.nodes


def test_explore_hexagon_depth_six():
    rep, graph = explore_mutation_class(load_qp("hexagon-central"), 6, 6)
    assert rep.passed, rep.to_text()


def test_canonical_form_permutation_invariant():
    m = IntegerMatrix(["1", "2", "3"], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    p = IntegerMatrix(["1", "2", "3"], [[0, -2, 2], [2, 0, -2], [-2, 2, 0]])
    assert canonical_matrix_form(m)[0] == canonical_matrix_form(p)[0]


def _matrix(rows):
    return IntegerMatrix([str(i) for i in range(len(rows))], rows)


def _random_skew(rng, n, density):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                rows[i][j] = rng.randint(-2, 2)
                rows[j][i] = -rows[i][j]
    return rows


def _relabelled(rows, rng):
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [[rows[a][b] for b in order] for a in order]


def _net(n, arrows):
    """Net matrix of the arrows (tail, head) on vertices 0..n-1."""
    rows = [[0] * n for _ in range(n)]
    for a, b in arrows:
        rows[a][b] += 1
        rows[b][a] -= 1
    return rows


def _oriented_cycles(count, length):
    return _net(count * length, [(c * length + i, c * length + (i + 1) % length)
                                 for c in range(count) for i in range(length)])


def _disjoint_union(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[offset + i][offset:offset + len(row)] = row
        offset += len(block)
    return rows


def test_canonical_form_equals_brute_force_minimum():
    rng = random.Random(3)
    cases = [_random_skew(rng, n, d) for n in range(7) for d in (0.15, 0.4, 0.7, 1.0)
             for _ in range(10)]
    cases += [_random_skew(rng, 7, d) for d in (0.15, 0.3, 0.5, 1.0) for _ in range(5)]
    # repeated blocks give automorphisms, which the search prunes by
    for _ in range(30):
        block = _random_skew(rng, rng.randint(1, 3), 0.8)
        blocks = [block] * (6 // len(block)) + [_random_skew(rng, 6 % len(block), 0.5)]
        cases.append(_relabelled(_disjoint_union(blocks), rng))
    # placing any vertex of an oriented 3- or 4-cycle leaves one vertex per
    # cell, and each tied first vertex after the first gives an automorphism
    # at the order that partition forces
    cases += [_oriented_cycles(1, 3), _oriented_cycles(1, 4)]
    # every cell is one vertex after position 2; the second tied vertex there
    # forces an order whose rows 2..4 exceed the best table's, and the third
    # gives the least table
    cases.append([[0, 0, 1, -1, -1], [0, 0, 1, 0, 1], [-1, -1, 0, 0, 1], [1, 0, 0, 0, 0],
                  [1, -1, -1, 0, 0]])
    for rows in cases:
        _assert_least_table(rows)


def _assert_least_table(rows):
    form, order = canonical_matrix_form(_matrix(rows))
    assert form == oracle_canonical_form(rows), rows
    assert tuple(tuple(rows[a][b] for b in order) for a in order) == form, rows


def test_canonical_form_equals_brute_force_on_any_integer_matrix():
    # the search never uses skew-symmetry or a zero diagonal
    rng = random.Random(4)
    cases = [[[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
             for n in range(1, 6) for _ in range(20)]
    # non-zero diagonals; after the first placement every cell is one vertex,
    # and the second tied vertex's forced order gives a larger table in the
    # first matrix and an automorphism in the second
    cases += [[[-1, 1, 0], [0, -1, 1], [0, 2, 0]],
              [[-1, 2, 0, 1], [2, -1, 0, 1], [0, 0, 0, 2], [1, 1, 0, 0]]]
    for rows in cases:
        _assert_least_table(rows)


def test_canonical_form_tries_tied_candidates_outside_an_orbit():
    # arrows 2->0, 2->1 and 3->4: the twins 0 and 1 tie with 4 for the first
    # position, and the automorphism swapping the twins does not reach 4
    rows = _net(5, [(2, 0), (2, 1), (3, 4)])
    want = oracle_canonical_form(rows)
    for order in itertools.permutations(range(5)):
        relabelled = [[rows[a][b] for b in order] for a in order]
        assert canonical_matrix_form(_matrix(relabelled))[0] == want, order


def test_canonical_form_separates_nine_cycle_from_three_triangles():
    # every row of both has one 1, one -1 and seven 0s
    nine = canonical_matrix_form(_matrix(_oriented_cycles(1, 9)))[0]
    triangles = canonical_matrix_form(_matrix(_oriented_cycles(3, 3)))[0]
    assert nine != triangles


def test_canonical_form_invariant_under_relabelling_above_rank_eight():
    rng = random.Random(5)
    for n in range(9, 16):
        for density in (0.1, 0.25, 0.5):
            rows = _random_skew(rng, n, density)
            form = canonical_matrix_form(_matrix(rows))[0]
            assert canonical_matrix_form(_matrix(form))[0] == form
            for _ in range(2):
                assert canonical_matrix_form(_matrix(_relabelled(rows, rng)))[0] == form, rows


def test_canonical_form_fast_on_symmetric_matrices():
    rng = random.Random(6)
    for rows in ([[0] * 12 for _ in range(12)], _oriented_cycles(5, 3), _oriented_cycles(4, 4)):
        start = time.perf_counter()
        form = canonical_matrix_form(_matrix(rows))[0]
        assert time.perf_counter() - start < 0.5
        assert canonical_matrix_form(_matrix(_relabelled(rows, rng)))[0] == form


# sha256 over repr of the canonical forms of a rank-42 matrix and of its 42
# children; the matrix is that of fan_polygon_text(45) after 30 mutate_matrix
# steps at vertices drawn by random.Random(0).  Recorded when each candidate
# vertex was refined once for its row and again after it was placed.
RANK_42_FORMS_SHA256 = "3aea4ea5527683f1e30be7715e50e1f6e4448fefa48053e3a4270953e7bf5a05"


def test_canonical_forms_pinned_at_rank_42():
    qp = qp_of_triangulation(Triangulation.from_text(fan_polygon_text(45)), 6)
    m = net_matrix(qp.quiver)
    rng = random.Random(0)
    for _ in range(30):
        m = mutate_matrix(m, rng.choice(m.vertices))
    forms = [canonical_matrix_form(m)[0]] + [canonical_matrix_form(mutate_matrix(m, k))[0]
                                             for k in m.vertices]
    assert len(forms) == 43
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == RANK_42_FORMS_SHA256


def test_explore_graph_shapes():
    qp = load_qp("hexagon-central")
    _rep, graph = explore_mutation_class(qp, 2, 6)
    edges = graph.edges
    assert isinstance(edges, list) and edges
    for edge in edges:
        assert type(edge) is tuple and len(edge) == 3
        src, k, dst = edge
        assert src in graph.nodes and dst in graph.nodes and k in qp.quiver.vertices
    assert isinstance(graph.nodes, dict)
    assert canonical_matrix_form(matrix_from_quiver(qp.quiver))[0] in graph.nodes.values()


def fan_polygon_text(n):
    """Fan triangulation of an n-gon from corner B0; its quiver has type A_{n-3}."""
    lines = ["surface genus=0 boundary=1"]
    lines += ["marked B%d boundary=0" % i for i in range(n)]
    lines += ["bseg b%d B%d B%d on=0" % (i, i, (i + 1) % n) for i in range(n)]
    lines += ["arc %d B0 B%d" % (j - 1, j) for j in range(2, n - 1)]
    for j in range(1, n - 1):
        first = "b0" if j == 1 else str(j - 1)
        last = "b%d" % (n - 1) if j == n - 2 else str(j)
        lines.append("tri %s b%d %s" % (first, j, last))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def full_type_a_class(rank):
    qp = qp_of_triangulation(Triangulation.from_text(fan_polygon_text(rank + 3)), 6)
    return explore_mutation_class(qp, 99, 6)


def test_full_type_a_classes_have_torkildsen_sizes():
    # mutation classes of A4, A5 and A6 have 6, 19 and 49 quivers (Torkildsen 2008)
    for rank, size in ((4, 6), (5, 19), (6, 49)):
        rep, graph = full_type_a_class(rank)
        assert rep.passed, rep.to_text()
        assert len(graph.nodes) == size, rank
        assert len(graph.edges) == rank * size, rank


# sha256 over the explore text (report, then graph) of every corpus QP at
# order 6 at depths 1-3, of its one-step mutations at depth 2, then of the
# full A4, A5 and A6 classes; recorded when every child of an expanded node
# still had its QP built before its node was looked up
EXPLORE_CORPUS_SHA256 = "d3ee02cd5fbfaa4171b7b2ec5923aeff55eaaa77cc8c2bb1aff3494d39e05882"


def test_explore_text_pinned_on_corpus_mutations_and_type_a_classes():
    h = hashlib.sha256()

    def add(rep, graph):
        h.update(rep.to_text().encode())
        h.update(graph.to_text().encode())

    for name in CORPUS:
        qp = load_qp(name)
        for depth in (1, 2, 3):
            add(*explore_mutation_class(qp, depth, 6))
        for k in qp.quiver.vertices:
            add(*explore_mutation_class(mutate_qp(qp, k), 2, 6))
    for rank in (4, 5, 6):
        add(*full_type_a_class(rank))
    assert h.hexdigest() == EXPLORE_CORPUS_SHA256


# sha256 over the explore text (report, then graph) of every corpus QP at
# order 6 at depths 0 and 99, then of its one-step mutations at depths 0, 1, 3
# and 99: the depths the pin above leaves out.  Recorded before explore read
# reverse edges off canonical vertex orders
EXPLORE_DEPTHS_SHA256 = "44fb1e38c934d7bf1d857f4f67f98a978d78aae3479c1e64a85af86f17ecd997"


def test_explore_text_pinned_on_corpus_mutations_at_every_depth():
    h = hashlib.sha256()
    for name in CORPUS:
        qp = load_qp(name)
        runs = [(qp, depth) for depth in (0, 99)]
        runs += [(mutate_qp(qp, k), depth) for k in qp.quiver.vertices for depth in (0, 1, 3, 99)]
        for q, depth in runs:
            rep, graph = explore_mutation_class(q, depth, 6)
            h.update(rep.to_text().encode())
            h.update(graph.to_text().encode())
    assert h.hexdigest() == EXPLORE_DEPTHS_SHA256


def random_three_cycle_qp(seed, order=4):
    """A seeded 2-acyclic QP on 3 or 4 vertices, with parallel arrows and a
    potential of 3-cycles.  About half the seeds give every 3-cycle the product
    of random arrow signs, so a block of parallel arrows pairs with rank one
    and a premutation keeps a 2-cycle; the others draw each coefficient from
    -2..2, zero included."""
    rng = random.Random("three-cycles:%d" % seed)
    vertices = [str(v) for v in range(1, rng.choice((3, 4)) + 1)]
    arrows = []
    for i, j in itertools.combinations(vertices, 2):
        tail, head = (i, j) if rng.random() < 0.5 else (j, i)
        for _ in range(rng.choice((0, 1, 1, 2))):
            arrows.append(Arrow("a%d" % len(arrows), tail, head))
    quiver = Quiver(vertices, arrows)
    sign = {a.name: rng.choice((-1, 1)) for a in arrows}
    rank_one = rng.random() < 0.5
    terms = {}
    for x, y, z in itertools.product(arrows, repeat=3):
        if x.head == y.tail and y.head == z.tail and z.head == x.tail:
            c = (sign[x.name] * sign[y.name] * sign[z.name] if rank_one
                 else rng.choice((-2, -1, 0, 1, 2)))
            if c:
                terms[Path(least_rotation((z.name, y.name, x.name)))] = c
    return QP(quiver, AlgebraElement(quiver, order, terms), order)


# sha256 over the explore text (report, then graph) of random_three_cycle_qp
# for seeds 0-59 at depths 1-3 and order 4.  Four QPs report FAIL at every
# depth, at depth 1 on nodes at the depth limit.  Recorded when every node's
# QP was built, the depth limit's included.
EXPLORE_THREE_CYCLES_SHA256 = "1386d167fd87c8f89a75145a57a5c75e1ba9d3dd68997e5218c585368d49f23a"


def test_explore_text_pinned_on_degenerate_three_cycle_qps():
    h = hashlib.sha256()
    failed = 0
    for seed in range(60):
        qp = random_three_cycle_qp(seed)
        for depth in (1, 2, 3):
            rep, graph = explore_mutation_class(qp, depth, 4)
            failed += not rep.passed
            h.update(rep.to_text().encode())
            h.update(graph.to_text().encode())
    assert failed == 12
    assert h.hexdigest() == EXPLORE_THREE_CYCLES_SHA256


def test_mutated_qp_has_the_mutated_matrix():
    # explore finds a child's node from mutate_matrix before it builds the
    # child's QP, and builds only the quiver of a child at the depth limit;
    # check both identities on the QPs explore pops at depth 2 (the first QP
    # to reach each node, in breadth-first order)
    def node(q):
        return canonical_matrix_form(net_matrix(q.quiver))[0]

    triangle = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                        Arrow("c", "3", "1")])
    starts = [load_qp(name) for name in CORPUS] + [
        QP(triangle, AlgebraElement(triangle, 4, {}))]
    checked = 0
    for start in starts:
        seen, frontier = {node(start)}, [(start, 0)]
        for q, dist in frontier:
            if not is_two_acyclic(q.quiver):
                continue
            b = net_matrix(q.quiver)
            for k in q.quiver.vertices:
                child = mutate_qp(q, k)
                assert net_matrix(child.quiver).rows == mutate_matrix(b, k).rows, (q, k)
                assert depth_limit_quiver(q, k) == child.quiver, (q, k)
                checked += 1
                if dist < 2 and node(child) not in seen:
                    seen.add(node(child))
                    frontier.append((child, dist + 1))
    assert checked > 100
    # the zero-potential triangle keeps a 2-cycle after mutation, and still matches
    assert not is_two_acyclic(mutate_qp(starts[-1], "1").quiver)


def _outcome(build, q, k):
    """The quiver `build` gives for (q, k), or the type and text of its refusal."""
    try:
        return build(q, k)
    except ValueError as exc:
        return type(exc), str(exc)


def test_mutated_quiver_is_the_quiver_of_mutate_qp_on_random_qps():
    # the QPs of random_three_cycle_qp at every vertex, and their children
    # at every vertex: a child with a 2-cycle at k is refused by both
    def quiver_of_mutate_qp(q, k):
        return mutate_qp(q, k).quiver

    kept, refused, parallel = 0, 0, 0
    for seed in range(60):
        start = random_three_cycle_qp(seed)
        parallel += max(start.quiver.multiplicities().values(), default=0) > 1
        qps = [start] + [mutate_qp(start, k) for k in start.quiver.vertices]
        for q in qps:
            for k in q.quiver.vertices:
                got = _outcome(depth_limit_quiver, q, k)
                assert got == _outcome(quiver_of_mutate_qp, q, k), (seed, q, k)
                if not isinstance(got, Quiver):
                    refused += 1
                    continue
                # a block of the premutation's degree-2 part with rank below
                # its size keeps a 2-cycle on its vertex pair
                pre = premutate_qp(q, k)
                two_cycles = pre.potential.degree_part(2).terms
                firsts = (pre.quiver.arrow(p.arrows[0]) for p in two_cycles)
                mult = got.multiplicities()
                kept += any(mult.get((a.tail, a.head)) and mult.get((a.head, a.tail))
                            for a in firsts)
    assert (parallel, refused, kept) == (44, 20, 16)
    triangle = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                        Arrow("c", "3", "1")])
    child = mutate_qp(QP(triangle, AlgebraElement(triangle, 4, {})), "1")
    for q, k in ((start, "9"), (child, "2")):
        got = _outcome(depth_limit_quiver, q, k)
        assert got == _outcome(quiver_of_mutate_qp, q, k)
        assert got[0] is QuiverError
    assert _outcome(depth_limit_quiver, child, "2")[1] == "2-cycle incident to vertex '2'"


def _closed_walks(quiver, length):
    """Every composable cycle of the given length, as an arrow word."""
    walks = [(a.name,) for a in quiver.arrows]
    for _ in range(length - 1):
        walks = [(*w, a.name) for w in walks for a in quiver.arrows
                 if quiver.arrow(w[-1]).tail == a.head]
    return [w for w in walks if quiver.arrow(w[0]).head == quiver.arrow(w[-1]).tail]


def random_long_term_qp(seed):
    """A seeded QP on 4 or 5 vertices whose potential holds cycles of length
    5-6 that pass through one vertex two or three times, next to 3-cycles."""
    rng = random.Random("long-terms:%d" % seed)
    vertices = [str(v) for v in range(1, rng.choice((4, 5)) + 1)]
    arrows = [Arrow("a%d" % n, i, j)
              for n, (i, j) in enumerate(itertools.permutations(vertices, 2))
              if rng.random() < 0.35]
    quiver = Quiver(vertices, arrows)

    def visits(word):
        return max(sum(quiver.arrow(a).tail == v for a in word) for v in vertices)

    long_walks = [w for n in (5, 6) for w in _closed_walks(quiver, n) if visits(w) >= 2]
    short_walks = _closed_walks(quiver, 3)
    words = rng.sample(long_walks, min(3, len(long_walks)))
    words += rng.sample(short_walks, min(2, len(short_walks)))
    terms = {Path(least_rotation(w)): rng.choice((-2, -1, 1, 2)) for w in words}
    return QP(quiver, AlgebraElement(quiver, 6, terms), 6)


def test_mutated_quiver_refuses_exactly_where_mutate_qp_does():
    def quiver_of_mutate_qp(q, k):
        return mutate_qp(q, k).quiver

    def agree(q, k):
        got = _outcome(depth_limit_quiver, q, k)
        assert got == _outcome(quiver_of_mutate_qp, q, k), (q, k)
        return got

    # below order 3 the hook terms do not fit
    fan = load_qp("hexagon-fan", 2)
    assert agree(fan, "2") == (AlgebraError, "term of length 3 exceeds order 2")
    assert isinstance(agree(fan, "1"), Quiver)

    # 28 accepted cases keep a term of length 5-6 through k twice, which the
    # premutation reads as a word of length 3-4; every refusal is a 2-cycle
    # at k
    through, refused, accepted = 0, 0, 0
    for seed in range(80):
        qp = random_long_term_qp(seed)
        for k in qp.quiver.vertices:
            got = agree(qp, k)
            if isinstance(got, Quiver):
                accepted += 1
                through += any(len(p) >= 5 and sum(qp.quiver.arrow(a).tail == k
                                                   for a in p.arrows) >= 2
                               for p in qp.potential.terms)
            else:
                refused += 1
    assert (through, refused, accepted) == (28, 123, 231)


def test_explore_searches_each_raw_matrix_once(monkeypatch):
    # in the full A4, A5 and A6 classes every distinct raw matrix explore
    # computes, the start's and each mutate_matrix result, goes to the
    # canonical search exactly once; and an edge whose reverse is known,
    # because the edge it leads back along was computed, computes neither
    # mutate_matrix nor a search
    searched, met, computed = [], set(), []

    def counting_canonical(matrix):
        searched.append(matrix.rows)
        return canonical_matrix_form(matrix)

    def recording_mutate(matrix, k):
        out = mutate_matrix(matrix, k)
        met.add(out.rows)
        computed.append((matrix.rows, k))
        return out

    want = {rank: full_type_a_class(rank) for rank in (4, 5, 6)}
    monkeypatch.setattr(verify, "canonical_matrix_form", counting_canonical)
    monkeypatch.setattr(verify, "mutate_matrix", recording_mutate)
    counts = []
    for rank in (4, 5, 6):
        for seen in (searched, met, computed):
            seen.clear()
        qp = qp_of_triangulation(Triangulation.from_text(fan_polygon_text(rank + 3)), 6)
        rep, graph = explore_mutation_class(qp, 99, 6)
        met.add(net_matrix(qp.quiver).rows)
        assert len(searched) == len(set(searched)) == len(met)
        assert set(searched) == met
        assert (rep, graph) == want[rank]
        digest_of = {table: dig for dig, table in graph.nodes.items()}
        done = {(digest_of[canonical_matrix_form(_matrix(rows))[0]], k) for rows, k in computed}
        assert len(done) == len(computed)
        back = {(dst, src) for src, k, dst in graph.edges if (src, k) in done}
        for src, k, dst in graph.edges:
            assert (src, k) in done or (src, dst) in back, (rank, src, k)
        counts.append((len(searched), len(computed), len(graph.edges)))
    assert counts == [(11, 12, 24), (38, 53, 95), (104, 151, 294)]


def test_explore_keys_nodes_by_canonical_table_not_digest(monkeypatch):
    # with every digest equal, the full A5 class still has its 19 nodes and
    # the same edges; each new node's digest is taken once
    qp = qp_of_triangulation(Triangulation.from_text(fan_polygon_text(8)), 6)
    rep, graph = explore_mutation_class(qp, 99, 6)
    digested = []

    def colliding(*chunks):
        digested.append(chunks)
        return "0" * verify.DIGEST_CHARS

    monkeypatch.setattr(verify, "_digest", colliding)
    rep2, graph2 = explore_mutation_class(qp, 99, 6)
    assert rep2.subresults == rep.subresults and rep.subresults[1] == ("nodes", True, "19")
    assert (graph2.rows, graph2.tables, graph2.expanded, graph2.targets) == (
        graph.rows, graph.tables, graph.expanded, graph.targets)
    assert graph2.digests == "0" * verify.DIGEST_CHARS * 19
    assert len(digested) == 1 + 19  # the report's inputs, then one per node


def test_twice_punctured_hexagon_checks():
    from test_potential import TWICE_PUNCTURED_HEXAGON

    tri = Triangulation.from_text(TWICE_PUNCTURED_HEXAGON)
    a = tri.analysis()
    for arc in [x for x in tri.arcs if a.fold[x] == x]:
        rep = check_flip_compatibility(tri, arc, 6)
        assert rep.passed, (arc, rep.to_text())
    qp = qp_of_triangulation(tri, 6)
    for k in ("M", "fP", "c1"):
        rep = check_involution(qp, k, 6)
        assert rep.passed, (k, rep.to_text())


def test_flip_compat_on_flipped_surfaces():
    import warnings

    from qpsurf.surface import flip

    # children of the richest corpus members, covering self-folded creation
    # and consumption away from the seed triangulations
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, arc in (("punctured-square-2", "1"), ("punctured-square-sf", "L"),
                          ("punctured-square-sf", "x"), ("torus", "1")):
            child = flip(load(name), arc)
            a = child.analysis()
            for arc2 in [x for x in child.arcs if a.fold[x] == x]:
                rep = check_flip_compatibility(child, arc2, 6)
                assert rep.passed, (name, arc, arc2, rep.to_text())


def test_reports_are_deterministic():
    a = check_flip_compatibility(load("torus"), "1", 6)
    b = check_flip_compatibility(load("torus"), "1", 6)
    assert a.to_text() == b.to_text()
    assert a.inputs_digest == b.inputs_digest


def test_library_work_on_a_qp_builds_no_path_or_element(monkeypatch):
    # a QP holds its potential's words: building, premutating, mutating,
    # restricting and relabelling one, reading its Jacobian and exploring
    # its class build no `Path` and no `AlgebraElement`; only the
    # `potential` view and the public algebra API do
    built = []

    def counting(init):
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return wrapper

    tris = {name: load(name) for name in CORPUS}
    for cls in (Path, AlgebraElement):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, tri in tris.items():
            qp = qp_of_triangulation(tri, 6)
            vs = qp.quiver.vertices
            for k in vs:
                premutate_qp(qp, k)
                mutate_qp(qp, k)
                depth_limit_quiver(qp, k)
            restrict_qp(qp, vs[:-1])
            verify.relabel_vertices(qp, {vs[0]: "renamed"})
            truncated_quotient_dim(qp, 6)
            cartan_matrix(qp, 6)
            if name != "torus":  # whose non-rigid witness is a `Path`
                assert is_rigid_up_to(qp, 6).rigid
            explore_mutation_class(qp, 2, 6)
    assert built == []
    assert qp.potential.terms and set(built) == {"Path", "AlgebraElement"}
