"""Seeded random flip walks: every step re-validates and passes the oracles."""

import hashlib
import importlib
import os
import random
import sys
import warnings

from qpsurf.algebra import cyclic_normal_form, truncate
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.jacobian import cartan_matrix, is_rigid_up_to
from qpsurf.potential import qp_of_triangulation
from qpsurf.qp import mutate_qp
from qpsurf.surface import SurfaceError, Triangulation, flip, validate_triangulation
from qpsurf.verify import check_flip_compatibility


def load(name):
    return Triangulation.from_text(example_text(name))


def test_random_flip_walks_stay_consistent():
    rng = random.Random(12345)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in CORPUS:
            tri = load(name)
            for step in range(12):
                a = tri.analysis()
                arcs = [x for x in tri.arcs if a.fold[x] == x]
                tri = flip(tri, rng.choice(arcs))  # asserts the matrix oracle
                if step % 4 == 0:
                    a2 = tri.analysis()
                    probe = rng.choice([x for x in tri.arcs if a2.fold[x] == x])
                    rep = check_flip_compatibility(tri, probe, 6)
                    assert rep.passed, (name, step, probe, rep.to_text())


def test_results_stable_under_deeper_truncation():
    # computing at order 9 and cutting back to 6 agrees with computing at 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("torus", "punctured-square-2", "punctured-square-sf"):
            tri = load(name)
            deep = qp_of_triangulation(tri, 9)
            shallow = qp_of_triangulation(tri, 6)
            assert cyclic_normal_form(truncate(deep.potential, 6)).terms \
                == shallow.potential.terms, name
            k = deep.quiver.vertices[0]
            md, ms = mutate_qp(deep, k), mutate_qp(shallow, k)
            got = {p: c for p, c in cyclic_normal_form(md.potential).terms.items()
                   if len(p) <= 6}
            assert got == cyclic_normal_form(ms.potential).terms, (name, k)


def analysis_record(tri):
    """The text, the problems of a fresh parse, and every `Analysis` map."""
    a = tri.analysis()
    maps = [a.corner_point, a.partner, a.puncture_cycle, a.puncture_ends, a.fold,
            a.self_folded, a.provenance]
    return repr((tri.to_text(), validate_triangulation(Triangulation.from_text(tri.to_text())),
                 [sorted(m.items()) for m in maps], a.unreduced.to_text()))


def seeded_walk(name, text=None):
    """Each step of the seeded walk from a corpus file, or from `text` under
    that name: the triangulation, the arc drawn there, and the refusal of
    its flip (a folded side) or None."""
    rng = random.Random("walk:" + name)
    tri = load(name) if text is None else Triangulation.from_text(text)
    for _ in range(10):
        arc = rng.choice(tri.arcs)
        try:
            flipped, refusal = flip(tri, arc), None
        except SurfaceError as exc:
            flipped, refusal = tri, exc
        yield tri, arc, refusal
        tri = flipped


def test_seeded_flip_walks_pinned():
    # every step of a seeded walk from each corpus file: its text, its
    # analysis and the refusal of each flip that raises (a folded side)
    h = hashlib.sha256()
    for name in CORPUS:
        for tri, arc, refusal in seeded_walk(name):
            h.update(analysis_record(tri).encode())
            if refusal is not None:
                h.update(("%s: %s" % (arc, refusal)).encode())
    assert h.hexdigest() == "a2d1048aedaf6a70b8557a42778fc3a3b95ac64d8e570c1ba4bc8a9233398bf9"


def test_seeded_flip_walk_qps_and_mutations_pinned():
    # recorded before a QP came to hold its words: at every step of the
    # walks above, the QP text at order 6 and, at each vertex, the text of
    # its mutation or the refusal
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in CORPUS:
            for tri, _, _ in seeded_walk(name):
                qp = qp_of_triangulation(tri, 6)
                h.update(qp.to_text().encode())
                for k in qp.quiver.vertices:
                    try:
                        h.update(("%s\0%s" % (k, mutate_qp(qp, k).to_text())).encode())
                    except ValueError as exc:
                        h.update(("%s\0%s: %s" % (k, type(exc).__name__, exc)).encode())
    assert h.hexdigest() == "a1b8c171f5581546b96b950435e6a609af903eed02e0def97b6bcf3c3fb49c11"


def test_seeded_walks_certify_with_the_dim_def_of_their_surface():
    # every distinct triangulation of the seeded walks, from each corpus file
    # and from the twice-punctured torus, built at order 12 (past every
    # puncture valence on the walks) certifies.  dim Def is 0 with boundary,
    # the paper's rigidity, and 1 on a closed surface, where C is symmetric:
    # Jacobian algebras of closed surfaces are symmetric (Ladkani,
    # arXiv:1207.3778, cited from memory), while dim Def = 1 is a
    # regularity measured here, not a cited theorem.  Mutation keeps dim Def
    # (DWZ, arXiv:0704.0649): the mutation at each step's drawn arc, built
    # at 16 and read at 13, where the premutation's shorter cycles are still
    # exact, reads the same.
    from test_verify import TORUS_TWO_PUNCTURES

    walks = [(name, None) for name in CORPUS] + [("torus-two-punctures", TORUS_TWO_PUNCTURES)]
    seen = set()
    mutations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, text in walks:
            for tri, arc, refusal in seeded_walk(name, text):
                closed = tri.surface.boundary == 0
                if tri.to_text() not in seen:
                    seen.add(tri.to_text())
                    qp = qp_of_triangulation(tri, 12)
                    rep = is_rigid_up_to(qp, 12)
                    assert rep.certified_order is not None, tri.to_text()
                    assert rep.dim_def == closed, tri.to_text()
                    if closed:
                        c = cartan_matrix(qp, 12)
                        assert c.rows == tuple(zip(*c.rows)), tri.to_text()
                if refusal is None:
                    mutated = mutate_qp(qp_of_triangulation(tri, 16), arc)
                    assert is_rigid_up_to(mutated, 13).dim_def == closed, (tri.to_text(), arc)
                    mutations += 1
    assert (len(seen), mutations) == (94, 93)


def test_generated_surfaces_certify_with_the_dim_def_of_their_surface():
    # the walk test above on `bench/gen.py` surfaces: tori with 2 to 4
    # punctures and polygons with 0 to 2, at order 12 and seeds 0-4.  Each
    # certifies with dim Def 0 with boundary and 1, with C symmetric, when
    # closed (measured, as above); the mutation at a seeded arc, built at 16
    # and read at 13, keeps dim Def.  `gen` is imported without writing its
    # bytecode or keeping its directory on the path.
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(bench)
        sys.dont_write_bytecode = dont_write
    shapes = [("torus", 0, 1), ("torus", 0, 2), ("torus", 0, 3),
              ("polygon", 5, 1), ("polygon", 6, 1), ("polygon", 5, 2), ("polygon", 8, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind, size, punctures in shapes:
            for seed in range(5):
                tri = gen.surface(kind, size, punctures, seed, 12)
                closed = tri.surface.boundary == 0
                qp = qp_of_triangulation(tri, 12)
                rep = is_rigid_up_to(qp, 12)
                assert rep.certified_order is not None, tri.to_text()
                assert rep.dim_def == closed, tri.to_text()
                if closed:
                    c = cartan_matrix(qp, 12)
                    assert c.rows == tuple(zip(*c.rows)), tri.to_text()
                arc = random.Random(seed).choice(gen.flip_candidates(tri))
                mutated = mutate_qp(qp_of_triangulation(tri, 16), arc)
                assert is_rigid_up_to(mutated, 13).dim_def == closed, (tri.to_text(), arc)
