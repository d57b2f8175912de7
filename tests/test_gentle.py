"""Jacobian dimensions of unpunctured surfaces against the gentle path count.

With no punctures the potential is the sum of the 3-cycles of the internal
triangles, so the Jacobian algebra is gentle and its dimensions are a path
count that needs no elimination (`oracles.oracle_gentle_dims`).  The discs
are fan-triangulated polygons moved by seeded flips.
"""

import random

from oracles import oracle_gentle_dims

from qpsurf.examples_data import example_text
from qpsurf.jacobian import is_rigid_up_to, truncated_quotient_dim
from qpsurf.potential import qp_of_triangulation
from qpsurf.qp import mutate_qp
from qpsurf.surface import Triangulation, flip


def polygon_text(n):
    """The n-gon, fan-triangulated from corner B0, as triangulation text."""
    def side(j):  # the side of the fan from B0 to B_j
        return "b0" if j == 1 else "b%d" % (n - 1) if j == n - 1 else str(j - 1)

    lines = ["surface genus=0 boundary=1"]
    lines += ["marked B%d boundary=0" % i for i in range(n)]
    lines += ["bseg b%d B%d B%d on=0" % (i, i, (i + 1) % n) for i in range(n)]
    lines += ["arc %d B0 B%d" % (j - 1, j) for j in range(2, n - 1)]
    lines += ["tri %s b%d %s" % (side(j), j, side(j + 1)) for j in range(1, n - 1)]
    return "\n".join(lines) + "\n"


def seeded_disc(n, seed, flips):
    """The n-gon after `flips` seeded flips of its arcs; rank n - 3."""
    rng = random.Random("disc:%d:%d" % (n, seed))
    tri = Triangulation.from_text(polygon_text(n))
    for _ in range(flips):
        tri = flip(tri, rng.choice(tri.arcs))
    return tri


def gentle_dims(qp, order):
    """The gentle count of the QP, after asserting that its potential is a sum
    of 3-cycles with coefficient 1 and that no arrow lies in two of them."""
    words = [p.arrows for p in qp.potential.terms]
    assert all(len(w) == 3 for w in words)
    assert set(qp.potential.terms.values()) <= {1}
    assert len({a for w in words for a in w}) == 3 * len(words)
    arrows = [(a.name, a.tail, a.head) for a in qp.quiver.arrows]
    return oracle_gentle_dims(arrows, words, order)


def test_gentle_count_after_every_flip_and_mutation():
    # the QP of each triangulation, and its mutation at every arc against the
    # gentle count of the flipped triangulation
    order = 10
    surfaces = [Triangulation.from_text(example_text(name))
                for name in ("pentagon", "hexagon-fan", "hexagon-central", "annulus")]
    surfaces += [seeded_disc(12, 0, 12), seeded_disc(20, 1, 20), seeded_disc(30, 2, 30)]
    checked = 0
    for tri in surfaces:
        qp = qp_of_triangulation(tri, order)
        assert truncated_quotient_dim(qp, order).dims == gentle_dims(qp, order)
        for k in tri.arcs:
            flipped = qp_of_triangulation(flip(tri, k), order)
            want = gentle_dims(flipped, order)
            assert truncated_quotient_dim(flipped, order).dims == want, k
            assert truncated_quotient_dim(mutate_qp(qp, k), order).dims == want, k
            checked += 1
    assert checked == 2 + 3 + 3 + 2 + 9 + 17 + 27


def test_rank_57_disc_certifies_at_its_gentle_dimension():
    # 1.17 million paths of length <= 25, and a quotient of dimension 441; the
    # disc has boundary, so the paper's second theorem says its QP is rigid
    tri = seeded_disc(60, 1, 60)
    qp = qp_of_triangulation(tri, 26)
    assert len(qp.quiver.vertices) == 57
    rep = truncated_quotient_dim(qp, 26)
    assert rep.certified and rep.certified_order == 25
    assert rep.dims == gentle_dims(qp, 26)
    assert rep.dimension == 441
    assert not truncated_quotient_dim(qp, 25).certified
    rig = is_rigid_up_to(qp, 26)
    assert (rig.rigid, rig.certified_order, rig.dim_def) == (True, 25, 0)
