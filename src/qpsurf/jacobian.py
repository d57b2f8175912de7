"""Truncated Jacobian ideals: quotient dimensions, rigidity, finite-dimension evidence."""

from itertools import accumulate
from math import lcm

from .algebra import Path, cyclic_derivative
from .linalg import SparseEliminator
from .quiver import Record


class JacobianError(ValueError):
    pass


def _require_order(qp, order):
    """Refuse an order outside 1..the QP's truncation."""
    if order < 1:
        raise JacobianError("order must be >= 1")
    if order > qp.order:
        raise JacobianError(
            "order %d exceeds the QP truncation %d; rebuild the QP deeper" % (order, qp.order))


def paths_by_length(quiver, max_len):
    """Paths of each length 0..max_len as (arrow tuple, tail, head) triples.

    Level 0 holds the empty word of each vertex, level 1 the arrows, and each
    further level extends the words of the level before it on the right; the
    arrows go in `quiver.arrows` order, which is by name.
    """
    levels = [[((), v, v) for v in quiver.vertices]]
    if max_len >= 1:
        levels.append([((a.name,), a.tail, a.head) for a in quiver.arrows])
    into = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        into[a.head].append(((a.name,), a.tail))
    for _ in range(2, max_len + 1):
        levels.append([(w + x, t, h) for w, tail, h in levels[-1] for x, t in into[tail]])
    return levels


def jacobian_generators(qp):
    """One cyclic derivative per arrow, in arrow order."""
    return [cyclic_derivative(qp.potential, a.name) for a in qp.quiver.arrows]


def _integer_generators(qp):
    """(arrow, terms, gmin) for each nonzero d_a W, scaled by its common denominator.

    Terms are (arrow tuple, int) pairs, shortest first, and gmin is the
    length of the shortest.  Scaling a generator leaves the ideal unchanged,
    and it makes every row built from it integer.
    """
    out = []
    for a, gen in zip(qp.quiver.arrows, jacobian_generators(qp)):
        if gen.is_zero():
            continue
        den = lcm(*(c.denominator for c in gen.terms.values()))
        terms = sorted(((p.arrows, int(c * den)) for p, c in gen.terms.items()),
                       key=lambda tc: len(tc[0]))
        out.append((a, terms, len(terms[0][0])))
    return out


class DimensionReport(Record):
    __slots__ = _fields = ("order", "dims", "path_counts", "ranks", "certified",
                           "certified_order", "absorbed")

    def __init__(self, order, dims, path_counts, ranks, certified, certified_order,
                 absorbed=None):
        self.order = order
        self.dims = dims
        self.path_counts = path_counts
        self.ranks = ranks
        self.certified = certified
        self.certified_order = certified_order
        self.absorbed = [] if absorbed is None else absorbed

    @property
    def dimension(self):
        return self.dims[-1]

    def to_text(self):
        lines = ["order #paths ideal-rank dim certified"]
        for d in range(self.order + 1):
            cert = "yes" if self.certified and self.certified_order is not None \
                and d >= self.certified_order else "no"
            lines.append("%d %d %d %d %s"
                         % (d, self.path_counts[d], self.ranks[d], self.dims[d], cert))
        return "\n".join(lines) + "\n"


def truncated_quotient_dim(qp, order):
    """Per-degree dimensions of the quotient by the derivative ideal.

    dim_d is the dimension of (paths of length <= d) modulo the ideal span
    and all longer paths.  Columns run through the paths shortest first, so
    cutting the ideal down to degree d projects its span onto an initial
    segment of the columns, and rank_d is the number of echelon pivots of
    length <= d.  The paths of length d lie in the span plus longer paths
    exactly when every one of them is a pivot column; that is `absorbed[d]`.

    The certificate fires at the first absorbed d < order, and every longer
    path is absorbed too: a path of length c + 1 is q * r for an arrow r and
    a path q that is a sum of rows u * d_a W * s plus longer paths, and the
    cut of that row times r is the cut of the row u * d_a W * (s * r).  The
    top degree alone certifies nothing, as no column extends it.

    One pass feeds the rows u * d_a W * s, cut at `order`, in order of their
    least degree |u| + gmin(a) + |s|.  Reduction never moves a row's pivot
    below its least degree, so once the rows of least degree <= d are in,
    the pivots of length <= d are final.  The pass stops at the certificate
    and fills every higher degree by counting, with a pivot for each of its
    paths.
    """
    _require_order(qp, order)
    levels = paths_by_length(qp.quiver, order)
    index = {}
    by_tail, by_head = {}, {}
    for col, (w, tail, head) in enumerate(p for level in levels for p in level):
        index[w] = col
        by_tail.setdefault((tail, len(w)), []).append(w)
        by_head.setdefault((head, len(w)), []).append(w)
    counts = [len(level) for level in levels]
    path_counts = list(accumulate(counts))
    generators = _integer_generators(qp)

    elim = SparseEliminator()
    pivots = [0] * (order + 1)
    certified_order = None
    for d in range(1, order + 1):
        for a, terms, gmin in generators:
            room = order - d + gmin
            for lu in range(d - gmin + 1):
                for u in by_tail.get((a.tail, lu), ()):
                    for s in by_head.get((a.head, d - gmin - lu), ()):
                        elim.add_row({index[u + t + s]: c for t, c in terms if len(t) <= room})
        pivots[d] = sum(map(elim.basis.__contains__, range(path_counts[d - 1], path_counts[d])))
        if d < order and pivots[d] == counts[d]:
            certified_order = d
            pivots[d + 1:] = counts[d + 1:]
            break

    ranks = list(accumulate(pivots))
    dims = [n - r for n, r in zip(path_counts, ranks)]
    absorbed = [False] + [pivots[d] == counts[d] for d in range(1, order + 1)]
    return DimensionReport(order=order, dims=dims, path_counts=path_counts,
                           ranks=ranks, certified=certified_order is not None,
                           certified_order=certified_order, absorbed=absorbed)


class RigidityReport(Record):
    __slots__ = _fields = ("max_order", "rigid", "witness")

    def __init__(self, max_order, rigid, witness):
        self.max_order = max_order
        self.rigid = rigid
        self.witness = witness

    def to_text(self):
        if self.rigid:
            return "rigid-up-to-%d\n" % self.max_order
        return "non-rigid witness: %s\n" % " ".join(self.witness.arrows)


def is_rigid_up_to(qp, order):
    """Test every cycle against the ideal span plus all rotation differences.

    The test runs modulo rotation, with one column per rotation class of
    cycles of length <= order.  Every term of a row u * d_a W * s has the
    endpoints of s u, so a row either touches only open paths, which no
    rotation difference reaches and no cycle needs, or it is closed and
    equals (s u) * d_a W up to rotation.  So a cycle lies in the span exactly
    when its class lies in the span of the rows w * d_a W, one per arrow a
    and path w from t(a) around to h(a), each term mapped to its class and
    cut at length `order`.  The witness is the first class, by its least
    rotation in (length, arrows) order, outside that span.

    A failing cycle is a sound non-rigidity certificate: membership at every
    finite order is necessary for rigidity.
    """
    _require_order(qp, order)
    levels = paths_by_length(qp.quiver, order)
    cls = {}
    reps = []
    around = {}
    for level in levels:
        for w, tail, head in level:
            around.setdefault((tail, head), []).append(w)
            if w and tail == head and w not in cls:
                rots = [w[k:] + w[:k] for k in range(len(w))]
                for r in rots:
                    cls[r] = len(reps)
                reps.append(min(rots))

    elim = SparseEliminator()
    for a, terms, gmin in _integer_generators(qp):
        for w in around.get((a.tail, a.head), ()):
            room = order - len(w)
            if room < gmin:
                break
            row = {}
            for t, c in terms:
                if len(t) > room:
                    break
                k = cls[w + t]
                row[k] = row.get(k, 0) + c
            elim.add_row(row)

    for rep in sorted(reps, key=lambda w: (len(w), w)):
        if not elim.contains({cls[rep]: 1}):
            return RigidityReport(max_order=order, rigid=False, witness=Path(rep))
    return RigidityReport(max_order=order, rigid=True, witness=None)


def finite_dim_evidence(qp, dmax):
    """The dimension report at the least order whose certificate fires.

    The certificate at order D is the first absorbed degree c < D, so that
    order is c + 1 for the c of the report at `dmax`; with no certificate up
    to `dmax` it is the report at `dmax`.  Cutting the ideal down to a lower
    order projects its span onto the shorter paths, so the report at order
    c + 1 is the first c + 2 degrees of the report at `dmax`.
    """
    report = truncated_quotient_dim(qp, dmax)
    if not report.certified:
        return report
    c = report.certified_order
    return DimensionReport(c + 1, report.dims[:c + 2], report.path_counts[:c + 2],
                           report.ranks[:c + 2], True, c, report.absorbed[:c + 2])
