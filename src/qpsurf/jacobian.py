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

    Level 0 holds the empty word of each vertex, level 1 the arrows sorted by
    name, and each further level extends the words of the level before it on
    the right by the arrows in `quiver.arrows` order.
    """
    levels = [[((), v, v) for v in quiver.vertices]]
    if max_len >= 1:
        levels.append([((a.name,), a.tail, a.head)
                       for a in sorted(quiver.arrows, key=lambda a: a.name)])
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
    """(arrow, terms) for each nonzero d_a W, scaled by its common denominator.

    Terms are (arrow tuple, int) pairs, shortest first.  Scaling a generator
    leaves the ideal unchanged, and it makes every row built from it integer.
    """
    out = []
    for a, gen in zip(qp.quiver.arrows, jacobian_generators(qp)):
        if gen.is_zero():
            continue
        den = lcm(*(c.denominator for c in gen.terms.values()))
        terms = sorted(((p.arrows, int(c * den)) for p, c in gen.terms.items()),
                       key=lambda tc: len(tc[0]))
        out.append((a, terms))
    return out


def _ideal_echelon(qp, order):
    """Echelon form of the derivative ideal within degree `order`.

    Columns are the paths of length <= order numbered in the order of
    `paths_by_length`, shortest first.  The spanning rows u * d_a W * s, for
    paths u and s, are built straight from arrow words: every term of d_a W
    runs from h(a) to t(a), so u ranges over the paths with tail t(a) and s
    over the paths with head h(a); both lists are shortest first, so each loop
    stops at the first path too long for a term to fit.  Returns the
    eliminator and the path levels.
    """
    levels = paths_by_length(qp.quiver, order)
    index = {}
    by_tail, by_head = {}, {}
    for col, (w, tail, head) in enumerate(p for level in levels for p in level):
        index[w] = col
        by_tail.setdefault(tail, []).append(w)
        by_head.setdefault(head, []).append(w)
    elim = SparseEliminator()
    for a, terms in _integer_generators(qp):
        gmin = len(terms[0][0])
        for u in by_tail[a.tail]:
            if len(u) + gmin > order:
                break
            for s in by_head[a.head]:
                room = order - len(u) - len(s)
                if room < gmin:
                    break
                elim.add_row({index[u + t + s]: c for t, c in terms if len(t) <= room})
    return elim, levels


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
    and all longer paths.  The certificate fires at the first d whose paths
    of length d and d+1 all lie in the span; from there on every longer path
    does too, so the quotient dimension has stabilised.

    One echelon pass over the ideal rows at `order` serves every degree.
    Columns run through the paths shortest first, so the paths of length
    <= d are an initial segment of the columns, and cutting the ideal down to
    degree d projects its span onto that segment.  The echelon basis rows
    with least column in the segment project to a basis of that projection
    and the others project to zero, so rank_d is the number of pivots of
    length <= d.  The paths of length d lie in the degree-d span exactly when
    the span grows by their number from degree d - 1 to d, that is when
    every path of length d is a pivot column; that is `absorbed[d]`.
    """
    _require_order(qp, order)
    elim, levels = _ideal_echelon(qp, order)
    level_of = [d for d, level in enumerate(levels) for _ in level]
    pivots = [0] * (order + 1)
    for col in elim.basis:
        pivots[level_of[col]] += 1

    counts = [len(level) for level in levels]
    path_counts = list(accumulate(counts))
    ranks = list(accumulate(pivots))
    dims = [n - r for n, r in zip(path_counts, ranks)]
    absorbed = [False] + [pivots[d] == counts[d] for d in range(1, order + 1)]

    certified = False
    certified_order = None
    for d in range(1, order):
        if absorbed[d] and absorbed[d + 1]:
            certified = True
            certified_order = d
            break
    return DimensionReport(order=order, dims=dims, path_counts=path_counts,
                           ranks=ranks, certified=certified,
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
    for a, terms in _integer_generators(qp):
        gmin = len(terms[0][0])
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
    """Increasing-order dimension reports until stabilisation is certified."""
    _require_order(qp, dmax)
    for d in range(min(2, dmax), dmax + 1):
        report = truncated_quotient_dim(qp, d)
        if report.certified:
            break
    return report
