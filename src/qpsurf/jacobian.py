"""Truncated Jacobian ideals: quotient dimensions, rigidity, finite-dimension evidence."""

from fractions import Fraction
from itertools import accumulate

from .algebra import (
    Path,
    cyclic_derivative,
    least_rotation,
    path_head,
    path_is_cycle,
    path_tail,
    rotations,
    vertex_path,
)
from .linalg import SparseEliminator
from .qp import validate_qp


class JacobianError(ValueError):
    pass


def paths_by_length(quiver, max_len):
    """Lists of all paths of each length 0..max_len, extension on the right."""
    levels = [[vertex_path(v) for v in quiver.vertices]]
    if max_len >= 1:
        levels.append([Path((a.name,)) for a in sorted(quiver.arrows, key=lambda a: a.name)])
    for _ in range(2, max_len + 1):
        nxt = []
        for p in levels[-1]:
            tail = quiver.arrow(p.arrows[-1]).tail
            for a in quiver.arrows:
                if a.head == tail:
                    nxt.append(Path(p.arrows + (a.name,)))
        levels.append(nxt)
    return levels


def jacobian_generators(qp):
    """One cyclic derivative per arrow, in arrow order."""
    problems = validate_qp(qp)
    if problems:
        raise JacobianError("invalid QP: " + "; ".join(problems))
    return [cyclic_derivative(qp.potential, a.name) for a in qp.quiver.arrows]


def _ideal_echelon(qp, order):
    """Echelon form of the derivative ideal within degree `order`.

    Columns are the paths of length <= order numbered in the order of
    `paths_by_length`, shortest first.  The spanning rows u * d_a W * s, for
    paths u and s, are built straight from arrow words: every term of d_a W
    runs from h(a) to t(a), so u ranges over the paths with tail t(a) and s
    over the paths with head h(a); both lists are shortest first, so each loop
    stops at the first path too long for a term to fit.  Returns the
    eliminator, the path levels and the column index of each positive-length
    path's arrow word.
    """
    quiver = qp.quiver
    levels = paths_by_length(quiver, order)
    paths = [p for level in levels for p in level]
    index = {p.arrows: i for i, p in enumerate(paths) if len(p)}
    by_tail, by_head = {}, {}
    for p in paths:
        by_tail.setdefault(path_tail(quiver, p), []).append(p.arrows)
        by_head.setdefault(path_head(quiver, p), []).append(p.arrows)
    elim = SparseEliminator()
    for a, gen in zip(quiver.arrows, jacobian_generators(qp)):
        if gen.is_zero():
            continue
        gmin = gen.min_degree()
        terms = [(p.arrows, c) for p, c in gen.terms.items()]
        for u in by_tail[a.tail]:
            if len(u) + gmin > order:
                break
            for s in by_head[a.head]:
                room = order - len(u) - len(s)
                if room < gmin:
                    break
                elim.add_row({index[u + t + s]: c for t, c in terms if len(t) <= room})
    return elim, levels, index


class DimensionReport:
    __slots__ = ("order", "dims", "path_counts", "ranks", "certified", "certified_order",
                 "absorbed")

    def __init__(self, order, dims, path_counts, ranks, certified, certified_order,
                 absorbed=None):
        self.order = order
        self.dims = dims
        self.path_counts = path_counts
        self.ranks = ranks
        self.certified = certified
        self.certified_order = certified_order
        self.absorbed = [] if absorbed is None else absorbed

    def _astuple(self):
        return (self.order, self.dims, self.path_counts, self.ranks, self.certified,
                self.certified_order, self.absorbed)

    def __eq__(self, other):
        if other.__class__ is not DimensionReport:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        return ("DimensionReport(order=%r, dims=%r, path_counts=%r, ranks=%r, certified=%r, "
                "certified_order=%r, absorbed=%r)" % self._astuple())

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
    if order < 1:
        raise JacobianError("order must be >= 1")
    if order > qp.order:
        raise JacobianError(
            "order %d exceeds the QP truncation %d; rebuild the QP deeper" % (order, qp.order))
    elim, levels, _ = _ideal_echelon(qp, order)
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


class RigidityReport:
    __slots__ = ("max_order", "rigid", "witness")

    def __init__(self, max_order, rigid, witness):
        self.max_order = max_order
        self.rigid = rigid
        self.witness = witness

    def _astuple(self):
        return self.max_order, self.rigid, self.witness

    def __eq__(self, other):
        if other.__class__ is not RigidityReport:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        return "RigidityReport(max_order=%r, rigid=%r, witness=%r)" % self._astuple()

    def to_text(self):
        if self.rigid:
            return "rigid-up-to-%d\n" % self.max_order
        return "non-rigid witness: %s\n" % " ".join(self.witness.arrows)


def is_rigid_up_to(qp, order):
    """Test every cycle against the ideal span plus all rotation differences.

    A failing cycle is a sound non-rigidity certificate: membership at every
    finite order is necessary for rigidity.
    """
    if order < 1:
        raise JacobianError("order must be >= 1")
    if order > qp.order:
        raise JacobianError(
            "order %d exceeds the QP truncation %d; rebuild the QP deeper" % (order, qp.order))
    quiver = qp.quiver
    elim, levels, index = _ideal_echelon(qp, order)

    reps = []
    seen = set()
    for d in range(2, order + 1):
        for p in levels[d]:
            if not path_is_cycle(quiver, p):
                continue
            rep = least_rotation(p)
            if rep in seen:
                continue
            seen.add(rep)
            reps.append(rep)
            for _, rot in rotations(rep):
                if rot != rep:
                    elim.add_row({index[rep.arrows]: Fraction(1),
                                  index[rot.arrows]: Fraction(-1)})

    for rep in sorted(reps, key=lambda p: (len(p), p.arrows)):
        if not elim.contains({index[rep.arrows]: Fraction(1)}):
            return RigidityReport(max_order=order, rigid=False, witness=rep)
    return RigidityReport(max_order=order, rigid=True, witness=None)


def finite_dim_evidence(qp, dmax):
    """Increasing-order dimension reports until stabilisation is certified."""
    report = None
    for d in range(2, dmax + 1):
        report = truncated_quotient_dim(qp, d)
        if report.certified:
            return report
    if report is None:
        report = truncated_quotient_dim(qp, max(1, dmax))
    return report
