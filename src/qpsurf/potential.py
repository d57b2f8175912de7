"""Potentials attached to triangulations, before and after reduction.

Every summand is an oriented cycle read off the triangulation: one cycle per
interior triangle, correction cycles through folded sides, and one cycle per
puncture running counter-clockwise around it.  Cancelled triangle adjacencies
are realised by the arrows added at valence-2 punctures, so each cycle always
closes up inside the unreduced quiver.
"""

import warnings as _warnings
from fractions import Fraction

from .algebra import check_word, merge_rotations
from .qp import QP, _split_words
from .quiver import Record, is_two_acyclic, net_matrix
from .surface import SurfaceError, signed_adjacency


class PotentialBuildWarning(UserWarning):
    pass


class PotentialAssembly(Record):
    """Summands of the potential of a triangulation, by origin.

    Each value is a (word, coefficient) pair; triangle and correction terms
    are keyed by triangle index, puncture terms by puncture id.
    """

    __slots__ = _fields = ("quiver", "order", "triangle_terms", "correction_terms",
                           "puncture_terms", "warnings")

    def __init__(self, quiver, order, triangle_terms=None, correction_terms=None,
                 puncture_terms=None, warnings=None):
        self.quiver = quiver
        self.order = order
        self.triangle_terms = {} if triangle_terms is None else triangle_terms
        self.correction_terms = {} if correction_terms is None else correction_terms
        self.puncture_terms = {} if puncture_terms is None else puncture_terms
        self.warnings = [] if warnings is None else warnings

    def words(self):
        """The summands' words summed at their least rotations."""
        return merge_rotations(term for group in (self.triangle_terms, self.correction_terms,
                                                  self.puncture_terms) for term in group.values())

    def total(self):
        return QP._of_words(self.quiver, self.words(), self.order).potential


def _triangle_word(analysis, t, copies):
    """Composable cycle through the three corners of a triangle.

    `copies` picks, per slot, which preimage of the slot's side carries the
    cycle (the side itself, or the folded side parallel to it).
    """
    w = [analysis.resolve(t, m, copies[m], copies[(m + 1) % 3]) for m in range(3)]
    return (w[0], w[2], w[1])


def potential_assembly(tri, order=6):
    """Per-origin summands of the potential of a triangulation."""
    if order < 1:
        raise SurfaceError("truncation order must be >= 1")
    a = tri.analysis()
    surf = tri.surface
    asm = PotentialAssembly(quiver=a.unreduced, order=order)

    def checked(word):
        if len(word) > order:
            raise SurfaceError(
                "cycle of length %d does not fit in truncation order %d" % (len(word), order))
        # known arrows that compose; each summand closes up, as it is built around
        # a triangle or a puncture from contributions i -> j, whose arrows run i -> j
        check_word(a.unreduced, order, word)
        return word

    for t, triple in enumerate(tri.triangles):
        if t in a.self_folded:
            continue
        if not all(tri.sides[s].is_arc for s in triple):
            continue
        asm.triangle_terms[t] = (checked(_triangle_word(a, t, triple)), Fraction(1))
        loops = [s for s in set(triple) if s in a.enclosed]
        if len(loops) == 2:
            copies = tuple(a.fold_back.get(s, s) for s in triple)
            x = surf.scalars[a.enclosed[loops[0]]] * surf.scalars[a.enclosed[loops[1]]]
            asm.correction_terms[t] = (checked(_triangle_word(a, t, copies)), Fraction(1) / x)

    for q, ends in a.puncture_ends.items():
        if len(ends) == 1:
            folded = ends[0]
            loop = a.fold[folded]
            # the loop's slot outside its self-folded triangle: had it two, the two
            # triangles would close up a sphere with three punctures
            t, m_loop = next(slot for slot in a.slots_of[loop] if slot[0] not in a.self_folded)
            triple = tri.triangles[t]
            others = [triple[m] for m in range(3) if m != m_loop]
            if not all(tri.sides[s].is_arc for s in others):
                message = ("puncture %r: self-folded triangle flanked by boundary "
                           "segments; no cycle is attached" % q)
                asm.warnings.append(message)
                _warnings.warn(message, PotentialBuildWarning)
                continue
            copies = tuple(folded if m == m_loop else triple[m] for m in range(3))
            asm.puncture_terms[q] = (checked(_triangle_word(a, t, copies)),
                                     Fraction(-1) / surf.scalars[q])
            continue

        # the walk visits the ends at q that are not enclosing loops.  The two ends of
        # an enclosing loop flank its folded side's, at the corners of its self-folded
        # triangle, and no other corner meets a folded side; so between two visited
        # ends in turn lies one corner outside the self-folded triangles, whose slots
        # hold the two ends' folds
        cycle = a.puncture_cycle[q]
        nverts = len(cycle)
        first = next(i for i, side in enumerate(ends) if side not in a.enclosed)
        walk = []
        for s in range(first + 1, first + 1 + nverts):
            t, m = cycle[s % nverts]
            if t not in a.self_folded:
                u, v = ends[s % nverts - 1], ends[s % nverts]
                walk.append(a.resolve(t, m, a.fold_back.get(u, u), a.fold_back.get(v, v)))
        asm.puncture_terms[q] = (checked(tuple(reversed(walk))), surf.scalars[q])

    return asm


def unreduced_potential(tri, order=6):
    """Potential on the unreduced adjacency quiver at the given order."""
    return potential_assembly(tri, order).total()


def qp_of_triangulation(tri, order=6):
    """Reduced QP of a triangulation; its quiver matches the adjacency matrix."""
    asm = potential_assembly(tri, order)
    reduced = _split_words(asm.quiver, asm.words(), order)[0]
    # the matrix's quiver has these arrow counts exactly when this one is 2-acyclic
    # with the matrix as its net counts
    quiver = reduced.quiver
    if not (is_two_acyclic(quiver) and net_matrix(quiver) == signed_adjacency(tri)):
        raise SurfaceError("reduced quiver does not match the adjacency matrix")
    return reduced
