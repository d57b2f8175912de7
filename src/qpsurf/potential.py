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
from .quiver import Record, quiver_from_matrix
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


def _loop_slot(analysis, loop):
    """The slot of an enclosing loop that lies outside its self-folded triangle."""
    for slot in analysis.slots_of[loop]:
        if slot[0] not in analysis.self_folded:
            return slot
    raise SurfaceError("enclosing loop %r has no outer triangle" % loop)


def _walk_step_arrow(analysis, corners, u_arc, v_arc):
    """Arrow from u to v realised at one of the given corners."""
    # a folded side fills both slots of its self-folded triangle, so every
    # other slot holds a side that is its own fold
    fold = analysis.fold
    found = []
    for (t, m) in corners:
        triple = analysis.tri.triangles[t]
        if (t not in analysis.self_folded and fold[u_arc] == triple[m]
                and fold[v_arc] == triple[(m + 1) % 3]):
            found.append(analysis.resolve(t, m, u_arc, v_arc))
    if len(found) != 1:
        raise SurfaceError(
            "expected one arrow %r -> %r around the puncture, found %d"
            % (u_arc, v_arc, len(found)))
    return found[0]


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
        arrows = check_word(a.unreduced, order, word)  # known arrows that compose
        if arrows[0].head != arrows[-1].tail:
            raise SurfaceError("summand %r does not close up" % (word,))
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
            t, m_loop = _loop_slot(a, loop)
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

        cycle = a.puncture_cycle[q]
        nverts = len(cycle)
        keep = [i for i, side in enumerate(ends) if side not in a.enclosed]
        if len(keep) < 2:
            raise SurfaceError("puncture %r retains fewer than two arcs" % q)
        walk = []
        for n, i in enumerate(keep):
            j = keep[(n + 1) % len(keep)]
            span = []
            s = (i + 1) % nverts
            while True:
                span.append(cycle[s])
                if s == j:
                    break
                s = (s + 1) % nverts
            walk.append(_walk_step_arrow(a, span, ends[i], ends[j]))
        asm.puncture_terms[q] = (checked(tuple(reversed(walk))), surf.scalars[q])

    return asm


def unreduced_potential(tri, order=6):
    """Potential on the unreduced adjacency quiver at the given order."""
    return potential_assembly(tri, order).total()


def qp_of_triangulation(tri, order=6):
    """Reduced QP of a triangulation; its quiver matches the adjacency matrix."""
    asm = potential_assembly(tri, order)
    reduced = _split_words(asm.quiver, asm.words(), order)[0]
    expected = quiver_from_matrix(signed_adjacency(tri))
    if reduced.quiver.multiplicities() != expected.multiplicities():
        raise SurfaceError("reduced quiver does not match the adjacency matrix")
    return reduced
