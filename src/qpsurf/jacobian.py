"""Truncated Jacobian ideals: quotient dimensions, rigidity, finite-dimension evidence."""

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, count
from math import lcm

from .algebra import AlgebraElement, Path, word_derivatives
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
    ders = word_derivatives((p.arrows, c) for p, c in qp.potential.terms.items())
    return [AlgebraElement(qp.quiver, qp.order,
                           {Path(r): c for r, c in ders.get(a.name, {}).items()}, check=False)
            for a in qp.quiver.arrows]


def _integer_generators(qp):
    """(arrow, terms, gmin) for each arrow with a nonzero d_a W, in arrow order.

    W is scaled once by the common denominator of its coefficients, so the
    terms are (arrow tuple, int) pairs, shortest first, and gmin is the
    length of the shortest.  Scaling every generator by one factor leaves
    the ideal unchanged, and it makes every row built from them integer.
    """
    pot = qp.potential.terms
    den = lcm(*(c.denominator for c in pot.values()))
    ders = word_derivatives((p.arrows, c.numerator * (den // c.denominator))
                            for p, c in pot.items())
    out = []
    for a in qp.quiver.arrows:
        if a.name in ders:
            terms = sorted(ders[a.name].items(), key=lambda tc: len(tc[0]))
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


def _reduce(terms, lead, lens, order):
    """The normal form of a sum of (word, coefficient) terms, cut at `order`.

    `lead` maps each leading word l to the other terms of its monic basis
    element g, and `lens` lists the lengths of the leading words.  The least
    word goes first: a normal one is kept, and u*l*v becomes u*(l - g)*v,
    whose words are larger than u*l*v, so none of them was taken yet.
    """
    poly, heap, out = {}, [], {}
    while True:
        for x, e in terms:
            if len(x) > order:
                continue
            if x in poly:
                poly[x] += e
            else:
                poly[x] = e
                heappush(heap, (len(x), x))
        if not heap:
            return out
        n, w = heappop(heap)
        c = poly.pop(w)
        terms = ()
        hit = c and next(((i, i + k) for i in range(n) for k in lens
                          if i + k <= n and w[i:i + k] in lead), None)
        if hit:
            i, j = hit
            terms = [(w[:i] + t + w[j:], -c * e) for t, e in lead[w[i:j]]]
        elif c:
            out[w] = c


def truncated_quotient_dim(qp, order):
    """Per-degree dimensions of the quotient by the derivative ideal.

    With D = `order`, m the arrow ideal and I the ideal of the d_a W in
    A = kQ/m^(D+1), dim_d is the dimension of A/(I + m^(d+1)), read off a
    Groebner basis of I (Bergman's diamond lemma, 1978; Green,
    "Noncommutative Groebner bases, and projective resolutions", 1999).
    Words go by length, then arrow names, an order that products keep, and
    an element leads with its *least* word.  Rewriting the leading word l
    of a monic basis element g as l - g gives larger words, and words longer
    than D are zero, so rewriting ends.  By the diamond lemma the normal
    words (no leading word inside) are a basis of A/I once no leading word
    lies inside another and each overlap a = a'x, b = xb' (x, a', b'
    nonempty) reduces g_a*b' - a'*g_b to zero.  The terms of a basis
    element are no shorter than its leading word, so an overlap longer than
    D, or with a word of length D + 1, has only words longer than D: the
    truncation adds no ambiguity.

    The pass reduces the d_a W at their least degree and the overlaps at
    degree |a'xb'|, least degree first, and adds each nonzero result; an
    element whose leading word contains the new one is reduced again.  A
    new leading word l = a'x with |x| = k overlaps only words b = xb', which
    start with l[-k], and l = xb' only words b = a'x, which end with
    l[k-1]; so the leading words are kept by first and by last arrow, and l
    is tested against those alone, itself included.  The terms of an
    S-polynomial are no shorter than its overlap, so once degree d is done
    the leading words of length <= d are final.  An f in
    I + m^(d+1) whose least word has length <= d agrees up to length d with
    its part in I, so both lead with that word: dim_d counts the normal
    words of length <= d.  Extending them on the right, degree by degree,
    only a suffix can be a new leading word.

    Degree d is absorbed when no word of length d is normal; then no longer
    word is, as it contains one of length d.  The certificate is the first
    absorbed d < order, where the pass stops and fills the higher degrees;
    the top degree alone certifies nothing, as no longer word is counted.
    Path counts come from a transfer count, and rank_d = #paths - dim_d.
    """
    _require_order(qp, order)
    into = {v: [] for v in qp.quiver.vertices}
    for x in qp.quiver.arrows:
        into[x.head].append(x)
    per = dict.fromkeys(into, 1)  # paths of one length, by head
    counts = [len(per)]
    for _ in range(order):
        per = {v: sum(per[x.tail] for x in into[v]) for v in per}
        counts.append(sum(per.values()))

    seq = count()
    queue = [(gmin, next(seq), terms, ()) for _, terms, gmin in _integer_generators(qp)]
    heapify(queue)
    lead, lens = {}, []
    starts, ends = defaultdict(dict), defaultdict(dict)  # leading words by first, last arrow
    level = [((), v) for v in into]
    normal = [len(level)]
    for d in range(1, order + 1):
        while queue and queue[0][0] <= d:
            _, _, terms, guard = heappop(queue)  # guard: the basis elements it came from
            f = all(lead.get(l) is t for l, t in guard) and _reduce(terms, lead, lens, order)
            if not f:
                continue
            l = min(f, key=lambda w: (len(w), w))
            c = f.pop(l)
            tail = [(w, Fraction(e) / c) for w, e in f.items()]
            for b in [b for b in lead if len(b) > len(l) and any(
                    b[i:i + len(l)] == l for i in range(len(b) - len(l) + 1))]:
                heappush(queue, (len(b), next(seq), [(b, 1)] + lead.pop(b), ()))
                del starts[b[0]][b], ends[b[-1]][b]
            lead[l] = starts[l[0]][l] = ends[l[-1]][l] = tail
            lens = sorted({len(b) for b in lead})
            for k in range(1, len(l)):  # x = a'z, y = zb' with |z| = k
                for x, tx, y, ty in ([(l, tail, b, tb) for b, tb in starts[l[-k]].items()
                                      if len(b) > k]
                                     + [(b, tb, l, tail) for b, tb in ends[l[k - 1]].items()
                                        if len(b) > k and b != l]):
                    if len(x) + len(y) - k <= order and x[-k:] == y[:k]:
                        terms = ([(t + y[k:], e) for t, e in tx]
                                 + [(x[:-k] + t, -e) for t, e in ty])
                        heappush(queue, (len(x) + len(y) - k, next(seq), terms,
                                         ((x, tx), (y, ty))))
        level = [(w, x.tail) for u, v in level for x in into[v] for w in [u + (x.name,)]
                 if not any(w[-k:] in lead for k in lens if k <= d)]
        normal.append(len(level))
        if d < order and not level:
            break

    certified_order = len(normal) - 1 if len(normal) <= order else None
    normal += [0] * (order + 1 - len(normal))
    dims, path_counts = list(accumulate(normal)), list(accumulate(counts))
    return DimensionReport(order, dims, path_counts, [n - m for n, m in zip(path_counts, dims)],
                           certified_order is not None, certified_order,
                           [False] + [not n for n in normal[1:]])


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
