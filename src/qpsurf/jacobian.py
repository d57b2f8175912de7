"""Truncated Jacobian ideals: quotient dimensions, rigidity, finite-dimension evidence."""

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, count
from math import lcm

from . import QpsurfError
from .algebra import AlgebraElement, Path, least_rotation, word_derivatives
from .linalg import SparseEliminator
from .quiver import IntegerMatrix, Record


class JacobianError(QpsurfError):
    pass


def _require_order(qp, order):
    """Refuse an order outside 1..the QP's truncation, or past what its
    potential gets right.

    The dims at an order d read the potential's terms of degree <= d + 1,
    all of them at the truncation D, so a QP exact through a lower degree
    serves only the orders that read no further.  A refusal names the order
    that makes up the shortfall, D plus the degrees missing.
    """
    if order < 1:
        raise JacobianError("order must be >= 1")
    if order > qp.order:
        raise JacobianError(
            "order %d exceeds the QP truncation %d; rebuild the QP deeper" % (order, qp.order))
    exact = qp.exact
    need = min(order + 1, qp.order)
    if exact is not None and need > exact:
        raise JacobianError(
            "order %d reads the potential through degree %d, which is exact only through "
            "degree %d; rebuild at order >= %d" % (order, need, exact, qp.order + need - exact))


def jacobian_generators(qp):
    """One cyclic derivative per arrow, in arrow order."""
    ders = word_derivatives(qp.words.items())
    return [AlgebraElement(qp.quiver, qp.order,
                           {Path(r): c for r, c in ders.get(a.name, {}).items()})
            for a in qp.quiver.arrows]


def _integer_generators(qp):
    """(arrow, terms, gmin) for each arrow with a nonzero d_a W, in arrow order.

    W is scaled once by the common denominator of its coefficients, so the
    terms are (arrow tuple, int) pairs, shortest first, and gmin is the
    length of the shortest.  Scaling every generator by one factor leaves
    the ideal unchanged, and it makes every row built from them integer.
    """
    den = lcm(*(c.denominator for c in qp.words.values()))
    ders = word_derivatives((w, c.numerator * (den // c.denominator))
                            for w, c in qp.words.items())
    return [(a, terms, len(terms[0][0])) for a in qp.quiver.arrows if a.name in ders
            for terms in [sorted(ders[a.name].items(), key=lambda tc: len(tc[0]))]]


class DimensionReport(Record):
    """Dims and path counts per degree, and the certificate order or None;
    each verdict is read off them."""

    __slots__ = _fields = ("dims", "path_counts", "certified_order")

    def __init__(self, dims, path_counts, certified_order):
        self.dims = dims
        self.path_counts = path_counts
        self.certified_order = certified_order

    order = property(lambda self: len(self.dims) - 1)
    dimension = property(lambda self: self.dims[-1])
    ranks = property(lambda self: [n - m for n, m in zip(self.path_counts, self.dims)])
    certified = property(lambda self: self.certified_order is not None)
    # degree d is absorbed when it adds nothing to the quotient; degree 0 never is
    absorbed = property(lambda self: [False] + [a == b for a, b in zip(self.dims, self.dims[1:])])

    def to_text(self):
        c = self.certified_order
        return "order #paths ideal-rank dim certified\n" + "".join(
            "%d %d %d %d %s\n" % (d, n, r, m, "yes" if c is not None and d >= c else "no")
            for d, (n, r, m) in enumerate(zip(self.path_counts, self.ranks, self.dims)))


def _reduce(terms, lead, lens, order):
    """The normal form of a sum of (word, coefficient) terms, cut at `order`.

    `lead` maps each leading word l to the tail of its monic basis element
    l + tail, and `lens` holds the leading words' lengths, sorted.  The least
    word w goes first; its first leading word l = w[i:i+k] is found by a
    plain loop over the start i, then over `lens` up to w's end.  A normal w
    is kept, and u*l*v becomes -u*tail*v, of larger words, none taken yet.
    """
    poly, heap, out = {}, [], {}
    while True:
        for x, e in terms:
            if len(x) <= order:
                if x in poly:
                    poly[x] += e
                else:
                    poly[x] = e
                    heappush(heap, (len(x), x))
        if not heap:
            return out
        n, w = heappop(heap)
        c, terms, tail = poly.pop(w), (), None
        if not c:
            continue
        for i in range(n):
            for k in lens:
                if i + k > n:
                    break
                tail = lead.get(w[i:i + k])
                if tail is not None:
                    break
            if tail is not None:
                terms = [(w[:i] + t + w[i + k:], -c * e) for t, e in tail]
                break
        else:
            out[w] = c


def _groebner(qp, order):
    """A Groebner basis of the derivative ideal in kQ/m^(order+1), and its normal words.

    Returns (lead, lens, levels, certified_order, into): the leading words
    and their lengths, as `_reduce` reads them; the normal words of each
    length d as (word, tail, head) triples; the degree where the pass stopped
    at its certificate, or None; the arrows by head, which extend words.

    With D = `order`, m the arrow ideal and I the ideal of the d_a W in
    A = kQ/m^(D+1), the normal words (no leading word inside) are a basis of
    A/I (Bergman's diamond lemma, 1978; Green, "Noncommutative Groebner
    bases, and projective resolutions", 1999).  Words go by length, then
    arrow names, an order that products keep, and an element leads with its
    *least* word, so rewriting l as -tail ends: words longer than D are zero.
    The normal words are a basis once no leading word lies inside another
    and each overlap a = a'x, b = xb' (x, a', b' nonempty) reduces
    g_a*b' - a'*g_b to zero.  A basis element has no term shorter than its
    leading word, so an overlap longer than D has only words longer than D.

    The pass reduces the d_a W at their least degree and the overlaps at
    degree |a'xb'|, least degree first, and adds each nonzero result, with
    tail coefficients e // c, an int, where the leading coefficient c
    divides e, else the reduced Fraction e/c.  An element whose leading word
    contains the new one is reduced again; the scan is skipped when no
    leading word is longer.  The leading words are kept by first and by last
    arrow: l = a'x with |x| = k overlaps only words b = xb', which start
    with l[-k], and l = xb' only words b = a'x, which end with l[k-1].  An
    S-polynomial has no term shorter than its overlap, so once degree d is
    done the leading words of length <= d are final, and the normal words
    of length d are listed: those of length d - 1 extended on the right,
    kept when a plain loop over the lengths <= d finds no leading suffix.

    Degree d is absorbed when no word of length d is normal; then no longer
    word is, as it contains one of length d, and every word of length >= d
    reduces to zero.  The certificate is the first absorbed d < order, where
    the pass stops; the top degree alone certifies nothing.
    """
    _require_order(qp, order)
    into = {v: [] for v in qp.quiver.vertices}
    for x in qp.quiver.arrows:
        into[x.head].append(x)

    seq = count()
    queue = [(gmin, next(seq), terms, ()) for _, terms, gmin in _integer_generators(qp)]
    heapify(queue)
    lead, lens = {}, []
    starts, ends = defaultdict(dict), defaultdict(dict)  # leading words by first, last arrow
    levels = [[((), v, v) for v in into]]
    for d in range(1, order + 1):
        while queue and queue[0][0] <= d:
            _, _, terms, guard = heappop(queue)  # guard: the basis elements it came from
            f = all(lead.get(l) is t for l, t in guard) and _reduce(terms, lead, lens, order)
            if not f:
                continue
            l = next(iter(f))  # `_reduce` keeps its words in increasing order
            c = f.pop(l)
            tail = [(w, e // c if not e % c else Fraction(e) / c) for w, e in f.items()]
            for b in [b for b in lead if len(b) > len(l) and any(
                    b[i:i + len(l)] == l for i in range(len(b) - len(l) + 1))
                      ] if lens and lens[-1] > len(l) else ():
                heappush(queue, (len(b), next(seq), [(b, 1)] + lead.pop(b), ()))
                del starts[b[0]][b], ends[b[-1]][b]
            lead[l] = starts[l[0]][l] = ends[l[-1]][l] = tail
            lens = sorted({len(b) for b in lead})
            for k in range(1, len(l)):  # x = a'z, y = zb' with |z| = k
                top = order - len(l) + k  # the longest partner whose overlap fits
                for x, tx, y, ty in ([(l, tail, b, tb) for b, tb in starts[l[-k]].items()
                                      if k < len(b) <= top and l[-k:] == b[:k]]
                                     + [(b, tb, l, tail) for b, tb in ends[l[k - 1]].items()
                                        if k < len(b) <= top and b != l and b[-k:] == l[:k]]):
                    terms = [(t + y[k:], e) for t, e in tx] + [(x[:-k] + t, -e) for t, e in ty]
                    heappush(queue, (len(x) + len(y) - k, next(seq), terms, ((x, tx), (y, ty))))
        ks, level = [k for k in lens if k <= d], []
        for u, v, h in levels[-1]:
            for x in into[v]:
                w = u + (x.name,)
                for k in ks:
                    if w[-k:] in lead:
                        break
                else:
                    level.append((w, x.tail, h))
        levels.append(level)
        if d < order and not levels[-1]:
            return lead, lens, levels, d, into
    return lead, lens, levels, None, into


def truncated_quotient_dim(qp, order):
    """Per-degree dimensions of the quotient by the derivative ideal.

    dim_d is the dimension of A/(I + m^(d+1)), with A and I as in `_groebner`.
    An f in I + m^(d+1) whose least word has length <= d agrees up to length
    d with its part in I, so both lead with that word: dim_d counts the
    normal words of length <= d, and none past a certificate.  Path counts
    come from a transfer count, and rank_d = #paths - dim_d.
    """
    _, _, levels, certified_order, into = _groebner(qp, order)
    per = dict.fromkeys(into, 1)  # paths of one length, by head
    counts = [len(per)]
    for _ in range(order):
        per = {v: sum(per[x.tail] for x in into[v]) for v in per}
        counts.append(sum(per.values()))

    normal = [len(level) for level in levels] + [0] * (order + 1 - len(levels))
    return DimensionReport(list(accumulate(normal)), list(accumulate(counts)), certified_order)


def cartan_matrix(qp, order):
    """The Cartan matrix of A/I, with A and I as in `_groebner`.

    C[t][h] is the number of normal words from t to h of length <= `order`,
    read off the same basis pass as `truncated_quotient_dim`, and returned
    as an `IntegerMatrix` over the QP's vertices.  Past a certificate no
    word is normal, so C is then that of the whole Jacobian algebra.  The
    Jacobian algebras of closed surfaces are symmetric algebras (Ladkani,
    "On Jacobian algebras from closed surfaces", arXiv:1207.3778, cited from
    memory), which forces C to be symmetric; that C is symmetric was
    measured here on closed tori and their flips.
    """
    levels = _groebner(qp, order)[2]
    index = {v: i for i, v in enumerate(qp.quiver.vertices)}
    rows = [[0] * len(index) for _ in index]
    for level in levels:
        for _, t, h in level:
            rows[index[t]][index[h]] += 1
    return IntegerMatrix(qp.quiver.vertices, rows)


class RigidityReport(Record):
    __slots__ = _fields = ("max_order", "witness", "certified_order", "dim_def")

    def __init__(self, max_order, witness, certified_order=None, dim_def=None):
        self.max_order = max_order
        self.witness = witness
        self.certified_order = certified_order
        self.dim_def = dim_def

    rigid = property(lambda self: self.witness is None)

    def to_text(self):
        if self.rigid:
            return "rigid-up-to-%d\n" % self.max_order
        return "non-rigid witness: %s\n" % " ".join(self.witness.arrows)


def is_rigid_up_to(qp, order):
    """Test every cycle of length <= order against the Jacobian ideal J plus
    the commutators, cut at length `order`.

    Work in A = kQ/(J + m^(order+1)), whose basis is the normal words of
    `_groebner`; NF is `_reduce` against its leading words.  The cycles of
    length >= 1 in A are spanned by the normal ones, and the commutators by
    a*b - b*a for arrows a and words b such that a*b is a cycle:
    - every rotation telescopes into one-arrow rotations, since
      x1 x2...xn - x2...xn x1 is such a commutator, and so on around;
    - J is two-sided, so b - NF(b) in J makes a*b - b*a = a*NF(b) - NF(b)*a
      modulo J, and b may be taken normal.
    So the relations are the rows NF(a*b - b*a), one reduction each, per
    arrow a and normal word b from h(a) to t(a) of length < order, over the
    normal cycles, and the QP is rigid up to `order` exactly when their rank
    is the number of normal cycles.

    Only when the rank falls short are cycles walked, by least rotation in
    (length, arrows) order; the witness is the first whose NF lies outside
    the span, a sound non-rigidity certificate, as membership at every
    finite order is necessary for rigidity.

    The report also carries `_groebner`'s certificate order c, or None, and
    past it dim Def = #normal cycles - rank of the rows; `to_text` prints
    neither.  Then m^c lies in I + m^(order+1), so by iterating in the
    closure of the Jacobian ideal: A/I is the whole Jacobian algebra, and
    dim Def is that of the deformation space (Derksen, Weyman and
    Zelevinsky, arXiv:0704.0649, section 6, cited from memory), 0 exactly
    when the QP is rigid.  This reads the potential as exact through
    `order`, as it is for a QP built from a triangulation at an order at
    least its largest puncture valence, the only QPs the read speaks for.
    """
    lead, lens, levels, certified, into = _groebner(qp, order)
    around = defaultdict(list)  # normal words of length < order by (tail, head)
    for level in levels[1:order]:
        for b, t, h in level:
            around[t, h].append(b)
    cycles = sum(t == h for level in levels[1:] for _, t, h in level)

    def nf(w):
        return _reduce([(w, 1)], lead, lens, order)

    elim = SparseEliminator()
    for a in qp.quiver.arrows:
        for b in around[a.head, a.tail]:
            elim.add_row(_reduce([((a.name,) + b, 1), (b + (a.name,), -1)], lead, lens, order))
    dim_def = None if certified is None else cycles - elim.rank
    if elim.rank == cycles:
        return RigidityReport(order, None, certified, dim_def)

    paths = [((a.name,), a.tail, a.head) for a in qp.quiver.arrows]
    for _ in range(order):  # a least rotation starts with its least arrow
        for c, t, h in paths:
            if t == h and c == least_rotation(c) and not elim.contains(nf(c)):
                return RigidityReport(order, Path(c), certified, dim_def)
        paths = [(w + (x.name,), x.tail, h) for w, t, h in paths for x in into[t]
                 if x.name >= w[0]]


def finite_dim_evidence(qp, dmax):
    """The dimension report at the least order whose certificate fires.

    The certificate at order D is the first absorbed degree c < D, so that
    order is c + 1 for the c of the report at `dmax`; with no certificate up
    to `dmax` it is the report at `dmax`.  Cutting the ideal down to a lower
    order projects its span onto the shorter paths, so the report at order
    c + 1 is the first c + 2 degrees of the report at `dmax`.
    """
    report = truncated_quotient_dim(qp, dmax)
    c = report.certified_order
    if c is None:
        return report
    return DimensionReport(report.dims[:c + 2], report.path_counts[:c + 2], c)
