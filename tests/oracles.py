"""Brute-force oracles used by the tests.

Everything here recomputes from first principles: raw enumeration of arrow
words, the rotation formula for derivatives, dense rational elimination,
rigidity over the whole truncated path space with every rotation difference,
the Cartan matrix by endpoint blocks of the same ranks, brute-force expansion of substitutions, the least entry table over every
vertex order, and the path count of a gentle algebra.
None of it shares code with the library's sparse machinery.
"""

from fractions import Fraction
from itertools import permutations, product


def oracle_paths(quiver, length):
    """All composable arrow words of the given length, by raw enumeration."""
    names = [a.name for a in quiver.arrows]
    out = []
    for combo in product(names, repeat=length):
        ok = True
        for i in range(length - 1):
            if quiver.arrow(combo[i]).tail != quiver.arrow(combo[i + 1]).head:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def oracle_derivative(quiver, potential_terms, arrow):
    """Cyclic derivative computed directly from the rotation formula."""
    out = {}
    for term, coeff in potential_terms:
        for i, name in enumerate(term):
            if name == arrow:
                rest = term[i + 1:] + term[:i]
                out[rest] = out.get(rest, Fraction(0)) + coeff
    return {t: c for t, c in out.items() if c}


def oracle_rank(rows, columns):
    """Dense Gaussian elimination over the rationals."""
    index = {c: i for i, c in enumerate(columns)}
    dense = []
    for row in rows:
        vec = [Fraction(0)] * len(columns)
        for col, val in row.items():
            vec[index[col]] = val
        dense.append(vec)
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(dense)) if dense[r][col]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        inv = 1 / dense[rank][col]
        dense[rank] = [x * inv for x in dense[rank]]
        for r in range(len(dense)):
            if r != rank and dense[r][col]:
                f = dense[r][col]
                dense[r] = [x - f * y for x, y in zip(dense[r], dense[rank])]
        rank += 1
    return rank


def oracle_dims(qp, max_order):
    """Quotient dimensions by explicit path enumeration and dense ranks."""
    quiver = qp.quiver
    terms = [(p.arrows, c) for p, c in qp.potential.terms.items()]
    generators = []
    for a in quiver.arrows:
        d = oracle_derivative(quiver, terms, a.name)
        if d:
            generators.append(d)
    paths = {d: oracle_paths(quiver, d) for d in range(1, max_order + 1)}

    dims = []
    for d in range(max_order + 1):
        rows = []
        for gen in generators:
            gmin = min(len(t) for t in gen)
            for lp in range(0, d - gmin + 1):
                lefts = paths[lp] if lp else [None]
                for ls in range(0, d - gmin - lp + 1):
                    rights = paths[ls] if ls else [None]
                    for p in lefts:
                        for s in rights:
                            row = {}
                            for t, c in gen.items():
                                if len(t) + lp + ls > d:
                                    continue
                                full = (p or ()) + t + (s or ())
                                ok = True
                                for i in range(len(full) - 1):
                                    if quiver.arrow(full[i]).tail != quiver.arrow(full[i + 1]).head:
                                        ok = False
                                        break
                                if ok:
                                    row[full] = row.get(full, Fraction(0)) + c
                            row = {t: c for t, c in row.items() if c}
                            if row:
                                rows.append(row)
        columns = [("e", v) for v in quiver.vertices]
        npaths = len(quiver.vertices)
        for ln in range(1, d + 1):
            columns.extend(paths[ln])
            npaths += len(paths[ln])
        dims.append(npaths - oracle_rank(rows, columns))
    return dims


def oracle_cartan(qp, order):
    """C[t][h] of the quotient by the derivative ideal, cut at `order`, as rows.

    Every row u * d_a W * s, cut at `order`, has all its words from one
    vertex t to one vertex h, since the terms of d_a W all run from h(a) to
    t(a).  So the ideal is the sum of its (t, h) blocks, and C[t][h] is the
    number of paths from t to h of length 1..order less the rank of that
    block's rows, plus one for e_t when t = h.  A word starts at the tail of
    its last arrow and ends at the head of its first.
    """
    quiver = qp.quiver
    terms = [(p.arrows, c) for p, c in qp.potential.terms.items()]
    words = [w for d in range(1, order + 1) for w in oracle_paths(quiver, d)]

    def ends(w):
        return quiver.arrow(w[-1]).tail, quiver.arrow(w[0]).head

    valid = set(words)
    paths, rows = {}, {}
    for w in words:
        paths.setdefault(ends(w), []).append(w)
    for a in quiver.arrows:
        gen = oracle_derivative(quiver, terms, a.name)
        if not gen:
            continue
        room = order - min(len(t) for t in gen)
        for u in [()] + [w for w in words if len(w) <= room]:
            for s in [()] + [w for w in words if len(u) + len(w) <= room]:
                row = {}
                for t, c in gen.items():
                    full = u + t + s
                    if full in valid:
                        row[full] = row.get(full, Fraction(0)) + c
                row = {w: c for w, c in row.items() if c}
                if row:
                    (block,) = {ends(w) for w in row}
                    rows.setdefault(block, []).append(row)
    vs = quiver.vertices
    return [[(t == h) + len(paths.get((t, h), []))
             - oracle_rank(rows.get((t, h), []), paths.get((t, h), [])) for h in vs]
            for t in vs]


def oracle_gentle_dims(arrows, triangles, order):
    """Quotient dimensions of a gentle Jacobian algebra, by counting paths.

    `arrows` lists (name, tail, head) triples, every vertex on one of them,
    and `triangles` the words (x, y, z) of a potential that is a sum of
    3-cycles, no arrow in two of them.  Each derivative is then one path xy,
    yz or zx, so dims[d] counts the paths of length <= d with no two
    consecutive arrows of one 3-cycle (Assem, Bruestle, Charbonneau-Jodoin,
    Plamondon, arXiv:0903.3347).  Paths are counted by their last arrow.
    """
    arrows = list(arrows)
    banned = {(w[i], w[(i + 1) % 3]) for w in triangles for i in range(3)}
    dims = [len({v for _, t, h in arrows for v in (t, h)})]
    ways = {name: 1 for name, _, _ in arrows}
    for _ in range(order):
        dims.append(dims[-1] + sum(ways.values()))
        ways = {x: sum(ways[a] for a, t, _ in arrows if t == hx and (a, x) not in banned)
                for x, _, hx in arrows}
    return dims


def oracle_apply_substitution(images, element, order):
    """Image of an element under an arrow substitution, truncated at order.

    `images` maps every arrow name to a dict {arrow tuple: coefficient}, and
    `element` is such a dict of positive-length words.  Every choice of one
    image term per letter is concatenated, and kept when its length is at
    most the order.
    """
    out = {}
    for word, coeff in element.items():
        for choice in product(*(list(images[name].items()) for name in word)):
            full = tuple(name for part, _ in choice for name in part)
            if len(full) > order:
                continue
            c = Fraction(coeff)
            for _, v in choice:
                c *= v
            out[full] = out.get(full, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def oracle_canonical_form(rows):
    """Row-major least table (rows[p_i][p_j]) over all n! vertex orders p."""
    return min(tuple(tuple(map(rows[i].__getitem__, p)) for i in p)
               for p in permutations(range(len(rows))))


def oracle_is_rigid(qp, order):
    """(rigid, witness) by brute force over the whole truncated path space.

    The rows are every u * d_a W * s, for arrow words u and s of any length
    (the empty word included) with the terms longer than `order` cut, and the
    differences between each cycle of length 2..order and its rotations (for
    one cycle of each class, which spans them all).
    A class is tested by its least rotation; the witness is the first such
    word, in (length, arrows) order, outside the span, found by bisection on
    dense ranks.
    """
    quiver = qp.quiver
    terms = [(p.arrows, c) for p, c in qp.potential.terms.items()]
    paths = {d: oracle_paths(quiver, d) for d in range(1, order + 1)}
    words = [w for d in range(1, order + 1) for w in paths[d]]

    def composable(full):
        return all(quiver.arrow(full[i]).tail == quiver.arrow(full[i + 1]).head
                   for i in range(len(full) - 1))

    rows = {}  # each distinct row once
    for a in quiver.arrows:
        gen = oracle_derivative(quiver, terms, a.name)
        for lu in range(order + 1):
            for ls in range(order + 1 - lu):
                for u in (paths[lu] if lu else [()]):
                    for s in (paths[ls] if ls else [()]):
                        row = {}
                        for t, c in gen.items():
                            full = u + t + s
                            if len(full) <= order and composable(full):
                                row[full] = row.get(full, Fraction(0)) + c
                        key = frozenset((w, c) for w, c in row.items() if c)
                        if key:
                            rows[key] = dict(key)

    reps = set()
    for d in range(2, order + 1):
        for w in paths[d]:
            if quiver.arrow(w[0]).head != quiver.arrow(w[-1]).tail:
                continue
            rep = min(w[k:] + w[:k] for k in range(d))
            if rep not in reps:
                reps.add(rep)
                for k in range(1, d):
                    if w[k:] + w[:k] != w:
                        row = {w: Fraction(1), w[k:] + w[:k]: Fraction(-1)}
                        rows[frozenset(row.items())] = row
    rows = list(rows.values())
    reps = sorted(reps, key=lambda w: (len(w), w))

    def grows(k):  # some rep among the first k lies outside the span
        return oracle_rank(rows + [{w: Fraction(1)} for w in reps[:k]], words) > base

    base = oracle_rank(rows, words)
    if not grows(len(reps)):
        return True, None
    lo, hi = 0, len(reps)  # grows(lo) is false and grows(hi) true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if grows(mid):
            hi = mid
        else:
            lo = mid
    return False, reps[hi - 1]
