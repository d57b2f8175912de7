"""Dense-rank oracle for truncated Jacobian dimensions.

Independent of qpsurf's algebra, jacobian and linalg code: it reads only the
quiver's arrows and the potential's words and coefficients, enumerates paths
by brute force, forms every product u * dW/da * s as a word dictionary, and
takes the rank by dense Gaussian elimination over the rationals.  Paths are
words a1 ... am with tail(a_j) = head(a_j+1); a vertex is the empty word.
"""

from __future__ import annotations

from fractions import Fraction


def _paths(arrows, vertices, max_len):
    """All paths as (word, head, tail), grouped by length 0..max_len."""
    levels = [[((), v, v) for v in vertices]]
    if max_len >= 1:
        levels.append([((name,), h, t) for name, (t, h) in arrows.items()])
    for _ in range(2, max_len + 1):
        levels.append([(word + (name,), head, t)
                       for word, head, tail in levels[-1]
                       for name, (t, h) in arrows.items() if h == tail])
    return levels


def _derivative(arrows, terms, name):
    """Cyclic derivative as {(word, head, tail): coeff}; an empty remainder is a vertex."""
    out = {}
    tail = arrows[name][0]
    for word, c in terms:
        for i, a in enumerate(word):
            if a != name:
                continue
            rest = word[i + 1:] + word[:i]
            key = (rest, arrows[rest[0]][1], arrows[rest[-1]][0]) if rest else ((), tail, tail)
            out[key] = out.get(key, 0) + c
    return out


def _rank(rows, ncols):
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f != 0:
                f = f / prow[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def oracle_dims(qp, order):
    """dims[d] for d = 0..order: paths of length <= d modulo the ideal and longer paths."""
    arrows = {a.name: (a.tail, a.head) for a in qp.quiver.arrows}
    terms = [(p.arrows, Fraction(c)) for p, c in qp.potential.terms.items()]
    levels = _paths(arrows, list(qp.quiver.vertices), order)
    columns = {}
    for level in levels:
        for word, head, tail in level:
            columns[(word, head if not word else "")] = len(columns)
    paths = [p for level in levels for p in level]
    products = []
    for name in arrows:
        deriv = {k: c for k, c in _derivative(arrows, terms, name).items() if len(k[0]) <= order}
        if not deriv:
            continue
        shortest = min(len(k[0]) for k in deriv)
        for u, uh, ut in paths:
            for s, sh, st in paths:
                if len(u) + len(s) + shortest > order:
                    continue
                row = {}
                for (w, wh, wt), c in deriv.items():
                    word = u + w + s
                    if ut != wh or wt != sh or len(word) > order:
                        continue
                    key = (word, uh if not word else "")
                    row[key] = row.get(key, 0) + c
                row = {k: c for k, c in row.items() if c != 0}
                if row:
                    products.append(row)
    dims = []
    count = 0
    for d, level in enumerate(levels):
        count += len(level)
        cols = [k for k in columns if len(k[0]) <= d]
        index = {k: i for i, k in enumerate(cols)}
        dense = []
        for row in products:
            kept = {k: c for k, c in row.items() if len(k[0]) <= d}
            if kept:
                line = [Fraction(0)] * len(cols)
                for k, c in kept.items():
                    line[index[k]] = c
                dense.append(line)
        dims.append(count - _rank(dense, len(cols)))
    return dims
