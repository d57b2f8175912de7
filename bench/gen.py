"""Seeded generator of triangulated marked surfaces.

Surfaces are built from three moves: a fan-triangulated polygon, the
once-punctured torus, and adding a puncture inside a triangle (three new arcs
from the puncture to the triangle's corners).  Seeded flip walks then move to
another triangulation of the same surface.  A walk skips every flip that
raises or that would give a puncture more arc ends than the truncation order
allows, because the puncture's cycle in the potential must fit in that order.
Every result passes `validate_triangulation`.
"""

from __future__ import annotations

import random

from qpsurf import (
    MarkedSurface,
    Side,
    SurfaceError,
    Triangulation,
    examples_data,
    flip,
    fold_map,
    validate_triangulation,
)


def _checked(tri):
    problems = validate_triangulation(tri)
    if problems:
        raise SurfaceError("generator produced an invalid triangulation: " + "; ".join(problems))
    return tri


def polygon(n):
    """Fan triangulation of an n-gon from its first corner; rank n - 3 (type A)."""
    if n < 4:
        raise ValueError("a polygon needs at least four corners to carry an arc")
    pts = ["B%d" % i for i in range(n)]
    bsegs = ["b%d" % i for i in range(n)]
    sides = [Side(bsegs[i], "bseg", (pts[i], pts[(i + 1) % n]), 0) for i in range(n)]
    arcs = {j: str(j - 1) for j in range(2, n - 1)}  # arc from B0 to B_j
    sides += [Side(name, "arc", (pts[0], pts[j])) for j, name in arcs.items()]
    triangles = []
    for j in range(1, n - 1):
        first = bsegs[0] if j == 1 else arcs[j]
        last = bsegs[n - 1] if j == n - 2 else arcs[j + 1]
        triangles.append((first, bsegs[j], last))
    surface = MarkedSurface(0, 1, {p: 0 for p in pts})
    return _checked(Triangulation(surface, sides, triangles))


def punctured_torus():
    """The once-punctured torus with its one-triangle-pair triangulation; rank 3."""
    return _checked(Triangulation.from_text(examples_data.example_text("torus")))


def _fresh_arc_names(tri, count):
    used = set(tri.sides)
    n = len(tri.arcs) + 1
    out = []
    while len(out) < count:
        if str(n) not in used:
            out.append(str(n))
        n += 1
    return out


def add_puncture(tri, t):
    """Put a new puncture inside triangle t and join it to the three corners.

    Adds three arcs and two triangles, so the rank grows by three.
    """
    a = tri.analysis()
    if t in a.self_folded:
        raise SurfaceError("cannot subdivide self-folded triangle %d" % t)
    surf = tri.surface
    p = "P%d" % (len(surf.punctures) + 1)
    while p in surf.locations:
        p += "x"
    triple = tri.triangles[t]
    xs = _fresh_arc_names(tri, 3)
    # Side m of the clockwise triple runs from corner m-1 to corner m.
    corners = [a.corner_point[(t, m)] for m in range(3)]
    sides = list(tri.sides.values()) + [Side(xs[m], "arc", (p, corners[m])) for m in range(3)]
    triangles = list(tri.triangles)
    triangles[t:t + 1] = [(triple[m], xs[m], xs[m - 1]) for m in range(3)]
    locations = dict(surf.locations)
    locations[p] = None
    surface = MarkedSurface(surf.genus, surf.boundary, locations)
    return _checked(Triangulation(surface, sides, triangles))


def valences(tri):
    """Number of arc ends at each puncture (a loop counts twice)."""
    return {p: len(ends) for p, ends in tri.analysis().puncture_ends.items()}


def max_valence(tri):
    return max(valences(tri).values(), default=0)


def flip_candidates(tri):
    """Arcs that are not the folded side of a self-folded triangle."""
    fold = fold_map(tri)
    return [arc for arc in tri.arcs
            if fold[arc] == arc and not any(t.count(arc) == 2 for t in tri.triangles)]


def relabel_flipped(tri, arc):
    """Rename the fresh arc `arc'` left by a flip back to `arc`."""
    fresh = arc + "'"
    sides = [Side(arc, s.kind, s.ends, s.boundary) if s.name == fresh else s
             for s in tri.sides.values()]
    triangles = [tuple(arc if s == fresh else s for s in t) for t in tri.triangles]
    return _checked(Triangulation(tri.surface, sides, triangles))


def try_flip(tri, arc, order):
    """The flipped triangulation with its arc names kept, or None if the flip is skipped."""
    try:
        out = flip(tri, arc)
    except SurfaceError:
        return None
    if max_valence(out) > order:
        return None
    return relabel_flipped(out, arc)


def flip_walk(tri, rng, steps, order):
    """Take at least `steps` successful seeded flips and end within the order.

    A walk that starts above the order (a puncture was just added) accepts
    only flips that keep every valence within the current largest one, so
    the largest valence never grows and the walk goes on until it fits.
    """
    done = 0
    attempts = 0
    cap = max(order, max_valence(tri))
    while done < steps or cap > order:
        attempts += 1
        if attempts > 100 * (steps + 10):
            raise SurfaceError("flip walk is stuck above valence %d" % order)
        nxt = try_flip(tri, rng.choice(flip_candidates(tri)), cap)
        if nxt is not None:
            tri = nxt
            done += 1
            cap = max(order, max_valence(tri))
    return tri


def surface(kind, size, punctures, seed, order):
    """One seeded triangulation.

    kind "polygon": a `size`-gon with `punctures` punctures (rank size - 3 + 3p);
    kind "torus": the torus with 1 + `punctures` punctures (rank 3 + 3p).
    Punctures go into seeded triangles; a flip walk of rank-many flips follows
    every insertion, and one of twice the rank ends the construction.
    """
    rng = random.Random("%s:%d:%d:%d:%d" % (kind, size, punctures, seed, order))
    tri = polygon(size) if kind == "polygon" else punctured_torus()
    if max_valence(tri) > order:
        raise ValueError("order %d is below the start valence" % order)
    for _ in range(punctures):
        a = tri.analysis()
        t = rng.choice([t for t in range(len(tri.triangles)) if t not in a.self_folded])
        tri = add_puncture(tri, t)
        tri = flip_walk(tri, rng, len(tri.arcs), order)
    return flip_walk(tri, rng, 2 * len(tri.arcs), order)


def describe(tri, order):
    """Sizes recorded for each generated input."""
    s = tri.surface
    return {"genus": s.genus, "boundary": s.boundary, "punctures": len(s.punctures),
            "rank": len(tri.arcs), "max_valence": max_valence(tri), "order": order}
