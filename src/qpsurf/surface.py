"""Combinatorial triangulations of bordered marked surfaces.

A triangulation is stored as side data (arcs and boundary segments with
endpoint pairs) plus triangles given as clockwise side triples.  Self-folded
triangles list their folded side twice.  All orientation-sensitive structure
(corners, rotation around marked points, arrow directions) is derived from
the clockwise convention: in a triple (s0, s1, s2) the boundary is traversed
s0 then s1 then s2, slot m exits into the corner shared with slot m+1, and
rotating counter-clockwise around a point crosses the entry side of the next
slot into the partner triangle.
"""

from fractions import Fraction

from . import QpsurfError
from .quiver import (
    Arrow, FrozenRecord, IntegerMatrix, Quiver, mutate_matrix, net_matrix,
)

_setattr = object.__setattr__


class SurfaceError(QpsurfError):
    pass


def _primes():
    n = 2
    while True:
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            yield n
        n += 1


class MarkedSurface:
    """Genus, boundary components, marked points; punctures carry scalars."""

    def __init__(self, genus, boundary, locations, scalars=None):
        self.genus = int(genus)
        self.boundary = int(boundary)
        self.locations = dict(locations)  # id -> boundary index, or None for a puncture
        self.punctures = tuple(sorted(m for m, loc in self.locations.items() if loc is None))
        given = dict(scalars or {})
        self.scalars = {}
        primes = _primes()
        for p in self.punctures:
            if p in given:
                self.scalars[p] = Fraction(given[p])
            else:
                self.scalars[p] = Fraction(next(primes))
        self.boundary_marked = tuple(sorted(m for m, loc in self.locations.items()
                                            if loc is not None))

    def problems(self):
        out = []
        if self.genus < 0 or self.boundary < 0:
            out.append("negative genus or boundary count")
        if not self.locations:
            out.append("no marked points")
        for m, loc in self.locations.items():
            if loc is not None and not (0 <= loc < self.boundary):
                out.append("marked point %r on missing boundary component %d" % (m, loc))
        per_comp = {k: 0 for k in range(self.boundary)}
        for m, loc in self.locations.items():
            if loc is not None and loc in per_comp:
                per_comp[loc] += 1
        for k, n in per_comp.items():
            if n == 0:
                out.append("boundary component %d has no marked point" % k)
        for p, x in self.scalars.items():
            if x == 0:
                out.append("puncture %r has zero scalar" % p)
        g, b = self.genus, self.boundary
        p = len(self.punctures)
        c = len(self.boundary_marked)
        if b == 0 and g == 0 and p < 5:
            out.append("excluded surface: sphere with fewer than five punctures")
        if g == 0 and b == 1 and p == 0 and c in (1, 2, 3):
            out.append("excluded surface: unpunctured monogon, digon or triangle")
        if g == 0 and b == 1 and p == 1 and c == 1:
            out.append("excluded surface: once-punctured monogon")
        return out

    def rank(self):
        return (6 * self.genus + 3 * self.boundary + 3 * len(self.punctures)
                + len(self.boundary_marked) - 6)


class Side(FrozenRecord):
    """An arc or boundary segment with its two end points.

    `kind` is "arc" or "bseg"; `boundary` is the boundary component of a
    segment.  Immutable; compares and hashes as (name, kind, ends, boundary).
    """

    __slots__ = _fields = ("name", "kind", "ends", "boundary")

    def __init__(self, name, kind, ends, boundary=None):
        _setattr(self, "name", name)
        _setattr(self, "kind", kind)
        _setattr(self, "ends", ends)
        _setattr(self, "boundary", boundary)

    @property
    def is_arc(self):
        return self.kind == "arc"

    @property
    def is_loop(self):
        return self.ends[0] == self.ends[1]


def _options(tokens, keys, required=False):
    """The key=value tokens of a line; a key outside `keys` or given twice is
    refused, and so is an absent key when `required`."""
    opts = {}
    for token in tokens:
        key, eq, val = token.partition("=")
        if not eq or key not in keys or key in opts:
            raise ValueError("unexpected %r" % token)
        opts[key] = val
    missing = [key for key in keys if key not in opts]
    if required and missing:
        raise ValueError("missing %s=" % missing[0])
    return opts


def _across(ends, point):
    """The other end of a side from its end `point`, or None if `point` is not an end."""
    a, b = ends
    return b if a == point else a if b == point else None


def _parse_scalars(text):
    """The puncture scalars of `--scalars` text such as 'p1=2/1,p2=3'; no text gives none."""
    out = {}
    for item in text.split(",") if text else ():
        try:
            name, value = item.split("=", 1)
            out[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SurfaceError("bad scalar %r (%s)" % (item, exc)) from exc
    return out


class Triangulation:
    """Sides and clockwise side triples on a marked surface.

    Treated as immutable: the sorted `arcs` and `bsegs` are computed once,
    here, and the analysis is cached on the first valid check.
    """

    def __init__(self, surface, sides, triangles):
        self.surface = surface
        sides = list(sides)
        self.sides = {s.name: s for s in sides}
        if len(self.sides) != len(sides):
            raise SurfaceError("duplicate side ids")
        self.arcs = tuple(sorted(s.name for s in sides if s.is_arc))
        self.bsegs = tuple(sorted(s.name for s in sides if not s.is_arc))
        self.triangles = [tuple(t) for t in triangles]
        for t in self.triangles:
            if len(t) != 3:
                raise SurfaceError("triangle %r does not have three sides" % (t,))
            for s in t:
                if s not in self.sides:
                    raise SurfaceError("triangle references unknown side %r" % s)
        self._analysis = None

    def analysis(self):
        problems = validate_triangulation(self)
        if problems:
            raise SurfaceError("invalid triangulation: " + "; ".join(problems))
        return self._analysis

    # -- text format ---------------------------------------------------------

    def to_text(self):
        s = self.surface
        lines = ["surface genus=%d boundary=%d" % (s.genus, s.boundary)]
        for m in sorted(s.locations):
            loc = s.locations[m]
            if loc is None:
                x = s.scalars[m]
                lines.append("marked %s puncture scalar=%d/%d" % (m, x.numerator, x.denominator))
            else:
                lines.append("marked %s boundary=%d" % (m, loc))
        for name in self.bsegs:
            side = self.sides[name]
            lines.append("bseg %s %s %s on=%d" % (name, side.ends[0], side.ends[1], side.boundary))
        for name in self.arcs:
            side = self.sides[name]
            lines.append("arc %s %s %s" % (name, side.ends[0], side.ends[1]))
        for t in self.triangles:
            lines.append("tri %s %s %s" % t)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text, scalar_overrides=None):
        genus = boundary = None
        locations = {}
        scalars = dict(scalar_overrides or {})
        explicit = {}
        sides = {}
        triangles = []  # (lineno, raw, sides), checked once every side is known
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "surface":
                    if genus is not None:
                        raise ValueError("repeated surface line")
                    opts = _options(parts[1:], ("genus", "boundary"), required=True)
                    genus = int(opts["genus"])
                    boundary = int(opts["boundary"])
                elif kind == "marked":
                    if len(parts) < 3:
                        raise ValueError("missing kind 'puncture' or 'boundary='")
                    name = parts[1]
                    if name in locations:
                        raise ValueError("repeated marked point %r" % name)
                    if parts[2] == "puncture":
                        locations[name] = None
                        opts = _options(parts[3:], ("scalar",))
                        if "scalar" in opts:
                            explicit[name] = Fraction(opts["scalar"])
                    elif parts[2].startswith("boundary="):
                        _options(parts[3:], ())
                        locations[name] = int(parts[2].split("=", 1)[1])
                    else:
                        raise ValueError("unexpected %r" % parts[2])
                elif kind in ("bseg", "arc"):
                    if len(parts) < 4:
                        raise ValueError("missing end point")
                    if kind == "bseg":
                        opts = _options(parts[4:], ("on",), required=True)
                        side = Side(parts[1], kind, (parts[2], parts[3]), int(opts["on"]))
                    else:
                        _options(parts[4:], ())
                        side = Side(parts[1], kind, (parts[2], parts[3]))
                    if side.name in sides:
                        raise ValueError("repeated side id %r" % side.name)
                    sides[side.name] = side
                elif kind == "tri":
                    if len(parts) < 4:
                        raise ValueError("a triangle has three sides")
                    _options(parts[4:], ())
                    triangles.append((lineno, raw, tuple(parts[1:4])))
                else:
                    raise ValueError("unknown line kind %r" % kind)
            except (IndexError, KeyError, ValueError, ZeroDivisionError) as exc:
                why = "%s: %s" % (type(exc).__name__, exc)
                raise SurfaceError.at_line(kind, lineno, raw, why) from exc
        if genus is None:
            raise SurfaceError("missing surface header")
        for name in scalars:
            if locations.get(name, 0) is not None:
                raise SurfaceError("scalar override %r is not a puncture" % name)
        for n, raw, triangle in triangles:
            for s in triangle:
                if s not in sides:
                    raise SurfaceError.at_line("tri", n, raw, "ValueError: unknown side %r" % s)
        explicit.update(scalars)
        surface = MarkedSurface(genus, boundary, locations, explicit)
        return Triangulation(surface, sides.values(), [t for _, _, t in triangles])


class Analysis:
    """Derived structure of a triangulation: corners, rotations, arrow data.

    Populates `problems` instead of raising, so it doubles as the validator.
    Arrow-level structure is only built when the basic shape checks pass.
    A slot (t, m) is position m of triangle t.  The maps, one per fact:

    - `slots_of`: side -> its slots, in triangle order; `segments_on`:
      boundary component -> its segments, sorted;
    - `partner`: slot -> the other slot of its arc, or None on the boundary;
    - `corner_point`: slot -> the point where it ends and the next slot of
      its triangle starts, so slot (t, m) starts at corner (t, m - 1); the
      only orientation map;
    - `self_folded`: triangle -> (folded side, enclosing loop); `fold`: side
      -> itself, or a folded side -> its loop; `fold_back`: loop -> folded
      side; `enclosed`: loop -> the puncture inside it;
    - `puncture_cycle`: puncture -> its corners, counter-clockwise;
      `puncture_ends`: puncture -> the side crossed after each of them;
    - `arrow_of`: contribution (i, j, t, m), i -> j at corner (t, m) of a
      triangle that is not self-folded -> its arrow, `i>j~pP` when i and j
      are the two ends of a valence-2 puncture P, else `i>j~tN` with N = t;
      `provenance`: arrow -> ("triangle", t, m) or ("puncture", p);
      `unreduced`: the quiver of all these arrows, whose only 2-cycles are
      the valence-2 puncture pairs.
    """

    def __init__(self, tri):
        self.tri = tri
        self.problems = list(tri.surface.problems())
        self._shape_checks()
        if self.problems:
            return
        self._solve_corners()
        if self.problems:
            return
        self._walks()
        if self.problems:
            return
        self._arrows()

    # -- incidence and counting checks --------------------------------------

    def _shape_checks(self):
        tri = self.tri
        surf = tri.surface
        sides = tri.sides
        locations = surf.locations
        slots_of = {}
        for t, triple in enumerate(tri.triangles):
            for m, s in enumerate(triple):
                slots_of.setdefault(s, []).append((t, m))
        self.slots_of = slots_of

        for name, side in sides.items():
            n = len(slots_of.get(name, ()))
            is_arc = side.is_arc
            if is_arc and n != 2:
                self.problems.append("arc %r fills %d slots instead of 2" % (name, n))
            if not is_arc and n != 1:
                self.problems.append("boundary segment %r fills %d slots instead of 1" % (name, n))
            for e in side.ends:
                if e not in locations:
                    self.problems.append("side %r ends at unknown point %r" % (name, e))
            if not is_arc:
                for e in side.ends:
                    if locations.get(e, None) != side.boundary:
                        self.problems.append(
                            "boundary segment %r endpoint %r not on component %d"
                            % (name, e, side.boundary))
        if self.problems:
            return

        self.self_folded = {}
        self.fold = {name: name for name in sides}
        self.fold_back = {}
        self.enclosed = {}
        for t, (s0, s1, s2) in enumerate(tri.triangles):
            if s0 != s1 and s1 != s2 and s0 != s2:
                continue
            # one side repeated: a side in all three slots failed its slot count above
            folded, loop = (s0, s2) if s0 == s1 else (s1, s0) if s1 == s2 else (s0, s1)
            fs = sides[folded]
            ls = sides[loop]
            if not (fs.is_arc and ls.is_arc):
                self.problems.append("self-folded triangle %d with non-arc sides" % t)
                continue
            if not ls.is_loop:
                self.problems.append("enclosing side %r of triangle %d is not a loop" % (loop, t))
                continue
            if fs.is_loop:
                self.problems.append("folded side %r of triangle %d is a loop" % (folded, t))
                continue
            base = ls.ends[0]
            other = [e for e in fs.ends if e != base]
            if base not in fs.ends or len(other) != 1:
                self.problems.append(
                    "folded side %r does not join the loop base of triangle %d" % (folded, t))
                continue
            if locations.get(other[0], 0) is not None:
                self.problems.append("folded side %r must end at an interior puncture" % folded)
                continue
            self.self_folded[t] = (folded, loop)
            self.fold[folded] = loop
            self.fold_back[loop] = folded
            self.enclosed[loop] = other[0]
        if self.problems:
            return

        arcs = tri.arcs
        bsegs = tri.bsegs
        n_expected = surf.rank()
        if len(arcs) != n_expected:
            self.problems.append(
                "arc count %d does not match the rank %d of the surface"
                % (len(arcs), n_expected))
        c = len(surf.boundary_marked)
        if len(bsegs) != c:
            self.problems.append(
                "boundary segment count %d does not match marked boundary points %d"
                % (len(bsegs), c))
        euler = len(tri.triangles) - (len(arcs) + len(bsegs)) + len(locations)
        if euler != 2 - 2 * surf.genus - surf.boundary:
            self.problems.append("Euler characteristic mismatch (%d)" % euler)

        points_on = {}  # boundary component -> its marked points
        for m, loc in locations.items():
            if loc is not None:
                points_on.setdefault(loc, set()).add(m)
        self.segments_on = segments_on = {}
        for s in bsegs:
            segments_on.setdefault(sides[s].boundary, []).append(s)
        for k in range(surf.boundary):
            pts = points_on.get(k, ())
            segs = segments_on.get(k, ())
            if len(segs) != len(pts):
                self.problems.append("boundary component %d has %d segments for %d points"
                                     % (k, len(segs), len(pts)))
                continue
            deg = {m: 0 for m in pts}
            for s in segs:
                for e in sides[s].ends:  # on component k, or "not on component" returned above
                    deg[e] += 1
            if any(d != 2 for d in deg.values()):
                self.problems.append("boundary component %d is not partitioned into a cycle" % k)

        if not tri.triangles:
            self.problems.append("triangulation has no triangles")
            return
        adj = {}  # every arc fills two slots by now
        for name in arcs:
            (a, _), (b, _) = slots_of[name]
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            for u in adj.get(frontier.pop(), ()):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != len(tri.triangles):
            self.problems.append("triangulation is not connected")

    # -- orientation and corners ---------------------------------------------

    def _solve_corners(self):
        tri = self.tri
        sides = tri.sides
        cp = self.corner_point = {}
        for t, (s0, s1, s2) in enumerate(tri.triangles):
            e0, e1, e2 = sides[s0].ends, sides[s1].ends, sides[s2].ends
            # slot 0 runs from one end of its side to the other, where slot 1
            # starts, and so on; the chain must close where slot 0 started
            profiles = set()
            for start, x0 in (e0, e0[::-1]):
                x1 = _across(e1, x0)
                x2 = _across(e2, x1)
                if x2 == start:
                    profiles.add((x0, x1, x2))
            if not profiles:
                self.problems.append("sides of triangle %d do not chain into a triangle" % t)
                continue
            # one profile: p-q closes both ways only if side 1 is q-p and side 2 loops at p and q
            ((cp[(t, 0)], cp[(t, 1)], cp[(t, 2)]),) = profiles
        if self.problems:
            return

        # a slot enters at the corner of the slot before it and exits at its own
        partner = self.partner = {}
        for name, slots in self.slots_of.items():
            if len(slots) != 2:
                partner[slots[0]] = None
                continue
            (t, m), (t2, m2) = slots
            partner[(t, m)], partner[(t2, m2)] = (t2, m2), (t, m)
            if cp[(t, m)] != cp[(t2, (m2 - 1) % 3)] or cp[(t2, m2)] != cp[(t, (m - 1) % 3)]:
                self.problems.append("sides of arc %r are glued without reversing" % name)

        for k in range(tri.surface.boundary):
            starts = set()
            for s in self.segments_on.get(k, ()):
                t, m = self.slots_of[s][0]
                a = cp[(t, (m - 1) % 3)]
                if a in starts:
                    self.problems.append("boundary component %d is traversed inconsistently" % k)
                    return
                starts.add(a)
            # distinct starts close up: _shape_checks gives each point two segment ends

    def _walks(self):
        """Rotation structure around each marked point.

        One counter-clockwise step, across the side after a corner into its
        other slot, walks every point.  It is one-to-one, so a walk closes at
        its start or stops at a boundary segment.  For a puncture the walk
        must form a single cycle; the side crossed after each corner is one
        arc end at the point.  At a boundary point it must form one chain,
        from the corner after the segment that ends there, which no step
        enters, across arcs, to the corner before the segment that starts
        there.
        """
        tri = self.tri
        partner = self.partner

        def rotation(start):
            walk = [start]
            t, m = start
            while (nxt := partner[(t, (m + 1) % 3)]) not in (None, start):
                walk.append(nxt)
                t, m = nxt
            return walk

        corners_at = {}  # each list in (t, m) order, the order of corner_point
        for corner, pt in self.corner_point.items():
            corners_at.setdefault(pt, []).append(corner)
        self.puncture_cycle = {}
        for p in tri.surface.punctures:
            corners = corners_at.get(p)
            if not corners:
                self.problems.append("puncture %r is not an endpoint of any side" % p)
                continue
            # no stop: _shape_checks refuses a boundary segment ending at a puncture
            cycle = rotation(corners[0])
            if sorted(cycle) != corners:
                self.problems.append("rotation around puncture %r misses corners" % p)
                continue
            self.puncture_cycle[p] = cycle
        # crossed sides, all arcs: _shape_checks refuses a boundary segment ending at a puncture
        triangles = tri.triangles
        self.puncture_ends = {p: [triangles[t][(m + 1) % 3] for t, m in cycle]
                              for p, cycle in self.puncture_cycle.items()}
        if self.problems:  # a puncture with no good walk is the fault to name
            return
        for segments in self.segments_on.values():
            for s in segments:
                chain = rotation(self.slots_of[s][0])
                point = self.corner_point[chain[0]]
                if sorted(chain) != corners_at[point]:
                    self.problems.append(
                        "rotation around boundary point %r misses corners" % point)

    # -- arrows ----------------------------------------------------------------

    def _arrows(self):
        # i -> j and j -> i at the two corners of a valence-2 puncture with ends i
        # and j are its arrow pair; no other corner has i and j in turn, as both
        # arcs fill their slots in the puncture's two triangles
        tri = self.tri
        self.provenance = {}
        arrows = []
        at_puncture = {}  # (i, j) -> the arrow i -> j of a valence-2 puncture with ends i, j
        for p, ends in self.puncture_ends.items():
            if len(ends) != 2:
                continue
            # two arcs: were both ends one arc, it would fill the second corner's slot and
            # the next one, so the walk would return to that corner at once
            i1, i2 = sorted(ends)
            for (u, v) in ((i1, i2), (i2, i1)):
                name = "%s>%s~p%s" % (u, v, p)
                at_puncture[(u, v)] = name
                self.provenance[name] = ("puncture", p)
                arrows.append(Arrow(name, u, v))
        # each arc and the folded side it encloses, if any, in sorted order
        preimages = {s: (s,) for s in tri.arcs}
        for loop, folded in self.fold_back.items():
            preimages[loop] = tuple(sorted((loop, folded)))
        self.arrow_of = {}
        for t, triple in enumerate(tri.triangles):
            if t in self.self_folded:
                continue
            for m, (a_side, b_side) in enumerate(zip(triple, triple[1:] + triple[:1])):
                if a_side in preimages and b_side in preimages:
                    for i in preimages[a_side]:
                        for j in preimages[b_side]:
                            name = at_puncture.get((i, j))
                            if name is None:
                                name = "%s>%s~t%d" % (i, j, t)
                                self.provenance[name] = ("triangle", t, m)
                                arrows.append(Arrow(name, i, j))
                            self.arrow_of[i, j, t, m] = name
        self.unreduced = Quiver(tri.arcs, arrows)


def validate_triangulation(tri):
    """Diagnostics list; empty means the triangulation is valid."""
    if tri._analysis is not None:
        return []
    a = Analysis(tri)
    if not a.problems:
        tri._analysis = a
    return a.problems


def fold_map(tri):
    """Identity on sides except folded sides, which map to their enclosing loops."""
    return dict(tri.analysis().fold)


def signed_adjacency(tri):
    """Skew-symmetric arc adjacency matrix summed over non-self-folded triangles.

    The net arrow count of the unreduced quiver: the arrow pair of a
    valence-2 puncture stands for two opposite contributions, which cancel.
    """
    return net_matrix(tri.analysis().unreduced)


def unreduced_quiver(tri):
    """Adjacency quiver before 2-cycle deletion, with per-arrow provenance."""
    a = tri.analysis()
    return a.unreduced, dict(a.provenance)


def flip(tri, arc):
    """Replace the arc by the other diagonal of its quadrilateral.

    The two triangles (i, x, y) and (i, u, v) become (i', y, u) and
    (i', v, x); repeated side labels flow through the rule, so self-folded
    triangles are created or consumed as needed.  The result is revalidated
    and checked against the matrix mutation rule.
    """
    a = tri.analysis()
    side = tri.sides.get(arc)
    if side is None or not side.is_arc:
        raise SurfaceError("unknown arc %r" % arc)
    if a.fold[arc] != arc:
        raise SurfaceError("arc %r is a folded side; flip undefined" % arc)
    # two triangles: only a folded side fills two slots of one triangle
    (t1, m1), (t2, m2) = sorted(a.slots_of[arc])
    tri1 = tri.triangles[t1]
    tri2 = tri.triangles[t2]
    x, y = tri1[(m1 + 1) % 3], tri1[(m1 + 2) % 3]
    u, v = tri2[(m2 + 1) % 3], tri2[(m2 + 2) % 3]
    new_arc = arc + "'"
    b_point = a.corner_point[(t1, (m1 + 1) % 3)]
    d_point = a.corner_point[(t2, (m2 + 1) % 3)]

    sides = [s for s in tri.sides.values() if s.name != arc]
    sides.append(Side(new_arc, "arc", (b_point, d_point)))
    triangles = list(tri.triangles)
    triangles[t1] = (new_arc, y, u)
    triangles[t2] = (new_arc, v, x)
    out = Triangulation(tri.surface, sides, triangles)
    problems = validate_triangulation(out)
    if problems:
        raise AssertionError("flip produced an invalid triangulation: " + "; ".join(problems))

    expected = mutate_matrix(signed_adjacency(tri), arc)
    got = signed_adjacency(out)
    relabeled = IntegerMatrix._from_rows(
        [arc if vtx == new_arc else vtx for vtx in got.vertices], got.rows)
    if relabeled != expected:
        raise AssertionError("flip of %r violates the matrix mutation rule" % arc)
    return out
