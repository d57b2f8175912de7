"""Loop-free quivers, the skew-matrix correspondence, and quiver mutation.

Also the rules other modules share: value semantics for record classes, the
content lines of quiver and QP text, the grouping of arrows by endpoints and
the net arrow count read from it, and the k-hooks.
"""

from operator import attrgetter, neg

from . import QpsurfError

_setattr = object.__setattr__
_name = attrgetter("name")


class QuiverError(QpsurfError):
    pass


class Record:
    """Value semantics driven by the class's field tuple `_fields`.

    A record equals a record of the same class with equal fields, shows as
    `Name(field=value, ...)`, and is unhashable, since its fields may change.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)  # record -> tuple of its fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            "%s=%r" % fv for fv in zip(self._fields, self._values(self))))


class FrozenRecord(Record):
    """A record whose fields are fixed once `__init__` has set them.

    Hashes as its field tuple and pickles through its constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)


class Arrow(FrozenRecord):
    """Named arrow tail -> head.  Immutable; compares and hashes as (name, tail, head)."""

    __slots__ = _fields = ("name", "tail", "head")

    def __init__(self, name, tail, head):
        _setattr(self, "name", name)
        _setattr(self, "tail", tail)
        _setattr(self, "head", head)


class Quiver:
    """Finite loop-free directed multigraph with named arrows.

    Vertices are opaque string ids, kept in lexicographic order.  Arrows are
    kept sorted by name.  `between` maps each (tail, head) that carries an
    arrow to the list of its arrows, in name order, with the keys in order
    of first appearance among the arrows; it is built once, and callers must
    not mutate its lists.  Instances are immutable; all operations return new quivers.
    """

    def __init__(self, vertices, arrows=()):
        self.vertices = tuple(sorted(vertices))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        self.arrows = tuple(sorted(arrows, key=_name))
        self._by_name = {}
        self.between = {}
        for a in self.arrows:
            if a.name in self._by_name:
                raise QuiverError("duplicate arrow id %r" % a.name)
            if a.tail not in vset or a.head not in vset:
                raise QuiverError("arrow %r has undeclared endpoint" % a.name)
            if a.tail == a.head:
                raise QuiverError("arrow %r is a loop" % a.name)
            self._by_name[a.name] = a
            self.between.setdefault((a.tail, a.head), []).append(a)

    def _with_arrows(self, arrows):
        """A quiver on the same vertices; `arrows` is a tuple of sorted, checked
        arrows on those vertices.

        No endpoint, loop or name is checked again: `_by_name` keeps one
        arrow of a repeated name, so a caller that may repeat one compares
        its length with `arrows`.
        """
        out = object.__new__(Quiver)
        out.vertices, out.arrows = self.vertices, arrows
        out._by_name = {a.name: a for a in arrows}
        out.between = {}
        for a in arrows:
            out.between.setdefault((a.tail, a.head), []).append(a)
        return out

    def arrow(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise QuiverError("unknown arrow id %r" % name) from None

    def has_arrow(self, name):
        return name in self._by_name

    def multiplicities(self):
        """Map (tail, head) -> number of parallel arrows, keyed in the order of `between`."""
        return {key: len(group) for key, group in self.between.items()}

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices), len(self.arrows))

    def to_text(self):
        lines = ["v %s" % v for v in self.vertices]
        lines += ["a %s %s %s" % (a.name, a.tail, a.head) for a in self.arrows]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        """Parse `to_text` output; a bad line raises QuiverError naming it."""
        return Quiver._from_lines(content_lines(text))

    @staticmethod
    def _from_lines(lines):
        """The quiver of `content_lines` triples; a refusal quotes the raw line.

        A repeated id, a loop and an undeclared endpoint name their line too;
        endpoints are checked once every vertex line is read.
        """
        vertices = set()
        arrows = {}  # name -> (line number, line, arrow)
        for n, raw, line in lines:
            kind, *ids = line.split()
            if kind == "v" and len(ids) == 1:
                if ids[0] in vertices:
                    raise QuiverError.at_line("quiver", n, raw, "repeated vertex id %r" % ids[0])
                vertices.add(ids[0])
            elif kind == "a" and len(ids) == 3:
                a = Arrow(*ids)
                if a.name in arrows:
                    raise QuiverError.at_line("quiver", n, raw, "repeated arrow id %r" % a.name)
                if a.tail == a.head:
                    raise QuiverError.at_line("quiver", n, raw, "arrow %r is a loop" % a.name)
                arrows[a.name] = (n, raw, a)
            else:
                raise QuiverError.at_line("quiver", n, raw)
        for n, raw, a in arrows.values():
            for end in (a.tail, a.head):
                if end not in vertices:
                    raise QuiverError.at_line("quiver", n, raw,
                                              "arrow %r has undeclared endpoint %r" % (a.name, end))
        return Quiver(vertices, [a for _, _, a in arrows.values()])


def content_lines(text):
    """Yield (line number from 1, raw line, stripped line) for each line of
    quiver or QP text that is neither blank nor a whole-line `#` comment.
    A later `#` is kept, since arrow names may contain it."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line


class IntegerMatrix:
    """Square integer matrix whose rows/columns are indexed by vertex ids.

    An entry x is stored as int(x); one with int(x) != x is refused, not
    truncated.
    """

    def __init__(self, vertices, rows):
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        given = [tuple(row) for row in rows]
        if len(given) != n or any(len(r) != n for r in given):
            raise QuiverError("matrix shape does not match vertex count")
        rows = tuple(tuple(map(int, row)) for row in given)
        for i, (row, ints) in enumerate(zip(given, rows)):
            if row != ints:
                j, x = next((j, x) for j, (x, y) in enumerate(zip(row, ints)) if x != y)
                raise QuiverError("matrix entry %r at row %r, column %r is not an integer"
                                  % (x, self.vertices[i], self.vertices[j]))
        self.rows = rows
        self._index = {v: i for i, v in enumerate(self.vertices)}

    @staticmethod
    def _from_rows(vertices, rows, index=None):
        """A matrix whose `rows`, a tuple of n int tuples, are not checked
        again; `index` maps each vertex to its position, if the caller has it."""
        out = object.__new__(IntegerMatrix)
        out.vertices, out.rows = tuple(vertices), rows
        out._index = index if index is not None else {v: i for i, v in enumerate(out.vertices)}
        return out

    def entry(self, i, j):
        return self.rows[self._index[i]][self._index[j]]

    _skew = None  # is_skew_symmetric's answer, once asked or known

    def is_skew_symmetric(self):
        """Computed once per matrix, which is immutable."""
        if self._skew is None:
            self._skew = self.rows == tuple(zip(*[map(neg, row) for row in self.rows]))
        return self._skew

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.vertices == other.vertices:
            return self.rows == other.rows
        if self._index.keys() != other._index.keys():
            return False
        # other's entries in this matrix's vertex order
        perm = [other._index[v] for v in self.vertices]
        return all(row == tuple(map(other.rows[p].__getitem__, perm))
                   for row, p in zip(self.rows, perm))

    def __repr__(self):
        return "IntegerMatrix(%r)" % (self.vertices,)

    def to_text(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows) + "\n"


def is_two_acyclic(q):
    """True iff no ordered vertex pair carries arrows in both directions."""
    return all((j, i) not in q.between for (i, j) in q.between)


def quiver_from_matrix(b):
    """2-acyclic quiver of a skew-symmetric matrix: b_ij > 0 gives b_ij arrows i -> j."""
    if not b.is_skew_symmetric():
        raise QuiverError("matrix is not skew-symmetric")
    arrows = []
    for i in b.vertices:
        for j in b.vertices:
            m = b.entry(i, j)
            for k in range(1, m + 1):
                arrows.append(Arrow("%s>%s#%d" % (i, j, k), i, j))
    return Quiver(b.vertices, arrows)


def net_matrix(q):
    """Signed adjacency B of a quiver: B[i][j] = arrows i -> j minus arrows j -> i."""
    index = {v: n for n, v in enumerate(q.vertices)}
    n = len(index)
    rows = [[0] * n for _ in range(n)]
    for (i, j), group in q.between.items():
        i, j = index[i], index[j]
        rows[i][j] += len(group)
        rows[j][i] -= len(group)
    out = IntegerMatrix._from_rows(q.vertices, tuple(map(tuple, rows)), index)
    out._skew = True  # each arrow adds to B[i][j] what it takes from B[j][i]
    return out


def matrix_from_quiver(q):
    """Inverse of quiver_from_matrix; rejects quivers with a 2-cycle."""
    if not is_two_acyclic(q):
        raise QuiverError("quiver has a 2-cycle; matrix entries would be ill-defined")
    return net_matrix(q)


def _check_mutable(q, k):
    if k not in q.vertices:
        raise QuiverError("unknown vertex %r" % k)
    for (i, j) in q.between:
        if j == k and (k, i) in q.between:
            raise QuiverError("2-cycle incident to vertex %r" % k)


def hook_name(a, b):
    """Name of the composite arrow replacing the hook ab."""
    return "[%s.%s]" % (a, b)


def hooks(q, k):
    """The k-hooks of q: arrow pairs (a, b) with t(a) = k = h(b), in name order."""
    outgoing = [a for a in q.arrows if a.tail == k]
    incoming = [b for b in q.arrows if b.head == k]
    return [(a, b) for a in outgoing for b in incoming]


def premutate_quiver(q, k):
    """Premutation at k: composite arrows for all k-hooks, reverse arrows at k.

    A k-hook is a length-2 path ab with t(a) = k = h(b); it yields a new arrow
    [a.b] : t(b) -> h(a).  Arrows incident to k get replaced by reversals
    named with a trailing '*'.

    The arrows of q are checked, so only the new names are: a '*' or hook
    name that an old arrow already holds is refused.  No endpoint or loop
    check is needed.  The vertices do not change, a reversed arrow keeps its
    endpoints, and a hook arrow would be a loop only through a 2-cycle at k,
    which `_check_mutable` refuses.
    """
    _check_mutable(q, k)
    arrows = [Arrow(a.name + "*", a.head, a.tail) if k in (a.tail, a.head) else a
              for a in q.arrows]
    arrows += [Arrow(hook_name(a.name, b.name), b.tail, a.head) for a, b in hooks(q, k)]
    arrows.sort(key=_name)
    out = q._with_arrows(tuple(arrows))
    if len(out._by_name) < len(arrows):
        raise QuiverError("duplicate arrow id %r" % next(
            x.name for x, y in zip(arrows, arrows[1:]) if x.name == y.name))
    return out


def mutate_quiver(q, k):
    """Quiver mutation: premutation, then the removal of a maximal disjoint
    collection of 2-cycles, pairing smallest names first: for each i < j,
    the n-th arrow i -> j cancels the n-th arrow j -> i while both last."""
    pre = premutate_quiver(q, k)
    removed = set()
    for (i, j), fwd in pre.between.items():
        if i < j and (j, i) in pre.between:
            for pair in zip(fwd, pre.between[(j, i)]):
                removed.update(pair)
    return Quiver(q.vertices, [a for a in pre.arrows if a not in removed])


def mutate_matrix(b, k):
    """Matrix mutation rule for skew-symmetric integer matrices.

    Computed directly on entries: b'_ij = -b_ij if i or j is k, else
    b_ij + sgn(b_ik) [b_ik b_kj]_+.  It checks the quiver route and
    triangulation flips, and `explore` finds each child's node with it.
    """
    if not b.is_skew_symmetric():
        raise QuiverError("matrix is not skew-symmetric")
    if k not in b.vertices:
        raise QuiverError("unknown vertex %r" % k)
    ki = b.vertices.index(k)
    row_k = b.rows[ki]
    parts = ([x if x > 0 else 0 for x in row_k], [-x if x < 0 else 0 for x in row_k])
    rows = []
    for row in b.rows:
        c = row[ki]
        if c:  # b_ij + b_ik [b_kj]_+ if b_ik > 0, else b_ij + b_ik [-b_kj]_+
            row = [x + c * y for x, y in zip(row, parts[c < 0])]
            row[ki] = -c
            row = tuple(row)
        rows.append(row)
    rows[ki] = tuple(map(neg, row_k))
    out = IntegerMatrix._from_rows(b.vertices, tuple(rows), b._index)
    out._skew = True  # mutation keeps a matrix skew-symmetric
    return out
