"""Truncated arithmetic in the complete path algebra of a quiver.

Elements are finite rational combinations of paths of length at most a fixed
truncation order D.  Multiplication discards any product path longer than D,
which is exact in every degree up to D.  Paths compose like functions: in the
word a1 a2 ... ad the arrow ad is traversed first, so t(a_j) = h(a_{j+1}),
the word starts at t(ad) and ends at h(a1).
"""

from fractions import Fraction
from functools import total_ordering

from . import QpsurfError
from .quiver import FrozenRecord

_ONE = Fraction(1)
_setattr = object.__setattr__


class AlgebraError(QpsurfError):
    pass


@total_ordering
class Path(FrozenRecord):
    """Arrow-id word; a length-0 path carries its vertex instead.

    Immutable.  Compares, orders and hashes as the tuple (arrows, vertex).
    """

    __slots__ = _fields = ("arrows", "vertex")

    def __init__(self, arrows, vertex=""):
        if len(arrows) > 0 and vertex:
            raise AlgebraError("positive-length path must not carry a vertex")
        if len(arrows) == 0 and not vertex:
            raise AlgebraError("length-0 path needs a vertex")
        _setattr(self, "arrows", arrows)
        _setattr(self, "vertex", vertex)

    def __lt__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return (self.arrows, self.vertex) < (other.arrows, other.vertex)

    def __len__(self):
        return len(self.arrows)


def vertex_path(v):
    return Path((), v)


def arrow_path(*names):
    return Path(tuple(names))


def path_tail(quiver, p):
    if len(p) == 0:
        return p.vertex
    return quiver.arrow(p.arrows[-1]).tail


def path_head(quiver, p):
    if len(p) == 0:
        return p.vertex
    return quiver.arrow(p.arrows[0]).head


def check_word(quiver, order, word):
    """Refuse a positive-length term's word: longer than `order`, naming an
    unknown arrow, or not composable, checked in that order.

    Returns the word's arrows, so a caller can read its endpoints.
    """
    if len(word) > order:
        raise AlgebraError("term of length %d exceeds order %d" % (len(word), order))
    arrows = [quiver.arrow(name) for name in word]
    for x, y in zip(arrows, arrows[1:]):
        if x.tail != y.head:
            raise AlgebraError("non-composable path %r" % (word,))
    return arrows


def _check_term(quiver, order, p):
    if p.arrows:
        check_word(quiver, order, p.arrows)
    elif p.vertex not in quiver.vertices:
        raise AlgebraError("unknown vertex %r" % p.vertex)


def least_rotation(arrows):
    """Lexicographically least rotation of a cyclic arrow tuple."""
    return min(arrows[k:] + arrows[:k] for k in range(len(arrows)))


class AlgebraElement:
    """Finite sum of rational coefficients times paths, truncated at order D.

    Each term is checked when built.  Treated as immutable: operations
    return fresh elements and never mutate their inputs.
    """

    def __init__(self, quiver, order, terms=None):
        if order < 1:
            raise AlgebraError("truncation order must be >= 1")
        self.quiver = quiver
        self.order = int(order)
        clean = {}
        for p, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            _check_term(quiver, self.order, p)
            clean[p] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(quiver, order):
        return AlgebraElement(quiver, order, {})

    @staticmethod
    def from_path(quiver, order, p, coeff=1):
        return AlgebraElement(quiver, order, {p: Fraction(coeff)})

    @staticmethod
    def from_word(quiver, order, names, coeff=1):
        return AlgebraElement.from_path(quiver, order, arrow_path(*names), coeff)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coefficient(self, p):
        return self.terms.get(p, Fraction(0))

    def degree_part(self, d):
        return AlgebraElement(self.quiver, self.order,
                              {p: c for p, c in self.terms.items() if len(p) == d})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda pc: (len(pc[0]), pc[0].vertex, pc[0].arrows))

    # -- arithmetic --------------------------------------------------------

    def _compatible(self, other):
        if self.quiver != other.quiver or self.order != other.order:
            raise AlgebraError("mixed quivers or truncation orders")

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, Fraction(0)) + c
        return AlgebraElement(self.quiver, self.order, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return AlgebraElement(self.quiver, self.order, {p: c * v for p, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._compatible(other)
        q = self.quiver
        out = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                if len(p1) + len(p2) > self.order:
                    continue
                if path_tail(q, p1) != path_head(q, p2):
                    continue
                if len(p1) == 0 and len(p2) == 0:
                    prod = p1
                elif len(p1) == 0:
                    prod = p2
                elif len(p2) == 0:
                    prod = p1
                else:
                    prod = Path(p1.arrows + p2.arrows)
                out[prod] = out.get(prod, Fraction(0)) + c1 * c2
        return AlgebraElement(self.quiver, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.quiver == other.quiver and self.order == other.order
                and self.terms == other.terms)

    def __repr__(self):
        return "AlgebraElement(order=%d, %d terms)" % (self.order, len(self.terms))

    # -- text form ---------------------------------------------------------

    def to_text(self):
        return terms_text((c, "e:%s" % p.vertex if len(p) == 0 else " ".join(p.arrows))
                          for p, c in self.sorted_terms())


def terms_text(terms):
    """One `<num>/<den> <word>` line per (coefficient, word text) pair, or "0"."""
    return "".join("%d/%d %s\n" % (c.numerator, c.denominator, w) for c, w in terms) or "0\n"


def truncate(x, order):
    """The same element at a lower truncation order; longer terms drop."""
    if order > x.order:
        raise AlgebraError("cannot deepen an element from order %d to %d" % (x.order, order))
    return AlgebraElement(x.quiver, order, {p: c for p, c in x.terms.items() if len(p) <= order})


# -- potentials ------------------------------------------------------------


def is_cyclic_element(x):
    """True iff every term is a cyclic path of positive length."""
    arrow = x.quiver.arrow
    return all(p.arrows and arrow(p.arrows[0]).head == arrow(p.arrows[-1]).tail for p in x.terms)


def merge_rotations(terms):
    """Sum (word, coefficient) pairs at their least rotations.

    A zero coefficient is skipped and a zero sum dropped; the words come out
    in order of first appearance.  The words are not checked to be cycles.
    """
    out = {}
    for w, c in terms:
        if c:
            r = least_rotation(w)
            out[r] = out[r] + c if r in out else c
    return {r: c for r, c in out.items() if c}


def cyclic_normal_form(x):
    """Rotate every term to its least rotation and merge equal paths.

    Two potentials are cyclically equivalent at a given order exactly when
    their normal forms agree.  The element must be cyclic: a non-cyclic or
    degree-0 term is refused.  The merge is `merge_rotations`.
    """
    if not is_cyclic_element(x):
        raise AlgebraError("element has a non-cyclic or degree-0 term")
    terms = merge_rotations((p.arrows, c) for p, c in x.terms.items())
    return AlgebraElement(x.quiver, x.order, {Path(r): c for r, c in terms.items()})


def cyclically_equivalent(x, y):
    return cyclic_normal_form(x) == cyclic_normal_form(y)


def word_derivatives(terms):
    """The cyclic derivatives of a sum of cycles, all arrows in one pass.

    `terms` are (arrow tuple, coefficient) pairs.  The result maps each
    arrow to {rest word: coefficient}: an occurrence of the arrow at
    position i of w adds the coefficient of w to w[i+1:] + w[:i].  An arrow
    in no word is absent.  Words that are not rotations of one another give
    no common rest word, so on a QP's potential no sum cancels.  The words
    are not checked to be cycles, and a loop-free quiver gives no empty
    rest word.
    """
    out = {}
    for w, c in terms:
        for i, a in enumerate(w):
            d = out.get(a)
            if d is None:
                d = out[a] = {}
            r = w[i + 1:] + w[:i]
            d[r] = d.get(r, 0) + c
    return out


def cyclic_derivative(x, arrow_name):
    """Sum over occurrences of the arrow of the rotated remainder of each cycle."""
    x.quiver.arrow(arrow_name)
    if not is_cyclic_element(x):
        raise AlgebraError("cyclic derivative needs a cyclic element")
    d = word_derivatives((p.arrows, c) for p, c in x.terms.items()).get(arrow_name, {})
    return AlgebraElement(x.quiver, x.order, {Path(r): c for r, c in d.items()})


# -- substitutions ---------------------------------------------------------


class Substitution:
    """Vertex-fixing algebra map determined by images of the base arrows.

    `images` holds the arrows the map moves, by name.  An arrow without an
    image maps to the arrow of the same name in the target quiver, which
    must exist with the same endpoints.  Every image term must be a
    positive-length path with the same endpoints as the arrow it replaces.
    """

    def __init__(self, base, target, order, images=None):
        if base.vertices != target.vertices:
            raise AlgebraError("base and target quivers must share the vertex set")
        self.base = base
        self.target = target
        self.order = int(order)
        images = images or {}
        for name in images:
            if not base.has_arrow(name):
                raise AlgebraError("image given for %r, which is not an arrow of the base" % name)
        for a in base.arrows:
            img = images.get(a.name)
            if img is None:
                if not target.has_arrow(a.name):
                    raise AlgebraError("no image for arrow %r and no identity candidate" % a.name)
                t = target.arrow(a.name)
                if t.tail != a.tail or t.head != a.head:
                    raise AlgebraError("image term of %r has wrong endpoints" % a.name)
                continue
            if img.quiver != target or img.order != self.order:
                raise AlgebraError("image of %r lives in the wrong algebra" % a.name)
            for p in img.terms:
                if len(p) == 0:
                    raise AlgebraError("image of %r has a degree-0 term" % a.name)
                if path_tail(target, p) != a.tail or path_head(target, p) != a.head:
                    raise AlgebraError("image term of %r has wrong endpoints" % a.name)
        self.images = dict(images)

    @staticmethod
    def identity(quiver, order):
        return Substitution(quiver, quiver, order)

    def is_identity(self):
        return self.base == self.target and all(
            img.terms == {arrow_path(name): _ONE} for name, img in self.images.items())


def _word_length(term):
    return len(term[0])


def substitute_words(images, terms, order):
    """Expand (word, coefficient) pairs under arrow images, truncating at `order`.

    `images` maps a moved arrow to its image as (word, coefficient) pairs,
    read once and sorted shortest first; an arrow without an image is
    appended as it is, with no coefficient product, and a word that moves
    no arrow is taken whole.  Returns {word: coefficient}, zero sums
    included, in order of first appearance.  A partial word stops taking
    image terms at the first one that cannot stay within `order`, and a
    word longer than `order` is dropped.  The words must have positive
    length; nothing is checked.
    """
    images = {name: sorted(img, key=_word_length) for name, img in images.items()}
    out = {}
    for w, c in terms:
        room = order - len(w)
        if room < 0:
            continue
        if images.keys().isdisjoint(w):
            out[w] = out[w] + c if w in out else c
            continue
        acc = [((), c)]
        for name in w:
            room += 1
            img = images.get(name)
            if img is None:
                # every partial word fits its room, so the arrow itself fits too
                acc = [(v + (name,), a) for v, a in acc]
                continue
            grown = []
            for v, a in acc:
                fit = room - len(v)
                for u, b in img:
                    if len(u) > fit:
                        break
                    grown.append((v + u, a * b))
            acc = grown
            if not acc:
                break
        for v, a in acc:
            out[v] = out[v] + a if v in out else a
    return out


def apply_substitution(f, x):
    """Extend the arrow images multiplicatively and linearly, truncating at D.

    The images, as (arrow tuple, coefficient) pairs, expand the
    positive-length words of x by `substitute_words`; a degree-0 term is
    kept as it is.  The expanded words need no composability check:
    `Substitution` gives every image term its arrow's endpoints, so the
    images of a composable word compose.
    """
    if x.quiver != f.base or x.order != f.order:
        raise AlgebraError("element does not live over the substitution's base")
    images = {name: [(p.arrows, c) for p, c in img.terms.items()]
              for name, img in f.images.items()}
    terms = {p: c for p, c in x.terms.items() if not p.arrows}
    out = substitute_words(images, ((p.arrows, c) for p, c in x.terms.items() if p.arrows),
                           f.order)
    for w, a in out.items():
        if a:
            terms[Path(w)] = a
    return AlgebraElement(f.target, f.order, terms)


def compose_substitutions(f, g):
    """Substitution acting as f after g."""
    if g.target != f.base or f.order != g.order:
        raise AlgebraError("substitutions do not compose")
    images = {name: img for name, img in f.images.items()
              if name not in g.images and g.base.has_arrow(name)}
    images.update((name, apply_substitution(f, img)) for name, img in g.images.items())
    return Substitution(g.base, f.target, f.order, images)


def substitution_is_isomorphism(f):
    """Check invertibility of the degree-1 part, blockwise over vertex pairs."""
    from . import linalg

    base, target = f.base.between, f.target.between
    for key in sorted(base.keys() | target.keys()):
        rows = [a.name for a in base.get(key, ())]
        cols = [a.name for a in target.get(key, ())]
        if len(rows) != len(cols):
            return False
        m = [[f.images[r].coefficient(arrow_path(c)) if r in f.images else int(r == c)
              for c in cols] for r in rows]
        if linalg.rank(m) != len(rows):
            return False
    return True
