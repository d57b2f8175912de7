"""Quivers with potentials: validation, premutation, splitting, mutation, restriction."""

from fractions import Fraction
from functools import cached_property

from .algebra import (
    AlgebraElement,
    AlgebraError,
    Path,
    Substitution,
    _check_term,
    arrow_path,
    compose_substitutions,
    least_rotation,
    merge_rotations,
    substitute_words,
    terms_text,
    vertex_path,
)
from .quiver import Quiver, Record, content_lines, hook_name, hooks, premutate_quiver
from . import QpsurfError, linalg

_ONE = Fraction(1)


class QPError(QpsurfError):
    pass


def _check_cycles(quiver, paths, lines=None):
    """Refuse a non-cyclic term or two distinct rotations of one cycle.

    `paths` are the potential's nonzero terms, checked in their order.  With
    `lines`, {path: numbers of its nonzero text lines}, a refusal names the
    lines of the terms it names.
    """
    def refused(message, named):
        if lines is None:
            return QPError(message)
        numbers = sorted({n for p in named for n in lines[p]})
        return QPError("%s (line%s %s)" % (message, "s" if len(numbers) > 1 else "",
                                           ", ".join(map(str, numbers))))

    arrow = quiver.arrow
    first = {}
    pairs = []
    for p in paths:
        w = p.arrows
        if not (w and arrow(w[0]).head == arrow(w[-1]).tail):
            raise refused("potential has a non-cyclic term %r" % (w or "e:" + p.vertex,), [p])
        q = first.setdefault(least_rotation(w), p)
        if q is not p:
            pairs.append((q, p))
    if pairs:
        raise refused("invalid QP: " + "; ".join(
            "cyclically equivalent distinct terms %r and %r" % (q.arrows, p.arrows)
            for q, p in pairs), [t for pair in pairs for t in pair])


class QP:
    """A quiver together with a potential at a fixed truncation order.

    The potential is `words`, {arrow tuple: coefficient}, each term at the
    rotation it was given.  Its element has checked each word, and the
    constructor refuses a non-cyclic term or two distinct rotations of one
    cycle, so every word is a composable cycle and no consumer checks again;
    a QP built from a valid QP's words comes from `_of_words` unchecked.
    The QPs of `premutate_qp`, `split_qp` and `mutate_qp` hold least rotations.

    `exact` says how far the words are those of the untruncated computation:
    None when nothing was dropped, as for a parsed QP, else the degree e such
    that no term of degree <= e was lost.  A split that skips a product marks
    its result exact to its order, and a premutation lowers a bound it is
    given by `_premutation_exact`, computed on the first read.
    """

    _exact = None  # None, a degree, or a function that computes one

    def __init__(self, quiver, potential, order=None):
        if order is None:
            order = potential.order
        if potential.quiver != quiver or potential.order != order:
            raise QPError("potential does not live over this quiver at this order")
        _check_cycles(quiver, potential.terms)
        self.quiver = quiver
        self.words = {p.arrows: c for p, c in potential.terms.items()}
        self.order = int(order)

    @classmethod
    def _of_words(cls, quiver, words, order, exact=None):
        """The QP of words built from a valid QP's, with no check."""
        qp = cls.__new__(cls)
        qp.quiver, qp.words, qp.order, qp._exact = quiver, words, order, exact
        return qp

    @property
    def exact(self):
        if callable(self._exact):
            self._exact = self._exact()
        return self._exact

    @property
    def potential(self):
        """The words as a `Path`-keyed element, built on each access."""
        return AlgebraElement(self.quiver, self.order, {Path(w): c for w, c in self.words.items()})

    def __eq__(self, other):
        if not isinstance(other, QP):
            return NotImplemented
        return (self.quiver == other.quiver and self.order == other.order
                and merge_rotations(self.words.items()) == merge_rotations(other.words.items()))

    def __repr__(self):
        return "QP(%r, %d potential terms, order=%d)" % (self.quiver, len(self.words), self.order)

    def to_text(self):
        terms = sorted(self.words.items(), key=lambda wc: (len(wc[0]), wc[0]))
        return "truncation: %d\n%spotential:\n%s" % (
            self.order, self.quiver.to_text(), terms_text((c, " ".join(w)) for w, c in terms))

    @staticmethod
    def from_text(text):
        """Parse `to_text` output; a bad header, quiver line or term names its line,
        a bad quiver or term line quoted stripped.  Each nonzero term is checked once."""
        order = None
        quiver_lines = []  # `content_lines` triples with the raw line stripped
        potential_lines = []  # (line number, line)
        in_potential = False
        for lineno, raw, line in content_lines(text):
            if line.startswith("truncation:"):
                if order is not None:
                    raise QPError.at_line("truncation", lineno, raw, "repeated truncation line")
                try:
                    order = int(line.split(":", 1)[1])
                except ValueError as exc:
                    raise QPError.at_line("truncation", lineno, raw, exc) from exc
                if order < 1:
                    raise QPError.at_line("truncation", lineno, raw, "order must be >= 1")
            elif line == "potential:":
                in_potential = True
            elif not in_potential:
                quiver_lines.append((lineno, line, line))
            elif line != "0":
                potential_lines.append((lineno, line))
        if order is None:
            raise QPError("missing 'truncation:' header")
        quiver = Quiver._from_lines(quiver_lines)
        terms, lines = {}, {}
        for lineno, line in potential_lines:
            parts = line.split()
            try:
                c = Fraction(parts[0])
                if len(parts) == 2 and parts[1].startswith("e:"):
                    p = vertex_path(parts[1][2:])
                else:
                    p = arrow_path(*parts[1:])
                if c:
                    _check_term(quiver, order, p)
            except (ValueError, ZeroDivisionError) as exc:
                why = "%s: %s" % (type(exc).__name__, exc)
                raise AlgebraError.at_line("term", lineno, line, why) from exc
            terms[p] = terms.get(p, 0) + c
            if c:
                lines.setdefault(p, []).append(lineno)
        terms = {p: c for p, c in terms.items() if c}
        _check_cycles(quiver, terms, lines)
        return QP._of_words(quiver, {p.arrows: c for p, c in terms.items()}, order)


def _premutation(qp, k):
    """The premutated quiver at k and the premutated potential as {word: coefficient}.

    A term is read from its first arrow that does not point into k, so no
    hook is cut: an arrow out of k takes the next arrow, into k, as its hook
    and becomes the composite arrow [a.b].  A term of length L that passes
    through k v times reads as a word of length L - v.  The words are put at
    their least rotations; then the word b* a* [a.b] of each k-hook ab is
    added at its least rotation.  No read word holds the starred name of an
    arrow at k, since `premutate_quiver` refuses an old arrow of that name,
    so no hook word meets a read one.

    The read words need no check.  A QP's term is a composable cycle of a
    loop-free quiver, so some arrow does not point into k, and every visit
    to k is a hook: the arrow before one into k leaves k, and the one after
    it does not enter k.  So each read word keeps no arrow at k, names only
    arrows of the premutated quiver, composes and closes up as its term
    did, and is no longer than it.
    """
    q, order = qp.quiver, qp.order
    quiver = premutate_quiver(q, k)  # rejects an unknown vertex, 2-cycles at k, name collisions
    read = []
    for w, c in qp.words.items():
        i = next(i for i, a in enumerate(w) if q.arrow(a).head != k)
        arrows = iter(w[i:] + w[:i])
        read.append((tuple(hook_name(a, next(arrows)) if q.arrow(a).tail == k else a
                           for a in arrows), c))
    words = merge_rotations(read)
    k_hooks = hooks(q, k)
    if k_hooks and order < 3:
        raise AlgebraError("term of length 3 exceeds order %d" % order)
    for a, b in k_hooks:
        words[least_rotation((b.name + "*", a.name + "*", hook_name(a.name, b.name)))] = _ONE
    return quiver, words


def _premutation_exact(q, k, exact):
    """The degree through which the premutation at k of a QP on q is exact,
    when the QP is exact through degree `exact`.

    A lost term is a cycle c of q longer than `exact`, and premutation reads
    it as a word of length len(c) - v, v its visits to k: the new bound is
    the least len(c) - v - 1, and at most `exact`.  For each length L a walk
    over `q.between` finds the most visits of a closed walk from k; with no
    2-cycle at k, which premutation refuses, each return to k takes at least
    three arrows, so v <= L/3 and the walk stops once 2L/3 - 1 reaches the
    bound.
    """
    most, best, length = {k: 0}, exact, 0  # most: vertex -> most visits to k on the way
    while 2 * (length + 1) < 3 * (best + 1):
        length += 1
        step = {}
        for t, h in q.between:
            if t in most and step.get(h, -1) < most[t] + (h == k):
                step[h] = most[t] + (h == k)
        most = step
        if length > exact and k in most:
            best = min(best, length - most[k] - 1)
    return best


def premutate_qp(qp, k):
    """Premutation at vertex k.

    Every k-hook ab inside a potential term is replaced by the composite
    arrow [a.b], as `_premutation` reads it, and the sum of b* a* [a.b] over
    all k-hooks of the quiver is added.  Every term is written at its least
    rotation: the result is in cyclic normal form as built.  Of an exact QP
    nothing is lost; otherwise `exact` is lowered, when first read.
    """
    exact = None if qp._exact is None else (
        lambda: _premutation_exact(qp.quiver, k, qp.exact))
    return QP._of_words(*_premutation(qp, k), qp.order, exact)


class SplitResult(Record):
    """The trivial and reduced parts of a split, and the steps that made them.

    `steps` are the substitutions `split_qp` applied, first to last: the
    pairing normalisation, then the φ of each sweep.  `witness`, their
    composite, is composed on first access and cached; mutation never reads
    it.
    """

    _fields = ("trivial", "reduced", "steps")

    def __init__(self, trivial, reduced, steps):
        self.trivial = trivial
        self.reduced = reduced
        self.steps = steps

    @cached_property
    def witness(self):
        witness = self.steps[0]
        for phi in self.steps[1:]:
            witness = compose_substitutions(phi, witness)
        return witness


def _diagonal_pairing(quiver, terms):
    """The blocks of a potential's degree-2 part, diagonalised, and its trivial pairs.

    `terms` are the potential's (word, coefficient) pairs in cyclic normal
    form, of which only the words of length 2 are read.  For each unordered
    vertex pair, exact operations bring the bilinear matrix m between the
    opposite arrows xs and ys that those words name to
    p_ops @ m @ q_ops = E_r.  A block is (xs, ys, p_ops, q_ops); its
    trivial pairs are (xs[t], ys[t]) for t < r.  A block whose m is already
    the identity is kept as it is, as (xs, ys, None, None) with r = len(xs):
    Gauss-Jordan would return P = Q = I there.
    """
    blocks = {}
    for w, c in terms:
        if len(w) == 2:
            x = quiver.arrow(w[0])
            blocks.setdefault(tuple(sorted((x.tail, x.head))), {})[w] = c

    diagonal = []
    pairs = []
    for (u, v) in sorted(blocks):
        coeffs = blocks[(u, v)]
        xs = sorted({name for w in coeffs for name in w if quiver.arrow(name).tail == u})
        ys = sorted({name for w in coeffs for name in w if quiver.arrow(name).tail == v})
        m = [[coeffs.get(least_rotation((x, y)), Fraction(0)) for y in ys] for x in xs]
        if m == linalg.identity(len(ys)):
            p_ops, q_ops, r = None, None, len(xs)
        else:
            p_ops, q_ops, r = linalg.diagonalize_pairing(m)
        # each word of the block is nonzero at its least rotation, so m != 0 and r >= 1
        diagonal.append((xs, ys, p_ops, q_ops))
        pairs.extend((xs[t], ys[t]) for t in range(r))
    return diagonal, pairs


def _split_words(quiver, terms, order, exact=None):
    """The split of valid words, {word: coefficient} at their least rotations.

    First an arrow basis change makes the degree-2 part a sum of distinct
    2-cycles a b, one per trivial pair: each block of `_diagonal_pairing`
    changes only its own arrows, an arrow gets an image only where that
    image is not the arrow itself, and a block kept as the identity gets
    none.  Then the pairs are handled one at a time.  For the pair (a, b),
    the terms other than a b that contain a, rotated to start with a, give
    their rests to u; those that contain b but not a, rotated to end with b,
    give their prefixes to v.  The unitriangular substitution a -> a - v,
    b -> b - u removes the cross terms a u and v b and pushes any new ones
    into strictly higher degree, since u and v hold words of length >= 2.
    Sweeping over the pairs until no pair moves terminates at the
    truncation order.  Each substitution is applied by `substitute_words`
    and `merge_rotations`, so the terms stay in cyclic normal form.

    Returns the reduced QP, the only QP built here, then the trivial terms
    (the pairs' 2-cycles), the pairs and each step's images as
    {arrow: [(word, coefficient), ...]}: the pairing's first, empty when no
    arrow moves, then one per substitution a sweep applied.  The reduced QP
    keeps the words' `exact`, or is exact to `order` if a product was
    skipped: a substitution moves an arrow by terms of its own degree and
    higher, so a lost term of degree > e changes only degrees > e.
    """
    blocks, pairs = _diagonal_pairing(quiver, terms.items())
    skipped = False
    images = {}
    for xs, ys, p_ops, q_ops in blocks:
        if p_ops is None:
            continue
        # p_ops @ m @ q_ops = E_r, so send x_i to sum_i' p_ops[i'][i] x_i'
        # and y_j to sum_j' q_ops[j][j'] y_j'.
        columns = [(x, xs, [row[i] for row in p_ops]) for i, x in enumerate(xs)]
        columns += [(y, ys, q_ops[j]) for j, y in enumerate(ys)]
        for name, names, coeffs in columns:
            img = [((n,), c) for n, c in zip(names, coeffs) if c]
            if img != [((name,), 1)]:
                images[name] = img
    if images:
        terms, skipped = substitute_words(images, terms.items(), order)
        terms = merge_rotations(terms.items())
    reps = {pair: least_rotation(pair) for pair in pairs}
    if {w: c for w, c in terms.items() if len(w) == 2} != dict.fromkeys(reps.values(), 1):
        raise QPError("pairing normalisation failed")
    steps = [images]

    for _ in range(order + 3):
        changed = False
        for (a, b), rep in reps.items():
            img_a, img_b = {(a,): 1}, {(b,): 1}
            for w, c in terms.items():
                if w == rep:
                    continue
                if a in w:  # u goes into b's image, v into a's
                    i = w.index(a)
                    img = img_b
                elif b in w:
                    i = w.index(b)
                    img = img_a
                else:
                    continue
                rest = w[i + 1:] + w[:i]
                img[rest] = img.get(rest, 0) - c
            images = {a: [t for t in img_a.items() if t[1]], b: [t for t in img_b.items() if t[1]]}
            if len(images[a]) == len(images[b]) == 1:
                continue
            changed = True
            terms, skip = substitute_words(images, terms.items(), order)
            terms, skipped = merge_rotations(terms.items()), skipped or skip
            steps.append(images)
        if not changed:
            break
    else:
        raise QPError("splitting did not converge within the truncation order")

    trivial_arrows = {name for pair in pairs for name in pair}
    trivial = {}
    reduced = {}
    for w, c in terms.items():
        if trivial_arrows.isdisjoint(w):
            reduced[w] = c
        elif len(w) != 2:
            raise QPError("trivial arrow leaked into a higher-degree term")
        else:
            trivial[w] = c
    if any(len(w) == 2 for w in reduced):
        raise QPError("reduced part kept a degree-2 term")
    if skipped and exact is None:
        exact = order
    return (QP._of_words(_reduced_quiver(quiver, pairs), reduced, order, exact),
            trivial, pairs, steps)


def _reduced_quiver(quiver, pairs):
    """The quiver less the arrows of the trivial pairs."""
    trivial = {name for pair in pairs for name in pair}
    return quiver._with_arrows(tuple(a for a in quiver.arrows if a.name not in trivial))


def split_qp(qp):
    """Split a QP into its trivial and reduced parts with an explicit witness.

    The words are brought to their least rotations and split by
    `_split_words`: the degree-2 pairing is normalised, then sweeps of
    unitriangular substitutions clear each trivial pair's cross terms.  The
    images of each step are wrapped into a `Substitution`, which checks
    their endpoints; the witness, their composite, is composed on first
    access.
    """
    quiver, order = qp.quiver, qp.order
    reduced, trivial, pairs, steps = _split_words(quiver, merge_rotations(qp.words.items()), order,
                                                  qp._exact)
    steps = [Substitution(quiver, quiver, order, {
        name: AlgebraElement(quiver, order, {Path(w): c for w, c in img})
        for name, img in images.items()}) for images in steps]
    names = {name for pair in pairs for name in pair}
    triv_quiver = quiver._with_arrows(tuple(a for a in quiver.arrows if a.name in names))
    return SplitResult(trivial=QP._of_words(triv_quiver, trivial, order), reduced=reduced,
                       steps=steps)


def mutate_qp(qp, k):
    """QP-mutation: the reduced part of the premutation at k.

    The premutation's words, at their least rotations as `_premutation`
    reads them, go straight to the split core, with no witness built.  The
    sweep images are rests of the premutation's own cycles, so their
    endpoints hold by construction.
    """
    return _reduced_part(premutate_qp(qp, k))


def _reduced_part(pre):
    """The reduced QP of the split of a premutation, as `mutate_qp` makes it."""
    return _split_words(pre.quiver, pre.words, pre.order, pre._exact)[0]


def mutated_quiver(qp, k):
    """`mutate_qp(qp, k).quiver`, arrow names included, from the premutation's degree-2 part.

    The split drops the arrows of the trivial pairs, which the premutation's
    degree-2 part decides alone: the sweeps change the potential, never
    which arrows are trivial.  That part is the premutation's words of
    length 2, which `_premutation` reads as for `mutate_qp`, so the two
    refuse alike; its hook words have length 3 and are not read.
    """
    quiver, words = _premutation(qp, k)
    return _reduced_quiver(quiver, _diagonal_pairing(quiver, words.items())[1])


def restrict_qp(qp, keep):
    """Restriction to a vertex subset: arrows and potential terms outside die.

    The vertex set is unchanged; vertices outside the subset become isolated.
    """
    keep = set(keep)
    unknown = keep - set(qp.quiver.vertices)
    if unknown:
        raise QPError("unknown vertices %r" % sorted(unknown))
    kept_arrows = [a for a in qp.quiver.arrows if a.tail in keep and a.head in keep]
    names = {a.name for a in kept_arrows}
    return QP._of_words(Quiver(qp.quiver.vertices, kept_arrows),
                        {w: c for w, c in qp.words.items() if names.issuperset(w)}, qp.order,
                        qp._exact)
