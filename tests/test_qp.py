import hashlib
import itertools
import random
import re
import warnings
from fractions import Fraction

import pytest

from oracles import oracle_derivative, oracle_rank
from qpsurf.algebra import (
    AlgebraElement,
    AlgebraError,
    Path,
    Substitution,
    apply_substitution,
    arrow_path,
    cyclic_normal_form,
    cyclically_equivalent,
    least_rotation,
    substitute_words,
    substitution_is_isomorphism,
    vertex_path,
)
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.potential import qp_of_triangulation
from qpsurf.qp import (
    QP,
    QPError,
    _diagonal_pairing,
    mutate_qp,
    mutated_quiver,
    premutate_qp,
    restrict_qp,
    split_qp,
)
from qpsurf.quiver import Arrow, Quiver, QuiverError, mutate_quiver, premutate_quiver
from qpsurf.surface import Triangulation


def word(q, order, *names):
    return AlgebraElement.from_word(q, order, names)


def is_trivial_qp(qp):
    """Degree-2 potential whose cyclic derivatives span the arrow space, by
    the oracles' rotation formula and dense rank."""
    if any(len(p) != 2 for p in qp.potential.terms):
        return False
    terms = [(p.arrows, c) for p, c in qp.potential.terms.items()]
    names = [a.name for a in qp.quiver.arrows]
    rows = [{r: c for (r,), c in oracle_derivative(qp.quiver, terms, a).items()} for a in names]
    return oracle_rank(rows, names) == len(names)


def quiver_mutation_matches(qp, k):
    """Whether QP-mutation at k lands on the plainly mutated quiver.

    The two can legitimately differ: the potential decides which 2-cycles of
    the premutation get removed, so a degenerate pairing leaves 2-cycles that
    plain quiver mutation would cancel.
    """
    return mutated_quiver(qp, k).multiplicities() == mutate_quiver(qp.quiver, k).multiplicities()


def cycle_quiver():
    # c: 1->2, b: 2->3, a: 3->1; the word abc is a cycle through vertex 2
    return Quiver(["1", "2", "3"],
                  [Arrow("a", "3", "1"), Arrow("b", "2", "3"), Arrow("c", "1", "2")])


def test_validate_qp_accepts_triangle():
    q = cycle_quiver()
    qp = QP(q, word(q, 6, "a", "b", "c"))
    assert qp.potential == word(q, 6, "a", "b", "c")
    assert QP(q, AlgebraElement.zero(q, 6)).potential.is_zero()


def test_validate_qp_rejects_cyclically_equivalent_terms():
    q = cycle_quiver()
    bad = 2 * word(q, 6, "a", "b", "c") - 3 * word(q, 6, "b", "c", "a")
    with pytest.raises(QPError, match="^invalid QP: cyclically equivalent distinct terms "
                       r"\('a', 'b', 'c'\) and \('b', 'c', 'a'\)$"):
        QP(q, bad)


@pytest.mark.parametrize("term, name", [
    (arrow_path("a", "b"), r"\('a', 'b'\)"),
    (vertex_path("2"), "'e:2'"),
], ids=["open-path", "vertex"])
def test_validate_qp_names_a_non_cyclic_term(term, name):
    q = cycle_quiver()
    bad = word(q, 6, "a", "b", "c") + AlgebraElement.from_path(q, 6, term)
    with pytest.raises(QPError, match="^potential has a non-cyclic term %s$" % name):
        QP(q, bad)


@pytest.mark.parametrize("call", [
    lambda qp: premutate_qp(qp, "2"),
    lambda qp: premutate_qp(qp, "no-such-vertex"),
    split_qp,
    lambda qp: mutate_qp(qp, "2"),
], ids=["premutate", "premutate-unknown-vertex", "split", "mutate"])
def test_rotations_of_one_cycle_are_refused(call):
    # the QP refuses itself, so no consumer is ever handed one
    q = cycle_quiver()
    with pytest.raises(QPError, match="^invalid QP: cyclically equivalent distinct terms"):
        call(QP(q, word(q, 6, "a", "b", "c") + word(q, 6, "b", "c", "a")))


def test_premutate_abc_at_2():
    q = cycle_quiver()
    qp = QP(q, word(q, 6, "a", "b", "c"))
    pre = premutate_qp(qp, "2")
    expect = word(pre.quiver, 6, "a", "[b.c]") + word(pre.quiver, 6, "c*", "b*", "[b.c]")
    assert pre.potential == cyclic_normal_form(expect)
    assert {a.name for a in pre.quiver.arrows} == {"a", "b*", "c*", "[b.c]"}


def test_premutate_zero_potential_keeps_only_hook_terms():
    q = cycle_quiver()
    pre = premutate_qp(QP(q, AlgebraElement.zero(q, 6)), "2")
    assert pre.potential == cyclic_normal_form(word(pre.quiver, 6, "c*", "b*", "[b.c]"))


def test_premutate_rejects_two_cycle_at_vertex():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    with pytest.raises(Exception):
        premutate_qp(QP(q, word(q, 6, "a", "b")), "1")


@pytest.mark.parametrize("names", [
    ("a", "c", "b", "a", "b", "c"), ("a", "a", "b", "c", "b", "c"), ("a", "a", "c"),
], ids=["into-k-outside-a-hook", "hooks-intact", "repeated-arrow"])
def test_element_refuses_a_non_composable_word_through_k(names):
    # each word closes up and passes through vertex 2, but no element, and
    # so no QP, holds it: the premutation at 2 never reads such a word
    q = cycle_quiver()
    with pytest.raises(AlgebraError, match="^non-composable path %s$" % re.escape(repr(names))):
        AlgebraElement(q, 6, {arrow_path(*names): 1})


# the refusals of premutate_qp, mutate_qp and mutated_quiver at vertex 2 of
# cycle_quiver() that a QP can meet: every word of a QP reads as a word of
# the premutated quiver, so only the hook terms can exceed the order
PREMUTATION_REFUSALS = [
    (2, AlgebraError, "term of length 3 exceeds order 2"),
]


@pytest.mark.parametrize("order, error, message", PREMUTATION_REFUSALS,
                         ids=["hook-term-above-order-2"])
def test_premutation_refusals_are_those_of_the_checked_premutation(order, error, message):
    q = cycle_quiver()
    qp = QP(q, AlgebraElement.zero(q, order))
    for call in (premutate_qp, mutate_qp, mutated_quiver):
        with pytest.raises(ValueError) as info:
            call(qp, "2")
        assert (type(info.value), str(info.value)) == (error, message), call.__name__


@pytest.mark.parametrize("arrow", [Arrow("b*", "1", "3"), Arrow("[b.c]", "3", "1")],
                         ids=["star-name", "hook-name"])
def test_premutation_refuses_a_new_name_an_old_arrow_holds(arrow):
    q = Quiver(["1", "2", "3"], cycle_quiver().arrows + (arrow,))
    qp = QP(q, word(q, 6, "a", "b", "c"))
    calls = [lambda qp, k: premutate_quiver(qp.quiver, k), premutate_qp, mutate_qp,
             mutated_quiver]
    message = "^duplicate arrow id %s$" % re.escape(repr(arrow.name))
    for call in calls:
        with pytest.raises(QuiverError, match=message):
            call(qp, "2")


def test_split_already_reduced():
    q = cycle_quiver()
    qp = QP(q, word(q, 6, "a", "b", "c"))
    res = split_qp(qp)
    assert res.trivial.quiver.arrows == ()
    assert res.trivial.potential.is_zero()
    assert res.reduced == qp
    assert res.witness.is_identity()


def test_split_after_premutation_of_abc():
    q = cycle_quiver()
    pre = premutate_qp(QP(q, word(q, 6, "a", "b", "c")), "2")
    res = split_qp(pre)
    assert {a.name for a in res.reduced.quiver.arrows} == {"b*", "c*"}
    assert res.reduced.potential.is_zero()
    assert {a.name for a in res.trivial.quiver.arrows} == {"a", "[b.c]"}
    assert is_trivial_qp(res.trivial) and not is_trivial_qp(res.reduced)


def test_mutate_abc_at_2_gives_reduced_zero():
    q = cycle_quiver()
    mut = mutate_qp(QP(q, word(q, 6, "a", "b", "c")), "2")
    assert mut.potential.is_zero()
    assert {a.name for a in mut.quiver.arrows} == {"b*", "c*"}


def test_quiver_mutation_agreement_depends_on_potential():
    # with the triangle potential the pairing is regular and the quivers
    # agree; with the zero potential the 2-cycle survives QP-mutation
    q = cycle_quiver()
    assert quiver_mutation_matches(QP(q, word(q, 6, "a", "b", "c")), "2")
    assert not quiver_mutation_matches(QP(q, AlgebraElement.zero(q, 6)), "2")
    kept = mutate_qp(QP(q, AlgebraElement.zero(q, 6)), "2")
    mult = kept.quiver.multiplicities()
    assert mult[("3", "1")] == 1 and mult[("1", "3")] == 1


def square_quiver():
    return Quiver(
        ["1", "2", "3", "4"],
        [Arrow("a", "2", "1"), Arrow("b", "1", "2"), Arrow("al", "3", "2"),
         Arrow("be", "1", "3"), Arrow("ga", "4", "1"), Arrow("de", "2", "4")])


def test_split_valence_two_reduction():
    q = square_quiver()
    x = Fraction(2)
    s = x * word(q, 6, "a", "b") + word(q, 6, "a", "al", "be") + word(q, 6, "ga", "de", "b")
    res = split_qp(QP(q, s))
    expect = -(1 / x) * word(res.reduced.quiver, 6, "ga", "de", "al", "be")
    assert cyclically_equivalent(res.reduced.potential, expect)
    assert {a.name for a in res.trivial.quiver.arrows} == {"a", "b"}
    assert is_trivial_qp(res.trivial)


def test_split_with_spectator_terms():
    # the same pinch plus a 3-cycle not touching a, b, al, be, ga, de
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [Arrow("a", "2", "1"), Arrow("b", "1", "2"), Arrow("al", "3", "2"),
         Arrow("be", "1", "3"), Arrow("ga", "4", "1"), Arrow("de", "2", "4"),
         Arrow("u", "3", "5"), Arrow("v", "5", "4"), Arrow("w", "4", "3")])
    x = Fraction(5)
    spectator = word(q, 6, "u", "w", "v")
    s = (x * word(q, 6, "a", "b") + word(q, 6, "a", "al", "be")
         + word(q, 6, "ga", "de", "b") + 7 * spectator)
    res = split_qp(QP(q, s))
    red = res.reduced
    target = -(1 / x) * word(red.quiver, 6, "ga", "de", "al", "be") \
        + 7 * word(red.quiver, 6, "u", "w", "v")
    assert cyclically_equivalent(red.potential, target)
    assert {a.name for a in res.trivial.quiver.arrows} == {"a", "b"}


def test_split_self_folded_neighbour_reduction():
    # valence-2 pinch where one neighbouring cycle runs through a folded side:
    # cycles a-la-et, a-om-nu (weighted -1/y), de-rh-b, plus the pair x*ab.
    q = Quiver(
        ["u", "v", "w", "z", "s"],
        [Arrow("a", "u", "v"), Arrow("b", "v", "u"), Arrow("la", "w", "u"),
         Arrow("et", "v", "w"), Arrow("om", "z", "u"), Arrow("nu", "v", "z"),
         Arrow("de", "s", "v"), Arrow("rh", "u", "s")])
    x = Fraction(2)
    y = Fraction(3)
    s = (x * word(q, 8, "a", "b") + word(q, 8, "a", "la", "et")
         - (1 / y) * word(q, 8, "a", "om", "nu") + word(q, 8, "de", "rh", "b"))
    res = split_qp(QP(q, s, 8))
    expect = (-(1 / x) * word(res.reduced.quiver, 8, "de", "rh", "la", "et")
              + (1 / (x * y)) * word(res.reduced.quiver, 8, "de", "rh", "om", "nu"))
    assert cyclically_equivalent(res.reduced.potential, expect)


def test_split_witness_is_isomorphism_and_matches():
    q = square_quiver()
    x = Fraction(2)
    s = x * word(q, 6, "a", "b") + word(q, 6, "a", "al", "be") + word(q, 6, "ga", "de", "b")
    res = split_qp(QP(q, s))
    assert substitution_is_isomorphism(res.witness)
    image = apply_substitution(res.witness, s)
    recombined = AlgebraElement(
        q, 6,
        dict(list(res.trivial.potential.terms.items())
             + list(res.reduced.potential.terms.items())))
    assert cyclically_equivalent(image, recombined)


def test_split_rescales_pair_coefficient_to_one():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    s = 7 * word(q, 6, "a", "b")
    res = split_qp(QP(q, s))
    assert list(res.trivial.potential.terms.values()) == [Fraction(1)]
    assert res.reduced.potential.is_zero()
    assert substitution_is_isomorphism(res.witness)


def test_split_rank_deficient_pairing():
    # two parallel arrows pair against the same opposite arrow: one trivial
    # pair, the leftover combination stays in the reduced quiver
    q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1"), Arrow("b2", "2", "1")])
    s = word(q, 6, "a", "b") + word(q, 6, "a", "b2")
    res = split_qp(QP(q, s))
    assert len(res.trivial.quiver.arrows) == 2
    assert len(res.reduced.quiver.arrows) == 1
    assert res.reduced.potential.is_zero()
    assert substitution_is_isomorphism(res.witness)
    image = apply_substitution(res.witness, s)
    recombined = AlgebraElement(q, 6, dict(res.trivial.potential.terms))
    assert cyclically_equivalent(image, recombined)


def test_mutation_never_composes_the_witness(monkeypatch):
    def refuse(f, g):
        raise AssertionError("witness composed")

    monkeypatch.setattr("qpsurf.qp.compose_substitutions", refuse)
    qp = qp_of_triangulation(Triangulation.from_text(example_text("punctured-square-2")), 6)
    assert len(qp.quiver.arrows) == 4  # the 2-cycle of the valence-2 puncture split off
    torus = qp_of_triangulation(Triangulation.from_text(example_text("torus")), 6)
    for k in torus.quiver.vertices:
        mutate_qp(torus, k)
    with pytest.raises(AssertionError):
        split_qp(premutate_qp(torus, "1")).witness


def test_split_witness_is_cached():
    q = square_quiver()
    s = 2 * word(q, 6, "a", "b") + word(q, 6, "a", "al", "be") + word(q, 6, "ga", "de", "b")
    res = split_qp(QP(q, s))
    assert res.witness is res.witness


# sha256 of the witness images of every split behind a one-step mutation of
# the corpus at order 6, recorded when the witness was still composed inside
# split_qp and stored an image for every base arrow; a fixed arrow's image is
# written out as the arrow itself
WITNESS_IMAGES_ORDER_6 = "c1cb8179741e7cd9e8c9c5e65dcff297fb112106c9b065b9e6440e7ae67d10a1"


def test_split_witness_images_are_pinned():
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in CORPUS:
            qp = qp_of_triangulation(Triangulation.from_text(example_text(name)), 6)
            for k in qp.quiver.vertices:
                witness = split_qp(premutate_qp(qp, k)).witness
                for a in sorted(x.name for x in witness.base.arrows):
                    text = witness.images[a].to_text() if a in witness.images else "1/1 %s\n" % a
                    h.update(("%s %s %s\n%s" % (name, k, a, text)).encode())
    assert h.hexdigest() == WITNESS_IMAGES_ORDER_6


# the degree-2 block on a paired vertex pair, as the matrix of x_i y_j
PAIRING_BLOCKS = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[3, 0], [0, Fraction(-1, 2)]],
                  [[1, 2], [2, 4]]]


def random_split_qp(seed):
    """A seeded QP on four vertices: one or two vertex pairs carry two arrows
    each way, paired by an identity, permuted, scaled or rank-deficient block
    (by seed), and every other pair one arrow; the potential adds random
    3- and 4-cycles."""
    rng = random.Random("split:%d" % seed)
    block = sum(PAIRING_BLOCKS[seed % 4], [])
    vertices = ["1", "2", "3", "4"]
    pairs = list(itertools.combinations(vertices, 2))
    paired = rng.sample(pairs, rng.choice((1, 2)))
    arrows, terms = [], {}
    for i, j in pairs:
        if (i, j) in paired:
            xs = [Arrow("x%s%s%d" % (i, j, n), i, j) for n in range(2)]
            ys = [Arrow("y%s%s%d" % (i, j, n), j, i) for n in range(2)]
            arrows += xs + ys
            for (x, y), c in zip(itertools.product(xs, ys), block):
                if c:
                    terms[arrow_path(x.name, y.name)] = c
        else:
            tail, head = (i, j) if rng.random() < 0.5 else (j, i)
            arrows.append(Arrow("z%s%s" % (i, j), tail, head))
    words = [(a,) for a in arrows]
    for length in (2, 3, 4):
        words = [w + (b,) for w in words for b in arrows if b.head == w[-1].tail]
        for w in words:
            names = tuple(a.name for a in w)
            if (length > 2 and w[-1].tail == w[0].head and names == least_rotation(names)
                    and rng.random() < 0.3):
                terms[Path(names)] = rng.choice((-1, 1, 2))
    quiver = Quiver(vertices, arrows)
    return QP(quiver, AlgebraElement(quiver, 6, terms), 6)


def word_images(phi):
    """A substitution's images as the (word, coefficient) lists the split kernel reads."""
    return {name: [(p.arrows, c) for p, c in img.terms.items()]
            for name, img in phi.images.items()}


def test_split_witness_and_pairing_on_random_blocks(monkeypatch):
    # the witness carries W to trivial + reduced, and each step goes through
    # the shared kernel once, with its own images, except a pairing step
    # that moves no arrow
    calls = []

    def counting(images, terms, order):
        calls.append(images)
        return substitute_words(images, terms, order)

    monkeypatch.setattr("qpsurf.qp.substitute_words", counting)
    moved = 0
    for seed in range(40):
        qp = random_split_qp(seed)
        del calls[:]
        res = split_qp(qp)
        still = res.steps[0].is_identity()
        moved += not still
        assert calls == [word_images(phi) for phi in res.steps[still:]], seed
        assert all(phi.images for phi in res.steps[1:]), seed
        assert is_trivial_qp(res.trivial)
        assert substitution_is_isomorphism(res.witness)
        image = apply_substitution(res.witness, qp.potential)
        recombined = AlgebraElement(qp.quiver, 6, {**res.trivial.potential.terms,
                                                   **res.reduced.potential.terms})
        assert cyclically_equivalent(image, recombined), seed
    assert moved == 30  # all but the identity blocks


def split_text(res):
    """The reduced text, each step's images and the witness images of a split."""
    out = [res.reduced.to_text()]
    for phi in res.steps + [res.witness]:
        out += ["%s\n%s" % (name, phi.images[name].to_text()) for name in sorted(phi.images)]
        out.append("--\n")
    return "".join(out)


def test_split_normalises_terms_stored_at_other_rotations():
    # a QP may store a term at any rotation; only premutation output, which
    # is built at least rotations, may skip the normal form
    rng = random.Random("rotated")
    rotated = 0
    for seed in range(40):
        qp = random_split_qp(seed)
        terms = {}
        for p, c in qp.potential.terms.items():
            r = rng.randrange(len(p))
            terms[Path(p.arrows[r:] + p.arrows[:r])] = c
            rotated += r > 0
        stored = QP(qp.quiver, AlgebraElement(qp.quiver, 6, terms), 6)
        assert split_text(split_qp(stored)) == split_text(split_qp(qp)), seed
    assert rotated > 100


# sha256 over the reduced text, the number of steps and the witness image of
# every base arrow (written out as the arrow itself where the witness fixes
# it) of the splits of random_split_qp for seeds 0-39 and of the premutations
# of random_premutation_qp for seeds 0-4 at every vertex, or the text of a
# refused premutation; recorded when a substitution stored an image for
# every base arrow
SPLIT_IDENTITY_SHA256 = "7698762a5a401aab52e0b5c0d7030fc1a507ba4fbc64f2676bbd4740898b6642"


def test_split_text_steps_and_witness_pinned():
    def record(label, qp):
        res = split_qp(qp)
        images = res.witness.images
        h.update(("%s %d\n%s" % (label, len(res.steps), res.reduced.to_text())).encode())
        for a in res.witness.base.arrows:
            text = images[a.name].to_text() if a.name in images else "1/1 %s\n" % a.name
            h.update(("%s\n%s" % (a.name, text)).encode())

    h = hashlib.sha256()
    for seed in range(40):
        record("split %d" % seed, random_split_qp(seed))
    for seed in range(5):
        qp = random_premutation_qp(seed)
        for k in qp.quiver.vertices:
            try:
                pre = premutate_qp(qp, k)
            except ValueError as exc:
                h.update(("%d %s %s\n" % (seed, k, exc)).encode())
            else:
                record("mutate %d %s" % (seed, k), pre)
    assert h.hexdigest() == SPLIT_IDENTITY_SHA256


# sha256 over the reduced text and the number of steps of the split of each
# corpus QP's premutation at every vertex, at order 6; recorded when every
# degree-2 block went through Gauss-Jordan
CORPUS_SPLIT_SHA256 = "6d268a5a5ffeb12a35681fe0823c2a768926722081f53e7c7b3d2bfc244e93d9"


def test_identity_blocks_split_as_before_on_corpus_premutations():
    h = hashlib.sha256()
    identity_only = 0
    for name in CORPUS:
        qp = qp_of_triangulation(Triangulation.from_text(example_text(name)), 6)
        for k in qp.quiver.vertices:
            pre = premutate_qp(qp, k)
            res = split_qp(pre)
            h.update(res.reduced.to_text().encode())
            h.update(b"%d\n" % len(res.steps))
            blocks, pairs = _diagonal_pairing(
                pre.quiver, [(p.arrows, c) for p, c in pre.potential.terms.items()])
            if blocks and all(p_ops is None for _, _, p_ops, _ in blocks):
                identity_only += 1
                assert not res.steps[0].images
    assert identity_only == 8
    assert h.hexdigest() == CORPUS_SPLIT_SHA256


def test_restrict_full_and_empty():
    q = cycle_quiver()
    qp = QP(q, word(q, 6, "a", "b", "c"))
    assert restrict_qp(qp, ["1", "2", "3"]) == qp
    empty = restrict_qp(qp, [])
    assert empty.quiver.arrows == ()
    assert empty.quiver.vertices == ("1", "2", "3")
    assert empty.potential.is_zero()


def test_restrict_drops_touched_terms():
    q = square_quiver()
    s = word(q, 6, "a", "al", "be") + 4 * word(q, 6, "a", "b")
    r = restrict_qp(QP(q, s), ["1", "2"])
    assert {a.name for a in r.quiver.arrows} == {"a", "b"}
    assert r.potential == 4 * word(r.quiver, 6, "a", "b")


def test_restrict_rejects_unknown_vertex():
    q = cycle_quiver()
    with pytest.raises(QPError):
        restrict_qp(QP(q, AlgebraElement.zero(q, 6)), ["1", "9"])


def test_restriction_commutes_with_premutation_exactly():
    q = square_quiver()
    x = Fraction(2)
    s = x * word(q, 6, "a", "b") + word(q, 6, "a", "al", "be") + word(q, 6, "ga", "de", "b")
    qp = QP(q, s)
    keep = ["1", "2", "3"]
    left = premutate_qp(restrict_qp(qp, keep), "3")
    right = restrict_qp(premutate_qp(qp, "3"), keep)
    assert left == right


def test_qp_text_roundtrip():
    q = square_quiver()
    s = Fraction(5, 3) * word(q, 6, "a", "b") + word(q, 6, "a", "al", "be")
    qp = QP(q, s)
    again = QP.from_text(qp.to_text())
    assert again == qp
    assert again.order == 6


def test_qp_text_checks_each_nonzero_term_line_once(monkeypatch):
    import qpsurf.algebra as algebra

    calls = 0
    check_word = algebra.check_word

    def counting(*args):
        nonlocal calls
        calls += 1
        return check_word(*args)

    monkeypatch.setattr(algebra, "check_word", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        texts = [qp_of_triangulation(Triangulation.from_text(example_text(name)), 6).to_text()
                 for name in CORPUS]
    lines = 0
    for text in texts:
        # a zero line is read but not checked
        qp = QP.from_text(text + "0/1 x y\n")
        lines += sum(1 for line in text.split("potential:\n")[1].splitlines() if line != "0")
        assert qp.to_text() == text
    assert calls == lines and lines > len(CORPUS)


# lines the content-line pin inserts: blank, comment, whitespace, zero and
# vertex terms, repeated headers, and a `#` inside a name or after a field
INSERTED_LINES = ["", "#", "# note", "   ", "\t", "0", " 0 ", "0/1 x y", "1/1 e:1",
                  "truncation: 6", "truncation: 5", "potential:", "a x#1 1 2", "v 1 # one",
                  "1/1 x#1 y"]


def outcome(read, text):
    try:
        return read(text).to_text()
    except ValueError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def test_qp_and_quiver_text_content_lines_pinned():
    # seeded insertions, indentations and duplications of lines in the corpus
    # QP texts; one digest pins each `QP.from_text` outcome and each
    # `Quiver.from_text` outcome on the text's quiver block (the lines before
    # the first `potential:` line, less the `truncation:` lines)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        texts = [qp_of_triangulation(Triangulation.from_text(example_text(name)), 6)
                 .to_text().splitlines() for name in CORPUS]
    rng = random.Random(30)
    h = hashlib.sha256()
    accepted = 0
    for case in range(3000):
        lines = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            op = rng.randrange(3)
            if op == 0:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(INSERTED_LINES))
            elif op == 1:
                lines[i] = rng.choice([" ", "  ", "\t"]) + lines[i] + rng.choice(["", " "])
            else:
                lines.insert(rng.randrange(len(lines) + 1), lines[i])
        text = "\n".join(lines) + "\n"
        block = []
        for line in lines:
            if line.strip() == "potential:":
                break
            if not line.strip().startswith("truncation:"):
                block.append(line)
        qp, quiver = outcome(QP.from_text, text), outcome(Quiver.from_text, "\n".join(block))
        accepted += qp.startswith("truncation:")
        h.update(repr((case, qp, quiver)).encode())
    assert accepted > 600
    assert h.hexdigest() == "7310a7a351ff8d25152d542fb9089199071f4b7891de409dd2a5b2d0af4169d9"


def random_premutation_qp(seed):
    """A seeded QP on 3 to 5 vertices with parallel arrows, 2-cycles away from
    vertex '1', and a potential of closed walks that pass through '1' up to
    three times.  Each term is stored at a random rotation, so some begin
    inside a hook at '1'."""
    rng = random.Random("premutation:%d" % seed)
    vertices = [str(v) for v in range(1, rng.choice((3, 4, 5)) + 1)]
    arrows = []
    for i, j in itertools.combinations(vertices, 2):
        both = i != "1" and rng.random() < 0.4
        for tail, head in [(i, j), (j, i)] if both else [rng.choice(((i, j), (j, i)))]:
            for _ in range(rng.choice((1, 1, 2))):
                arrows.append(Arrow("a%d" % len(arrows), tail, head))
    quiver = Quiver(vertices, arrows)
    leaving = {v: [a for a in arrows if a.tail == v] for v in vertices}
    order = 9
    terms, seen = {}, set()
    for _ in range(40):
        start = v = rng.choice(vertices)
        walk = []  # in traversal order, so the word is its reverse
        while leaving[v] and len(walk) < order:
            a = rng.choice(leaving[v])
            walk.append(a.name)
            v = a.head
            if v == start and rng.random() < 0.6:
                break
        if not walk or v != start or sum(quiver.arrow(a).head == "1" for a in walk) > 3:
            continue
        r = rng.randrange(len(walk))
        term = tuple(reversed(walk[r:] + walk[:r]))
        if least_rotation(term) not in seen:
            seen.add(least_rotation(term))
            terms[Path(term)] = rng.choice((-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 4)))
    return QP(quiver, AlgebraElement(quiver, order, terms), order)


# sha256 over the premutation text of random_premutation_qp for seeds 0-79 at
# every vertex, or the type and text of its refusal; recorded when each term
# was rewritten from its least rotation that avoids beginning at k and the
# result was put into cyclic normal form afterwards
PREMUTATION_SHA256 = "263b58f8ab7aa669928ee60ef8d642f880e3a02c2a61291eeca3f07c933bd9d7"


def test_premutation_text_pinned_on_random_qps():
    # at each vertex k premutated, count the terms whose least rotation
    # begins with an arrow into k, where a hook wraps around the word's end
    h = hashlib.sha256()
    parallel, two_cycles, premutated, wraps, visits = 0, 0, 0, 0, set()
    for seed in range(80):
        qp = random_premutation_qp(seed)
        q = qp.quiver
        parallel += max(q.multiplicities().values()) > 1
        two_cycles += sum(len(p) == 2 for p in qp.potential.terms)
        visits.update([q.arrow(a).head for a in p.arrows].count("1")
                      for p in qp.potential.terms)
        for k in q.vertices:
            try:
                text = premutate_qp(qp, k).to_text()
            except ValueError as exc:
                text = "%s: %s\n" % (type(exc).__name__, exc)
            else:
                premutated += 1
                wraps += sum(q.arrow(least_rotation(p.arrows)[0]).head == k
                             for p in qp.potential.terms)
            h.update(("%d %s\n%s" % (seed, k, text)).encode())
    assert (parallel, two_cycles, premutated, wraps) == (63, 130, 162, 448)
    assert visits == {0, 1, 2, 3}
    assert h.hexdigest() == PREMUTATION_SHA256


# sha256 over the mutate_qp text, or the type and text of its refusal, of
# the corpus QPs at order 6 and their one-step mutations, random_premutation_qp
# for seeds 0-59 and random_split_qp for seeds 0-39, at every vertex;
# recorded when mutate_qp returned split_qp(premutate_qp(qp, k)).reduced
MUTATE_SHA256 = "b091bb80b44b05f146d987e70c124ae8180db7363ca0cda0136ab17f8d322a38"


def test_mutate_qp_is_the_reduced_part_of_the_split_premutation():
    def outcome(f, qp, k):
        try:
            return f(qp, k).to_text()
        except ValueError as exc:
            return "%s: %s\n" % (type(exc).__name__, exc)

    def split_reduced(qp, k):
        return split_qp(premutate_qp(qp, k)).reduced

    inputs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in CORPUS:
            qp = qp_of_triangulation(Triangulation.from_text(example_text(name)), 6)
            inputs.append((name, qp))
            inputs += [("%s %s" % (name, k), mutate_qp(qp, k)) for k in qp.quiver.vertices]
    inputs += [("premutation %d" % seed, random_premutation_qp(seed)) for seed in range(60)]
    inputs += [("split %d" % seed, random_split_qp(seed)) for seed in range(40)]
    h = hashlib.sha256()
    refused = 0
    for label, qp in inputs:
        for k in qp.quiver.vertices:
            text = outcome(mutate_qp, qp, k)
            assert text == outcome(split_reduced, qp, k), (label, k)
            refused += not text.startswith("truncation:")
            h.update(("%s %s\n%s" % (label, k, text)).encode())
    assert refused == 220
    assert h.hexdigest() == MUTATE_SHA256
