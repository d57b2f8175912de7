import random
from fractions import Fraction

import pytest
from oracles import oracle_apply_substitution

from qpsurf.algebra import (
    AlgebraElement,
    AlgebraError,
    Path,
    Substitution,
    apply_substitution,
    arrow_path,
    compose_substitutions,
    cyclic_derivative,
    cyclic_normal_form,
    cyclically_equivalent,
    merge_rotations,
    substitute_words,
    substitution_is_isomorphism,
    truncate,
    vertex_path,
)
from qpsurf.quiver import Arrow, Quiver


def three_cycle():
    # a: 1->2, b: 2->3, c: 3->1, so the word cba is a cycle
    return Quiver(["1", "2", "3"],
                  [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1")])


def word(q, order, *names):
    return AlgebraElement.from_word(q, order, names)


def test_multiply_concatenates():
    q = three_cycle()
    ab = word(q, 6, "b") * word(q, 6, "a")
    assert ab == word(q, 6, "b", "a")


def test_multiply_orthogonal_idempotents():
    q = three_cycle()
    assert (word(q, 6, "a") * word(q, 6, "b")).is_zero()
    e1 = AlgebraElement.from_path(q, 6, vertex_path("1"))
    e2 = AlgebraElement.from_path(q, 6, vertex_path("2"))
    assert e2 * word(q, 6, "a") == word(q, 6, "a")
    assert word(q, 6, "a") * e1 == word(q, 6, "a")
    assert (e1 * word(q, 6, "a")).is_zero()
    assert (e1 * e2).is_zero()
    assert e1 * e1 == e1


def test_multiply_truncates():
    q = three_cycle()
    ba = word(q, 2, "b", "a")
    c = word(q, 2, "c")
    assert (c * ba).is_zero()  # length 3 > order 2


def test_cyclic_derivative_single_occurrence():
    q = three_cycle()
    s = word(q, 6, "c", "b", "a")  # the oriented triangle
    assert cyclic_derivative(s, "c") == word(q, 6, "b", "a")
    assert cyclic_derivative(s, "b") == word(q, 6, "a", "c")
    assert cyclic_derivative(s, "a") == word(q, 6, "c", "b")


def test_cyclic_derivative_two_occurrences():
    # a: u->v, b: v->u, c: v->u; cycle abac hits a twice
    q = Quiver(["u", "v"],
               [Arrow("a", "u", "v"), Arrow("b", "v", "u"), Arrow("c", "v", "u")])
    s = word(q, 6, "a", "b", "a", "c")
    expect = word(q, 6, "b", "a", "c") + word(q, 6, "c", "a", "b")
    assert cyclic_derivative(s, "a") == expect


def test_cyclic_derivative_rotation_invariant():
    q = three_cycle()
    s = word(q, 6, "c", "b", "a")
    rotated = word(q, 6, "b", "a", "c")
    for name in "abc":
        assert cyclic_derivative(s, name) == cyclic_derivative(rotated, name)


def test_cyclic_normal_form_merges_rotations():
    q = three_cycle()
    s = word(q, 6, "c", "b", "a") + word(q, 6, "b", "a", "c")
    nf = cyclic_normal_form(s)
    assert list(nf.terms.values()) == [Fraction(2)]
    assert cyclic_normal_form(word(q, 6, "c", "b", "a") - word(q, 6, "b", "a", "c")).is_zero()


def test_cyclic_normal_form_idempotent():
    q = three_cycle()
    s = word(q, 6, "a", "c", "b") + 3 * word(q, 6, "b", "a", "c")
    assert cyclic_normal_form(cyclic_normal_form(s)) == cyclic_normal_form(s)


def test_cyclic_normal_form_rejects_open_paths():
    q = three_cycle()
    with pytest.raises(AlgebraError):
        cyclic_normal_form(word(q, 6, "b", "a"))


@pytest.mark.parametrize("term", [("b", "a"), ("c",)], ids=["open", "arrow"])
def test_cyclic_normal_form_refuses_a_non_cyclic_or_degree_0_term(term):
    # the check stays with cyclic_normal_form; merge_rotations checks nothing
    q = three_cycle()
    for p in (arrow_path(*term), vertex_path("1")):
        x = word(q, 6, "c", "b", "a") + AlgebraElement.from_path(q, 6, p)
        with pytest.raises(AlgebraError, match="^element has a non-cyclic or degree-0 term$"):
            cyclic_normal_form(x)


def test_merge_rotations_sums_in_order_of_first_appearance():
    terms = [(("b", "a"), 1), (("c",), 0), (("x", "y", "z"), 2), (("a", "b"), 3),
             (("y", "z", "x"), -2), (("b", "c"), Fraction(1, 2))]
    assert list(merge_rotations(terms).items()) == [(("a", "b"), 4), (("b", "c"), Fraction(1, 2))]


class Tally:
    """A coefficient that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Tally.products += 1
        return Tally(self.value * other)


def test_substitute_words_multiplies_only_at_moved_arrows():
    Tally.products = 0
    images = {"a": [(("y", "z"), 3), (("x",), 2)]}
    terms = [(("c", "b", "a"), Tally(1)), (("c", "b"), Tally(5)), (("a", "a", "c", "b"), Tally(1))]
    out, skipped = substitute_words(images, terms, 4)
    assert Tally.products == 4  # two for c b a, two for a a c b, none for c b
    assert {w: t.value for w, t in out.items()} == {
        ("c", "b", "x"): 2, ("c", "b", "y", "z"): 3, ("c", "b"): 5,
        ("x", "x", "c", "b"): 4}
    assert skipped  # a a c b takes y z at most once within order 4
    out, skipped = substitute_words(images, terms[:2], 4)
    assert not skipped and len(out) == 3
    # a word longer than the order is dropped, even when it moves no arrow
    assert substitute_words(images, [(("c", "b", "c"), 1)], 2) == ({}, True)


def test_apply_substitution_refuses_an_element_off_its_base():
    q = three_cycle()
    f = Substitution(q, q, 6, {"a": 2 * word(q, 6, "a")})
    other = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    for x in (word(q, 5, "a"), word(other, 6, "a")):
        with pytest.raises(AlgebraError, match="^element does not live over the substitution's base$"):
            apply_substitution(f, x)


def square_quiver():
    # Unreduced quiver of the once-punctured square, hand-coded:
    # a: 2->1, b: 1->2, alpha: 3->2, beta: 1->3, gamma: 4->1, delta: 2->4.
    return Quiver(
        ["1", "2", "3", "4"],
        [Arrow("a", "2", "1"), Arrow("b", "1", "2"), Arrow("al", "3", "2"),
         Arrow("be", "1", "3"), Arrow("ga", "4", "1"), Arrow("de", "2", "4")])


def square_potential(q, x):
    return (word(q, 6, "a", "al", "be") + word(q, 6, "ga", "de", "b")
            + x * word(q, 6, "a", "b"))


def square_reduction_witness(q, x):
    img_a = word(q, 6, "a") - (1 / x) * word(q, 6, "ga", "de")
    img_b = word(q, 6, "b") - (1 / x) * word(q, 6, "al", "be")
    return Substitution(q, q, 6, {"a": img_a, "b": img_b})


def test_apply_substitution_square_reduction():
    q = square_quiver()
    x = Fraction(2)
    phi = square_reduction_witness(q, x)
    image = apply_substitution(phi, square_potential(q, x))
    expect = x * word(q, 6, "a", "b") - (1 / x) * word(q, 6, "ga", "de", "al", "be")
    assert cyclically_equivalent(image, expect)


def test_apply_substitution_identity_and_scaling():
    q = three_cycle()
    s = word(q, 6, "b", "a") + 5 * word(q, 6, "c")
    assert apply_substitution(Substitution.identity(q, 6), s) == s
    f = Substitution(q, q, 6, {"a": 2 * word(q, 6, "a")})
    assert apply_substitution(f, word(q, 6, "b", "a")) == 2 * word(q, 6, "b", "a")


def test_substitution_validates_endpoints():
    q = three_cycle()
    with pytest.raises(AlgebraError):
        Substitution(q, q, 6, {"a": word(q, 6, "b")})
    with pytest.raises(AlgebraError):
        Substitution(q, q, 6, {"a": AlgebraElement.from_path(q, 6, vertex_path("1"))})


def test_substitution_stores_only_the_images_it_is_given():
    q = three_cycle()
    assert Substitution.identity(q, 6).images == {}
    f = Substitution(q, q, 6, {"a": 2 * word(q, 6, "a")})
    assert f.images == {"a": 2 * word(q, 6, "a")}
    assert Substitution(q, q, 6, {"b": word(q, 6, "b")}).is_identity()
    assert not f.is_identity()


def test_substitution_refuses_an_image_for_an_unknown_arrow():
    q = three_cycle()
    with pytest.raises(AlgebraError, match="'A'"):
        Substitution(q, q, 6, {"A": 2 * word(q, 6, "a")})


def test_substitution_is_isomorphism():
    q = square_quiver()
    assert substitution_is_isomorphism(square_reduction_witness(q, Fraction(2)))
    tri = three_cycle()
    assert substitution_is_isomorphism(Substitution(tri, tri, 6, {"a": 2 * word(tri, 6, "a")}))
    # degree-1 part dies on a: the image is a parallel length-4 path only
    higher = word(tri, 6, "a", "c", "b", "a")
    assert not substitution_is_isomorphism(Substitution(tri, tri, 6, {"a": higher}))


def test_compose_substitutions():
    q = three_cycle()
    f = Substitution(q, q, 6, {"a": 2 * word(q, 6, "a")})
    g = Substitution(q, q, 6, {"a": 3 * word(q, 6, "a")})
    assert apply_substitution(compose_substitutions(f, g), word(q, 6, "a")) == 6 * word(q, 6, "a")


def test_compose_substitutions_across_quivers():
    # g renames a to d and fixes b, which f moves; the composite takes f's
    # image of b and fixes c, which both fix
    base = three_cycle()
    mid = Quiver(base.vertices, [Arrow("d", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1")])
    top = Quiver(base.vertices, [Arrow("e", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1")])
    g = Substitution(base, mid, 6, {"a": word(mid, 6, "d")})
    f_b = 2 * word(top, 6, "b") + word(top, 6, "b", "e", "c", "b")
    f = Substitution(mid, top, 6, {"d": word(top, 6, "e"), "b": f_b})
    h = compose_substitutions(f, g)
    assert (h.base, h.target) == (base, top)
    assert h.images == {"a": word(top, 6, "e"), "b": f_b}
    assert substitution_is_isomorphism(h) and not h.is_identity()
    x = word(base, 6, "c", "b", "a") + 3 * word(base, 6, "b", "a", "c", "b")
    assert apply_substitution(h, x) == apply_substitution(f, apply_substitution(g, x))


def test_truncate():
    q = three_cycle()
    s = word(q, 6, "c", "b", "a") + word(q, 6, "a")
    assert truncate(s, 2) == word(q, 2, "a")
    with pytest.raises(AlgebraError):
        truncate(s, 7)


def test_element_text_is_pinned():
    # element text is output only; this pins the writer's vertex-term and
    # zero-element lines
    q = square_quiver()
    s = square_potential(q, Fraction(5, 3)) + AlgebraElement.from_path(q, 6, vertex_path("1"), Fraction(-1, 7))
    assert s.to_text() == "-1/7 e:1\n5/3 a b\n1/1 a al be\n1/1 ga de b\n"
    assert AlgebraElement.zero(q, 6).to_text() == "0\n"


# -- seeded random properties -------------------------------------------------


def random_element(rng, quiver, order, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        length = rng.randrange(order + 1)
        if length == 0:
            p = vertex_path(rng.choice(quiver.vertices))
        else:
            arrows = []
            first = rng.choice(quiver.arrows)
            arrows.append(first.name)
            cur = first.tail
            ok = True
            for _ in range(length - 1):
                nxt = [a for a in quiver.arrows if a.head == cur]
                if not nxt:
                    ok = False
                    break
                pick = rng.choice(nxt)
                arrows.append(pick.name)
                cur = pick.tail
            if not ok:
                continue
            p = Path(tuple(arrows))
        coeff = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        if coeff:
            terms[p] = terms.get(p, Fraction(0)) + coeff
    return AlgebraElement(quiver, order, terms)


def all_cycles(quiver, order):
    out = []
    frontier = [[a.name] for a in quiver.arrows]
    while frontier:
        w = frontier.pop()
        tail = quiver.arrow(w[-1]).tail
        head = quiver.arrow(w[0]).head
        if tail == head and len(w) >= 2:
            out.append(Path(tuple(w)))
        if len(w) < order:
            frontier.extend(w + [a.name] for a in quiver.arrows if a.head == tail)
    return out


def random_potential(rng, quiver, cycles, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        p = rng.choice(cycles)
        coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        if coeff:
            terms[p] = terms.get(p, Fraction(0)) + coeff
    return AlgebraElement(quiver, 6, terms)


def random_substitution(rng, quiver, order):
    images = {}
    for a in quiver.arrows:
        img = Fraction(rng.choice([1, 1, 2, -1, 3])) * AlgebraElement.from_word(quiver, order, [a.name])
        if rng.random() < 0.5:
            # one longer correction with the same endpoints, found by a short search
            for _ in range(8):
                probe = random_element(rng, quiver, order, 1)
                if probe.is_zero():
                    continue
                (p, _c), = probe.terms.items()
                if len(p) < 2:
                    continue
                from qpsurf.algebra import path_head, path_tail
                if path_tail(quiver, p) == a.tail and path_head(quiver, p) == a.head:
                    img = img + AlgebraElement.from_path(quiver, order, p, Fraction(rng.randrange(1, 3)))
                    break
        images[a.name] = img
    return Substitution(quiver, quiver, order, images)


def test_seeded_random_properties_thousand_triples():
    import os

    rng = random.Random(int(os.environ.get("QPSURF_TEST_SEED", "20260810")))
    q1 = three_cycle()
    q2 = square_quiver()
    cycles = {id(q1): all_cycles(q1, 6), id(q2): all_cycles(q2, 6)}
    for trial in range(1000):
        quiver = q1 if trial % 2 else q2
        x = random_element(rng, quiver, 6)
        y = random_element(rng, quiver, 6)
        z = random_element(rng, quiver, 6)
        assert (x * y) * z == x * (y * z)

        s = random_potential(rng, quiver, cycles[id(quiver)])
        arrow = rng.choice(quiver.arrows).name
        assert cyclic_derivative(s, arrow) == cyclic_derivative(cyclic_normal_form(s), arrow)

        f = random_substitution(rng, quiver, 6)
        assert apply_substitution(f, x * y) == apply_substitution(f, x) * apply_substitution(f, y)


def test_normal_form_invariant_under_term_order():
    rng = random.Random(7)
    q = three_cycle()
    cycles = all_cycles(q, 6)
    for _ in range(50):
        s = random_potential(rng, q, cycles)
        items = list(s.terms.items())
        rng.shuffle(items)
        resummed = AlgebraElement(q, 6, dict(items))
        assert cyclic_normal_form(resummed) == cyclic_normal_form(s)


def random_words(rng, ends, length, count):
    """Up to `count` composable words of the given length over arrows ends[name] = (tail, head)."""
    names = sorted(ends)
    out = []
    for _ in range(count * 4):
        w = [rng.choice(names)]
        while len(w) < length:
            nxt = [n for n in names if ends[n][1] == ends[w[-1]][0]]
            if not nxt:
                break
            w.append(rng.choice(nxt))
        if len(w) == length and tuple(w) not in out:
            out.append(tuple(w))
        if len(out) == count:
            break
    return out


def test_apply_substitution_matches_oracle_on_seeded_substitutions():
    # identity images, images with terms of degree 2-3 (and sometimes no
    # degree-1 part), and orders 2-5, where truncation drops many products;
    # in odd trials each image's terms are shuffled, so they do not come
    # shortest first
    rng = random.Random(20261018)
    for trial in range(150):
        n = rng.randrange(2, 5)
        vertices = [str(v) for v in range(n)]
        ends = {}
        for i in range(rng.randrange(3, 8)):
            tail, head = rng.sample(vertices, 2)
            ends["x%d" % i] = (tail, head)
        quiver = Quiver(vertices, [Arrow(name, t, h) for name, (t, h) in ends.items()])
        order = rng.randrange(2, 6)

        images = {}
        explicit = {}
        longer = random_words(rng, ends, 2, 6) + random_words(rng, ends, 3, 6)
        for name, (tail, head) in ends.items():
            if rng.random() < 0.3:
                images[name] = {(name,): Fraction(1)}
                continue
            img = {}
            if rng.random() < 0.85:
                img[(name,)] = Fraction(rng.choice([1, -1, 2, 3]), rng.randrange(1, 3))
            parallel = [m for m in ends if m != name and ends[m] == (tail, head)]
            if parallel and rng.random() < 0.5:
                img[(rng.choice(parallel),)] = Fraction(rng.randrange(-3, 4) or 1)
            for w in longer:
                if len(w) <= order and ends[w[-1]][0] == tail and ends[w[0]][1] == head \
                        and rng.random() < 0.6:
                    img[w] = Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4))
            if not img:
                img[(name,)] = Fraction(1)
            images[name] = img
            terms = [(Path(w), c) for w, c in img.items()]
            if trial % 2:
                random.Random("%d %s" % (trial, name)).shuffle(terms)
            explicit[name] = AlgebraElement(quiver, order, dict(terms))
        f = Substitution(quiver, quiver, order, explicit)

        element = {}
        for length in range(1, order + 1):
            for w in random_words(rng, ends, length, 2):
                element[w] = Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
        x = AlgebraElement(quiver, order, {Path(w): c for w, c in element.items()})

        got = {p.arrows: c for p, c in apply_substitution(f, x).terms.items()}
        assert got == oracle_apply_substitution(images, element, order), trial
