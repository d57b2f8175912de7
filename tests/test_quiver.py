import hashlib
import random
from fractions import Fraction

import pytest

from qpsurf.algebra import AlgebraElement, Path, Substitution, substitution_is_isomorphism
from qpsurf.qp import QP, premutate_qp

from qpsurf.quiver import (
    Arrow,
    IntegerMatrix,
    Quiver,
    QuiverError,
    is_two_acyclic,
    matrix_from_quiver,
    mutate_matrix,
    mutate_quiver,
    net_matrix,
    premutate_quiver,
    quiver_from_matrix,
)

MARKOV = IntegerMatrix(["1", "2", "3"], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
MARKOV_REV = IntegerMatrix(["1", "2", "3"], [[0, -2, 2], [2, 0, -2], [-2, 2, 0]])


def linear_quiver():
    return Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])


def test_quiver_rejects_loops_and_duplicates():
    with pytest.raises(QuiverError):
        Quiver(["1"], [Arrow("a", "1", "1")])
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("a", "2", "1")])
    with pytest.raises(QuiverError):
        Quiver(["1", "1"])


def test_quiver_from_matrix_single_entry():
    b = IntegerMatrix(["1", "2"], [[0, 1], [-1, 0]])
    q = quiver_from_matrix(b)
    assert [(a.name, a.tail, a.head) for a in q.arrows] == [("1>2#1", "1", "2")]


def test_quiver_from_matrix_markov():
    q = quiver_from_matrix(MARKOV)
    assert q.multiplicities() == {("1", "2"): 2, ("2", "3"): 2, ("3", "1"): 2}
    assert is_two_acyclic(q)


def test_quiver_from_matrix_zero():
    b = IntegerMatrix(["1", "2", "3"], [[0] * 3] * 3)
    q = quiver_from_matrix(b)
    assert q.vertices == ("1", "2", "3")
    assert q.arrows == ()


def test_quiver_from_matrix_rejects_non_skew():
    with pytest.raises(QuiverError):
        quiver_from_matrix(IntegerMatrix(["1", "2"], [[0, 1], [1, 0]]))


def test_matrix_from_quiver_markov_and_roundtrip():
    q = quiver_from_matrix(MARKOV)
    assert matrix_from_quiver(q) == MARKOV
    # identity on matrices both ways
    assert matrix_from_quiver(quiver_from_matrix(MARKOV_REV)) == MARKOV_REV


def test_matrix_from_quiver_zero_and_two_cycle():
    assert matrix_from_quiver(Quiver(["1", "2"])) == IntegerMatrix(["1", "2"], [[0, 0], [0, 0]])
    bad = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    with pytest.raises(QuiverError):
        matrix_from_quiver(bad)


def test_premutation_linear_quiver():
    q = linear_quiver()
    pre = premutate_quiver(q, "2")
    names = {(a.name, a.tail, a.head) for a in pre.arrows}
    assert names == {("a*", "2", "1"), ("b*", "3", "2"), ("[b.a]", "1", "3")}


def test_premutation_isolated_vertex():
    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2")])
    assert premutate_quiver(q, "3") == q


def test_premutation_rejects_two_cycle_at_vertex():
    q = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    with pytest.raises(QuiverError):
        premutate_quiver(q, "1")


def test_mutate_linear_quiver():
    q = linear_quiver()
    m = mutate_quiver(q, "2")
    assert m.multiplicities() == {("2", "1"): 1, ("3", "2"): 1, ("1", "3"): 1}


def test_mutate_markov():
    q = quiver_from_matrix(MARKOV)
    assert matrix_from_quiver(mutate_quiver(q, "2")) == MARKOV_REV


def test_mutation_cancels_opposite_arrows_smallest_name_first():
    # three hooks [a.b1], [a.b2], [a.b3] : 1 -> 3 against one arrow c : 3 -> 1
    q = Quiver(["1", "2", "3"], [Arrow("a", "2", "3"), Arrow("c", "3", "1")]
               + [Arrow("b%d" % n, "1", "2") for n in (1, 2, 3)])
    names = [a.name for a in mutate_quiver(q, "2").arrows]
    assert names == ["[a.b2]", "[a.b3]", "a*", "b1*", "b2*", "b3*"]


def test_mutation_involutive_on_markov():
    q = quiver_from_matrix(MARKOV)
    for k in q.vertices:
        twice = mutate_quiver(mutate_quiver(q, k), k)
        assert matrix_from_quiver(twice) == MARKOV


def test_is_two_acyclic():
    assert is_two_acyclic(quiver_from_matrix(MARKOV))
    assert not is_two_acyclic(Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")]))
    assert is_two_acyclic(Quiver(["1"]))


def test_mutate_matrix_literals():
    assert mutate_matrix(MARKOV, "2") == MARKOV_REV
    assert mutate_matrix(mutate_matrix(MARKOV, "2"), "2") == MARKOV
    b = IntegerMatrix(["1", "2"], [[0, 1], [-1, 0]])
    assert mutate_matrix(b, "1") == IntegerMatrix(["1", "2"], [[0, -1], [1, 0]])


def mutation_rule(rows, k):
    """The mutated entries, one at a time: b'_ij = -b_ij at k, else
    b_ij + sgn(b_ik) [b_ik b_kj]_+."""
    def entry(i, j):
        if k in (i, j):
            return -rows[i][j]
        p = rows[i][k] * rows[k][j]
        return rows[i][j] + (0 if p <= 0 else p if rows[i][k] > 0 else -p)
    return [[entry(i, j) for j in range(len(rows))] for i in range(len(rows))]


def random_skew_rows(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(-3, 4)
            rows[j][i] = -rows[i][j]
    return rows


def test_mutate_matrix_matches_entrywise_rule_and_checks_input():
    rng = random.Random(2008)
    for _ in range(200):
        n = rng.randrange(1, 6)
        vs = [str(i) for i in range(n)]
        rows = random_skew_rows(rng, n)
        b = IntegerMatrix(vs, rows)
        k = rng.randrange(n)
        want = IntegerMatrix(vs, mutation_rule(rows, k))
        got = mutate_matrix(b, str(k))
        assert type(got) is IntegerMatrix and got.vertices == b.vertices
        assert got.rows == want.rows and got == want
        assert got.entry(vs[0], vs[-1]) == want.entry(vs[0], vs[-1])
    with pytest.raises(QuiverError, match="not skew-symmetric"):
        mutate_matrix(IntegerMatrix(["1", "2"], [[0, 1], [1, 0]]), "1")
    with pytest.raises(QuiverError, match="not skew-symmetric"):
        mutate_matrix(IntegerMatrix(["1"], [[1]]), "1")
    with pytest.raises(QuiverError, match="unknown vertex '4'"):
        mutate_matrix(MARKOV, "4")


def test_mutate_matrix_chain_follows_the_entrywise_rule():
    # each step mutates the previous result, which is known to be skew
    # without a check; the rule is applied to plain lists
    rng = random.Random(23)
    vs = [str(i) for i in range(6)]
    rows = random_skew_rows(rng, 6)
    b = IntegerMatrix(vs, rows)
    for _ in range(50):
        k = rng.randrange(6)
        rows = mutation_rule(rows, k)
        b = mutate_matrix(b, vs[k])
        built = IntegerMatrix(vs, rows)
        assert b.rows == built.rows and b == built and built == b
        assert repr(b) == repr(built) == "IntegerMatrix(('0', '1', '2', '3', '4', '5'))"
        assert b.is_skew_symmetric() and built.is_skew_symmetric()


def test_skew_check_is_made_for_each_constructed_matrix():
    skew = mutate_matrix(MARKOV, "2")
    assert skew.is_skew_symmetric() and skew == MARKOV_REV
    # built after a skew matrix was mutated, with the same vertices and shape
    bad = IntegerMatrix(MARKOV.vertices, [[0, 2, -2], [-2, 0, 2], [2, 2, 0]])
    for _ in range(2):
        with pytest.raises(QuiverError, match="^matrix is not skew-symmetric$"):
            mutate_matrix(bad, "1")
        assert not bad.is_skew_symmetric()
    with pytest.raises(QuiverError, match="^matrix is not skew-symmetric$"):
        quiver_from_matrix(bad)
    assert MARKOV.is_skew_symmetric() and mutate_matrix(skew, "2") == MARKOV
    assert bad != MARKOV and repr(bad) == repr(MARKOV) == "IntegerMatrix(('1', '2', '3'))"


def test_matrix_equality_reads_entries_by_vertex():
    vs = ["a", "b", "c"]
    rows = [[0, 1, -3], [-1, 0, 2], [3, -2, 0]]
    b = IntegerMatrix(vs, rows)

    def in_order(order, changed=None):
        # b's entries with the vertices listed in `order`; `changed` adds 1 at a pair
        return IntegerMatrix(order, [[rows[vs.index(i)][vs.index(j)] + ((i, j) == changed)
                                      for j in order] for i in order])

    for order in (["c", "a", "b"], ["b", "a", "c"], ["c", "b", "a"]):
        assert b == in_order(order) and in_order(order) == b and not b != in_order(order)
        for changed in (("a", "c"), ("c", "b"), ("b", "b")):
            assert b != in_order(order, changed) and in_order(order, changed) != b
    assert b == in_order(vs) and b != in_order(vs, ("a", "b"))
    assert b != IntegerMatrix(["a", "b", "d"], rows)
    assert b != IntegerMatrix(["a", "b"], [[0, 1], [-1, 0]])
    assert b.__eq__(rows) is NotImplemented and b != rows and b != "abc"


def test_matrix_and_quiver_mutation_agree():
    mats = [
        MARKOV,
        IntegerMatrix(["1", "2"], [[0, 1], [-1, 0]]),
        IntegerMatrix(["1", "2", "3", "4"],
                      [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]),
        IntegerMatrix(["1", "2", "3"], [[0, 1, -2], [-1, 0, 1], [2, -1, 0]]),
    ]
    for b in mats:
        for k in b.vertices:
            via_quiver = matrix_from_quiver(mutate_quiver(quiver_from_matrix(b), k))
            assert mutate_matrix(b, k) == via_quiver


@pytest.mark.parametrize("entry", [Fraction(3, 2), 1.5], ids=["fraction", "float"])
def test_integer_matrix_refuses_a_non_integral_entry(entry):
    # int() would truncate the entry to 1, and the truncated matrix is skew
    with pytest.raises(QuiverError, match=r"^matrix entry .* at row '1', column '2' is not"
                                          r" an integer$"):
        IntegerMatrix(["1", "2"], [[0, entry], [-entry, 0]])
    whole = IntegerMatrix(["1", "2"], [[0, Fraction(2)], [-2.0, 0]])
    assert whole.rows == ((0, 2), (-2, 0)) and all(type(x) is int for x in whole.rows[1])


@pytest.mark.parametrize("text, bad_line", [
    ("v 1\nv\n", "line 2"),
    ("v 1\n# c\nv 2\na x 1\n", "line 4"),
], ids=["vertex-without-id", "short-arrow"])
def test_quiver_text_names_a_bad_line(text, bad_line):
    with pytest.raises(QuiverError, match=bad_line):
        Quiver.from_text(text)


def test_quiver_text_roundtrip():
    q = quiver_from_matrix(MARKOV)
    assert Quiver.from_text(q.to_text()) == q


def random_grouping_quiver(rng):
    """A quiver on 1 to 5 vertices with 0 to 8 arrows between random ordered
    pairs, so parallel and opposite arrows and isolated vertices all occur.
    Names are drawn so that name order is not the order of the pairs."""
    vertices = [str(v) for v in range(1, rng.randint(1, 5) + 1)]
    pairs = [(i, j) for i in vertices for j in vertices if i != j]
    names = rng.sample(["a", "b", "c", "d", "e", "x1", "x10", "x2", "y"], 9)
    arrows = [Arrow(names[n], *rng.choice(pairs)) for n in range(rng.randint(0, 8) if pairs else 0)]
    return Quiver(vertices, arrows)


def random_linear_substitution(rng, q):
    """A substitution of q moving some arrows to combinations of parallel
    arrows, sometimes plus a longer path; the target is q, q with one arrow
    renamed (which must then be moved), or q with one arrow more."""
    target, renamed = q, None
    shape = rng.choice(("same", "same", "renamed", "extra"))
    if shape == "renamed" and q.arrows:
        renamed = rng.choice(q.arrows)
        target = Quiver(q.vertices, [Arrow("r", a.tail, a.head) if a is renamed else a
                                     for a in q.arrows])
    elif shape == "extra" and len(q.vertices) > 1:
        target = Quiver(q.vertices, q.arrows + (Arrow("z", q.vertices[0], q.vertices[1]),))
    order = 4
    images = {}
    for a in q.arrows:
        if a is not renamed and rng.random() < 0.5:
            continue
        own = "r" if a is renamed else a.name
        parallel = [b.name for b in target.arrows if (b.tail, b.head) == (a.tail, a.head)]
        terms = {Path((n,)): rng.choice((-1, 0, 0, 1, 2, Fraction(1, 2))) for n in parallel}
        back = [b.name for b in target.arrows if (b.tail, b.head) == (a.head, a.tail)]
        if back and rng.random() < 0.3:
            terms[Path((own, back[0], own))] = 1
        images[a.name] = AlgebraElement(target, order, {p: c for p, c in terms.items() if c})
    return Substitution(q, target, order, images)


# sha256 over seeded random quivers of multiplicities() (with its key order),
# the net matrix rows and is_two_acyclic; at every vertex the text of
# premutate_quiver, mutate_quiver and the zero-potential premutate_qp, or the
# type and text of the refusal; and substitution_is_isomorphism on seeded
# linear substitutions.  Recorded while each rule grouped arrows by
# (tail, head) on its own.
GROUPING_SHA256 = "28eb392ec63000887c11cc95c69a6846680c7b47b453de3ce9da16c63f83ead9"


def test_grouping_rules_pinned_on_random_quivers():
    h = hashlib.sha256()
    seen = dict.fromkeys(("parallel", "opposite", "isolated", "refused", "iso", "renamed-iso"), 0)

    def record(*parts):
        h.update(("\n".join(map(str, parts)) + "\n").encode())

    def refused(call, *args):
        try:
            return call(*args).to_text()
        except ValueError as exc:
            seen["refused"] += 1
            return "%s: %s" % (type(exc).__name__, exc)

    for seed in range(800):
        rng = random.Random("grouping:%d" % seed)
        q = random_grouping_quiver(rng)
        mult = q.multiplicities()
        seen["parallel"] += max(mult.values(), default=0) > 1
        seen["opposite"] += not is_two_acyclic(q)
        seen["isolated"] += any(all(v not in (a.tail, a.head) for a in q.arrows)
                                for v in q.vertices)
        record(seed, q.to_text(), list(mult.items()), net_matrix(q).rows, is_two_acyclic(q))
        zero = QP(q, AlgebraElement.zero(q, 4), 4)
        for k in q.vertices:
            record(k, refused(premutate_quiver, q, k), refused(mutate_quiver, q, k),
                   refused(premutate_qp, zero, k))
        for _ in range(2):
            f = random_linear_substitution(rng, q)
            iso = substitution_is_isomorphism(f)
            seen["iso"] += iso
            seen["renamed-iso"] += iso and f.target.has_arrow("r")
            record(sorted((n, img.to_text()) for n, img in f.images.items()),
                   f.target.to_text(), iso)
    assert seen == {"parallel": 332, "opposite": 298, "isolated": 412, "refused": 1968,
                    "iso": 895, "renamed-iso": 139}
    assert h.hexdigest() == GROUPING_SHA256
