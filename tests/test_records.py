"""Value semantics of the record classes: construction, equality, hashing, repr."""

import copy
import pickle

import pytest

from qpsurf import (
    AlgebraError,
    Arrow,
    CheckReport,
    DimensionReport,
    Path,
    PotentialAssembly,
    RigidityReport,
    Side,
    SplitResult,
    Triangulation,
    explore_mutation_class,
    qp_of_triangulation,
    split_qp,
)
from qpsurf.examples_data import example_text


def test_path_equality_hash_and_order():
    p = Path(("a", "b"))
    assert p == Path(arrows=("a", "b"), vertex="")
    assert p != Path(("a",)) and p != Path((), "a")
    assert p != ("a", "b")
    assert hash(p) == hash((("a", "b"), ""))
    assert hash(Path((), "v")) == hash(((), "v"))
    assert len(p) == 2 and len(Path((), "v")) == 0
    paths = [Path(("b",)), Path((), "x"), Path(("a", "b")), Path((), "w"), Path(("a",))]
    assert sorted(paths) == [Path((), "w"), Path((), "x"), Path(("a",)), Path(("a", "b")),
                             Path(("b",))]
    assert Path(("a",)) < Path(("b",)) <= Path(("b",)) and Path(("b",)) > Path(("a", "z"))
    assert Path(("b",)) >= Path(("b",))
    with pytest.raises(TypeError):
        Path(("a",)) < ("a",)


def test_path_is_immutable_and_validated():
    p = Path(("a",))
    with pytest.raises(AttributeError):
        p.arrows = ("b",)
    with pytest.raises(AttributeError):
        p.extra = 1
    with pytest.raises(AttributeError):
        del p.vertex
    assert p.arrows == ("a",)
    with pytest.raises(AlgebraError, match="positive-length path must not carry a vertex"):
        Path(("a",), "v")
    with pytest.raises(AlgebraError, match="length-0 path needs a vertex"):
        Path(())


def test_path_repr():
    assert repr(Path(("a", "b"))) == "Path(arrows=('a', 'b'), vertex='')"
    assert repr(Path((), "v1")) == "Path(arrows=(), vertex='v1')"


def test_arrow_and_side_values():
    a = Arrow("a", "1", "2")
    assert a == Arrow(name="a", tail="1", head="2") and a != Arrow("a", "2", "1")
    assert hash(a) == hash(("a", "1", "2"))
    assert repr(a) == "Arrow(name='a', tail='1', head='2')"
    with pytest.raises(TypeError):
        a < Arrow("b", "1", "2")
    s = Side("1", "arc", ("A", "B"))
    assert s.boundary is None and s.is_arc and not s.is_loop
    assert s == Side(name="1", kind="arc", ends=("A", "B"), boundary=None)
    assert s != Side("1", "bseg", ("A", "B"), 0)
    assert hash(s) == hash(("1", "arc", ("A", "B"), None))
    assert repr(Side("s", "bseg", ("A", "A"), 0)) == \
        "Side(name='s', kind='bseg', ends=('A', 'A'), boundary=0)"
    assert Side("s", "bseg", ("A", "A"), 0).is_loop
    for obj, field in ((a, "tail"), (s, "kind")):
        with pytest.raises(AttributeError):
            setattr(obj, field, "x")
        with pytest.raises(AttributeError):
            delattr(obj, field)


@pytest.mark.parametrize("obj", [Path(("a", "b")), Path((), "v"), Arrow("a", "1", "2"),
                                 Side("1", "arc", ("A", "B")), Side("s", "bseg", ("A", "B"), 2)],
                         ids=repr)
def test_frozen_values_copy_and_pickle(obj):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)


def test_dimension_and_rigidity_reports():
    # a report stores facts only; each verdict is read off them, so none can disagree
    kw = dict(dims=[1, 2, 2], path_counts=[1, 3, 4], certified_order=None)
    a, b = DimensionReport(**kw), DimensionReport(**kw)
    assert a == b and a.order == 2 and a.dimension == 2
    assert a.ranks == [0, 1, 2] and a.absorbed == [False, False, True] and not a.certified
    assert a != DimensionReport(**dict(kw, certified_order=1))
    assert repr(a) == "DimensionReport(dims=[1, 2, 2], path_counts=[1, 3, 4], certified_order=None)"
    with pytest.raises(TypeError):
        DimensionReport(**kw, certified=True)
    with pytest.raises(AttributeError):
        a.certified = True
    a.certified_order = 1
    assert a.certified and a == DimensionReport([1, 2, 2], [1, 3, 4], 1)
    assert a.to_text().splitlines()[1:] == ["0 1 0 1 no", "1 3 1 2 yes", "2 4 2 2 yes"]
    with pytest.raises(TypeError):
        hash(a)
    r = RigidityReport(max_order=4, witness=Path(("a", "b")))
    assert not r.rigid and RigidityReport(4, None).rigid
    assert r == RigidityReport(4, Path(("a", "b"))) != RigidityReport(4, None)
    assert repr(r) == ("RigidityReport(max_order=4, "
                       "witness=Path(arrows=('a', 'b'), vertex=''), certified_order=None, "
                       "dim_def=None)")
    assert r != RigidityReport(4, Path(("a", "b")), 3, 1)
    assert r.to_text() == "non-rigid witness: a b\n"
    assert RigidityReport(4, None).to_text() == "rigid-up-to-4\n"


def test_check_report_and_potential_assembly_defaults():
    a, b = CheckReport("c", "d"), CheckReport(name="c", inputs_digest="d")
    assert a.subresults == [] and a.subresults is not b.subresults and a == b
    assert a.passed and a.first_failure is None
    a.subresults.append(("x", False, "why"))
    assert a != b and not a.passed and a.first_failure == "x: why"
    assert a.to_text() == "check c (d): FAIL\n  x: FAIL (why)\n"
    assert repr(a) == "CheckReport(name='c', inputs_digest='d', subresults=[('x', False, 'why')])"
    p, q = PotentialAssembly(quiver=None, order=3), PotentialAssembly(None, 3)
    assert p == q
    for field in ("triangle_terms", "correction_terms", "puncture_terms", "warnings"):
        assert getattr(p, field) == getattr(q, field)
        assert getattr(p, field) is not getattr(q, field)
    assert repr(p) == ("PotentialAssembly(quiver=None, order=3, triangle_terms={}, "
                       "correction_terms={}, puncture_terms={}, warnings=[])")


def test_split_result_and_class_graph():
    qp = qp_of_triangulation(Triangulation.from_text(example_text("pentagon")), 4)
    split = split_qp(qp)
    again = SplitResult(trivial=split.trivial, reduced=split.reduced, steps=split.steps)
    assert again == split and again != SplitResult(split.reduced, split.trivial, split.steps)
    assert repr(again) == "SplitResult(trivial=%r, reduced=%r, steps=%r)" % (
        split.trivial, split.reduced, split.steps)
    qp = qp_of_triangulation(Triangulation.from_text(example_text("hexagon-fan")), 4)
    _, graph = explore_mutation_class(qp, 2, 4)
    _, twin = explore_mutation_class(qp, 2, 4)
    assert graph == twin and graph != explore_mutation_class(qp, 1, 4)[1]
    assert repr(graph) == (
        "ClassGraph(vertices=%r, digests=%r, rows=%r, tables=%r, expanded=%r, targets=%r)"
        % (graph.vertices, graph.digests, graph.rows, graph.tables, graph.expanded,
           graph.targets))
