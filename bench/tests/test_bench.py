"""Self-tests of the benchmark: generator, oracle, tracer, workloads, runner.

    python3 -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gen  # noqa: E402
import oracle  # noqa: E402
import qpsurf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::qpsurf.potential.PotentialBuildWarning")

SHAPES = [("polygon", 6, 0), ("polygon", 9, 0), ("polygon", 5, 1), ("polygon", 7, 2),
          ("polygon", 8, 3), ("torus", 0, 0), ("torus", 0, 1)]


def expected_rank(kind, size, punctures):
    """6g + 3b + 3p + c - 6 for the generated surface."""
    if kind == "polygon":
        return 6 * 0 + 3 * 1 + 3 * punctures + size - 6
    return 6 * 1 + 3 * 0 + 3 * (1 + punctures) + 0 - 6


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_output_is_valid_with_the_rank_formula(shape, seed):
    tri = gen.surface(*shape, seed, 6)
    assert qpsurf.validate_triangulation(tri) == []
    assert len(tri.arcs) == expected_rank(*shape) == tri.surface.rank()
    assert gen.max_valence(tri) <= 6
    assert "'" not in "".join(tri.arcs)
    qpsurf.qp_of_triangulation(tri, 6)


def test_generator_is_seeded():
    a = gen.surface("polygon", 8, 2, 5, 6).to_text()
    assert a == gen.surface("polygon", 8, 2, 5, 6).to_text()
    assert a != gen.surface("polygon", 8, 2, 6, 6).to_text()


def test_walks_respect_a_lower_valence_cap():
    for seed in range(4):
        assert gen.max_valence(gen.surface("polygon", 10, 3, seed, 4)) <= 4


def test_add_puncture_adds_three_arcs():
    tri = gen.polygon(6)
    out = gen.add_puncture(tri, 1)
    assert len(out.arcs) == len(tri.arcs) + 3
    assert len(out.triangles) == len(tri.triangles) + 2
    assert gen.valences(out) == {"P1": 3}


@pytest.mark.parametrize("shape,seed,order", [(("torus", 0, 0), 0, 4),
                                              (("polygon", 5, 2), 2, 4)])
def test_oracle_matches_the_library(shape, seed, order):
    qp = qpsurf.qp_of_triangulation(gen.surface(*shape, seed, 6), 8)
    assert oracle.oracle_dims(qp, order) == qpsurf.truncated_quotient_dim(qp, order).dims


def _sample_outputs():
    tri = gen.surface("polygon", 5, 1, 0, 6)
    qp = qpsurf.qp_of_triangulation(tri, 6)
    report, graph = qpsurf.explore_mutation_class(qp, 2, 6)
    return [
        qpsurf.truncated_quotient_dim(qp, 5).to_text(),
        qpsurf.is_rigid_up_to(qp, 5).to_text(),
        qpsurf.finite_dim_evidence(qp, 5).to_text(),
        qpsurf.check_flip_compatibility(tri, gen.flip_candidates(tri)[0], 6).to_text(),
        report.to_text() + graph.to_text(),
        qpsurf.mutate_qp(qp, qp.quiver.vertices[0]).to_text(),
    ]


def test_tracing_changes_no_result_and_self_times_add_up():
    plain = _sample_outputs()
    original = qpsurf.truncated_quotient_dim
    tracer = Tracer().install()
    try:
        assert qpsurf.truncated_quotient_dim is not original
        traced = tracer.root(_sample_outputs)
    finally:
        tracer.uninstall()
    assert qpsurf.truncated_quotient_dim is original
    assert qpsurf.verify.truncated_quotient_dim is original
    assert traced == plain
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["jacobian.dim"][0] >= 2  # once directly, and inside the stabilisation
    assert layers["verify.canonical_form"][0] > 0
    assert summary["counters"]["verify.explore.nodes"] > 0
    total = sum(self_s for _, self_s in layers.values())
    assert total == pytest.approx(summary["wall_s"], rel=1e-9)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_ops_of_each_workload_pass_their_gate(name):
    w = workloads.make(name, 7, ROOT)
    w.setup()
    stream = w.ops()
    results = []
    for key, thunk in [next(stream) for _ in range(2)]:
        results.append((key, thunk(), None))
    assert workloads.gate(w, results) == ([], [])


def test_same_seed_same_inputs_and_order():
    def plan(seed):
        w = workloads.make("explore", seed, ROOT)
        w.setup()
        stream = w.ops()
        return w.inputs, [next(stream)[0] for _ in range(5)]
    assert plan(3) == plan(3)
    assert plan(3) != plan(4)


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_package():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
