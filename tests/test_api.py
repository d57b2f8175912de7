"""The public names of the `qpsurf` package, checked in a fresh interpreter."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import qpsurf

PUBLIC_NAMES = [
    "AlgebraElement", "AlgebraError", "Arrow", "CheckReport", "DimensionReport",
    "IntegerMatrix", "MarkedSurface", "Path", "PotentialAssembly", "QP", "QPError", "QpsurfError",
    "Quiver", "QuiverError", "RigidityReport", "Side", "SplitResult", "Substitution", "SurfaceError",
    "Triangulation", "algebra", "apply_substitution", "arrow_path", "cartan_matrix",
    "check_flip_compatibility", "check_involution", "check_restriction_commutes",
    "cyclic_derivative", "cyclic_normal_form", "cyclically_equivalent",
    "explore_mutation_class", "finite_dim_evidence", "flip", "fold_map", "is_rigid_up_to",
    "is_two_acyclic", "jacobian", "linalg", "matrix_from_quiver",
    "mutate_matrix", "mutate_qp", "mutate_quiver", "potential",
    "potential_assembly", "premutate_qp", "premutate_quiver", "qp", "qp_of_triangulation",
    "quiver", "quiver_from_matrix", "restrict_qp", "signed_adjacency", "split_qp",
    "substitution_is_isomorphism", "surface", "truncated_quotient_dim", "unreduced_potential",
    "unreduced_quiver", "validate_triangulation", "verify", "vertex_path",
]

# Runs after a bare `import qpsurf`; prints what the test compares.
PROBE = r"""
import json, pkgutil, sys, types
import qpsurf

out = {"all": qpsurf.__all__, "misplaced": [], "star": None}
# every module of the package, each resolved through the package first
out["unresolved"] = [m.name for m in pkgutil.iter_modules(qpsurf.__path__)
                     if getattr(qpsurf, m.name) is not sys.modules["qpsurf." + m.name]]
for name in qpsurf.__all__:
    obj = getattr(qpsurf, name)
    if isinstance(obj, types.ModuleType):
        home_ok = obj is sys.modules["qpsurf." + name]
    else:
        home_ok = getattr(sys.modules[obj.__module__], name) is obj
    if not home_ok:
        out["misplaced"].append(name)
space = {}
exec("from qpsurf import *", space)
out["star"] = sorted(k for k, v in space.items()
                     if k != "__builtins__" and v is getattr(qpsurf, k))
out["examples_data"] = "torus" in qpsurf.examples_data.CORPUS
out["cli"] = callable(qpsurf.cli.main)
try:
    qpsurf.no_such_name
    out["unknown"] = "resolved"
except AttributeError as exc:
    out["unknown"] = str(exc)
out["hasattr"] = hasattr(qpsurf, "no_such_name")
print(json.dumps(out))
"""


def test_public_api_is_pinned():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qpsurf.__file__)))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["all"] == PUBLIC_NAMES
    assert out["misplaced"] == []
    assert out["star"] == PUBLIC_NAMES
    assert out["examples_data"] and out["cli"]
    assert out["unresolved"] == []
    assert out["unknown"] == "module 'qpsurf' has no attribute 'no_such_name'"
    assert out["hasattr"] is False


def test_package_names_follow_their_home_module(monkeypatch):
    """A name read from the package is looked up in its module on every access."""
    import qpsurf.surface

    def patched(tri, arc):
        return "patched"

    monkeypatch.setattr(qpsurf.surface, "flip", patched)
    assert qpsurf.flip is patched
    monkeypatch.undo()
    assert qpsurf.flip is qpsurf.surface.flip is not patched
    assert "flip" not in vars(qpsurf)


def test_every_traced_layer_names_a_library_function():
    """bench/tracer.py wraps each (module, attribute) of its LAYERS by name.

    The list is read from the tracer's source with `ast.literal_eval`, so no
    benchmark module is imported; a `Class.method` entry resolves through the
    class's own `__dict__`, as the tracer looks it up.
    """
    source = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    layers = [ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    assert len(layers) == 1 and layers[0]
    for module, attribute, layer in layers[0]:
        owner = importlib.import_module(module)
        if "." in attribute:
            cls, name = attribute.split(".")
            assert name in vars(getattr(owner, cls)), (module, attribute, layer)
        else:
            assert callable(getattr(owner, attribute, None)), (module, attribute, layer)
