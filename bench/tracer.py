"""Spans around qpsurf's public functions, installed from outside the package.

`Tracer.install()` replaces each function or method listed in LAYERS by a
wrapper that records one span per call: span name, start, end and the index
of the enclosing span.  A plain function is replaced in every loaded module
that holds a reference to it, because modules that did `from .x import y`
call their own copy.  Spans live in flat arrays in memory and are reduced to
per-layer totals by `summary()` when the run ends.  A layer's self time is its
span's duration minus the part covered by its child spans, so the self times
of all layers plus the root span's self time add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute or Class.attribute, layer name).  Several functions may
# share a layer name; their spans are summed.
LAYERS = [
    ("qpsurf.cli", "main", "cli.main"),
    ("qpsurf.surface", "Triangulation.from_text", "surface.from_text"),
    ("qpsurf.surface", "Analysis.__init__", "surface.analysis"),
    ("qpsurf.surface", "flip", "surface.flip"),
    ("qpsurf.potential", "potential_assembly", "potential.assembly"),
    ("qpsurf.potential", "qp_of_triangulation", "potential.qp_of_triangulation"),
    ("qpsurf.qp", "premutate_qp", "qp.premutate"),
    ("qpsurf.qp", "split_qp", "qp.split"),
    ("qpsurf.qp", "QP.from_text", "qp.from_text"),
    ("qpsurf.quiver", "premutate_quiver", "quiver.premutate"),
    ("qpsurf.algebra", "AlgebraElement.__mul__", "algebra.mul"),
    ("qpsurf.algebra", "cyclic_normal_form", "algebra.cyclic_normal_form"),
    ("qpsurf.algebra", "apply_substitution", "algebra.apply_substitution"),
    ("qpsurf.algebra", "cyclic_derivative", "algebra.cyclic_derivative"),
    ("qpsurf.jacobian", "truncated_quotient_dim", "jacobian.dim"),
    ("qpsurf.jacobian", "is_rigid_up_to", "jacobian.rigid"),
    ("qpsurf.jacobian", "finite_dim_evidence", "jacobian.stabilize"),
    ("qpsurf.linalg", "SparseEliminator.add_row", "linalg.add_row"),
    ("qpsurf.linalg", "SparseEliminator.contains", "linalg.contains"),
    ("qpsurf.linalg", "rank", "linalg.dense"),
    ("qpsurf.linalg", "diagonalize_pairing", "linalg.dense"),
    ("qpsurf.linalg", "mat_mul", "linalg.dense"),
    ("qpsurf.verify", "canonical_matrix_form", "verify.canonical_form"),
    ("qpsurf.verify", "check_flip_compatibility", "verify.check"),
    ("qpsurf.verify", "check_involution", "verify.check"),
    ("qpsurf.verify", "check_restriction_commutes", "verify.check"),
    ("qpsurf.verify", "explore_mutation_class", "verify.explore"),
]

ROOT = "bench"


def _count_dim(counters, report):
    counters["jacobian.path_columns"] += report.path_counts[-1]
    counters["jacobian.ideal_rank"] += report.ranks[-1]


def _count_add_row(counters, enlarged):
    counters["linalg.add_row.useful"] += bool(enlarged)


def _count_explore(counters, result):
    graph = result[1]
    counters["verify.explore.nodes"] += len(graph.nodes)
    counters["verify.explore.edges"] += len(graph.edges)


# Counters read off a layer's return value, at the layer boundary.
COUNTERS = {
    "jacobian.dim": _count_dim,
    "linalg.add_row": _count_add_row,
    "verify.explore": _count_explore,
}
COUNTER_NAMES = ["jacobian.path_columns", "jacobian.ideal_rank", "linalg.add_row.useful",
                 "verify.explore.nodes", "verify.explore.edges"]


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, layer):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        count = COUNTERS.get(layer)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Call fn inside the root span; returns its result."""
        return self._wrap(fn, ROOT)(*args, **kwargs)

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every entry of LAYERS; undone by `uninstall`."""
        for modname, attr, layer in LAYERS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, layer)
                setattr(cls, meth, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                self._patches.append((cls, meth, raw))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, layer)
            for mod in list(sys.modules.values()):
                space = getattr(mod, "__dict__", None)
                if not space or mod is sys.modules[__name__]:
                    continue
                for key, value in list(space.items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, fn))
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- reducing ----------------------------------------------------------------

    def summary(self):
        """Per-layer [calls, self_s], the counters, and the wall time of the root spans."""
        n = len(self.start)
        covered = [0.0] * n
        wall = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur
            else:
                wall += dur
        layers = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            row = layers[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - covered[i]
        return {"layers": layers, "counters": dict(self.counters), "wall_s": wall}
