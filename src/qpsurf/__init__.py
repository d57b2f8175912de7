"""Quivers with potentials from triangulated surfaces: flips, mutations, checks.

Importing the package loads none of its modules.  A public name is looked up
in its home module on every access, and that module is imported the first
time one of its names is used.  Nothing is copied into the package namespace,
so a name patched in its home module reads patched here too.  `QpsurfError`,
the base of every error class of the package, is defined here.
"""

import sys as _sys


class QpsurfError(ValueError):
    """Refused input; any other exception raised by the package is a bug."""

    @classmethod
    def at_line(cls, kind, lineno, text, why=None):
        """The refusal of line `lineno` of `kind` text, quoting `text` and `why`."""
        return cls("bad %s line %d: %r%s" % (kind, lineno, text, " (%s)" % why if why else ""))


_EXPORTS = {
    "algebra": (
        "AlgebraElement", "AlgebraError", "Path", "Substitution", "apply_substitution",
        "arrow_path", "cyclic_derivative", "cyclic_normal_form", "cyclically_equivalent",
        "substitution_is_isomorphism", "vertex_path",
    ),
    "jacobian": (
        "DimensionReport", "RigidityReport", "cartan_matrix", "finite_dim_evidence",
        "is_rigid_up_to", "jacobian_generators", "truncated_quotient_dim",
    ),
    "linalg": (),
    "potential": (
        "PotentialAssembly", "potential_assembly", "qp_of_triangulation", "unreduced_potential",
    ),
    "qp": (
        "QP", "QPError", "SplitResult", "mutate_qp", "premutate_qp", "restrict_qp", "split_qp",
    ),
    "quiver": (
        "Arrow", "IntegerMatrix", "Quiver", "QuiverError", "is_two_acyclic", "matrix_from_quiver",
        "mutate_matrix", "mutate_quiver", "premutate_quiver", "quiver_from_matrix",
    ),
    "surface": (
        "MarkedSurface", "Side", "SurfaceError", "Triangulation", "flip", "fold_map",
        "signed_adjacency", "unreduced_quiver", "validate_triangulation",
    ),
    "verify": (
        "CheckReport", "check_flip_compatibility", "check_involution",
        "check_restriction_commutes", "explore_mutation_class",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "examples_data"}

__all__ = sorted(["QpsurfError", *_HOME, *_EXPORTS])


def __getattr__(name):
    module = _HOME.get(name) or (name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # __import__ takes the import statement's path, which -X importtime
    # reports; importlib.import_module does not
    qualname = __name__ + "." + module
    __import__(qualname)
    loaded = _sys.modules[qualname]
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
