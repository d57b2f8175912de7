"""Command-line entry point.

Exit codes: 0 success, 1 check failure, 2 refused input (a `QpsurfError`) or
output closed early.  Any other exception is a bug and keeps its traceback.
Output is canonical text and contains nothing run-dependent.
"""

import argparse
import os
import sys
import warnings

from . import QpsurfError

# Each command imports the modules it runs, so a process loads no more of the
# package than its command needs.

INPUT_ERROR = 2
CHECK_FAILURE = 1


def _read(path):
    try:
        if path == "-":
            if sys.stdin is None:
                # started with stdin closed, as by `<&-`
                raise QpsurfError("standard input is closed")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QpsurfError(str(exc)) from None


def _load_triangulation(path, scalars=None):
    from .surface import Triangulation, _parse_scalars

    tri = Triangulation.from_text(_read(path), _parse_scalars(scalars))
    tri.analysis()
    return tri


def _load_qp(path):
    from .qp import QP

    return QP.from_text(_read(path))


def _cmd_validate(args, out):
    from .surface import Triangulation, validate_triangulation

    tri = Triangulation.from_text(_read(args.tri))
    problems = validate_triangulation(tri)
    if problems:
        raise QpsurfError("; ".join(problems))
    out.write("ok\n")
    return 0


def _cmd_matrix(args, out):
    from .surface import signed_adjacency

    out.write(signed_adjacency(_load_triangulation(args.tri)).to_text())
    return 0


def _cmd_quiver(args, out):
    from .quiver import quiver_from_matrix
    from .surface import signed_adjacency, unreduced_quiver

    tri = _load_triangulation(args.tri)
    if args.unreduced:
        quiver, provenance = unreduced_quiver(tri)
        out.write(quiver.to_text())
        for name in sorted(provenance):
            out.write("# %s from %s\n" % (name, " ".join(str(x) for x in provenance[name])))
    else:
        out.write(quiver_from_matrix(signed_adjacency(tri)).to_text())
    return 0


def _cmd_potential(args, out):
    from .potential import qp_of_triangulation, unreduced_potential

    tri = _load_triangulation(args.tri, args.scalars)
    if args.unreduced:
        out.write(unreduced_potential(tri, args.order).to_text())
    else:
        out.write(qp_of_triangulation(tri, args.order).potential.to_text())
    return 0


def _cmd_qp(args, out):
    from .potential import qp_of_triangulation

    tri = _load_triangulation(args.tri, args.scalars)
    out.write(qp_of_triangulation(tri, args.order).to_text())
    return 0


def _cmd_flip(args, out):
    from .surface import flip

    out.write(flip(_load_triangulation(args.tri), args.arc).to_text())
    return 0


def _cmd_mutate(args, out):
    from .qp import mutate_qp

    out.write(mutate_qp(_load_qp(args.qp), args.vertex).to_text())
    return 0


def _cmd_dim(args, out):
    from .jacobian import finite_dim_evidence, truncated_quotient_dim

    qp = _load_qp(args.qp)
    if args.stabilize:
        out.write(finite_dim_evidence(qp, args.order).to_text())
    else:
        out.write(truncated_quotient_dim(qp, args.order).to_text())
    return 0


def _cmd_rigid(args, out):
    from .jacobian import is_rigid_up_to

    report = is_rigid_up_to(_load_qp(args.qp), args.order)
    out.write(report.to_text())
    return 0


def _cmd_check(args, out):
    from .verify import check_flip_compatibility, check_involution, check_restriction_commutes

    if args.what == "flip-compat":
        report = check_flip_compatibility(_load_triangulation(args.input), args.arg, args.order)
    elif args.what == "involution":
        report = check_involution(_load_qp(args.input), args.arg, args.order)
    else:
        keep = [v for v in args.keep.split(",") if v]
        report = check_restriction_commutes(_load_qp(args.input), keep, args.arg, args.order)
    out.write(report.to_text())
    return 0 if report.passed else CHECK_FAILURE


def _cmd_explore(args, out):
    from .verify import explore_mutation_class

    report, graph = explore_mutation_class(_load_qp(args.qp), args.depth, args.order)
    out.write(report.to_text())
    out.write(graph.to_text())
    return 0 if report.passed else CHECK_FAILURE


def _cmd_examples(args, out):
    from .examples_data import example_text

    out.write(example_text(args.name))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpsurf",
        description="Quivers with potentials from triangulated surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def tri_arg(p):
        p.add_argument("tri", nargs="?", default="-", help="triangulation file ('-' for stdin)")

    def qp_arg(p):
        p.add_argument("qp", nargs="?", default="-", help="QP file ('-' for stdin)")

    def order_arg(p):
        p.add_argument("--order", type=int, default=6, help="truncation order (default 6)")

    p = sub.add_parser("validate", help="validate a triangulation file")
    tri_arg(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("matrix", help="signed adjacency matrix")
    tri_arg(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("quiver", help="adjacency quiver")
    tri_arg(p)
    p.add_argument("--unreduced", action="store_true")
    p.set_defaults(func=_cmd_quiver)

    p = sub.add_parser("potential", help="potential of a triangulation")
    tri_arg(p)
    p.add_argument("--unreduced", action="store_true")
    p.add_argument("--scalars", help="puncture scalar overrides, e.g. p1=2/1,p2=3/1")
    order_arg(p)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("qp", help="reduced QP of a triangulation")
    tri_arg(p)
    p.add_argument("--scalars")
    order_arg(p)
    p.set_defaults(func=_cmd_qp)

    p = sub.add_parser("flip", help="flip an arc")
    tri_arg(p)
    p.add_argument("arc")
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("mutate", help="mutate a QP at a vertex")
    qp_arg(p)
    p.add_argument("vertex")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("dim", help="truncated quotient dimension report")
    qp_arg(p)
    order_arg(p)
    p.add_argument("--stabilize", action="store_true",
                   help="end the table one degree after the certificate")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("rigid", help="rigidity check up to an order")
    qp_arg(p)
    order_arg(p)
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("check", help="run a compatibility check")
    p.add_argument("what", choices=["flip-compat", "involution", "restriction"])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("arg", help="arc or vertex")
    p.add_argument("--keep", default="", help="vertices kept by the restriction")
    order_arg(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("explore", help="breadth-first mutation-class exploration")
    qp_arg(p)
    p.add_argument("--depth", type=int, default=3)
    order_arg(p)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("examples", help="print a built-in triangulation")
    p.add_argument("name")
    p.set_defaults(func=_cmd_examples)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    if out is None:
        # started with stdout closed, as by `>&-`
        sys.stderr.write("error: standard output is closed\n")
        return INPUT_ERROR
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args, out)
        for w in caught:
            sys.stderr.write("warning: %s\n" % w.message)
        out.flush()
        return code
    except QpsurfError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    except BrokenPipeError:
        # the reader closed the output; what is still buffered goes to devnull,
        # so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
