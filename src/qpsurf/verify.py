"""Executable compatibility checks and mutation-class exploration."""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from dataclasses import dataclass, field

from .algebra import apply_substitution, cyclically_equivalent
from .jacobian import truncated_quotient_dim
from .potential import qp_of_triangulation
from .qp import QP, mutate_qp, premutate_qp, restrict_qp
from .quiver import IntegerMatrix, is_two_acyclic
from .surface import flip


@dataclass
class CheckReport:
    name: str
    inputs_digest: str
    passed: bool
    subresults: list = field(default_factory=list)

    @property
    def first_failure(self):
        for label, ok, detail in self.subresults:
            if not ok:
                return "%s: %s" % (label, detail)
        return None

    def to_text(self):
        lines = ["check %s (%s): %s" % (self.name, self.inputs_digest,
                                        "pass" if self.passed else "FAIL")]
        for label, ok, detail in self.subresults:
            lines.append("  %s: %s%s" % (label, "ok" if ok else "FAIL",
                                         "" if ok or not detail else " (%s)" % detail))
        return "\n".join(lines) + "\n"


def _digest(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode() if isinstance(c, str) else c)
        h.update(b"\x00")
    return h.hexdigest()[:12]


def _net_matrix(quiver, relabel=None):
    relabel = relabel or {}
    verts = sorted(relabel.get(v, v) for v in quiver.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    rows = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        i = idx[relabel.get(a.tail, a.tail)]
        j = idx[relabel.get(a.head, a.head)]
        rows[i][j] += 1
        rows[j][i] -= 1
    return IntegerMatrix(verts, rows)


def _multiplicities(quiver, relabel=None):
    relabel = relabel or {}
    out = {}
    for a in quiver.arrows:
        key = (relabel.get(a.tail, a.tail), relabel.get(a.head, a.head))
        out[key] = out.get(key, 0) + 1
    return out


def _compare_dims(left, right, order):
    lrep = truncated_quotient_dim(left, order)
    rrep = truncated_quotient_dim(right, order)
    return lrep.dims[1:], rrep.dims[1:]


def relabel_vertices(qp, relabel):
    """The same QP with vertices renamed; arrow names are kept as they are."""
    from .quiver import Arrow, Quiver

    quiver = Quiver(
        [relabel.get(v, v) for v in qp.quiver.vertices],
        [Arrow(a.name, relabel.get(a.tail, a.tail), relabel.get(a.head, a.head))
         for a in qp.quiver.arrows])
    from .algebra import AlgebraElement

    return QP(quiver, AlgebraElement(quiver, qp.order, dict(qp.potential.terms)), qp.order)


def check_flip_compatibility(tri, arc, order, witness=None):
    """Mutating the QP of a triangulation matches the QP of the flipped one.

    Compared through flip-stable data: adjacency matrices, per-pair arrow
    multiplicities, and truncated quotient dimensions at orders 1..D.  An
    explicit substitution witness from the mutated quiver to the flipped
    quiver (with the fresh arc renamed back) is applied and compared exactly
    up to cyclic rotation.
    """
    name = "flip-compat"
    digest = _digest(tri.to_text(), arc, str(order))
    subs = []
    left = mutate_qp(qp_of_triangulation(tri, order), arc)
    flipped = flip(tri, arc)
    right = qp_of_triangulation(flipped, order)
    relabel = {arc + "'": arc}

    lm = _net_matrix(left.quiver)
    rm = _net_matrix(right.quiver, relabel)
    subs.append(("matrices", lm == rm, "%r vs %r" % (lm.rows, rm.rows)))
    lmul = _multiplicities(left.quiver)
    rmul = _multiplicities(right.quiver, relabel)
    subs.append(("arrow-multiplicities", lmul == rmul, "%r vs %r" % (lmul, rmul)))
    ld, rd = _compare_dims(left, right, order)
    subs.append(("jacobian-dims-1..%d" % order, ld == rd, "%r vs %r" % (ld, rd)))
    if witness is not None:
        target = relabel_vertices(right, relabel)
        image = apply_substitution(witness, left.potential)
        subs.append(("witness", cyclically_equivalent(image, target.potential), ""))
    return CheckReport(name, digest, all(ok for _, ok, _ in subs), subs)


def check_involution(qp, k, order):
    """Mutating twice at one vertex restores the quiver and all dimension data."""
    name = "involution"
    digest = _digest(qp.to_text(), k, str(order))
    twice = mutate_qp(mutate_qp(qp, k), k)
    subs = []
    lm, rm = _net_matrix(qp.quiver), _net_matrix(twice.quiver)
    subs.append(("matrices", lm == rm, "%r vs %r" % (lm.rows, rm.rows)))
    lmul, rmul = _multiplicities(qp.quiver), _multiplicities(twice.quiver)
    subs.append(("arrow-multiplicities", lmul == rmul, "%r vs %r" % (lmul, rmul)))
    ld, rd = _compare_dims(qp, twice, order)
    subs.append(("jacobian-dims-1..%d" % order, ld == rd, "%r vs %r" % (ld, rd)))
    return CheckReport(name, digest, all(ok for _, ok, _ in subs), subs)


def check_restriction_commutes(qp, keep, k, order):
    """Restricting then mutating agrees with mutating then restricting."""
    name = "restriction"
    digest = _digest(qp.to_text(), ",".join(sorted(keep)), k, str(order))
    route1 = mutate_qp(restrict_qp(qp, keep), k)
    route2 = restrict_qp(mutate_qp(qp, k), keep)
    subs = []
    lm, rm = _net_matrix(route1.quiver), _net_matrix(route2.quiver)
    subs.append(("matrices", lm == rm, "%r vs %r" % (lm.rows, rm.rows)))
    ld, rd = _compare_dims(route1, route2, order)
    subs.append(("jacobian-dims-1..%d" % order, ld == rd, "%r vs %r" % (ld, rd)))
    pre1 = premutate_qp(restrict_qp(qp, keep), k)
    pre2 = restrict_qp(premutate_qp(qp, k), keep)
    if pre1 == pre2:
        subs.append(("exact-potentials", route1 == route2, "reduced parts differ"))
    else:
        subs.append(("premutations-coincide", False, "premutations differ"))
    return CheckReport(name, digest, all(ok for _, ok, _ in subs), subs)


def canonical_matrix_form(matrix):
    """Entry table minimised over vertex permutations (fingerprint beyond 8)."""
    n = len(matrix.vertices)
    rows = matrix.rows
    if n > 8:
        return tuple(sorted(tuple(sorted(row)) for row in rows))
    best = None
    for perm in itertools.permutations(range(n)):
        cand = tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        if best is None or cand < best:
            best = cand
    return best


@dataclass
class ClassGraph:
    nodes: dict
    edges: list

    def to_text(self):
        lines = []
        for dig, canon in sorted(self.nodes.items()):
            lines.append("node %s %s" % (dig, canon))
        for (src, k, dst) in self.edges:
            lines.append("%s --%s--> %s" % (src, k, dst))
        return "\n".join(lines) + "\n"


def explore_mutation_class(qp, depth, order):
    """Breadth-first search over mutation sequences, deduplicated by matrix form.

    Asserts 2-acyclicity of every visited quiver; a failure is reported, not
    raised, since it would disprove the non-degeneracy being probed.
    """
    name = "explore"
    digest = _digest(qp.to_text(), str(depth), str(order))
    subs = []
    nodes = {}
    edges = []
    failures = []

    def node_digest(q):
        canon = canonical_matrix_form(_net_matrix(q.quiver))
        dig = _digest(repr(canon))
        if dig not in nodes:
            nodes[dig] = canon
        return dig

    start = node_digest(qp)
    frontier = deque([(qp, start, 0)])
    seen = {start}
    seen_edges = set()
    while frontier:
        current, cur_dig, dist = frontier.popleft()
        if not is_two_acyclic(current.quiver):
            failures.append(cur_dig)
            continue
        if dist >= depth:
            continue
        for k in current.quiver.vertices:
            child = mutate_qp(current, k)
            child_dig = node_digest(child)
            ekey = (cur_dig, k, child_dig)
            if ekey not in seen_edges:
                seen_edges.add(ekey)
                edges.append(ekey)
            if child_dig not in seen:
                seen.add(child_dig)
                frontier.append((child, child_dig, dist + 1))

    subs.append(("all-2-acyclic", not failures, "non-2-acyclic nodes: %r" % failures))
    subs.append(("nodes", True, str(len(nodes))))
    subs.append(("edges", True, str(len(edges))))
    report = CheckReport(name, digest, not failures, subs)
    return report, ClassGraph(nodes=nodes, edges=edges)
