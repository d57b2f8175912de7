"""Executable compatibility checks and mutation-class exploration."""

import hashlib
from array import array
from collections import deque

from . import QpsurfError
from .algebra import apply_substitution, cyclically_equivalent
from .jacobian import _require_order, truncated_quotient_dim
from .potential import qp_of_triangulation
from .qp import QP, _reduced_part, mutate_qp, mutated_quiver, premutate_qp, restrict_qp
from .quiver import Arrow, Quiver, Record, is_two_acyclic, mutate_matrix, net_matrix
from .surface import flip


class CheckReport(Record):
    __slots__ = _fields = ("name", "inputs_digest", "subresults")

    def __init__(self, name, inputs_digest, subresults=None):
        self.name = name
        self.inputs_digest = inputs_digest
        self.subresults = [] if subresults is None else subresults

    passed = property(lambda self: all(ok for _, ok, _ in self.subresults))

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


DIGEST_CHARS = 12


def _digest(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode() if isinstance(c, str) else c)
        h.update(b"\x00")
    return h.hexdigest()[:DIGEST_CHARS]


def _compare(left, right, order, multiplicities=True):
    """Subresults comparing two QPs' net matrices, arrow multiplicities and dims."""
    lm, rm = net_matrix(left.quiver), net_matrix(right.quiver)
    subs = [("matrices", lm == rm, "%r vs %r" % (lm.rows, rm.rows))]
    if multiplicities:
        lmul, rmul = left.quiver.multiplicities(), right.quiver.multiplicities()
        subs.append(("arrow-multiplicities", lmul == rmul, "%r vs %r" % (lmul, rmul)))
    ld = truncated_quotient_dim(left, order).dims[1:]
    rd = truncated_quotient_dim(right, order).dims[1:]
    subs.append(("jacobian-dims-1..%d" % order, ld == rd, "%r vs %r" % (ld, rd)))
    return subs


def relabel_vertices(qp, relabel):
    """The same QP with vertices renamed and arrow names kept; `Quiver`
    refuses a repeated vertex, so the words stay cycles."""
    quiver = Quiver(
        [relabel.get(v, v) for v in qp.quiver.vertices],
        [Arrow(a.name, relabel.get(a.tail, a.tail), relabel.get(a.head, a.head))
         for a in qp.quiver.arrows])
    return QP._of_words(quiver, qp.words, qp.order, qp._exact)


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
    flipped = flip(tri, arc)  # refuses a name that is not a flippable arc
    left = mutate_qp(qp_of_triangulation(tri, order), arc)
    right = relabel_vertices(qp_of_triangulation(flipped, order), {arc + "'": arc})
    subs = _compare(left, right, order)
    if witness is not None:
        image = apply_substitution(witness, left.potential)
        subs.append(("witness", cyclically_equivalent(image, right.potential), ""))
    return CheckReport(name, digest, subs)


def check_involution(qp, k, order):
    """Mutating twice at one vertex restores the quiver and all dimension data."""
    name = "involution"
    digest = _digest(qp.to_text(), k, str(order))
    subs = _compare(qp, mutate_qp(mutate_qp(qp, k), k), order)
    return CheckReport(name, digest, subs)


def check_restriction_commutes(qp, keep, k, order):
    """Restricting then mutating agrees with mutating then restricting.

    Each route's mutation is the reduced part of a premutation that the
    exact comparison reads too, so each route premutates once.
    """
    name = "restriction"
    digest = _digest(qp.to_text(), ",".join(sorted(keep)), k, str(order))
    pre1 = premutate_qp(restrict_qp(qp, keep), k)
    route1 = _reduced_part(pre1)
    pre2 = premutate_qp(qp, k)
    route2 = restrict_qp(_reduced_part(pre2), keep)
    subs = _compare(route1, route2, order, multiplicities=False)
    if pre1 == restrict_qp(pre2, keep):
        subs.append(("exact-potentials", route1 == route2, "reduced parts differ"))
    else:
        subs.append(("premutations-coincide", False, "premutations differ"))
    return CheckReport(name, digest, subs)


def canonical_matrix_form(matrix):
    """The least entry table of the matrix over all orders of its vertices,
    and a vertex order that gives it.

    For a vertex order p the table is the tuple of rows (M[p_i][p_j] for j),
    i = 0..n-1; the form is the least table in row-major lexicographic
    order.  Two matrices get the same form exactly when one is the other
    with its vertices renamed.  The minimum is found by a search that places
    vertices position by position and drops only orders that cannot reach it:

    - Refinement.  The unplaced vertices lie in an ordered partition of
      cells: the vertices of one cell have equal entries in the row of every
      placed vertex, and the cells are ordered by those entries, read in
      placement order.  An order keeps the placed rows least only if it
      fills the free positions cell by cell, so the vertex at position i
      comes from the first cell, and its least possible row i is its entries
      against the placed vertices, its diagonal entry, then its entries into
      each cell sorted ascending.  Only the candidates with the least such
      row are kept; placing one splits every cell by its entries, ascending,
      which makes that row the table's row i.  One pass over the unplaced
      vertices gives a candidate both its least row and its split cells,
      and a kept candidate's branch starts from those cells.
    - Prefix pruning.  Rows 0..i are fixed once position i is filled, so a
      branch whose rows 0..i exceed the best table's rows 0..i is dropped.
    - Orbit pruning.  Two leaves with equal tables give an automorphism of
      the matrix.  An automorphism that fixes the placed vertices maps the
      branch of a candidate onto the branch of its image, table for table.
      So a candidate in the orbit of a tried one, under the automorphisms
      found so far that fix the placed vertices, is skipped, and the search
      leaves a branch as soon as one of its leaves is the image of a leaf
      already seen.

    Returns (form, order), the order as positions in `matrix.vertices`.
    """
    rows = matrix.rows
    n = len(rows)
    perm, table = [], []
    best, best_perm, autos = [], [], []

    def in_orbit(v, tried):
        fixing = [g for g in autos if all(g[p] == p for p in perm)]
        orbit, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for g in fixing:
                if g[u] not in orbit:
                    orbit.add(g[u])
                    todo.append(g[u])
        return not orbit.isdisjoint(tried)

    def search(cells, fresh):
        # `fresh`: the rows placed so far are below the best table's, or no
        # table is known yet.  Returns the level whose candidate loop goes on.
        i = len(perm)
        if i == n:
            if fresh:
                best[:], best_perm[:] = table, perm
                return i - 1
            auto = [0] * n
            for a, b in zip(best_perm, perm):
                auto[a] = b
            autos.append(auto)
            return next(j for j in range(n) if perm[j] != best_perm[j])
        least, kept = None, []
        for v in cells[0]:
            # one pass gives v's least row and the cells once v is placed
            rv = rows[v]
            row = [rv[p] for p in perm]
            row.append(rv[v])
            split = []
            for cell in cells:
                if len(cell) == 1:
                    if cell[0] != v:
                        row.append(rv[cell[0]])
                        split.append(cell)
                    continue
                parts = {}
                for u in cell:
                    if u != v:
                        parts.setdefault(rv[u], []).append(u)
                for x in sorted(parts):
                    part = parts[x]
                    row += [x] * len(part)
                    split.append(part)
            row = tuple(row)
            if least is None or row < least:
                least, kept = row, [(v, split)]
            elif row == least:
                kept.append((v, split))
        if not fresh:
            if least > best[i]:
                return i - 1
            fresh = least < best[i]
        table.append(least)
        tried = []
        for v, split in kept:
            if autos and tried and in_orbit(v, tried):
                continue
            tried.append(v)
            perm.append(v)
            back = search(split, fresh)
            perm.pop()
            fresh = False  # the first branch left its leaf as the best table
            if back < i:
                break
        table.pop()
        return min(back, i - 1)

    search([list(range(n))], True)
    return tuple(best), tuple(best_perm)


class ClassGraph(Record):
    """The nodes and edges found by `explore_mutation_class`, stored flat.

    With n vertices, node i has the digest `digests[12*i:12*i+12]`, and the
    rows of its canonical table are the rows numbered `tables[n*i:n*i+n]`,
    row r being `rows[n*r:n*r+n]`; equal rows of different nodes are stored
    once.  Every node in `expanded` has one edge per vertex, in vertex order,
    and their targets are the next n entries of `targets`.  `nodes` (digest
    -> canonical table) and `edges` ((source, vertex, target) triples) are
    built from these on each access.
    """

    __slots__ = _fields = ("vertices", "digests", "rows", "tables", "expanded", "targets")

    def __init__(self, vertices, digests, rows, tables, expanded, targets):
        self.vertices = vertices
        self.digests = digests
        self.rows = rows
        self.tables = tables
        self.expanded = expanded
        self.targets = targets

    def _digest_list(self):
        d = self.digests
        return [d[i:i + DIGEST_CHARS] for i in range(0, len(d), DIGEST_CHARS)]

    @property
    def nodes(self):
        n, rows, tables = len(self.vertices), self.rows, self.tables
        return {dig: tuple(tuple(rows[n * r:n * r + n]) for r in tables[n * i:n * i + n])
                for i, dig in enumerate(self._digest_list())}

    @property
    def edges(self):
        digs, targets, n = self._digest_list(), self.targets, len(self.vertices)
        return [(digs[src], k, digs[targets[n * j + m]])
                for j, src in enumerate(self.expanded) for m, k in enumerate(self.vertices)]

    def to_text(self):
        lines = []
        for dig, canon in sorted(self.nodes.items()):
            lines.append("node %s %s" % (dig, canon))
        for (src, k, dst) in self.edges:
            lines.append("%s --%s--> %s" % (src, k, dst))
        return "\n".join(lines) + "\n"


def explore_mutation_class(qp, depth, order):
    """Breadth-first search over mutation sequences, deduplicated by matrix form.

    Asserts that every node's quiver is 2-acyclic; a child's quiver is that
    of its first parent's QP mutated at k.  A failure is reported, not
    raised, since it would disprove the non-degeneracy being probed.
    Mutation keeps the vertex set, and each node is expanded once, at every
    vertex in order.  Mutations run at the QP's truncation; `order` must not
    exceed it.

    A child's node is found from the parent's net matrix B as
    `mutate_matrix(B, k)`, and the child is built only if the node is new.
    For a 2-acyclic q that is the net matrix of `mutate_qp(q, k)`:
    premutation reverses the arrows at k and adds [b_ik]_+ [b_kj]_+ arrows
    i -> j, one per hook through k, and the split removes trivial arrows,
    which come in opposite pairs.  So an expanded node's B is the
    `mutate_matrix` result that found it; only the start's is computed from
    its quiver.  At the depth limit, where no node is expanded, only the
    child's quiver is built, by `mutated_quiver`, from the premutation's
    degree-2 terms.  A node with a 2-cycle is never expanded.

    An edge's reverse is read, not computed.  Say C = `mutate_matrix(B_X, k)`
    lands on node Y, whose own B_Y was searched with vertex order p_Y, and C's
    search gives p_C.  Both orders give Y's table, so s(p_C[i]) = p_Y[i]
    renames C into B_Y, and mutation, an involution that commutes with
    renaming, gives mutate_matrix(B_Y, s(k)) = B_X renamed by s: Y's edge
    at s(k) leads back to X.  That edge is recorded, so expanding Y there
    computes no matrix and no search; for the edge that made Y, s is the
    identity.  A raw matrix met again is not searched again either.
    """
    _require_order(qp, order)
    if depth < 0:
        raise QpsurfError("depth must be >= 0")
    name = "explore"
    digest = _digest(qp.to_text(), str(depth), str(order))
    vertices = qp.quiver.vertices
    digests = []
    index = {}  # canonical table -> node number
    node_of_rows = {}  # raw rows -> (node number, vertex order of their table)
    orders = []  # node number -> vertex order of the matrix that made the node
    reverse = {}  # (node number, vertex position) -> the node that edge leads to
    row_number = {}
    rows = array("i")
    tables, expanded, targets = array("i"), array("i"), array("i")
    failures = []

    def visit(matrix):
        """The matrix's node number, the vertex order giving its table, and
        whether the node is new."""
        if matrix.rows in node_of_rows:
            return node_of_rows[matrix.rows] + (False,)
        canon, order = canonical_matrix_form(matrix)
        node = index.get(canon)
        new = node is None
        if new:
            node = index[canon] = len(digests)
            digests.append(_digest(repr(canon)))
            orders.append(order)
            for row in canon:
                if row not in row_number:
                    row_number[row] = len(row_number)
                    rows.extend(row)
                tables.append(row_number[row])
        node_of_rows[matrix.rows] = node, order
        return node, order, new

    # (quiver, QP or None at the depth limit, net matrix, node number, distance)
    matrix = net_matrix(qp.quiver)
    frontier = deque([(qp.quiver, qp, matrix, visit(matrix)[0], 0)])
    while frontier:
        quiver, current, matrix, cur, dist = frontier.popleft()
        if not is_two_acyclic(quiver):
            failures.append(digests[cur])
            continue
        if dist >= depth:
            continue
        expanded.append(cur)
        for ki, k in enumerate(vertices):
            dst = reverse.get((cur, ki))
            if dst is None:
                child_matrix = mutate_matrix(matrix, k)
                dst, order, new = visit(child_matrix)
                reverse[dst, orders[dst][order.index(ki)]] = cur
                if new and dist + 1 < depth:
                    child = mutate_qp(current, k)
                    frontier.append((child.quiver, child, child_matrix, dst, dist + 1))
                elif new:
                    frontier.append((mutated_quiver(current, k), None, None, dst, dist + 1))
            targets.append(dst)

    subs = [("all-2-acyclic", not failures, "non-2-acyclic nodes: %r" % failures),
            ("nodes", True, str(len(digests))),
            ("edges", True, str(len(targets)))]
    graph = ClassGraph(vertices, "".join(digests), rows, tables, expanded, targets)
    return CheckReport(name, digest, subs), graph
