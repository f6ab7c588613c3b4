"""Scwols over clumps, their canonical complexes of groups, admissibility.

The scwol of a clump has one vertex per face of its chambers and an edge
from a face to each face of strictly larger type on the same residue
chain.  The canonical complex of groups puts the direct product of the
cyclic groups named by a vertex's boundary type at that vertex, with
natural inclusions along edges and no twisting.  ``ComplexOfGroups`` holds
every such complex, the base of a quotient included, and answers the
covering checker's questions itself.

One helper, ``add_chambers``, puts chambers into a face table and an edge
set.  ``scwol_of`` runs it on a whole clump; ``clump.unfold`` runs it on the
new chambers of an unfolding, against the clump's own table.

Every face's boundary type is read in one pass over the rank-one faces
(``_panel_types``).  A clump is admissible when the local development at
every vertex of maximal spherical type is complete: the chambers on the
vertex form a full subproduct of the residue, constant in the boundary
directions.  ``is_admissible`` also checks that the two readings of the
boundary type (some panel of a type on the face is a boundary panel, or
every one is) agree, and reports both checks as one ``covering.Report``.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import kernel
from .building import face_key, syllable_key
from .covering import Report
from .errors import InternalError


class Scwol:
    """A scwol: its vertices, and the edges between them.

    The vertices are the faces of a clump, or chains of its faces in the
    subdivided base of a quotient.  ``face_chambers`` maps each vertex to the
    sorted tuple of clump chambers on it, ``edge_set`` holds the edges as
    (src, dst) pairs, and ``key`` orders the vertices.  The sorted views
    (``vertices``, ``edges``, ``out_edges``, ``in_edges``) are built once,
    when first read.
    """

    def __init__(self, face_chambers, edge_set, key=face_key):
        self.face_chambers = face_chambers
        self.edge_set = edge_set
        self.key = key

    @cached_property
    def vertices(self):
        return tuple(sorted(self.face_chambers, key=self.key))

    @cached_property
    def edges(self):
        """Sorted by (key(src), key(dst)), through vertex positions."""
        rank = {v: i for i, v in enumerate(self.vertices)}
        n = len(rank)
        return tuple(sorted(self.edge_set, key=lambda e: rank[e[0]] * n + rank[e[1]]))

    @cached_property
    def out_edges(self):
        """vertex -> tuple of edges with that initial vertex"""
        return _edges_by(self.edges, 0)

    @cached_property
    def in_edges(self):
        """vertex -> tuple of edges with that terminal vertex"""
        return _edges_by(self.edges, 1)

    def composable_pairs(self):
        """(a, b, ab) with i(a) = t(b), ab the composite of a after b.

        A scwol holds the composite of every composable pair; an edge set
        that lacks one is refused here.
        """
        edge_set = self.edge_set
        for b in self.edges:
            for a in self.out_edges.get(b[1], ()):
                ab = (b[0], a[1])
                if ab not in edge_set:
                    raise InternalError("missing composite edge")
                yield a, b, ab


def _edges_by(edges, end):
    out = {}
    for e in edges:
        out.setdefault(e[end], []).append(e)
    return {k: tuple(v) for k, v in out.items()}


def add_chambers(building, face_chambers, edge_set, chambers):
    """Put chambers into a face table and an edge set, in place.

    One descent scan per chamber: its face of type T is the chamber less
    its right-visible syllables with generators in T (the lemma in
    ``rabuild.kernel``), so it depends only on T ∩ D, D the descent mask,
    and is built once per distinct T ∩ D.  The edges reuse the same faces.
    Only the faces of the given chambers are touched.  Returns the chambers
    added to each touched face, the faces that were not in the table
    before, and the edges that were not in the set before.
    """
    comm = building.gp.comm
    masks = building.spherical_masks
    added = {}
    new_edges = []
    for c in chambers:
        descents = kernel.right_descents(c, comm)
        dmask = 0
        for g, _ in descents:
            dmask |= 1 << g
        reps = {0: c}
        faces = []
        for tmask in masks:
            key = tmask & dmask
            rep = reps.get(key)
            if rep is None:
                rep = c
                for g, i in descents:  # right to left: i stays valid
                    if (key >> g) & 1:
                        rep = rep[:i] + rep[i + 1 :]
                reps[key] = rep
            faces.append((tmask, rep))
        for face in faces:
            added.setdefault(face, []).append(c)
        for i, j in building.mask_pairs:
            edge = (faces[i], faces[j])
            if edge not in edge_set:
                edge_set.add(edge)
                new_edges.append(edge)
    created = set()
    for face, members in added.items():
        old = face_chambers.get(face)
        if old is None:
            created.add(face)
            ordered = sorted(members, key=syllable_key)
        else:
            ordered = sorted(old + tuple(members), key=syllable_key)
        face_chambers[face] = tuple(ordered)
    return added, created, new_edges


def scwol_of(clump) -> Scwol:
    """The scwol of a whole clump, built from its chambers alone."""
    face_chambers, edge_set = {}, set()
    add_chambers(clump.building, face_chambers, edge_set, clump.chambers)
    return Scwol(face_chambers, edge_set)


class ComplexOfGroups:
    """Simple complex of groups with standard abelian local groups.

    The local group at a vertex is the direct product on its mask, with
    canonical syllable tuples as elements; monomorphisms along edges are the
    natural inclusions and all twists vanish.  Every local group is a
    subgroup of the graph product, so a product does not depend on the
    vertex, and each is computed once.  The methods are the questions
    ``covering.check_covering`` asks; they read the scwol's views.
    """

    def __init__(self, building, scwol: Scwol, local_masks):
        self.building = building
        self.scwol = scwol
        self.local_masks = local_masks  # vertex -> type mask of its local group
        self._products = {}

    def vertices(self):
        return self.scwol.vertices

    def edges(self):
        return self.scwol.edges

    def in_edges(self, v):
        return self.scwol.in_edges.get(v, ())

    def ends(self, a):
        return a

    def elements(self, v):
        return self.building.subgroup(self.local_masks[v])

    def group(self, v):
        """Vertices with equal keys have the same local group, with the same
        multiplication."""
        return self.local_masks[v]

    def local_data(self, v):
        """v's group and each in-edge's initial group (psi is the inclusion)."""
        masks = self.local_masks
        return masks[v], tuple(masks[a[0]] for a in self.in_edges(v))

    def mult(self, v, x, y):
        got = self._products.get((x, y))
        if got is None:
            got = self._products[x, y] = self.building.gp.mul(x, y)
        return got

    def inv(self, v, x):
        return self.building.gp.inv(x)

    def psi(self, a, x):
        return x

    def compose(self, a, b):
        """The composite of the edges a after b, or None if i(a) != t(b)."""
        return (b[0], a[1]) if a[0] == b[1] else None

    def composable_pairs(self):
        return self.scwol.composable_pairs()

    def twist(self, a, b):
        return ()


def _panel_types(scwol, boundary):
    """face -> mask of the types g of which some g-panel on the face is a
    boundary panel (one chamber in the face table), or an interior one.

    ``add_chambers`` joins every pair of faces of each chamber, so a g-panel
    P lies on a face F of larger type (is the g-panel of a chamber on F)
    exactly when the edge P -> F exists: that chamber has both as faces,
    and the chamber whose faces gave the edge is on F with P its g-panel.
    So one pass over the panels marks each panel itself (it may have no
    out-edge: its generator may commute with no other) and the ends of its
    out-edges.
    """
    types = dict.fromkeys(scwol.vertices, 0)
    out_edges = scwol.out_edges
    for face, members in scwol.face_chambers.items():
        t = face[0]
        if t and not t & (t - 1) and (len(members) == 1) == boundary:
            types[face] |= t
            for _, dst in out_edges.get(face, ()):
                types[dst] |= t
    return types


def canonical_cog(clump) -> ComplexOfGroups:
    """The complex of groups whose local group at a face is the product over
    its boundary type: the types with some boundary panel on the face."""
    scwol = clump.scwol()
    local = _panel_types(scwol, True)
    # A panel on src lies on dst too, so the masks nest along every edge of
    # a scwol that holds its composites; an edge set that lacks one fails.
    for src, dst in scwol.edges:
        if local[src] & ~local[dst]:
            raise InternalError(
                f"local groups do not include along the edge {(src, dst)!r}; "
                "boundary types failed to nest"
            )
    return ComplexOfGroups(clump.building, scwol, local)


def _complete(gp, face, members, bmask):
    """The local development at a face is complete: the chambers on it are
    constant in the boundary types, and their exponents in the other types
    of the face run once through every value."""
    tmask, rep = face
    free = [g for g in range(len(gp.qs)) if (tmask & ~bmask) >> g & 1]
    bound = [g for g in range(len(gp.qs)) if (tmask & bmask) >> g & 1]
    free_seen, bound_seen = set(), set()
    for c in members:
        exps = dict(gp.delta(rep, c))
        free_seen.add(tuple(exps.get(g, 0) for g in free))
        bound_seen.add(tuple(exps.get(g, 0) for g in bound))
    expected = math.prod(gp.qs[g] for g in free)
    return len(bound_seen) == 1 and len(free_seen) == len(members) == expected


def is_admissible(clump) -> Report:
    """Admissibility of the clump's complex of groups, as a ``Report``.

    Failures, each at a face: ``development``, a maximal-type face whose
    local development is not complete, and ``boundary-type-variants``, a
    face where the some-panel reading of the boundary type (its local mask)
    differs from the every-panel one (its type less the types of its
    interior panels).  The readings agree on admissible clumps, so a
    disagreement on a clump with no ``development`` failure raises
    ``InternalError``.
    """
    cog = clump.cog()
    scwol = cog.scwol
    gp = clump.building.gp
    maximal = clump.building.maximal_masks
    local = cog.local_masks
    report = Report()
    for face in scwol.vertices:
        if face[0] in maximal and not _complete(
            gp, face, scwol.face_chambers[face], local[face]
        ):
            report.fail("development", face)
    interior = _panel_types(scwol, False)
    differ = [f for f in scwol.vertices if local[f] != f[0] & ~interior[f]]
    if report.ok and differ:
        # a mismatch here means the completeness check let a bad clump by
        raise InternalError(
            f"boundary-type readings disagree on an admissible clump at face "
            f"{differ[0]!r}"
        )
    for face in differ:
        report.fail("boundary-type-variants", face)
    return report


def scwol_to_dot(cog: ComplexOfGroups) -> str:
    """Graphviz rendering of the scwol with local-group labels."""
    building = cog.building
    sysm = building.system
    lines = ["digraph scwol {"]
    ids = {}
    for k, face in enumerate(cog.scwol.vertices):
        ids[face] = f"v{k}"
        tmask, rep = face
        tlabel = "{" + ",".join(sorted(sysm.unmask(tmask))) + "}"
        word = "".join(
            f"{sysm.generators[g]}^{e}" if e != 1 else sysm.generators[g]
            for g, e in rep
        ) or "1"
        mask = cog.local_masks[face]
        if mask:
            grp = "x".join(
                f"Z{building.gp.qs[g]}"
                for g in range(len(building.gp.qs))
                if (mask >> g) & 1
            )
        else:
            grp = "1"
        lines.append(f'  v{k} [label="{tlabel} {word} | {grp}"];')
    for src, dst in cog.scwol.edges:
        lines.append(f"  {ids[src]} -> {ids[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
