"""Scwols over clumps, their canonical complexes of groups, admissibility.

The scwol of a clump has one vertex per face of its chambers and an edge
from a face to each face of strictly larger type on the same residue
chain.  The canonical complex of groups puts the direct product of the
cyclic groups named by a vertex's boundary type at that vertex, with
natural inclusions along edges and no twisting.

One helper, ``add_chambers``, puts chambers into a face table and an edge
set.  ``scwol_of`` runs it on a whole clump; ``clump.unfold`` runs it on the
new chambers of an unfolding, against the table it carries forward.

A clump is accepted as admissible when the local development at every
vertex of maximal spherical type is complete: the chambers on the vertex
form a full subproduct of the residue, constant in the boundary
directions.  The admissibility report also compares the two boundary-type
readings (some incident panel on the boundary vs. all of them), which must
agree on admissible clumps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .building import face_key, syllable_key
from .errors import DomainError, InternalError


class Scwol:
    """The scwol of a clump: its faces, and the inclusions between them.

    ``face_chambers`` maps each face to the sorted tuple of clump chambers on
    it, and ``edge_set`` holds the edges.  The sorted views (``vertices``,
    ``edges``, ``out_edges``, ``in_edges``) are built once, when first read.
    """

    def __init__(self, face_chambers, edge_set):
        self.face_chambers = face_chambers
        self.edge_set = edge_set

    @cached_property
    def vertices(self):
        return tuple(sorted(self.face_chambers, key=face_key))

    @cached_property
    def edges(self):
        """Sorted by (face_key(src), face_key(dst)), through vertex positions."""
        rank = {face: i for i, face in enumerate(self.vertices)}
        n = len(rank)
        return tuple(sorted(self.edge_set, key=lambda e: rank[e[0]] * n + rank[e[1]]))

    @cached_property
    def out_edges(self):
        """face -> tuple of edges with that initial vertex"""
        return _edges_by(self.edges, 0)

    @cached_property
    def in_edges(self):
        """face -> tuple of edges with that terminal vertex"""
        return _edges_by(self.edges, 1)

    def composable_pairs(self):
        """(a, b) with i(a) = t(b), and their composition."""
        for b in self.edges:
            for a in self.out_edges.get(b[1], ()):
                yield a, b, (b[0], a[1])


def _edges_by(edges, end):
    out = {}
    for e in edges:
        out.setdefault(e[end], []).append(e)
    return {k: tuple(v) for k, v in out.items()}


def add_chambers(building, face_chambers, edge_set, chambers):
    """Put chambers into a face table and an edge set, in place.

    One strip per chamber and spherical type; the edges reuse the same
    faces.  Only the faces of the given chambers are touched.  Returns the
    chambers added to each touched face, the faces that were not in the
    table before, and the edges that were not in the set before.
    """
    gp = building.gp
    masks = building.spherical_masks
    pairs = [
        (i, j)
        for i, t1 in enumerate(masks)
        for j, t2 in enumerate(masks)
        if t1 != t2 and (t1 & t2) == t1
    ]
    added = {}
    new_edges = []
    for c in chambers:
        faces = [(tmask, gp.strip(c, tmask)) for tmask in masks]
        for face in faces:
            added.setdefault(face, []).append(c)
        for i, j in pairs:
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


@dataclass(frozen=True)
class ComplexOfGroups:
    """Simple complex of groups with standard abelian local groups."""

    clump: object
    scwol: Scwol
    local_masks: dict  # face -> type mask of the local direct product


def canonical_cog(clump) -> ComplexOfGroups:
    scwol = clump.scwol()
    local = {}
    for face in scwol.vertices:
        local[face] = clump.boundary_type_mask(face)
    for src, dst in scwol.edges:
        if local[src] & ~local[dst]:
            raise InternalError(
                "local groups do not include along an edge; "
                "boundary types failed to nest"
            )
    return ComplexOfGroups(clump, scwol, local)


@dataclass(frozen=True)
class LocalDevelopment:
    face: tuple
    type_mask: int
    boundary_mask: int
    vectors: tuple  # chamber exponent vectors on the residue, sorted
    cardinalities: dict  # generator index -> q in the developed link join
    complete: bool
    is_join: bool
    chamber_count: int
    developed_count: int
    expected_count: int


def local_development(cog: ComplexOfGroups, face) -> LocalDevelopment:
    """Join structure of the vertex's link and its development.

    Only vertices of maximal spherical type are supported; completeness at
    those suffices for the admissibility verdict.
    """
    building = cog.clump.building
    tmask, rep = face
    if tmask not in building.maximal_masks:
        raise DomainError("local development is only computed at maximal types")
    gens = [g for g in range(len(building.gp.qs)) if (tmask >> g) & 1]
    members = cog.scwol.face_chambers[face]
    vectors = []
    for c in members:
        d = building.gp.delta(rep, c)
        exps = dict(d)
        vectors.append(tuple(exps.get(g, 0) for g in gens))
    vectors = tuple(sorted(vectors))
    bmask = cog.local_masks[face]
    qs = building.gp.qs
    free = [g for g in gens if not (bmask >> g) & 1]
    bound = [g for g in gens if (bmask >> g) & 1]
    proj = {g: sorted({v[i] for v in vectors}) for i, g in enumerate(gens)}
    constant_on_boundary = all(len(proj[g]) == 1 for g in bound)
    expected = 1
    for g in free:
        expected *= qs[g]
    full_free = set(
        itertools.product(*[range(qs[g]) for g in free])
    ) == {
        tuple(v[gens.index(g)] for g in free) for v in vectors
    }
    complete = (
        constant_on_boundary and full_free and len(vectors) == expected
    )
    is_join = len(vectors) == len(set(itertools.product(*[proj[g] for g in gens])))
    cards = {g: qs[g] for g in gens}
    dev_count = len(vectors)
    for g in bound:
        dev_count *= qs[g]
    return LocalDevelopment(
        face=face,
        type_mask=tmask,
        boundary_mask=bmask,
        vectors=vectors,
        cardinalities=cards,
        complete=complete,
        is_join=is_join,
        chamber_count=len(vectors),
        developed_count=dev_count,
        expected_count=expected,
    )


@dataclass
class AdmissibilityReport:
    admissible: bool
    vertices: list = field(default_factory=list)  # per maximal-type vertex
    variant_mismatches: list = field(default_factory=list)

    def to_json(self, building):
        def face_json(face):
            tmask, rep = face
            return {
                "type": sorted(building.system.unmask(tmask)),
                "rep": building.serialize_chamber(rep),
            }

        return {
            "admissible": self.admissible,
            "vertices": [
                {
                    "face": face_json(v["face"]),
                    "complete": v["complete"],
                    "is_join": v["is_join"],
                    "chambers": v["chambers"],
                    "expected": v["expected"],
                }
                for v in self.vertices
            ],
            "variant_mismatches": [face_json(f) for f in self.variant_mismatches],
        }


def is_admissible(clump):
    """Completeness of every maximal-type local development, with report."""
    cog = clump.cog()
    building = clump.building
    report = AdmissibilityReport(admissible=True)
    for face in cog.scwol.vertices:
        if face[0] not in building.maximal_masks:
            continue
        dev = local_development(cog, face)
        report.vertices.append(
            {
                "face": face,
                "complete": dev.complete,
                "is_join": dev.is_join,
                "chambers": dev.chamber_count,
                "expected": dev.expected_count,
            }
        )
        if not dev.complete:
            report.admissible = False
    for face in cog.scwol.vertices:
        some = clump.boundary_type_mask(face)
        every = clump.boundary_type_mask_all_variant(face)
        if some != every:
            report.variant_mismatches.append(face)
    if report.admissible and report.variant_mismatches:
        # On admissible clumps the two readings of the boundary type agree;
        # a mismatch here means the completeness check let a bad clump by.
        raise InternalError("boundary-type variants disagree on an admissible clump")
    return report


@dataclass(frozen=True)
class Presentation:
    generators: tuple  # (name, order) pairs
    commuting: tuple  # (name, name) pairs

    def __str__(self):
        gens = ", ".join(name for name, _ in self.generators)
        rels = [f"{name}^{order}" for name, order in self.generators]
        rels += [f"[{a},{b}]" for a, b in self.commuting]
        return f"< {gens} | {', '.join(rels)} >"


def presentation(cog: ComplexOfGroups) -> Presentation:
    """Colimit presentation of the local groups along the scwol.

    Local generators at different vertices are identified exactly when an
    edge chain carries one into the other, so disconnected pieces of
    boundary of the same type contribute distinct free factors.

    The presentation equals the fundamental group only when the underlying
    scwol is simply connected.  That holds for single chambers and for
    combinatorial balls; for other clumps it is assumed, not checked.
    """
    building = cog.clump.building
    gens_at = {
        face: [g for g in range(len(building.gp.qs)) if (mask >> g) & 1]
        for face, mask in cog.local_masks.items()
    }
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for face, gens in gens_at.items():
        for g in gens:
            parent[(face, g)] = (face, g)
    for src, dst in cog.scwol.edges:
        for g in gens_at[src]:
            a, b = find((src, g)), find((dst, g))
            if a != b:
                parent[a] = b
    classes = {}
    for node in parent:
        classes.setdefault(find(node), []).append(node)
    by_gen = {}
    for root, members in classes.items():
        g = root[1]
        rep = min(members, key=lambda n: face_key(n[0]))
        by_gen.setdefault(g, []).append((rep, root))
    names = {}
    gen_list = []
    for g in sorted(by_gen):
        entries = sorted(by_gen[g], key=lambda t: face_key(t[0][0]))
        base = building.system.generators[g]
        for k, (rep, root) in enumerate(entries):
            name = base if len(entries) == 1 else f"{base}_{k}"
            names[root] = name
            gen_list.append((name, building.gp.qs[g]))
    commuting = set()
    for face, gens in gens_at.items():
        for g, h in itertools.combinations(gens, 2):
            a = names[find((face, g))]
            b = names[find((face, h))]
            commuting.add(tuple(sorted((a, b))))
    return Presentation(tuple(sorted(gen_list)), tuple(sorted(commuting)))


def scwol_to_dot(cog: ComplexOfGroups) -> str:
    """Graphviz rendering of the scwol with local-group labels."""
    building = cog.clump.building
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
