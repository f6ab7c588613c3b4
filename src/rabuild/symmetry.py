"""Symmetries at desk scale.

Ball automorphisms are verified finite objects: a bijection of a clump's
chambers together with a type permutation, checked to preserve adjacency
and to map sides to sides.  They feed four pipelines:

* ``extend_action``: a ball automorphism induces a simple automorphism of
  the clump's complex of groups, with local maps permuting the cyclic
  factors according to the images of the sides through each vertex;
* ``quotient_cog``: a finite automorphism group induces a complex of
  groups over the orbit space, together with a covering from the original,
  verified against the covering axioms (the base is subdivided into
  residue chains whenever a group element fixes a vertex but moves an edge
  at it, which is the rule for type-rotating symmetries);
* the discreteness classifier for full and type-preserving automorphism
  groups of the building, with the nerve rigidity oracle;
* apartment fragments through the base chamber and the sheet-swap
  witnesses that carry any fragment to any other.  A sheet swap exchanges
  the two wings behind two sheets of an unfolding, in closed form on the
  whole ball; the search ``extend_to_ball`` is kept only as its reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .building import Building, face_key, syllable_key
from .clump import Clump, Unfolding, sheets
from .coxeter import CoxeterSystem, reduce as w_reduce
from .covering import CoveringReport, check_covering
from .errors import DomainError, InternalError, SizeCapError


# ---------------------------------------------------------------------------
# type permutations
# ---------------------------------------------------------------------------


RIGIDITY_RANK_CAP = 10


def _commutation_automorphisms(sysm: CoxeterSystem, colours):
    """Permutations of the generators preserving commutation and colours.

    Backtracking over images in increasing order, so the permutations come
    out in lexicographic order; a partial map is dropped as soon as one
    image has the wrong colour or the wrong commutation with an earlier one.
    """
    rank = sysm.rank
    if rank > RIGIDITY_RANK_CAP:
        raise SizeCapError(
            f"rank {rank} exceeds the automorphism search cap {RIGIDITY_RANK_CAP}"
        )
    comm = sysm.comm
    out = []
    perm = []

    def extend(i):
        if i == rank:
            out.append(tuple(perm))
            return
        for image in range(rank):
            if colours[image] != colours[i] or image in perm:
                continue
            if any(
                ((comm[i] >> j) & 1) != ((comm[image] >> perm[j]) & 1)
                for j in range(i)
            ):
                continue
            perm.append(image)
            extend(i + 1)
            perm.pop()

    extend(0)
    return out


def type_permutation_group(building: Building):
    """All permutations of the generators preserving both q and m."""
    return _commutation_automorphisms(building.system, building.gp.qs)


def permute_mask(perm, mask):
    out = 0
    g = 0
    while mask >> g:
        if (mask >> g) & 1:
            out |= 1 << perm[g]
        g += 1
    return out


# ---------------------------------------------------------------------------
# ball automorphisms
# ---------------------------------------------------------------------------


class BallAutomorphism:
    """Chamber bijection of a clump realizing a type permutation."""

    def __init__(self, clump: Clump, mapping: dict, perm: tuple):
        self.clump = clump
        self.mapping = dict(mapping)
        self.perm = tuple(perm)
        self._face_cache = {}
        self._key = (
            self.perm,
            tuple(sorted(self.mapping.items(), key=lambda kv: syllable_key(kv[0]))),
        )

    def __eq__(self, other):
        return isinstance(other, BallAutomorphism) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def is_identity(self):
        return all(k == v for k, v in self.mapping.items()) and all(
            self.perm[i] == i for i in range(len(self.perm))
        )

    def to_json(self):
        """Witness certificate: the chamber bijection table."""
        bld = self.clump.building
        return {
            "type_permutation": {
                bld.system.generators[i]: bld.system.generators[p]
                for i, p in enumerate(self.perm)
            },
            "chambers": [
                [bld.serialize_chamber(c), bld.serialize_chamber(d)]
                for c, d in sorted(
                    self.mapping.items(), key=lambda kv: syllable_key(kv[0])
                )
            ],
        }

    def face_image(self, face):
        got = self._face_cache.get(face)
        if got is not None:
            return got
        members = self.clump.scwol().face_chambers.get(face)
        if not members:
            raise DomainError("face is not incident to the clump")
        tmask = permute_mask(self.perm, face[0])
        strip = self.clump.building.gp.strip
        reps = {strip(self.mapping[c], tmask) for c in members}
        if len(reps) != 1:
            raise InternalError(
                f"chamber map does not induce a face map at face {face!r}"
            )
        image = self._face_cache[face] = (tmask, reps.pop())
        return image

    def side_image(self, side):
        """The side carrying the images of the side's mirrors."""
        image_mirrors = tuple(
            sorted(
                (self.face_image((1 << side.gen, m))[1] for m in side.mirrors),
                key=syllable_key,
            )
        )
        cand = self.clump.side_of_mirror(self.perm[side.gen], image_mirrors[0])
        if cand is None or cand.mirrors != image_mirrors:
            raise InternalError(
                f"image of a side is not a side at the side of type {side.gen} "
                f"through mirror {side.mirrors[0]!r}"
            )
        return cand

    def compose(self, other):
        """self after other (both on the same clump)."""
        if self.clump.chambers != other.clump.chambers:
            raise DomainError("automorphisms live on different clumps")
        mapping = {c: self.mapping[other.mapping[c]] for c in other.mapping}
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        return BallAutomorphism(self.clump, mapping, perm)

    def inverse(self):
        mapping = {v: k for k, v in self.mapping.items()}
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return BallAutomorphism(self.clump, mapping, tuple(inv))

    def verify(self):
        """Structural problems, empty when this is an automorphism.

        Panel by panel: a chamber bijection preserves s-adjacency, with s
        carried to perm[s], exactly when each s-panel's chambers land in
        one perm[s]-panel of the clump and no two panels land in the same
        one.  The pass over the faces checks this for every face, panels
        included, so no pair of chambers is compared.  (Injectivity also
        follows from the rest by counting faces along the cycles of perm;
        checking it names a collision where it first shows.)
        """
        problems = []
        clump = self.clump
        if set(self.mapping) != clump.chambers or set(
            self.mapping.values()
        ) != clump.chambers:
            problems.append("not a bijection of the clump's chambers")
            return problems
        faces = clump.scwol().face_chambers
        preimage = {}
        try:
            for face in clump.scwol().vertices:
                image = self.face_image(face)
                if image not in faces:
                    problems.append(
                        f"face {face!r} leaves the clump: its image {image!r} "
                        "is not a face of the clump"
                    )
                    return problems
                other = preimage.setdefault(image, face)
                if other != face:
                    problems.append(
                        f"face map is not injective: faces {other!r} and "
                        f"{face!r} share the image {image!r}"
                    )
                    return problems
        except InternalError as exc:
            problems.append(str(exc))
            return problems
        try:
            for side in clump.sides():
                self.side_image(side)
        except InternalError as exc:
            problems.append(str(exc))
        return problems


def identity_automorphism(clump: Clump) -> BallAutomorphism:
    rank = len(clump.building.gp.qs)
    return BallAutomorphism(
        clump, {c: c for c in clump.chambers}, tuple(range(rank))
    )


def from_type_permutation(clump: Clump, perm) -> BallAutomorphism:
    """The automorphism relabeling every syllable by the permutation."""
    gp = clump.building.gp
    mapping = {}
    for c in clump.chambers:
        image = gp.norm(tuple((perm[g], e) for g, e in c))
        if image not in clump.chambers:
            raise DomainError("permutation does not preserve the clump")
        mapping[c] = image
    h = BallAutomorphism(clump, mapping, perm)
    problems = h.verify()
    if problems:
        raise InternalError(f"induced map is not an automorphism: {problems[0]}")
    return h


def automorphism_group_from_permutations(clump: Clump):
    """Ball automorphisms induced by all q- and m-preserving permutations."""
    return [
        from_type_permutation(clump, perm)
        for perm in type_permutation_group(clump.building)
    ]


# ---------------------------------------------------------------------------
# induced simple automorphisms of the complex of groups
# ---------------------------------------------------------------------------


@dataclass
class SimpleCogAutomorphism:
    auto: BallAutomorphism
    vertex_maps: dict  # face -> {gen -> image gen} on the local mask


def extend_action(clump: Clump, h: BallAutomorphism) -> SimpleCogAutomorphism:
    """Local maps of the induced automorphism of the complex of groups.

    At each boundary vertex the cyclic factor of type t is carried to the
    factor named by the type of the image of the side through the vertex.
    The sides through the vertices do not depend on h and are read from
    ``Clump.vertex_sides``; each side's image is found once.
    """
    cog = clump.cog()
    qs = clump.building.gp.qs
    sides_at = clump.vertex_sides()
    image_gen = {}
    vertex_maps = {}
    for face in cog.scwol.vertices:
        mask = cog.local_masks[face]
        vmap = {}
        for g, side in sides_at[face].items():
            u = image_gen.get(side)
            if u is None:
                u = image_gen[side] = h.side_image(side).gen
            vmap[g] = u
        image_mask = cog.local_masks[h.face_image(face)]
        if permute_mask_from_map(vmap, mask) != image_mask:
            raise InternalError("local map does not hit the image local group")
        if any(qs[g] != qs[u] for g, u in vmap.items()):
            raise InternalError("local map does not preserve cyclic orders")
        vertex_maps[face] = vmap
    for src, dst in cog.scwol.edges:
        sub = vertex_maps[src]
        sup = vertex_maps[dst]
        if any(sup.get(g) != u for g, u in sub.items()):
            raise InternalError("local maps do not commute with inclusions")
    return SimpleCogAutomorphism(h, vertex_maps)


def permute_mask_from_map(vmap, mask):
    out = 0
    for g, u in vmap.items():
        if (mask >> g) & 1:
            out |= 1 << u
    return out


# ---------------------------------------------------------------------------
# quotient complexes of groups and their coverings
# ---------------------------------------------------------------------------


def _action_has_inversions(clump, autos):
    scwol = clump.scwol()
    for h in autos:
        if h.is_identity():
            continue
        for src, dst in scwol.edges:
            if h.face_image(src) == src and h.face_image(dst) != dst:
                return True
    return False


def _cell_cog(clump, subdivide):
    """The quotient base, a ``cog.ComplexOfGroups``: scwol vertices, or
    residue chains when subdividing.

    A cell is a tuple of faces with strictly increasing types along scwol
    edges, ordered by the tuple of its faces' ``face_key``s; its local group
    is the local group of its first, smallest face, and so are its chambers.
    An edge goes from a chain to each proper nonempty subchain, so an element
    fixing a cell fixes every edge out of it.
    """
    # imported on first use, as clump does: the CLI starts without cog
    from .cog import ComplexOfGroups, Scwol

    cog = clump.cog()
    scwol = cog.scwol
    if subdivide:
        chains = []
        stack = [(v,) for v in scwol.vertices]
        while stack:
            chain = stack.pop()
            chains.append(chain)
            for _, nxt in scwol.out_edges.get(chain[-1], ()):
                stack.append(chain + (nxt,))
        edges = set()
        for chain in chains:
            n = len(chain)
            for bits in range(1, (1 << n) - 1):
                edges.add((chain, tuple(chain[i] for i in range(n) if (bits >> i) & 1)))
    else:
        chains = [(v,) for v in scwol.vertices]
        edges = {((src,), (dst,)) for src, dst in scwol.edges}
    cells = Scwol(
        {c: scwol.face_chambers[c[0]] for c in chains},
        edges,
        key=lambda c: tuple(map(face_key, c)),
    )
    return ComplexOfGroups(
        clump.building, cells, {c: cog.local_masks[c[0]] for c in chains}
    )


class QuotientCog:
    """Complex of groups induced on the orbit space of a cell action.

    Local groups are semidirect products: pairs (g, h) with g in the local
    group of the orbit representative and h in its stabilizer, multiplied
    through the action of h on local coordinates.  Monomorphisms, twists
    and the covering data all come from fixed orbit-representative and
    transporter choices, every one canonical-least.

    Automorphisms are referred to by their index in ``autos``.  Each cell's
    images under all of them are computed once (``images``), and orbits,
    stabilizers, transporters and representative edges are read off those
    images and dictionaries built from them.
    """

    def __init__(self, clump: Clump, autos):
        autos = sorted(set(autos), key=lambda h: h._key)
        self.autos = autos
        self.clump = clump
        self.building = clump.building
        self._hindex = {h: i for i, h in enumerate(autos)}
        self._comp = {}
        self._inv = {}
        for i, a in enumerate(autos):
            self._inv[i] = self._index(a.inverse())
            for j, b in enumerate(autos):
                self._comp[(i, j)] = self._index(a.compose(b))
        self._id = self._index(identity_automorphism(clump))
        self.subdivided = _action_has_inversions(clump, autos)
        self.cells = _cell_cog(clump, self.subdivided)
        self.simple = [extend_action(clump, h) for h in autos]
        self.images = {
            c: tuple(tuple(h.face_image(f) for f in c) for h in autos)
            for c in self.cells.vertices()
        }
        self._build()

    # -- group action plumbing ------------------------------------------

    def _index(self, h):
        got = self._hindex.get(h)
        if got is None:
            raise DomainError("the automorphisms do not form a group")
        return got

    def apply_local(self, hi, cell, x):
        """phi^h at the cell's group face, on a canonical subgroup element."""
        vmap = self.simple[hi].vertex_maps[cell[0]]
        return tuple(sorted(((vmap[g], e) for g, e in x)))

    # -- construction ------------------------------------------------------

    def _build(self):
        cells = self.cells.scwol
        position = {c: i for i, c in enumerate(cells.vertices)}
        images = self.images

        def edge_key(e):
            return (position[e[0]], position[e[1]])

        # orbit representatives, transporters to them, stabilizers
        self.rep_of = {}
        self.k_to_rep = {}
        for c in cells.vertices:
            imgs = images[c]
            rep = min(imgs, key=position.__getitem__)
            self.rep_of[c] = rep
            self.k_to_rep[c] = imgs.index(rep)
        self.reps = tuple(sorted(set(self.rep_of.values()), key=position.__getitem__))
        self.stab = {
            rep: tuple(i for i, x in enumerate(images[rep]) if x == rep)
            for rep in self.reps
        }

        # quotient edges: orbit of a cell edge, keyed by a canonical member;
        # the representative edge of an orbit is its least member starting
        # at the orbit representative of the orbit's initial vertices
        edge_orbit = {}
        least_from = {}
        for e in cells.edges:
            b = min(zip(images[e[0]], images[e[1]]), key=edge_key)
            edge_orbit[e] = b
            least_from.setdefault((b, e[0]), e)
        self.edge_orbit = edge_orbit
        self.z_edges = tuple(
            sorted(set(edge_orbit.values()), key=edge_key)
        )

        # representative edge with initial vertex at the orbit rep, and the
        # transporter moving its terminal vertex to its own rep
        self.edge_rep = {}
        self.kappa = {}
        for b in self.z_edges:
            abar = least_from.get((b, self.rep_of[b[0]]))
            if abar is None:
                raise InternalError("edge orbit misses its representative vertex")
            self.edge_rep[b] = abar
            self.kappa[b] = self.k_to_rep[abar[1]]

        self.z_ends = {
            b: (self.rep_of[b[0]], self.rep_of[b[1]]) for b in self.z_edges
        }
        self.z_in_edges = {}
        for b in self.z_edges:
            self.z_in_edges.setdefault(self.z_ends[b][1], []).append(b)

        # local groups: (g, stab index) pairs at each representative
        self.elements_at = {}
        for rep in self.reps:
            vecs = self.cells.elements(rep)
            self.elements_at[rep] = tuple(
                (g, i) for g in vecs for i in self.stab[rep]
            )

        # quotient composition and twists
        self.z_compose = {}
        self.z_twist = {}
        for b in self.z_edges:
            for bp in self.z_in_edges.get(self.z_ends[b][0], ()):
                abar_b = self.edge_rep[b]
                abar_bp = self.edge_rep[bp]
                kp_inv = self._inv[self.kappa[bp]]
                moved = (images[abar_b[0]][kp_inv], images[abar_b[1]][kp_inv])
                if moved[0] != abar_bp[1]:
                    raise InternalError("transporter does not align edges")
                comp = (abar_bp[0], moved[1])
                if comp not in cells.edge_set:
                    raise InternalError("missing composite of representative edges")
                bb = self.edge_orbit[comp]
                self.z_compose[(b, bp)] = bb
                tw = self._comp[
                    (self.kappa[b], self._comp[(self.kappa[bp], self._inv[self.kappa[bb]])])
                ]
                if tw not in self.stab[self.z_ends[b][1]]:
                    raise InternalError("twist transporter does not stabilize")
                self.z_twist[(b, bp)] = ((), tw)

    # -- group operations at a representative cell -------------------------

    def mult(self, rep, x, y):
        (g1, h1), (g2, h2) = x, y
        return (
            self.building.gp.mul(g1, self.apply_local(h1, rep, g2)),
            self._comp[(h1, h2)],
        )

    def inv(self, rep, x):
        g, h = x
        hi = self._inv[h]
        return (
            self.apply_local(hi, rep, self.building.gp.inv(g)),
            hi,
        )

    # -- adapter protocol ----------------------------------------------------

    def vertices(self):
        return self.reps

    def edges(self):
        return self.z_edges

    def in_edges(self, v):
        return self.z_in_edges.get(v, ())

    def ends(self, b):
        return self.z_ends[b]

    def elements(self, v):
        return self.elements_at[v]

    def group(self, v):
        return v

    def psi(self, b, x):
        """Monomorphism along a quotient edge."""
        g, h = x
        k = self.kappa[b]
        return (
            self.apply_local(k, self.edge_rep[b][1], g),
            self._comp[(k, self._comp[(h, self._inv[k])])],
        )

    def compose(self, b, bp):
        return self.z_compose.get((b, bp))

    def composable_pairs(self):
        return [(b, bp, bb) for (b, bp), bb in self.z_compose.items()]

    def twist(self, b, bp):
        return self.z_twist[(b, bp)]


@dataclass
class QuotientResult:
    quotient: QuotientCog
    report: CoveringReport
    sheet_count: int

    def to_json(self):
        return {
            "subdivided": self.quotient.subdivided,
            "group_order": len(self.quotient.autos),
            "orbit_vertices": len(self.quotient.reps),
            "orbit_edges": len(self.quotient.z_edges),
            "sheets": self.sheet_count,
            "ok": self.report.ok,
        }


def _quotient_morphism(qc: QuotientCog):
    f_vertex = {c: qc.rep_of[c] for c in qc.cells.vertices()}
    f_edge = {e: qc.edge_orbit[e] for e in qc.cells.edges()}

    def make_phi(c):
        k = qc.k_to_rep[c]

        def phi(x):
            return (qc.apply_local(k, c, x), qc._id)

        return phi

    phi_vertex = {c: make_phi(c) for c in qc.cells.vertices()}
    phi_edge = {}
    for e in qc.cells.edges():
        b = qc.edge_orbit[e]
        delta = qc._comp[
            (
                qc.k_to_rep[e[1]],
                qc._comp[(qc._inv[qc.k_to_rep[e[0]]], qc._inv[qc.kappa[b]])],
            )
        ]
        phi_edge[e] = ((), delta)
    return f_vertex, f_edge, phi_vertex, phi_edge


def quotient_cog(clump: Clump, autos) -> QuotientResult:
    """Quotient complex of groups and the verified covering onto it."""
    qc = QuotientCog(clump, autos)
    f_vertex, f_edge, phi_vertex, phi_edge = _quotient_morphism(qc)
    report = check_covering(qc.cells, qc, f_vertex, f_edge, phi_vertex, phi_edge)
    return QuotientResult(qc, report, report.sheet_count)


def composed_quotient_covering(labeling, autos_on_chamber) -> CoveringReport:
    """Verify the composite of the unfolding covering with a quotient.

    The unfolding covering onto the one-chamber complex of groups is
    re-presented over residue chains (labels transported to chain edges by
    their minimal faces), then composed with the quotient covering of the
    single chamber under the given automorphisms.  The composite must again
    satisfy every covering axiom.
    """
    clump = labeling.clump
    building = clump.building
    y0 = Clump(building, {()}, validate=False)
    qc = QuotientCog(y0, autos_on_chamber)
    src_cells = _cell_cog(clump, qc.subdivided)

    def type_chain(cell):
        return tuple((f[0], ()) for f in cell)

    # unfolding covering over chains: labels attach by minimal faces
    def chain_label(e):
        v_from = e[0][0]
        v_to = e[1][0]
        if v_from == v_to:
            return ()
        vec = labeling.labels[(v_from, v_to)]
        return building.gp.norm(tuple((g, x) for g, x in enumerate(vec) if x))

    fq_vertex, fq_edge, phiq_vertex, phiq_edge = _quotient_morphism(qc)

    f_vertex = {c: fq_vertex[type_chain(c)] for c in src_cells.vertices()}
    phi_vertex = {c: phiq_vertex[type_chain(c)] for c in src_cells.vertices()}
    f_edge = {}
    phi_edge = {}
    for e in src_cells.edges():
        mid_e = (type_chain(e[0]), type_chain(e[1]))
        f_edge[e] = fq_edge[mid_e]
        t_rep = f_vertex[e[1]]
        carried = phiq_vertex[mid_e[1]](chain_label(e))
        phi_edge[e] = qc.mult(t_rep, carried, phiq_edge[mid_e])
    return check_covering(src_cells, qc, f_vertex, f_edge, phi_vertex, phi_edge)


# ---------------------------------------------------------------------------
# discreteness classification
# ---------------------------------------------------------------------------


def nerve_automorphisms(sysm: CoxeterSystem):
    return _commutation_automorphisms(sysm, (0,) * sysm.rank)


def is_rigid(sysm: CoxeterSystem) -> bool:
    """No nontrivial nerve automorphism fixes a closed vertex star pointwise."""
    rank = sysm.rank
    autos = nerve_automorphisms(sysm)
    for perm in autos:
        if all(perm[i] == i for i in range(rank)):
            continue
        for v in range(rank):
            star = {v} | {
                j for j in range(rank) if (sysm.comm[v] >> j) & 1
            }
            if all(perm[x] == x for x in star):
                return False
    return True


@dataclass(frozen=True)
class DiscretenessVerdict:
    case: str  # "finite", "1", "2", "3"
    g0_discrete: bool
    g_discrete: bool
    nerve_rigid: bool
    reason: str

    def to_json(self):
        return {
            "case": self.case,
            "type_preserving_discrete": self.g0_discrete,
            "full_group_discrete": self.g_discrete,
            "nerve_rigid": self.nerve_rigid,
            "reason": self.reason,
        }


def classify_discreteness(building: Building) -> DiscretenessVerdict:
    sysm = building.system
    qs = building.gp.qs
    rigid = is_rigid(sysm)
    if sysm.is_finite():
        return DiscretenessVerdict(
            "finite", True, True, rigid, "finite Coxeter group, finite building"
        )
    rank = sysm.rank
    for i in range(rank):
        if qs[i] <= 2:
            continue
        for j in range(rank):
            if i != j and not (sysm.comm[i] >> j) & 1:
                return DiscretenessVerdict(
                    "1",
                    False,
                    False,
                    rigid,
                    f"q[{sysm.generators[i]}] > 2 with no relation to "
                    f"{sysm.generators[j]}",
                )
    if all(q == 2 for q in qs):
        return DiscretenessVerdict(
            "2",
            True,
            rigid,
            rigid,
            "all parameters are 2; full group follows nerve rigidity",
        )
    return DiscretenessVerdict(
        "3",
        True,
        rigid,
        rigid,
        "every thick direction commutes with everything; "
        "full group follows nerve rigidity",
    )


# ---------------------------------------------------------------------------
# apartments through the base chamber
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def w_ball(system, n):
    """Canonical words of the thin chamber system within combinatorial radius n.

    Cached per system object and radius: a command that enumerates and then
    validates fragments builds the set once.
    """
    from . import coxeter

    poset = coxeter.spherical_poset(system)
    maximal = poset.maximal()
    subsets = []
    for t in maximal:
        words = [[]]
        for s in sorted(t, key=lambda s: system.index[s]):
            words += [w + [s] for w in words]
        subsets.append([tuple(w) for w in words])
    current = {()}
    frontier = [()]
    for _ in range(n):
        new = []
        for w in frontier:
            for words in subsets:
                for word in words:
                    cand = w_reduce(system, w + word)
                    if cand not in current:
                        current.add(cand)
                        new.append(cand)
        frontier = new
        if not frontier:
            break
    return frozenset(current)


@dataclass(frozen=True)
class ApartmentFragment:
    """Thin, distance-faithful section of the ball over the thin ball."""

    building: Building
    radius: int
    chambers: frozenset

    @functools.cached_property
    def is_valid(self) -> bool:
        """Whether the chambers meet the fragment conditions, checked once."""
        return is_apartment_fragment(self.building, self.radius, self.chambers)


APARTMENT_COUNT_CAP = 20000


def apartments_through_base(building: Building, n: int):
    """Every apartment fragment through the base chamber in the radius-n ball.

    A fragment assigns to each thin-ball element a chamber, adjacent in the
    right type to each of its shorter neighbors; elements whose neighbors
    leave the thin ball impose nothing.  An element with one descent s
    takes any of the q_s - 1 chambers s-adjacent to its neighbor's, and one
    with several descents is pinned by them, so the fragments number the
    product of q_s - 1 over the elements with exactly one descent.  That
    count is checked against the cap before anything is enumerated, and
    against the enumeration after it.
    """
    sysm = building.system
    gp = building.gp
    words = sorted(
        w_ball(sysm, n),
        key=lambda w: (len(w), tuple(sysm.index[s] for s in w)),
    )
    windex = {w: k for k, w in enumerate(words)}
    # descents: letters ending a reduced expression
    descents = {}
    count = 1
    for w in words:
        ds = []
        for s in sysm.generators:
            shorter = w_reduce(sysm, w + (s,))
            if len(shorter) < len(w) and shorter in windex:
                ds.append((s, shorter))
        descents[w] = ds
        if len(ds) == 1:
            count *= gp.q(ds[0][0]) - 1
    if count > APARTMENT_COUNT_CAP:
        raise SizeCapError("apartment enumeration exceeded its cap")

    ball = building.ball(n)
    results = []
    assignment = {(): ()}

    def backtrack(k):
        if k == len(words):
            if len(results) == count:
                raise InternalError("more apartment fragments than counted")
            results.append(frozenset(assignment.values()))
            return
        w = words[k]
        ds = descents[w]
        if not ds:
            raise InternalError("nonidentity element with no descent")
        s0, v0 = ds[0]
        g0 = sysm.index[s0]
        base = assignment[v0]
        for e in range(1, gp.qs[g0]):
            cand = gp.mul(base, ((g0, e),))
            if cand not in ball.chambers:
                continue
            ok = True
            for s, v in ds[1:]:
                d = gp.delta(assignment[v], cand)
                if len(d) != 1 or d[0][0] != sysm.index[s]:
                    ok = False
                    break
            if ok:
                assignment[w] = cand
                backtrack(k + 1)
                del assignment[w]

    backtrack(1)
    if len(results) != count:
        raise InternalError("fewer apartment fragments than counted")
    fragments = [ApartmentFragment(building, n, chambers) for chambers in results]
    fragments.sort(key=lambda f: tuple(sorted(syllable_key(c) for c in f.chambers)))
    return fragments


def is_apartment_fragment(building, n, chambers) -> bool:
    """Direct validation of the fragment conditions on a chamber set."""
    chambers = frozenset(chambers)
    if () not in chambers:
        return False
    words = w_ball(building.system, n)
    shadows = {}
    for c in chambers:
        w = tuple(building.system.generators[g] for g, _ in c)
        if w in shadows:
            return False
        shadows[w] = c
    if set(shadows) != words:
        return False
    for w, c in shadows.items():
        for s in building.system.generators:
            ws = w_reduce(building.system, w + (s,))
            if ws not in shadows:
                continue
            d = building.gp.delta(shadows[ws], c)
            if len(d) != 1 or d[0][0] != building.system.index[s]:
                return False
    return True


# ---------------------------------------------------------------------------
# sheet swaps and strong-transitivity witnesses
# ---------------------------------------------------------------------------


def sheet_swap(ball: Clump, grown: Unfolding, i: int, j: int) -> BallAutomorphism:
    """Automorphism of the ball exchanging the wings behind sheets i and j
    of an unfolding record; every other chamber is fixed.

    Let u be the type of the unfolded side and m its least mirror.  A chamber
    c projects onto the u-panel {m·(u, x)} at m·(u, x), x the exponent of
    the left-visible u-syllable of m⁻¹c (0 if none); the chambers with one
    projection form a wing.  Sheet i meets the panel at a = m·(u, x_i) and
    sheet j at b = m·(u, x_j).  Left multiplication by b·a⁻¹ carries the
    x_i-wing onto the x_j-wing and a·b⁻¹ carries it back; the other wings,
    which hold the unfolded clump and the step's other sheets, are fixed.
    In a right-angled building this is an automorphism (Caprace, Fund. Math.
    224, 2014); it is verified panel by panel on the ball all the same.
    """
    blocks = sheets(grown)
    nblocks = len(blocks)
    if i == j or not (0 <= i < nblocks and 0 <= j < nblocks):
        raise DomainError(f"invalid sheet indices {i},{j} among {nblocks}")
    gp = ball.building.gp
    u = grown.side.gen
    m = grown.side.mirrors[0]
    m_inv = gp.inv(m)
    comm_u = gp.comm[u]

    def wing(c):
        """Exponent of the left-visible u-syllable of m⁻¹c, 0 if none."""
        for g, e in gp.mul(m_inv, c):
            if g == u:
                return e
            if not (comm_u >> g) & 1:
                return 0
        return 0

    panel = grown.faces[(1 << u, m)]
    ends = [[c for c in panel if c in blocks[k]] for k in (i, j)]
    if any(len(met) != 1 for met in ends):
        raise InternalError("a sheet does not meet the side's least mirror once")
    (a,), (b,) = ends
    shift = {wing(a): gp.mul(b, gp.inv(a)), wing(b): gp.mul(a, gp.inv(b))}
    mapping = {}
    for c in ball.chambers:
        g = shift.get(wing(c))
        mapping[c] = c if g is None else gp.mul(g, c)
    h = BallAutomorphism(ball, mapping, tuple(range(len(gp.qs))))
    problems = h.verify()
    if problems:
        raise InternalError(f"sheet swap is not an automorphism: {problems[0]}")
    return h


def _ball_panels(ball: Clump):
    """chamber -> its panels' chambers in the ball, one tuple per type, as
    the rank-one faces of the ball's face table hold them."""
    rank = len(ball.building.gp.qs)
    panels = {c: [None] * rank for c in ball.chambers}
    for (tmask, _), members in ball.scwol().face_chambers.items():
        if tmask and not tmask & (tmask - 1):
            t = tmask.bit_length() - 1
            for c in members:
                panels[c][t] = members
    return panels


def _panel_consistent(panels, mapping, used, perm, c, cand) -> bool:
    """Whether mapping the unmapped c to the unused cand keeps adjacency.

    For each type t, the images of the mapped chambers on c's t-panel must
    be exactly the used chambers on cand's perm[t]-panel: then every
    mapped chamber is t-adjacent to c exactly when its image is
    perm[t]-adjacent to cand, and non-adjacent otherwise.
    """
    mine, theirs = panels[c], panels[cand]
    for t, p in enumerate(perm):
        images = {mapping[d] for d in mine[t] if d in mapping}
        if images != {d for d in theirs[p] if d in used}:
            return False
    return True


def extend_to_ball(partial: dict, ball: Clump) -> BallAutomorphism:
    """Complete a partial chamber map to a type-preserving automorphism of
    the ball.

    The reference search: no pipeline calls it, since ``sheet_swap`` gives
    each swap on the whole ball in closed form, and the tests check the
    closed form against it.  It stays in this module because
    ``perfbench/tracer.py`` names it as a target; it moves into the tests
    with the next change to the benchmark.

    Depth-first search over the unassigned chambers, keeping full local
    consistency: a candidate image must reproduce the adjacency type (or
    non-adjacency) with every chamber already mapped.  That is checked
    panel by panel (``_panel_consistent``), never against each mapped
    chamber in turn.
    """
    bld = ball.building
    rank = len(bld.gp.qs)
    perm = tuple(range(rank))
    todo = sorted(ball.chambers - set(partial), key=syllable_key)
    mapping = dict(partial)
    used = set(mapping.values())
    panels = _ball_panels(ball)

    neighbors = {}
    for c in ball.chambers:
        for g in range(rank):
            for e in range(1, bld.gp.qs[g]):
                nb = bld.gp.mul(c, ((g, e),))
                if nb in ball.chambers:
                    neighbors.setdefault(c, []).append((g, nb))

    def candidates(c):
        anchor = None
        for g, nb in neighbors.get(c, ()):
            if nb in mapping:
                anchor = (g, nb)
                break
        if anchor is None:
            return [x for x in sorted(ball.chambers - used, key=syllable_key)]
        g, nb = anchor
        out = []
        for e in range(1, bld.gp.qs[perm[g]]):
            cand = bld.gp.mul(mapping[nb], ((perm[g], e),))
            if cand in used or cand not in ball.chambers:
                continue
            if _panel_consistent(panels, mapping, used, perm, c, cand):
                out.append(cand)
        return out

    order = []
    seen = set(mapping)
    queue = sorted(mapping, key=syllable_key)
    while queue:
        c = queue.pop(0)
        for _, nb in neighbors.get(c, ()):
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
                queue.append(nb)
    for c in todo:
        if c not in seen:
            order.append(c)

    def solve(k):
        if k == len(order):
            return True
        c = order[k]
        for cand in candidates(c):
            mapping[c] = cand
            used.add(cand)
            if solve(k + 1):
                return True
            del mapping[c]
            used.discard(cand)
        return False

    if not solve(0):
        raise DomainError("partial map does not extend to the ball")
    h = BallAutomorphism(ball, mapping, perm)
    problems = h.verify()
    if problems:
        raise InternalError(f"extension is not an automorphism: {problems[0]}")
    return h


def transitivity_witness(
    ball: Clump, records, frag1: ApartmentFragment, frag2: ApartmentFragment
) -> BallAutomorphism:
    """A ball automorphism fixing the base chamber with h(frag1) = frag2.

    ``ball`` and ``records`` are what ``unfold_steps_to_ball`` returns; the
    fragments belong to the ball's building and have one radius, at most the
    ball's.  Each fragment is validated on its first use only
    (``ApartmentFragment.is_valid``).  Walks the records: at the
    first step k where the image of the first fragment and the second
    fragment disagree on the chambers born by step k, the chambers step k
    added to them lie in different sheets of it.  Swapping those sheets
    restores agreement: ``sheet_swap`` exchanges the wings behind the two
    sheets, which fixes Y_(k-1) and acts on the whole ball at once.
    """
    building = ball.building
    n = frag1.radius
    if frag2.radius != n:
        raise DomainError("fragments were enumerated at different radii")
    born = {(): 0}  # chamber -> the step that added it, 0 for the base
    for k, grown in enumerate(records, 1):
        born.update(dict.fromkeys(grown.chambers, k))
    if born.keys() != ball.chambers:
        raise DomainError("the unfoldings do not make the ball")
    for frag in (frag1, frag2):
        if frag.building is not building:
            raise DomainError("fragment of another building")
        if not frag.chambers <= ball.chambers or not frag.is_valid:
            raise DomainError("not an apartment fragment through the base")
    h = identity_automorphism(ball)
    for k, grown in enumerate(records, 1):
        image = frozenset(h.mapping[c] for c in frag1.chambers)
        a = {c for c in image if born[c] <= k}
        b = {c for c in frag2.chambers if born[c] <= k}
        if a == b:
            continue
        if {c for c in a if born[c] < k} != {c for c in b if born[c] < k}:
            raise InternalError("fragments disagree before the current step")
        blocks = sheets(grown)
        blocks_a = {i for i, blk in enumerate(blocks) if blk & a}
        blocks_b = {i for i, blk in enumerate(blocks) if blk & b}
        if len(blocks_a) != 1 or len(blocks_b) != 1:
            raise InternalError("fragment meets several sheets of one unfolding")
        ia, ib = blocks_a.pop(), blocks_b.pop()
        if ia == ib:
            raise InternalError("distinct fragments in the same sheet")
        h = sheet_swap(ball, grown, ia, ib).compose(h)
    final = frozenset(h.mapping[c] for c in frag1.chambers)
    if final != frag2.chambers:
        raise InternalError("witness construction did not align the fragments")
    if h.mapping[()] != ():
        raise InternalError("witness moved the base chamber")
    return h
