"""Symmetries at desk scale.

Ball automorphisms are verified finite objects: a bijection of a clump's
chambers together with a type permutation, checked to preserve adjacency
and to map sides to sides.  They feed four pipelines:

* ``extend_action``: a ball automorphism induces a simple automorphism of
  the clump's complex of groups, whose local map at every vertex is the
  automorphism's type permutation on the vertex's cyclic factors;
* ``quotient_cog``: a finite group of type permutations induces a complex
  of groups over the orbit space, together with a covering from the
  original, verified against the covering axioms (the base is subdivided
  into residue chains when the group is not trivial, since an element that
  moves a type fixes a vertex but moves an edge at it).  The group
  multiplies as its permutations do; each permutation's ball automorphism
  is built and verified once, and read only for its action on faces;
* the discreteness classifier for full and type-preserving automorphism
  groups of the building, with the nerve rigidity oracle;
* apartment fragments through the base chamber and the sheet-swap
  witnesses that carry one fragment to another.  A sheet swap exchanges
  the two wings behind two sheets of an unfolding, in closed form on the
  whole ball; the search ``extend_to_ball`` is kept only as its reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import kernel
from .building import Building, syllable_key
from .clump import Clump, Unfolding
from .coxeter import CoxeterSystem
from .covering import CoveringReport, check_covering
from .errors import DomainError, InternalError, SizeCapError


# ---------------------------------------------------------------------------
# type permutations
# ---------------------------------------------------------------------------


# A quotient composes every pair of its type permutations: a group of order
# N makes a table of N² products, and acts on the ball N times.
QUOTIENT_TABLE_CAP = 100_000


# The search for commutation automorphisms tries one partial map, at a cost
# linear in the rank, per image it gives a generator; it stops at this many.
AUTOMORPHISM_SEARCH_CAP = 10_000_000


def _commutation_automorphisms(sysm: CoxeterSystem, colours):
    """Permutations of the generators preserving commutation and colours,
    yielded one at a time in lexicographic order.

    A generator alone in its colour is fixed, so it is placed first.  The
    others are placed in increasing order by backtracking over the images
    of their colour in increasing order; a partial map is dropped as soon as
    one image has the wrong commutation with a generator already placed.
    Each image tried is a partial map; past ``AUTOMORPHISM_SEARCH_CAP`` of
    them the search raises ``SizeCapError``."""
    rank = sysm.rank
    comm = sysm.comm
    classes = {}
    for g, colour in enumerate(colours):
        classes.setdefault(colour, []).append(g)
    perm = [None] * rank
    placed = []
    free = []
    for g in range(rank):
        if len(classes[colours[g]]) == 1:
            perm[g] = g
            placed.append(g)
        else:
            free.append(g)

    tried = 0

    def extend(k):
        nonlocal tried
        if k == len(free):
            yield tuple(perm)
            return
        i = free[k]
        for image in classes[colours[i]]:
            tried += 1
            if tried > AUTOMORPHISM_SEARCH_CAP:
                raise SizeCapError(
                    "the automorphism search would try more than "
                    f"{AUTOMORPHISM_SEARCH_CAP} partial maps"
                )
            if image in perm or any(
                ((comm[i] >> j) & 1) != ((comm[image] >> perm[j]) & 1)
                for j in placed
            ):
                continue
            perm[i] = image
            placed.append(i)
            yield from extend(k + 1)
            placed.pop()
            perm[i] = None

    return extend(0)


def type_permutation_group(building: Building):
    """All permutations of the generators preserving both q and m.

    The group acts on quotients, whose table of products must stay within
    ``QUOTIENT_TABLE_CAP``: the listing stops with ``SizeCapError`` at the
    first permutation past that bound, before any of them acts on a ball.
    """
    most = math.isqrt(QUOTIENT_TABLE_CAP)
    perms = list(
        itertools.islice(
            _commutation_automorphisms(building.system, building.gp.qs), most + 1
        )
    )
    if len(perms) > most:
        raise SizeCapError(
            f"more than {most} type permutations: the quotient's table of "
            f"products would exceed its cap {QUOTIENT_TABLE_CAP}"
        )
    return perms


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


def automorphism_group_from_permutations(clump: Clump, perms):
    """The verified ball automorphism each type permutation induces, in order."""
    return [from_type_permutation(clump, perm) for perm in perms]


# ---------------------------------------------------------------------------
# induced simple automorphisms of the complex of groups
# ---------------------------------------------------------------------------


def extend_action(clump: Clump, h: BallAutomorphism) -> None:
    """Check that h induces a simple automorphism of the clump's complex of
    groups; raise ``InternalError`` naming the face and the permutation if
    it does not.

    h carries each side of type g to a side of type perm[g]
    (``BallAutomorphism.side_image``), as an automorphism of a right-angled
    building carries s-panels to perm[s]-panels (Caprace, Fund. Math. 224,
    2014).  So its local map at every vertex is g -> perm[g] on the
    vertex's local mask: one type permutation gives all the local data
    (Bridson & Haefliger, III.C).  Two checks remain that can fail: perm
    keeps the cyclic order of every type of a local mask, and it carries
    each face's local mask onto the local mask of the face's image.  The
    local maps commute with the inclusions along every edge, being
    restrictions of one permutation, wherever the local masks nest along
    the edge; ``canonical_cog`` has already raised where they do not.
    """
    cog = clump.cog()
    qs = clump.building.gp.qs
    perm = h.perm
    broken = sum(1 << g for g, q in enumerate(qs) if q != qs[perm[g]])
    for face in cog.scwol.vertices:
        mask = cog.local_masks[face]
        if mask & broken:
            raise InternalError(
                f"local map at face {face!r} does not preserve cyclic orders "
                f"under the type permutation {perm}"
            )
        if permute_mask(perm, mask) != cog.local_masks[h.face_image(face)]:
            raise InternalError(
                f"local map at face {face!r} does not hit the image local "
                f"group under the type permutation {perm}"
            )


# ---------------------------------------------------------------------------
# quotient complexes of groups and their coverings
# ---------------------------------------------------------------------------


def _cell_cog(clump, subdivide):
    """The quotient base, a ``cog.ComplexOfGroups``: scwol vertices, or
    residue chains when subdividing.

    A face is numbered by its position in the clump's scwol vertices, and a
    cell is a tuple of face numbers with strictly increasing types along
    scwol edges; its local group is the local group of its first, smallest
    face, and so are its chambers.  An edge goes from a chain to each proper
    nonempty subchain, so an element fixing a cell fixes every edge out of it.

    Lemma: plain tuple order on cells is the order of the tuples of their
    faces' ``face_key``s, since the scwol lists faces in ``face_key`` order
    and ``face_key`` is injective.  So the cell scwol needs no key, and
    orders its edges as face keys do.
    """
    # imported on first use, as clump does: the CLI starts without cog
    from .cog import ComplexOfGroups, Scwol

    cog = clump.cog()
    scwol = cog.scwol
    faces = scwol.vertices
    number = {f: i for i, f in enumerate(faces)}
    if subdivide:
        after = [[number[dst] for _, dst in scwol.out_edges.get(f, ())] for f in faces]
        chains = []
        stack = [(i,) for i in range(len(faces))]
        while stack:
            chain = stack.pop()
            chains.append(chain)
            stack.extend(chain + (j,) for j in after[chain[-1]])
        edges = set()
        for chain in chains:
            n = len(chain)
            for bits in range(1, (1 << n) - 1):
                edges.add((chain, tuple(chain[i] for i in range(n) if (bits >> i) & 1)))
    else:
        chains = [(i,) for i in range(len(faces))]
        edges = {((number[src],), (number[dst],)) for src, dst in scwol.edges}
    cells = Scwol(
        {c: scwol.face_chambers[faces[c[0]]] for c in chains}, edges, key=None
    )
    return ComplexOfGroups(
        clump.building, cells, {c: cog.local_masks[faces[c[0]]] for c in chains}
    )


class _Relabel:
    """A local map phi^h on one local group: each generator g of its mask
    goes to perm[g], perm the type permutation of h, exponents kept.

    Equal and hashed by that table, which is everything the map reads of h
    on the local group; each element's image is computed once.
    """

    __slots__ = ("pairs", "table", "memo", "_hash")

    def __init__(self, pairs):
        self.pairs = pairs
        self.table = dict(pairs)
        self.memo = {}
        self._hash = hash(pairs)

    def __eq__(self, other):
        return isinstance(other, _Relabel) and self.pairs == other.pairs

    def __hash__(self):
        return self._hash

    def __call__(self, x):
        got = self.memo.get(x)
        if got is None:
            table = self.table
            got = self.memo[x] = tuple(sorted([(table[g], e) for g, e in x]))
        return got


class _IntoRep:
    """A local map of the quotient covering at a cell: x -> (k.x, h), k the
    cell's transporter to its orbit representative and h the identity.

    Equal and hashed by its relabeling and h, which is everything it reads,
    so cells with the same local data share a vertex key in
    ``check_covering``; the hash is computed once.
    """

    __slots__ = ("relabel", "h", "_hash")

    def __init__(self, relabel, h):
        self.relabel = relabel
        self.h = h
        self._hash = hash((relabel, h))

    def __eq__(self, other):
        same = isinstance(other, _IntoRep) and self.h == other.h
        return same and self.relabel == other.relabel

    def __hash__(self):
        return self._hash

    def __call__(self, x):
        return (self.relabel(x), self.h)


class QuotientCog:
    """Complex of groups induced on the orbit space of a cell action.

    Local groups are semidirect products: pairs (g, h) with g in the local
    group of the orbit representative and h in its stabilizer, multiplied
    through the action of h on local coordinates.  Monomorphisms, twists
    and the covering data all come from fixed orbit-representative and
    transporter choices, every one canonical-least.

    The group is given as type permutations, and its elements are referred
    to by their index in sorted order.  Products, inverses and the identity
    are read off the permutation tuples, since the automorphism a type
    permutation induces composes as the permutation does; a list that is
    not closed under composition is refused before any automorphism is
    built.  ``autos[i]``, the verified automorphism permutation i induces,
    is read only for its type permutation and its action on faces.

    The base is subdivided exactly when the group is not trivial: every
    automorphism fixes the base face (0, ()), and one whose permutation
    moves g moves the end of the edge (0, ()) -> ({g}, ()), in every ball.

    A cell is a tuple of face numbers (``_cell_cog``), and is referred to by
    its position in the base's vertex order.  Each automorphism's action on
    faces is read once, as a list from face number to image face number, and
    each cell's images are mapped through those lists once, as a tuple of
    positions.  An edge is coded as (position of its start) * n + (position
    of its end), which orders edges as the base does.  Orbit
    representatives (least position), transporters, stabilizers, edge
    orbits (least code over the group) and representative edges are read
    off those integers.  The local map phi^h on a local group is h's type
    permutation on the group's mask (``extend_action``, which checks each
    automorphism), a ``_Relabel`` made once per automorphism and mask;
    products are memoized per argument.
    """

    def __init__(self, clump: Clump, perms):
        perms = sorted(set(map(tuple, perms)))
        index = {p: i for i, p in enumerate(perms)}
        try:
            # a after b, as ``BallAutomorphism.compose`` composes them
            self._comp = {
                (i, j): index[tuple(a[g] for g in b)]
                for i, a in enumerate(perms)
                for j, b in enumerate(perms)
            }
            self._inv = [index[tuple(map(p.index, range(len(p))))] for p in perms]
            self._id = index[tuple(range(len(clump.building.gp.qs)))]
        except KeyError:
            raise DomainError("the automorphisms do not form a group") from None
        self.autos = automorphism_group_from_permutations(clump, perms)
        self.clump = clump
        self.building = clump.building
        self.subdivided = len(perms) > 1
        self.cells = _cell_cog(clump, self.subdivided)
        for h in self.autos:
            extend_action(clump, h)
        self._relabels = {}  # (auto index, mask) -> _Relabel
        self._products = {}  # (rep, x, y) -> x y at rep
        self._build()

    # -- group action plumbing ------------------------------------------

    def local_map(self, hi, cell):
        """phi^h at ``cell``, on the canonical elements of its local group:
        one ``_Relabel`` per automorphism and local mask."""
        mask = self.cells.local_masks[cell]
        got = self._relabels.get((hi, mask))
        if got is None:
            perm = self.autos[hi].perm
            got = self._relabels[hi, mask] = _Relabel(
                tuple((g, perm[g]) for g in range(len(perm)) if (mask >> g) & 1)
            )
        return got

    # -- construction ------------------------------------------------------

    def _build(self):
        cells = self.cells.scwol
        vertices = cells.vertices
        n = len(vertices)
        order = len(self.autos)
        position = {c: i for i, c in enumerate(vertices)}

        # orbit[i][h]: position of the image of cell i under autos[h]
        faces = self.clump.scwol().vertices
        number = {f: i for i, f in enumerate(faces)}
        by_auto = []
        for h in self.autos:
            image = [number[h.face_image(f)] for f in faces].__getitem__
            by_auto.append([position[tuple(map(image, c))] for c in vertices])
        orbit = list(zip(*by_auto))

        # orbit representatives, transporters to them, stabilizers
        rep_pos = [min(row) for row in orbit]
        self.rep_of = {c: vertices[r] for c, r in zip(vertices, rep_pos)}
        self.k_to_rep = {
            c: row.index(r) for c, row, r in zip(vertices, orbit, rep_pos)
        }
        rep_positions = sorted(set(rep_pos))
        self.reps = tuple(vertices[r] for r in rep_positions)
        self.stab = {
            vertices[r]: tuple(i for i, x in enumerate(orbit[r]) if x == r)
            for r in rep_positions
        }

        # quotient edges: orbit of a cell edge, keyed by its least code; the
        # representative edge of an orbit is its least member starting at
        # the orbit representative of the orbit's initial vertices
        scaled = [tuple(x * n for x in row) for row in orbit]
        orbit_code = {}  # edge code -> code of its orbit
        edge_orbit = {}
        least_from = {}
        decoded = {}
        for e in cells.edges:
            i, j = position[e[0]], position[e[1]]
            code = min(map(int.__add__, scaled[i], orbit[j]))
            orbit_code[i * n + j] = code
            b = decoded.get(code)
            if b is None:
                b = decoded[code] = (vertices[code // n], vertices[code % n])
            edge_orbit[e] = b
            least_from.setdefault((code, i), e)
        self.edge_orbit = edge_orbit
        z_codes = sorted(decoded)
        self.z_edges = tuple(decoded[code] for code in z_codes)

        # the transporter moving the terminal vertex of the representative
        # edge (initial vertex at the orbit rep) to its own rep
        self.kappa = {}
        # psi along b: phi^kappa at the end of its representative edge, and
        # h -> kappa h kappa^-1 as a tuple over the automorphism indices
        self._psi = {}
        rep_edge = {}  # quotient edge -> positions of its representative edge
        for code in z_codes:
            b = decoded[code]
            abar = least_from.get((code, rep_pos[code // n]))
            if abar is None:
                raise InternalError("edge orbit misses its representative vertex")
            k = self.kappa[b] = self.k_to_rep[abar[1]]
            k_inv = self._inv[k]
            conj = tuple(self._comp[(k, self._comp[(h, k_inv)])] for h in range(order))
            self._psi[b] = (self.local_map(k, abar[1]), conj)
            rep_edge[b] = (position[abar[0]], position[abar[1]])

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
            b_start, b_end = rep_edge[b]
            for bp in self.z_in_edges.get(self.z_ends[b][0], ()):
                bp_start, bp_end = rep_edge[bp]
                kp_inv = self._inv[self.kappa[bp]]
                if orbit[b_start][kp_inv] != bp_end:
                    raise InternalError("transporter does not align edges")
                comp = orbit_code.get(bp_start * n + orbit[b_end][kp_inv])
                if comp is None:
                    raise InternalError("missing composite of representative edges")
                bb = decoded[comp]
                self.z_compose[(b, bp)] = bb
                kb, kbp, kbb = self.kappa[b], self.kappa[bp], self.kappa[bb]
                tw = self._comp[(kb, self._comp[(kbp, self._inv[kbb])])]
                if tw not in self.stab[self.z_ends[b][1]]:
                    raise InternalError("twist transporter does not stabilize")
                self.z_twist[(b, bp)] = ((), tw)

    # -- group operations at a representative cell -------------------------

    def mult(self, rep, x, y):
        got = self._products.get((rep, x, y))
        if got is None:
            (g1, h1), (g2, h2) = x, y
            got = self._products[rep, x, y] = (
                self.building.gp.mul(g1, self.local_map(h1, rep)(g2)),
                self._comp[(h1, h2)],
            )
        return got

    def inv(self, rep, x):
        g, h = x
        hi = self._inv[h]
        return (self.local_map(hi, rep)(self.building.gp.inv(g)), hi)

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
        """The local group's mask and stabilizer: they fix its products."""
        return self.cells.local_masks[v], self.stab[v]

    def local_data(self, v):
        """v's group; each in-edge's monomorphism and initial group."""
        return self.group(v), tuple(
            (self._psi[b], self.group(self.z_ends[b][0])) for b in self.in_edges(v)
        )

    def psi(self, b, x):
        """Monomorphism along a quotient edge."""
        relabel, conj = self._psi[b]
        g, h = x
        return (relabel(g), conj[h])

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

    def to_json(self):
        return {
            "subdivided": self.quotient.subdivided,
            "group_order": len(self.quotient.autos),
            "orbit_vertices": len(self.quotient.reps),
            "orbit_edges": len(self.quotient.z_edges),
            "sheets": self.report.sheet_count,
            "ok": self.report.ok,
        }


def _quotient_morphism(qc: QuotientCog):
    """The covering of the base onto the quotient, as ``check_covering``'s
    maps: a cell goes to its orbit representative, an edge to its orbit,
    and the local map at a cell is its transporter's relabeling, compared
    by value and made once per value."""
    into, phi_vertex = {}, {}
    for c, k in qc.k_to_rep.items():
        relabel = qc.local_map(k, c)
        phi_vertex[c] = into.setdefault(relabel, _IntoRep(relabel, qc._id))
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
    return qc.rep_of, qc.edge_orbit, phi_vertex, phi_edge


def quotient_cog(clump: Clump, perms) -> QuotientResult:
    """Quotient complex of groups under a group of type permutations, and
    the verified covering onto it."""
    qc = QuotientCog(clump, perms)
    f_vertex, f_edge, phi_vertex, phi_edge = _quotient_morphism(qc)
    report = check_covering(qc.cells, qc, f_vertex, f_edge, phi_vertex, phi_edge)
    return QuotientResult(qc, report)


def composed_quotient_covering(labeling, perms) -> CoveringReport:
    """Verify the composite of the unfolding covering with a quotient.

    The unfolding covering onto the one-chamber complex of groups is
    re-presented over residue chains (labels transported to chain edges by
    their minimal faces), then composed with the quotient covering of the
    single chamber under the given group of type permutations.  The
    composite must again satisfy every covering axiom.
    """
    clump = labeling.clump
    building = clump.building
    y0 = building.ball(0)
    qc = QuotientCog(y0, perms)
    src_cells = _cell_cog(clump, qc.subdivided)
    # a cell's type chain numbers each face's type by Y0's face of that type
    faces = clump.scwol().vertices
    y0_number = {f[0]: i for i, f in enumerate(y0.scwol().vertices)}
    type_of = [y0_number[f[0]] for f in faces].__getitem__

    def type_chain(cell):
        return tuple(map(type_of, cell))

    # unfolding covering over chains: labels attach by minimal faces
    def chain_label(e):
        v_from = e[0][0]
        v_to = e[1][0]
        if v_from == v_to:
            return ()
        vec = labeling.labels[(faces[v_from], faces[v_to])]
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


def is_rigid(sysm: CoxeterSystem) -> bool:
    """No nontrivial nerve automorphism fixes a closed vertex star pointwise.

    Per vertex, the automorphisms fixing its closed star are those keeping
    a colouring that gives each star vertex a colour of its own.  Their
    search yields the identity first, the least in lexicographic order, and
    stops at the next one, so no group is listed.
    """
    rank = sysm.rank
    for v in range(rank):
        star = sysm.comm[v] | 1 << v
        colours = [g + 1 if (star >> g) & 1 else 0 for g in range(rank)]
        autos = _commutation_automorphisms(sysm, colours)
        next(autos)  # the identity
        if next(autos, None) is not None:
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

    A fragment assigns to each word w of the thin ball
    (``Building.thin_ball``) a chamber over w, s-adjacent to the chamber at
    ws for each descent s of w; ws is w less its right-visible s-syllable,
    which keeps it in the thin ball.  A word with one descent s takes any of
    the q_s - 1 chambers s-adjacent to its neighbour's, and one with several
    descents is pinned by them, so the fragments number the product of
    q_s - 1 over the words with exactly one descent.  That count is checked
    against the cap before anything is enumerated, and against the
    enumeration after it.  The thick ball comes first: its chamber cap then
    bounds the thin ball, which is never the larger.

    Lemma: a chamber c over the word w is s-adjacent to a chamber over the
    shorter word ws exactly when that chamber is c less its right-visible
    s-syllable.  For c(s, e), e != 0, merges (s, e) into a right-visible
    s-syllable (the kernel's ``_append``), deleting it or keeping the word
    w, and else inserts it, at a longer word.  Right-visibility reads only
    generators, so c's right-visible syllables stand where w's do: one
    ``kernel.right_descents`` scan per thin word serves every chamber over
    it.  Each ball chamber is read once and indexed by its word and the
    chamber at the word's first descent; a search step compares precomputed
    chambers and calls no kernel function.  Chambers are named by their
    rank in shortlex order, which orders the fragments too.
    """
    gp = building.gp
    ball = building.ball_chambers(n)
    words = building.thin_ball(n)
    windex = {w: k for k, w in enumerate(words)}
    # descents[k]: (generator, position, index of the word less that
    # syllable) for each right-visible syllable of words[k]
    descents = []
    count = 1
    for w in words:
        ds = [
            (g, i, windex[w[:i] + w[i + 1 :]])
            for g, i in kernel.right_descents(w, gp.comm)
        ]
        descents.append(ds)
        if len(ds) == 1:
            count *= gp.qs[ds[0][0]] - 1
    if count > APARTMENT_COUNT_CAP:
        raise SizeCapError("apartment enumeration exceeded its cap")

    chambers = sorted(ball, key=syllable_key)  # the base first
    rank = {c: r for r, c in enumerate(chambers)}
    # (word index, rank at its first descent) -> (rank, ranks at the other
    # descents) of each chamber at the word
    slots = {}
    for r, c in enumerate(chambers[1:], 1):
        k = windex.get(tuple((g, 1) for g, _ in c))
        if k is None:
            raise InternalError("ball chamber outside the thin ball")
        first, *rest = [rank[c[:i] + c[i + 1 :]] for _, i, _ in descents[k]]
        slots.setdefault((k, first), []).append((r, tuple(rest)))
    # Depth first, with an explicit stack: the thin ball can hold more words
    # than Python's recursion limit.  stack[k - 1] yields the chambers left
    # to try at words[k], and every shorter word has its chamber assigned.
    assignment = [0] * len(words)  # rank of the chamber at each word
    results = []
    stack = []
    while True:
        k = len(stack) + 1
        if k < len(words):
            (_, _, first), *rest = descents[k]
            pinned = tuple(assignment[j] for _, _, j in rest)
            cands = slots.get((k, assignment[first]), ())
            stack.append(iter([r for r, at in cands if at == pinned]))
        else:
            if len(results) == count:
                raise InternalError("more apartment fragments than counted")
            results.append(tuple(sorted(assignment)))
        while stack:
            cand = next(stack[-1], None)
            if cand is not None:
                assignment[len(stack)] = cand
                break
            stack.pop()
        if not stack:
            break
    if len(results) != count:
        raise InternalError("fewer apartment fragments than counted")
    return [
        ApartmentFragment(building, n, frozenset(chambers[r] for r in ranks))
        for ranks in sorted(results)
    ]


def is_apartment_fragment(building, n, chambers) -> bool:
    """Direct validation of the fragment conditions on a chamber set: one
    chamber over each word w of the thin ball (the base over the empty one),
    s-adjacent to the chamber over ws for each descent s of w.  Adjacency is
    symmetric, so this covers every pair of words one letter apart."""
    chambers = frozenset(chambers)
    gp = building.gp
    shadows = {tuple((g, 1) for g, _ in c): c for c in chambers}
    if len(shadows) != len(chambers) or shadows.keys() != set(building.thin_ball(n)):
        return False
    for w, c in shadows.items():
        for g, i in kernel.right_descents(w, gp.comm):
            d = gp.delta(shadows[w[:i] + w[i + 1 :]], c)
            if len(d) != 1 or d[0][0] != g:
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
    224, 2014); it is verified panel by panel on the ball all the same, and a
    failure, a fault of the construction, raises ``InternalError`` naming it.
    """
    blocks = grown.sheets
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
        raise InternalError(
            f"sheet swap {i},{j} at the side of type {gp.system.generators[u]} "
            f"through mirror {m!r} is not an automorphism: {problems[0]}"
        )
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
    sheets, which fixes Y_(k-1) and acts on the whole ball at once, so the
    walk compares only the chambers born at each step and images the first
    fragment again only after a swap.  One call per fragment, from a fixed
    one, covers every pair: if h1 and h2 carry it to frag1 and frag2, then
    h2 ∘ h1⁻¹ carries frag1 to frag2.
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
    image = frag1.chambers  # h(frag1)
    for k, grown in enumerate(records, 1):
        # set intersection walks the smaller set
        a, b = image & grown.chambers, frag2.chambers & grown.chambers
        if a == b:
            continue
        if {c for c in image if born[c] < k} != {
            c for c in frag2.chambers if born[c] < k
        }:
            raise InternalError("fragments disagree before the current step")
        blocks = grown.sheets
        blocks_a = {i for i, blk in enumerate(blocks) if blk & a}
        blocks_b = {i for i, blk in enumerate(blocks) if blk & b}
        if len(blocks_a) != 1 or len(blocks_b) != 1:
            raise InternalError("fragment meets several sheets of one unfolding")
        ia, ib = blocks_a.pop(), blocks_b.pop()
        if ia == ib:
            raise InternalError("distinct fragments in the same sheet")
        h = sheet_swap(ball, grown, ia, ib).compose(h)
        image = frozenset(h.mapping[c] for c in frag1.chambers)
    if image != frag2.chambers:
        raise InternalError("witness construction did not align the fragments")
    if h.mapping[()] != ():
        raise InternalError("witness moved the base chamber")
    return h
