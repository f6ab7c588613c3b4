"""Clumps: gallery-connected chamber sets with boundary structure.

A mirror of a clump is a rank-one face (panel) carrying at least one of its
chambers; it is a boundary mirror when it carries exactly one.  Boundary
mirrors of one type fall into *sides* (components under adjacency through
rank-two faces), and unfolding along a side adjoins every chamber of every
panel in the side.  The new chambers split into *sheets*: components under
adjacency in the remaining types.

Chambers are raw syllable tuples throughout.  A clump built from a chamber
set computes its derived data (mirror counts, sides, scwol) from its
chambers when first asked.  A clump made by ``unfold`` takes its parent's
derived data over and updates it for the new chambers only, so a step costs
work in proportion to the chambers it adds; the parent rebuilds its own from
its chambers if it is asked again.

The sequence of unfoldings from one chamber to a ball is kept as a log: one
``Unfolding`` record per step, holding what the step added and no clump.
The records' new chambers partition the ball less its base chamber, so the
log takes memory in proportion to the ball.
"""

from __future__ import annotations

from dataclasses import dataclass

from .building import Building, syllable_key
from .errors import DomainError, InternalError, SizeCapError


@dataclass(frozen=True)
class Side:
    """Maximal type-connected union of boundary mirrors, of one type."""

    gen: int  # generator index (the side's type)
    mirrors: tuple  # sorted panel representatives (raw syllable tuples)

    def __hash__(self):
        # the least mirror names the side; hashing every mirror costs O(|side|)
        return hash((self.gen, self.mirrors[0]))


class Unfolding:
    """What an unfolding added to the clump it made.

    A plain class: a dataclass would cost a millisecond at every import.
    """

    __slots__ = ("side", "chambers", "lift", "faces", "created", "edges")

    def __init__(self, side, lift, faces, created, edges):
        self.side = side  # the side of the old clump that was unfolded
        self.chambers = frozenset(lift)  # the new chambers
        self.lift = lift  # new chamber -> the old chamber on its side mirror
        self.faces = faces  # face of a new chamber -> the new chambers on it
        self.created = created  # faces of new chambers the old clump lacked
        self.edges = edges  # scwol edges that the old clump lacked


class _Sides:
    """Boundary mirrors grouped into sides, kept up to date as mirrors change.

    Two boundary mirrors of type g are adjacent when they lie in one
    {g, c}-coset for a type c commuting with g, and a side is a component.
    A table carried along unfoldings keeps a coset index, ``cosets``, of the
    mirrors ever put in each such coset; a mirror that has left the boundary
    is skipped when read, since a panel never returns to the boundary once it
    has gained chambers.  A table that is not carried has no index: it would
    take more memory than the sides themselves.
    """

    def __init__(self, building):
        self.building = building
        comm = building.system.comm
        rank = len(comm)
        self.of_mirror = [{} for _ in range(rank)]  # per type: rep -> Side
        self.by_least = {}  # (gen, least mirror) -> Side, one entry per side
        self.cosets = None  # per type: (pair mask, coset rep) -> reps
        self.pair_masks = [
            [(1 << g) | (1 << c) for c in range(rank) if (comm[g] >> c) & 1]
            for g in range(rank)
        ]

    def indexed(self):
        """This table, with its coset index built if it had none."""
        if self.cosets is None:
            strip = self.building.gp.strip
            self.cosets = [{} for _ in self.of_mirror]
            for g, table in enumerate(self.of_mirror):
                index = self.cosets[g]
                for rep in table:
                    for mask in self.pair_masks[g]:
                        key = (mask, strip(rep, mask))
                        index[key] = index.get(key, ()) + (rep,)
        return self

    def update(self, removed, added):
        """Take the ``removed`` mirrors off the boundary and put ``added`` on.

        Both are (gen, rep) pairs.  Sides that lose a mirror are dissolved.
        Their other mirrors and the added ones are joined again, to each other
        and to the sides they meet; every other side stays as it is.
        """
        by_type = {}
        for g, rep in removed:
            by_type.setdefault(g, ([], []))[0].append(rep)
        for g, rep in added:
            by_type.setdefault(g, ([], []))[1].append(rep)
        for g, (gone, new) in by_type.items():
            self._update_type(g, gone, new)

    def _update_type(self, g, removed, added):
        of_mirror = self.of_mirror[g]
        index = None if self.cosets is None else self.cosets[g]
        strip = self.building.gp.strip
        broken = {}
        for rep in removed:
            side = of_mirror.pop(rep)
            broken[side.mirrors[0]] = side
        dirty = dict.fromkeys(added, True)  # rep -> whether it is new
        for least, side in broken.items():
            del self.by_least[(g, least)]
            for m in side.mirrors:
                if m in of_mirror:
                    dirty[m] = False
        # union-find over the dirty mirrors and the intact sides they meet,
        # an intact side standing in as its least mirror
        parent = {}
        met = {}

        def find(x):
            root = x
            while root in parent:
                root = parent[root]
            while x != root:
                parent[x], x = root, parent[x]
            return root

        for mask in self.pair_masks[g]:
            groups = {}
            for rep in dirty:
                groups.setdefault(strip(rep, mask), []).append(rep)
            for coset, members in groups.items():
                if index is not None:
                    known = index.get((mask, coset), ())
                    new = tuple(rep for rep in members if dirty[rep])
                    if new:
                        index[(mask, coset)] = known + new
                    members += [rep for rep in known if rep not in dirty]
                first = None
                for rep in members:
                    if rep not in dirty:
                        side = of_mirror.get(rep)
                        if side is None:
                            continue  # no longer a boundary mirror
                        rep = side.mirrors[0]
                        met[rep] = side
                    if first is None:
                        first = rep
                        continue
                    a, b = find(first), find(rep)
                    if a != b:
                        parent[a] = b
        groups = {}
        for unit in list(dirty) + list(met):
            groups.setdefault(find(unit), []).append(unit)
        for units in groups.values():
            reps = []
            for unit in units:
                side = met.get(unit)
                if side is None:
                    reps.append(unit)
                else:
                    del self.by_least[(g, unit)]
                    reps.extend(side.mirrors)
            side = Side(g, tuple(sorted(reps, key=syllable_key)))
            self.by_least[(g, side.mirrors[0])] = side
            for rep in side.mirrors:
                of_mirror[rep] = side


class Clump:
    def __init__(self, building: Building, chambers, validate=True):
        self.building = building
        self.chambers = frozenset(chambers)
        self.unfolding = None  # the Unfolding that made this clump, if any
        self._mirror_counts = None
        self._side_table = None  # _Sides
        self._sides = None  # sorted list of the sides
        self._scwol = None
        self._scwol_read = False
        self._cog = None
        self._vertex_sides = None
        if validate and not self._gallery_connected():
            raise DomainError("chamber set is not gallery-connected")

    def _gallery_connected(self):
        """Walk the clump panel by panel: two chambers are adjacent exactly
        when they share a panel, so the walk costs one strip per chamber and
        type, whatever the panel orders are.  The panel sizes are the mirror
        counts, which are kept."""
        if not self.chambers:
            return False
        gp = self.building.gp
        rank = len(gp.qs)
        keys = {}
        panels = {}  # (gen, panel representative) -> clump chambers on it
        for c in self.chambers:
            keys[c] = [(g, gp.strip(c, 1 << g)) for g in range(rank)]
            for key in keys[c]:
                panels.setdefault(key, []).append(c)
        if self._mirror_counts is None:
            self._mirror_counts = {k: len(v) for k, v in panels.items()}
        start = next(iter(self.chambers))
        seen = {start}
        stack = [start]
        while stack:
            for key in keys[stack.pop()]:
                for nb in panels.pop(key, ()):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        return len(seen) == len(self.chambers)

    def __len__(self):
        return len(self.chambers)

    def __contains__(self, chamber):
        return chamber in self.chambers

    # -- mirrors and boundary ---------------------------------------------

    def _counts(self):
        if self._mirror_counts is None:
            gp = self.building.gp
            counts = {}
            for c in self.chambers:
                for g in range(len(gp.qs)):
                    key = (g, gp.strip(c, 1 << g))
                    counts[key] = counts.get(key, 0) + 1
            self._mirror_counts = counts
        return self._mirror_counts

    def mirror_counts(self):
        """(gen, panel representative) -> number of clump chambers on it."""
        return dict(self._counts())

    def boundary_mirrors(self):
        """Panels carrying exactly one chamber of the clump, sorted."""
        return sorted(
            (k for k, n in self._counts().items() if n == 1),
            key=lambda k: (k[0], syllable_key(k[1])),
        )

    @property
    def is_whole_building(self):
        """Finite building fully enumerated: no boundary at all."""
        return not self.boundary_mirrors()

    def panel_count(self, g, rep):
        return self._counts().get((g, rep), 0)

    # -- vertex (face) queries ----------------------------------------------

    def _panels_at(self, face):
        """Per type g of the face: the clump's g-panels on it, as faces.

        Read from the scwol: a g-panel on the face is the initial vertex of
        an in-edge of type {g}, or the face itself when it is a g-panel.
        """
        scwol = self.scwol()
        if not scwol.face_chambers.get(face):
            raise DomainError("face is not incident to the clump")
        tmask = face[0]
        if tmask & (tmask - 1) == 0:
            return {tmask.bit_length() - 1: [face]} if tmask else {}
        out = {}
        for src, _ in scwol.in_edges[face]:
            t = src[0]
            if t and t & (t - 1) == 0:
                out.setdefault(t.bit_length() - 1, []).append(src)
        return out

    def _boundary_type(self, face, reading):
        """Mask of the types g of the face for which ``reading`` (``any`` or
        ``all``) holds over its incident g-panels being boundary panels.

        A panel's chamber count is read from the face table."""
        faces = self.scwol().face_chambers
        out = 0
        for g, panels in self._panels_at(face).items():
            if reading(len(faces[p]) == 1 for p in panels):
                out |= 1 << g
        return out

    def boundary_type_mask(self, face):
        """Types s in the face's type with SOME boundary s-panel on it."""
        return self._boundary_type(face, any)

    def boundary_type_mask_all_variant(self, face):
        """Types s in the face's type with EVERY incident s-panel boundary."""
        return self._boundary_type(face, all)

    # -- sides ---------------------------------------------------------------

    def _side_index(self):
        if self._side_table is None:
            self._side_table = _Sides(self.building)
            boundary = [k for k, n in self._counts().items() if n == 1]
            self._side_table.update((), boundary)
        return self._side_table

    def sides(self):
        """Boundary mirrors split into type-connected components.

        Two boundary panels of type u are adjacent when they lie on a common
        rank-two face, i.e. they have the same {u,c}-coset for some c
        commuting with u.
        """
        if self._sides is None:
            self._sides = sorted(
                self._side_index().by_least.values(),
                key=lambda k: (k.gen, syllable_key(k.mirrors[0])),
            )
        return self._sides

    def side_of_mirror(self, g, rep):
        """The side holding the boundary mirror, or None."""
        return self._side_index().of_mirror[g].get(rep)

    def vertex_sides(self):
        """Scwol vertex -> {g: the side holding its boundary g-panels}.

        One entry for each type g of the vertex's local group, the mask of
        types with some boundary panel on the vertex.  Built once per clump.
        """
        if self._vertex_sides is None:
            cog = self.cog()
            faces = cog.scwol.face_chambers
            table = {}
            for face in cog.scwol.vertices:
                mask = cog.local_masks[face]
                at = table[face] = {}
                for g, panels in self._panels_at(face).items():
                    if not (mask >> g) & 1:
                        continue
                    owners = {
                        self.side_of_mirror(g, p[1])
                        for p in panels
                        if len(faces[p]) == 1
                    }
                    owners.discard(None)
                    if len(owners) != 1:
                        raise InternalError(
                            "boundary panels at a vertex span several sides"
                        )
                    at[g] = owners.pop()
            self._vertex_sides = table
        return self._vertex_sides

    # -- derived complexes (see rabuild.cog) ----------------------------------

    def scwol(self):
        if self._scwol is None:
            from .cog import scwol_of

            self._scwol = scwol_of(self)
        self._scwol_read = True
        return self._scwol

    def cog(self):
        if self._cog is None:
            from .cog import canonical_cog

            self._cog = canonical_cog(self)
        return self._cog

    def _hand_on(self):
        """Mirror counts, sides, face table and edge set for an unfolding.

        They move to the new clump, which updates them in place, and this
        clump rebuilds its own from its chambers if it is asked again.  A
        scwol that has been read keeps its face table and edge set, and the
        new clump gets copies, so that no reader sees them change.
        """
        from .cog import scwol_of

        counts, sides = self._counts(), self._side_index().indexed()
        scwol = self._scwol if self._scwol is not None else scwol_of(self)
        faces, edges = scwol.face_chambers, scwol.edge_set
        if self._scwol_read:
            faces, edges = dict(faces), set(edges)
        else:
            self._scwol = None
        self._mirror_counts = self._side_table = None
        return counts, sides, faces, edges


def chamber_clump(building: Building) -> Clump:
    """The radius-zero ball: a single chamber."""
    return Clump(building, {()})


def unfold(clump: Clump, side: Side) -> Clump:
    """Adjoin every chamber of every panel of the side.

    The new clump takes the old one's derived data over (see
    ``Clump._hand_on``) and updates it for the new chambers: one strip per
    new chamber and spherical type for the face table and the edges, panel
    counts from the new chambers' panels, and sides from the mirrors that
    leave or join the boundary.
    """
    found = clump.side_of_mirror(side.gen, side.mirrors[0])
    if found != side:
        raise DomainError("not a side of this clump")
    from .cog import Scwol, add_chambers

    building = clump.building
    gp = building.gp
    u = side.gen
    lift = {}
    for rep in side.mirrors:
        panel = [gp.mul(rep, ((u, e),)) for e in range(gp.qs[u])]
        old = [c for c in panel if c in clump.chambers]
        if len(old) != 1:
            raise InternalError("side mirror without a unique clump chamber")
        for c in panel:
            if c != old[0]:
                lift[c] = old[0]
    counts, sides, faces, edges = clump._hand_on()
    added, created, new_edges = add_chambers(building, faces, edges, lift)
    removed, joined = [], []
    for (tmask, rep), members in added.items():
        if not tmask or tmask & (tmask - 1):
            continue  # not a panel
        key = (tmask.bit_length() - 1, rep)
        before = counts.get(key, 0)
        counts[key] = before + len(members)
        if before == 1:
            removed.append(key)
        elif before == 0 and len(members) == 1:
            joined.append(key)
    sides.update(removed, joined)
    grown = Unfolding(side, lift, added, created, new_edges)
    child = Clump(building, clump.chambers | grown.chambers, validate=False)
    child.unfolding = grown
    child._mirror_counts, child._side_table = counts, sides
    child._scwol = Scwol(faces, edges)
    return child


def sheets(unfolding: Unfolding) -> tuple:
    """Partition the chambers an unfolding added by non-side adjacency.

    New chambers sharing a panel of a type other than the side's are in one
    sheet; the panels are read from the unfolding's faces.  Returns the
    sheets as frozensets, sorted by their least chamber.
    """
    u = unfolding.side.gen
    parent = {c: c for c in unfolding.chambers}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (tmask, _), members in unfolding.faces.items():
        if not tmask or tmask & (tmask - 1) or tmask == 1 << u:
            continue  # only panels of the other types
        for other in members[1:]:
            a, b = find(members[0]), find(other)
            if a != b:
                parent[a] = b
    blocks = {}
    for c in unfolding.chambers:
        blocks.setdefault(find(c), []).append(c)
    ordered = sorted(blocks.values(), key=lambda blk: min(map(syllable_key, blk)))
    return tuple(map(frozenset, ordered))


def unfold_steps_to_ball(building: Building, n: int, rng=None):
    """Reach the radius-n ball from one chamber by unfolding along sides.

    Layer by layer: enumerate the sides of the previous ball, unfold along
    the first, and re-locate each later side inside the current clump (its
    surviving mirrors may have been absorbed into a larger side) before
    unfolding along it.  Returns the ball and the log of the sequence, one
    ``Unfolding`` record per step; only the current clump is kept.  Sides
    are processed in canonical order; pass ``rng`` to shuffle them.
    """
    cap = building.chamber_cap
    current = chamber_clump(building)
    records = []
    for _ in range(n):
        pending = list(current.sides())
        if rng is not None:
            rng.shuffle(pending)
        for orig in pending:
            alive = [
                m for m in orig.mirrors if current.panel_count(orig.gen, m) == 1
            ]
            if not alive:
                continue
            side = current.side_of_mirror(orig.gen, alive[0])
            if side is None or any(
                current.side_of_mirror(orig.gen, m) is not side for m in alive
            ):
                raise InternalError(
                    "pending side does not extend to a unique side"
                )
            # each mirror is a boundary panel: it gains q - 1 chambers
            size = len(current) + len(side.mirrors) * (
                building.gp.qs[side.gen] - 1
            )
            if size > cap:
                raise SizeCapError(
                    f"unfolding exceeded chamber cap {cap}", partial_count=size
                )
            current = unfold(current, side)
            records.append(current.unfolding)
    return current, records
