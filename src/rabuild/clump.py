"""Clumps: gallery-connected chamber sets with boundary structure.

A mirror of a clump is a rank-one face (panel) carrying at least one of its
chambers; it is a boundary mirror when it carries exactly one.  Boundary
mirrors of one type fall into *sides* (components under adjacency through
rank-two faces), and unfolding along a side adjoins every chamber of every
panel in the side.  The new chambers split into *sheets*: components under
adjacency in the remaining types.

Chambers are raw syllable tuples throughout; derived data (mirror counts,
boundary, sides) is cached lazily on the immutable chamber set.
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


@dataclass(frozen=True)
class SheetPartition:
    side: Side
    new_chambers: frozenset
    blocks: tuple  # tuple of frozensets, sorted by least chamber


class Clump:
    def __init__(self, building: Building, chambers, validate=True):
        self.building = building
        self.chambers = frozenset(chambers)
        self._mirror_counts = None
        self._sides = None
        self._scwol = None
        self._cog = None
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

    def mirror_counts(self):
        """(gen, panel representative) -> number of clump chambers on it."""
        if self._mirror_counts is None:
            gp = self.building.gp
            counts = {}
            for c in self.chambers:
                for g in range(len(gp.qs)):
                    key = (g, gp.strip(c, 1 << g))
                    counts[key] = counts.get(key, 0) + 1
            self._mirror_counts = counts
        return self._mirror_counts

    def boundary_mirrors(self):
        """Panels carrying exactly one chamber of the clump, sorted."""
        return sorted(
            (k for k, n in self.mirror_counts().items() if n == 1),
            key=lambda k: (k[0], syllable_key(k[1])),
        )

    @property
    def is_whole_building(self):
        """Finite building fully enumerated: no boundary at all."""
        return not self.boundary_mirrors()

    def panel_count(self, g, rep):
        return self.mirror_counts().get((g, rep), 0)

    # -- vertex (face) queries ----------------------------------------------

    def _boundary_type(self, face, reading):
        """Mask of the types g of the face for which ``reading`` (``any`` or
        ``all``) holds over its incident g-panels being boundary panels."""
        members = self.scwol().face_chambers.get(face)
        if not members:
            raise DomainError("face is not incident to the clump")
        gp = self.building.gp
        out = 0
        for g in range(len(gp.qs)):
            if not (face[0] >> g) & 1:
                continue
            panels = {gp.strip(c, 1 << g) for c in members}
            if reading(self.panel_count(g, p) == 1 for p in panels):
                out |= 1 << g
        return out

    def boundary_type_mask(self, face):
        """Types s in the face's type with SOME boundary s-panel on it."""
        return self._boundary_type(face, any)

    def boundary_type_mask_all_variant(self, face):
        """Types s in the face's type with EVERY incident s-panel boundary."""
        return self._boundary_type(face, all)

    def boundary_type(self, face):
        return self.building.system.unmask(self.boundary_type_mask(face))

    # -- sides ---------------------------------------------------------------

    def sides(self):
        """Boundary mirrors split into type-connected components.

        Two boundary panels of type u are adjacent when they lie on a common
        rank-two face, i.e. they have the same {u,c}-coset for some c
        commuting with u.
        """
        if self._sides is not None:
            return self._sides
        gp = self.building.gp
        sysm = self.building.system
        rank = len(gp.qs)
        by_type = {}
        for g, rep in self.boundary_mirrors():
            by_type.setdefault(g, []).append(rep)
        sides = []
        for g in sorted(by_type):
            reps = sorted(by_type[g], key=syllable_key)
            parent = {r: r for r in reps}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for c in range(rank):
                if c == g or not (sysm.comm[g] >> c) & 1:
                    continue
                pair_mask = (1 << g) | (1 << c)
                groups = {}
                for r in reps:
                    groups.setdefault(gp.strip(r, pair_mask), []).append(r)
                for members in groups.values():
                    root = members[0]
                    for other in members[1:]:
                        parent[find(other)] = find(root)
            comps = {}
            for r in reps:
                comps.setdefault(find(r), []).append(r)
            for members in comps.values():
                sides.append(Side(g, tuple(sorted(members, key=syllable_key))))
        sides.sort(key=lambda k: (k.gen, syllable_key(k.mirrors[0])))
        self._sides = sides
        return sides

    def side_of_mirror(self, g, rep):
        for side in self.sides():
            if side.gen == g and rep in side.mirrors:
                return side
        return None

    # -- derived complexes (lazy; see rabuild.cog) ----------------------------

    def scwol(self):
        if self._scwol is None:
            from .cog import scwol_of

            self._scwol = scwol_of(self)
        return self._scwol

    def cog(self):
        if self._cog is None:
            from .cog import canonical_cog

            self._cog = canonical_cog(self)
        return self._cog


def chamber_clump(building: Building) -> Clump:
    """The radius-zero ball: a single chamber."""
    return Clump(building, {()})


def unfold(clump: Clump, side: Side) -> Clump:
    """Adjoin every chamber of every panel of the side."""
    if side not in clump.sides():
        raise DomainError("not a side of this clump")
    gp = clump.building.gp
    new = set(clump.chambers)
    for rep in side.mirrors:
        for e in range(gp.qs[side.gen]):
            new.add(gp.mul(rep, ((side.gen, e),)))
    return Clump(clump.building, new, validate=False)


def sheets(clump: Clump, side: Side) -> SheetPartition:
    """Partition the new chambers of an unfolding by non-side adjacency."""
    unfolded = unfold(clump, side)
    new_chambers = unfolded.chambers - clump.chambers
    gp = clump.building.gp
    rank = len(gp.qs)
    parent = {c: c for c in new_chambers}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups = {}
    for c in new_chambers:
        for g in range(rank):
            if g == side.gen:
                continue
            groups.setdefault((g, gp.strip(c, 1 << g)), []).append(c)
    for members in groups.values():
        for other in members[1:]:
            a, b = find(members[0]), find(other)
            if a != b:
                parent[a] = b
    blocks = {}
    for c in new_chambers:
        blocks.setdefault(find(c), []).append(c)
    ordered = sorted(
        (frozenset(v) for v in blocks.values()),
        key=lambda blk: syllable_key(min(blk, key=syllable_key)),
    )
    return SheetPartition(side, frozenset(new_chambers), tuple(ordered))


def sheet_mirror_table(clump: Clump, partition: SheetPartition):
    """Per sheet: mirror representative -> its unique chamber in the sheet.

    Every sheet meets every panel of the side exactly once; anything else
    contradicts the sheet structure and aborts.
    """
    gp = clump.building.gp
    g = partition.side.gen
    tables = []
    for block in partition.blocks:
        table = {}
        for c in block:
            rep = gp.strip(c, 1 << g)
            if rep in table:
                raise InternalError("two sheet chambers on one mirror")
            table[rep] = c
        if set(table) != set(partition.side.mirrors):
            raise InternalError("sheet does not cover the side's mirrors")
        tables.append(table)
    return tables


@dataclass(frozen=True)
class UnfoldStep:
    before: Clump
    side: Side
    after: Clump


def unfold_steps_to_ball(building: Building, n: int, cap=None, rng=None):
    """Reach the radius-n ball from one chamber by unfolding along sides.

    Layer by layer: enumerate the sides of the previous ball, unfold along
    the first, and re-locate each later side inside the current clump (its
    surviving mirrors may have been absorbed into a larger side) before
    unfolding along it.  Returns the final clump and the list of steps.
    Sides are processed in canonical order; pass ``rng`` to shuffle them.
    """
    cap = building.chamber_cap if cap is None else cap
    current = chamber_clump(building)
    steps = []
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
            located = {current.side_of_mirror(orig.gen, m) for m in alive}
            located.discard(None)
            if len(located) != 1:
                raise InternalError(
                    "pending side does not extend to a unique side"
                )
            side = located.pop()
            # each mirror is a boundary panel: it gains q - 1 chambers
            size = len(current) + len(side.mirrors) * (
                building.gp.qs[side.gen] - 1
            )
            if size > cap:
                raise SizeCapError(
                    f"unfolding exceeded chamber cap {cap}", partial_count=size
                )
            after = unfold(current, side)
            steps.append(UnfoldStep(current, side, after))
            current = after
    return current, steps
