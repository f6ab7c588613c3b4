"""Clumps: the balls of the building and the chamber sets unfolded from one.

A mirror of a clump is a rank-one face (panel) carrying at least one of its
chambers; it is a boundary mirror when it carries exactly one.  Boundary
mirrors of one type fall into *sides* (components under adjacency through
rank-two faces), and unfolding along a side adjoins every chamber of every
panel in the side.  The new chambers split into *sheets*: components under
adjacency in the remaining types.

Chambers are raw syllable tuples throughout.  Every clump starts as
``Building.ball(n)``, which lists the ball's chambers with its mirror counts
read off the heap layers; the one-chamber clump is ``ball(0)``.  A clump
computes its other derived data (sides, scwol) from its chambers when first
asked.  ``unfold`` grows a clump in place: it adds the new chambers to the
chamber set and updates the mirror counts, side table, face table and edge
set for them only, so a step costs work in proportion to the chambers it
adds.  The earlier state is not kept.

The sequence of unfoldings from one chamber to a ball is kept as a log: one
``Unfolding`` record per step, holding what the step added and no clump.
The records' new chambers partition the ball less its base chamber, so the
log takes memory in proportion to the ball.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from . import kernel
from .building import Building, syllable_key
from .errors import DomainError, InternalError, SizeCapError


class Side(namedtuple("Side", "gen mirrors")):
    """Maximal type-connected union of boundary mirrors, of one type: its
    generator index ``gen`` and its panel representatives ``mirrors``
    (raw syllable tuples, sorted)."""

    __slots__ = ()

    def __hash__(self):
        # the least mirror names the side; hashing every mirror costs O(|side|)
        return hash((self.gen, self.mirrors[0]))


class Unfolding:
    """What an unfolding added to the clump it grew.

    A plain class: a dataclass would cost a millisecond at every import.
    """

    __slots__ = ("side", "chambers", "lift", "faces", "created", "edges", "sheets")

    def __init__(self, side, lift, faces, created, edges):
        self.side = side  # the side that was unfolded
        self.chambers = frozenset(lift)  # the new chambers
        self.lift = lift  # new chamber -> the old chamber on its side mirror
        self.faces = faces  # face of a new chamber -> the new chambers on it
        self.created = created  # faces of new chambers the old clump lacked
        self.edges = edges  # scwol edges that the old clump lacked
        self.sheets = sheets(self)  # the new chambers' sheets, found once


class _Sides:
    """Boundary mirrors grouped into sides, kept up to date as mirrors change.

    Two boundary mirrors of type g are adjacent when they lie in one
    {g, c}-coset for a type c commuting with g, and a side is a component.
    The coset of a g-mirror is keyed by its representative less its
    right-visible c-syllable: g is never right-visible in a g-panel
    representative, so this is the strip by {g, c}.
    A table that ``unfold`` updates keeps a coset index, ``cosets``, of the
    mirrors ever put in each such coset; a mirror that has left the boundary
    is skipped when read, since a panel never returns to the boundary once it
    has gained chambers.  A clump that is never unfolded has no index: it
    would take more memory than the sides themselves.

    One routine, ``_update_type``, builds a table from nothing and keeps it
    up to date.  It joins *units* numbered 0, 1, ...: first the mirrors it
    must place (new ones, and those of dissolved sides), then each intact
    side it meets, which moves as a whole.  The union-find is a list of
    unit numbers, and each coset key of a mirror is computed once and
    looked up once, mapping it to the first unit that had it.  Chambers are
    tuples of tuples, whose hashes Python does not cache, so this keeps the
    work per mirror to one descent scan and one hash per key, however long
    the representatives grow.
    """

    def __init__(self, building):
        comm = self.comm = building.system.comm
        rank = len(comm)
        self.of_mirror = [{} for _ in range(rank)]  # per type: rep -> Side
        self.by_least = [{} for _ in range(rank)]  # per type: least mirror -> Side
        self.cosets = None  # per type: (pair mask, coset rep) -> reps
        self.pairs = [  # per type g: (c, {g, c} mask) for each c commuting with g
            [(c, (1 << g) | (1 << c)) for c in range(rank) if (comm[g] >> c) & 1]
            for g in range(rank)
        ]

    def _coset_keys(self, g, rep):
        """``(mask, coset rep)`` of the g-mirror ``rep`` for each pair mask."""
        visible = dict(kernel.right_descents(rep, self.comm))
        return [
            (mask, rep if (i := visible.get(c)) is None else rep[:i] + rep[i + 1 :])
            for c, mask in self.pairs[g]
        ]

    def indexed(self):
        """This table, with its coset index built if it had none."""
        if self.cosets is None:
            self.cosets = [{} for _ in self.of_mirror]
            for g, table in enumerate(self.of_mirror):
                index = self.cosets[g]
                for rep in table:
                    for key in self._coset_keys(g, rep):
                        index[key] = index.get(key, ()) + (rep,)
        return self

    def sides(self):
        """Every side, by type and then by least mirror in shortlex order."""
        out = []
        for table in self.by_least:
            least = sorted(table)
            least.sort(key=len)  # stable: shortlex, as syllable_key sorts
            out.extend(map(table.__getitem__, least))
        return out

    def update(self, removed, added):
        """Take the ``removed`` mirrors off the boundary and put ``added`` on.

        Both are (gen, rep) pairs.  Sides that lose a mirror are dissolved.
        Their other mirrors and the added ones are joined again, to each other
        and to the sides they meet; every other side stays as it is.
        """
        gone = [[] for _ in self.of_mirror]
        new = [[] for _ in self.of_mirror]
        for g, rep in removed:
            gone[g].append(rep)
        for g, rep in added:
            new[g].append(rep)
        for g in range(len(new)):
            if gone[g] or new[g]:
                self._update_type(g, gone[g], new[g])

    def _update_type(self, g, removed, added):
        of_mirror = self.of_mirror[g]
        by_least = self.by_least[g]
        index = None if self.cosets is None else self.cosets[g]
        broken = {}  # id -> side, for the sides losing a mirror
        for rep in removed:
            side = of_mirror.pop(rep)
            broken[id(side)] = side
        # units 0 .. fresh - 1 are the added mirrors, fresh .. dirty - 1 the
        # rest of the broken sides, and the intact sides met come after them
        units = list(added)
        fresh = len(units)
        for side in broken.values():
            del by_least[side.mirrors[0]]
            units.extend(m for m in side.mirrors if m in of_mirror)
        dirty = len(units)
        parent = list(range(dirty))
        met = {}  # id of an intact side met -> its unit

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        def join(x, y):
            x, y = find(x), find(y)
            if x != y:
                parent[x] = y

        first = {}  # coset key -> the first unit seen in that coset
        # a type that commutes with no other has no cosets to join along
        for i in range(dirty if self.pairs[g] else 0):
            rep = units[i]
            for key in self._coset_keys(g, rep):
                j = first.setdefault(key, i)
                if j != i:
                    join(i, j)
                    if index is not None and i < fresh:
                        index[key] = index.get(key, ()) + (rep,)
                elif index is not None:
                    # the key's first sighting: meet the sides in its coset
                    known = index.get(key, ())
                    if i < fresh:
                        index[key] = known + (rep,)
                    for other in known:
                        side = of_mirror.get(other)
                        if side is None or id(side) in broken:
                            continue  # off the boundary, or a dirty unit
                        k = met.get(id(side))
                        if k is None:
                            k = met[id(side)] = len(units)
                            units.append(side)
                            parent.append(k)
                        join(i, k)
        groups = [None] * len(units)
        for u in range(len(units)):
            r = find(u)
            if groups[r] is None:
                groups[r] = [u]
            else:
                groups[r].append(u)
        for members in groups:
            if members is None:
                continue
            if len(members) == 1:  # a lone dirty mirror: nothing to sort
                mirrors = (units[members[0]],)
            else:
                reps = []
                for u in members:
                    if u < dirty:
                        reps.append(units[u])
                    else:
                        side = units[u]
                        del by_least[side.mirrors[0]]
                        reps.extend(side.mirrors)
                reps.sort()
                reps.sort(key=len)  # stable: shortlex, as syllable_key sorts
                mirrors = tuple(reps)
            side = Side(g, mirrors)
            by_least[mirrors[0]] = side
            for rep in mirrors:
                of_mirror[rep] = side


class Clump:
    # derived data (_Sides table, sorted sides, scwol, cog), built when asked
    _side_table = _sides = _scwol = _cog = None

    def __init__(self, building: Building, chambers: set, mirror_counts: dict):
        """A clump of ``chambers`` whose panels carry ``mirror_counts``:
        (gen, panel representative) -> the number of its chambers on the
        panel, for every panel of a chamber.  Both are kept as given, not
        copied, and ``unfold`` updates them in place."""
        self.building = building
        self.chambers = chambers
        self._mirror_counts = mirror_counts

    def __len__(self):
        return len(self.chambers)

    def __contains__(self, chamber):
        return chamber in self.chambers

    # -- mirrors and boundary ---------------------------------------------

    def mirror_counts(self):
        """(gen, panel representative) -> number of clump chambers on it."""
        return dict(self._mirror_counts)

    def boundary_mirror_count(self):
        """Number of panels carrying exactly one chamber of the clump."""
        return operator.countOf(self._mirror_counts.values(), 1)

    @property
    def is_whole_building(self):
        """Finite building fully enumerated: no boundary at all."""
        return 1 not in self._mirror_counts.values()

    # -- sides ---------------------------------------------------------------

    def _side_index(self):
        if self._side_table is None:
            self._side_table = _Sides(self.building)
            boundary = [k for k, n in self._mirror_counts.items() if n == 1]
            self._side_table.update((), boundary)
        return self._side_table

    def sides(self):
        """Boundary mirrors split into type-connected components.

        Two boundary panels of type u are adjacent when they lie on a common
        rank-two face, i.e. they have the same {u,c}-coset for some c
        commuting with u.
        """
        if self._sides is None:
            self._sides = self._side_index().sides()
        return self._sides

    def side_of_mirror(self, g, rep):
        """The side holding the boundary mirror, or None."""
        return self._side_index().of_mirror[g].get(rep)

    # -- derived complexes (see rabuild.cog) ----------------------------------

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


def unfold(clump: Clump, side: Side) -> Unfolding:
    """Adjoin every chamber of every panel of the side to the clump, in place,
    and return the step's record.

    The clump's derived data is updated for the new chambers only: one
    descent scan per new chamber for the face table and the edges, panel
    counts from the new chambers' panels, and sides from the mirrors that
    leave or join the boundary.  The face table and edge set are kept under
    a fresh ``Scwol``, so the scwol's sorted views, the sorted sides and the
    complex of groups are dropped and rebuilt when next read.
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
    counts, sides = clump._mirror_counts, clump._side_index().indexed()
    scwol = clump.scwol()
    faces, edges = scwol.face_chambers, scwol.edge_set
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
    clump.chambers.update(lift)
    clump._sides = clump._cog = None
    clump._scwol = Scwol(faces, edges)
    return Unfolding(side, lift, added, created, new_edges)


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
    unfolding along it.  One clump grows in place from the base chamber to
    the ball.  Returns the ball and the log of the sequence, one
    ``Unfolding`` record per step.  Sides
    are processed in canonical order; pass ``rng`` to shuffle them.
    """
    cap = building.chamber_cap
    current = building.ball(0)
    records = []
    for _ in range(n):
        pending = list(current.sides())
        if rng is not None:
            rng.shuffle(pending)
        for orig in pending:
            # the sides now holding its mirrors still on the boundary
            alive = [
                s
                for m in orig.mirrors
                if (s := current.side_of_mirror(orig.gen, m)) is not None
            ]
            if not alive:
                continue
            side = alive[0]
            if any(s is not side for s in alive):
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
            records.append(unfold(current, side))
    return current, records
