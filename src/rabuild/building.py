"""The regular right-angled building as a chamber system.

Chambers are canonical graph-product elements; a face of spherical type T
is the right coset of the T-subgroup containing a chamber, keyed by its
least element.  Galleries, W-distance, residues and combinatorial balls
are all computed through the syllable kernel; nothing geometric is ever
materialized.

Internally chambers travel as raw syllable tuples and faces as
``(type_mask, representative)`` pairs; the dataclass wrappers appear at the
public API.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from . import coxeter
from .coxeter import CoxeterSystem, WElement
from .errors import DomainError, InputError, SizeCapError
from .graphprod import GraphProduct, ProductElement, projection_to_W

DEFAULT_CHAMBER_CAP = 200_000


def syllable_key(syls):
    """Shortlex sort key for canonical syllable tuples."""
    return (len(syls), syls)


def face_key(face):
    tmask, rep = face
    return (bin(tmask).count("1"), tmask, syllable_key(rep))


@dataclass(frozen=True)
class Face:
    """Spherical residue: the chambers sharing one face of the building."""

    building: "Building"
    tmask: int
    rep: tuple

    @property
    def types(self):
        return self.building.system.unmask(self.tmask)

    def chambers(self):
        return [
            ProductElement(self.building.gp, c)
            for c in self.building.residue_chambers((self.tmask, self.rep))
        ]


@dataclass(frozen=True)
class Gallery:
    chambers: tuple  # ProductElement sequence
    type_word: tuple  # generator names


class Building:
    """Chamber system of given type and parameters."""

    def __init__(self, system: CoxeterSystem, q, chamber_cap: int = DEFAULT_CHAMBER_CAP):
        self.system = system
        self.gp = GraphProduct(system, q)
        self.chamber_cap = chamber_cap
        self.poset = coxeter.spherical_poset(system)
        self.spherical_masks = tuple(system.mask(t) for t in self.poset.subsets)
        self.maximal_masks = tuple(system.mask(t) for t in self.poset.maximal())
        self._spherical_set = frozenset(self.spherical_masks)
        self._subgroup_cache = {}

    # -- raw helpers ----------------------------------------------------

    def is_spherical_mask(self, mask):
        return mask in self._spherical_set

    def subgroup(self, tmask):
        """Elements of G_T, cached per type mask.

        A subgroup with more elements than the chamber cap is refused before
        any element is built.  The radius-1 ball holds every maximal residue
        at the base chamber, so such a subgroup never fits in a capped ball.
        """
        got = self._subgroup_cache.get(tmask)
        if got is None:
            order = math.prod(
                q for g, q in enumerate(self.gp.qs) if (tmask >> g) & 1
            )
            if order > self.chamber_cap:
                raise SizeCapError(
                    f"subgroup of type {sorted(self.system.unmask(tmask))} has "
                    f"order {order}, over the chamber cap {self.chamber_cap}"
                )
            got = tuple(
                sorted(self.gp.subgroup_elements(tmask), key=syllable_key)
            )
            self._subgroup_cache[tmask] = got
        return got

    def face_of(self, chamber, tmask):
        if not self.is_spherical_mask(tmask):
            raise DomainError(
                f"type {sorted(self.system.unmask(tmask))} is not spherical"
            )
        return (tmask, self.gp.strip(chamber, tmask))

    def residue_chambers(self, face):
        tmask, rep = face
        return [self.gp.mul(rep, x) for x in self.subgroup(tmask)]

    def adjacency_type(self, a, b):
        """Generator index if the chambers are adjacent, else None."""
        d = self.gp.delta(a, b)
        if len(d) == 1:
            return d[0][0]
        return None

    def ball_chambers(self, n, cap=None):
        """Chamber set of the combinatorial ball of radius n (raw tuples)."""
        cap = self.chamber_cap if cap is None else cap
        current = {()}
        frontier = [()]
        for _ in range(n):
            new = []
            for c in frontier:
                for tmask in self.maximal_masks:
                    for x in self.subgroup(tmask):
                        cand = self.gp.mul(c, x)
                        if cand not in current:
                            current.add(cand)
                            new.append(cand)
                if len(current) > cap:
                    raise SizeCapError(
                        f"ball enumeration exceeded chamber cap {cap}",
                        partial_count=len(current),
                    )
            frontier = new
            if not frontier:
                break
        return frozenset(current)

    # -- public chamber operations --------------------------------------

    def identity_chamber(self):
        return self.gp.identity()

    def chamber(self, pairs):
        return self.gp.element(pairs)

    def w_distance(self, a: ProductElement, b: ProductElement) -> WElement:
        if a.group != self.gp or b.group != self.gp:
            raise InputError("chambers belong to a different building")
        d = ProductElement(self.gp, self.gp.delta(a.syllables, b.syllables))
        return projection_to_W(self.system, d)

    def s_adjacent(self, a: ProductElement, b: ProductElement, s) -> bool:
        if s not in self.system.index:
            raise InputError(f"unknown generator {s!r}")
        d = self.gp.delta(a.syllables, b.syllables)
        return len(d) == 1 and d[0][0] == self.system.index[s]

    def face(self, chamber: ProductElement, types) -> Face:
        tmask = self.system.mask(types)
        f = self.face_of(chamber.syllables, tmask)
        return Face(self, f[0], f[1])

    def intersects(self, a: ProductElement, b: ProductElement) -> bool:
        """True iff the chambers share a face (spherical separation)."""
        d = self.gp.delta(a.syllables, b.syllables)
        mask = 0
        for g, _ in d:
            mask |= 1 << g
        return self.is_spherical_mask(mask)

    def ball(self, n, cap=None):
        """Combinatorial ball of radius n, as a clump."""
        from .clump import Clump

        chambers = self.ball_chambers(n, cap=cap)
        return Clump(self, chambers)

    def minimal_gallery(self, a: ProductElement, b: ProductElement) -> Gallery:
        """Gallery from a to b whose type is the canonical word of delta(a,b)."""
        d = self.gp.delta(a.syllables, b.syllables)
        chambers = [a]
        word = []
        cur = a.syllables
        for g, e in d:
            cur = self.gp.mul(cur, ((g, e),))
            chambers.append(ProductElement(self.gp, cur))
            word.append(self.system.generators[g])
        return Gallery(tuple(chambers), tuple(word))

    # -- serialization ---------------------------------------------------

    def config_dict(self):
        sysm = self.system
        return {
            "generators": list(sysm.generators),
            "relations": sorted(
                [s, t]
                for i, s in enumerate(sysm.generators)
                for t in sysm.generators[i + 1 :]
                if sysm.commutes(s, t)
            ),
            "parameters": {s: self.gp.q(s) for s in sysm.generators},
        }

    def config_hash(self):
        blob = json.dumps(self.config_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def serialize_chamber(self, syls):
        gens = self.system.generators
        return [[gens[g], e] for g, e in syls]

    def deserialize_chamber(self, pairs):
        return self.gp.element(pairs).syllables

    def __repr__(self):
        return f"Building({self.config_dict()})"


def save_ball_cache(path, building: Building, n: int, chambers):
    """Byte-stable cache of a ball's chamber list."""
    data = {
        "config": building.config_dict(),
        "config_hash": building.config_hash(),
        "radius": n,
        "chambers": [
            building.serialize_chamber(c)
            for c in sorted(chambers, key=syllable_key)
        ],
    }
    try:
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write ball cache {path!r}: {exc}") from exc


def load_ball_cache(path, building: Building):
    """(radius, chambers) from a file written by save_ball_cache."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read ball cache {path!r}: {exc}") from exc
    if not isinstance(data, dict) or not {"config_hash", "radius", "chambers"} <= set(data):
        raise InputError(f"{path!r} is not a ball cache")
    if data["config_hash"] != building.config_hash():
        raise InputError("ball cache was generated for a different configuration")
    try:
        chambers = frozenset(
            building.deserialize_chamber(pairs) for pairs in data["chambers"]
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed chamber in ball cache {path!r}: {exc}") from exc
    return data["radius"], chambers
