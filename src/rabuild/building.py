"""The regular right-angled building as a chamber system.

Chambers are canonical graph-product elements, stored as syllable tuples;
a face of spherical type T is the right coset of the T-subgroup containing
a chamber, stored as ``(type_mask, least element)``.  The W-distance from a
to b is the generator word of ``gp.delta(a, b)``.  Residues are computed
through the syllable kernel, and balls listed as syllable heaps; nothing
geometric is ever materialized.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

from . import coxeter
from .coxeter import CoxeterSystem
from .errors import DomainError, InputError, SizeCapError
from .graphprod import GraphProduct

DEFAULT_CHAMBER_CAP = 200_000


def syllable_key(syls):
    """Shortlex sort key for canonical syllable tuples."""
    return (len(syls), syls)


def face_key(face):
    tmask, rep = face
    return (bin(tmask).count("1"), tmask, syllable_key(rep))


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
        self._thin_cache = {}

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
            self._refuse_over_cap(tmask)
            got = tuple(
                sorted(self.gp.subgroup_elements(tmask), key=syllable_key)
            )
            self._subgroup_cache[tmask] = got
        return got

    def _refuse_over_cap(self, tmask):
        order = math.prod(q for g, q in enumerate(self.gp.qs) if (tmask >> g) & 1)
        if order > self.chamber_cap:
            raise SizeCapError(
                f"subgroup of type {sorted(self.system.unmask(tmask))} has "
                f"order {order}, over the chamber cap {self.chamber_cap}"
            )

    def face_of(self, chamber, tmask):
        if not self.is_spherical_mask(tmask):
            raise DomainError(
                f"type {sorted(self.system.unmask(tmask))} is not spherical"
            )
        return (tmask, self.gp.strip(chamber, tmask))

    def residue_chambers(self, face):
        tmask, rep = face
        return [self.gp.mul(rep, x) for x in self.subgroup(tmask)]

    def _heaps(self, n, thin=False):
        """The radius-n ball, each chamber once, in shortlex order: groups
        ``(words, descents, nxt)`` of words sharing a parent and a last
        generator, ``descents`` the mask of their right-visible generators
        and ``nxt[g]`` the layer a g-syllable appended to them would take.

        A canonical word's heap orders its syllables by dependence (equal or
        non-commuting generators); a syllable's layer is one more than the
        largest below it, and the word's height is its top layer.

        Lemma 1: radius is height.  A layer's syllables are independent, so
        lie in one spherical subgroup: radius <= height.  Right-multiplying
        by an element of one merges or deletes right-visible syllables and
        adds independent ones at most one layer higher: height <= radius.

        Lemma 2: for g not right-visible in the canonical w, w (g, e) is
        canonical as written iff no syllable after w's last one depending on
        g has a generator >= g (``kernel._append`` then puts it last); the
        mask ``allowed`` carries this.  The last syllable of a canonical word
        is right-visible, and deleting one keeps the word canonical and
        lowers no layer, so the ball is prefix-closed and each word is
        listed once, from its prefix.

        Lemma 3: deleting a right-visible syllable keeps a word in the ball,
        so a g-panel of a ball chamber c holds q_g ball chambers if g is a
        descent of c (they share c's heap shape) or ``nxt[g] <= n``, else c
        alone.  Each chamber is adjacent to its prefix: the ball is
        gallery-connected.

        With ``thin``, each move lists one child, exponent 1, as if every q
        were 2: the heap shapes do not read q, so this is the thin ball.
        """
        qs, comm = self.gp.qs, self.gp.comm
        full = (1 << len(qs)) - 1
        if n and not thin:
            for tmask in self.maximal_masks:
                self._refuse_over_cap(tmask)
        count, tails = 1, {}
        level = [((), [()], full, 0, (1,) * len(qs))]
        while level:
            below, level = level, []
            for parent, tail, allowed, descents, nxt in below:
                words = [parent + t for t in tail]
                yield words, descents, nxt
                moves = []
                for g, top in enumerate(nxt):
                    if (allowed >> g) & 1 and top <= n:
                        cg = comm[g]
                        moves.append((g, 1 if thin else qs[g] - 1, (
                            full & ~cg & ~(1 << g) | allowed & cg & -(2 << g),
                            descents & cg | 1 << g,
                            tuple(x if (cg >> h) & 1 or x > top else top + 1
                                  for h, x in enumerate(nxt)),
                        )))
                for w in words:
                    for g, k, state in moves:
                        count += k  # checked before the children are listed
                        if count > self.chamber_cap:
                            raise SizeCapError(
                                f"ball enumeration exceeded chamber cap "
                                f"{self.chamber_cap}", partial_count=count)
                        kids = tails.get(g) or tails.setdefault(
                            g, [((g, e),) for e in range(1, k + 1)])
                        level.append((w, kids, *state))

    def ball_chambers(self, n):
        """Chamber set of the combinatorial ball of radius n (raw tuples)."""
        return frozenset(c for words, _, _ in self._heaps(n) for c in words)

    def thin_ball(self, n):
        """W's radius-n ball, kept per radius: its canonical words as syllable
        tuples of exponent 1, in shortlex order.  A chamber lies over the
        word of its generator sequence, its image in W."""
        got = self._thin_cache.get(n)
        if got is None:
            got = self._thin_cache[n] = tuple(
                w for words, _, _ in self._heaps(n, thin=True) for w in words
            )
        return got

    def ball(self, n):
        """Combinatorial ball of radius n, as a clump."""
        from .clump import Clump

        return Clump._of_heaps(self, n)

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

    def deserialize_chamber(self, pairs):
        """The chamber of a list of [generator name, exponent] pairs, as a
        ball cache stores it; the pairs must be in normal form.

        Each pair is a known generator name and an ``int`` exponent in
        [1, q); the syllables must be canonical as they stand.  That is
        checked in one scan: each syllable looks left across the syllables
        that commute with its generator.  Meeting its own generator there
        means the word is not reduced, and meeting a larger one means a
        shuffle puts it earlier, so the word is not the least.  The scans
        for one generator cover disjoint stretches, since each stops at the
        previous syllable of that generator, so the check is linear.
        """
        index = self.system.index
        qs = self.gp.qs
        comm = self.gp.comm
        syls = []
        for s, e in pairs:
            g = index.get(s)
            if g is None:
                raise InputError(f"unknown generator {s!r}")
            if type(e) is not int:
                raise InputError(f"exponent {e!r} is not an integer")
            if not 0 < e < qs[g]:
                raise InputError(f"exponent {e} of {s!r} is not in [1, {qs[g]})")
            cg = comm[g]
            for h, _ in reversed(syls):
                if h != g and not (cg >> h) & 1:
                    break  # g cannot pass h
                if h >= g:  # g itself, or a larger generator that g passes
                    raise InputError(f"chamber {pairs!r} is not in normal form")
            syls.append((g, e))
        return tuple(syls)

    def __repr__(self):
        return f"Building({self.config_dict()})"


def save_ball_cache(path, building: Building, n: int, chambers):
    """Byte-stable cache of a ball's chamber list.

    The bytes are those of ``json.dump(data, fh, sort_keys=True, indent=1)``
    and a newline, where ``data`` holds ``config``, ``config_hash``,
    ``radius`` and ``chambers`` (each chamber as its list of [generator
    name, exponent] pairs, in shortlex order; a ball always holds the
    identity, so the list is never empty).  ``json.dump`` with an indent
    always runs the pure-Python encoder, so the chamber rows are joined here
    from one string per distinct syllable, laid out as that encoder lays
    them out at their depth; ``json.dumps`` writes only the small header.
    """
    names = [json.dumps(s) for s in building.system.generators]
    syllable_text = {
        (g, e): f"   [\n    {names[g]},\n    {e}\n   ]"
        for g, e in set(itertools.chain.from_iterable(chambers))
    }
    rows = ",\n".join(
        "  [\n" + ",\n".join(map(syllable_text.__getitem__, c)) + "\n  ]"
        if c
        else "  []"
        for c in sorted(chambers, key=syllable_key)
    )
    header = json.dumps(
        {
            "config": building.config_dict(),
            "config_hash": building.config_hash(),
            "radius": n,
        },
        sort_keys=True,
        indent=1,
    )
    try:
        with open(path, "w") as fh:
            # "chambers" sorts before the header's keys, whose "{\n" is cut
            fh.write('{\n "chambers": [\n')
            fh.write(rows)
            fh.write("\n ],\n" + header[2:] + "\n")
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
    radius = data["radius"]
    if type(radius) is not int or radius < 0:
        raise InputError(f"ball cache radius {radius!r} is not an integer >= 0")
    return radius, chambers
