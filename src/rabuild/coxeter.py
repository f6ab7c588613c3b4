"""Right-angled Coxeter systems: word reduction, spherical subsets, nerve.

A system is a finite ordered generating set together with a symmetric
relation map m taking each pair of distinct generators to 2 (commuting) or
infinity (no relation).  Words are tuples of generator names.  An element
of W is its canonical reduced word, a tuple of names (the least shuffle of
any reduced word under the configured generator order), so equality is
tuple comparison.

No pipeline calls ``reduce``, since the thin ball is the heap listing with
every q = 2 (``Building.thin_ball``): it stays as a perfbench tracer target
and as the tests' reference for W.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import kernel
from .errors import InputError, SizeCapError

SPHERICAL_ENUM_CAP = 12


class CoxeterSystem:
    """A right-angled Coxeter presentation (S, m).

    ``generators`` fixes the canonical order.  ``commuting`` lists the
    unordered pairs with m = 2; every other distinct pair has m = infinity.
    """

    def __init__(self, generators, commuting=()):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise InputError(f"duplicate generators in {generators!r}")
        if not generators:
            raise InputError("empty generating set")
        self.generators = generators
        self.index = {s: i for i, s in enumerate(generators)}
        comm = [0] * len(generators)
        for s, t in commuting:
            if s not in self.index or t not in self.index:
                raise InputError(f"relation ({s!r},{t!r}) uses unknown generator")
            if s == t:
                raise InputError(f"relation ({s!r},{s!r}) on a single generator")
            i, j = self.index[s], self.index[t]
            comm[i] |= 1 << j
            comm[j] |= 1 << i
        self.comm = tuple(comm)

    @property
    def rank(self):
        return len(self.generators)

    def commutes(self, s, t):
        i, j = self.index[s], self.index[t]
        return i != j and (self.comm[i] >> j) & 1

    def mask(self, letters):
        m = 0
        for s in letters:
            if s not in self.index:
                raise InputError(f"unknown generator {s!r}")
            m |= 1 << self.index[s]
        return m

    def unmask(self, mask):
        return frozenset(s for s in self.generators if (mask >> self.index[s]) & 1)

    def __repr__(self):
        pairs = sorted(
            (s, t)
            for s, t in itertools.combinations(self.generators, 2)
            if self.commutes(s, t)
        )
        return f"CoxeterSystem({list(self.generators)}, commuting={pairs})"

    # Finiteness: a right-angled W is finite iff every pair of generators
    # commutes, i.e. S itself is spherical.
    def is_finite(self):
        return is_spherical(self, self.generators)


def reduce(sys: CoxeterSystem, word) -> tuple:
    """Canonical reduced word of an arbitrary word over the generators: the
    kernel with every order 2.  No pipeline calls it (see the module
    docstring); it moves into the tests with the next benchmark change."""
    word = tuple(word)
    for s in word:
        if s not in sys.index:
            raise InputError(f"unknown generator {s!r}")
    syls = tuple((sys.index[s], 1) for s in word)
    norm = kernel.normalize(syls, (2,) * sys.rank, sys.comm)
    return tuple(sys.generators[g] for g, _ in norm)


def is_spherical(sys: CoxeterSystem, letters) -> bool:
    """True iff the special subgroup on ``letters`` is finite."""
    letters = list(letters)
    return all(
        sys.commutes(s, t) for s, t in itertools.combinations(set(letters), 2)
    )


@dataclass(frozen=True)
class SphericalPoset:
    """All spherical subsets ordered by inclusion, plus the nerve."""

    system: CoxeterSystem
    subsets: tuple  # frozensets, sorted by (size, member indices); includes empty
    nerve: tuple  # the nonempty subsets, same order

    def maximal(self):
        """Spherical subsets not properly contained in another one."""
        return [t for t in self.subsets if not any(t < u for u in self.subsets)]


def spherical_poset(sys: CoxeterSystem) -> SphericalPoset:
    """Enumerate spherical subsets (cliques of the commutation graph)."""
    if sys.rank > SPHERICAL_ENUM_CAP:
        raise SizeCapError(
            f"rank {sys.rank} exceeds spherical enumeration cap {SPHERICAL_ENUM_CAP}"
        )
    idx = sys.index
    cliques = [frozenset()]
    frontier = [frozenset()]
    while frontier:
        new = []
        for t in frontier:
            start = max((idx[s] for s in t), default=-1)
            for s in sys.generators:
                if idx[s] <= start:
                    continue
                if all(sys.commutes(s, u) for u in t):
                    ext = t | {s}
                    new.append(ext)
        cliques.extend(new)
        frontier = new
    key = lambda t: (len(t), sorted(idx[s] for s in t))
    subsets = tuple(sorted(cliques, key=key))
    nerve = tuple(t for t in subsets if t)
    return SphericalPoset(sys, subsets, nerve)
