"""Graph product of finite cyclic groups over the commutation graph.

Elements are canonical syllable sequences (generator, exponent) with
exponents in [1, q_s); the generator sequence of a canonical element is a
reduced word in the underlying Coxeter group, so forgetting exponents gives
the projection onto W.  These elements double as the chambers of the
building built in :mod:`rabuild.building`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import coxeter, kernel
from .coxeter import CoxeterSystem, WElement
from .errors import InputError


class GraphProduct:
    """The graph product determined by a system and per-generator orders q_s."""

    def __init__(self, system: CoxeterSystem, q):
        self.system = system
        orders = []
        q = dict(q)
        missing = [s for s in system.generators if s not in q]
        if missing:
            raise InputError(f"missing parameters for generators {missing}")
        extra = [s for s in q if s not in system.index]
        if extra:
            raise InputError(f"parameters for unknown generators {extra}")
        for s in system.generators:
            qs = q[s]
            if not isinstance(qs, int) or qs < 2:
                raise InputError(f"parameter q[{s!r}] = {qs!r}, need an integer >= 2")
            orders.append(qs)
        self.qs = tuple(orders)
        self.comm = system.comm

    def q(self, s):
        return self.qs[self.system.index[s]]

    def __eq__(self, other):
        return (
            isinstance(other, GraphProduct)
            and self.system == other.system
            and self.qs == other.qs
        )

    def __hash__(self):
        return hash((self.system, self.qs))

    def __repr__(self):
        qmap = {s: self.qs[i] for i, s in enumerate(self.system.generators)}
        return f"GraphProduct({self.system!r}, q={qmap})"

    # -- raw-tuple arithmetic (hot path; elements as syllable tuples) --

    def mul(self, a, b):
        return kernel.multiply(a, b, self.qs, self.comm)

    def inv(self, a):
        return kernel.inverse(a, self.qs, self.comm)

    def norm(self, word):
        return kernel.normalize(word, self.qs, self.comm)

    def strip(self, a, tmask):
        return kernel.strip_coset(a, tmask, self.qs, self.comm)

    def delta(self, a, b):
        """Syllables of a^-1 b."""
        return self.mul(self.inv(a), b)

    def subgroup_elements(self, tmask):
        """All syllable tuples of the direct-product subgroup on ``tmask``."""
        gens = [g for g in range(len(self.qs)) if (tmask >> g) & 1]
        elems = [()]
        for g in gens:
            elems = [
                e + (((g, k),) if k else ())
                for e in elems
                for k in range(self.qs[g])
            ]
        return [self.norm(e) for e in elems]

    # -- wrapped API --

    def identity(self):
        return ProductElement(self, ())

    def generator(self, s, e=1):
        return self.element([(s, e)])

    def element(self, pairs):
        """Build an element from (generator name, exponent) pairs."""
        syls = []
        for s, e in pairs:
            if s not in self.system.index:
                raise InputError(f"unknown generator {s!r}")
            syls.append((self.system.index[s], e))
        return ProductElement(self, self.norm(tuple(syls)))


@dataclass(frozen=True)
class ProductElement:
    """Normal-form element of the graph product; also a chamber."""

    group: GraphProduct
    syllables: tuple  # ((gen index, exponent), ...), canonical

    def __mul__(self, other):
        return gp_multiply(self.group, self, other)

    def inverse(self):
        return ProductElement(self.group, self.group.inv(self.syllables))

    def is_identity(self):
        return not self.syllables

    def pairs(self):
        """Serialization form: [generator name, exponent] in canonical order."""
        gens = self.group.system.generators
        return [[gens[g], e] for g, e in self.syllables]

    def support(self):
        gens = self.group.system.generators
        return frozenset(gens[g] for g, _ in self.syllables)

    def __len__(self):
        return len(self.syllables)


def gp_multiply(gp: GraphProduct, a: ProductElement, b: ProductElement) -> ProductElement:
    if a.group != gp or b.group != gp:
        raise InputError("elements belong to a different graph product")
    return ProductElement(gp, gp.mul(a.syllables, b.syllables))


def projection_to_W(sys: CoxeterSystem, g: ProductElement) -> WElement:
    """Forget exponents; canonical forms agree, so no rewriting is needed."""
    word = tuple(sys.generators[i] for i, _ in g.syllables)
    return WElement(sys, word)
