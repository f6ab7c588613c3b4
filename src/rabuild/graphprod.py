"""Graph product of finite cyclic groups over the commutation graph.

Elements are canonical syllable tuples ``((generator index, exponent), ...)``
with exponents in [1, q_s).  The generator sequence of a canonical element
is the canonical reduced word of its image in the Coxeter group, so the
projection onto W forgets the exponents and needs no rewriting.  These
tuples double as the chambers of the building in :mod:`rabuild.building`.
"""

from __future__ import annotations

from . import kernel
from .coxeter import CoxeterSystem
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

    def __repr__(self):
        qmap = {s: self.qs[i] for i, s in enumerate(self.system.generators)}
        return f"GraphProduct({self.system!r}, q={qmap})"

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
