import random

import pytest

from rabuild.building import Building
from rabuild.coxeter import CoxeterSystem


def hexagon_system():
    gens = [f"s{i}" for i in range(1, 7)]
    pairs = [(gens[i], gens[(i + 1) % 6]) for i in range(6)]
    return CoxeterSystem(gens, pairs)


def element(gp, pairs):
    """Canonical syllable tuple of a word of (generator name, exponent) pairs."""
    index = gp.system.index
    return gp.norm(tuple((index[s], e) for s, e in pairs))


def serialize_chamber(building, syls):
    """A chamber as a list of [generator name, exponent] pairs, the rows a
    ball cache holds."""
    gens = building.system.generators
    return [[gens[g], e] for g, e in syls]


def inverse_automorphism(h):
    """The inverse of a ball automorphism, chamber by chamber."""
    from rabuild.symmetry import BallAutomorphism

    mapping = {v: k for k, v in h.mapping.items()}
    perm = tuple(map(h.perm.index, range(len(h.perm))))
    return BallAutomorphism(h.clump, mapping, perm)


def automorphism_key(h):
    """A ball automorphism as a hashable value: its type permutation and its
    chamber map."""
    return h.perm, frozenset(h.mapping.items())


def whole_ball_group_table(autos):
    """The group table of ``autos``, found by composing and inverting whole
    chamber maps and looking each result up by value: products by index
    pair, inverses by index, and the identity's index.  The reference the
    quotient's table of type permutations is held to."""
    from rabuild.symmetry import identity_automorphism

    index = {automorphism_key(h): i for i, h in enumerate(autos)}
    comp = {
        (i, j): index[automorphism_key(a.compose(b))]
        for i, a in enumerate(autos)
        for j, b in enumerate(autos)
    }
    inv = [index[automorphism_key(inverse_automorphism(h))] for h in autos]
    identity = index[automorphism_key(identity_automorphism(autos[0].clump))]
    return comp, inv, identity


def nerve_automorphisms(sysm):
    """Every automorphism of the commutation graph, in lexicographic order:
    the full enumeration the rigidity search is held to."""
    from rabuild.symmetry import _commutation_automorphisms

    return list(_commutation_automorphisms(sysm, (0,) * sysm.rank))


def reference_ball_chambers(building, n):
    """The chamber set of the radius-n ball, found by the residue search
    that ``Building.ball_chambers`` replaced: from each chamber of the last
    layer, every chamber of every maximal residue on it.  Each chamber is
    made by ``multiply`` as often as it lies in such a residue.  No cap."""
    current = {()}
    frontier = [()]
    for _ in range(n):
        new = []
        for c in frontier:
            for tmask in building.maximal_masks:
                for x in building.subgroup(tmask):
                    cand = building.gp.mul(c, x)
                    if cand not in current:
                        current.add(cand)
                        new.append(cand)
        frontier = new
    return frozenset(current)


def reference_thin_ball(system, n):
    """The words of W within combinatorial radius n, as tuples of generator
    names in shortlex order, found by the search ``Building.thin_ball``
    replaced: from each word of the last layer, every word of every maximal
    spherical subgroup appended to it, reduced by ``coxeter.reduce``."""
    from rabuild.coxeter import reduce as w_reduce, spherical_poset

    subsets = []
    for t in spherical_poset(system).maximal():
        words = [[]]
        for s in sorted(t, key=system.index.__getitem__):
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
    return sorted(current, key=lambda w: (len(w), [system.index[s] for s in w]))


def reference_apartments(building, n):
    """The chamber sets of the apartment fragments through the base chamber,
    in the order ``apartments_through_base`` gives them, found by the search
    it replaced: each candidate is its first descent's chamber times a
    syllable, and is held to its other descents by ``gp.delta``.  No cap."""
    from rabuild.building import syllable_key
    from rabuild.coxeter import reduce as w_reduce

    sysm = building.system
    gp = building.gp
    ball = building.ball_chambers(n)
    words = reference_thin_ball(sysm, n)
    thin = set(words)
    descents = {}
    for w in words:
        shorter = [(s, w_reduce(sysm, w + (s,))) for s in sysm.generators]
        descents[w] = [(s, v) for s, v in shorter if len(v) < len(w) and v in thin]
    assignment = {(): ()}

    def adjacent(v, s, cand):
        d = gp.delta(assignment[v], cand)
        return len(d) == 1 and d[0][0] == sysm.index[s]

    def candidates(w):
        (s0, v0), *rest = descents[w]
        g0 = sysm.index[s0]
        for e in range(1, gp.qs[g0]):
            cand = gp.mul(assignment[v0], ((g0, e),))
            if cand in ball and all(adjacent(v, s, cand) for s, v in rest):
                yield cand

    results = []
    stack = []
    while True:
        k = len(stack) + 1
        if k < len(words):
            stack.append(candidates(words[k]))
        else:
            results.append(frozenset(assignment.values()))
        while stack:
            cand = next(stack[-1], None)
            if cand is not None:
                assignment[words[len(stack)]] = cand
                break
            stack.pop()
        if not stack:
            break
    results.sort(key=lambda f: tuple(sorted(syllable_key(c) for c in f)))
    return results


def generator_word(system, syls):
    """Image in W of a graph-product element: its generator names in order.

    The generator sequence of a canonical syllable tuple is the canonical
    reduced word of its image, so no rewriting is needed.
    """
    return tuple(system.generators[g] for g, _ in syls)


def corrupted_labeling(bld, seed=17):
    """The radius-1 labeling with one side-type label component shifted.

    Returns the labeling and the corrupted edge; the shift breaks the fiber
    bijection at the edge's terminal face.
    """
    from rabuild.clump import unfold_steps_to_ball
    from rabuild.covering import build_labeling

    final, records = unfold_steps_to_ball(bld, 1)
    lab = build_labeling(final, records)
    u_edges = [
        (e, v)
        for e, v in lab.labels.items()
        if any(v) and bin(e[1][0]).count("1") == 1
    ]
    edge, vec = random.Random(seed).choice(sorted(u_edges))
    g = next(i for i, x in enumerate(vec) if x)
    bad = list(vec)
    bad[g] = (bad[g] + 1) % bld.gp.qs[g]
    lab.labels = dict(lab.labels)
    lab.labels[edge] = tuple(bad)
    return lab, edge


def clumps_along(building, records):
    """Replay an unfolding log on one clump, yielding it after each step.

    The clump starts at the base chamber and ``unfold`` grows it in place,
    so its derived data is carried as in a pipeline.  Every yield is the
    same clump in its next state: read each state before asking for the
    next, and rebuild an earlier one from saved chambers.
    """
    from rabuild.clump import chamber_clump, unfold

    current = chamber_clump(building)
    for grown in records:
        assert unfold(current, grown.side).chambers == grown.chambers
        yield current


def make_suite():
    """Test systems: name, building, and the radius its coverings run to.

    Tree systems (no commuting pairs) go to radius 3, the rest to radius 2.
    """
    hexsys = hexagon_system()
    entries = [
        ("d23", Building(CoxeterSystem(["s", "t"]), {"s": 2, "t": 3}), 3),
        ("d33", Building(CoxeterSystem(["s", "t"]), {"s": 3, "t": 3}), 3),
        (
            "free3",
            Building(CoxeterSystem(["a", "b", "c"]), {"a": 2, "b": 4, "c": 3}),
            3,
        ),
        (
            "square",
            Building(CoxeterSystem(["s", "t"], [("s", "t")]), {"s": 2, "t": 3}),
            2,
        ),
        (
            "mixed",
            Building(
                CoxeterSystem(["a", "b", "c"], [("b", "c")]),
                {"a": 2, "b": 2, "c": 3},
            ),
            2,
        ),
        (
            "path4",
            Building(
                CoxeterSystem(
                    ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
                ),
                {"a": 2, "b": 3, "c": 2, "d": 4},
            ),
            2,
        ),
        ("hex2", Building(hexsys, {g: 2 for g in hexsys.generators}), 2),
        ("hex3", Building(hexsys, {g: 3 for g in hexsys.generators}), 2),
    ]
    return entries


@pytest.fixture(scope="session")
def suite():
    return make_suite()


@pytest.fixture(scope="session")
def suite_traces(suite):
    """Canonical unfolding sequences to each system's test radius: the ball
    and its log of ``Unfolding`` records."""
    from rabuild.clump import unfold_steps_to_ball

    out = {}
    for name, bld, nmax in suite:
        out[name] = unfold_steps_to_ball(bld, nmax)
    return out


@pytest.fixture
def d23():
    return Building(CoxeterSystem(["s", "t"]), {"s": 2, "t": 3})


@pytest.fixture
def d33():
    return Building(CoxeterSystem(["s", "t"]), {"s": 3, "t": 3})


@pytest.fixture
def square23():
    return Building(CoxeterSystem(["s", "t"], [("s", "t")]), {"s": 2, "t": 3})


@pytest.fixture
def hex3():
    sysm = hexagon_system()
    return Building(sysm, {g: 3 for g in sysm.generators})


@pytest.fixture
def tree_product():
    """Product of two trees: four generators, opposite pairs unrelated."""
    sysm = CoxeterSystem(
        ["s1", "s2", "t1", "t2"],
        [("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2")],
    )
    return Building(sysm, {"s1": 2, "s2": 2, "t1": 2, "t2": 2})
