import random

import pytest

from rabuild.building import Building
from rabuild.coxeter import CoxeterSystem


def hexagon_system():
    gens = [f"s{i}" for i in range(1, 7)]
    pairs = [(gens[i], gens[(i + 1) % 6]) for i in range(6)]
    return CoxeterSystem(gens, pairs)


def corrupted_labeling(bld, seed=17):
    """The radius-1 labeling with one side-type label component shifted.

    Returns the labeling and the corrupted edge; the shift breaks the fiber
    bijection at the edge's terminal face.
    """
    from rabuild.clump import unfold_steps_to_ball
    from rabuild.covering import build_labeling

    final, steps = unfold_steps_to_ball(bld, 1)
    lab = build_labeling(bld, steps)
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
    """Canonical unfolding sequences to each system's test radius."""
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
