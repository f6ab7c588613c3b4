import itertools
import random

import pytest

from rabuild.coxeter import CoxeterSystem, is_spherical, reduce, spherical_poset
from rabuild.errors import InputError, SizeCapError
from tests.conftest import hexagon_system


def test_construction_validation():
    with pytest.raises(InputError):
        CoxeterSystem(["s", "s"])
    with pytest.raises(InputError):
        CoxeterSystem([])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "t"], [("s", "x")])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "t"], [("s", "s")])
    sysm = CoxeterSystem(["s", "t"], [("s", "t")])
    assert sysm.commutes("s", "t")
    assert not sysm.commutes("s", "s")
    free = CoxeterSystem(["s", "t"])
    assert not free.commutes("s", "t")


def test_reduce_deletion():
    sysm = CoxeterSystem(["s", "t"])
    assert reduce(sysm, ["s", "s"]) == ()


def test_reduce_commute_then_delete():
    sysm = CoxeterSystem(["s", "t"], [("s", "t")])
    assert reduce(sysm, ["s", "t", "s"]) == ("t",)


def test_reduce_no_move_applies():
    sysm = CoxeterSystem(["s", "t"])
    assert reduce(sysm, ["s", "t", "s"]) == ("s", "t", "s")


def test_reduce_rejects_unknown_letters():
    sysm = CoxeterSystem(["s", "t"])
    with pytest.raises(InputError):
        reduce(sysm, ["s", "x"])


def test_multiply_examples():
    sysm = CoxeterSystem(["s", "t"], [("s", "t")])
    s = reduce(sysm, ["s"])
    t = reduce(sysm, ["t"])
    assert reduce(sysm, s + s) == ()
    assert reduce(sysm, s + t) == ("s", "t")
    assert reduce(sysm, t + s) == ("s", "t")


def random_word(rng, sysm, length):
    return [rng.choice(sysm.generators) for _ in range(length)]


def test_inverse_law():
    rng = random.Random(3)
    sysm = CoxeterSystem(["a", "b", "c", "d"], [("a", "b"), ("c", "d"), ("b", "c")])
    for _ in range(100):
        w = reduce(sysm, random_word(rng, sysm, rng.randint(0, 9)))
        inverse = reduce(sysm, reversed(w))
        assert reduce(sysm, w + inverse) == ()
        assert reduce(sysm, inverse + w) == ()


def test_support_examples():
    sysm = CoxeterSystem(["s", "t"])
    assert set(reduce(sysm, [])) == set()
    g = reduce(sysm, ["s", "t", "s"])
    assert set(g) == {"s", "t"}


def test_support_contained_in_letters():
    rng = random.Random(5)
    sysm = CoxeterSystem(["a", "b", "c"], [("a", "b")])
    for _ in range(200):
        w = random_word(rng, sysm, rng.randint(0, 10))
        assert set(reduce(sysm, w)) <= set(w)


def test_support_stable_under_padding():
    # inserting cancelling pairs and swapping commuting letters never shrinks
    # the letters below the support of the element
    rng = random.Random(9)
    sysm = CoxeterSystem(["a", "b", "c"], [("a", "c")])
    for _ in range(100):
        w = random_word(rng, sysm, rng.randint(1, 6))
        g = reduce(sysm, w)
        padded = list(w)
        for _ in range(6):
            k = rng.randrange(len(padded) + 1)
            s = rng.choice(sysm.generators)
            padded[k:k] = [s, s]
        for _ in range(10):
            k = rng.randrange(len(padded) - 1)
            a, b = padded[k], padded[k + 1]
            if a != b and sysm.commutes(a, b):
                padded[k], padded[k + 1] = b, a
        assert reduce(sysm, padded) == g
        assert set(g) <= set(padded)


def test_confluence_under_random_moves():
    # applying legal moves anywhere must not change the canonical form
    rng = random.Random(21)
    sysm = CoxeterSystem(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")])
    for _ in range(150):
        w = random_word(rng, sysm, rng.randint(0, 10))
        target = reduce(sysm, w)
        cur = list(w)
        for _ in range(12):
            move = rng.choice(["insert", "swap", "delete"])
            if move == "insert":
                k = rng.randrange(len(cur) + 1)
                s = rng.choice(sysm.generators)
                cur[k:k] = [s, s]
            elif move == "delete":
                for k in range(len(cur) - 1):
                    if cur[k] == cur[k + 1]:
                        del cur[k : k + 2]
                        break
            else:
                if len(cur) >= 2:
                    k = rng.randrange(len(cur) - 1)
                    a, b = cur[k], cur[k + 1]
                    if a != b and sysm.commutes(a, b):
                        cur[k], cur[k + 1] = b, a
            assert reduce(sysm, cur) == target


def test_length_monotone():
    rng = random.Random(23)
    sysm = CoxeterSystem(["a", "b", "c"], [("b", "c")])
    for _ in range(200):
        w = random_word(rng, sysm, rng.randint(0, 8))
        g = reduce(sysm, w)
        assert len(g) <= len(w)
        assert reduce(sysm, g) == g


def test_is_spherical_basics():
    sysm = CoxeterSystem(["s", "t", "u"], [("s", "t")])
    assert is_spherical(sysm, [])
    assert is_spherical(sysm, ["s", "t"])
    assert not is_spherical(sysm, ["s", "u"])


def test_infinite_pair_by_growth():
    # oracle: the subgroup on a non-commuting pair keeps producing new
    # elements at every radius (infinite dihedral), so it is not finite
    sysm = CoxeterSystem(["s", "t"])
    elements = {()}
    frontier = [()]
    for _ in range(6):
        new = []
        for w in frontier:
            for s in sysm.generators:
                cand = reduce(sysm, w + (s,))
                if cand not in elements:
                    elements.add(cand)
                    new.append(cand)
        assert new, "growth stopped: the pair would be spherical"
        frontier = new
    assert len(elements) == 13  # 1 + 2 per length up to 6
    assert not is_spherical(sysm, ["s", "t"])


def enumerate_special_subgroup(sysm, letters, cap=64):
    elements = {()}
    frontier = [()]
    while frontier and len(elements) <= cap:
        new = []
        for w in frontier:
            for s in letters:
                cand = reduce(sysm, w + (s,))
                if cand not in elements:
                    elements.add(cand)
                    new.append(cand)
        frontier = new
    return elements


def test_is_spherical_matches_enumeration():
    # a right-angled special subgroup on k letters is finite iff it closes
    # at 2^k elements
    rng = random.Random(31)
    for _ in range(20):
        rank = rng.randint(2, 5)
        names = [f"g{i}" for i in range(rank)]
        pairs = [
            (a, b)
            for a, b in itertools.combinations(names, 2)
            if rng.random() < 0.5
        ]
        sysm = CoxeterSystem(names, pairs)
        for size in range(0, 5):
            for letters in itertools.combinations(names, min(size, rank)):
                closure = enumerate_special_subgroup(sysm, letters)
                finite = len(closure) == 2 ** len(letters)
                assert is_spherical(sysm, letters) == finite


def test_spherical_poset_free_product():
    sysm = CoxeterSystem(["s1", "s2", "s3"])
    poset = spherical_poset(sysm)
    assert [sorted(t) for t in poset.nerve] == [["s1"], ["s2"], ["s3"]]


def test_spherical_poset_vertex_plus_edge():
    sysm = CoxeterSystem(["s1", "s2", "s3"], [("s2", "s3")])
    poset = spherical_poset(sysm)
    assert [sorted(t) for t in poset.nerve] == [
        ["s1"],
        ["s2"],
        ["s3"],
        ["s2", "s3"],
    ]


def test_spherical_poset_hexagon():
    sysm = hexagon_system()
    poset = spherical_poset(sysm)
    vertices = [t for t in poset.nerve if len(t) == 1]
    edges = [t for t in poset.nerve if len(t) == 2]
    assert len(vertices) == 6 and len(edges) == 6
    assert not [t for t in poset.nerve if len(t) > 2]
    graph_edges = [
        pair for pair in itertools.combinations(sysm.generators, 2) if sysm.commutes(*pair)
    ]
    assert len(graph_edges) == 6


def test_spherical_poset_cap():
    names = [f"x{i}" for i in range(13)]
    sysm = CoxeterSystem(names)
    with pytest.raises(SizeCapError):
        spherical_poset(sysm)


def test_finiteness():
    assert CoxeterSystem(["s", "t"], [("s", "t")]).is_finite()
    assert not CoxeterSystem(["s", "t"]).is_finite()
    assert not hexagon_system().is_finite()
