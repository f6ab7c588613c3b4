import random

import pytest

from rabuild.coxeter import CoxeterSystem, reduce
from rabuild.errors import InputError
from rabuild.graphprod import GraphProduct
from tests.conftest import (
    element,
    generator_word,
    reference_thin_ball,
    serialize_chamber,
)


@pytest.fixture
def gp23():
    return GraphProduct(CoxeterSystem(["s", "t"]), {"s": 2, "t": 3})


@pytest.fixture
def gp_comm():
    return GraphProduct(
        CoxeterSystem(["s", "t"], [("s", "t")]), {"s": 3, "t": 2}
    )


def test_parameter_validation():
    sysm = CoxeterSystem(["s", "t"])
    with pytest.raises(InputError):
        GraphProduct(sysm, {"s": 2})
    with pytest.raises(InputError):
        GraphProduct(sysm, {"s": 2, "t": 1})
    with pytest.raises(InputError):
        GraphProduct(sysm, {"s": 2, "t": 3, "u": 2})


def test_order_two_syllable(gp23):
    s = element(gp23, [("s", 1)])
    assert gp23.mul(s, s) == ()


def test_commuting_collection(gp_comm):
    s = element(gp_comm, [("s", 1)])
    t = element(gp_comm, [("t", 1)])
    prod = gp_comm.mul(gp_comm.mul(s, t), s)
    assert prod == ((0, 2), (1, 1))


def test_inverse_random(gp23):
    rng = random.Random(2)
    for _ in range(100):
        word = [
            ("s", 1) if rng.random() < 0.5 else ("t", rng.randint(1, 2))
            for _ in range(rng.randint(0, 8))
        ]
        g = element(gp23, word)
        assert gp23.mul(g, gp23.inv(g)) == ()


def random_element(rng, gp, length=6):
    names = gp.system.generators
    word = []
    for _ in range(rng.randint(0, length)):
        s = rng.choice(names)
        word.append((s, rng.randint(1, gp.q(s) - 1)))
    return element(gp, word)


def test_associativity_random():
    rng = random.Random(4)
    sysm = CoxeterSystem(["a", "b", "c"], [("a", "b")])
    gp = GraphProduct(sysm, {"a": 2, "b": 3, "c": 4})
    for _ in range(150):
        x, y, z = (random_element(rng, gp) for _ in range(3))
        assert gp.mul(gp.mul(x, y), z) == gp.mul(x, gp.mul(y, z))


def test_canonical_equality_iff_quotient_trivial():
    rng = random.Random(6)
    sysm = CoxeterSystem(["a", "b", "c"], [("b", "c")])
    gp = GraphProduct(sysm, {"a": 2, "b": 2, "c": 3})
    for _ in range(150):
        x, y = (random_element(rng, gp) for _ in range(2))
        same = gp.mul(gp.inv(x), y) == ()
        assert same == (x == y)


def test_projection_examples(gp23):
    sysm = gp23.system
    assert generator_word(sysm, ()) == ()
    t2 = element(gp23, [("t", 2)])
    assert generator_word(sysm, t2) == ("t",)
    g = element(gp23, [("s", 1), ("t", 1), ("s", 1)])
    assert generator_word(sysm, g) == ("s", "t", "s")


def test_projection_is_reduced_and_canonical():
    # the generator sequence of a canonical element is itself canonical
    rng = random.Random(8)
    sysm = CoxeterSystem(["a", "b", "c", "d"], [("a", "b"), ("c", "d"), ("b", "d")])
    gp = GraphProduct(sysm, {"a": 3, "b": 2, "c": 4, "d": 2})
    for _ in range(200):
        g = random_element(rng, gp, 8)
        w = generator_word(sysm, g)
        assert reduce(sysm, w) == w


def test_davis_specialization_bijective_on_balls():
    # with every order equal to 2 the projection is an isomorphism
    from rabuild.building import Building

    sysm = CoxeterSystem(["a", "b", "c"], [("a", "b")])
    bld = Building(sysm, {"a": 2, "b": 2, "c": 2})
    for n in range(5):
        chambers = bld.ball_chambers(n)
        words = {generator_word(sysm, c) for c in chambers}
        assert len(words) == len(chambers)
        assert words == set(reference_thin_ball(sysm, n))


def test_davis_specialization_homomorphism():
    rng = random.Random(10)
    sysm = CoxeterSystem(["a", "b", "c"], [("b", "c")])
    gp = GraphProduct(sysm, {"a": 2, "b": 2, "c": 2})
    for _ in range(150):
        x, y = (random_element(rng, gp) for _ in range(2))
        lhs = generator_word(sysm, gp.mul(x, y))
        rhs = reduce(sysm, generator_word(sysm, x) + generator_word(sysm, y))
        assert lhs == rhs


def test_serialization_round_trip(gp23):
    from rabuild.building import Building

    bld = Building(gp23.system, {"s": 2, "t": 3})
    rng = random.Random(14)
    for _ in range(50):
        g = random_element(rng, gp23)
        pairs = serialize_chamber(bld, g)
        assert bld.deserialize_chamber(pairs) == g
        assert element(gp23, pairs) == g
