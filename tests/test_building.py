import io
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabuild.building import Building, load_ball_cache, save_ball_cache, syllable_key
from rabuild.cli import load_config
from rabuild.coxeter import CoxeterSystem, reduce as w_reduce
from rabuild.errors import DomainError, InputError, SizeCapError
from tests.conftest import (
    element,
    generator_word,
    make_suite,
    reference_ball_chambers,
    reference_clump,
    reference_thin_ball,
    serialize_chamber,
)
from tests.test_kernel import reference_normalize

CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.json"))


def elem(bld, pairs):
    return element(bld.gp, pairs)


def distance_word(bld, a, b):
    """W-distance from chamber a to chamber b, as a canonical word."""
    return generator_word(bld.system, bld.gp.delta(a, b))


def shares_face(bld, a, b):
    """Chambers share a face iff the support of a^-1 b is spherical."""
    mask = 0
    for g, _ in bld.gp.delta(a, b):
        mask |= 1 << g
    return bld.is_spherical_mask(mask)


def test_delta_word_examples(d23):
    g = elem(d23, [("t", 2), ("s", 1)])
    assert distance_word(d23, g, g) == ()
    assert distance_word(d23, (), elem(d23, [("s", 1)])) == ("s",)


def test_delta_word_symmetry(d23):
    rng = random.Random(1)
    chambers = sorted(d23.ball_chambers(2))
    for _ in range(60):
        a = rng.choice(chambers)
        b = rng.choice(chambers)
        back = distance_word(d23, b, a)
        assert distance_word(d23, a, b) == w_reduce(d23.system, reversed(back))


def test_davis_distance_is_group_division():
    sysm = CoxeterSystem(["a", "b", "c"], [("a", "b")])
    bld = Building(sysm, {"a": 2, "b": 2, "c": 2})
    rng = random.Random(2)
    chambers = sorted(bld.ball_chambers(2))
    for _ in range(80):
        a = rng.choice(chambers)
        b = rng.choice(chambers)
        lhs = distance_word(bld, a, b)
        rhs = w_reduce(
            sysm, tuple(reversed(generator_word(sysm, a))) + generator_word(sysm, b)
        )
        assert lhs == rhs


def test_panel_adjacency_examples(d23):
    # a and b are s-adjacent iff a^-1 b is one syllable of generator s
    s = elem(d23, [("s", 1)])
    st = elem(d23, [("s", 1), ("t", 1)])
    assert d23.gp.delta((), s) == ((0, 1),)
    assert d23.gp.delta((), st) == ((0, 1), (1, 1))
    assert d23.gp.delta(st, st) == ()
    with pytest.raises(InputError):
        d23.deserialize_chamber([["x", 1]])


def test_panel_sizes(d23):
    rng = random.Random(3)
    chambers = sorted(d23.ball_chambers(2))
    for _ in range(30):
        c = rng.choice(chambers)
        for s in d23.system.generators:
            panel = {
                d for d in d23.residue_chambers(d23.face_of(c, d23.system.mask([s])))
            }
            assert len(panel) == d23.gp.q(s)
            assert c in panel


def test_face_examples(square23):
    s = elem(square23, [("s", 1)])
    smask = square23.system.mask(["s"])
    assert square23.face_of((), 0) == (0, ())
    assert square23.face_of(s, smask) == square23.face_of((), smask)
    free = Building(CoxeterSystem(["s", "t"]), {"s": 2, "t": 2})
    with pytest.raises(DomainError):
        free.face_of((), free.system.mask(["s", "t"]))


def test_face_residue_size_oracle(square23):
    # oracle: close the coset under single-generator multiplication
    bld = square23
    for letters in ([], ["s"], ["t"], ["s", "t"]):
        face = bld.face_of((), bld.system.mask(letters))
        closure = {()}
        frontier = [()]
        while frontier:
            c = frontier.pop()
            for g in (bld.system.index[x] for x in letters):
                for e in range(1, bld.gp.qs[g]):
                    nb = bld.gp.mul(c, ((g, e),))
                    if nb not in closure:
                        closure.add(nb)
                        frontier.append(nb)
        assert set(bld.residue_chambers(face)) == closure
        expected = 1
        for x in letters:
            expected *= bld.gp.q(x)
        assert len(closure) == expected


def test_intersects(d23, square23):
    st = elem(d23, [("s", 1), ("t", 1)])
    assert shares_face(d23, (), ())
    assert not shares_face(d23, (), st)
    stc = elem(square23, [("s", 1), ("t", 1)])
    assert shares_face(square23, (), stc)


def test_intersects_brute_force_oracle(d23):
    # two chambers share a face iff some spherical coset contains both
    bld = d23
    chambers = sorted(bld.ball_chambers(2))
    rng = random.Random(4)
    for _ in range(40):
        a = rng.choice(chambers)
        b = rng.choice(chambers)
        shared = False
        for tmask in bld.spherical_masks:
            if bld.gp.strip(a, tmask) == bld.gp.strip(b, tmask):
                shared = True
        got = shares_face(bld, a, b)
        assert got == shared


def test_ball_examples(d23, square23):
    assert len(d23.ball_chambers(0)) == 1
    b1 = d23.ball_chambers(1)
    assert {serialize_chamber(d23, c)[0][0] if c else "1" for c in b1} == {
        "1",
        "s",
        "t",
    }
    assert len(b1) == 4
    assert len(square23.ball_chambers(1)) == 6  # whole finite building
    assert len(square23.ball_chambers(2)) == 6


def test_ball_closure_property(d23):
    # the ball is exactly the chambers meeting the previous ball
    for n in (1, 2, 3):
        prev = d23.ball_chambers(n - 1)
        cur = d23.ball_chambers(n)
        for c in cur:
            assert any(shares_face(d23, c, p) for p in prev)
        # nothing missing: any chamber adjacent to prev is in cur
        for p in prev:
            for tmask in d23.maximal_masks:
                for x in d23.subgroup(tmask):
                    assert d23.gp.mul(p, x) in cur


def test_ball_is_gallery_connected(d23):
    # the walk from panel to panel asserts that it reaches every chamber
    reference_clump(d23, d23.ball_chambers(2))


def test_panel_partition_of_ball(d23, hex3):
    # panels partition a ball's chambers into cells of size at most q_s,
    # exactly q_s when the whole panel lies inside
    for bld, n in ((d23, 2), (hex3, 1)):
        ball = bld.ball_chambers(n)
        for g in range(len(bld.gp.qs)):
            cells = {}
            for c in ball:
                cells.setdefault(bld.gp.strip(c, 1 << g), []).append(c)
            assert sum(len(v) for v in cells.values()) == len(ball)
            for rep, members in cells.items():
                assert len(members) <= bld.gp.qs[g]
                panel = set(bld.residue_chambers((1 << g, rep)))
                if panel <= ball:
                    assert len(members) == bld.gp.qs[g]


def test_ball_cap(d23):
    capped = Building(d23.system, {"s": 2, "t": 3}, chamber_cap=5)
    with pytest.raises(SizeCapError):
        capped.ball_chambers(4)
    # d23 r2 has 8 chambers; under a cap of 7 the enumeration stops at the
    # panel whose children would pass it, before listing them
    capped = Building(d23.system, {"s": 2, "t": 3}, chamber_cap=7)
    with pytest.raises(SizeCapError, match="chamber cap 7") as info:
        capped.ball(2)
    assert info.value.partial_count == 8


def _heap_cases():
    """(name, building, radius): every suite system up to its suite radius,
    the shipped configs up to radius 2, and hexagon_q3 at radius 3."""
    for name, bld, radius in make_suite():
        for n in range(radius + 1):
            yield name, bld, n
    for path in CONFIGS:
        bld = load_config(str(path)).building()
        for n in range(3 + (path.stem == "hexagon_q3")):
            yield path.stem, bld, n


def test_heap_ball_matches_residue_search():
    # the heap enumeration against the residue search and the kernel's
    # oracle, and the heap-built clump against the walk of its chambers
    for name, bld, n in _heap_cases():
        qs, comm = bld.gp.qs, bld.gp.comm
        listed = [c for words, _, _ in bld._heaps(n) for c in words]
        assert listed == sorted(listed, key=syllable_key), (name, n)
        assert bld.ball_chambers(n) == reference_ball_chambers(bld, n), (name, n)
        assert len(listed) == len(set(listed)), (name, n)
        for c in listed:
            assert reference_normalize(c, qs, comm) == c, (name, n, c)
        heap, walk = bld.ball(n), reference_clump(bld, listed)
        assert heap.chambers == walk.chambers, (name, n)
        assert heap.mirror_counts() == walk.mirror_counts(), (name, n)
        assert heap.boundary_mirror_count() == walk.boundary_mirror_count()
        assert heap.sides() == walk.sides(), (name, n)


def test_thin_ball_matches_the_reduced_word_search():
    # the heap listing with every q = 2 against the search over maximal
    # spherical words it replaced: the same words in the same order, on
    # every suite system to its test radius + 1 and every shipped config to
    # radius 2; each listing is made once per radius and kept
    cases = [(name, bld, n) for name, bld, nmax in make_suite() for n in range(nmax + 2)]
    for path in CONFIGS:
        bld = load_config(str(path)).building()
        cases += [(path.stem, bld, n) for n in range(3)]
    for name, bld, n in cases:
        words = bld.thin_ball(n)
        assert [generator_word(bld.system, w) for w in words] == reference_thin_ball(
            bld.system, n
        ), (name, n)
        assert all(e == 1 for w in words for _, e in w), (name, n)
        assert bld.thin_ball(n) is words, (name, n)
    assert len(cases) == 47


def delta_gallery(bld, a, b):
    """Chambers a = c_0, ..., c_k = b stepping by the syllables of a^-1 b."""
    chambers = [a]
    for syl in bld.gp.delta(a, b):
        chambers.append(bld.gp.mul(chambers[-1], (syl,)))
    return chambers


def test_delta_spells_a_gallery(d23):
    assert delta_gallery(d23, (), ()) == [()]
    s = elem(d23, [("s", 1)])
    assert delta_gallery(d23, (), s) == [(), s]
    rng = random.Random(5)
    chambers = sorted(d23.ball_chambers(2))
    for _ in range(50):
        a = rng.choice(chambers)
        b = rng.choice(chambers)
        gal = delta_gallery(d23, a, b)
        assert gal[-1] == b
        word = distance_word(d23, a, b)
        assert len(gal) == len(word) + 1
        for i, letter in enumerate(word):
            step = d23.gp.delta(gal[i], gal[i + 1])
            assert len(step) == 1 and step[0][0] == d23.system.index[letter]


def test_gallery_types_reduce_to_distance(d23):
    # any gallery found by BFS has type word reducing to the W-distance
    bld = d23
    ball = sorted(bld.ball_chambers(2))
    rng = random.Random(6)
    sysm = bld.system
    for _ in range(20):
        a = rng.choice(ball)
        b = rng.choice(ball)
        # BFS over galleries within the ball
        from collections import deque

        queue = deque([(a, [])])
        seen = {a}
        found = None
        while queue:
            cur, word = queue.popleft()
            if cur == b:
                found = word
                break
            for g in range(len(bld.gp.qs)):
                for e in range(1, bld.gp.qs[g]):
                    nb = bld.gp.mul(cur, ((g, e),))
                    if nb in seen or nb not in ball and nb != b:
                        continue
                    seen.add(nb)
                    queue.append((nb, word + [sysm.generators[g]]))
        assert found is not None
        assert w_reduce(sysm, found) == distance_word(bld, a, b)


def test_link_join_structure(hex3):
    # at an interior corner vertex, the chambers on the residue form the
    # full join grid of the two panel directions
    bld = hex3
    ball = bld.ball(2)
    corner_mask = bld.system.mask(["s1", "s2"])
    face = bld.face_of((), corner_mask)
    members = [c for c in bld.residue_chambers(face) if c in ball.chambers]
    assert len(members) == 9
    i1, i2 = bld.system.index["s1"], bld.system.index["s2"]
    coords = {
        (dict(c).get(i1, 0), dict(c).get(i2, 0)) for c in members
    }
    assert coords == set(itertools.product(range(3), range(3)))


def test_ball_cache_roundtrip(tmp_path, d23):
    ball = d23.ball(2)
    path = tmp_path / "ball.json"
    save_ball_cache(path, d23, 2, ball.chambers)
    radius, chambers = load_ball_cache(path, d23)
    assert radius == 2 and chambers == ball.chambers
    first = path.read_bytes()
    save_ball_cache(path, d23, 2, ball.chambers)
    assert path.read_bytes() == first
    other = Building(CoxeterSystem(["s", "t"]), {"s": 3, "t": 3})
    with pytest.raises(InputError):
        load_ball_cache(path, other)


def _json_dump_oracle(building, n, chambers):
    """The cache bytes as ``json.dump`` writes them."""
    data = {
        "config": building.config_dict(),
        "config_hash": building.config_hash(),
        "radius": n,
        "chambers": [
            serialize_chamber(building, c) for c in sorted(chambers, key=syllable_key)
        ],
    }
    fh = io.StringIO()
    json.dump(data, fh, sort_keys=True, indent=1)
    fh.write("\n")
    return fh.getvalue().encode()


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_ball_cache_bytes_match_json_dump(tmp_path, radius):
    # names that JSON must escape: a quote, a backslash, a non-ASCII letter;
    # at radius 0 the only chamber, the identity, is written as []
    names = ['q"', "b\\", "\u00e9"]
    escaped = Building(
        CoxeterSystem(names, [(names[0], names[1])]), dict(zip(names, (2, 3, 2)))
    )
    for bld in (escaped, Building(CoxeterSystem(["s", "t"]), {"s": 2, "t": 3})):
        chambers = bld.ball_chambers(radius)
        path = tmp_path / "ball.json"
        save_ball_cache(path, bld, radius, chambers)
        assert path.read_bytes() == _json_dump_oracle(bld, radius, chambers)
        assert load_ball_cache(path, bld) == (radius, chambers)


def test_ball_cache_unwritable_path(tmp_path, d23):
    with pytest.raises(InputError, match="cannot write ball cache"):
        save_ball_cache(tmp_path / "missing" / "ball.json", d23, 0, {()})


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda data: "not json",
        lambda data: "[1, 2]",
        lambda data: json.dumps({k: v for k, v in data.items() if k != "radius"}),
        lambda data: json.dumps(dict(data, chambers=["st"])),
        lambda data: json.dumps(dict(data, chambers=[[["t", 1.5]]])),
        lambda data: json.dumps(dict(data, chambers=[[["s", True]]])),
        lambda data: json.dumps(dict(data, chambers=[[], [["t", 3]]])),
        lambda data: json.dumps(dict(data, radius="x")),
    ],
    ids=[
        "not-json",
        "not-an-object",
        "no-radius",
        "bad-chamber",
        "float-exponent",
        "bool-exponent",
        "exponent-not-reduced",
        "bad-radius",
    ],
)
def test_load_ball_cache_rejects_other_files(tmp_path, d23, rewrite):
    path = tmp_path / "ball.json"
    save_ball_cache(path, d23, 1, d23.ball_chambers(1))
    path.write_text(rewrite(json.loads(path.read_text())))
    with pytest.raises(InputError):
        load_ball_cache(path, d23)


SUITE = {name: bld for name, bld, _ in make_suite()}


@pytest.mark.parametrize("name", sorted(SUITE))
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_deserialize_accepts_exactly_the_normal_forms(name, data):
    # the one-scan check against the kernel: a word of valid syllables is
    # accepted exactly when normalizing leaves it as it is; half the words
    # are normalized first, so canonical words are drawn as often as others
    bld = SUITE[name]
    qs = bld.gp.qs
    syllable = st.integers(0, len(qs) - 1).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(1, qs[g] - 1))
    )
    word = tuple(data.draw(st.lists(syllable, max_size=10)))
    if data.draw(st.booleans()):
        word = bld.gp.norm(word)
    pairs = serialize_chamber(bld, word)
    if bld.gp.norm(word) == word:
        assert bld.deserialize_chamber(pairs) == word
    else:
        with pytest.raises(InputError, match="not in normal form"):
            bld.deserialize_chamber(pairs)
