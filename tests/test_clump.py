import json
import random
from pathlib import Path

import pytest

from rabuild import kernel
from rabuild.building import syllable_key
from rabuild.clump import (
    Clump,
    Side,
    Unfolding,
    sheets,
    unfold,
    unfold_steps_to_ball,
)
from rabuild.cli import main
from rabuild.cog import _panel_types
from rabuild.errors import DomainError
from tests.conftest import clumps_along, reference_clump, serialize_chamber


def boundary_mirrors(clump):
    """Panels carrying exactly one chamber of the clump, sorted."""
    return sorted(
        (k for k, n in clump.mirror_counts().items() if n == 1),
        key=lambda k: (k[0], syllable_key(k[1])),
    )


def test_boundary_mirrors_single_chamber(d23):
    y0 = d23.ball(0)
    mirrors = boundary_mirrors(y0)
    assert len(mirrors) == y0.boundary_mirror_count() == 2
    assert {g for g, _ in mirrors} == {0, 1}


def test_boundary_mirrors_whole_building(square23):
    whole = square23.ball(1)
    assert whole.is_whole_building
    assert boundary_mirrors(whole) == []
    assert whole.boundary_mirror_count() == 0
    assert whole.sides() == []


def test_boundary_mirrors_ball1(d23):
    # panel-membership counting oracle
    ball = d23.ball(1)
    gp = d23.gp
    expected = set()
    for c in ball.chambers:
        for g in range(2):
            rep = gp.strip(c, 1 << g)
            panel = [gp.mul(rep, ((g, e),)) if e else rep for e in range(gp.qs[g])]
            inside = sum(1 for p in panel if p in ball.chambers)
            if inside == 1:
                expected.add((g, rep))
    assert set(boundary_mirrors(ball)) == expected
    assert ball.boundary_mirror_count() == len(expected)
    assert not ball.is_whole_building
    # concretely: the s-mirrors of t and t^2, plus the t-mirror of s
    names = {
        (d23.system.generators[g], tuple(tuple(p) for p in serialize_chamber(d23, r)))
        for g, r in boundary_mirrors(ball)
    }
    assert names == {
        ("s", (("t", 1),)),
        ("s", (("t", 2),)),
        ("t", (("s", 1),)),
    }


def test_boundary_type_examples(d23):
    clump = d23.ball(0)
    s_vertex = d23.face_of((), 1 << 0)
    assert clump.cog().local_masks[s_vertex] == d23.system.mask({"s"})
    # after unfolding along the t-side, the t-mirror is interior
    tside = [k for k in clump.sides() if k.gen == 1][0]
    unfold(clump, tside)
    t_vertex = d23.face_of((), 1 << 1)
    local = clump.cog().local_masks
    assert local[t_vertex] == d23.system.mask(set())
    # a face of no clump chamber has no local group
    assert d23.face_of(((0, 1), (1, 1)), 1 << 0) not in local


def test_fully_interior_vertex(square23):
    whole = square23.ball(1)
    for tmask in square23.spherical_masks:
        face = square23.face_of((), tmask)
        assert whole.cog().local_masks[face] == square23.system.mask(set())


def test_sides_basic(d23, hex3):
    assert len(d23.ball(0).sides()) == 2
    hex_sides = hex3.ball(0).sides()
    assert len(hex_sides) == 6
    assert sorted(s.gen for s in hex_sides) == list(range(6))


def test_same_type_mirrors_one_side(square23):
    # the t-mirrors of two s-adjacent chambers lie in one side
    clump = square23.ball(0)
    sside = [k for k in clump.sides() if k.gen == square23.system.index["s"]][0]
    unfold(clump, sside)
    tsides = [k for k in clump.sides() if k.gen == square23.system.index["t"]]
    assert len(tsides) == 1
    assert len(tsides[0].mirrors) == 2


def test_unfold_examples(d23):
    clump = d23.ball(0)
    tside = [k for k in clump.sides() if k.gen == 1][0]
    grown = unfold(clump, tside)
    assert sorted(serialize_chamber(d23, c) for c in clump.chambers) == [
        [],
        [["t", 1]],
        [["t", 2]],
    ]
    assert grown.chambers == clump.chambers - {()}
    # the consumed side is no longer a side of the result
    with pytest.raises(DomainError):
        unfold(clump, tside)


def test_unfolded_mirrors_become_interior(d23):
    for side in d23.ball(0).sides():
        clump = d23.ball(0)
        unfold(clump, side)
        for rep in side.mirrors:
            assert clump.mirror_counts()[side.gen, rep] == d23.gp.qs[side.gen]


def test_sheets_counts(d23, d33):
    # the record's sheets, found when it was made, are those of its faces
    for bld in (d23, d33):
        for side in bld.ball(0).sides():
            grown = unfold(bld.ball(0), side)
            assert grown.sheets == sheets(grown)
            assert len(grown.sheets) == bld.gp.qs[side.gen] - 1


def test_sheet_mirror_bijection(suite_traces):
    # every sheet meets every mirror of the unfolded side exactly once
    for name, (_, records) in suite_traces.items():
        for grown in records:
            for block in sheets(grown):
                for rep in grown.side.mirrors:
                    met = block.intersection(grown.faces[(1 << grown.side.gen, rep)])
                    assert len(met) == 1, name


def test_ball_by_unfolding_matches_ball(suite):
    for name, bld, _ in suite:
        for n in (1, 2):
            final, _ = unfold_steps_to_ball(bld, n)
            assert final.chambers == bld.ball_chambers(n), name


def test_ball_by_unfolding_d23(d23):
    final, records = unfold_steps_to_ball(d23, 1)
    sides_used = [grown.side for grown in records]
    assert len(sides_used) == 2
    assert len(final.chambers) == 4


def _reachable(root):
    """Every object reachable from root through containers and attributes."""
    seen, stack = set(), [root]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (int, str)):
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        else:
            slots = getattr(type(x), "__slots__", ())
            stack.extend(getattr(x, a) for a in slots if hasattr(x, a))
            stack.extend(getattr(x, "__dict__", {}).values())


def test_unfolding_log_is_linear(d23, hex3, capsys):
    # The sequence returns one Unfolding record per step and no clump; the
    # records' new chambers partition the ball less its base chamber.
    for bld, n in ((d23, 3), (hex3, 1)):
        ball, records = unfold_steps_to_ball(bld, n)
        assert records and all(type(grown) is Unfolding for grown in records)
        for grown in records:
            assert not any(isinstance(x, Clump) for x in _reachable(grown))
        born = set()
        for grown in records:
            assert not born & grown.chambers
            born |= grown.chambers
        assert born == ball.chambers - {()}
    # unfold-trace's chambers_after is the running total of new chambers
    config = str(Path(__file__).parent.parent / "configs" / "d23.json")
    for extra in ([], ["--seed", "5"]):
        assert main(["unfold-trace", config, "--radius", "3", *extra]) == 0
        data = json.loads(capsys.readouterr().out)
        total = 1
        for step in data["steps"]:
            total += step["new_chambers"]
            assert step["chambers_after"] == total
        assert total == data["chambers"]


def test_randomized_side_order_also_reaches_ball(d33, hex3):
    for bld in (d33, hex3):
        rng = random.Random(99)
        final, _ = unfold_steps_to_ball(bld, 2 if bld is d33 else 1, rng=rng)
        n = 2 if bld is d33 else 1
        assert final.chambers == bld.ball_chambers(n)


def test_boundary_type_three_case_law(d23, d33, square23, hex3):
    # unfolding along a type-u side: off-side vertices keep their boundary
    # type, on-side vertices lose exactly u, and new vertices only grow
    # relative to their companion in the old clump; the old clump is
    # rebuilt from its chambers, since unfold grows the clump in place
    for bld in (d23, d33, square23, hex3):
        after = bld.ball(0)
        for _ in range(3):
            sides = after.sides()
            if not sides:
                break
            side = sides[0]
            u = side.gen
            current = reference_clump(bld, after.chambers)
            grown = unfold(after, side)
            gp = bld.gp
            before_scwol = current.scwol()
            after_scwol = after.scwol()
            bt_before = current.cog().local_masks
            assert after.chambers - current.chambers == grown.chambers
            for face in after_scwol.vertices:
                bt_after = after.cog().local_masks[face]
                old = face in before_scwol.face_chambers
                on_side = bool((face[0] >> u) & 1) and any(
                    gp.strip(c, 1 << u) in set(side.mirrors)
                    for c in after_scwol.face_chambers[face]
                )
                if old and not on_side:
                    assert bt_after == bt_before[face]
                elif old and on_side:
                    assert bt_after == bt_before[face] & ~(1 << u)
                else:
                    # new face: companion through the side's panels
                    c = after_scwol.face_chambers[face][0]
                    rep = gp.strip(c, 1 << u)
                    panel = [
                        gp.mul(rep, ((u, e),)) if e else rep
                        for e in range(gp.qs[u])
                    ]
                    companion = [p for p in panel if p in current.chambers][0]
                    lift = bld.face_of(companion, face[0])
                    assert bt_before[lift] & bt_after == bt_before[lift]


def _sides_oracle(clump):
    """Sides without the incremental index: boundary mirrors of type g
    grouped by their {g, c}-cosets, c commuting with g, then joined."""
    bld = clump.building
    gp = bld.gp
    counts = reference_clump(bld, clump.chambers).mirror_counts()
    comps = {k: {k} for k, n in counts.items() if n == 1}
    groups = {}
    for g, rep in comps:
        for c in range(len(gp.qs)):
            if (bld.system.comm[g] >> c) & 1:
                mask = (1 << g) | (1 << c)
                groups.setdefault((g, mask, gp.strip(rep, mask)), []).append((g, rep))
    for members in groups.values():
        for other in members[1:]:
            a, b = comps[members[0]], comps[other]
            if a is not b:
                a |= b
                for k in b:
                    comps[k] = a
    found = {id(c): c for c in comps.values()}.values()
    return sorted(
        (
            Side(min(c)[0], tuple(sorted((r for _, r in c), key=syllable_key)))
            for c in found
        ),
        key=lambda s: (s.gen, syllable_key(s.mirrors[0])),
    )


def _assert_matches_rebuild(carried, name):
    """Carried mirror counts, boundary, sides and scwol equal a rebuild."""
    scwol = carried.scwol()
    fresh = reference_clump(carried.building, carried.chambers)
    assert carried.mirror_counts() == fresh.mirror_counts(), name
    assert boundary_mirrors(carried) == boundary_mirrors(fresh), name
    assert carried.boundary_mirror_count() == fresh.boundary_mirror_count(), name
    assert carried.is_whole_building == fresh.is_whole_building, name
    assert carried.sides() == fresh.sides(), name
    rebuilt = fresh.scwol()
    assert scwol.edge_set == rebuilt.edge_set, name
    for view in ("face_chambers", "vertices", "edges", "in_edges", "out_edges"):
        assert getattr(scwol, view) == getattr(rebuilt, view), (name, view)


def test_side_coset_keys_are_strips(suite):
    # the carried coset index of each suite trace holds every mirror that
    # was a boundary mirror of some clump along it; each g-mirror's key for
    # {g, c}, read from its right-visible c-syllable, is its strip by
    # {g, c}, because g is never right-visible in a g-panel representative
    for name, bld, radius in suite:
        final, _ = unfold_steps_to_ball(bld, radius)
        gp = bld.gp
        table = final._side_index()
        assert table.cosets is not None, name
        keyed = {}
        for g, index in enumerate(table.cosets):
            for (mask, key), reps in index.items():
                for rep in reps:
                    assert gp.strip(rep, mask) == key, (name, g, rep, mask)
                    keyed[g, rep] = keyed.get((g, rep), 0) + 1
        for g, rep in keyed:
            assert g not in dict(kernel.right_descents(rep, gp.comm)), (name, rep)
            assert keyed[g, rep] == len(table.pairs[g]), (name, g, rep)
            want = [(mask, gp.strip(rep, mask)) for _, mask in table.pairs[g]]
            assert table._coset_keys(g, rep) == want, (name, g, rep)
        for (g, rep), n in final.mirror_counts().items():
            if n == 1 and table.pairs[g]:
                assert (g, rep) in keyed, (name, g, rep)


def test_sides_match_coset_grouping(suite_traces):
    # the first eight clumps are read while their side tables are carried;
    # each ball is also built fresh, its side table in one update
    for name, (final, records) in suite_traces.items():
        for clump in clumps_along(final.building, records[:8]):
            assert clump.sides() == _sides_oracle(clump), name
        assert final.sides() == _sides_oracle(final), name
        fresh = reference_clump(final.building, final.chambers)
        assert fresh.sides() == _sides_oracle(fresh), name


@pytest.mark.parametrize("seed", [None, 5, 17])
def test_carried_structure_matches_rebuild(suite, seed):
    # Replay each suite trace, canonical or shuffled, and compare the clump
    # after every unfolding with a clump rebuilt from its chambers.
    # Rebuilding each clump of hex3 at radius 2 takes about 15 s on a 2-vCPU
    # machine, so the shuffled orders stop hex3 at radius 1.
    for name, bld, nmax in suite:
        rng = None if seed is None else random.Random(seed)
        n = 1 if seed is not None and name == "hex3" else nmax
        final, records = unfold_steps_to_ball(bld, n, rng=rng)
        for current in clumps_along(bld, records):
            _assert_matches_rebuild(current, name)
        assert current.chambers == final.chambers


def test_unfold_grows_the_clump_in_place(d33, hex3):
    # unfold returns the step's record and grows the clump it is given: the
    # chamber set gains exactly the record's chambers, and the scwol read
    # after the step, with every sorted view, equals a rebuild
    for bld in (d33, hex3):
        final, records = unfold_steps_to_ball(bld, 1)
        clump = bld.ball(0)
        for step in records:
            clump.scwol().edges  # build the sorted views of the old state
            before = set(clump.chambers)
            grown = unfold(clump, step.side)
            assert type(grown) is Unfolding
            assert grown.chambers == step.chambers
            assert clump.chambers == before | grown.chambers
            assert not before & grown.chambers
            _assert_matches_rebuild(clump, bld)
        assert clump.chambers == final.chambers


def test_unfolding_any_clump_matches_rebuild(suite):
    # Small gallery-connected chamber sets that no unfolding sequence
    # reaches: unfolding one of their sides can take mirrors of other sides
    # off the boundary, which dissolves those sides and joins what is left.
    rng = random.Random(3)
    for name, bld, _ in suite:
        ball = bld.ball_chambers(2)
        gp = bld.gp
        for _ in range(12):
            chambers = {()}
            for _ in range(rng.randint(1, 12)):
                c = rng.choice(sorted(chambers, key=syllable_key))
                g = rng.randrange(len(gp.qs))
                d = gp.mul(c, ((g, rng.randrange(1, gp.qs[g])),))
                if d in ball:
                    chambers.add(d)
            for side in reference_clump(bld, chambers).sides():
                clump = reference_clump(bld, chambers)
                unfold(clump, side)
                _assert_matches_rebuild(clump, name)


def _boundary_type_by_strips(clump, counts, face, reading):
    """The boundary type as it was read before the face table: every
    chamber of the face stripped once per type, panel sizes from the mirror
    ``counts``."""
    gp = clump.building.gp
    members = clump.scwol().face_chambers[face]
    out = 0
    for g in range(len(gp.qs)):
        if (face[0] >> g) & 1:
            panels = {gp.strip(c, 1 << g) for c in members}
            if reading(counts.get((g, p)) == 1 for p in panels):
                out |= 1 << g
    return out


def _assert_boundary_types_match(clump, name):
    # the local masks are the some-panel reading; the every-panel reading
    # is the face's type less the types with an interior panel on it
    scwol = clump.scwol()
    some = clump.cog().local_masks
    interior = _panel_types(scwol, False)
    counts = clump.mirror_counts()
    for face in scwol.vertices:
        every = face[0] & ~interior[face]
        for reading, mask in ((any, some[face]), (all, every)):
            want = _boundary_type_by_strips(clump, counts, face, reading)
            assert mask == want, (name, face)


@pytest.mark.parametrize("seed", [None, 5, 17])
def test_boundary_type_matches_strip_reading(suite, seed):
    # Both readings at every face of every clump of each suite trace,
    # canonical or shuffled, read while the clump's data is carried.  The
    # 90 clumps of hex3 at radius 2 would take about 10 s on a 2-vCPU
    # machine, so hex3 stops at radius 1 and only its canonical radius-2
    # ball is read as well.
    for name, bld, nmax in suite:
        rng = None if seed is None else random.Random(seed)
        n = 1 if name == "hex3" else nmax
        final, records = unfold_steps_to_ball(bld, n, rng=rng)
        _assert_boundary_types_match(bld.ball(0), name)
        for current in clumps_along(bld, records):
            _assert_boundary_types_match(current, name)
        if name == "hex3" and seed is None:
            _assert_boundary_types_match(unfold_steps_to_ball(bld, nmax)[0], name)
