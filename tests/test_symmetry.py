import itertools
import json
import random
from pathlib import Path

import pytest

from rabuild.building import Building
from rabuild.cli import main
from rabuild.clump import chamber_clump, sheets, unfold, unfold_steps_to_ball
from rabuild.coxeter import CoxeterSystem
from rabuild.errors import DomainError, SizeCapError
from rabuild import symmetry as sym
from tests.conftest import generator_word, hexagon_system


# -- type permutations -------------------------------------------------------


def test_type_permutation_group_sizes(d23, d33, hex3):
    assert sym.type_permutation_group(d23) == [(0, 1)]
    assert len(sym.type_permutation_group(d33)) == 2
    assert len(sym.type_permutation_group(hex3)) == 12  # dihedral on the 6-cycle


def test_type_permutation_respects_q():
    bld = Building(CoxeterSystem(["a", "b", "c"]), {"a": 2, "b": 2, "c": 3})
    perms = sym.type_permutation_group(bld)
    assert len(perms) == 2  # only a<->b swap


def test_type_permutation_search_matches_enumeration():
    # the pruned search against filtering all rank! permutations, order included
    rng = random.Random(23)
    for _ in range(40):
        rank = rng.randint(1, 6)
        names = [f"x{i}" for i in range(rank)]
        pairs = [
            p for p in itertools.combinations(names, 2) if rng.random() < 0.5
        ]
        sysm = CoxeterSystem(names, pairs)
        bld = Building(sysm, {s: rng.choice((2, 3)) for s in names})
        expected = [
            perm
            for perm in itertools.permutations(range(rank))
            if all(bld.gp.qs[perm[i]] == bld.gp.qs[i] for i in range(rank))
            and all(
                ((sysm.comm[i] >> j) & 1) == ((sysm.comm[perm[i]] >> perm[j]) & 1)
                for i in range(rank)
                for j in range(rank)
            )
        ]
        assert sym.type_permutation_group(bld) == expected


def test_automorphism_search_cap():
    names = [f"x{i}" for i in range(sym.RIGIDITY_RANK_CAP + 1)]
    sysm = CoxeterSystem(names)
    with pytest.raises(SizeCapError):
        sym.nerve_automorphisms(sysm)
    with pytest.raises(SizeCapError):
        sym.type_permutation_group(Building(sysm, {s: 2 for s in names}))


# -- ball automorphisms ------------------------------------------------------


def test_identity_automorphism(d33):
    ball = d33.ball(1)
    h = sym.identity_automorphism(ball)
    assert h.is_identity()
    assert h.verify() == []


def test_swap_automorphism_d33(d33):
    ball = d33.ball(1)
    h = sym.from_type_permutation(ball, (1, 0))
    assert h.verify() == []
    s = d33.gp.element([("s", 1)])
    t = d33.gp.element([("t", 1)])
    assert h.mapping[s] == t
    assert h.compose(h).is_identity()
    assert h.inverse() == h


def test_automorphisms_map_sides_to_sides(d33, hex3):
    for bld in (d33, hex3):
        ball = bld.ball(1)
        for h in sym.automorphism_group_from_permutations(ball):
            for side in ball.sides():
                image = h.side_image(side)  # raises if not a side
                assert image.gen == h.perm[side.gen]


# -- induced simple automorphisms -------------------------------------------


def test_extend_action_identity(d33):
    ball = d33.ball(1)
    act = sym.extend_action(ball, sym.identity_automorphism(ball))
    for face, vmap in act.vertex_maps.items():
        assert all(g == u for g, u in vmap.items())


def test_extend_action_swap(d33):
    ball = d33.ball(1)
    h = sym.from_type_permutation(ball, (1, 0))
    act = sym.extend_action(ball, h)
    swapped = [vmap for vmap in act.vertex_maps.values() if vmap]
    assert swapped
    for vmap in swapped:
        for g, u in vmap.items():
            assert u == 1 - g


def test_extend_action_composition_law(hex3):
    ball = hex3.ball(1)
    autos = sym.automorphism_group_from_permutations(ball)
    rng = random.Random(3)
    acts = {h: sym.extend_action(ball, h) for h in autos}
    for _ in range(10):
        h1, h2 = rng.choice(autos), rng.choice(autos)
        h12 = h1.compose(h2)
        a12 = sym.extend_action(ball, h12)
        for face, vmap in acts[h2].vertex_maps.items():
            face2 = h2.face_image(face)
            composed = {
                g: acts[h1].vertex_maps[face2][u] for g, u in vmap.items()
            }
            assert composed == a12.vertex_maps[face]


def _vertex_maps_by_strips(clump, h):
    """extend_action's local maps as they were found before the side table:
    for every automorphism, each vertex's panels stripped from its chambers
    and their sides looked up again."""
    cog = clump.cog()
    gp = clump.building.gp
    vertex_maps = {}
    for face in cog.scwol.vertices:
        mask = cog.local_masks[face]
        vmap = {}
        for g in range(len(gp.qs)):
            if not (mask >> g) & 1:
                continue
            panels = {gp.strip(c, 1 << g) for c in cog.scwol.face_chambers[face]}
            owners = {
                clump.side_of_mirror(g, p)
                for p in panels
                if clump.panel_count(g, p) == 1
            }
            owners.discard(None)
            assert len(owners) == 1
            vmap[g] = h.side_image(owners.pop()).gen
        vertex_maps[face] = vmap
    return vertex_maps


def test_extend_action_matches_strip_reading(suite):
    # Every type-permutation automorphism of the balls that quotient builds:
    # each suite system at radius 0-2 (hex3 to radius 1, its radius-2 ball
    # takes about 3 s) and free3 (the suite's tree_234) at radius 3.
    cases = [
        (name, bld, n)
        for name, bld, _ in suite
        for n in range(2 if name == "hex3" else 3)
    ] + [(name, bld, 3) for name, bld, _ in suite if name == "free3"]
    autos_seen = 0
    for name, bld, n in cases:
        ball = bld.ball(n)
        for h in sym.automorphism_group_from_permutations(ball):
            act = sym.extend_action(ball, h)
            assert act.vertex_maps == _vertex_maps_by_strips(ball, h), (name, n)
            autos_seen += 1
    assert autos_seen > len(cases)


# -- quotients ---------------------------------------------------------------


def test_quotient_trivial_group(d33):
    ball = d33.ball(1)
    res = sym.quotient_cog(ball, [sym.identity_automorphism(ball)])
    assert res.report.ok
    assert res.sheet_count == 1
    assert not res.quotient.subdivided


def test_quotient_rejects_non_group(d33):
    ball = d33.ball(1)
    swap = sym.from_type_permutation(ball, (1, 0))
    with pytest.raises(DomainError):
        sym.quotient_cog(ball, [swap])  # swap after swap is missing
    assert sym.quotient_cog(ball, [sym.identity_automorphism(ball), swap]).report.ok


def test_quotient_chamber_full_group(d33, hex3):
    for bld, order in ((d33, 2), (hex3, 12)):
        y0 = bld.ball(0)
        autos = sym.automorphism_group_from_permutations(y0)
        assert len(autos) == order
        res = sym.quotient_cog(y0, autos)
        assert res.report.ok
        assert res.sheet_count == order


def test_quotient_swap_on_ball(d33):
    ball = d33.ball(1)
    autos = sym.automorphism_group_from_permutations(ball)
    res = sym.quotient_cog(ball, autos)
    assert res.report.ok
    assert res.sheet_count == 2
    assert res.quotient.subdivided


def test_composed_quotient_covering(d33):
    # unfolding covering composed with the chamber quotient still verifies,
    # with multiplicative sheet count
    from rabuild.covering import build_labeling

    final, records = unfold_steps_to_ball(d33, 1)
    lab = build_labeling(final, records)
    autos = sym.automorphism_group_from_permutations(chamber_clump(d33))
    report = sym.composed_quotient_covering(lab, autos)
    assert report.ok
    assert report.sheet_count == len(final.chambers) * len(autos)


# -- discreteness ------------------------------------------------------------


def test_classifier_thick_hexagon(hex3):
    v = sym.classify_discreteness(hex3)
    assert v.case == "1"
    assert not v.g0_discrete and not v.g_discrete


def test_classifier_davis_hexagon():
    sysm = hexagon_system()
    bld = Building(sysm, {g: 2 for g in sysm.generators})
    v = sym.classify_discreteness(bld)
    assert v.case == "2"
    assert v.g0_discrete
    assert v.nerve_rigid and v.g_discrete


def test_classifier_thick_commuting_direction():
    sysm = CoxeterSystem(["s", "t", "u"], [("s", "u"), ("t", "u")])
    bld = Building(sysm, {"s": 2, "t": 2, "u": 3})
    v = sym.classify_discreteness(bld)
    assert v.case == "3"
    assert v.g0_discrete


def test_classifier_finite(square23):
    assert sym.classify_discreteness(square23).case == "finite"


def test_rigidity_examples():
    assert not sym.is_rigid(CoxeterSystem(["a", "b", "c"]))  # isolated points
    full = CoxeterSystem(
        ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")]
    )
    assert sym.is_rigid(full)  # a full simplex
    assert sym.is_rigid(hexagon_system())  # the 6-cycle


def test_rigidity_matches_simplex_based_enumeration():
    # independent implementation: automorphisms from the simplex set of the
    # nerve rather than the commutation graph
    from rabuild.coxeter import spherical_poset

    rng = random.Random(5)
    systems = [
        CoxeterSystem(["a", "b", "c"]),
        hexagon_system(),
        CoxeterSystem(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
    ]
    for _ in range(12):
        rank = rng.randint(2, 6)
        names = [f"x{i}" for i in range(rank)]
        pairs = [
            p for p in itertools.combinations(names, 2) if rng.random() < 0.4
        ]
        systems.append(CoxeterSystem(names, pairs))
    for sysm in systems:
        simplices = {frozenset(t) for t in spherical_poset(sysm).nerve}
        perms = []
        for perm in itertools.permutations(sysm.generators):
            relabel = dict(zip(sysm.generators, perm))
            if {
                frozenset(relabel[x] for x in t) for t in simplices
            } == simplices:
                perms.append(perm)
        # same automorphism count

        assert len(perms) == len(sym.nerve_automorphisms(sysm))
        # same rigidity verdict
        flexible = False
        for perm in perms:
            relabel = dict(zip(sysm.generators, perm))
            if all(relabel[s] == s for s in sysm.generators):
                continue
            for v in sysm.generators:
                star = {v} | {
                    u for u in sysm.generators if sysm.commutes(u, v)
                }
                if all(relabel[x] == x for x in star):
                    flexible = True
        assert sym.is_rigid(sysm) == (not flexible)


# -- apartments --------------------------------------------------------------


def test_apartments_thin_building():
    sysm = CoxeterSystem(["a", "b", "c"], [("a", "b")])
    bld = Building(sysm, {"a": 2, "b": 2, "c": 2})
    for n in (1, 2):
        frags = sym.apartments_through_base(bld, n)
        assert len(frags) == 1
        assert frags[0].chambers == bld.ball_chambers(n)


def test_apartments_square(square23):
    frags = sym.apartments_through_base(square23, 1)
    assert len(frags) == 2
    for f in frags:
        assert len(f.chambers) == 4


def test_apartments_d23_radius1(d23):
    frags = sym.apartments_through_base(d23, 1)
    assert len(frags) == 2
    s = d23.gp.element([("s", 1)])
    for f in frags:
        assert () in f.chambers and s in f.chambers
        assert len(f.chambers) == 3


def test_apartment_fragments_brute_force_oracle(square23):
    # enumerate all chamber subsets and keep the distance-faithful sections
    bld = square23
    ball = bld.ball_chambers(1)
    words = sorted(sym.w_ball(bld.system, 1))
    valid = []
    from rabuild.coxeter import reduce as w_reduce

    for size in range(1, len(ball) + 1):
        for subset in itertools.combinations(sorted(ball), size):
            if () not in subset:
                continue
            shadows = {}
            ok = True
            for c in subset:
                w = generator_word(bld.system, c)
                if w in shadows:
                    ok = False
                    break
                shadows[w] = c
            if not ok or sorted(shadows) != words:
                continue
            # distance-faithful: delta of chambers matches the group division
            for w1, c1 in shadows.items():
                for w2, c2 in shadows.items():
                    d = generator_word(bld.system, bld.gp.delta(c1, c2))
                    expect = w_reduce(
                        bld.system,
                        tuple(reversed(w1)) + w2,
                    )
                    if d != expect:
                        ok = False
            if ok:
                valid.append(frozenset(subset))
    frags = sym.apartments_through_base(bld, 1)
    assert {f.chambers for f in frags} == set(valid)
    assert len(valid) == 2  # (q_s - 1) * (q_t - 1)


def _fragment_count(bld, n):
    """Product of q_s - 1 over the thin-ball words with exactly one descent s."""
    from rabuild.coxeter import reduce as w_reduce

    sysm = bld.system
    count = 1
    for w in sym.w_ball(sysm, n):
        ds = [s for s in sysm.generators if len(w_reduce(sysm, w + (s,))) < len(w)]
        if len(ds) == 1:
            count *= bld.gp.q(ds[0]) - 1
    return count


def test_apartment_count_formula(suite):
    # the enumeration finds as many fragments as the formula counts, and a
    # count over the cap is refused
    counts = {}
    for name, bld, _ in suite:
        for n in range(4):
            expect = counts[name, n] = _fragment_count(bld, n)
            if expect > sym.APARTMENT_COUNT_CAP:
                with pytest.raises(SizeCapError, match="exceeded its cap"):
                    sym.apartments_through_base(bld, n)
            else:
                assert len(sym.apartments_through_base(bld, n)) == expect, (name, n)
    assert counts["hex3", 2] == 2**36 and counts["free3", 3] == 279936


def test_apartment_cap_refuses_before_enumerating(hex3, monkeypatch):
    # hex3 at radius 2 has 2**36 fragments: refused before the ball is
    # built or any fragment is made
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(sym, "ApartmentFragment", refuse)
    monkeypatch.setattr(Building, "ball", refuse)
    with pytest.raises(SizeCapError, match="apartment enumeration exceeded its cap"):
        sym.apartments_through_base(hex3, 2)


# -- sheet swaps and witnesses ----------------------------------------------


def test_sheet_swap_rejects_single_sheet(d23):
    y0 = chamber_clump(d23)
    sside = [k for k in y0.sides() if k.gen == 0][0]  # q_s = 2
    y1 = unfold(y0, sside)
    with pytest.raises(DomainError):
        sym.sheet_swap(y1, y1.unfolding, 0, 1)


def test_sheet_swap_involution(d23):
    y0 = chamber_clump(d23)
    tside = [k for k in y0.sides() if k.gen == 1][0]  # q_t = 3
    y1 = unfold(y0, tside)
    h = sym.sheet_swap(y1, y1.unfolding, 0, 1)
    assert h.verify() == []
    assert h.mapping[()] == ()
    assert h.compose(h).is_identity()


def test_sheet_swap_fixes_old_clump(d33):
    # a swap at step k fixes every chamber born before step k, on the ball
    ball, records = unfold_steps_to_ball(d33, 2)
    before = {()}
    for grown in records:
        h = sym.sheet_swap(ball, grown, 0, 1)
        for c in before:
            assert h.mapping[c] == c
        assert not h.is_identity()
        before |= grown.chambers


def test_sheet_swap_equals_reference_extension(suite):
    # on Y_k the closed form is the sheet transposition (sheet i onto sheet
    # j mirror by mirror, every other chamber of Y_k fixed), and the
    # reference search extends that map to the ball exactly as the closed
    # form does; every ordered sheet pair of every step of every suite
    # system, at every radius to the test radius (hex3 to radius 1 only:
    # the reference search takes about 25 s there at radius 2)
    count = 0
    for name, bld, nmax in suite:
        for n in range(1, (1 if name == "hex3" else nmax) + 1):
            ball, records = unfold_steps_to_ball(bld, n)
            before = {()}
            for grown in records:
                blocks = sheets(grown)
                mask = 1 << grown.side.gen
                for i, j in itertools.permutations(range(len(blocks)), 2):
                    h = sym.sheet_swap(ball, grown, i, j)
                    partial = {c: h.mapping[c] for c in before | grown.chambers}
                    assert all(partial[c] == c for c in before)
                    for k, block in enumerate(blocks):
                        target = blocks[{i: j, j: i}.get(k, k)]
                        for c in block:
                            assert partial[c] in target
                            assert bld.gp.strip(partial[c], mask) == bld.gp.strip(c, mask)
                    assert sym.extend_to_ball(partial, ball) == h, (name, n, i, j)
                    count += 1
                before |= grown.chambers
    assert count == 314


def test_witness_identity(square23):
    frags = sym.apartments_through_base(square23, 1)
    h = sym.transitivity_witness(*unfold_steps_to_ball(square23, 1), frags[0], frags[0])
    assert h.is_identity()


def test_witness_rejects_non_fragment(d23):
    frags = sym.apartments_through_base(d23, 1)
    s = d23.gp.element([("s", 1)])
    fake = sym.ApartmentFragment(d23, 1, frozenset({(), s}))
    with pytest.raises(DomainError):
        sym.transitivity_witness(*unfold_steps_to_ball(d23, 1), fake, frags[0])


def test_witness_rejects_fragment_of_another_building(d23):
    twin = Building(d23.system, {"s": 2, "t": 3})
    frags = sym.apartments_through_base(twin, 1)
    with pytest.raises(DomainError, match="another building"):
        sym.transitivity_witness(*unfold_steps_to_ball(d23, 1), frags[0], frags[0])


def test_witness_command_validates_each_fragment_once(monkeypatch, capsys):
    # one thin ball and one validation per fragment, not one per ordered pair
    calls = []
    original = sym.is_apartment_fragment

    def counting(building, n, chambers):
        calls.append(chambers)
        return original(building, n, chambers)

    monkeypatch.setattr(sym, "is_apartment_fragment", counting)
    sym.w_ball.cache_clear()
    config = str(Path(__file__).parent.parent / "configs" / "d23.json")
    assert main(["witness", config, "--radius", "3"]) == 0
    fragments = json.loads(capsys.readouterr().out)["fragments"]
    assert fragments == 8
    assert len(calls) == len(set(calls)) == fragments
    assert sym.w_ball.cache_info().misses == 1


def test_witness_command_searches_nothing_and_builds_no_scwol(monkeypatch, capsys):
    # each swap is a closed form on the ball: no extension search runs, and
    # no clump or scwol is built inside transitivity_witness
    from rabuild import cog
    from rabuild.clump import Clump

    def refuse(partial, ball):
        raise AssertionError("extend_to_ball was called")

    inside = []
    built = {"scwol_of": 0, "Clump": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if inside:
                built[name] += 1
            return original(*args, **kwargs)

        return wrapper

    witness = sym.transitivity_witness

    def tracking(*args):
        inside.append(True)
        try:
            return witness(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(sym, "extend_to_ball", refuse)
    monkeypatch.setattr(sym, "transitivity_witness", tracking)
    monkeypatch.setattr(cog, "scwol_of", counted("scwol_of", cog.scwol_of))
    monkeypatch.setattr(Clump, "__init__", counted("Clump", Clump.__init__))
    config = str(Path(__file__).parent.parent / "configs" / "d23.json")
    assert main(["witness", config, "--radius", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pairs_witnessed"] and out["fragments"] == 8
    assert built == {"scwol_of": 0, "Clump": 0}


def test_witness_fragments_inside_a_larger_ball(d23):
    # radius-1 fragments are witnessed inside the radius-2 ball; fragments
    # of two radii, or records that do not make the ball, are refused
    ball, records = unfold_steps_to_ball(d23, 2)
    small = sym.apartments_through_base(d23, 1)
    for f1 in small:
        for f2 in small:
            h = sym.transitivity_witness(ball, records, f1, f2)
            assert frozenset(h.mapping[c] for c in f1.chambers) == f2.chambers
    large = sym.apartments_through_base(d23, 2)
    with pytest.raises(DomainError, match="different radii"):
        sym.transitivity_witness(ball, records, small[0], large[0])
    with pytest.raises(DomainError, match="do not make the ball"):
        sym.transitivity_witness(ball, records[:-1], small[0], small[0])


def test_witness_square_swaps_t_panel(square23):
    frags = sym.apartments_through_base(square23, 1)
    h = sym.transitivity_witness(*unfold_steps_to_ball(square23, 1), frags[0], frags[1])
    t = square23.gp.element([("t", 1)])
    t2 = square23.gp.element([("t", 2)])
    assert h.mapping[t] == t2
    assert h.mapping[()] == ()
    cert = h.to_json()
    assert cert["type_permutation"] == {"s": "s", "t": "t"}


def test_witness_all_pairs_d23_radius2(d23):
    frags = sym.apartments_through_base(d23, 2)
    assert len(frags) == 4
    ball, records = unfold_steps_to_ball(d23, 2)
    for f1 in frags:
        for f2 in frags:
            h = sym.transitivity_witness(ball, records, f1, f2)
            assert h.verify() == []
            image = frozenset(h.mapping[c] for c in f1.chambers)
            assert image == f2.chambers
            assert h.mapping[()] == ()


# -- panel-wise checks against the pairwise oracles ---------------------------


def _adjacency_preserved(h):
    """The pairwise oracle: delta of every chamber pair against its image."""
    gp = h.clump.building.gp

    def adjacency(a, b):
        d = gp.delta(a, b)
        return d[0][0] if len(d) == 1 else None

    for c in h.clump.chambers:
        for d in h.clump.chambers:
            t = adjacency(c, d)
            if adjacency(h.mapping[c], h.mapping[d]) != (
                None if t is None else h.perm[t]
            ):
                return False
    return True


def _transposed(h, c1, c2):
    mapping = dict(h.mapping)
    mapping[c1], mapping[c2] = mapping[c2], mapping[c1]
    return sym.BallAutomorphism(h.clump, mapping, h.perm)


def test_verify_matches_pairwise_adjacency_oracle(suite):
    rng = random.Random(7)
    agreed = {True: 0, False: 0}
    named = None
    for name, bld, _ in suite:
        for n in (1, 2):
            try:
                chambers = bld.ball_chambers(n, cap=120)
            except SizeCapError:
                continue
            ball = bld.ball(n)
            order = sorted(chambers, key=lambda c: (len(c), c))
            for h in sym.automorphism_group_from_permutations(ball):
                maps = [h]
                for _ in range(3):
                    c1, c2 = rng.sample(order, 2)
                    maps.append(_transposed(h, c1, c2))
                # two outermost chambers of one panel: often still an
                # automorphism
                for leaf in order[-3:]:
                    for e in range(1, bld.gp.qs[leaf[-1][0]]):
                        mate = bld.gp.mul(leaf, ((leaf[-1][0], e),))
                        if mate in chambers:
                            maps.append(_transposed(h, leaf, mate))
                for m in maps:
                    expect = _adjacency_preserved(m)
                    problems = m.verify()
                    assert (problems == []) == expect, (name, n, problems)
                    agreed[expect] += 1
                    if problems and named is None:
                        named = (m, problems[0])
    assert agreed[True] >= 50 and agreed[False] >= 50, agreed
    # a failure names its check and the face where it failed
    m, message = named
    assert message.startswith(
        ("chamber map does not induce a face map", "face map is not injective")
    )
    assert any(repr(f) in message for f in m.clump.scwol().vertices)


def test_verify_names_a_face_that_leaves_the_clump():
    # swapping a and b breaks commutation with c: the {b, c}-face of the
    # base chamber would go to the non-spherical type {a, c}
    bld = Building(
        CoxeterSystem(["a", "b", "c"], [("b", "c")]), {"a": 2, "b": 2, "c": 3}
    )
    h = sym.BallAutomorphism(chamber_clump(bld), {(): ()}, (1, 0, 2))
    problems = h.verify()
    assert len(problems) == 1
    assert problems[0].startswith("face (6, ()) leaves the clump")


def test_extend_to_ball_panel_filter_matches_pairwise_filter(d23):
    # the sheet swaps restricted to the clumps Y_k (the partial maps the
    # witness once handed to extend_to_ball), their growth towards the whole
    # swap, and random injective partial maps of the same ball, which need
    # not extend at all
    partials = []
    ball, records = unfold_steps_to_ball(d23, 2)
    before = {()}
    for grown in records:
        before |= grown.chambers
        for i, j in itertools.permutations(range(len(sheets(grown))), 2):
            h = sym.sheet_swap(ball, grown, i, j)
            partials.append(({c: h.mapping[c] for c in before}, h, ball))
    assert partials
    gp = d23.gp
    rng = random.Random(29)

    def adjacency(a, b):
        d = gp.delta(a, b)
        return d[0][0] if len(d) == 1 else None

    outcomes = {True: 0, False: 0}
    for partial, h, ball in partials:
        panels = sym._ball_panels(ball)
        order = sorted(ball.chambers, key=lambda c: (len(c), c))
        rest = [c for c in order if c not in partial]
        states = []
        for k in (0, len(rest) // 3, 2 * len(rest) // 3):
            mapping = dict(partial)
            mapping.update((c, h.mapping[c]) for c in rest[:k])
            states.append(mapping)
        for _ in range(4):
            size = rng.randint(1, len(order) - 1)
            states.append(dict(zip(rng.sample(order, size), rng.sample(order, size))))
        for mapping in states:
            used = set(mapping.values())
            for c in ball.chambers - set(mapping):
                for cand in ball.chambers - used:
                    pairwise = all(
                        adjacency(cand, img)
                        == (None if adjacency(c, d) is None else h.perm[adjacency(c, d)])
                        for d, img in mapping.items()
                    )
                    panelwise = sym._panel_consistent(
                        panels, mapping, used, h.perm, c, cand
                    )
                    assert panelwise == pairwise
                    outcomes[pairwise] += 1
    assert outcomes[True] and outcomes[False], outcomes
