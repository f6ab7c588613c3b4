import copy
import itertools
import json
import random
from pathlib import Path

import pytest

from rabuild.building import Building, face_key
from rabuild.cli import load_config, main
from rabuild.clump import unfold, unfold_steps_to_ball
from rabuild.coxeter import CoxeterSystem
from rabuild.errors import DomainError, InternalError, SizeCapError
from rabuild import symmetry as sym
from tests.conftest import (
    clumps_along,
    element,
    generator_word,
    hexagon_system,
    inverse_automorphism,
    nerve_automorphisms,
    reference_apartments,
    reference_thin_ball,
    whole_ball_group_table,
)


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


def test_automorphism_search_cap(monkeypatch):
    # The search counts the partial maps it tries, whatever the rank: the
    # free rank-11 system takes 65 in is_rigid, and the free rank-5 q = 2
    # system 1,030 in listing its 120 type permutations.  One fewer is
    # refused.
    def free(rank):
        return CoxeterSystem([f"x{i}" for i in range(rank)])

    bld = Building(free(5), {f"x{i}": 2 for i in range(5)})
    searches = [
        (65, lambda: sym.is_rigid(free(11))),
        (1030, lambda: sym.type_permutation_group(bld)),
    ]
    for cap, search in searches:
        monkeypatch.setattr(sym, "AUTOMORPHISM_SEARCH_CAP", cap)
        search()
        monkeypatch.setattr(sym, "AUTOMORPHISM_SEARCH_CAP", cap - 1)
        with pytest.raises(SizeCapError, match=f"more than {cap - 1} partial maps"):
            search()


def test_quotient_table_cap_refuses_from_the_permutation_count(monkeypatch):
    # free q = 2 systems: rank 5 has 120 type permutations, a table of
    # 14,400 products, and its quotient runs; rank 6 has 720, and is refused
    # before any automorphism is built
    def free(rank):
        names = [f"x{i}" for i in range(rank)]
        return Building(CoxeterSystem(names), {s: 2 for s in names}).ball(0)

    y0 = free(5)
    assert sym.quotient_cog(y0, sym.type_permutation_group(y0.building)).report.ok

    def refuse(*args):
        raise AssertionError("an automorphism was built")

    monkeypatch.setattr(sym, "BallAutomorphism", refuse)
    y0 = free(6)
    with pytest.raises(SizeCapError, match="more than 316 type permutations"):
        sym.quotient_cog(y0, sym.type_permutation_group(y0.building))


# -- ball automorphisms ------------------------------------------------------


def _identity_on(clump, rank):
    """(perm, mapping) of the identity automorphism of the clump."""
    return tuple(range(rank)), {c: c for c in clump.chambers}


def test_identity_automorphism(d33):
    ball = d33.ball(1)
    h = sym.identity_automorphism(ball)
    assert (h.perm, h.mapping) == _identity_on(ball, 2)
    assert h.verify() == []


def test_swap_automorphism_d33(d33):
    ball = d33.ball(1)
    h = sym.from_type_permutation(ball, (1, 0))
    assert h.verify() == []
    s = element(d33.gp, [("s", 1)])
    t = element(d33.gp, [("t", 1)])
    assert h.mapping[s] == t
    hh = h.compose(h)
    assert (hh.perm, hh.mapping) == _identity_on(ball, 2)
    inv = inverse_automorphism(h)
    assert (inv.perm, inv.mapping) == (h.perm, h.mapping)


def test_automorphisms_map_sides_to_sides(d33, hex3):
    for bld in (d33, hex3):
        ball = bld.ball(1)
        perms = sym.type_permutation_group(bld)
        for h in sym.automorphism_group_from_permutations(ball, perms):
            for side in ball.sides():
                image = h.side_image(side)  # raises if not a side
                assert image.gen == h.perm[side.gen]


# -- induced simple automorphisms -------------------------------------------


def _perm_maps(clump, h):
    """The local maps extend_action implies: g -> perm[g] on each vertex's
    local mask."""
    cog = clump.cog()
    return {
        face: {g: u for g, u in enumerate(h.perm) if (mask >> g) & 1}
        for face, mask in cog.local_masks.items()
    }


def _vertex_maps_by_strips(clump, h):
    """The local maps as they were found before the side table: for every
    automorphism, each vertex's panels stripped from its chambers and their
    sides looked up again, and each side's image read off ``side_image``."""
    cog = clump.cog()
    gp = clump.building.gp
    counts = clump.mirror_counts()
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
                if counts.get((g, p)) == 1
            }
            owners.discard(None)
            assert len(owners) == 1
            vmap[g] = h.side_image(owners.pop()).gen
        vertex_maps[face] = vmap
    return vertex_maps


def test_extend_action_identity(d33):
    ball = d33.ball(1)
    h = sym.identity_automorphism(ball)
    sym.extend_action(ball, h)
    maps = _vertex_maps_by_strips(ball, h)
    assert maps == _perm_maps(ball, h)
    for vmap in maps.values():
        assert all(g == u for g, u in vmap.items())


def test_extend_action_swap(d33):
    ball = d33.ball(1)
    h = sym.from_type_permutation(ball, (1, 0))
    sym.extend_action(ball, h)
    maps = _vertex_maps_by_strips(ball, h)
    assert maps == _perm_maps(ball, h)
    swapped = [vmap for vmap in maps.values() if vmap]
    assert swapped
    for vmap in swapped:
        for g, u in vmap.items():
            assert u == 1 - g


def test_extend_action_composition_law(hex3):
    ball = hex3.ball(1)
    autos = sym.automorphism_group_from_permutations(
        ball, sym.type_permutation_group(hex3)
    )
    rng = random.Random(3)
    maps = {h.perm: _vertex_maps_by_strips(ball, h) for h in autos}
    for _ in range(10):
        h1, h2 = rng.choice(autos), rng.choice(autos)
        h12 = h1.compose(h2)
        sym.extend_action(ball, h12)
        m12 = _vertex_maps_by_strips(ball, h12)
        assert m12 == _perm_maps(ball, h12)
        for face, vmap in maps[h2.perm].items():
            face2 = h2.face_image(face)
            composed = {g: maps[h1.perm][face2][u] for g, u in vmap.items()}
            assert composed == m12[face]


def test_extend_action_matches_strip_reading(suite):
    # Every type-permutation automorphism of the balls that quotient builds:
    # each suite system at radius 0-2 (hex3 to radius 1, its radius-2 ball
    # takes about 3 s) and free3 (the suite's tree_234) at radius 3.  Then
    # the sheet swaps of the last unfolding of d33 r2 and of hex3 r1, which
    # no type permutation induces (hex2 has q = 2, so one sheet per
    # unfolding and no swap).  The side through each vertex, read off its
    # strips, goes to a side of type perm[g] for every g of the local mask.
    cases = [
        (name, bld, n)
        for name, bld, _ in suite
        for n in range(2 if name == "hex3" else 3)
    ] + [(name, bld, 3) for name, bld, _ in suite if name == "free3"]
    autos_seen = 0
    for name, bld, n in cases:
        ball = bld.ball(n)
        perms = sym.type_permutation_group(bld)
        for h in sym.automorphism_group_from_permutations(ball, perms):
            sym.extend_action(ball, h)
            assert _vertex_maps_by_strips(ball, h) == _perm_maps(ball, h), (name, n)
            autos_seen += 1
    assert autos_seen > len(cases)
    buildings = {name: bld for name, bld, _ in suite}
    swaps_seen = 0
    for name, n in (("d33", 2), ("hex3", 1)):
        ball, records = unfold_steps_to_ball(buildings[name], n)
        grown = records[-1]
        for i, j in itertools.permutations(range(len(grown.sheets)), 2):
            h = sym.sheet_swap(ball, grown, i, j)
            assert h.mapping != _identity_on(ball, len(h.perm))[1]
            sym.extend_action(ball, h)
            assert _vertex_maps_by_strips(ball, h) == _perm_maps(ball, h), (name, i, j)
            swaps_seen += 1
    assert swaps_seen == 4


def test_extend_action_refuses_a_broken_cyclic_order(d23):
    # d23 r0: exchanging s (q = 2) and t (q = 3) keeps the one chamber's
    # faces, so the chamber map verifies, but no local map of the s-panel's
    # group onto the t-panel's preserves the order
    ball = d23.ball(0)
    h = sym.BallAutomorphism(ball, {(): ()}, (1, 0))
    assert h.verify() == []
    with pytest.raises(InternalError) as info:
        sym.extend_action(ball, h)
    assert str(info.value) == (
        "local map at face (1, ()) does not preserve cyclic orders under the "
        "type permutation (1, 0)"
    )


def test_extend_action_refuses_a_doctored_local_mask(d33):
    # d33 r1 under the swap: one face the swap moves loses its local group,
    # so the swap no longer carries the local masks onto each other there
    ball = d33.ball(1)
    h = sym.from_type_permutation(ball, (1, 0))
    cog = ball.cog()
    face = next(
        f for f in cog.scwol.vertices if cog.local_masks[f] and h.face_image(f) != f
    )
    cog.local_masks[face] = 0
    named = next(f for f in cog.scwol.vertices if f in (face, h.face_image(face)))
    with pytest.raises(InternalError) as info:
        sym.extend_action(ball, h)
    assert str(info.value) == (
        f"local map at face {named!r} does not hit the image local group "
        "under the type permutation (1, 0)"
    )


# -- quotients ---------------------------------------------------------------


def test_quotient_trivial_group(d33):
    ball = d33.ball(1)
    res = sym.quotient_cog(ball, [(0, 1)])
    assert res.report.ok
    assert res.report.sheet_count == 1
    assert not res.quotient.subdivided


def test_quotient_rejects_non_group(d33, hex3, monkeypatch):
    # refused from the permutations alone, before any automorphism is built:
    # the swap without the identity (swap after swap is missing), the empty
    # list, and the identity with a rotation of the hexagon but not its powers
    def refuse(*args):
        raise AssertionError("an automorphism was built")

    rotation = (1, 2, 3, 4, 5, 0)
    cases = [
        (d33.ball(1), [(1, 0)]),
        (d33.ball(1), []),
        (hex3.ball(0), [tuple(range(6)), rotation]),
    ]
    with monkeypatch.context() as patched:
        patched.setattr(sym, "from_type_permutation", refuse)
        for ball, perms in cases:
            with pytest.raises(DomainError, match="do not form a group"):
                sym.quotient_cog(ball, perms)
    assert sym.quotient_cog(d33.ball(1), [(0, 1), (1, 0)]).report.ok


def test_quotient_chamber_full_group(d33, hex3):
    for bld, order in ((d33, 2), (hex3, 12)):
        y0 = bld.ball(0)
        perms = sym.type_permutation_group(bld)
        assert len(perms) == order
        res = sym.quotient_cog(y0, perms)
        assert len(res.quotient.autos) == order
        assert res.report.ok
        assert res.report.sheet_count == order


def test_quotient_swap_on_ball(d33):
    ball = d33.ball(1)
    res = sym.quotient_cog(ball, sym.type_permutation_group(d33))
    assert res.report.ok
    assert res.report.sheet_count == 2
    assert res.quotient.subdivided


def _has_inversions(clump, autos):
    """Reference: some automorphism fixes a scwol vertex and moves the end
    of an edge out of it, found by listing every automorphism's fixed faces."""
    scwol = clump.scwol()
    for h in autos:
        fixed = {f for f in scwol.vertices if h.face_image(f) == f}
        if any(src in fixed and dst not in fixed for src, dst in scwol.edges):
            return True
    return False


def _cyclic_subgroup(perm):
    """The powers of a type permutation, sorted."""
    identity = tuple(range(len(perm)))
    out, power = [identity], perm
    while power != identity:
        out.append(power)
        power = tuple(perm[g] for g in power)
    return sorted(out)


def test_subdivision_follows_from_the_group(suite):
    # the base is subdivided exactly when the group has a nonidentity
    # permutation: the inversion search agrees on the full group and each
    # of its cyclic subgroups, on every suite ball at radius 0-2 (hex3 to
    # radius 1), and so does QuotientCog on the one-chamber balls
    cases = 0
    for name, bld, _ in suite:
        group = sym.type_permutation_group(bld)
        identity = tuple(range(len(bld.gp.qs)))
        subgroups = {tuple(group)} | {tuple(_cyclic_subgroup(p)) for p in group}
        for n in range(2 if name == "hex3" else 3):
            ball = bld.ball(n)
            autos = dict(
                zip(group, sym.automorphism_group_from_permutations(ball, group))
            )
            for sub in subgroups:
                rule = any(p != identity for p in sub)
                found = _has_inversions(ball, [autos[p] for p in sub])
                assert found == rule, (name, n, sub)
                if n == 0:
                    assert sym.QuotientCog(ball, sub).subdivided == rule
                cases += 1
    assert cases == 76


def test_quotient_group_table_equals_whole_ball_table(suite, d33):
    # The products, inverses and identity read off the type permutations
    # against those found by composing whole chamber maps: every suite ball
    # at radius 0-2 under its full group (hex2 and hex3 under the dihedral
    # group of order 12, where composing in the wrong order would show), and
    # d33 r1 under its swap group, listed out of order.
    cases = [
        (bld.ball(n), sym.type_permutation_group(bld))
        for name, bld, _ in suite
        for n in range(3)
    ]
    cases.append((d33.ball(1), [(1, 0), (0, 1)]))
    orders = set()
    for ball, perms in cases:
        qc = sym.QuotientCog(ball, perms)
        assert [h.perm for h in qc.autos] == sorted(perms)
        assert (qc._comp, qc._inv, qc._id) == whole_ball_group_table(qc.autos)
        orders.add(len(qc.autos))
    assert orders == {1, 2, 12}


def test_quotient_composes_no_whole_ball_map(suite, monkeypatch):
    # hex2 r1 under its 12 type permutations: the group table is the
    # permutations' own, so no chamber map is composed, and each
    # permutation's automorphism is built once
    def refuse(self, other):
        raise AssertionError("a chamber map was composed")

    built = []
    induced = sym.from_type_permutation

    def counted(clump, perm):
        built.append(perm)
        return induced(clump, perm)

    monkeypatch.setattr(sym.BallAutomorphism, "compose", refuse)
    monkeypatch.setattr(sym, "from_type_permutation", counted)
    bld = {name: bld for name, bld, _ in suite}["hex2"]
    perms = sym.type_permutation_group(bld)
    result = sym.quotient_cog(bld.ball(1), perms)
    assert result.report.ok
    assert len(perms) == 12 and built == perms


def test_composed_quotient_covering(d33):
    # unfolding covering composed with the chamber quotient still verifies,
    # with multiplicative sheet count
    from rabuild.covering import build_labeling

    final, records = unfold_steps_to_ball(d33, 1)
    lab = build_labeling(final, records)
    perms = sym.type_permutation_group(d33)
    report = sym.composed_quotient_covering(lab, perms)
    assert report.ok
    assert report.sheet_count == len(final.chambers) * len(perms)


# -- the quotient's orbit tables and its memoized covering check --------------


def _full_quotient(bld, n):
    """The quotient of the radius-n ball under every type permutation."""
    ball = bld.ball(n)
    return sym.QuotientCog(ball, sym.type_permutation_group(bld))


def _decoders(clump):
    """Cell and edge decoders: a cell's face numbers -> its faces."""
    faces = clump.scwol().vertices

    def cell(c):
        return tuple(faces[i] for i in c)

    def edge(e):
        return cell(e[0]), cell(e[1])

    return cell, edge


def _face_tuple_order(cells):
    """Face-tuple cells, sorted by their faces' ``face_key``s."""
    return sorted(cells, key=lambda c: tuple(map(face_key, c)))


def _reference_orbits(qc):
    """The orbit tables of ``qc``, read off face-tuple images.

    Every cell is decoded to its tuple of faces, and the cells are put in
    ``face_key`` order.  Each cell's images under the automorphisms are
    tuples of faces, and the orbit representatives, transporters,
    stabilizers, edge orbits and the quotient's composition and twists are
    chosen among them through positions in that order, with no integer
    coding.  Each edge orbit's representative edge fixes its transporter
    ``kappa``; the quotient keeps only that.
    """
    cell, edge = _decoders(qc.clump)
    vertices = _face_tuple_order(map(cell, qc.cells.scwol.face_chambers))
    position = {c: i for i, c in enumerate(vertices)}
    images = {
        c: tuple(tuple(h.face_image(f) for f in c) for h in qc.autos)
        for c in vertices
    }

    def edge_key(e):
        return (position[e[0]], position[e[1]])

    rep_of, k_to_rep = {}, {}
    for c in vertices:
        rep = min(images[c], key=position.__getitem__)
        rep_of[c] = rep
        k_to_rep[c] = images[c].index(rep)
    reps = sorted(set(rep_of.values()), key=position.__getitem__)
    stab = {
        rep: tuple(i for i, x in enumerate(images[rep]) if x == rep) for rep in reps
    }
    edge_orbit, least_from = {}, {}
    for e in sorted(map(edge, qc.cells.scwol.edge_set), key=edge_key):
        b = min(zip(images[e[0]], images[e[1]]), key=edge_key)
        edge_orbit[e] = b
        least_from.setdefault((b, e[0]), e)
    z_edges = tuple(sorted(set(edge_orbit.values()), key=edge_key))
    edge_rep = {b: least_from[(b, rep_of[b[0]])] for b in z_edges}
    kappa = {b: k_to_rep[edge_rep[b][1]] for b in z_edges}
    into = {}
    for b in z_edges:
        into.setdefault(rep_of[b[1]], []).append(b)
    comp, inv = qc._comp, qc._inv
    z_compose, z_twist = {}, {}
    for b in z_edges:
        for bp in into.get(rep_of[b[0]], ()):
            start, end = edge_rep[b]
            kp_inv = inv[kappa[bp]]
            assert images[start][kp_inv] == edge_rep[bp][1]
            bb = edge_orbit[(edge_rep[bp][0], images[end][kp_inv])]
            z_compose[(b, bp)] = bb
            z_twist[(b, bp)] = ((), comp[(kappa[b], comp[(kappa[bp], inv[kappa[bb]])])])
    return {
        "rep_of": rep_of, "k_to_rep": k_to_rep, "stab": stab,
        "edge_orbit": edge_orbit, "z_edges": z_edges, "kappa": kappa, "z_compose": z_compose, "z_twist": z_twist,
    }


def _decoded_orbits(qc):
    """The orbit tables of ``qc`` in order, every cell decoded to its faces."""
    cell, edge = _decoders(qc.clump)

    def pair(p):
        return edge(p[0]), edge(p[1])

    def same(x):
        return x

    keys_values = {
        "rep_of": (cell, cell), "k_to_rep": (cell, same), "stab": (cell, same),
        "edge_orbit": (edge, edge), "kappa": (edge, same),
        "z_compose": (pair, edge), "z_twist": (pair, same),
    }
    tables = {
        name: {key(k): value(v) for k, v in getattr(qc, name).items()}
        for name, (key, value) in keys_values.items()
    }
    tables["z_edges"] = tuple(map(edge, qc.z_edges))
    return tables


def test_orbit_tables_match_face_tuple_reference(suite):
    # Every suite ball to radius 2 (hex3 r2: 2,371 orbit vertices and 6,480
    # orbit edges), and free3 (configs/tree_234.json) at radius 3.  The
    # tables are compared in order, which fixes check_covering's order.
    cases = [(name, bld, n) for name, bld, _ in suite for n in range(3)]
    cases += [(name, bld, 3) for name, bld, _ in suite if name == "free3"]
    for name, bld, n in cases:
        qc = _full_quotient(bld, n)
        got_tables = _decoded_orbits(qc)
        for table, want in _reference_orbits(qc).items():
            got = got_tables[table]
            if isinstance(want, dict):
                got, want = list(got.items()), list(want.items())
            assert got == want, (name, n, table)


def test_cell_order_is_face_key_order(suite):
    # The lemma of ``_cell_cog``: cells in plain tuple order, and edges in
    # the order of their ends, follow the faces' ``face_key``s, on every
    # suite ball to radius 2, subdivided and not.
    for name, bld, _ in suite:
        for n in range(3):
            ball = bld.ball(n)
            cell, edge = _decoders(ball)
            for subdivide in (False, True):
                scwol = sym._cell_cog(ball, subdivide).scwol
                cells = list(map(cell, scwol.vertices))
                assert cells == _face_tuple_order(cells), (name, n, subdivide)
                edges = list(map(edge, scwol.edges))
                keyed = [
                    (tuple(map(face_key, s)), tuple(map(face_key, t)))
                    for s, t in edges
                ]
                assert keyed == sorted(keyed), (name, n, subdivide)


def _vertex_keys(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge):
    """Each vertex key check_covering reads -> the vertices that have it.

    The target enters through its local data at f(v), and f(a) through its
    position among the in-edges of f(v).
    """
    by_key = {}
    for v in src.vertices():
        fv = f_vertex[v]
        key = (src.group(v), tgt.local_data(fv), phi_vertex[v])
        into = tgt.in_edges(fv)
        for a in src.in_edges(v):
            key += (src.group(a[0]), phi_vertex[a[0]], into.index(f_edge[a]))
            key += (phi_edge[a],)
        by_key.setdefault(key, []).append(v)
    return by_key


def test_quotient_covering_memo_equals_unshared_reference(suite):
    # Every suite system at radius 1, and the quotients of perfbench's
    # symmetry workload: hex2 r1, free3 (tree_234) r3 and mixed r2.
    from tests.test_covering import _same_report

    buildings = {name: bld for name, bld, _ in suite}
    cases = [(name, 1) for name in buildings] + [("free3", 3), ("mixed", 2)]
    for name, n in cases:
        qc = _full_quotient(buildings[name], n)
        report = _same_report((qc.cells, qc, *sym._quotient_morphism(qc)))
        assert report.ok and report.sheet_count == len(qc.autos), (name, n)


def test_doctored_local_map_in_a_shared_key_names_its_cell(suite):
    # hex2 r1: the last cell of the most frequent vertex key whose orbit
    # representative has a nontrivial stabilizer gets another map of its
    # local group into the same target group, x -> (k.x, s) with s != 1
    # in that stabilizer.  The checks must name that cell: a key without
    # the map's value would hit the verdict of the cells before it.
    from tests.test_covering import _same_report

    qc = _full_quotient({name: bld for name, bld, _ in suite}["hex2"], 1)
    src = qc.cells
    f_vertex, f_edge, phi_vertex, phi_edge = sym._quotient_morphism(qc)
    shared = [
        cells
        for cells in _vertex_keys(src, qc, f_vertex, f_edge, phi_vertex, phi_edge).values()
        if len(qc.stab[f_vertex[cells[-1]]]) > 1
    ]
    cells = max(shared, key=len)
    assert len(cells) == 15
    c = cells[-1]
    s = next(s for s in qc.stab[f_vertex[c]] if s != qc._id)
    doctored = dict(phi_vertex)
    doctored[c] = sym._IntoRep(phi_vertex[c].relabel, s)
    report = _same_report((src, qc, f_vertex, f_edge, doctored, phi_edge))
    assert not report.ok
    assert {f["kind"] for f in report.failures} == {"edge-diagram"}
    for f in report.failures:
        assert c in f["where"], f


def test_doctored_target_psi_in_shared_local_data_names_its_cells(suite):
    # hex3 r1: among the representatives whose local data an earlier one
    # shares, the last with an in-edge from a nontrivial group (of exponent
    # 3) gets that in-edge's monomorphism followed by inversion.  The
    # target's local data must read the doctored map: the edge diagrams
    # fail at the 12 source edges onto that in-edge, and only there, as in
    # the unshared reference.
    from tests.test_covering import _same_report

    qc = _full_quotient({name: bld for name, bld, _ in suite}["hex3"], 1)
    gp = qc.building.gp
    first, picked = {}, None
    for w in qc.vertices():
        if first.setdefault(qc.local_data(w), w) == w:
            continue
        for b in qc.in_edges(w):
            if qc.group(qc.ends(b)[0])[0]:
                picked = b
    assert picked is not None
    f_vertex, f_edge, phi_vertex, phi_edge = sym._quotient_morphism(qc)
    doctored = copy.copy(qc)
    doctored._psi = dict(qc._psi)
    relabel, conj = qc._psi[picked]
    doctored._psi[picked] = (lambda g: gp.inv(relabel(g)), conj)
    report = _same_report((qc.cells, doctored, f_vertex, f_edge, phi_vertex, phi_edge))
    diagrams = [f["where"] for f in report.failures if f["kind"] == "edge-diagram"]
    assert diagrams == [a for a in qc.cells.edges() if f_edge[a] == picked]
    assert len(diagrams) == 12
    assert {f["kind"] for f in report.failures} == {"edge-diagram"}


def test_each_quotient_vertex_key_is_checked_once(suite, monkeypatch):
    # hex2 r1: 553 cells with 98 distinct vertex keys, whose first cells
    # have 734 in-edges with 358 distinct in-edge keys; free3 (tree_234)
    # r3, under the trivial group: 340 cells, each its own orbit, with 7
    # vertex keys and 12 in-edge keys.  Each vertex key's checks run once,
    # and each in-edge key's edge diagram once.
    from rabuild import covering
    from tests.test_covering import _in_edge_keys

    calls = {}

    def counted(name):
        helper = getattr(covering, name)

        def run(*args):
            calls[name] = calls.get(name, 0) + 1
            return helper(*args)

        monkeypatch.setattr(covering, name, run)

    for name in ("_check_vertex", "_check_edge"):
        counted(name)
    buildings = {name: bld for name, bld, _ in suite}
    cases = (("hex2", 1, 553, 98, 734, 358), ("free3", 3, 340, 7, 12, 12))
    for name, n, cells, keys, in_edges, edge_keys in cases:
        calls.clear()
        ball = buildings[name].ball(n)
        result = sym.quotient_cog(ball, sym.type_permutation_group(ball.building))
        assert result.report.ok
        qc = result.quotient
        src = qc.cells
        data = sym._quotient_morphism(qc)
        first = [vs[0] for vs in _vertex_keys(src, qc, *data).values()]
        assert len(src.vertices()) == cells and len(first) == keys, name
        assert sum(len(src.in_edges(v)) for v in first) == in_edges, name
        assert len(_in_edge_keys(src, qc, *data)) == edge_keys, name
        assert calls == {"_check_vertex": keys, "_check_edge": edge_keys}, name


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
    # nerve rather than the commutation graph, listed in full, against the
    # per-vertex search of is_rigid on 40 random graphs up to rank 6
    from rabuild.coxeter import spherical_poset

    rng = random.Random(5)
    systems = [
        CoxeterSystem(["a", "b", "c"]),
        hexagon_system(),
        CoxeterSystem(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
    ]
    for _ in range(40):
        rank = rng.randint(2, 6)
        names = [f"x{i}" for i in range(rank)]
        pairs = [
            p for p in itertools.combinations(names, 2) if rng.random() < 0.4
        ]
        systems.append(CoxeterSystem(names, pairs))
    verdicts = set()
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

        assert len(perms) == len(nerve_automorphisms(sysm))
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
        verdicts.add(flexible)
    assert verdicts == {True, False}


def test_rigidity_at_the_rank_cap_lists_no_group():
    # rank 10: the free system and the complete graph each have 10!
    # automorphisms, the 10-cycle 20; the search stops per vertex
    rank = 10
    names = [f"x{i}" for i in range(rank)]
    cycle = [(names[i], names[(i + 1) % rank]) for i in range(rank)]
    assert not sym.is_rigid(CoxeterSystem(names))
    assert sym.is_rigid(CoxeterSystem(names, itertools.combinations(names, 2)))
    assert sym.is_rigid(CoxeterSystem(names, cycle))
    bld = Building(CoxeterSystem(names), {s: 2 for s in names})
    verdict = sym.classify_discreteness(bld)
    assert verdict.case == "2" and not verdict.nerve_rigid


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
    s = element(d23.gp, [("s", 1)])
    for f in frags:
        assert () in f.chambers and s in f.chambers
        assert len(f.chambers) == 3


def test_apartment_fragments_brute_force_oracle(square23):
    # enumerate all chamber subsets and keep the distance-faithful sections
    bld = square23
    ball = bld.ball_chambers(1)
    words = sorted(reference_thin_ball(bld.system, 1))
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
    for w in reference_thin_ball(sysm, n):
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


def test_apartment_search_matches_the_delta_search(suite):
    # The search over precomputed chambers against the gp.delta search it
    # replaced: the same fragments in the same order, on every suite system
    # at radius 0-3 and every shipped config at radius 0-2, wherever the
    # count is under the cap.  Each fragment also passes the direct check,
    # which reads adjacency through gp.delta.
    cases = [(name, bld, n) for name, bld, _ in suite for n in range(4)]
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.json")):
        bld = load_config(str(path)).building()
        cases += [(path.stem, bld, n) for n in range(3)]
    checked = 0
    for name, bld, n in cases:
        if _fragment_count(bld, n) > sym.APARTMENT_COUNT_CAP:
            continue
        got = [f.chambers for f in sym.apartments_through_base(bld, n)]
        assert got == reference_apartments(bld, n), (name, n)
        assert all(sym.is_apartment_fragment(bld, n, f) for f in got), (name, n)
        checked += 1
    assert checked == 39


def test_fragment_validator_accepts_exactly_the_listed_fragments(suite):
    # Every set one step from a listed fragment: one chamber swapped for
    # another over the same word, or one chamber dropped.  The validator
    # checks adjacency at each chamber's right descents only; it must accept
    # such a set exactly when the enumeration lists it.  Every suite system
    # at every radius to its test radius, wherever the count is under the cap.
    checked = accepted = 0
    for name, bld, nmax in suite:
        for n in range(nmax + 1):
            if _fragment_count(bld, n) > sym.APARTMENT_COUNT_CAP:
                continue
            frags = {f.chambers for f in sym.apartments_through_base(bld, n)}
            over = {}
            for c in bld.ball_chambers(n):
                over.setdefault(generator_word(bld.system, c), []).append(c)
            near = set()
            for f in frags:
                for c in f:
                    rest = f - {c}
                    near.add(rest)
                    near.update(
                        rest | {d} for d in over[generator_word(bld.system, c)] if d != c
                    )
            for chambers in near:
                ok = sym.is_apartment_fragment(bld, n, chambers)
                assert ok == (chambers in frags), (name, n, sorted(chambers))
                accepted += ok
            checked += len(near)
    assert (checked, accepted) == (32252, 320)


def test_apartment_cap_refuses_before_enumerating(hex3, monkeypatch):
    # hex3 at radius 2 has 2**36 fragments: refused once the ball's 685
    # chambers are listed, before a clump is built or any fragment is made
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(sym, "ApartmentFragment", refuse)
    monkeypatch.setattr(Building, "ball", refuse)
    with pytest.raises(SizeCapError, match="apartment enumeration exceeded its cap"):
        sym.apartments_through_base(hex3, 2)


# -- sheet swaps and witnesses ----------------------------------------------


def test_sheet_swap_rejects_single_sheet(d23):
    clump = d23.ball(0)
    sside = [k for k in clump.sides() if k.gen == 0][0]  # q_s = 2
    grown = unfold(clump, sside)
    with pytest.raises(DomainError):
        sym.sheet_swap(clump, grown, 0, 1)


def test_sheet_swap_involution(d23):
    clump = d23.ball(0)
    tside = [k for k in clump.sides() if k.gen == 1][0]  # q_t = 3
    grown = unfold(clump, tside)
    h = sym.sheet_swap(clump, grown, 0, 1)
    assert h.verify() == []
    assert h.mapping[()] == ()
    hh = h.compose(h)
    assert (hh.perm, hh.mapping) == _identity_on(clump, 2)


def test_sheet_swap_fixes_old_clump(d33):
    # a swap at step k fixes every chamber born before step k, on the ball
    ball, records = unfold_steps_to_ball(d33, 2)
    before = {()}
    for grown in records:
        h = sym.sheet_swap(ball, grown, 0, 1)
        for c in before:
            assert h.mapping[c] == c
        assert h.mapping != _identity_on(ball, 2)[1]
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
                blocks = grown.sheets
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
                    ext = sym.extend_to_ball(partial, ball)
                    assert (ext.perm, ext.mapping) == (h.perm, h.mapping), (name, n, i, j)
                    count += 1
                before |= grown.chambers
    assert count == 314


def test_witness_identity(square23):
    frags = sym.apartments_through_base(square23, 1)
    ball, records = unfold_steps_to_ball(square23, 1)
    h = sym.transitivity_witness(ball, records, frags[0], frags[0])
    assert (h.perm, h.mapping) == _identity_on(ball, 2)


def test_witness_rejects_non_fragment(d23):
    frags = sym.apartments_through_base(d23, 1)
    s = element(d23.gp, [("s", 1)])
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
    thin_listings = []
    original = sym.is_apartment_fragment
    heaps = Building._heaps

    def counting(building, n, chambers):
        calls.append(chambers)
        return original(building, n, chambers)

    def counting_heaps(self, n, thin=False):
        if thin:
            thin_listings.append(n)
        return heaps(self, n, thin)

    monkeypatch.setattr(sym, "is_apartment_fragment", counting)
    monkeypatch.setattr(Building, "_heaps", counting_heaps)
    config = str(Path(__file__).parent.parent / "configs" / "d23.json")
    assert main(["witness", config, "--radius", "3"]) == 0
    fragments = json.loads(capsys.readouterr().out)["fragments"]
    assert fragments == 8
    assert len(calls) == len(set(calls)) == fragments
    assert thin_listings == [3]


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
    t = element(square23.gp, [("t", 1)])
    t2 = element(square23.gp, [("t", 2)])
    assert h.mapping[t] == t2
    assert h.mapping[()] == ()
    assert h.perm == (0, 1)


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


def test_star_witnesses_compose_to_every_pair(suite):
    # the witness command's certificate: from the star h_j (fragment 0 onto
    # fragment j), h_j ∘ h_i⁻¹ carries fragment i onto fragment j, fixes the
    # base chamber and is a verified automorphism, for every ordered pair
    checked = 0
    for name, bld, _ in suite:
        for n in range(3):
            try:
                frags = sym.apartments_through_base(bld, n)
            except SizeCapError:
                continue
            if len(frags) > 40:
                continue
            ball, records = unfold_steps_to_ball(bld, n)
            star = [sym.transitivity_witness(ball, records, frags[0], f) for f in frags]
            for (fi, hi), (fj, hj) in itertools.product(zip(frags, star), repeat=2):
                h = hj.compose(inverse_automorphism(hi))
                assert frozenset(h.mapping[c] for c in fi.chambers) == fj.chambers
                assert h.mapping[()] == ()
                assert h.verify() == [], (name, n)
                checked += 1
    assert checked == 402


def test_failed_sheet_swap_names_the_swap(d23):
    # the swap of the t-sheets at the base, applied to a clump that holds ts
    # but not t²s: the closed form carries ts out of the clump, and the
    # failure names the sheets, the side's type and its least mirror (exit 6)
    _, records = unfold_steps_to_ball(d23, 2)
    grown = next(g for g in records if g.side.gen == 1 and g.side.mirrors == ((),))
    clump = next(
        c for c in clumps_along(d23, records)
        if element(d23.gp, [("t", 1), ("s", 1)]) in c.chambers
    )
    assert element(d23.gp, [("t", 2), ("s", 1)]) not in clump.chambers
    with pytest.raises(InternalError) as info:
        sym.sheet_swap(clump, grown, 0, 1)
    assert str(info.value) == (
        "sheet swap 0,1 at the side of type t through mirror () is not an "
        "automorphism: not a bijection of the clump's chambers"
    )
    assert info.value.exit_code == 6


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
            chambers = bld.ball_chambers(n)
            if len(chambers) > 120:
                continue
            ball = bld.ball(n)
            order = sorted(chambers, key=lambda c: (len(c), c))
            perms = sym.type_permutation_group(bld)
            for h in sym.automorphism_group_from_permutations(ball, perms):
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
    h = sym.BallAutomorphism(bld.ball(0), {(): ()}, (1, 0, 2))
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
        for i, j in itertools.permutations(range(len(grown.sheets)), 2):
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
