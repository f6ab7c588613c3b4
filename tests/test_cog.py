import itertools

import pytest

from rabuild import cog as cog_mod
from rabuild.building import Building
from rabuild.cog import ComplexOfGroups, Scwol, is_admissible, scwol_to_dot
from rabuild.coxeter import CoxeterSystem
from rabuild.covering import check_covering, covering_morphism
from rabuild.errors import InternalError
from tests.conftest import clumps_along, reference_clump


def l_clump(tree_product):
    """Three chambers of the tree product meeting at one corner in an L."""
    gp = tree_product.gp
    i_s1 = tree_product.system.index["s1"]
    i_t1 = tree_product.system.index["t1"]
    return reference_clump(
        tree_product, {(), ((i_s1, 1),), ((i_t1, 1),)}
    )


def test_scwol_single_chamber_tree(d23):
    scwol = d23.ball(0).scwol()
    assert len(scwol.vertices) == 3  # empty type plus one per mirror
    assert len(scwol.edges) == 2


def test_scwol_single_chamber_hexagon(hex3):
    scwol = hex3.ball(0).scwol()
    types = sorted(bin(v[0]).count("1") for v in scwol.vertices)
    assert types == [0] + [1] * 6 + [2] * 6
    assert len(scwol.edges) == 6 + 6 + 12  # center->mirrors, center->corners, mirror->corner


def test_scwol_edge_census_ball1(d23):
    # independent face census: count inclusions by brute force
    ball = d23.ball(1)
    gp = d23.gp
    faces = set()
    for c in ball.chambers:
        for tmask in d23.spherical_masks:
            faces.add((tmask, gp.strip(c, tmask)))
    edges = set()
    for f1 in faces:
        for f2 in faces:
            if f1[0] != f2[0] and f1[0] & f2[0] == f1[0]:
                if gp.strip(f1[1], f2[0]) == f2[1]:
                    #面 f1 coset inside f2 coset; witnessed by a clump chamber?
                    members1 = {
                        c for c in gp.subgroup_elements(f1[0])
                    }
                    if any(
                        gp.mul(f1[1], x) in ball.chambers for x in members1
                    ):
                        edges.add((f1, f2))
    scwol = ball.scwol()
    assert set(scwol.vertices) == faces
    assert set(scwol.edges) == edges


def test_scwol_axioms(d23, hex3):
    for bld, n in ((d23, 2), (hex3, 1)):
        scwol = bld.ball(n).scwol()
        for src, dst in scwol.edges:
            assert src != dst
        for a, b, ab in scwol.composable_pairs():
            assert ab in scwol.edges
            assert ab[0] == b[0] and ab[1] == a[1]


def test_missing_composite_edge_is_refused(square23):
    # the one-chamber scwol of two commuting types without its edge from the
    # base chamber to the {s, t}-face: {s} -> {s, t} after {} -> {s} has no
    # composite
    cog = square23.ball(0).cog()
    top = (square23.system.mask(["s", "t"]), ())
    edges = {e for e in cog.scwol.edge_set if e != ((0, ()), top)}
    broken = ComplexOfGroups(
        square23, Scwol(cog.scwol.face_chambers, edges), cog.local_masks
    )
    labels = dict.fromkeys(edges, (0, 0))
    with pytest.raises(InternalError, match="missing composite edge"):
        check_covering(*covering_morphism(broken, cog, labels))


def test_canonical_cog_single_chamber(hex3):
    cog = hex3.ball(0).cog()
    for face in cog.scwol.vertices:
        assert cog.local_masks[face] == face[0]  # every mirror is boundary


def test_canonical_cog_interior_trivial(square23):
    cog = square23.ball(1).cog()
    for face in cog.scwol.vertices:
        assert cog.local_masks[face] == 0


def test_nonadmissible_clump_local_groups(tree_product):
    clump = l_clump(tree_product)
    cog = clump.cog()
    sysm = tree_product.system
    corner = tree_product.face_of((), sysm.mask(["s1", "t1"]))
    # both directions carry a boundary mirror through the corner
    assert cog.local_masks[corner] == sysm.mask(["s1", "t1"])


def test_admissible_single_chamber(hex3):
    report = is_admissible(hex3.ball(0))
    assert report.ok and report.failures == []


def test_admissible_interior(square23):
    report = is_admissible(square23.ball(1))
    assert report.ok and report.failures == []


def test_inadmissible_l_clump_fails_at_its_corner(tree_product):
    sysm = tree_product.system
    corner = tree_product.face_of((), sysm.mask(["s1", "t1"]))
    report = is_admissible(l_clump(tree_product))
    assert not report.ok
    development = [f["where"] for f in report.failures if f["kind"] == "development"]
    assert development == [corner]


def test_admissibility_verdicts(d23, tree_product, suite):
    assert is_admissible(d23.ball(0)).ok
    bad = is_admissible(l_clump(tree_product))
    assert not bad.ok
    # the boundary-type readings disagree here, after the development failures
    kinds = [f["kind"] for f in bad.failures]
    assert kinds[0] == "development" and "boundary-type-variants" in kinds
    assert kinds == sorted(kinds, key=lambda k: k != "development")


def _pairwise_commuting_chamber():
    """a, b and c pairwise commute: the radius-zero clump of their building."""
    sysm = CoxeterSystem(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    return Building(sysm, {"a": 2, "b": 2, "c": 2}).ball(0)


def test_nesting_failure_names_its_edge():
    # with the edge from the a-panel to the chamber's whole face dropped,
    # the a-panel no longer marks that face, and the first edge (in scwol
    # order) whose local masks fail to nest is {a, b} -> {a, b, c}
    clump = _pairwise_commuting_chamber()
    clump.scwol().edge_set.discard(((0b001, ()), (0b111, ())))
    with pytest.raises(InternalError) as info:
        clump.cog()
    assert str(info.value) == (
        "local groups do not include along the edge ((3, ()), (7, ())); "
        "boundary types failed to nest"
    )


def test_admissibility_disagreement_names_its_first_face(monkeypatch):
    # the every-panel reading, doctored to find an interior a-panel on the
    # {a, b} face of an admissible clump: the disagreement is an internal
    # error that names that face
    clump = _pairwise_commuting_chamber()
    real = cog_mod._panel_types

    def doctored(scwol, boundary):
        types = real(scwol, boundary)
        if not boundary:
            types[0b011, ()] |= 0b001
        return types

    clump.cog()
    monkeypatch.setattr(cog_mod, "_panel_types", doctored)
    with pytest.raises(InternalError) as info:
        is_admissible(clump)
    assert str(info.value) == (
        "boundary-type readings disagree on an admissible clump at face (3, ())"
    )


def test_chamber_count_law(suite_traces):
    # at every vertex of an unfolded clump, the chambers on it number the
    # product of the parameters in the free (non-boundary) directions
    for name, (final, records) in suite_traces.items():
        bld = final.building
        # clumps_along yields one clump in each state, so each is read in turn
        states = itertools.chain(
            [bld.ball(0)], clumps_along(bld, records[:3]), [final]
        )
        for clump in states:
            cog = clump.cog()
            for face in cog.scwol.vertices:
                tmask = face[0]
                bmask = cog.local_masks[face]
                expected = 1
                for g in range(len(bld.gp.qs)):
                    if (tmask >> g) & 1 and not (bmask >> g) & 1:
                        expected *= bld.gp.qs[g]
                assert len(cog.scwol.face_chambers[face]) == expected, name


def test_mirror_containment_law(suite_traces):
    # boundary direction at a vertex: every panel through it is boundary,
    # and they number the product over the free directions
    for name, (final, _) in suite_traces.items():
        clump = final
        bld = clump.building
        cog = clump.cog()
        counts = clump.mirror_counts()
        for face in cog.scwol.vertices:
            tmask, bmask = face[0], cog.local_masks[face]
            members = cog.scwol.face_chambers[face]
            free = 1
            for g in range(len(bld.gp.qs)):
                if (tmask >> g) & 1 and not (bmask >> g) & 1:
                    free *= bld.gp.qs[g]
            for g in range(len(bld.gp.qs)):
                if not (bmask >> g) & 1:
                    continue
                panels = {bld.gp.strip(c, 1 << g) for c in members}
                assert all(counts.get((g, p)) == 1 for p in panels), name
                assert len(panels) == free, name


def test_center_uniqueness_after_unfolding(suite_traces):
    # a new vertex on several chambers has one neighbor of its free type
    for name, (final, records) in suite_traces.items():
        old_faces = set(final.building.ball(0).scwol().vertices)
        for clump in clumps_along(final.building, records[:6]):
            cog = clump.cog()
            for face in cog.scwol.vertices:
                if face in old_faces:
                    continue
                members = cog.scwol.face_chambers[face]
                if len(members) < 2 or not cog.local_masks[face]:
                    continue
                free_mask = face[0] & ~cog.local_masks[face]
                below = [
                    e[0]
                    for e in cog.scwol.in_edges.get(face, ())
                    if e[0][0] == free_mask
                ]
                assert len(below) == 1, name
            old_faces = set(cog.scwol.vertices)


def test_dot_export(d23):
    cog = d23.ball(0).cog()
    dot = scwol_to_dot(cog)
    assert dot.startswith("digraph")
    assert dot == scwol_to_dot(cog)
    assert "Z3" in dot and "Z2" in dot
