import itertools

import pytest

from rabuild.clump import Clump, chamber_clump
from rabuild.cog import (
    ComplexOfGroups,
    Scwol,
    is_admissible,
    local_development,
    scwol_to_dot,
)
from rabuild.covering import check_covering, covering_morphism
from rabuild.errors import DomainError, InternalError
from tests.conftest import clumps_along


def l_clump(tree_product):
    """Three chambers of the tree product meeting at one corner in an L."""
    gp = tree_product.gp
    i_s1 = tree_product.system.index["s1"]
    i_t1 = tree_product.system.index["t1"]
    return Clump(
        tree_product, {(), ((i_s1, 1),), ((i_t1, 1),)}
    )


def test_scwol_single_chamber_tree(d23):
    scwol = chamber_clump(d23).scwol()
    assert len(scwol.vertices) == 3  # empty type plus one per mirror
    assert len(scwol.edges) == 2


def test_scwol_single_chamber_hexagon(hex3):
    scwol = chamber_clump(hex3).scwol()
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
    cog = chamber_clump(square23).cog()
    top = (square23.system.mask(["s", "t"]), ())
    edges = {e for e in cog.scwol.edge_set if e != ((0, ()), top)}
    broken = ComplexOfGroups(
        square23, Scwol(cog.scwol.face_chambers, edges), cog.local_masks
    )
    labels = dict.fromkeys(edges, (0, 0))
    with pytest.raises(InternalError, match="missing composite edge"):
        check_covering(*covering_morphism(broken, cog, labels))


def test_canonical_cog_single_chamber(hex3):
    cog = chamber_clump(hex3).cog()
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


def test_local_development_single_chamber(hex3):
    cog = chamber_clump(hex3).cog()
    corner = hex3.face_of((), hex3.system.mask(["s1", "s2"]))
    dev = local_development(cog, corner)
    assert dev.complete and dev.is_join
    assert sorted(dev.cardinalities.values()) == [3, 3]
    assert dev.developed_count == 9


def test_local_development_interior(square23):
    cog = square23.ball(1).cog()
    corner = square23.face_of((), square23.system.mask(["s", "t"]))
    dev = local_development(cog, corner)
    assert dev.complete
    assert dev.chamber_count == 6


def test_local_development_requires_maximal_type(hex3):
    cog = chamber_clump(hex3).cog()
    mirror = hex3.face_of((), hex3.system.mask(["s1"]))
    with pytest.raises(DomainError):
        local_development(cog, mirror)


def test_local_development_not_join_on_bad_clump(tree_product):
    clump = l_clump(tree_product)
    cog = clump.cog()
    sysm = tree_product.system
    corner = tree_product.face_of((), sysm.mask(["s1", "t1"]))
    dev = local_development(cog, corner)
    assert not dev.is_join
    assert not dev.complete


def test_admissibility_verdicts(d23, tree_product, suite):
    assert is_admissible(chamber_clump(d23)).admissible
    bad = is_admissible(l_clump(tree_product))
    assert not bad.admissible
    assert bad.variant_mismatches  # boundary-type readings disagree here


def test_chamber_count_law(suite_traces):
    # at every vertex of an unfolded clump, the chambers on it number the
    # product of the parameters in the free (non-boundary) directions
    for name, (final, records) in suite_traces.items():
        bld = final.building
        # clumps_along yields one clump in each state, so each is read in turn
        states = itertools.chain(
            [chamber_clump(bld)], clumps_along(bld, records[:3]), [final]
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
                assert all(clump.panel_count(g, p) == 1 for p in panels), name
                assert len(panels) == free, name


def test_center_uniqueness_after_unfolding(suite_traces):
    # a new vertex on several chambers has one neighbor of its free type
    for name, (final, records) in suite_traces.items():
        old_faces = set(chamber_clump(final.building).scwol().vertices)
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
    cog = chamber_clump(d23).cog()
    dot = scwol_to_dot(cog)
    assert dot.startswith("digraph")
    assert dot == scwol_to_dot(cog)
    assert "Z3" in dot and "Z2" in dot
