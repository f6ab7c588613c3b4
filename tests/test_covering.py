import random

import pytest

from rabuild import covering
from rabuild.building import Building
from rabuild.clump import unfold_steps_to_ball
from rabuild.coxeter import CoxeterSystem
from rabuild.cog import ComplexOfGroups
from rabuild.covering import (
    EdgeLabeling,
    build_covering,
    build_labeling,
    check_covering,
    coset_projections,
    covering_morphism,
    covering_to_json,
    label_initial,
    label_unfold,
    lattice_index,
    verify_labeling,
)
from rabuild.errors import DomainError, InternalError, VerificationError
from tests.conftest import clumps_along, corrupted_labeling, element


def test_label_initial_zero(d23):
    y0 = d23.ball(0)
    lab = label_initial(y0)
    assert set(lab.labels) == set(y0.scwol().edges)
    assert all(v == (0, 0) for v in lab.labels.values())
    report = verify_labeling(lab)
    assert report.ok


def test_initial_covering_identity(d23):
    lab = label_initial(d23.ball(0))
    cov = build_covering(lab)
    assert cov.covering_report.sheet_count == 1


def test_label_unfold_assigns_remaining_components(d23):
    # one unfolding along the t-side: the two new chambers are distinct
    # sheets and receive the two nonzero exponents
    clump = d23.ball(0)
    tside = [k for k in clump.sides() if k.gen == 1][0]
    from rabuild.clump import unfold

    labels = label_initial(clump).labels
    label_unfold(d23, labels, unfold(clump, tside))
    lab = EdgeLabeling(clump, labels)
    new_edges = {e: v for e, v in lab.labels.items() if any(v)}
    t_components = sorted(v[1] for v in new_edges.values())
    assert set(t_components) == {1, 2}
    assert verify_labeling(lab).ok


def test_label_stability_and_u_only_changes(d33):
    # labels of old edges never change, and new labels differ from their
    # companions only in the unfolded type
    final, records = unfold_steps_to_ball(d33, 2)
    labels = label_initial(d33.ball(0)).labels
    for grown, clump in zip(records, clumps_along(d33, records)):
        old_labels = dict(labels)  # label_unfold extends labels in place
        label_unfold(d33, labels, grown)
        for edge, vec in old_labels.items():
            assert labels[edge] == vec
        assert set(labels) == set(clump.scwol().edges)
        u = grown.side.gen
        gp = d33.gp
        side_mirrors = set(grown.side.mirrors)
        for c in grown.chambers:
            rep = gp.strip(c, 1 << u)
            assert rep in side_mirrors
    assert verify_labeling(EdgeLabeling(clump, labels)).ok


def test_square_chamber_two_unfoldings():
    # square chamber (two commuting involutive types), unfolded along one
    # side and then the extended other side: labels on the far chamber
    # carry both nontrivial components
    bld = Building(CoxeterSystem(["s", "u"], [("s", "u")]), {"s": 2, "u": 2})
    final, records = unfold_steps_to_ball(bld, 1)
    assert len(final.chambers) == 4
    lab = build_labeling(final, records)
    assert verify_labeling(lab).ok
    gp = bld.gp
    far = element(gp, [("s", 1), ("u", 1)])
    corner = bld.face_of(far, bld.system.mask(["s", "u"]))
    center_edge = ((0, far), corner)
    assert lab.labels[center_edge] == (1, 1)
    cov = build_covering(lab)
    assert cov.covering_report.sheet_count == 4


def test_build_labeling_refuses_records_of_another_clump(d23):
    ball, records = unfold_steps_to_ball(d23, 2)
    with pytest.raises(DomainError, match="do not make the clump"):
        build_labeling(ball, records[:-1])


def test_labelings_verify_across_suite(suite_traces):
    for name, (final, records) in suite_traces.items():
        lab = build_labeling(final, records)
        report = verify_labeling(lab)
        assert report.ok, name


def test_fault_injection_detected(d23):
    # flipping one label's side-type component breaks the fiber bijections
    lab, _ = corrupted_labeling(d23)
    report = verify_labeling(lab)
    assert not report.ok
    assert any(f["kind"] == "fiber" for f in report.failures)


def test_corrupted_labeling_report_names_the_face(d23):
    lab, edge = corrupted_labeling(d23)
    with pytest.raises(VerificationError) as info:
        build_covering(lab)
    report = info.value.report
    assert not report.ok
    first = report.failures[0]
    assert first["kind"] == "fiber"
    face, umask = first["where"]
    assert face == edge[1] and umask == edge[0][0]


def test_covering_sheet_counts(d23, square23, suite_traces):
    final, records = unfold_steps_to_ball(d23, 1)
    cov = build_covering(build_labeling(final, records))
    assert cov.covering_report.sheet_count == 4
    # sheet count is the same at every target vertex
    assert len(set(cov.covering_report.sheet_counts.values())) == 1
    payload = covering_to_json(cov)
    assert payload["sheets"] == 4 and payload["ok"]


def test_lattice_index_values(d23, square23, hex3):
    assert lattice_index(d23, 0) == 1
    assert lattice_index(d23, 1) == 4
    assert lattice_index(square23, 1) == 6
    assert lattice_index(square23, 2) == 6
    # golden value first derived by the enumeration oracle
    assert lattice_index(hex3, 1) == 37


def test_index_equals_chamber_count(suite_traces):
    for name, (final, records) in suite_traces.items():
        prefix = records[:3]
        *_, clump = clumps_along(final.building, prefix)
        lab = build_labeling(clump, prefix)
        cov = build_covering(lab)
        assert cov.covering_report.sheet_count == len(lab.clump.chambers), name


# -- the memoized checks against their references -----------------------------


def _unshared(data):
    """The same morphism with one fresh local map per source vertex.

    check_covering keys a vertex by the local maps that it and its in-edges
    read, so no two keys coincide and every vertex and edge is checked in
    full.
    """
    src, tgt, f_vertex, f_edge, phi_vertex, phi_edge = data
    fresh = {v: (lambda x, phi=phi_vertex[v]: phi(x)) for v in src.vertices()}
    return src, tgt, f_vertex, f_edge, fresh, phi_edge


def _same_report(data):
    """check_covering on ``data``, asserted equal to its unshared reference:
    the failures in order, the sheet counts in order, and the sheet count."""
    report = check_covering(*data)
    full = check_covering(*_unshared(data))
    assert report.failures == full.failures
    assert list(report.sheet_counts.items()) == list(full.sheet_counts.items())
    assert report.sheet_count == full.sheet_count
    return report


def test_memoized_covering_equals_unshared_reference(suite_traces):
    for name, trace in suite_traces.items():
        lab = build_labeling(*trace)
        tgt = lab.clump.building.ball(0).cog()
        report = _same_report(covering_morphism(lab.clump.cog(), tgt, lab.labels))
        assert report.ok and report.sheet_count == len(lab.clump.chambers), name


def _in_edge_keys(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge):
    """The distinct keys under which check_covering checks edge diagrams:
    f(v)'s local data, phi_v, and the in-edge's group at ia, phi_ia, the
    position of f(a) among the in-edges of f(v) and phi_a."""
    keys = set()
    for v in src.vertices():
        fv = f_vertex[v]
        head = (tgt.local_data(fv), phi_vertex[v])
        into = tgt.in_edges(fv)
        for a in src.in_edges(v):
            keys.add(
                head
                + (src.group(a[0]), phi_vertex[a[0]], into.index(f_edge[a]), phi_edge[a])
            )
    return keys


def _signatures(lab):
    """Each face's local signature, as verify_labeling reads it."""
    cog = lab.clump.cog()
    in_edges = cog.scwol.in_edges
    return {
        face: (
            face[0],
            cog.local_masks[face],
            tuple(
                (a[0][0], cog.local_masks[a[0]], lab.labels[a])
                for a in in_edges.get(face, ())
            ),
        )
        for face in cog.scwol.vertices
    }


def test_corrupted_label_in_a_shared_signature_names_only_its_face(suite_traces):
    # The last face of the most frequent signature with a two-edge fiber
    # gets one in-edge's label copied onto another of its fiber.  Both
    # checks must name that face, and only it: a signature without the
    # labels would hit the verdict of the faces before it.
    lab = build_labeling(*suite_traces["hex2"])
    bld = lab.clump.building
    by_signature = {}
    for face, sig in _signatures(lab).items():
        types = [umask for umask, _, _ in sig[2]]
        if len(set(types)) < len(types):
            by_signature.setdefault(sig, []).append(face)
    faces = max(by_signature.values(), key=len)
    assert len(faces) >= 10
    face = faces[-1]
    ins = lab.clump.cog().scwol.in_edges[face]
    a, a2 = next((a, a2) for a in ins for a2 in ins if a < a2 and a[0][0] == a2[0][0])
    labels = dict(lab.labels)
    labels[a2] = labels[a]
    report = verify_labeling(EdgeLabeling(lab.clump, labels))
    assert report.failures
    assert {f["where"][0] for f in report.failures if f["kind"] == "fiber"} == {face}
    data = covering_morphism(lab.clump.cog(), bld.ball(0).cog(), labels)
    creport = _same_report(data)
    named = {f["where"][0] for f in creport.failures if f["kind"] in FIBER_KINDS}
    assert named == {face}


def test_each_local_signature_is_checked_once(suite_traces, monkeypatch):
    # hex2 r2: 757 faces with 77 distinct signatures, and as many distinct
    # vertex keys.  Each signature's fibers and each vertex key's checks run
    # once; the edge checks run for the in-edges of one vertex per key, once
    # per distinct in-edge key: 84 of them.
    lab = build_labeling(*suite_traces["hex2"])
    src = lab.clump.cog()
    data = covering_morphism(src, lab.clump.building.ball(0).cog(), lab.labels)
    _, _, f_vertex, f_edge, phi_vertex, phi_edge = data
    first = {}  # vertex key -> its first vertex
    for v in src.vertices():
        key = (src.group(v), f_vertex[v], phi_vertex[v])
        for a in src.in_edges(v):
            key += (src.group(a[0]), f_vertex[a[0]], phi_vertex[a[0]])
            key += (f_edge[a], phi_edge[a])
        first.setdefault(key, v)
    signatures = set(_signatures(lab).values())
    assert len(src.vertices()) == 757 and len(src.edges()) == 1776
    assert len(signatures) == len(first) == 77
    in_edges = sum(len(src.in_edges(v)) for v in first.values())
    assert in_edges < 1776 // 2
    edge_keys = len(_in_edge_keys(*data))
    assert edge_keys == 84 < in_edges
    calls = {}

    def counted(name):
        helper = getattr(covering, name)

        def run(*args):
            calls[name] = calls.get(name, 0) + 1
            return helper(*args)

        monkeypatch.setattr(covering, name, run)

    for name in ("_fiber_failures", "_check_vertex", "_check_edge"):
        counted(name)
    cov = build_covering(lab)
    assert cov.labeling_report.ok and cov.covering_report.ok
    assert calls == {
        "_fiber_failures": 77,
        "_check_vertex": 77,
        "_check_edge": edge_keys,
    }


# -- the fiber checks against the quadratic listing -------------------------


def _quadratic_fiber_images(lab, face, umask):
    """The fiber's coset images, listed as verify_labeling once listed them.

    For every fiber edge, a frozenset coset of G_{B'} is built for every
    element of G_B, and every member of each new coset is projected onto
    the free types T - U, label added.  Returns full-rank vectors.
    """
    clump = lab.clump
    building = clump.building
    gp = building.gp
    qs = gp.qs
    rank = len(qs)
    cog = clump.cog()
    tmask = face[0]
    bmask = cog.local_masks[face]
    fiber = [a for a in cog.scwol.in_edges.get(face, ()) if a[0][0] == umask]
    images = []
    for a in fiber:
        sub = building.subgroup(cog.local_masks[a[0]])
        seen = set()
        for gvec in building.subgroup(bmask):
            coset = frozenset(gp.mul(gvec, s) for s in sub)
            if coset in seen:
                continue
            seen.add(coset)
            lvec = lab.labels[a]
            keys = set()
            for member in coset:
                total = dict(member)
                keys.add(
                    tuple(
                        (total.get(g, 0) + lvec[g]) % qs[g]
                        if (tmask >> g) & 1 and not (umask >> g) & 1
                        else 0
                        for g in range(rank)
                    )
                )
            assert len(keys) == 1
            images.append(keys.pop())
    return fiber, images


def _quadratic_fiber_failures(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge):
    """check_covering's fiber failures, found as it once found them: a
    frozenset coset for every element and target cosets rebuilt for every
    member."""
    failures = []
    for v in src.vertices():
        fv = f_vertex[v]
        tv_elements = tgt.elements(fv)
        for b in tgt.in_edges(fv):
            ib, _ = tgt.ends(b)
            theta_sub = [tgt.psi(b, y) for y in tgt.elements(ib)]
            index = len(tv_elements) // len(theta_sub)
            fiber = [a for a in src.in_edges(v) if f_edge[a] == b]
            image_cosets = []
            for a in fiber:
                ia = src.ends(a)[0]
                sub = [src.psi(a, x) for x in src.elements(ia)]
                seen = set()
                for g in src.elements(v):
                    coset = frozenset(src.mult(v, g, s) for s in sub)
                    if coset in seen:
                        continue
                    seen.add(coset)
                    imgs = set()
                    for member in coset:
                        z = tgt.mult(fv, phi_vertex[v](member), phi_edge[a])
                        imgs.add(frozenset(tgt.mult(fv, z, w) for w in theta_sub))
                    if len(imgs) != 1:
                        failures.append({"kind": "fiber-welldef", "where": (v, b, a)})
                        imgs = {next(iter(imgs))}
                    image_cosets.append(imgs.pop())
            if len(set(image_cosets)) != len(image_cosets) or len(image_cosets) != index:
                failures.append({"kind": "fiber-bijection", "where": (v, b)})
    return failures


FIBER_KINDS = ("fiber-welldef", "fiber-bijection")


def _compare_with_quadratic_listing(lab):
    """Images and verdicts of both fiber checks against the quadratic
    listing, verify_labeling's whole report against one built face by face,
    and check_covering against its unshared reference.  Returns the counts
    of failing and of bijective labeling fibers, and whether check_covering
    found a fiber failure."""
    clump = lab.clump
    bld = clump.building
    qs = bld.gp.qs
    cog = clump.cog()
    report = verify_labeling(lab)
    labels = lab.labels
    expected = [
        {"kind": "support", "where": (edge, g)}
        for edge, vec in labels.items()
        for g in range(len(qs))
        if vec[g] and not (edge[1][0] >> g) & 1
    ]
    expected += [
        {"kind": "composition", "where": (a, b)}
        for a, b, ab in cog.scwol.composable_pairs()
        if any(
            (labels[a][g] + labels[b][g]) % qs[g] != labels[ab][g]
            for g in range(len(qs))
        )
    ]
    counts = [0, 0]
    for face in cog.scwol.vertices:
        tmask = face[0]
        bmask = cog.local_masks[face]
        for umask in covering._proper_submasks(tmask):
            fiber, old = _quadratic_fiber_images(lab, face, umask)
            free = tmask & ~umask
            gens = [g for g in range(len(qs)) if (free >> g) & 1]
            new = [
                tuple((x + lab.labels[a][g]) % qs[g] for x, g in zip(proj, gens))
                for a in fiber
                for proj in coset_projections(bld, bmask, cog.local_masks[a[0]], free)
            ]
            assert new == [tuple(vec[g] for g in gens) for vec in old]
            target = 1
            for g in gens:
                target *= qs[g]
            bijective = len(set(old)) == len(old) == target
            counts[bijective] += 1
            if not bijective:
                expected.append({"kind": "fiber", "where": (face, umask)})
    assert report.fibers_checked == sum(counts)
    assert report.failures == expected
    data = covering_morphism(cog, bld.ball(0).cog(), lab.labels)
    found = [f for f in _same_report(data).failures if f["kind"] in FIBER_KINDS]
    assert found == _quadratic_fiber_failures(*data)
    return counts, bool(found)


def _corrupt(lab, rng):
    """A copy of the labeling with one component of one label shifted.

    The component is a type of the edge's terminal face, so the support
    property still holds.
    """
    qs = lab.clump.building.gp.qs
    edge = rng.choice(sorted(e for e in lab.labels if e[1][0]))
    tmask = edge[1][0]
    g = rng.choice([g for g in range(len(qs)) if (tmask >> g) & 1])
    vec = list(lab.labels[edge])
    vec[g] = (vec[g] + rng.randrange(1, qs[g])) % qs[g]
    labels = dict(lab.labels)
    labels[edge] = tuple(vec)
    return EdgeLabeling(lab.clump, labels)


def test_fiber_checks_match_quadratic_listing(suite):
    # Every clump of every suite trace up to radius 2 (hex3 to radius 1),
    # then conftest's corrupted labeling and three random corruptions per
    # system: the listings agree, and both verdicts occur.
    rng = random.Random(41)
    totals = [0, 0]
    covering_failed = 0
    for name, bld, nmax in suite:
        n = 1 if name == "hex3" else min(nmax, 2)
        final, records = unfold_steps_to_ball(bld, n)
        lab = label_initial(bld.ball(0))
        counts, failed = _compare_with_quadratic_listing(lab)
        assert counts[0] == 0 and not failed, name
        for grown, clump in zip(records, clumps_along(bld, records)):
            label_unfold(bld, lab.labels, grown)
            lab = EdgeLabeling(clump, lab.labels)
            counts, failed = _compare_with_quadratic_listing(lab)
            assert counts[0] == 0 and not failed, name
        one = build_labeling(*unfold_steps_to_ball(bld, 1))
        for bad in [corrupted_labeling(bld)[0]] + [_corrupt(one, rng) for _ in range(3)]:
            counts, failed = _compare_with_quadratic_listing(bad)
            totals[0] += counts[0]
            totals[1] += counts[1]
            covering_failed += failed
    assert totals[0] and totals[1] and covering_failed


def test_listing_disagreement_is_still_raised(d23, monkeypatch):
    # The two sides of property (3) are independent: a listing that loses
    # a coset contradicts the projection criterion.
    lab = build_labeling(*unfold_steps_to_ball(d23, 1))
    listing = covering.coset_projections
    monkeypatch.setattr(
        covering, "coset_projections", lambda *key: listing(*key)[1:]
    )
    with pytest.raises(InternalError, match="criterion and coset listing disagree"):
        verify_labeling(lab)


def test_coset_projections_examine_every_member(square23):
    # Cosets of G_{s,t} in itself projected onto {t}: the one coset's
    # members disagree, which only a look at every member can see.
    full = square23.system.mask({"s", "t"})
    with pytest.raises(InternalError, match="not well-defined"):
        coset_projections(square23, full, full, square23.system.mask({"t"}))
    t_only = coset_projections(square23, full, square23.system.mask({"s"}), 1 << 1)
    assert t_only == [(0,), (1,), (2,)]


# -- check_covering's failure kinds -------------------------------------------


def _covering_data(bld, n):
    lab = build_labeling(*unfold_steps_to_ball(bld, n))
    return covering_morphism(lab.clump.cog(), bld.ball(0).cog(), lab.labels)


def _kinds(report):
    return {f["kind"] for f in report.failures}


def test_fiber_bijection_failure_names_vertex_and_edge(d23):
    src, tgt, f_vertex, f_edge, phi_vertex, phi_edge = _covering_data(d23, 1)
    assert check_covering(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge).ok
    # two edges of one fiber given the same twisting element
    v = next(
        v for v in src.vertices()
        if len({f_edge[a] for a in src.in_edges(v)}) < len(src.in_edges(v))
    )
    a, a2 = [
        (a, a2)
        for a in src.in_edges(v)
        for a2 in src.in_edges(v)
        if a != a2 and f_edge[a] == f_edge[a2] and phi_edge[a] != phi_edge[a2]
    ][0]
    doctored = {e: phi_edge[e] for e in src.edges()}
    doctored[a2] = phi_edge[a]
    report = _same_report((src, tgt, f_vertex, f_edge, phi_vertex, doctored))
    assert {"kind": "fiber-bijection", "where": (v, f_edge[a])} in report.failures
    assert "fiber-welldef" not in _kinds(report)


def test_fiber_welldef_failure_names_vertex_and_edges(d23, suite):
    # On d23 every source coset is a single element (no type of rank two,
    # so every in-edge comes from a face with a trivial local group), and a
    # coset image cannot be ill-defined there.  The system "mixed" has a
    # commuting pair b, c: at the {b, c}-face of the chamber a, the b-panel
    # gives cosets of G_b in G_{b,c} with two members each.
    src = _covering_data(d23, 1)[0]
    assert all(
        len(src.elements(a[0])) == 1 for v in src.vertices() for a in src.in_edges(v)
    )
    mixed = {name: bld for name, bld, _ in suite}["mixed"]
    src, tgt, f_vertex, f_edge, phi_vertex, phi_edge = _covering_data(mixed, 1)
    assert check_covering(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge).ok
    gp = mixed.gp
    b, c = mixed.system.index["b"], mixed.system.index["c"]
    v, a = next(
        (v, a)
        for v in src.vertices()
        if src.local_masks[v] == (1 << b) | (1 << c)
        for a in src.in_edges(v)
        if src.local_masks[a[0]] == 1 << b
    )

    def not_a_homomorphism(x):
        # moves the c-exponent by the b-exponent: injective, but the two
        # members of a coset of G_b land in different cosets of G_b
        exps = dict(x)
        shift = exps.get(b, 0)
        moved = dict(exps)
        moved[c] = (exps.get(c, 0) + shift) % gp.qs[c]
        return gp.norm(tuple((g, e) for g, e in sorted(moved.items()) if e))

    doctored = {w: phi_vertex[w] for w in src.vertices()}
    doctored[v] = not_a_homomorphism
    report = _same_report((src, tgt, f_vertex, f_edge, doctored, phi_edge))
    assert {"kind": "fiber-welldef", "where": (v, f_edge[a], a)} in report.failures
    assert "local-injectivity" not in _kinds(report)


class _DoctoredTarget(ComplexOfGroups):
    """A target complex of groups with some monomorphisms or twists replaced."""

    def __init__(self, base, psi=(), twist=()):
        self.__dict__.update(base.__dict__)
        self._psi = dict(psi)
        self._twist = dict(twist)

    def psi(self, a, x):
        f = self._psi.get(a)
        return x if f is None else f(x)

    def local_data(self, v):
        group, ins = super().local_data(v)
        return group, tuple(zip(ins, map(self._psi.get, self.in_edges(v))))

    def twist(self, a, b):
        return self._twist.get((a, b), ())


def _cube():
    """Three commuting types x, y, z of orders 2, 2, 3: every type is
    spherical, so the one-chamber scwol has chains of four vertices."""
    sysm = CoxeterSystem(["x", "y", "z"], [("x", "y"), ("x", "z"), ("y", "z")])
    return Building(sysm, {"x": 2, "y": 2, "z": 3})


def _doctor(kind, bld, data):
    """The covering data with one piece changed so that ``kind`` fails."""
    src, tgt, f_vertex, f_edge, phi_vertex, phi_edge = data
    gp = bld.gp
    gx, gz = bld.system.index["x"], bld.system.index["z"]
    x, y, z = (1 << bld.system.index[s] for s in "xyz")
    face = {v[0]: v for v in tgt.vertices()}
    edge = {(e[0][0], e[1][0]): e for e in tgt.edges()}
    # covering_morphism computes its maps on demand; copy them into dicts
    # over the source's vertices and edges, so that one entry can change
    f_vertex = {v: f_vertex[v] for v in src.vertices()}
    f_edge = {a: f_edge[a] for a in src.edges()}
    phi_vertex = {v: phi_vertex[v] for v in src.vertices()}
    phi_edge = {a: phi_edge[a] for a in src.edges()}
    if kind == "target-twist":
        # psi along the composite {z} -> {x, y, z} inverts instead of including
        tgt = _DoctoredTarget(tgt, psi={edge[z, x | y | z]: gp.inv})
    elif kind == "target-cocycle":
        # one twist on the chain {} -> {x} -> {x, y} -> {x, y, z}
        tgt = _DoctoredTarget(
            tgt, twist={(edge[x | y, x | y | z], edge[x, x | y]): ((gz, 1),)}
        )
    elif kind in ("local-injectivity", "fiber-bijection", "sheet-consistency"):
        phi_vertex[face[x | z]] = lambda g: ()
    elif kind == "vertex-map":
        f_edge[edge[0, x]] = edge[0, y]
    elif kind == "edge-diagram":
        phi_vertex[face[z]] = gp.inv
    elif kind == "edge-composition":
        f_edge[edge[0, x | y]] = edge[0, x | z]
    elif kind == "compatibility":
        phi_edge[edge[0, x | y]] = ((gx, 1),)
    elif kind == "fiber-welldef":
        # the x-exponent moves the z-exponent: the two members of a coset
        # of G_x land in different cosets of G_x
        def not_a_homomorphism(g):
            exps = dict(g)
            moved = (exps.get(gz, 0) + exps.get(gx, 0)) % 3
            return gp.norm(((gx, exps.get(gx, 0)), (gz, moved)))

        phi_vertex[face[x | z]] = not_a_homomorphism
    elif kind == "sheet-divisibility":
        # an image of 4 elements in a group of order 6
        elements = bld.subgroup(x | z)
        phi_vertex[face[x | z]] = lambda g: elements[min(elements.index(g), 3)]
    return src, tgt, f_vertex, f_edge, phi_vertex, phi_edge


def test_vertex_map_failure_at_the_initial_vertex_names_the_edge():
    # a = {x} -> {x, y} goes to {y} -> {x, y}: an in-edge of f(t(a)), but
    # one that starts away from f(i(a)), which only the check of the
    # initial vertex sees
    bld = _cube()
    y0 = bld.ball(0)
    data = covering_morphism(y0.cog(), y0.cog(), label_initial(y0).labels)
    src, tgt, f_vertex, f_edge, phi_vertex, phi_edge = data
    x, y = (1 << bld.system.index[s] for s in "xy")
    edge = {(e[0][0], e[1][0]): e for e in tgt.edges()}
    f_edge = {a: f_edge[a] for a in src.edges()}
    f_edge[edge[x, x | y]] = edge[y, x | y]
    report = _same_report((src, tgt, f_vertex, f_edge, phi_vertex, phi_edge))
    assert {"kind": "vertex-map", "where": edge[x, x | y]} in report.failures


@pytest.mark.parametrize(
    "kind",
    [
        "target-twist",
        "target-cocycle",
        "local-injectivity",
        "vertex-map",
        "edge-diagram",
        "edge-composition",
        "compatibility",
        "fiber-welldef",
        "fiber-bijection",
        "sheet-divisibility",
        "sheet-consistency",
    ],
)
def test_every_covering_failure_kind_is_reachable(kind):
    # The one-chamber covering of the cube onto itself, with one piece of
    # its data doctored for each kind of failure.
    bld = _cube()
    y0 = bld.ball(0)
    data = covering_morphism(y0.cog(), y0.cog(), label_initial(y0).labels)
    assert check_covering(*data).ok
    report = _same_report(_doctor(kind, bld, data))
    assert kind in _kinds(report), report.failures
