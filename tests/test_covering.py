import pytest

from rabuild.building import Building
from rabuild.clump import chamber_clump, sheets, unfold_steps_to_ball
from rabuild.coxeter import CoxeterSystem
from rabuild.covering import (
    build_covering,
    build_labeling,
    covering_to_json,
    label_initial,
    label_unfold,
    lattice_index,
    verify_labeling,
)
from rabuild.errors import VerificationError
from tests.conftest import corrupted_labeling


def test_label_initial_zero(d23):
    y0 = chamber_clump(d23)
    lab = label_initial(y0)
    assert set(lab.labels) == set(y0.scwol().edges)
    assert all(v == (0, 0) for v in lab.labels.values())
    report = verify_labeling(lab)
    assert report.ok


def test_initial_covering_identity(d23):
    lab = label_initial(chamber_clump(d23))
    cov = build_covering(lab)
    assert cov.sheet_count == 1


def test_label_unfold_assigns_remaining_components(d23):
    # one unfolding along the t-side: the two new chambers are distinct
    # sheets and receive the two nonzero exponents
    y0 = chamber_clump(d23)
    tside = [k for k in y0.sides() if k.gen == 1][0]
    from rabuild.clump import UnfoldStep, unfold

    step = UnfoldStep(y0, tside, unfold(y0, tside))
    lab = label_unfold(label_initial(y0), step)
    new_edges = {e: v for e, v in lab.labels.items() if any(v)}
    t_components = sorted(v[1] for v in new_edges.values())
    assert set(t_components) == {1, 2}
    assert verify_labeling(lab).ok


def test_label_stability_and_u_only_changes(d33):
    # labels of old edges never change, and new labels differ from their
    # companions only in the unfolded type
    final, steps = unfold_steps_to_ball(d33, 2)
    lab = label_initial(chamber_clump(d33))
    for st in steps:
        old_labels = dict(lab.labels)  # label_unfold extends lab.labels in place
        new = label_unfold(lab, st)
        for edge, vec in old_labels.items():
            assert new.labels[edge] == vec
        u = st.side.gen
        gp = d33.gp
        side_mirrors = set(st.side.mirrors)
        for c in st.after.chambers - st.before.chambers:
            rep = gp.strip(c, 1 << u)
            assert rep in side_mirrors
        lab = new
    assert verify_labeling(lab).ok


def test_square_chamber_two_unfoldings():
    # square chamber (two commuting involutive types), unfolded along one
    # side and then the extended other side: labels on the far chamber
    # carry both nontrivial components
    bld = Building(CoxeterSystem(["s", "u"], [("s", "u")]), {"s": 2, "u": 2})
    final, steps = unfold_steps_to_ball(bld, 1)
    assert len(final.chambers) == 4
    lab = build_labeling(bld, steps)
    assert verify_labeling(lab).ok
    gp = bld.gp
    far = gp.element([("s", 1), ("u", 1)]).syllables
    corner = bld.face_of(far, bld.system.mask(["s", "u"]))
    center_edge = ((0, far), corner)
    assert lab.labels[center_edge] == (1, 1)
    cov = build_covering(lab)
    assert cov.sheet_count == 4


def test_labelings_verify_across_suite(suite_traces):
    for name, (final, steps) in suite_traces.items():
        bld = final.building
        lab = build_labeling(bld, steps)
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
    final, steps = unfold_steps_to_ball(d23, 1)
    cov = build_covering(build_labeling(d23, steps))
    assert cov.sheet_count == 4
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
    for name, (final, steps) in suite_traces.items():
        bld = final.building
        prefix = steps[:3]
        lab = build_labeling(bld, prefix)
        cov = build_covering(lab)
        assert cov.sheet_count == len(lab.clump.chambers), name
