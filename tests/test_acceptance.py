"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from rabuild.building import Building
from rabuild.clump import unfold, unfold_steps_to_ball
from rabuild.cog import is_admissible
from rabuild.covering import build_covering, build_labeling, verify_labeling
from rabuild.coxeter import CoxeterSystem, reduce as w_reduce
from rabuild import symmetry as sym
from tests.conftest import (
    clumps_along,
    generator_word,
    hexagon_system,
    nerve_automorphisms,
    reference_clump,
    reference_thin_ball,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {title}")
        raise
    print(f"[acceptance] criterion {number} PASS: {title}")


# ---------------------------------------------------------------------------


def test_criterion_1_sheet_law(suite):
    with criterion(1, "sheet count is q_u - 1 over randomized unfoldings"):
        t0 = time.monotonic()
        rng = random.Random(2024)
        total = 0
        systems_used = set()
        while total < 200:
            for name, bld, _ in suite:
                cur = bld.ball(0)
                for _ in range(6):
                    sides = cur.sides()
                    if not sides or len(cur.chambers) > 300:
                        break
                    side = rng.choice(sides)
                    grown = unfold(cur, side)
                    assert len(grown.sheets) == bld.gp.qs[side.gen] - 1
                    total += 1
                    systems_used.add(name)
        elapsed = time.monotonic() - t0
        assert total >= 200 and len(systems_used) >= 6
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_covering_soundness(suite, suite_traces):
    with criterion(2, "labelings and coverings verify on every suite sequence"):
        t0 = time.monotonic()
        rng = random.Random(7)
        for name, bld, nmax in suite:
            final, records = suite_traces[name]
            lab = build_labeling(final, records)
            report = verify_labeling(lab)
            assert report.ok, name
            assert not [f for f in report.failures if f["kind"] == "fiber"]
            cov = build_covering(lab)  # independent full axiom check
            assert cov.covering_report.ok, name
        # a shuffled unfolding order must verify identically
        for name in ("d33", "square", "mixed"):
            bld = dict((n, b) for n, b, _ in suite)[name]
            nmax = dict((n, r) for n, b, r in suite)[name]
            final, records = unfold_steps_to_ball(bld, nmax, rng=rng)
            lab = build_labeling(final, records)
            assert verify_labeling(lab).ok, name
            assert build_covering(lab).covering_report.ok, name
        elapsed = time.monotonic() - t0
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_3_dual_construction_equality(suite):
    with criterion(3, "unfolding reaches exactly the enumerated ball"):
        for name, bld, _ in suite:
            for n in (1, 2):
                final, _ = unfold_steps_to_ball(bld, n)
                assert final.chambers == bld.ball_chambers(n), (name, n)


def test_criterion_4_index_consistency(suite_traces, d23, square23):
    with criterion(4, "sheet count is vertex-independent and counts chambers"):
        for name, (final, records) in suite_traces.items():
            prefix = records[:6]
            *_, clump = clumps_along(final.building, prefix)
            lab = build_labeling(clump, prefix)
            cov = build_covering(lab)
            counts = set(cov.covering_report.sheet_counts.values())
            assert counts == {len(lab.clump.chambers)}, name
        final, records = unfold_steps_to_ball(d23, 1)
        cov = build_covering(build_labeling(final, records))
        assert cov.covering_report.sheet_count == 4
        finalc, recordsc = unfold_steps_to_ball(square23, 2)
        assert finalc.is_whole_building
        cov = build_covering(build_labeling(finalc, recordsc))
        assert cov.covering_report.sheet_count == 6


def test_criterion_5_admissibility(suite_traces, tree_product):
    with criterion(5, "every unfolded clump is admissible; the bad clump fails"):
        for name, (final, records) in suite_traces.items():
            for clump in clumps_along(final.building, records):
                assert is_admissible(clump).ok, name
        i_s1 = tree_product.system.index["s1"]
        i_t1 = tree_product.system.index["t1"]
        bad = reference_clump(tree_product, {(), ((i_s1, 1),), ((i_t1, 1),)})
        assert not is_admissible(bad).ok


def test_criterion_6_davis_specialization():
    with criterion(6, "order-2 parameters reproduce the thin chamber system"):
        hexsys = hexagon_system()
        systems = [
            CoxeterSystem(["s", "t"]),
            CoxeterSystem(["a", "b", "c"], [("b", "c")]),
            hexsys,
        ]
        for sysm in systems:
            bld = Building(sysm, {g: 2 for g in sysm.generators})
            for n in range(4):
                chambers = bld.ball_chambers(n)
                words = {generator_word(sysm, c): c for c in chambers}
                assert len(words) == len(chambers)
                assert set(words) == set(reference_thin_ball(sysm, n))
            sample = sorted(bld.ball_chambers(2))
            rng = random.Random(11)
            for _ in range(60):
                a = rng.choice(sample)
                b = rng.choice(sample)
                # graph-product kernel against the q = 2 W-kernel
                lhs = generator_word(sysm, bld.gp.delta(a, b))
                rhs = w_reduce(
                    sysm,
                    tuple(reversed(generator_word(sysm, a))) + generator_word(sysm, b),
                )
                assert lhs == rhs


LABELED_SYSTEMS = [
    # (generators, commuting pairs, q, expected case)
    (["s", "t"], [], {"s": 2, "t": 3}, "1"),
    (["s", "t"], [], {"s": 3, "t": 3}, "1"),
    (["a", "b", "c"], [], {"a": 2, "b": 4, "c": 3}, "1"),
    ("hex", None, 3, "1"),
    ("hex", None, 2, "2"),
    (["s", "t"], [], {"s": 2, "t": 2}, "2"),
    (["a", "b", "c"], [("b", "c")], {"a": 2, "b": 2, "c": 2}, "2"),
    (["s", "t", "u"], [("s", "u"), ("t", "u")], {"s": 2, "t": 2, "u": 3}, "3"),
    (
        ["s", "t", "u", "v"],
        [("s", "u"), ("t", "u"), ("s", "v"), ("t", "v"), ("u", "v")],
        {"s": 2, "t": 2, "u": 3, "v": 4},
        "3",
    ),
    (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")],
     {"a": 2, "b": 3, "c": 2, "d": 4}, "1"),
    (["s", "t"], [("s", "t")], {"s": 2, "t": 3}, "finite"),
    (
        ["a", "b", "c"],
        [("a", "b"), ("a", "c"), ("b", "c")],
        {"a": 3, "b": 3, "c": 3},
        "finite",
    ),
]


def _labeled_building(entry):
    gens, pairs, q, expected = entry
    if gens == "hex":
        sysm = hexagon_system()
        return Building(sysm, {g: q for g in sysm.generators}), expected
    return Building(CoxeterSystem(gens, pairs), q), expected


def test_criterion_7_discreteness_trichotomy():
    with criterion(7, "classifier matches the trichotomy; cases partition"):
        assert len(LABELED_SYSTEMS) >= 10
        seen = set()
        for entry in LABELED_SYSTEMS:
            bld, expected = _labeled_building(entry)
            verdict = sym.classify_discreteness(bld)
            assert verdict.case == expected, entry
            seen.add(expected)
        assert seen == {"1", "2", "3", "finite"}

        # rigidity oracle vs simplex-set enumeration, ranks up to 8
        from rabuild.coxeter import spherical_poset

        rng = random.Random(23)
        test_systems = [hexagon_system()]
        for rank in (2, 3, 4, 5, 6, 7, 8):
            names = [f"x{i}" for i in range(rank)]
            pairs = [
                p
                for p in itertools.combinations(names, 2)
                if rng.random() < 0.4
            ]
            test_systems.append(CoxeterSystem(names, pairs))
        for sysm in test_systems:
            simplices = {frozenset(t) for t in spherical_poset(sysm).nerve}
            flexible = False
            count = 0
            for perm in itertools.permutations(sysm.generators):
                relabel = dict(zip(sysm.generators, perm))
                if {
                    frozenset(relabel[x] for x in t) for t in simplices
                } != simplices:
                    continue
                count += 1
                if all(relabel[s] == s for s in sysm.generators):
                    continue
                for v in sysm.generators:
                    star = {v} | {
                        u for u in sysm.generators if sysm.commutes(u, v)
                    }
                    if all(relabel[x] == x for x in star):
                        flexible = True
            assert count == len(nerve_automorphisms(sysm))
            assert sym.is_rigid(sysm) == (not flexible)

        # exhaustive partition scan: rank <= 4, parameters in {2, 3}
        for rank in (2, 3, 4):
            names = [f"g{i}" for i in range(rank)]
            all_pairs = list(itertools.combinations(names, 2))
            for bits in range(1 << len(all_pairs)):
                pairs = [
                    p for k, p in enumerate(all_pairs) if (bits >> k) & 1
                ]
                sysm = CoxeterSystem(names, pairs)
                for qbits in range(1 << rank):
                    q = {
                        names[i]: 3 if (qbits >> i) & 1 else 2
                        for i in range(rank)
                    }
                    bld = Building(sysm, q)
                    verdict = sym.classify_discreteness(bld)
                    finite = sysm.is_finite()
                    cond1 = any(
                        q[s] > 2
                        and any(
                            t != s and not sysm.commutes(s, t) for t in names
                        )
                        for s in names
                    )
                    cond2 = all(q[s] == 2 for s in names)
                    cond3 = (
                        any(q[s] > 2 for s in names)
                        and not cond1
                    )
                    if finite:
                        assert verdict.case == "finite"
                    else:
                        matched = [
                            c
                            for c, cond in (
                                ("1", cond1),
                                ("2", cond2),
                                ("3", cond3),
                            )
                            if cond
                        ]
                        assert len(matched) == 1, (pairs, q)
                        assert verdict.case == matched[0]


def _fragment_oracle(bld, n):
    """Brute force: subsets of the ball that are distance-faithful sections."""
    ball = sorted(bld.ball_chambers(n))
    words = sorted(reference_thin_ball(bld.system, n))
    found = []
    target_len = len(words)
    for subset in itertools.combinations(ball, target_len):
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
        for w1, c1 in shadows.items():
            if not ok:
                break
            for w2, c2 in shadows.items():
                d = generator_word(bld.system, bld.gp.delta(c1, c2))
                if d != w_reduce(bld.system, tuple(reversed(w1)) + w2):
                    ok = False
                    break
        if ok:
            found.append(frozenset(subset))
    return found


def test_criterion_8_strong_transitivity(square23, d23):
    with criterion(8, "witnesses connect every ordered pair of fragments"):
        cases = [(square23, 1), (d23, 2)]
        for bld, n in cases:
            frags = sym.apartments_through_base(bld, n)
            oracle = _fragment_oracle(bld, n)
            assert {f.chambers for f in frags} == set(oracle)
            ball, records = unfold_steps_to_ball(bld, n)
            for f1 in frags:
                for f2 in frags:
                    h = sym.transitivity_witness(ball, records, f1, f2)
                    assert h.verify() == []
                    image = frozenset(h.mapping[c] for c in f1.chambers)
                    assert image == f2.chambers
                    assert h.mapping[()] == ()
        square_frags = sym.apartments_through_base(square23, 1)
        assert len(square_frags) == 2  # (q_s - 1)(q_t - 1)


def test_criterion_9_quotient_chain(d33, hex3):
    with criterion(9, "quotient coverings verify under full type symmetry"):
        for bld, order in ((d33, 2), (hex3, 12)):
            for n in (0, 1):
                ball = bld.ball(n)
                perms = sym.type_permutation_group(bld)
                assert len(perms) == order
                result = sym.quotient_cog(ball, perms)
                assert len(result.quotient.autos) == order
                assert result.report.ok, result.report.failures[:3]
                assert result.report.sheet_count == order
                counts = set(result.report.sheet_counts.values())
                assert counts == {order}
            # composing the ball covering with the chamber quotient also
            # verifies, with multiplicative sheet count
            final, records = unfold_steps_to_ball(bld, 1)
            lab = build_labeling(final, records)
            composite = sym.composed_quotient_covering(
                lab, sym.type_permutation_group(bld)
            )
            assert composite.ok, composite.failures[:3]
            assert composite.sheet_count == order * len(final.chambers)
