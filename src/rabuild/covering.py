"""Edge labelings and coverings of complexes of groups.

The labeling machinery assigns to every scwol edge of an unfolded clump an
element of the ambient direct product, inductively along the unfolding
sequence: labels transfer unchanged through lifts, except that edges
landing on the unfolded side get their side-type component overwritten by
a per-sheet constant chosen away from the old chamber's component.  The
three labeling properties (support, multiplicativity, fiber bijectivity)
make the type-preserving projection onto the one-chamber complex of groups
a covering, whose sheet count is the index of the corresponding lattice.

Property (3) is checked twice and independently: through the
distinct-projection criterion and through brute-force coset listing; a
disagreement aborts, since it would mean one of the implementations is
wrong.  ``check_covering`` is the general verifier of the covering axioms
and is also used by the symmetry quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .building import face_key, syllable_key
from .clump import Clump, UnfoldStep, chamber_clump, sheets, unfold_steps_to_ball
from .errors import InternalError, VerificationError


# ---------------------------------------------------------------------------
# edge labelings along unfolding sequences
# ---------------------------------------------------------------------------


@dataclass
class EdgeLabeling:
    clump: Clump
    labels: dict  # scwol edge -> exponent vector over all generators
    steps: tuple  # the UnfoldSteps labeled so far


def zero_vector(building):
    return (0,) * len(building.gp.qs)


def label_initial(y0: Clump) -> EdgeLabeling:
    """Every edge of the one-chamber scwol gets the identity."""
    z = zero_vector(y0.building)
    labels = {e: z for e in y0.scwol().edges}
    return EdgeLabeling(y0, labels, ())


def label_unfold(prev: EdgeLabeling, step: UnfoldStep) -> EdgeLabeling:
    """Extend a labeling through one unfolding.

    Old edges keep their labels.  A new edge is labeled by its lift, except
    that when its terminal face lies on the side, the side-type component
    is replaced by the constant assigned to the sheet of the chambers
    carrying the edge.

    Only the edges the unfolding created are visited, and ``prev.labels`` is
    extended in place: the result owns it, and ``prev`` is used up.
    """
    if step.before is not prev.clump and step.before.chambers != prev.clump.chambers:
        raise InternalError("labeling does not match the unfolding step")
    grown = step.after.unfolding
    if grown is None or grown.side != step.side:
        raise InternalError("step was not made by unfolding its side")
    building = step.before.building
    gp = building.gp
    u = step.side.gen
    qu = gp.qs[u]
    lifted_faces = {}

    def lift_face(face):
        if face not in grown.created:
            return face
        got = lifted_faces.get(face)
        if got is None:
            lifted = {
                building.face_of(grown.lift[c], face[0])
                for c in grown.faces[face]
            }
            if len(lifted) != 1:
                raise InternalError("inconsistent face lift")
            got = lifted_faces[face] = lifted.pop()
        return got

    part = sheets(step.after)
    sheet_of = {}
    for idx, blk in enumerate(part.blocks):
        for c in blk:
            sheet_of[c] = idx

    # Component already used at a chosen mirror of the side: the label of
    # the edge from the old chamber's center into the mirror's center.
    k_u = min(step.side.mirrors, key=syllable_key)
    psi0 = next(
        c
        for c in (gp.mul(k_u, ((u, e),)) for e in range(qu))
        if c in step.before.chambers
    )
    c_edge = ((0, psi0), (1 << u, k_u))
    labels = prev.labels
    g_old = labels[c_edge][u]
    free = [e for e in range(qu) if e != g_old]
    if len(free) != len(part.blocks):
        raise InternalError("sheet count does not match the cyclic order")
    sheet_component = dict(enumerate(free))

    # Every new edge joins two faces of a new chamber, whose u-panel is a
    # mirror of the side: its terminal face is on the side exactly when its
    # type contains u.
    for edge in sorted(grown.edges, key=lambda e: (face_key(e[0]), face_key(e[1]))):
        if edge in labels:
            raise InternalError("new edge already labeled")
        src, dst = edge
        base = labels.get((lift_face(src), lift_face(dst)))
        if base is None:
            raise InternalError("edge lift is not an edge")
        if (dst[0] >> u) & 1:
            if src not in grown.created or (src[0] >> u) & 1:
                raise InternalError("side edge with unexpected initial face")
            touched = {sheet_of[c] for c in grown.faces[src]}
            if len(touched) != 1:
                raise InternalError("edge reachable from two different sheets")
            vec = list(base)
            vec[u] = sheet_component[touched.pop()]
            labels[edge] = tuple(vec)
        else:
            labels[edge] = base
    return EdgeLabeling(step.after, labels, prev.steps + (step,))


def build_labeling(building, steps) -> EdgeLabeling:
    lab = label_initial(chamber_clump(building))
    for step in steps:
        lab = label_unfold(lab, step)
    return lab


# ---------------------------------------------------------------------------
# labeling verification
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Outcome of a verification: each failure as {kind, where}, in check order."""

    ok: bool = True
    failures: list = field(default_factory=list)

    def fail(self, kind, where):
        self.ok = False
        self.failures.append({"kind": kind, "where": where})


@dataclass
class LabelingReport(Report):
    """Failure kinds: support, composition, fiber (where: face, subtype mask)."""

    fibers_checked: int = 0


def _proper_submasks(tmask):
    if tmask == 0:
        return []
    sub = tmask
    out = []
    while True:
        sub = (sub - 1) & tmask
        out.append(sub)
        if sub == 0:
            break
    return out  # every proper subset, descending; includes 0


def verify_labeling(lab: EdgeLabeling) -> LabelingReport:
    """Support, multiplicativity, and the per-fiber coset bijections."""
    clump = lab.clump
    building = clump.building
    gp = building.gp
    qs = gp.qs
    rank = len(qs)
    cog = clump.cog()
    scwol = cog.scwol
    report = LabelingReport()

    for (src, dst), vec in lab.labels.items():
        for g in range(rank):
            if vec[g] and not (dst[0] >> g) & 1:
                report.fail("support", ((src, dst), g))

    for a, b, ab in scwol.composable_pairs():
        la, lb, lab_vec = lab.labels[a], lab.labels[b], lab.labels[ab]
        if any((la[g] + lb[g]) % qs[g] != lab_vec[g] for g in range(rank)):
            report.fail("composition", (a, b))

    for face in scwol.vertices:
        tmask = face[0]
        bmask = cog.local_masks[face]
        in_edges = scwol.in_edges.get(face, ())
        for umask in _proper_submasks(tmask):
            fiber = [a for a in in_edges if a[0][0] == umask]
            report.fibers_checked += 1

            # criterion: pairwise distinct projections away from both the
            # boundary type and the target subtype
            pmask = tmask & ~(bmask | umask)
            projections = [
                tuple(lab.labels[a][g] if (pmask >> g) & 1 else 0 for g in range(rank))
                for a in fiber
            ]
            distinct = len(set(projections)) == len(projections)

            # brute force: list every coset image
            target_size = 1
            for g in range(rank):
                if (tmask >> g) & 1 and not (umask >> g) & 1:
                    target_size *= qs[g]
            images = []
            for a in fiber:
                sub_mask = cog.local_masks[a[0]]
                sub = building.subgroup(sub_mask)
                seen_cosets = set()
                for gvec in building.subgroup(bmask):
                    coset = frozenset(gp.mul(gvec, s) for s in sub)
                    if coset in seen_cosets:
                        continue
                    seen_cosets.add(coset)
                    lvec = lab.labels[a]
                    keys = set()
                    for member in coset:
                        total = dict(member)
                        merged = tuple(
                            (total.get(g, 0) + lvec[g]) % qs[g] if (tmask >> g) & 1 and not (umask >> g) & 1 else 0
                            for g in range(rank)
                        )
                        keys.add(merged)
                    if len(keys) != 1:
                        raise InternalError("coset image is not well-defined")
                    images.append(keys.pop())
            bijective = len(set(images)) == len(images) and len(images) == target_size

            if distinct != bijective:
                raise InternalError(
                    "projection criterion and coset listing disagree"
                )
            if not bijective:
                report.fail("fiber", (face, umask))
    return report


# ---------------------------------------------------------------------------
# generic covering checker
# ---------------------------------------------------------------------------


class AbelianCogAdapter:
    """A complex of groups with standard abelian local groups, for check_covering.

    Vertices are scwol faces or residue chains; an edge is a (src, dst) pair
    and composes with every edge leaving dst.  The local group at a vertex is
    the direct product on its mask, with canonical syllable tuples as
    elements; monomorphisms along edges are the natural inclusions and all
    twists vanish.
    """

    def __init__(self, building, vertices, edges, local_mask):
        self.building = building
        self._vertices = vertices
        self._edges = edges
        self.local_mask = local_mask
        self._in_edges = {}
        out_edges = {}
        for e in edges:
            out_edges.setdefault(e[0], []).append(e)
            self._in_edges.setdefault(e[1], []).append(e)
        edge_set = set(edges)
        self._compose = {}
        for b in edges:
            for a in out_edges.get(b[1], ()):
                ab = (b[0], a[1])
                if ab not in edge_set:
                    raise InternalError("missing composite edge")
                self._compose[(a, b)] = ab

    def vertices(self):
        return self._vertices

    def edges(self):
        return self._edges

    def in_edges(self, v):
        return self._in_edges.get(v, ())

    def ends(self, a):
        return a

    def elements(self, v):
        return self.building.subgroup(self.local_mask[v])

    def mult(self, v, x, y):
        return self.building.gp.mul(x, y)

    def inv(self, v, x):
        return self.building.gp.inv(x)

    def psi(self, a, x):
        return x

    def compose(self, a, b):
        return self._compose.get((a, b))

    def composable_pairs(self):
        return self._compose.items()

    def twist(self, a, b):
        return ()


@dataclass
class CoveringReport(Report):
    sheet_counts: dict = field(default_factory=dict)
    sheet_count: int = 0


def check_covering(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge) -> CoveringReport:
    """Verify the covering axioms for a morphism of complexes of groups.

    ``src`` and ``tgt`` expose vertices/edges/local groups as in
    AbelianCogAdapter; ``f_vertex``/``f_edge`` give the underlying scwol
    morphism, ``phi_vertex`` the local maps (callables) and ``phi_edge``
    the twisting elements of the morphism.  Checks: local injectivity, the
    per-edge commuting diagram, compatibility with composition, the target
    cog axioms, bijectivity of every fiber coset map, and vertexwise
    consistency of the sheet count.
    """
    report = CoveringReport()

    composed = {}
    for (a, b), ab in tgt.composable_pairs():
        composed[(a, b)] = ab
        ia, ta = tgt.ends(a)
        ib, tb = tgt.ends(b)
        tw = tgt.twist(a, b)
        for x in tgt.elements(ib):
            lhs = tgt.mult(
                ta, tgt.mult(ta, tw, tgt.psi(ab, x)), tgt.inv(ta, tw)
            )
            rhs = tgt.psi(a, tgt.psi(b, x))
            if lhs != rhs:
                report.fail("target-twist", (a, b))
                break
    # cocycle over composable triples; the pairs are indexed by their first
    # edge, each c taken in the order of tgt.edges()
    position = {e: i for i, e in enumerate(tgt.edges())}
    after = {}
    for b, c in composed:
        after.setdefault(b, []).append(c)
    for cs in after.values():
        cs.sort(key=position.__getitem__)
    for (a, b), ab in composed.items():
        for c in after.get(b, ()):
            bc = composed[(b, c)]
            ta = tgt.ends(a)[1]
            lhs = tgt.mult(
                ta, tgt.psi(a, tgt.twist(b, c)), tgt.twist(a, bc)
            )
            rhs = tgt.mult(ta, tgt.twist(a, b), tgt.twist(ab, c))
            if lhs != rhs:
                report.fail("target-cocycle", (a, b, c))

    for v in src.vertices():
        images = [phi_vertex[v](x) for x in src.elements(v)]
        if len(set(images)) != len(images):
            report.fail("local-injectivity", v)

    for a in src.edges():
        ia, ta = src.ends(a)
        b = f_edge[a]
        ib, tb = tgt.ends(b)
        if f_vertex[ia] != ib or f_vertex[ta] != tb:
            report.fail("vertex-map", a)
            continue
        fa = phi_edge[a]
        tv = f_vertex[ta]
        for x in src.elements(ia):
            lhs = phi_vertex[ta](src.psi(a, x))
            rhs = tgt.mult(
                tv,
                tgt.mult(tv, fa, tgt.psi(b, phi_vertex[ia](x))),
                tgt.inv(tv, fa),
            )
            if lhs != rhs:
                report.fail("edge-diagram", a)
                break

    for (a, b), ab in src.composable_pairs():
        fa, fb, fab = f_edge[a], f_edge[b], f_edge[ab]
        if tgt.compose(fa, fb) != fab:
            report.fail("edge-composition", (a, b))
            continue
        tv = f_vertex[src.ends(a)[1]]
        lhs = phi_edge[ab]
        rhs = tgt.mult(
            tv,
            phi_edge[a],
            tgt.mult(tv, tgt.psi(fa, phi_edge[b]), tgt.twist(fa, fb)),
        )
        if lhs != rhs:
            report.fail("compatibility", (a, b))

    # fiber coset bijections
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
                        report.fail("fiber-welldef", (v, b, a))
                        imgs = {next(iter(imgs))}
                    image_cosets.append(imgs.pop())
            if len(set(image_cosets)) != len(image_cosets) or len(image_cosets) != index:
                report.fail("fiber-bijection", (v, b))

    # vertexwise sheet counts
    per_vertex = {}
    for v in src.vertices():
        fv = f_vertex[v]
        image = {phi_vertex[v](x) for x in src.elements(v)}
        total = len(tgt.elements(fv))
        if total % len(image):
            report.fail("sheet-divisibility", v)
            continue
        per_vertex[fv] = per_vertex.get(fv, 0) + total // len(image)
    counts = set(per_vertex.values())
    report.sheet_counts = per_vertex
    if len(counts) != 1:
        report.fail("sheet-consistency", sorted(counts))
    else:
        report.sheet_count = counts.pop()
    return report


# ---------------------------------------------------------------------------
# the covering onto the one-chamber complex of groups
# ---------------------------------------------------------------------------


@dataclass
class Covering:
    source: object  # ComplexOfGroups over the unfolded clump
    target: object  # ComplexOfGroups over the single chamber
    labeling: EdgeLabeling
    sheet_count: int
    labeling_report: LabelingReport
    covering_report: CoveringReport


def _identity(x):
    return x


def build_covering(lab: EdgeLabeling) -> Covering:
    """Assemble and doubly verify the covering induced by a labeling."""
    building = lab.clump.building
    lreport = verify_labeling(lab)
    if not lreport.ok:
        raise VerificationError(
            f"labeling properties failed: {lreport.failures[0]!r}",
            report=lreport,
        )
    y0 = chamber_clump(building)
    src_cog = lab.clump.cog()
    tgt_cog = y0.cog()
    src = AbelianCogAdapter(
        building, src_cog.scwol.vertices, src_cog.scwol.edges, src_cog.local_masks
    )
    tgt = AbelianCogAdapter(
        building, tgt_cog.scwol.vertices, tgt_cog.scwol.edges, tgt_cog.local_masks
    )
    f_vertex = {v: (v[0], ()) for v in src.vertices()}
    f_edge = {a: ((a[0][0], ()), (a[1][0], ())) for a in src.edges()}
    phi_vertex = dict.fromkeys(src.vertices(), _identity)
    phi_edge = {
        a: building.gp.norm(
            tuple((g, e) for g, e in enumerate(lab.labels[a]) if e)
        )
        for a in src.edges()
    }
    creport = check_covering(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge)
    if not creport.ok:
        raise VerificationError(
            f"covering axioms failed: {creport.failures[0]!r}", report=creport
        )
    return Covering(src_cog, tgt_cog, lab, creport.sheet_count, lreport, creport)


def covering_to_json(cov: Covering) -> dict:
    building = cov.labeling.clump.building
    sysm = building.system
    return {
        "sheets": cov.sheet_count,
        "chambers": len(cov.labeling.clump.chambers),
        "edges_labeled": len(cov.labeling.labels),
        "fibers_checked": cov.labeling_report.fibers_checked,
        "sheet_counts_by_type": {
            ",".join(sorted(sysm.unmask(v[0]))) or "-": n
            for v, n in sorted(
                cov.covering_report.sheet_counts.items(), key=lambda kv: face_key(kv[0])
            )
        },
        "ok": cov.labeling_report.ok and cov.covering_report.ok,
    }


def lattice_index(building, n: int) -> int:
    """Index of the radius-n ball lattice inside the one-chamber lattice."""
    final, steps = unfold_steps_to_ball(building, n)
    lab = build_labeling(building, steps)
    cov = build_covering(lab)
    if cov.sheet_count != len(final.chambers):
        raise InternalError("sheet count differs from the chamber count")
    return cov.sheet_count
