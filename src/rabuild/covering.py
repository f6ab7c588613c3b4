"""Edge labelings and coverings of complexes of groups.

The labeling machinery assigns to every scwol edge of an unfolded clump an
element of the ambient direct product, inductively along the log of
unfoldings that made it (``clump.Unfolding`` records): labels transfer
unchanged through lifts, except that edges landing on the unfolded side get
their side-type component overwritten by a per-sheet constant chosen away
from the old chamber's component.  The three labeling properties (support,
multiplicativity, fiber bijectivity) make the type-preserving projection
onto the one-chamber complex of groups a covering, whose sheet count is the
index of the corresponding lattice.

Property (3) is checked twice and independently: through the
distinct-projection criterion and through brute-force coset listing; a
disagreement aborts, since it would mean one of the implementations is
wrong.  ``check_covering`` is the general verifier of the covering axioms
and is also used by the symmetry quotients.  It reads the abelian complexes
of groups (``cog.ComplexOfGroups``) as they are, with no adapter, and the
quotient complex of groups (``symmetry.QuotientCog``) through the same
questions.

Both checks are local, and the local data repeat: a local group is fixed by
a boundary type, and an unfolding repeats finitely many local models (a
covering of complexes of groups is a local condition at each vertex;
Bridson & Haefliger, III.C).  So each check runs once per distinct local
configuration and its verdict is applied to every place that has it:
``verify_labeling`` checks the fibers once per local signature of a face,
``check_covering`` the checks at a vertex and at its in-edges once per
vertex key, which reads the target's local data, not its vertices.  Each
docstring says what its key covers.  A check that runs lists each coset
once and examines every member of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .building import face_key
from .clump import Clump, Unfolding, unfold_steps_to_ball
from .errors import DomainError, InternalError, VerificationError


# ---------------------------------------------------------------------------
# edge labelings along unfolding sequences
# ---------------------------------------------------------------------------


@dataclass
class EdgeLabeling:
    clump: Clump
    labels: dict  # scwol edge -> exponent vector over all generators


def label_initial(y0: Clump) -> EdgeLabeling:
    """Every edge of the one-chamber scwol gets the identity."""
    z = (0,) * len(y0.building.gp.qs)
    return EdgeLabeling(y0, dict.fromkeys(y0.scwol().edges, z))


def label_unfold(building, labels: dict, grown: Unfolding) -> None:
    """Extend a labeling through one unfolding, in place.

    ``labels`` labels the scwol of the clump the unfolding ``grown`` started
    from, and afterwards that of the clump it made.  Old edges keep their
    labels.  A new edge is labeled by its lift, except that when its
    terminal face lies on the side, the side-type component is replaced by
    the constant assigned to the sheet of the chambers carrying the edge.

    Only the edges the unfolding created are visited, in the record's
    order: a label reads only the labels of old edges, so none depends on
    that order.
    """
    u = grown.side.gen
    qu = building.gp.qs[u]
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

    blocks = grown.sheets
    sheet_of = {}
    for idx, blk in enumerate(blocks):
        for c in blk:
            sheet_of[c] = idx

    # Component already used at a chosen mirror of the side: the label of
    # the edge from the old chamber's center into the mirror's center.  The
    # old chamber is the lift of any new chamber on the mirror.
    k_u = grown.side.mirrors[0]
    psi0 = grown.lift[grown.faces[(1 << u, k_u)][0]]
    c_edge = ((0, psi0), (1 << u, k_u))
    if c_edge not in labels:
        raise InternalError("labeling does not match the unfolding")
    g_old = labels[c_edge][u]
    free = [e for e in range(qu) if e != g_old]
    if len(free) != len(blocks):
        raise InternalError("sheet count does not match the cyclic order")
    sheet_component = dict(enumerate(free))

    # Every new edge joins two faces of a new chamber, whose u-panel is a
    # mirror of the side: its terminal face is on the side exactly when its
    # type contains u.
    for edge in grown.edges:
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


def build_labeling(ball: Clump, records) -> EdgeLabeling:
    """Label the scwol of ``ball``, the clump the unfolding ``records`` made
    from the base chamber.

    The labels start on the one-chamber scwol and each record extends them;
    the labeling then reads the ball's own scwol, which the unfoldings
    carried, so it is not rebuilt.
    """
    if len(ball.chambers) != 1 + sum(len(grown.chambers) for grown in records):
        raise DomainError("the unfoldings do not make the clump")
    building = ball.building
    labels = label_initial(building.ball(0)).labels
    for grown in records:
        label_unfold(building, labels, grown)
    return EdgeLabeling(ball, labels)


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


def coset_projections(building, bmask, sub_mask, free):
    """Each coset of G_{sub_mask} in G_{bmask}, projected onto the types in ``free``.

    The cosets are listed by group products, each from the first element of
    G_{bmask} it holds, and every member is projected: the members of a coset
    must agree, or the listing aborts.  A projection is the tuple of exponents
    of the free types, in increasing type order.
    """
    gp = building.gp
    sub = building.subgroup(sub_mask)
    gens = [g for g in range(len(gp.qs)) if (free >> g) & 1]
    covered = set()
    out = []
    for gvec in building.subgroup(bmask):
        if gvec in covered:
            continue
        coset = [gp.mul(gvec, s) for s in sub]
        covered.update(coset)
        keys = set()
        for member in coset:
            total = dict(member)
            keys.add(tuple(total.get(g, 0) for g in gens))
        if len(keys) != 1:
            raise InternalError("coset image is not well-defined")
        out.append(keys.pop())
    return out


def _fiber_failures(building, listings, tmask, bmask, ins):
    """The failing fibers of every face with one local signature.

    The signature is the face's type ``tmask``, its local mask ``bmask`` and
    ``ins``: for each in-edge, in scwol order, the type and the local mask of
    its initial face and its label.  Each fiber (the in-edges of one proper
    subtype U of T) is checked twice.  The criterion asks for pairwise
    distinct projections away from both the boundary type and U.  The
    brute-force side lists the cosets of G_{B'} in G_B, B' an in-edge's
    initial local mask, projects each onto the free types T - U and adds
    the edge's label; the images must be distinct and fill the product of
    the free types.  A listing depends on (B, B', T - U) alone and is made
    once per mask triple in ``listings``.  The two verdicts must agree.
    Returns the failing subtype masks, in ``_proper_submasks`` order.
    """
    qs = building.gp.qs
    rank = len(qs)
    by_type = {}
    for umask, amask, lvec in ins:
        by_type.setdefault(umask, []).append((amask, lvec))
    failing = []
    for umask in _proper_submasks(tmask):
        fiber = by_type.get(umask, ())

        # criterion: pairwise distinct projections away from both the
        # boundary type and the target subtype
        pmask = tmask & ~(bmask | umask)
        projections = [
            tuple(lvec[g] if (pmask >> g) & 1 else 0 for g in range(rank))
            for _, lvec in fiber
        ]
        distinct = len(set(projections)) == len(projections)

        # brute force: list every coset image
        free = tmask & ~umask
        gens = [g for g in range(rank) if (free >> g) & 1]
        target_size = 1
        for g in gens:
            target_size *= qs[g]
        images = []
        for amask, lvec in fiber:
            key = (bmask, amask, free)
            projs = listings.get(key)
            if projs is None:
                projs = listings[key] = coset_projections(building, *key)
            for proj in projs:
                images.append(tuple((x + lvec[g]) % qs[g] for x, g in zip(proj, gens)))
        bijective = len(set(images)) == len(images) and len(images) == target_size

        if distinct != bijective:
            raise InternalError("projection criterion and coset listing disagree")
        if not bijective:
            failing.append(umask)
    return tuple(failing)


def verify_labeling(lab: EdgeLabeling) -> LabelingReport:
    """Support, multiplicativity, and the per-fiber coset bijections.

    A label's support mask is read once per distinct label, and the sum of
    two labels once per distinct pair.

    The fibers of a face are checked by ``_fiber_failures`` once per local
    signature: the face's type and local mask, and for each in-edge, in
    scwol order, the type and local mask of its initial face and its label.
    That is everything the fiber checks read, so faces with one signature
    have the same failing fibers, and a verdict is kept whether it fails or
    not.  The signature is computed in the pass over the faces and dropped
    there; only the distinct ones are kept.
    Every face still adds its own fibers to ``fibers_checked``, and each
    failing fiber is reported for its own face, in face order.
    """
    clump = lab.clump
    building = clump.building
    qs = building.gp.qs
    rank = len(qs)
    cog = clump.cog()
    scwol = cog.scwol
    labels = lab.labels
    local_masks = cog.local_masks
    report = LabelingReport()

    supports = {}  # label -> mask of its nonzero types
    for (src, dst), vec in labels.items():
        if vec not in supports:
            supports[vec] = sum(1 << g for g, x in enumerate(vec) if x)
        if supports[vec] & ~dst[0]:
            for g in range(rank):
                if vec[g] and not (dst[0] >> g) & 1:
                    report.fail("support", ((src, dst), g))

    sums = {}  # (label, label) -> their sum
    for a, b, ab in scwol.composable_pairs():
        pair = labels[a], labels[b]
        if pair not in sums:
            sums[pair] = tuple((x + y) % q for x, y, q in zip(*pair, qs))
        if sums[pair] != labels[ab]:
            report.fail("composition", (a, b))

    listings = {}  # (B, B', T - U) -> coset_projections(...)
    failing_by_signature = {}
    for face in scwol.vertices:
        tmask = face[0]
        signature = (
            tmask,
            local_masks[face],
            tuple(
                (a[0][0], local_masks[a[0]], labels[a])
                for a in scwol.in_edges.get(face, ())
            ),
        )
        failing = failing_by_signature.get(signature)
        if failing is None:
            failing = failing_by_signature[signature] = _fiber_failures(
                building, listings, *signature
            )
        report.fibers_checked += (1 << tmask.bit_count()) - 1  # proper subtypes
        for umask in failing:
            report.fail("fiber", (face, umask))
    return report


# ---------------------------------------------------------------------------
# generic covering checker
# ---------------------------------------------------------------------------


@dataclass
class CoveringReport(Report):
    sheet_counts: dict = field(default_factory=dict)
    sheet_count: int = 0


def _check_vertex(src, tgt, v, fv, phi_v, ins, cosets_at, tables):
    """Local injectivity, the fiber coset bijections and the sheet count at
    the source vertex ``v``.

    ``ins`` holds (a, f(a), phi_a) for each in-edge a of v, and
    ``cosets_at`` names the coset table of each in-edge of f(v).  Cosets
    partition a group, so a source coset is listed once, from its first
    element, and every member of it is mapped.  The listing depends only on
    the local group and psi_a(G_ia), and is kept in ``tables[0]``; a target
    coset z.theta(G_ib) is built once per table and recorded for each of its
    members in ``tables[1]``.  Returns whether phi_v is injective, the fiber
    failures as (kind, where) pairs, and |G_f(v)| / |phi_v(G_v)|, or None
    when that does not divide.
    """
    group = src.group(v)
    listings, target_cosets = tables
    elements = src.elements(v)
    images = [phi_v(x) for x in elements]
    phi_of = dict(zip(elements, images))
    image = set(images)
    total = len(tgt.elements(fv))
    sheets = None if total % len(image) else total // len(image)

    failures = []
    fibers = {}
    for a, b, fa in ins:
        fibers.setdefault(b, []).append((a, fa))
    for b, table in zip(tgt.in_edges(fv), cosets_at):
        got = target_cosets.get(table)
        if got is None:
            theta_sub = [tgt.psi(b, y) for y in tgt.elements(tgt.ends(b)[0])]
            got = target_cosets[table] = (theta_sub, {})
        theta_sub, coset_of = got
        index = total // len(theta_sub)
        image_cosets = []
        for a, fa in fibers.get(b, ()):
            sub = tuple(src.psi(a, x) for x in src.elements(src.ends(a)[0]))
            cosets = listings.get((group, sub))
            if cosets is None:
                covered = set()
                cosets = listings[group, sub] = []
                for g in elements:
                    if g not in covered:
                        coset = [src.mult(v, g, s) for s in sub]
                        covered.update(coset)
                        cosets.append(coset)
            for coset in cosets:
                imgs = set()
                for member in coset:
                    x = phi_of.get(member)
                    if x is None:
                        x = phi_of[member] = phi_v(member)
                    z = tgt.mult(fv, x, fa)
                    found = coset_of.get(z)
                    if found is None:
                        found = frozenset(tgt.mult(fv, z, w) for w in theta_sub)
                        coset_of.update(dict.fromkeys(found, found))
                    imgs.add(found)
                if len(imgs) != 1:
                    failures.append(("fiber-welldef", (v, b, a)))
                    imgs = {next(iter(imgs))}
                image_cosets.append(imgs.pop())
        if len(set(image_cosets)) != len(image_cosets) or len(image_cosets) != index:
            failures.append(("fiber-bijection", (v, b)))
    return len(image) == len(images), failures, sheets


def _check_edge(src, tgt, a, b, ft, phi_t, phi_i, fa):
    """The edge diagram at the source edge ``a``, mapped to the target edge
    ``b`` into f(t(a)) = ``ft``: whether phi_t psi_a = Ad(phi_a) psi_b phi_i
    on G_ia."""
    fa_inv = tgt.inv(ft, fa)
    return all(
        phi_t(src.psi(a, x)) == tgt.mult(ft, tgt.mult(ft, fa, tgt.psi(b, phi_i(x))), fa_inv)
        for x in src.elements(src.ends(a)[0])
    )


def check_covering(src, tgt, f_vertex, f_edge, phi_vertex, phi_edge) -> CoveringReport:
    """Verify the covering axioms for a morphism of complexes of groups.

    ``src`` and ``tgt`` answer the questions of ``cog.ComplexOfGroups``:
    vertices, edges, their ends, local groups (elements, products, inverses),
    monomorphisms ``psi``, composition and twists.  ``src`` is a
    ``ComplexOfGroups``; ``tgt`` is one too, or a ``symmetry.QuotientCog``.
    ``f_vertex``/``f_edge`` give the underlying scwol morphism,
    ``phi_vertex`` the local maps (callables) and ``phi_edge`` the twisting
    elements of the morphism; the four are only subscripted, so they may
    compute their values on demand.  Checks: local injectivity, the
    per-edge commuting diagram, compatibility with composition, the target
    cog axioms, bijectivity of every fiber coset map, and vertexwise
    consistency of the sheet count.

    A covering is a local condition, and the local checks are made once per
    vertex key: the checks at a vertex v (``_check_vertex``) and the edge
    diagrams at its in-edges (``_check_edge``).  The key is ``src.group(v)``,
    the target's local data at f(v) and phi_v, and for each in-edge a,
    ``src.group(ia)``, phi_ia, the position of f(a) in ``tgt.in_edges(f(v))``
    and phi_a.  The local data (``tgt.local_data``, interned as one int per
    target vertex) are f(v)'s group and, for each of its in-edges, the
    monomorphism's data and the initial vertex's group.  Given
    f(ia) = i(f(a)) and f(v) = t(f(a)), checked at every edge outside the
    key ("vertex-map"), that is everything the checks read: a group fixes
    its elements and products, f(a)'s position names its monomorphism and
    f(ia)'s group, and ``src.psi`` is the inclusion (``src`` is a
    ``ComplexOfGroups``).  So vertices over distinct target vertices with
    the same local data share a key, as a quotient's cells do under the
    trivial group, and a target coset table is keyed by f(v)'s group and
    the in-edge's data.  Keys hold values: maps given as dicts key by what
    they hold, and a local map by its own equality.  ``covering_morphism``
    gives every vertex one inclusion, ``symmetry._quotient_morphism`` each
    cell a map x -> (k.x, 1) equal by the relabeling k makes on the cell's
    group, all the checks read of it; a plain closure equals only itself.
    A key is kept only if its checks all pass, and a vertex with a
    "vertex-map" failure is checked in full, so every failure is found at
    each vertex that has it and names its own place.  Failures are
    reported in check order.

    An edge diagram is checked once per in-edge key: f(v)'s local data id,
    phi_v and the in-edge's slice of the vertex key, all the diagram reads.
    Its verdict is kept whether it commutes or not, and a failing one is
    reported at every in-edge that has it, in check order.
    """
    report = CoveringReport()

    composed = {}
    for a, b, ab in tgt.composable_pairs():
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

    # the checks at each vertex and its in-edges, once per vertex key; the
    # failures are reported in check order below
    tables = ({}, {})  # source coset listings, target coset tables
    local_ids, table_ids = {}, {}
    at_target = {}  # f(v) -> its local data id, in-edge positions, table ids
    sheets_by_key = {}  # vertex key that passed -> its sheet count
    edge_verdicts = {}  # in-edge key -> whether its diagram commutes
    not_injective, edge_failures, fiber_failures, not_dividing = [], [], [], []
    per_vertex = {}
    for v in src.vertices():
        fv, phi_v = f_vertex[v], phi_vertex[v]
        at = at_target.get(fv)
        if at is None:
            group, in_data = data = tgt.local_data(fv)
            at = at_target[fv] = (
                local_ids.setdefault(data, len(local_ids)),
                {b: (i, tgt.ends(b)[0]) for i, b in enumerate(tgt.in_edges(fv))},
                [table_ids.setdefault((group, x), len(table_ids)) for x in in_data],
            )
        lid, position, cosets_at = at
        # f(v) = t(f(a)) when f(a) is among f(v)'s in-edges (``position``)
        key = [src.group(v), lid, phi_v]
        mapped = True
        for a in src.in_edges(v):
            ia = src.ends(a)[0]
            got = position.get(f_edge[a])
            if got is None or got[1] != f_vertex[ia]:
                got = (None,)
                mapped = False
                edge_failures.append(("vertex-map", a))
            key += (src.group(ia), phi_vertex[ia], got[0], phi_edge[a])
        key = tuple(key)
        sheets = sheets_by_key.get(key) if mapped else None
        if sheets is None:
            passed = mapped
            ins = []
            for a, i in zip(src.in_edges(v), range(3, len(key), 4)):
                edge_key = (lid, phi_v) + key[i : i + 4]
                _, _, _, phi_i, pos, fa = edge_key
                ins.append((a, f_edge[a], fa))
                if pos is None:
                    continue
                commutes = edge_verdicts.get(edge_key)
                if commutes is None:
                    commutes = edge_verdicts[edge_key] = _check_edge(
                        src, tgt, a, f_edge[a], fv, phi_v, phi_i, fa
                    )
                if not commutes:
                    passed = False
                    edge_failures.append(("edge-diagram", a))
            injective, failures, sheets = _check_vertex(
                src, tgt, v, fv, phi_v, ins, cosets_at, tables
            )
            if not injective:
                not_injective.append(v)
            fiber_failures += failures
            if passed and injective and not failures and sheets is not None:
                sheets_by_key[key] = sheets
        if sheets is None:
            not_dividing.append(v)
        else:
            per_vertex[fv] = per_vertex.get(fv, 0) + sheets
    for v in not_injective:
        report.fail("local-injectivity", v)
    if edge_failures:
        order = {a: i for i, a in enumerate(src.edges())}
        edge_failures.sort(key=lambda failure: order[failure[1]])
    for kind, a in edge_failures:
        report.fail(kind, a)

    for a, b, ab in src.composable_pairs():
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

    for kind, where in fiber_failures:
        report.fail(kind, where)
    for v in not_dividing:
        report.fail("sheet-divisibility", v)
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
    labeling: EdgeLabeling
    labeling_report: LabelingReport
    covering_report: CoveringReport


def _identity(x):
    return x


class _ToBase:
    """A face or an edge -> the base face or edge of its type(s).

    One table, built from the one-chamber target: type mask -> face, and
    pair of type masks -> edge.
    """

    __slots__ = ("table",)

    def __init__(self, tgt):
        self.table = {v[0]: v for v in tgt.vertices()}
        self.table.update(((a[0][0], a[1][0]), a) for a in tgt.edges())

    def __getitem__(self, x):
        s, t = x
        if type(s) is int:  # a face (tmask, rep)
            return self.table[s]
        return self.table[s[0], t[0]]


class _Constant:
    """Every key -> one value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __getitem__(self, key):
        return self.value


class _Twists:
    """An edge -> its label as a syllable tuple, each distinct label
    normalized once."""

    __slots__ = ("labels", "norm", "memo")

    def __init__(self, labels, norm):
        self.labels = labels
        self.norm = norm
        self.memo = {}

    def __getitem__(self, a):
        vec = self.labels[a]
        got = self.memo.get(vec)
        if got is None:
            got = self.memo[vec] = self.norm(
                tuple((g, e) for g, e in enumerate(vec) if e)
            )
        return got


def covering_morphism(src, tgt, labels):
    """The projection of the ``ComplexOfGroups`` ``src`` onto the one-chamber ``tgt``.

    Returned as ``check_covering``'s arguments: each face goes to the face
    of its type at the base chamber, the local maps are inclusions, and an
    edge's twisting element is its label.  The maps are computed on demand,
    so nothing is allocated per face or edge of ``src``.
    """
    to_base = _ToBase(tgt)
    twists = _Twists(labels, src.building.gp.norm)
    return src, tgt, to_base, to_base, _Constant(_identity), twists


def build_covering(lab: EdgeLabeling) -> Covering:
    """Assemble and doubly verify the covering induced by a labeling."""
    lreport = verify_labeling(lab)
    if not lreport.ok:
        raise VerificationError(
            f"labeling properties failed: {lreport.failures[0]!r}",
            report=lreport,
        )
    src_cog = lab.clump.cog()
    tgt_cog = lab.clump.building.ball(0).cog()
    creport = check_covering(*covering_morphism(src_cog, tgt_cog, lab.labels))
    if not creport.ok:
        raise VerificationError(
            f"covering axioms failed: {creport.failures[0]!r}", report=creport
        )
    return Covering(lab, lreport, creport)


def covering_to_json(cov: Covering) -> dict:
    building = cov.labeling.clump.building
    sysm = building.system
    return {
        "sheets": cov.covering_report.sheet_count,
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
    final, records = unfold_steps_to_ball(building, n)
    lab = build_labeling(final, records)
    cov = build_covering(lab)
    sheet_count = cov.covering_report.sheet_count
    if sheet_count != len(final.chambers):
        raise InternalError("sheet count differs from the chamber count")
    return sheet_count
