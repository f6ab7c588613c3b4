"""Kernel correctness: normal-form laws and oracles.

``reference_normalize`` and ``reference_strip_coset`` keep the earlier
merge-then-re-sort kernel as an independent oracle for ``rabuild.kernel``.
"""

import contextlib
import io
import itertools
import json
import random

import pytest

from rabuild import kernel
from rabuild.cli import main
from tests.conftest import make_suite
from tests.test_cli_snapshot import CONFIGS, ROOT, RUNS


def random_system(rng, rank=None):
    rank = rank or rng.randint(2, 6)
    qs = tuple(rng.choice([2, 2, 3, 4]) for _ in range(rank))
    comm = [0] * rank
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < 0.5:
                comm[i] |= 1 << j
                comm[j] |= 1 << i
    return qs, tuple(comm)


def random_word(rng, qs, length, wild=False):
    """Random syllables; ``wild`` exponents run from -q to 2q, else 1 to q-1."""
    return tuple(
        (g, rng.randint(-qs[g], 2 * qs[g]) if wild else rng.randint(1, qs[g] - 1))
        for g in (rng.randrange(len(qs)) for _ in range(length))
    )


def _reference_reduce(syls, qs, comm):
    """Merge same-generator syllables visible across commuting blocks."""
    syls = [(g, e % qs[g]) for g, e in syls if e % qs[g]]
    changed = True
    while changed:
        changed = False
        n = len(syls)
        for i in range(n):
            gi = syls[i][0]
            for j in range(i + 1, n):
                gj = syls[j][0]
                if gj == gi:
                    e = (syls[i][1] + syls[j][1]) % qs[gi]
                    del syls[j]
                    if e:
                        syls[i] = (gi, e)
                    else:
                        del syls[i]
                    changed = True
                    break
                if not (comm[gi] >> gj) & 1:
                    break
            if changed:
                break
    return syls


def _reference_canonicalize(syls, comm):
    """Greedy least-available linearization of the dependence order."""
    rem = list(syls)
    out = []
    while rem:
        best = -1
        for k in range(len(rem)):
            gk = rem[k][0]
            ok = True
            for i in range(k):
                gi = rem[i][0]
                if gi == gk or not (comm[gi] >> gk) & 1:
                    ok = False
                    break
            if ok and (best < 0 or gk < rem[best][0]):
                best = k
        out.append(rem[best])
        del rem[best]
    return tuple(out)


def reference_normalize(word, qs, comm):
    """The oracle: reduce by merging, then re-sort from scratch."""
    return _reference_canonicalize(_reference_reduce(list(word), qs, comm), comm)


def reference_strip_coset(a, tmask, qs, comm):
    """The oracle: delete right-visible in-mask syllables until none is left."""
    syls = list(reference_normalize(a, qs, comm))
    changed = True
    while changed:
        changed = False
        for i in range(len(syls) - 1, -1, -1):
            g = syls[i][0]
            if not (tmask >> g) & 1:
                continue
            visible = True
            for j in range(i + 1, len(syls)):
                gj = syls[j][0]
                if gj == g or not (comm[g] >> gj) & 1:
                    visible = False
                    break
            if visible:
                del syls[i]
                changed = True
                break
    return _reference_canonicalize(syls, comm)


def test_kernel_matches_reference():
    # every rank 1-7 with every tmask, words of 0-20 syllables, exponents
    # from -q to 2q (so 0, negative and >= q appear), 300 cases per rank;
    # multiply's left factor and strip_coset's input must be canonical, so
    # they get the normal form n of the wild word w
    rng = random.Random(23)
    for rank in range(1, 8):
        for k in range(300):
            qs, comm = random_system(rng, rank)
            w = random_word(rng, qs, rng.randint(0, 20), wild=True)
            v = random_word(rng, qs, rng.randint(0, 20), wild=True)
            tmask = k % (1 << rank)
            n = reference_normalize(w, qs, comm)
            assert kernel.normalize(w, qs, comm) == n
            assert kernel.multiply(n, v, qs, comm) == reference_normalize(
                w + v, qs, comm
            )
            assert kernel.inverse(w, qs, comm) == reference_normalize(
                [(g, -e) for g, e in reversed(w)], qs, comm
            )
            stripped = reference_strip_coset(w, tmask, qs, comm)
            assert kernel.strip_coset(n, tmask, qs, comm) == stripped


def reference_right_descents(a, comm):
    """The oracle: the right-visible syllables of ``a``, each found by
    checking that everything after it commutes with it."""
    return [
        (g, i)
        for i, (g, _) in reversed(list(enumerate(a)))
        if all(h != g and (comm[g] >> h) & 1 for h, _ in a[i + 1 :])
    ]


def faces_by_descents(a, tmask, comm):
    """``a`` less its right-visible syllables with generators in ``tmask``."""
    drop = {i for g, i in kernel.right_descents(a, comm) if (tmask >> g) & 1}
    return tuple(s for i, s in enumerate(a) if i not in drop)


def pairwise_commuting_masks(comm):
    rank = len(comm)
    return [
        tmask
        for tmask in range(1 << rank)
        if all(
            (comm[g] >> h) & 1
            for g, h in itertools.combinations(
                [g for g in range(rank) if (tmask >> g) & 1], 2
            )
        )
    ]


def test_right_descents_give_every_strip():
    # random canonical words from the oracle: the descents are the
    # right-visible syllables, and deleting those in a pairwise commuting
    # mask is strip_coset (the lemma in the kernel docstring)
    rng = random.Random(29)
    for rank in range(1, 8):
        for _ in range(150):
            qs, comm = random_system(rng, rank)
            a = reference_normalize(
                random_word(rng, qs, rng.randint(0, 20), wild=True), qs, comm
            )
            descents = kernel.right_descents(a, comm)
            assert descents == reference_right_descents(a, comm)
            assert len({g for g, _ in descents}) == len(descents)
            for tmask in pairwise_commuting_masks(comm):
                want = reference_strip_coset(a, tmask, qs, comm)
                assert faces_by_descents(a, tmask, comm) == want


def test_add_chambers_faces_equal_strips(suite):
    # every chamber of each suite ball up to its test radius: the faces
    # add_chambers builds from one descent scan are the strips by every
    # spherical mask, and a face whose type misses every descent is
    # represented by the chamber itself
    from rabuild.cog import add_chambers

    for name, bld, radius in suite:
        gp = bld.gp
        for c in bld.ball_chambers(radius):
            added, _, _ = add_chambers(bld, {}, set(), [c])
            want = {(tmask, gp.strip(c, tmask)) for tmask in bld.spherical_masks}
            assert set(added) == want, (name, c)
            dmask = 0
            for g, _ in kernel.right_descents(c, gp.comm):
                dmask |= 1 << g
            for tmask, rep in added:
                assert (rep is c) == (not tmask & dmask), (name, c, tmask)


@pytest.fixture
def canonical_first_argument(monkeypatch):
    """Wrap ``multiply``, ``strip_coset`` and ``right_descents`` so that
    every call asserts that its first argument is canonical, as the kernel
    requires.

    Each distinct argument is checked against the oracle once; the set of
    checked arguments is returned.  ``right_descents`` gets no orders, and
    exponents play no part in it, so its word is checked with orders above
    each of its exponents: reduced, in canonical order, exponents >= 1.
    """
    checked = set()

    def guard(name):
        fn = getattr(kernel, name)

        def wrapper(a, *rest):
            key = (a,) + rest[-2:]  # the word with its qs and comm
            if key not in checked:
                word = key
                if name == "right_descents":
                    comm = rest[-1]
                    top = max((e for _, e in a), default=1)
                    word = (a, (top + 1,) * len(comm), comm)
                assert a == reference_normalize(*word), (name, a)
                checked.add(key)
            return fn(a, *rest)

        return wrapper

    for name in ("multiply", "strip_coset", "right_descents"):
        monkeypatch.setattr(kernel, name, guard(name))
    return checked


def test_canonical_guard_refuses_other_words(canonical_first_argument):
    qs, comm = (3, 2), (0b10, 0b01)  # two commuting generators
    assert kernel.multiply(((0, 1),), ((0, 1),), qs, comm) == ((0, 2),)
    for word in (((0, 1), (0, 1)), ((1, 1), (0, 1)), ((0, 4),), ((0, 0),)):
        with pytest.raises(AssertionError):
            kernel.multiply(word, (), qs, comm)
        with pytest.raises(AssertionError):
            kernel.strip_coset(word, 1, qs, comm)
        if word != ((0, 4),):  # no orders to hold its exponent against
            with pytest.raises(AssertionError):
                kernel.right_descents(word, comm)


def test_pipelines_pass_canonical_words(canonical_first_argument, tmp_path):
    # the snapshot runs (ball, unfold-trace, label, verify-covering, index,
    # apartments, quotient, witness), the other commands on the shipped
    # configs, and every command at radius 1 on one suite system per rank
    runs = [argv for _, argv in RUNS]
    for name in CONFIGS:
        config = str(ROOT / "configs" / f"{name}.json")
        for r in range(3):
            runs.append(("info", config, "--radius", str(r)))
            runs.append(
                ("ball", config, "--radius", str(r), "--cache", str(tmp_path / "b.json"))
            )
            runs.append(("classify", config, "--radius", str(r)))
    suite = {name: bld for name, bld, _ in make_suite()}
    for name in ("square", "mixed", "path4", "hex2"):  # ranks 2, 3, 4 and 6
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(suite[name].config_dict()))
        for command in (
            "info", "ball", "unfold-trace", "label", "verify-covering", "index",
            "classify", "apartments", "quotient", "witness",
        ):
            runs.append((command, str(config), "--radius", "1"))
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            main(list(argv))
    assert canonical_first_argument


def test_public_functions_call_no_other():
    # a tracer wrapping the public API in this module's namespace would count
    # a nested call as a second unit of kernel work
    public = {"normalize", "multiply", "inverse", "strip_coset", "right_descents"}
    for name in public:
        assert not set(getattr(kernel, name).__code__.co_names) & public, name


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        qs, comm = random_system(rng)
        w = random_word(rng, qs, rng.randint(0, 12))
        n = kernel.normalize(w, qs, comm)
        assert kernel.normalize(n, qs, comm) == n


def test_normalize_invariant_under_legal_moves():
    # shuffling adjacent commuting syllables or splitting an exponent never
    # changes the canonical form
    rng = random.Random(13)
    for _ in range(200):
        qs, comm = random_system(rng)
        w = list(random_word(rng, qs, rng.randint(1, 8)))
        base = kernel.normalize(w, qs, comm)
        for _ in range(10):
            k = rng.randrange(len(w) + 1)
            g = rng.randrange(len(qs))
            e = rng.randint(1, qs[g] - 1)
            # insert a syllable and its inverse: same element
            w = w[:k] + [(g, e), (g, qs[g] - e)] + w[k:]
        assert kernel.normalize(w, qs, comm) == base


def test_group_laws():
    rng = random.Random(17)
    for _ in range(100):
        qs, comm = random_system(rng)
        a = kernel.normalize(random_word(rng, qs, 6), qs, comm)
        b = kernel.normalize(random_word(rng, qs, 6), qs, comm)
        c = kernel.normalize(random_word(rng, qs, 6), qs, comm)
        ab_c = kernel.multiply(kernel.multiply(a, b, qs, comm), c, qs, comm)
        a_bc = kernel.multiply(a, kernel.multiply(b, c, qs, comm), qs, comm)
        assert ab_c == a_bc
        assert kernel.multiply(a, kernel.inverse(a, qs, comm), qs, comm) == ()
        assert kernel.multiply(a, (), qs, comm) == a


def enumerate_subgroup(tmask, qs, comm):
    gens = [g for g in range(len(qs)) if (tmask >> g) & 1]
    elems = [()]
    for g in gens:
        elems = [
            kernel.multiply(e, ((g, k),), qs, comm) if k else e
            for e in elems
            for k in range(qs[g])
        ]
    return set(elems)


def test_strip_coset_is_least_coset_member():
    # oracle: enumerate the whole right coset and take the shortlex-least
    rng = random.Random(19)
    for _ in range(120):
        qs, comm = random_system(rng, rank=rng.randint(2, 4))
        a = kernel.normalize(random_word(rng, qs, 5), qs, comm)
        # restrict to masks whose generators pairwise commute, so the
        # subgroup is finite in every case
        tmask = rng.choice(pairwise_commuting_masks(comm))
        coset = {
            kernel.multiply(a, x, qs, comm)
            for x in enumerate_subgroup(tmask, qs, comm)
        }
        best = min(coset, key=lambda w: (len(w), w))
        assert kernel.strip_coset(a, tmask, qs, comm) == best

