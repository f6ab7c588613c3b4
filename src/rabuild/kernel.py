"""The syllable kernel: normal forms in a graph product of cyclic groups.

Elements of a graph product of cyclic groups are stored as tuples of
``(generator_index, exponent)`` syllables.  A word is *reduced* when no two
syllables with the same generator can see each other across a block of
commuting syllables, and *canonical* when it is additionally the
lexicographically least shuffle of its reduced form (generators compared by
index): the lexicographic, or Anisimov-Knuth, normal form of the trace.
Canonical words are unique per group element, so tuple equality is element
equality.

Every function takes the group data positionally: ``qs`` is a tuple of
cyclic orders (all >= 2) and ``comm`` a tuple of bitmasks, bit ``j`` of
``comm[i]`` set iff generators ``i != j`` commute.

One primitive does all the work.  ``_append`` right-multiplies a canonical
syllable list by one syllable ``(g, e)`` in a single right-to-left scan:

- if a syllable of ``g`` is visible from the right end (everything after it
  commutes with ``g``), the exponents merge, and the syllable is deleted
  when the sum is 0 mod q;
- otherwise the scan stops at the last syllable that does not commute with
  ``g``, and ``(g, e)`` is inserted after it, before the first later
  syllable with a larger generator index.

Both cases keep the form canonical.  The canonical form is the greedy
least-available linearization of the syllables' dependence order.  A new
syllable has no successor in that order, so it joins the available set
after its last predecessor and the greedy choice takes it at the first
larger index.  A right-visible syllable has no successor either, so deleting
it removes one greedy step and leaves every other step as it was.

``normalize`` is the entry point for arbitrary words: it folds ``_append``
over the word from the empty word.  ``inverse`` folds ``_append`` over the
reversed, negated word, so it accepts arbitrary words too.  ``multiply(a,
b)`` requires ``a`` to be canonical: it starts from ``a`` as it is and folds
``_append`` over ``b``, which may be any word.  Each fold costs one scan of
at most the output length per folded syllable.

``strip_coset`` requires canonical input and makes one right-to-left pass
over it: a syllable with its generator in the mask is dropped when no kept
syllable to its right blocks it.  Each dropped syllable is right-visible at
the moment it goes, so by the argument above the result is canonical
without a re-sort.

``right_descents`` lists the right-visible syllables of a canonical word
in one right-to-left pass: a syllable of ``g`` is right-visible when every
syllable after it commutes with ``g`` (``seen & ~comm[g] == 0``, where
``seen`` is the mask of generators after it).  These are the right descents
of the trace; their generators are distinct and pairwise commuting.

Lemma.  For canonical ``a`` and a spherical (pairwise commuting) mask T,
``strip_coset(a, T)`` deletes exactly the right-visible syllables of ``a``
whose generator lies in T.

Proof.  A deleted syllable commutes with every kept syllable after it (or
it would be blocked), and with every deleted one (T is pairwise
commuting), so it is right-visible.  Conversely, a right-visible syllable
of a generator in T commutes with everything after it, so no kept syllable
blocks it and it is deleted.

So the face of ``a`` of type T depends only on T ∩ D(a), D(a) the mask of
descent generators: a chamber has at most 2^|D(a)| distinct faces, and
when T ∩ D(a) is empty the face representative is ``a`` itself.

Nothing here checks that a required-canonical argument is canonical.  Words
from outside reach the kernel only through ``Building.deserialize_chamber``,
which refuses a cached chamber that is not in normal form; every other
argument is a kernel result or a ball chamber that ``Building._heaps``
lists as canonical by construction (its lemma 2).  ``tests/test_kernel.py``
and ``tests/test_building.py`` check that the pipelines keep to this.

See Hermiller & Meier, "Algorithms and geometry for graph products of
groups", J. Algebra 171 (1995), and Diekert & Rozenberg (eds.), *The Book
of Traces* (1995), on the lexicographic normal form of traces.

No public function here calls another one: ``perfbench/tracer.py`` wraps
them in this module's namespace and counts every call as one unit of kernel
work, so a nested call would be counted twice.
"""

BACKEND = "python"


def _append(out, g, e, qs, comm):
    """Right-multiply the canonical syllable list ``out`` by ``(g, e)``."""
    q = qs[g]
    e %= q
    if not e:
        return
    cg = comm[g]
    i = len(out) - 1
    while i >= 0:
        h, f = out[i]
        if h == g:
            e = (f + e) % q
            if e:
                out[i] = (g, e)
            else:
                del out[i]
            return
        if not (cg >> h) & 1:
            break
        i -= 1
    # out[i] is the last syllable that does not commute with g (i = -1: none)
    i += 1
    n = len(out)
    while i < n and out[i][0] < g:
        i += 1
    out.insert(i, (g, e))


def normalize(word, qs, comm):
    """Canonical form of an arbitrary syllable word."""
    out = []
    for g, e in word:
        _append(out, g, e, qs, comm)
    return tuple(out)


def multiply(a, b, qs, comm):
    """Canonical form of ``a`` times ``b``; ``a`` must be canonical."""
    out = list(a)
    for g, e in b:
        _append(out, g, e, qs, comm)
    return tuple(out)


def inverse(a, qs, comm):
    out = []
    for g, e in reversed(a):
        _append(out, g, -e, qs, comm)
    return tuple(out)


def strip_coset(a, tmask, qs, comm):
    """Least element of the right coset of the canonical ``a`` by the
    subgroup on ``tmask``.

    Drops, right to left, each syllable whose generator lies in the mask and
    which no kept syllable to its right blocks; such a syllable commutes
    with everything after it, so the word stays reduced and canonical.
    """
    kept = 0
    out = []
    for g, e in reversed(a):
        if (tmask >> g) & 1 and not kept & ~comm[g]:
            continue
        kept |= 1 << g
        out.append((g, e))
    out.reverse()
    return tuple(out)


def right_descents(a, comm):
    """``(generator, position)`` of each right-visible syllable of the
    canonical ``a``, right to left."""
    seen = 0
    out = []
    for i in range(len(a) - 1, -1, -1):
        g = a[i][0]
        if not seen & ~comm[g]:
            out.append((g, i))
        seen |= 1 << g
    return out


def backend() -> str:
    """Name of the kernel implementation, as ``info`` reports it."""
    return BACKEND
