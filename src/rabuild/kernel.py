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
``normalize``, ``multiply`` and ``inverse`` are folds of ``_append`` from
the empty word, so they accept arbitrary words, and each costs one scan of
at most the output length per input syllable.

``strip_coset`` folds ``_append`` over its input once and then makes one
right-to-left pass: a syllable with its generator in the mask is dropped
when no kept syllable to its right blocks it.  Each dropped syllable is
right-visible at the moment it goes, so by the argument above the result is
canonical without a re-sort.

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
    out = []
    for g, e in a:
        _append(out, g, e, qs, comm)
    for g, e in b:
        _append(out, g, e, qs, comm)
    return tuple(out)


def inverse(a, qs, comm):
    out = []
    for g, e in reversed(a):
        _append(out, g, -e, qs, comm)
    return tuple(out)


def strip_coset(a, tmask, qs, comm):
    """Least element of the right coset of ``a`` by the subgroup on ``tmask``.

    Drops, right to left, each syllable whose generator lies in the mask and
    which no kept syllable to its right blocks; such a syllable commutes
    with everything after it, so the word stays reduced and canonical.
    """
    word = []
    for g, e in a:
        _append(word, g, e, qs, comm)
    kept = 0
    out = []
    for g, e in reversed(word):
        if (tmask >> g) & 1 and not kept & ~comm[g]:
            continue
        kept |= 1 << g
        out.append((g, e))
    out.reverse()
    return tuple(out)


def support_mask(a):
    m = 0
    for g, _ in a:
        m |= 1 << g
    return m


def backend() -> str:
    """Name of the kernel implementation, as ``info`` reports it."""
    return BACKEND
