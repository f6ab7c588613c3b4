"""Compare the compiled syllable kernel against the pure-Python fallback.

Times three cases under each backend:

- primitives: multiply, inverse and strip on random 12-syllable words;
- pipeline calls: what ball growth, residues and scwols actually ask of the
  kernel, over the 12,061 chambers of the hexagon_q3 radius-3 ball: every
  one-syllable right-multiply and every panel strip of each chamber, and
  its inverse;
- the radius-2 ball enumeration that sits on top of them.

Run from the repository root:

    python3 benchmarks/bench_kernel.py
"""

import random
import time

from rabuild import kernel
from rabuild.building import Building
from rabuild.coxeter import CoxeterSystem


def hexagon_building(q=3):
    gens = [f"s{i}" for i in range(1, 7)]
    pairs = [(gens[i], gens[(i + 1) % 6]) for i in range(6)]
    return Building(CoxeterSystem(gens, pairs), {g: q for g in gens})


def random_words(rng, qs, count, length):
    words = []
    for _ in range(count):
        words.append(
            tuple(
                (g, rng.randint(1, qs[g] - 1))
                for g in (rng.randrange(len(qs)) for _ in range(length))
            )
        )
    return words


def bench_primitives(impl, words, qs, comm, tmask):
    t0 = time.perf_counter()
    acc = 0
    for i in range(len(words) - 1):
        out = impl.multiply(words[i], words[i + 1], qs, comm)
        acc += len(out)
        acc += len(impl.inverse(out, qs, comm))
        acc += len(impl.strip_coset(out, tmask, qs, comm))
    return time.perf_counter() - t0, acc


def bench_pipeline(impl, chambers, qs, comm):
    t0 = time.perf_counter()
    acc = 0
    for c in chambers:
        for g in range(len(qs)):
            acc += len(impl.multiply(c, ((g, 1),), qs, comm))
            acc += len(impl.strip_coset(c, 1 << g, qs, comm))
        acc += len(impl.inverse(c, qs, comm))
    return time.perf_counter() - t0, acc


def bench_ball(backend_env, n):
    # re-import under the chosen backend by toggling the selection env var
    import importlib
    import os
    import rabuild.kernel
    import rabuild.building
    import rabuild.coxeter
    import rabuild.graphprod

    os.environ["RABUILD_PURE"] = backend_env
    importlib.reload(rabuild.kernel)
    importlib.reload(rabuild.graphprod)
    importlib.reload(rabuild.coxeter)
    importlib.reload(rabuild.building)
    gens = [f"s{i}" for i in range(1, 7)]
    pairs = [(gens[i], gens[(i + 1) % 6]) for i in range(6)]
    bld = rabuild.building.Building(
        rabuild.coxeter.CoxeterSystem(gens, pairs), {g: 3 for g in gens}
    )
    t0 = time.perf_counter()
    size = len(bld.ball_chambers(n))
    return time.perf_counter() - t0, size


def main():
    rng = random.Random(42)
    bld = hexagon_building()
    qs, comm = bld.gp.qs, bld.gp.comm
    words = random_words(rng, qs, 4000, 12)
    tmask = bld.system.mask(["s1", "s2"])

    impls = kernel.implementations()
    if len(impls) < 2:
        print("compiled kernel not built; only the python backend is available")

    chambers = sorted(bld.ball_chambers(3))
    assert len(chambers) == 12061

    print(
        f"{'backend':<10}{'primitives (s)':>16}{'pipeline calls (s)':>20}"
        f"{'ball(2) of 685 (s)':>22}"
    )
    results = {}
    for impl in impls:
        t_prim, acc = bench_primitives(impl, words, qs, comm, tmask)
        t_pipe, acc = bench_pipeline(impl, chambers, qs, comm)
        t_ball, size = bench_ball("1" if impl.BACKEND == "python" else "", 2)
        assert size == 685
        results[impl.BACKEND] = (t_prim, t_pipe, t_ball)
        print(f"{impl.BACKEND:<10}{t_prim:>16.3f}{t_pipe:>20.3f}{t_ball:>22.3f}")
    if len(results) == 2:
        sp, sc, sb = (p / c for p, c in zip(results["python"], results["c"]))
        print(
            f"\nspeedup: primitives x{sp:.1f}, pipeline calls x{sc:.1f}, "
            f"ball enumeration x{sb:.1f}"
        )
    # both backends must agree on everything they compute
    sample = random_words(rng, qs, 200, 10)
    for w, v in zip(sample, sample[1:]):
        outs = {impl.multiply(w, v, qs, comm) for impl in impls}
        assert len(outs) == 1
    print("cross-check: backends agree on", len(sample) - 1, "random products")


if __name__ == "__main__":
    main()
