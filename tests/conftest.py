import importlib.util
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from rabuild.building import Building
from rabuild.coxeter import CoxeterSystem


def hexagon_system():
    gens = [f"s{i}" for i in range(1, 7)]
    pairs = [(gens[i], gens[(i + 1) % 6]) for i in range(6)]
    return CoxeterSystem(gens, pairs)


def corrupted_labeling(bld, seed=17):
    """The radius-1 labeling with one side-type label component shifted.

    Returns the labeling and the corrupted edge; the shift breaks the fiber
    bijection at the edge's terminal face.
    """
    from rabuild.clump import unfold_steps_to_ball
    from rabuild.covering import build_labeling

    final, steps = unfold_steps_to_ball(bld, 1)
    lab = build_labeling(bld, steps)
    u_edges = [
        (e, v)
        for e, v in lab.labels.items()
        if any(v) and bin(e[1][0]).count("1") == 1
    ]
    edge, vec = random.Random(seed).choice(sorted(u_edges))
    g = next(i for i, x in enumerate(vec) if x)
    bad = list(vec)
    bad[g] = (bad[g] + 1) % bld.gp.qs[g]
    lab.labels = dict(lab.labels)
    lab.labels[edge] = tuple(bad)
    return lab, edge


def make_suite():
    """Test systems: name, building, and the radius its coverings run to.

    Tree systems (no commuting pairs) go to radius 3, the rest to radius 2.
    """
    hexsys = hexagon_system()
    entries = [
        ("d23", Building(CoxeterSystem(["s", "t"]), {"s": 2, "t": 3}), 3),
        ("d33", Building(CoxeterSystem(["s", "t"]), {"s": 3, "t": 3}), 3),
        (
            "free3",
            Building(CoxeterSystem(["a", "b", "c"]), {"a": 2, "b": 4, "c": 3}),
            3,
        ),
        (
            "square",
            Building(CoxeterSystem(["s", "t"], [("s", "t")]), {"s": 2, "t": 3}),
            2,
        ),
        (
            "mixed",
            Building(
                CoxeterSystem(["a", "b", "c"], [("b", "c")]),
                {"a": 2, "b": 2, "c": 3},
            ),
            2,
        ),
        (
            "path4",
            Building(
                CoxeterSystem(
                    ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
                ),
                {"a": 2, "b": 3, "c": 2, "d": 4},
            ),
            2,
        ),
        ("hex2", Building(hexsys, {g: 2 for g in hexsys.generators}), 2),
        ("hex3", Building(hexsys, {g: 3 for g in hexsys.generators}), 2),
    ]
    return entries


@pytest.fixture(scope="session")
def suite():
    return make_suite()


@pytest.fixture(scope="session")
def suite_traces(suite):
    """Canonical unfolding sequences to each system's test radius."""
    from rabuild.clump import unfold_steps_to_ball

    out = {}
    for name, bld, nmax in suite:
        out[name] = unfold_steps_to_ball(bld, nmax)
    return out


SPEEDUPS = Path(__file__).resolve().parents[1] / "src" / "rabuild" / "_speedups"

# Cython quotes the .pyx line behind each block of generated C:
#   /* "rabuild/_speedups.pyx":N
#    * <context lines>
#    * <line N>             # <<<<<<<<<<<<<<
_QUOTED_PYX_LINE = re.compile(
    r'"rabuild/_speedups\.pyx":(\d+)\n(?: \*.*\n)*? \* (.*)             # <{14}$',
    re.MULTILINE,
)


def stale_speedups_line(c_text, pyx_lines):
    """First .pyx line number that ``_speedups.c`` quotes differently.

    None when every quoted line matches, 0 when the C file quotes none.  A
    mismatch means the committed C file was generated from another version
    of ``_speedups.pyx`` and must be regenerated with Cython.
    """
    quoted = sorted((int(n), text) for n, text in _QUOTED_PYX_LINE.findall(c_text))
    if not quoted:
        return 0
    for n, text in quoted:
        if n > len(pyx_lines) or pyx_lines[n - 1].rstrip() != text.rstrip():
            return n
    return None


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, built from the committed ``_speedups.c``.

    The C file is compiled with the interpreter's own compiler settings into
    a temporary directory and loaded from there: no Cython, no install step,
    nothing written under ``src/``.  ``sys.modules`` is left as it was found,
    so ``rabuild.kernel`` keeps the backend it chose at import.  Skips only
    when the C compiler or ``Python.h`` is missing; a failing build fails.
    """
    c_file = SPEEDUPS.with_suffix(".c")
    stale = stale_speedups_line(
        c_file.read_text(), SPEEDUPS.with_suffix(".pyx").read_text().splitlines()
    )
    if stale is not None:
        pytest.fail(
            f"{c_file.name} does not match _speedups.pyx at line {stale}; "
            "regenerate it with cython",
            pytrace=False,
        )
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"C compiler {cc[:1]} not on PATH")
    include = Path(sysconfig.get_paths()["include"])
    if not (include / "Python.h").is_file():
        pytest.skip(f"Python.h not in {include}")
    out = tmp_path_factory.mktemp("speedups")
    obj = out / "_speedups.o"
    ext = out / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    # -O1: the tests check semantics, and it compiles in half the time of -O3
    for cmd in (
        [*cc, *shlex.split(sysconfig.get_config_var("CCSHARED") or ""), "-O1",
         f"-I{include}", "-c", str(c_file), "-o", str(obj)],
        [*shlex.split(sysconfig.get_config_var("LDSHARED")), str(obj), "-o", str(ext)],
    ):
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode:
            pytest.fail(
                f"{shlex.join(cmd)} exited {run.returncode}:\n{run.stderr}",
                pytrace=False,
            )
    spec = importlib.util.spec_from_file_location("rabuild._speedups", ext)
    saved = sys.modules.get(spec.name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # registers spec.name in sys.modules
    finally:
        if saved is None:
            sys.modules.pop(spec.name, None)
        else:
            sys.modules[spec.name] = saved
    return module


@pytest.fixture
def d23():
    return Building(CoxeterSystem(["s", "t"]), {"s": 2, "t": 3})


@pytest.fixture
def d33():
    return Building(CoxeterSystem(["s", "t"]), {"s": 3, "t": 3})


@pytest.fixture
def square23():
    return Building(CoxeterSystem(["s", "t"], [("s", "t")]), {"s": 2, "t": 3})


@pytest.fixture
def hex3():
    sysm = hexagon_system()
    return Building(sysm, {g: 3 for g in sysm.generators})


@pytest.fixture
def tree_product():
    """Product of two trees: four generators, opposite pairs unrelated."""
    sysm = CoxeterSystem(
        ["s1", "s2", "t1", "t2"],
        [("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2")],
    )
    return Building(sysm, {"s1": 2, "s2": 2, "t1": 2, "t2": 2})
