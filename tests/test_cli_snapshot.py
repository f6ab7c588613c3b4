"""CLI output snapshot: exit code and SHA-256 of stdout for fixed runs.

The runs cover the ball, unfolding, labeling, covering, apartment, quotient
and witness commands on the shipped configs (``ball`` on hexagon_q3 at
radius 3 pins a 25,680-side table; ``apartments`` on hexagon_q3 at
radius 2 pins the exit-3 payload of the apartment count cap; ``quotient``
on hexagon_q3 at radius 2, about 5 s, is the heaviest run; ``quotient`` on
tree_234 at radius 3 pins a quotient under the trivial group, whose covering
keys repeat only through the target's local data), and the file
``ball --cache`` writes (its stdout names the cache path, so only the file is
hashed).  Any change in a hash is a change
in what the CLI prints or writes.  Each printing run also passes the
canonical-word guard ``canonical_first_argument`` (``tests/conftest.py``):
every ``multiply``, ``strip_coset`` and ``right_descents`` call it makes
gets a canonical first argument.  To record the fixture again, run
``PYTHONPATH=src python -m tests.test_cli_snapshot`` from the repository
root.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import tempfile

import pytest

from rabuild.cli import main

ROOT = pathlib.Path(__file__).parent.parent
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_snapshot.json"
CONFIGS = ("d23", "hexagon_q3", "square23", "tree_234")
WITNESS_RADII = {"d23": 3, "square23": 2, "tree_234": 2, "hexagon_q3": 1}


def snapshot_runs():
    """Each run as (key, argv); the key names the run in the fixture."""
    runs = []
    for name in CONFIGS:
        config = str(ROOT / "configs" / f"{name}.json")
        for r in range(3):
            for command, extra in (
                ("ball", ()),
                ("unfold-trace", ()),
                ("unfold-trace", ("--seed", "5")),
                ("label", ()),
                ("verify-covering", ()),
                ("index", ()),
                ("apartments", ()),
            ):
                argv = (command, config, "--radius", str(r)) + extra
                runs.append((" ".join((command, name, f"r{r}") + extra), argv))
            argv = ("quotient", config, "--radius", str(r))
            runs.append((f"quotient {name} r{r}", argv))
    config = str(ROOT / "configs" / "tree_234.json")
    runs.append(("ball tree_234 r5", ("ball", config, "--radius", "5")))
    runs.append(("quotient tree_234 r3", ("quotient", config, "--radius", "3")))
    config = str(ROOT / "configs" / "hexagon_q3.json")
    runs.append(("ball hexagon_q3 r3", ("ball", config, "--radius", "3")))
    for name, rmax in WITNESS_RADII.items():
        config = str(ROOT / "configs" / f"{name}.json")
        for r in range(rmax + 1):
            runs.append((f"witness {name} r{r}", ("witness", config, "--radius", str(r))))
    return runs


def run_once(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def cache_runs():
    """Each ``ball --cache`` run as (key, config name, radius)."""
    return [
        (f"ball --cache {name} r{r}", name, r) for name in CONFIGS for r in range(3)
    ]


def run_cache(name, radius, directory):
    path = pathlib.Path(directory) / "ball.json"
    config = str(ROOT / "configs" / f"{name}.json")
    argv = ["ball", config, "--radius", str(radius), "--cache", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return {"exit": code, "cache_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


RUNS = snapshot_runs()
CACHE_RUNS = cache_runs()


@functools.cache
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key,argv", RUNS, ids=[key for key, _ in RUNS])
def test_cli_output_matches_snapshot(key, argv, canonical_first_argument):
    # every kernel call of the run must get a canonical first argument
    assert run_once(argv) == expected()[key]


@pytest.mark.parametrize(
    "key,name,radius", CACHE_RUNS, ids=[key for key, _, _ in CACHE_RUNS]
)
def test_ball_cache_matches_snapshot(key, name, radius, tmp_path):
    assert run_cache(name, radius, tmp_path) == expected()[key]


def test_snapshot_lists_every_run():
    keys = [key for key, _ in RUNS] + [key for key, _, _ in CACHE_RUNS]
    assert sorted(expected()) == sorted(keys)


if __name__ == "__main__":
    got = {key: run_once(argv) for key, argv in RUNS}
    with tempfile.TemporaryDirectory() as directory:
        for key, name, radius in CACHE_RUNS:
            got[key] = run_cache(name, radius, directory)
    FIXTURE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
