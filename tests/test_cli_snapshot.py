"""CLI output snapshot: exit code and SHA-256 of stdout for fixed runs.

The runs cover the unfolding, labeling, covering and witness commands on the
shipped configs.  Any change in a hash is a change in what the CLI prints.
To record the fixture again, run ``PYTHONPATH=src python -m
tests.test_cli_snapshot`` from the repository root.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib

import pytest

from rabuild.cli import main

ROOT = pathlib.Path(__file__).parent.parent
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_snapshot.json"
CONFIGS = ("d23", "hexagon_q3", "square23", "tree_234")
WITNESS_RADII = {"d23": 3, "square23": 2, "tree_234": 1, "hexagon_q3": 0}


def snapshot_runs():
    """Each run as (key, argv); the key names the run in the fixture."""
    runs = []
    for name in CONFIGS:
        config = str(ROOT / "configs" / f"{name}.json")
        for r in range(3):
            for command, extra in (
                ("unfold-trace", ()),
                ("unfold-trace", ("--seed", "5")),
                ("label", ()),
                ("verify-covering", ()),
                ("index", ()),
            ):
                argv = (command, config, "--radius", str(r)) + extra
                runs.append((" ".join((command, name, f"r{r}") + extra), argv))
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


RUNS = snapshot_runs()


@functools.cache
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key,argv", RUNS, ids=[key for key, _ in RUNS])
def test_cli_output_matches_snapshot(key, argv):
    assert run_once(argv) == expected()[key]


def test_snapshot_lists_every_run():
    assert sorted(expected()) == sorted(key for key, _ in RUNS)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({key: run_once(argv) for key, argv in RUNS}, indent=1, sort_keys=True)
        + "\n"
    )
