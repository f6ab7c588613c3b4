"""The benchmark's workloads: their requests, their inputs and the checks.

Every request is one ``rabuild`` CLI command on a config file.  The request
lists are fixed here, not derived from the test suite, so that the same
benchmark code measures the same work on every commit.  Which workload
stresses which layer, and the requests left out, are in README.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Systems read from configs/; each is also a tests/conftest.make_suite()
# system under another name, whose golden values it shares.  Set-up checks
# that the two configs agree.
CONFIG_FILES = {"hexagon_q3": "hex3", "tree_234": "free3"}


@dataclass(frozen=True)
class Request:
    command: str
    system: str
    radius: int | None = None
    # unfold-trace only: pass a nonzero --seed drawn from the workload seed
    seeded: bool = False

    @property
    def key(self):
        parts = [self.command, self.system]
        if self.radius is not None:
            parts.append(str(self.radius))
        if self.seeded:
            parts.append("seeded")
        return " ".join(parts)


def _each(command, cases, seeded=False):
    return [Request(command, system, radius, seeded) for system, radius in cases]


# cog and covering do the work: one scwol per clump of the unfolding, the
# labeling, its double verification and check_covering.  hex3 stops at
# radius 1 (see EXCLUDED).
_COVER_CASES = [
    ("d23", 1), ("d23", 2), ("d23", 3),
    ("d33", 1), ("d33", 2), ("d33", 3),
    ("free3", 1), ("free3", 2), ("free3", 3),
    ("square", 1), ("square", 2),
    ("mixed", 1), ("mixed", 2),
    ("path4", 1), ("path4", 2),
    ("hex2", 1), ("hex2", 2),
    ("hex3", 1),
]
# The kernel, building and clump do the work: ball growth, boundary mirrors,
# sides, the cache file written and read back, and unfolding sequences.
_BALL_CASES = [("hexagon_q3", 2), ("tree_234", 5), ("path4", 4)]
_UNFOLD_CASES = [("hex2", 2), ("free3", 3), ("path4", 2), ("d33", 5), ("mixed", 4)]
# symmetry does the work: ball automorphisms and their verification,
# quotients checked through the quotient adapter, apartment fragments.
_SUITE = ["d23", "d33", "free3", "square", "mixed", "path4", "hex2", "hex3"]

WORKLOADS = {
    "cover": [
        Request(command, system, radius)
        for system, radius in _COVER_CASES
        for command in ("label", "verify-covering", "index")
    ],
    "ball": (
        _each("ball", _BALL_CASES)
        + _each("unfold-trace", _UNFOLD_CASES)
        + _each("unfold-trace", _UNFOLD_CASES, seeded=True)
    ),
    "symmetry": (
        _each("witness", [("d23", 3), ("tree_234", 1), ("mixed", 2), ("path4", 1)])
        + _each("quotient", [("hex2", 1), ("tree_234", 3), ("mixed", 2)])
        + _each("apartments", [("tree_234", 2), ("hexagon_q3", 1), ("path4", 2)])
        + [Request("classify", system) for system in _SUITE]
    ),
}

# Requests left out because one of them alone would take a large part of a
# run (pure-Python kernel, 2 CPUs).  A later change that makes them finish in
# well under a second can add them as a workload of their own.
EXCLUDED = [
    ("index hexagon_q3 2", "about 45-50 s for one request"),
    ("label / verify-covering hexagon_q3 2", "about 40 s each"),
    ("quotient hexagon_q3 2", "more than 240 s"),
    ("quotient hexagon_q3 1", "about 3 s; one per round leaves fewer than 100 requests in a 30 s run"),
    ("witness tree_234 2", "46,656 ordered fragment pairs"),
    ("witness d33 3", "4,096 pairs; killed after 9 minutes"),
    ("unfold-trace path4 3", "about 2-2.5 s; replaced by path4 2, d33 5 and mixed 4"),
    ("unfold-trace tree_234 4", "about 2.3-3 s; replaced by path4 2, d33 5 and mixed 4"),
]


@dataclass
class Inputs:
    """Config files of every system, with the values requests are checked against."""

    configs: dict  # system -> config path
    parameters: dict  # system -> {generator: q}
    golden: dict  # tests/fixtures/golden.json
    expected: dict  # expected.json
    workdir: Path

    def golden_name(self, system):
        return CONFIG_FILES.get(system, system)

    def chambers(self, system, radius):
        """Chamber count of the radius-``radius`` ball of ``system``."""
        sizes = self.golden.get(self.golden_name(system), {}).get("ball_sizes", {})
        if str(radius) in sizes:
            return sizes[str(radius)]
        return self.expected["ball_sizes"][self.golden_name(system)][str(radius)]

    def index(self, system, radius):
        """Lattice index of the radius-``radius`` ball.

        Beyond the radii golden.json lists, the index is the ball's chamber
        count: every chamber is one sheet of the covering.
        """
        indices = self.golden[self.golden_name(system)]["indices"]
        return indices.get(str(radius), self.chambers(system, radius))

    def argv(self, req, seed=0):
        argv = [req.command, str(self.configs[req.system])]
        if req.radius is not None:
            argv += ["--radius", str(req.radius)]
        if seed:
            argv += ["--seed", str(seed)]
        if req.command == "ball":
            argv += ["--cache", str(self.cache_path(req))]
        return argv

    def cache_path(self, req):
        return self.workdir / f"ball-{req.system}-{req.radius}.json"


def load_suite():
    """``tests/conftest.make_suite()``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_conftest", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_suite()


def make_inputs(workdir: Path, expected=None) -> Inputs:
    """Write the suite configs into ``workdir`` and load the expected values."""
    configs, parameters = {}, {}
    suite = {}
    for name, building, _radius in load_suite():
        suite[name] = building.config_dict()
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(suite[name], sort_keys=True))
        configs[name] = path
        parameters[name] = suite[name]["parameters"]
    for name, alias in CONFIG_FILES.items():
        path = ROOT / "configs" / f"{name}.json"
        data = json.loads(path.read_text())
        if (
            data["generators"] != suite[alias]["generators"]
            or data["parameters"] != suite[alias]["parameters"]
            or {frozenset(p) for p in data["relations"]}
            != {frozenset(p) for p in suite[alias]["relations"]}
        ):
            raise ValueError(f"{path} is not the suite system {alias}")
        configs[name] = path
        parameters[name] = data["parameters"]
    golden = json.loads((ROOT / "tests" / "fixtures" / "golden.json").read_text())
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    return Inputs(configs, parameters, golden, expected, workdir)


def chamber_digest(chambers):
    """Order-independent digest of a chamber set (syllable tuples)."""
    blob = json.dumps(sorted(chambers)).encode()
    return hashlib.sha256(blob).hexdigest()


def recorded_fields(req, payload, readback=None):
    """The fields of a request's output that expected.json records."""
    if req.command == "ball":
        return {
            "boundary_mirrors": payload["boundary_mirrors"],
            "cache_digest": chamber_digest(readback[1]),
        }
    if req.command == "witness":
        return {"fragments": payload["fragments"]}
    if req.command == "quotient":
        return {k: payload[k] for k in ("sheets", "group_order")}
    if req.command == "apartments":
        return {"count": payload["count"]}
    if req.command == "classify":
        return {
            k: payload[k]
            for k in ("case", "type_preserving_discrete", "full_group_discrete", "nerve_rigid")
        }
    return {}


def check(req, inputs: Inputs, code, stdout, readback=None):
    """Why a request's result is wrong, or None when it is right.

    ``readback`` is the (radius, chambers) pair read back from a ball cache.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    cmd = req.command
    want, got = {}, {}
    if cmd in ("verify-covering", "ball", "unfold-trace"):
        want["chambers"] = inputs.chambers(req.system, req.radius)
    if cmd == "label":
        want = {"properties_hold": True}
    elif cmd == "verify-covering":
        want.update(ok=True, sheets=want["chambers"])
    elif cmd == "index":
        want = {"index": inputs.index(req.system, req.radius)}
    elif cmd == "ball":
        got["readback_radius"] = readback[0]
        got["readback_chambers"] = len(readback[1])
        want.update(readback_radius=req.radius, readback_chambers=want["chambers"])
    elif cmd == "unfold-trace":
        want["matches_direct_enumeration"] = True
        # The sheet law: unfolding along a side of type s adds q_s - 1 sheets.
        q = inputs.parameters[req.system]
        bad = [st for st in payload["steps"] if st["sheets"] != q[st["type"]] - 1]
        got["sheet_law_violations"] = len(bad)
        want["sheet_law_violations"] = 0
    elif cmd == "witness":
        want["all_pairs_witnessed"] = True
    elif cmd == "quotient":
        want["ok"] = True
    if cmd in ("ball", "witness", "quotient", "apartments", "classify"):
        key = Request(req.command, req.system, req.radius).key
        want.update(inputs.expected["requests"][key])
        got.update(recorded_fields(req, payload, readback))
    for field, value in want.items():
        have = got[field] if field in got else payload.get(field)
        if have != value:
            return f"{field} = {have!r}, expected {value!r}"
    return None
