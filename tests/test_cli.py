import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabuild import covering
from rabuild.cli import SystemConfig, main, parse_config
from rabuild.errors import InputError
from tests.conftest import corrupted_labeling

D23 = {
    "generators": ["s", "t"],
    "relations": [],
    "parameters": {"s": 2, "t": 3},
}

HEXAGON = {
    "generators": [f"s{i}" for i in range(1, 7)],
    "relations": [[f"s{i}", f"s{i % 6 + 1}"] for i in range(1, 7)],
    "parameters": {f"s{i}": 3 for i in range(1, 7)},
}


def write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_config_minimal():
    cfg = parse_config(json.dumps(D23))
    assert cfg.generators == ["s", "t"]
    assert cfg.parameters == {"s": 2, "t": 3}
    bld = cfg.building()
    assert bld.gp.q("t") == 3


def test_parse_config_hexagon():
    cfg = parse_config(json.dumps(HEXAGON))
    assert len(cfg.generators) == 6 and len(cfg.relations) == 6


@pytest.mark.parametrize(
    "mutation",
    [
        {"parameters": {"s": 1, "t": 3}},
        {"generators": ["s", "s"]},
        {"relations": [["s", "x"]]},
        {"relations": [["s", "s"]]},
        {"relations": [["s", "t"], ["t", "s"]]},
        {"parameters": {"s": 2}},
        {"parameters": {"s": 2, "t": 3, "u": 2}},
        {"caps": "x"},
        {"caps": {"chambers": "lots"}},
        {"caps": {"chambers": 0}},
        {"caps": {"radius": -1}},
        {"caps": {"radius": True}},
    ],
)
def test_parse_config_rejects(mutation):
    bad = dict(D23)
    bad.update(mutation)
    with pytest.raises(InputError):
        parse_config(json.dumps(bad))


def test_info(tmp_path, capsys):
    code, out = run(capsys, "info", write(tmp_path, D23))
    assert code == 0
    data = json.loads(out)
    assert data["coxeter_group_finite"] is False
    assert data["maximal_spherical"] == [["s"], ["t"]]


def test_ball_and_cache(tmp_path, capsys):
    cache = tmp_path / "ball.json"
    code, out = run(
        capsys, "ball", write(tmp_path, D23), "--radius", "1", "--cache", str(cache)
    )
    assert code == 0
    assert json.loads(out)["chambers"] == 4
    assert cache.exists()


@pytest.mark.parametrize("flag", ["--cache", "--dot"])
def test_ball_unwritable_output_exit_code(tmp_path, capsys, flag):
    target = str(tmp_path / "missing" / "out")
    code, out = run(
        capsys, "ball", write(tmp_path, D23), "--radius", "1", flag, target
    )
    assert code == 2
    data = json.loads(out)
    assert data["kind"] == "InputError" and target in data["error"]


def test_index(tmp_path, capsys):
    code, out = run(capsys, "index", write(tmp_path, D23), "--radius", "1")
    assert code == 0
    assert json.loads(out)["index"] == 4


def test_classify_case1_hexagon(tmp_path, capsys):
    code, out = run(capsys, "classify", write(tmp_path, HEXAGON))
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "1"
    assert data["full_group_discrete"] is False


def test_verify_covering(tmp_path, capsys):
    code, out = run(
        capsys, "verify-covering", write(tmp_path, D23), "--radius", "2"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_unfold_trace(tmp_path, capsys):
    code, out = run(capsys, "unfold-trace", write(tmp_path, D23), "--radius", "2")
    assert code == 0
    data = json.loads(out)
    assert data["matches_direct_enumeration"] is True
    assert all(st["sheets"] == 1 or st["sheets"] == 2 for st in data["steps"])


def test_apartments_and_witness(tmp_path, capsys):
    code, out = run(capsys, "apartments", write(tmp_path, D23), "--radius", "1")
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out = run(capsys, "witness", write(tmp_path, D23), "--radius", "1")
    assert code == 0
    assert json.loads(out)["all_pairs_witnessed"] is True


def test_quotient(tmp_path, capsys):
    cfg = {
        "generators": ["s", "t"],
        "relations": [],
        "parameters": {"s": 3, "t": 3},
    }
    code, out = run(capsys, "quotient", write(tmp_path, cfg), "--radius", "1")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["sheets"] == 2


def test_byte_determinism(tmp_path, capsys):
    path = write(tmp_path, D23)
    outs = set()
    for _ in range(2):
        code, out = run(capsys, "label", path, "--radius", "2")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_bad_config_exit_code(tmp_path, capsys):
    bad = dict(D23)
    bad["parameters"] = {"s": 1, "t": 3}
    code, _ = run(capsys, "info", write(tmp_path, bad))
    assert code == 2


def test_radius_cap_exit_code(tmp_path, capsys):
    cfg = dict(D23)
    cfg["caps"] = {"radius": 1}
    code, _ = run(capsys, "ball", write(tmp_path, cfg), "--radius", "3")
    assert code == 2


def test_chamber_cap_exit_code(tmp_path, capsys):
    code, _ = run(
        capsys, "ball", write(tmp_path, D23), "--radius", "3", "--cap-chambers", "3"
    )
    assert code == 3


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_chamber_cap_flag_validated(tmp_path, capsys, cap):
    code, out = run(
        capsys, "ball", write(tmp_path, D23), "--radius", "1", "--cap-chambers", cap
    )
    assert code == 2
    assert json.loads(out)["error"] == f"--cap-chambers = {cap}, need an integer >= 1"


@pytest.mark.parametrize("command", ["index", "apartments", "witness"])
def test_chamber_cap_flag_honoured(tmp_path, capsys, command):
    code, _ = run(
        capsys, command, write(tmp_path, D23), "--radius", "3", "--cap-chambers", "5"
    )
    assert code == 3


def test_huge_panel_order_is_refused_before_it_is_built(tmp_path, capsys):
    cfg = {"generators": ["s", "t"], "parameters": {"s": 10**30, "t": 3}}
    path = write(tmp_path, cfg)
    for command, radius, expected in [
        ("ball", "1", 3),
        ("unfold-trace", "1", 3),
        ("ball", "0", 0),
    ]:
        start = time.perf_counter()
        code, _ = run(capsys, command, path, "--radius", radius)
        assert code == expected, command
        assert time.perf_counter() - start < 1.0, command


def test_subgroup_over_cap_is_not_built(tmp_path, capsys, monkeypatch):
    built = []
    make = SystemConfig.building

    def recording(self):
        built.append(make(self))
        return built[-1]

    monkeypatch.setattr(SystemConfig, "building", recording)
    cfg = {
        "generators": ["s", "t"],
        "relations": [["s", "t"]],
        "parameters": {"s": 400, "t": 400},
    }
    code, out = run(
        capsys, "ball", write(tmp_path, cfg), "--radius", "1", "--cap-chambers", "10"
    )
    assert code == 3
    assert "order 160000" in json.loads(out)["error"]
    assert built and built[0]._subgroup_cache == {}


def test_quotient_rank_over_search_cap_exit_code(tmp_path, capsys):
    names = [f"g{i}" for i in range(11)]
    cfg = {"generators": names, "parameters": {g: 2 for g in names}}
    code, _ = run(capsys, "quotient", write(tmp_path, cfg), "--radius", "0")
    assert code == 3


def test_verification_failure_payload(tmp_path, capsys, monkeypatch):
    lab, _ = corrupted_labeling(parse_config(json.dumps(D23)).building())
    monkeypatch.setattr(covering, "build_labeling", lambda bld, steps: lab)
    code, out = run(
        capsys, "verify-covering", write(tmp_path, D23), "--radius", "1"
    )
    assert code == 4
    data = json.loads(out)
    assert data["kind"] == "VerificationError"
    assert data["failures"] and data["failures"][0]["kind"] == "fiber"


def test_missing_config_file(capsys):
    code, _ = run(capsys, "info", "/nonexistent/config.json")
    assert code == 2


# Config JSON in valid and malformed shapes.  Names come from a small pool so
# that unknown and duplicate generators, and relations between them, occur.
NAMES = st.sampled_from(["s", "t", "u", "v"])
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3)
)
Q = st.one_of(
    st.integers(-1, 6), st.integers(2, 10**30), st.booleans(),
    st.floats(allow_nan=False), st.text(max_size=3),
)
CAP = st.one_of(st.integers(-2, 60), st.integers(0, 10**30), JUNK)
CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "generators": st.one_of(st.lists(NAMES, max_size=4), JUNK),
        "relations": st.one_of(
            st.lists(st.one_of(st.lists(NAMES, max_size=3), JUNK), max_size=4),
            JUNK,
        ),
        "parameters": st.one_of(st.dictionaries(NAMES, Q, max_size=4), JUNK),
        "caps": st.one_of(
            st.fixed_dictionaries({}, optional={"radius": CAP, "chambers": CAP}),
            JUNK,
        ),
    },
)
# Well-formed configs: distinct generators, commuting pairs of distinct
# generators, a valid q for each and optional valid caps.
VALID = st.lists(NAMES, min_size=1, max_size=4, unique=True).flatmap(
    lambda gens: st.fixed_dictionaries(
        {
            "generators": st.just(gens),
            "relations": st.lists(
                st.permutations(gens).map(lambda p: list(p[:2])),
                max_size=3,
                unique_by=frozenset,
            )
            if len(gens) > 1
            else st.just([]),
            "parameters": st.fixed_dictionaries(
                {g: st.integers(2, 5) | st.integers(2, 10**30) for g in gens}
            ),
        },
        optional={
            "caps": st.fixed_dictionaries(
                {},
                optional={"radius": st.integers(0, 4), "chambers": st.integers(1, 60)},
            )
        },
    )
)
MALFORMED = st.one_of(
    st.one_of(CONFIG, st.lists(st.integers(), max_size=2), JUNK).map(json.dumps),
    st.text(max_size=10),
)
# Two examples in three are well-formed, so that most commands run to the end.
CONFIG_TEXT = st.sampled_from([VALID.map(json.dumps)] * 2 + [MALFORMED]).flatmap(
    lambda strategy: strategy
)

# witness, apartments and quotient are left out: their work is not yet
# bounded by the chamber cap (a 29-chamber ball has 216 apartment fragments,
# and witness builds every ordered pair of them).
FUZZED_COMMANDS = [
    "info", "ball", "classify", "index", "unfold-trace", "label", "verify-covering",
]


@pytest.mark.parametrize("command", FUZZED_COMMANDS)
@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    text=CONFIG_TEXT,
    radius=st.integers(-2, 3),
    cap=st.integers(-1, 50),
    seed=st.integers(0, 3),
)
def test_cli_fuzz_exits_with_a_documented_code(text, command, radius, cap, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        argv = [
            command, str(path), f"--radius={radius}", f"--cap-chambers={cap}",
            f"--seed={seed}",
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    assert code in {0, 2, 3, 4, 5}
