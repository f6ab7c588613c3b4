import json

import pytest

from rabuild import covering
from rabuild.cli import main, parse_config
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
