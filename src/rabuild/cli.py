"""Command-line front end.

Systems are described by a JSON config::

    {
      "generators": ["s", "t"],
      "relations": [["s", "t"]],        # commuting pairs; absent = no relation
      "parameters": {"s": 2, "t": 3},   # each q >= 2
      "caps": {"radius": 6, "chambers": 200000}   # optional
    }

All outputs are JSON on stdout with sorted keys, byte-identical for
identical inputs.  Exit codes: 0 success, 2 input error, 3 cap exceeded,
4 verification failure, 5 domain error, 6 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import covering as covering_mod
from . import kernel
from . import symmetry
from .building import DEFAULT_CHAMBER_CAP, Building, save_ball_cache
from .clump import unfold_steps_to_ball, sheets
from .coxeter import CoxeterSystem
from .errors import InputError, RabuildError


@dataclass
class SystemConfig:
    generators: list
    relations: list
    parameters: dict
    radius_cap: int
    chamber_cap: int

    def building(self):
        sysm = CoxeterSystem(self.generators, self.relations)
        return Building(sysm, self.parameters, chamber_cap=self.chamber_cap)


def _check_cap(name, value, least):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{name} = {value!r}, need an integer >= {least}")


def parse_config(text: str) -> SystemConfig:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens or not all(
        isinstance(g, str) for g in gens
    ):
        raise InputError("'generators' must be a nonempty list of names")
    if len(set(gens)) != len(gens):
        raise InputError("duplicate generator names")
    rels = data.get("relations", [])
    if not isinstance(rels, list):
        raise InputError("'relations' must be a list of pairs")
    seen = set()
    for pair in rels:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or pair[0] == pair[1]
            or not all(p in gens for p in pair)
        ):
            raise InputError(f"bad relation entry {pair!r}")
        key = frozenset(pair)
        if key in seen:
            raise InputError(f"duplicate relation {pair!r}")
        seen.add(key)
    params = data.get("parameters")
    if not isinstance(params, dict):
        raise InputError("'parameters' must map generator -> q")
    for g in gens:
        if g not in params:
            raise InputError(f"missing parameter for generator {g!r}")
        q = params[g]
        if not isinstance(q, int) or q < 2:
            raise InputError(f"parameter q[{g!r}] = {q!r}, need an integer >= 2")
    for g in params:
        if g not in gens:
            raise InputError(f"parameter for unknown generator {g!r}")
    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        raise InputError("'caps' must be an object")
    radius_cap = caps.get("radius", 6)
    chamber_cap = caps.get("chambers", DEFAULT_CHAMBER_CAP)
    _check_cap("caps.radius", radius_cap, 0)
    _check_cap("caps.chambers", chamber_cap, 1)
    return SystemConfig(gens, [list(p) for p in rels], dict(params), radius_cap, chamber_cap)


def load_config(path: str) -> SystemConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, pad, out):
    """Append to ``out`` the pieces of ``json.dumps(value, sort_keys=True,
    indent=2)``, laid out for a value at indent ``pad``.

    ``json.dumps`` with an indent always runs json's pure-Python encoder.
    Here strings, ints (not bools), and nonempty lists, tuples and dicts
    with string keys are written directly, with the encoder's own string
    escaping; any other value goes through ``json.dumps``, re-indented:
    JSON text holds no raw newline inside a string, so every newline in it
    starts a line.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif value and isinstance(value, dict) and all(isinstance(k, str) for k in value):
        inner = pad + "  "
        head, sep = "{\n" + inner, ",\n" + inner
        for key in sorted(value):
            out.append(head + _encode_str(key) + ": ")
            _json_text(value[key], inner, out)
            head = sep
        out.append("\n" + pad + "}")
    elif value and isinstance(value, (list, tuple)):
        inner = pad + "  "
        head, sep = "[\n" + inner, ",\n" + inner
        for item in value:
            out.append(head)
            _json_text(item, inner, out)
            head = sep
        out.append("\n" + pad + "]")
    else:
        text = json.dumps(value, sort_keys=True, indent=2)
        out.append(text.replace("\n", "\n" + pad) if pad else text)


def emit(payload) -> None:
    """Write the payload as ``json.dumps(payload, sort_keys=True, indent=2)``
    and a newline, byte for byte."""
    out = []
    _json_text(payload, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _check_radius(cfg: SystemConfig, radius: int):
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if radius > cfg.radius_cap:
        raise InputError(
            f"radius {radius} exceeds the configured cap {cfg.radius_cap}"
        )


def cmd_info(cfg: SystemConfig, args) -> int:
    bld = cfg.building()
    sysm = bld.system
    poset = bld.poset
    emit(
        {
            "generators": list(sysm.generators),
            "commuting_pairs": bld.config_dict()["relations"],
            "parameters": bld.config_dict()["parameters"],
            "coxeter_group_finite": sysm.is_finite(),
            "spherical_subsets": [sorted(t) for t in poset.subsets],
            "nerve_simplices": [sorted(t) for t in poset.nerve],
            "maximal_spherical": [sorted(t) for t in poset.maximal()],
            "config_hash": bld.config_hash(),
            "kernel_backend": kernel.backend(),
        }
    )
    return 0


def cmd_ball(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    ball = bld.ball(args.radius)
    payload = {
        "radius": args.radius,
        "chambers": len(ball.chambers),
        "boundary_mirrors": ball.boundary_mirror_count(),
        "sides": [
            {
                "type": bld.system.generators[s.gen],
                "mirrors": len(s.mirrors),
            }
            for s in ball.sides()
        ],
        "whole_building": ball.is_whole_building,
    }
    if args.cache:
        save_ball_cache(args.cache, bld, args.radius, ball.chambers)
        payload["cache"] = args.cache
    if args.dot:
        from .cog import scwol_to_dot

        text = scwol_to_dot(ball.cog())
        try:
            with open(args.dot, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write DOT file {args.dot!r}: {exc}") from exc
        payload["dot"] = args.dot
    emit(payload)
    return 0


def cmd_unfold_trace(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    rng = random.Random(args.seed) if args.seed else None
    final, records = unfold_steps_to_ball(bld, args.radius, rng=rng)
    direct = bld.ball_chambers(args.radius)
    trace = []
    total = 1  # the base chamber
    for grown in records:
        total += len(grown.chambers)
        trace.append(
            {
                "type": bld.system.generators[grown.side.gen],
                "mirrors": len(grown.side.mirrors),
                "sheets": len(sheets(grown)),
                "new_chambers": len(grown.chambers),
                "chambers_after": total,
            }
        )
    emit(
        {
            "radius": args.radius,
            "steps": trace,
            "chambers": len(final.chambers),
            "matches_direct_enumeration": final.chambers == direct,
        }
    )
    return 0 if final.chambers == direct else 4


def cmd_label(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    final, records = unfold_steps_to_ball(bld, args.radius)
    lab = covering_mod.build_labeling(final, records)
    report = covering_mod.verify_labeling(lab)
    emit(
        {
            "radius": args.radius,
            "edges_labeled": len(lab.labels),
            "fibers_checked": report.fibers_checked,
            "properties_hold": report.ok,
        }
    )
    return 0 if report.ok else 4


def cmd_verify_covering(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    final, records = unfold_steps_to_ball(bld, args.radius)
    lab = covering_mod.build_labeling(final, records)
    cov = covering_mod.build_covering(lab)
    emit(covering_mod.covering_to_json(cov))
    return 0


def cmd_index(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    n = covering_mod.lattice_index(bld, args.radius)
    emit({"radius": args.radius, "index": n})
    return 0


def cmd_classify(cfg: SystemConfig, args) -> int:
    bld = cfg.building()
    emit(symmetry.classify_discreteness(bld).to_json())
    return 0


def cmd_apartments(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    frags = symmetry.apartments_through_base(bld, args.radius)
    gens = bld.system.generators
    names = {
        c: "".join(f"{gens[g]}{e if e != 1 else ''}" for g, e in c) or "1"
        for c in frozenset().union(*(f.chambers for f in frags))
    }
    emit(
        {
            "radius": args.radius,
            "count": len(frags),
            "fragments": [sorted(map(names.__getitem__, f.chambers)) for f in frags],
        }
    )
    return 0


def cmd_witness(cfg: SystemConfig, args) -> int:
    """One verified h_j per fragment j, fixing the base chamber, with h_j(0) = j:
    h_j ∘ h_i⁻¹ then fixes it and carries i onto j, so every pair is witnessed."""
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    frags = symmetry.apartments_through_base(bld, args.radius)
    ball, records = unfold_steps_to_ball(bld, args.radius)
    witnesses = []
    for j, frag in enumerate(frags):
        h = symmetry.transitivity_witness(ball, records, frags[0], frag)
        witnesses.append(
            {
                "from": 0,
                "to": j,
                "moved_chambers": sum(1 for c, d in h.mapping.items() if c != d),
            }
        )
    emit(
        {
            "radius": args.radius,
            "fragments": len(frags),
            "witnesses": witnesses,
            "all_pairs_witnessed": len(witnesses) == len(frags),
        }
    )
    return 0


def cmd_quotient(cfg: SystemConfig, args) -> int:
    _check_radius(cfg, args.radius)
    bld = cfg.building()
    ball = bld.ball(args.radius)
    result = symmetry.quotient_cog(ball, symmetry.type_permutation_group(bld))
    emit(result.to_json())
    return 0 if result.report.ok else 4


COMMANDS = {
    "info": cmd_info,
    "ball": cmd_ball,
    "unfold-trace": cmd_unfold_trace,
    "label": cmd_label,
    "verify-covering": cmd_verify_covering,
    "index": cmd_index,
    "classify": cmd_classify,
    "apartments": cmd_apartments,
    "witness": cmd_witness,
    "quotient": cmd_quotient,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabuild",
        description="Chamber-system computations on regular right-angled buildings",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to a system config (JSON)")
    parser.add_argument("--radius", type=int, default=1)
    parser.add_argument("--cap-chambers", type=int, default=None)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="nonzero: randomize unfolding order deterministically",
    )
    parser.add_argument("--cache", default=None, help="ball cache output path")
    parser.add_argument("--dot", default=None, help="scwol DOT output path (ball)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.cap_chambers is not None:
            _check_cap("--cap-chambers", args.cap_chambers, 1)
            cfg.chamber_cap = args.cap_chambers
        return COMMANDS[args.command](cfg, args)
    except RabuildError as exc:
        sys.stderr.write(f"error: {exc}\n")
        payload = {"error": str(exc), "kind": type(exc).__name__}
        report = getattr(exc, "report", None)
        if report is not None:
            payload["failures"] = report.failures[:10]
        sys.stdout.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
