"""Record perfbench/expected.json: the checked values golden.json lacks.

    python3 perfbench/record_expected.py

Runs every request of every workload once, canonically, and records the
fields that ``workloads.recorded_fields`` names, plus the chamber count of
each ball that golden.json does not list.  The committed table was recorded
at the commit that introduced the benchmark; re-record it only when a change
is meant to alter these values.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    sys.path.insert(0, str(workloads.ROOT / "src"))
    from rabuild import cli

    base = workloads.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        workdir = Path(tmp)
        inputs = workloads.make_inputs(workdir, expected={"ball_sizes": {}, "requests": {}})
        runner = run.Runner(cli, inputs)
        table = inputs.expected
        for requests in workloads.WORKLOADS.values():
            for req in requests:
                if req.radius is not None:
                    name = inputs.golden_name(req.system)
                    if str(req.radius) not in inputs.golden[name]["ball_sizes"]:
                        bld = cli.load_config(str(inputs.configs[req.system])).building()
                        sizes = table["ball_sizes"].setdefault(name, {})
                        sizes[str(req.radius)] = len(bld.ball_chambers(req.radius))
                if req.seeded:
                    continue
                _, code, stdout, readback, error = runner.invoke(req)
                if code != 0 or error:
                    raise SystemExit(f"{req.key}: exit {code} {error or ''}")
                fields = workloads.recorded_fields(req, json.loads(stdout), readback)
                if fields:
                    table["requests"][req.key] = fields
    with contextlib.suppress(OSError):
        base.rmdir()
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
