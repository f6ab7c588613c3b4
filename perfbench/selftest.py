"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. A minimum-length run of each workload, untraced and traced, whose result
   line carries exactly the metrics BENCHMARK.json declares; every metric
   name is printed with its unit.
2. A doctored payload (a wrong ``index``) is counted as a failed request.
3. Traced self times, summed over every layer and ``cli.self_s``, equal the
   request time; uninstalling the tracer restores every binding.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stderr
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == declared[trace], set(units) ^ set(declared[trace])
            print(f"-- {workload} trace={trace}: {result['attempted']} requests")
            for name, m in result["metrics"].items():
                print(f"   {name} = {m['value']:.6g} {m['unit']}")


def doctored_payload(runner):
    req = workloads.Request("index", "d23", 2)
    _, code, stdout, _, error = runner.invoke(req)
    assert code == 0 and error is None
    assert workloads.check(req, runner.inputs, code, stdout) is None
    payload = json.loads(stdout)
    payload["index"] += 1
    doctored = json.dumps(payload)

    class Doctored(run.Runner):
        def invoke(self, req, seed=0, request_id=0):
            seconds, code, _, readback, error = super().invoke(req, seed, request_id)
            return seconds, code, doctored, readback, error

    bad = Doctored(runner.cli, runner.inputs)
    samples, _, _ = run.measure(bad, [req], random.Random(1), 0)
    assert [s.failure for s in samples] == ["index = 9, expected 8"], samples
    print("-- doctored index payload counted as failed:", samples[0].failure)


def self_time_identity(runner):
    kernel = sys.modules["rabuild.kernel"]
    plain = kernel.multiply
    requests = [r for r in workloads.WORKLOADS["cover"] if r.system in ("d23", "mixed")]
    requests += [workloads.Request("ball", "tree_234", 5)]
    requests += [r for r in workloads.WORKLOADS["symmetry"] if r.system == "mixed"]
    tracer = tracing.Tracer()
    samples, _, _ = run.measure(runner, requests, random.Random(3), 0, tracer)
    assert kernel.multiply is plain, "uninstall left a wrapper in place"
    assert all(s.failure is None for s in samples), samples
    metrics = tracer.metrics()
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    spans = tracer.request_seconds()
    measured = sum(s.seconds for s in samples if s.traced)
    assert abs(total - spans) <= 1e-9 * len(samples) + 1e-9 * spans, (total, spans)
    assert abs(total - measured) <= 0.01 * measured, (total, measured)
    assert metrics["covering.build_covering.calls"] > 0
    assert metrics["symmetry.transitivity_witness.calls"] > 0
    print(
        f"-- self times sum to {total:.6f} s; request spans {spans:.6f} s; "
        f"timed requests {measured:.6f} s"
    )


def main():
    sys.path.insert(0, str(ROOT / "src"))
    smoke()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    try:
        cli, inputs = run.set_up(workdir)
        runner = run.Runner(cli, inputs)
        doctored_payload(runner)
        self_time_identity(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    print("selftest passed")


if __name__ == "__main__":
    main()
