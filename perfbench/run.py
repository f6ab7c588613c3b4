"""End-to-end benchmark of the rabuild CLI.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare old.txt new.txt

A single-thread closed loop with one client: each request is one in-process
``rabuild.cli.main(argv)`` call on a config file, with stdout captured,
parsed and checked.  A run measures whole rounds, each round being every
request of the workload once in an order drawn from ``--seed``, for about
``--seconds``.

With ``--trace 0`` no wrapper is installed and the run reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
rounds, reports the per-layer metrics of the traced rounds and the tracing
overhead, and writes the spans to ``.perfbench_out/<workload>-spans.jsonl.gz``.

The last line of stdout is the result; the line before it is the full report
(machine, commit, seed, sample counts and every metric with its unit).
``--compare`` prints per-layer differences between two saved outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SETUP_REPEATS = 15
E2E_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "chambers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Reported in the report line only: it is 0 when nothing fails, and
# ``failed``/``attempted`` of the result line carry it as well.
REPORT_UNITS = dict(E2E_UNITS, fail_ratio="ratio")


def set_up(workdir):
    """Import rabuild afresh and generate the workload's inputs."""
    for name in [n for n in sys.modules if n == "rabuild" or n.startswith("rabuild.")]:
        del sys.modules[name]
    cli = importlib.import_module("rabuild.cli")
    return cli, workloads.make_inputs(workdir)


class Runner:
    """Runs requests through ``rabuild.cli.main`` and checks their output."""

    def __init__(self, cli, inputs):
        self.cli = cli
        self.inputs = inputs
        self.tracer = None  # set while a traced round runs
        self.building = sys.modules["rabuild.building"]

    def invoke(self, req, seed=0, request_id=0):
        """Run one request: (seconds, exit code, stdout, ball read-back, error)."""
        argv = self.inputs.argv(req, seed)
        out = io.StringIO()
        code, readback, error = None, None, None
        tracer = self.tracer
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_request(request_id)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
            if req.command == "ball" and code == 0:
                bld = self.cli.load_config(argv[1]).building()
                readback = self.building.load_ball_cache(self.inputs.cache_path(req), bld)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a request that raises is a failed request
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end_request(raised=error is not None)
            seconds = time.perf_counter() - start
        return seconds, code, out.getvalue(), readback, error

    def execute(self, req, seed=0, request_id=0):
        """Run and check one request: (seconds, failure reason or None)."""
        seconds, code, stdout, readback, error = self.invoke(req, seed, request_id)
        if error is None:
            try:
                error = workloads.check(req, self.inputs, code, stdout, readback)
            except (KeyError, TypeError, AttributeError) as exc:
                error = f"malformed output: {type(exc).__name__}: {exc}"
        return seconds, error


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def harrell_davis(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    density over ((i-1)/n, i/n).  A workload mixes a few kinds of request
    whose latencies form clusters with gaps between them; a single order
    statistic jumps across such a gap from run to run, this weighted mean
    does not.  The weights are integrated by Simpson's rule.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - lbeta)

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class Sample(NamedTuple):
    req: workloads.Request
    seconds: float
    failure: str | None
    traced: bool


def measure(runner, requests, rng, seconds, tracer=None, log=None):
    """Run whole rounds for about ``seconds``.

    A new round starts while the run would end nearer to ``seconds`` with it
    than without it, judged by the last round's length.  Returns one Sample
    per request, the number of rounds and the seconds they took.  With a
    tracer, rounds alternate untraced and traced, starting untraced, and at
    least one of each runs.
    """
    samples = []
    rounds = 0
    start = round_start = time.perf_counter()

    def another_round():
        now = time.perf_counter()
        elapsed, last_round = now - start, now - round_start
        return elapsed + last_round / 2 < seconds

    while not rounds or (tracer and rounds < 2) or another_round():
        round_start = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        runner.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            for req in rng.sample(requests, len(requests)):
                seed = rng.randrange(1, 2**31) if req.seeded else 0
                dt, failure = runner.execute(req, seed, len(samples))
                samples.append(Sample(req, dt, failure, traced))
                if failure and log:
                    log(f"FAILED {req.key} seed={seed}: {failure}")
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    return samples, rounds, time.perf_counter() - start


def end_to_end(samples, wall, inputs, setup_s):
    done = [s.req for s in samples if s.failure is None]
    chambers = sum(inputs.chambers(r.system, r.radius) for r in done if r.radius is not None)
    latencies = [s.seconds * 1000 for s in samples]
    return {
        "setup_s": setup_s,
        "req_per_s": len(done) / wall,
        "chambers_per_s": chambers / wall,
        "latency_p50_ms": harrell_davis(latencies, 0.5),
        "latency_p90_ms": harrell_davis(latencies, 0.9),
        "fail_ratio": (len(samples) - len(done)) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def overhead_pct(samples, per_round):
    """Tracing overhead, from rounds that run the same requests.

    Each traced round's request time is set against the mean of its
    untraced neighbours', which ran just before and after it and so on a
    machine in much the same state; the median of these ratios, minus 1.
    """
    totals = [
        sum(s.seconds for s in samples[i : i + per_round])
        for i in range(0, len(samples), per_round)
    ]
    ratios = [
        totals[r] / statistics.mean(totals[r - 1 : r + 2 : 2]) for r in range(1, len(totals), 2)
    ]
    return 100 * (statistics.median(ratios) - 1)


def run(args):
    if not (ROOT / "src" / "rabuild" / "cli.py").is_file() or not (
        ROOT / "tests" / "conftest.py"
    ).is_file():
        print(f"error: no rabuild source tree (src/, tests/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    requests = workloads.WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    try:
        importlib.import_module("pytest")  # imported by conftest; not part of set-up
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cli, inputs = set_up(workdir)
            setup_times.append(time.perf_counter() - t0)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(cli, inputs)
        rng = random.Random(args.seed)
        samples, rounds, wall = measure(
            runner, requests, rng, args.seconds, tracer, log=lambda m: print(m, file=sys.stderr)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    kernel = sys.modules["rabuild.kernel"]
    failed = sum(s.failure is not None for s in samples)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel_backend": kernel.backend(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "requests_per_round": len(requests),
        "rounds": rounds,
        "requests": len(samples),
        "failed": failed,
    }
    if tracer is None:
        values = end_to_end(samples, wall, inputs, statistics.median(setup_times))
        units = REPORT_UNITS
        report["latency_samples"] = len(samples)
        by_request = {}
        for sample in samples:
            by_request.setdefault(sample.req.key, []).append(sample.seconds * 1000)
        report["median_ms_by_request"] = {k: statistics.median(v) for k, v in by_request.items()}
        result_names = list(E2E_UNITS)
    else:
        traced = [s for s in samples if s.traced]
        report["traced_rounds"] = rounds // 2  # rounds 1, 3, 5, ... are traced
        values = tracer.metrics(report["traced_rounds"])
        values["trace.overhead_pct"] = overhead_pct(samples, len(requests))
        units = dict(tracing.metric_units(), **{"trace.overhead_pct": "%"})
        report["traced_requests"] = len(traced)
        report["traced_request_s"] = sum(s.seconds for s in traced)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{args.workload}-spans.jsonl.gz"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
        result_names = list(units)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report["metrics"] = metrics
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: metrics[name] for name in result_names},
    }
    print(json.dumps(result))
    return 0


def last_json_lines(path):
    """The report and result lines of a saved benchmark output."""
    lines = [line for line in Path(path).read_text().splitlines() if line.startswith("{")]
    return json.loads(lines[-2]), json.loads(lines[-1])


def compare(old_path, new_path):
    """Print per-layer differences between two traced outputs."""
    (old_report, old), (new_report, new) = last_json_lines(old_path), last_json_lines(new_path)
    for label, rep in (("old", old_report), ("new", new_report)):
        print(
            f"{label}: {rep['workload']} commit={rep['commit'][:12]} seed={rep['seed']} "
            f"trace={rep['trace']} requests={rep['requests']}"
        )
    names = [n for n in old["metrics"] if n in new["metrics"]]
    print(f"{'metric':58s} {'old':>14s} {'new':>14s} {'delta':>14s} {'change':>8s}")
    for name in names:
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        change = f"{100 * (b - a) / a:+7.1f}%" if a else "      -"
        print(f"{name:58s} {a:14.6g} {b:14.6g} {b - a:+14.6g} {change}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
