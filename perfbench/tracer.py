"""Spans around the public functions of rabuild's layers, installed from outside.

Installing the tracer rebinds each target to a wrapper, in the module or
class that defines it and in every ``rabuild`` module that copied the
binding with ``from .x import name``.  Private modules (``rabuild._*``) are
left alone, so the kernel is measured at its public API, ``rabuild.kernel``,
and calls between the kernel's own functions are not counted.

Each call of a target is a span: name, start, end, parent span and request.
A span's self time is its duration minus the durations of its child spans.
Primitives called up to 10^5 times per request (``folded`` below) are
counted and timed like the rest but not kept as spans of their own: their
time is added to the ``folded_s`` of the nearest kept ancestor, which keeps
the span store small.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

ROOT_NAME = "cli"


def _syllables(args, result):
    return len(args[0])


def _two_words(args, result):
    return len(args[0]) + len(args[1])


def _file_size(args, result):
    return os.path.getsize(args[0])


def _steps(args, result):
    return len(result[1])


@dataclass(frozen=True)
class Target:
    layer: str  # module under rabuild
    attr: str  # function, or Class.method
    folded: bool = False
    # work counted per call, from (args, result)
    count: Callable | None = None

    @property
    def name(self):
        return f"{self.layer}.{self.attr}"


TARGETS = [
    Target("kernel", "normalize", True, _syllables),
    Target("kernel", "multiply", True, _two_words),
    Target("kernel", "inverse", True, _syllables),
    Target("kernel", "strip_coset", True, _syllables),
    Target("coxeter", "spherical_poset"),
    Target("coxeter", "reduce", True),
    Target("graphprod", "GraphProduct.delta", True),
    Target("building", "Building.__init__"),
    Target("building", "Building.ball_chambers"),
    Target("building", "Building.residue_chambers", True),
    Target("building", "save_ball_cache", count=_file_size),
    Target("building", "load_ball_cache"),
    Target("clump", "unfold_steps_to_ball", count=_steps),
    Target("clump", "unfold"),
    Target("clump", "sheets"),
    Target("clump", "Clump.sides"),
    Target("clump", "Clump.mirror_counts"),
    Target("clump", "Clump.__init__"),
    Target("cog", "scwol_of"),
    Target("cog", "canonical_cog"),
    Target("covering", "build_labeling"),
    Target("covering", "label_unfold"),
    Target("covering", "verify_labeling"),
    Target("covering", "build_covering"),
    Target("covering", "check_covering"),
    Target("symmetry", "apartments_through_base"),
    Target("symmetry", "transitivity_witness"),
    Target("symmetry", "sheet_swap"),
    Target("symmetry", "extend_to_ball"),
    Target("symmetry", "BallAutomorphism.verify"),
    Target("symmetry", "automorphism_group_from_permutations"),
    Target("symmetry", "quotient_cog"),
    Target("symmetry", "classify_discreteness"),
]
LAYERS = list(dict.fromkeys(t.layer for t in TARGETS)) + [ROOT_NAME]
# (metric, spans counted, ancestor they must have, calls of the ancestor)
NESTED_RATIOS = [
    ("covering.verify_per_covering", "covering.verify_labeling", "covering.build_covering"),
    ("symmetry.verify_per_witness", "symmetry.BallAutomorphism.verify", "symmetry.transitivity_witness"),
]


def metric_units():
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for t in TARGETS:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.self_s"] = "s"
    units["kernel.syllables_in"] = "count"
    units["building.cache_bytes"] = "bytes"
    units["clump.sides_per_step"] = "ratio"
    units["cog.scwol_per_step"] = "ratio"
    for name, _, _ in NESTED_RATIOS:
        units[name] = "ratio"
    units[f"{ROOT_NAME}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


class Tracer:
    """Wrappers around TARGETS, with per-target totals and a span store."""

    def __init__(self):
        n = len(TARGETS) + 1  # the last slot is the request span
        self.root = n - 1
        self.names = [t.name for t in TARGETS] + [ROOT_NAME]
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.items = [0] * n
        self.errors = [0] * n
        # span store, one entry per kept span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_folded = array("d")
        # open frames: [child time, span id, kept]
        self._stack = [[0.0, -1, False]]
        self._request = -1
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _open(self, index, parent):
        span = len(self.span_name)
        self.span_name.append(index)
        self.span_parent.append(parent)
        self.span_request.append(self._request)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_folded.append(0.0)
        return span

    def _wrap(self, index, fn, folded, count):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, items, errors = self.calls, self.self_s, self.items, self.errors
        starts, ends, folded_s = self.span_start, self.span_end, self.span_folded
        open_span = self._open

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if folded:
                frame = [0.0, parent[1], False]
            else:
                frame = [0.0, open_span(index, parent[1]), True]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[index] += 1
                self_s[index] += dur - frame[0]
                if frame[2]:
                    starts[frame[1]] = start
                    ends[frame[1]] = end
                elif parent[2]:
                    folded_s[parent[1]] += dur
            if count is not None:
                items[index] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, index, fn, count):
        """A cheaper wrapper for kernel primitives, which call no other target."""
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, items, errors = self.calls, self.self_s, self.items, self.errors
        folded_s = self.span_folded

        def wrapper(*args, **kwargs):
            items[index] += count(args, None)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[index] += 1
                raise
            finally:
                dur = clock() - start
                parent = stack[-1]
                parent[0] += dur
                calls[index] += 1
                self_s[index] += dur
                if parent[2]:
                    folded_s[parent[1]] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_request(self, request_id):
        """Open the request's root span; layer spans nest under it."""
        self._request = request_id
        frame = [0.0, self._open(self.root, -1), True]
        self._stack.append(frame)
        self.span_start[frame[1]] = time.perf_counter()

    def end_request(self, raised=False):
        end = time.perf_counter()
        frame = self._stack.pop()
        span = frame[1]
        self.span_end[span] = end
        self.calls[self.root] += 1
        self.self_s[self.root] += end - self.span_start[span] - frame[0]
        self.errors[self.root] += int(raised)

    # -- installing ----------------------------------------------------------

    def install(self):
        for t in TARGETS:
            importlib.import_module(f"rabuild.{t.layer}")
        modules = [
            m
            for name, m in sys.modules.items()
            if (name == "rabuild" or name.startswith("rabuild."))
            and not name.rpartition(".")[2].startswith("_")
        ]
        for index, t in enumerate(TARGETS):
            owner = sys.modules[f"rabuild.{t.layer}"]
            path = t.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[path[-1]]
            if t.layer == "kernel":
                wrapper = self._wrap_leaf(index, original, t.count)
            else:
                wrapper = self._wrap(index, original, t.folded, t.count)
            self._rebind(owner, path[-1], wrapper)
            if len(path) == 1:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, value):
        self._saved.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    # -- results -------------------------------------------------------------

    def _nested_count(self, child, ancestor):
        """Spans named ``child`` that have a span named ``ancestor`` above them."""
        c, a = self.names.index(child), self.names.index(ancestor)
        found = 0
        for span, name in enumerate(self.span_name):
            if name != c:
                continue
            up = self.span_parent[span]
            while up >= 0 and self.span_name[up] != a:
                up = self.span_parent[up]
            found += up >= 0
        return found

    def metrics(self, rounds=1):
        """Per-layer metrics: {name: value}, the names of ``metric_units``.

        Counts and times are divided by ``rounds``, the number of traced
        rounds, so that runs of different length compare; ratios are not.
        """
        out = {}
        for index, name in enumerate(self.names[:-1]):
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.self_s"] = self.self_s[index]
        by_name = dict(zip(self.names, range(len(self.names))))
        out["kernel.syllables_in"] = sum(
            self.items[i] for i, t in enumerate(TARGETS) if t.layer == "kernel"
        )
        out["building.cache_bytes"] = self.items[by_name["building.save_ball_cache"]]
        steps = self.items[by_name["clump.unfold_steps_to_ball"]]
        out["clump.sides_per_step"] = _ratio(self.calls[by_name["clump.Clump.sides"]], steps)
        out["cog.scwol_per_step"] = _ratio(self.calls[by_name["cog.scwol_of"]], steps)
        for metric, child, ancestor in NESTED_RATIOS:
            out[metric] = _ratio(
                self._nested_count(child, ancestor), self.calls[by_name[ancestor]]
            )
        out[f"{ROOT_NAME}.self_s"] = self.self_s[self.root]
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(
                self.errors[i] for i, name in enumerate(self.names) if name.split(".")[0] == layer
            )
        units = metric_units()
        return {k: v if units[k] == "ratio" else v / rounds for k, v in out.items()}

    def request_seconds(self):
        """Total duration of the request spans."""
        return sum(
            self.span_end[s] - self.span_start[s]
            for s, name in enumerate(self.span_name)
            if name == self.root
        )

    def write_spans(self, path):
        """Write the kept spans as gzipped JSON lines, after a header line."""
        with gzip.open(path, "wt") as fh:
            header = {
                "names": self.names,
                "fields": ["id", "name", "parent", "request", "start", "end", "folded_s"],
                "folded": [t.name for t in TARGETS if t.folded],
            }
            fh.write(json.dumps(header) + "\n")
            for s in range(len(self.span_name)):
                row = [
                    s,
                    self.span_name[s],
                    self.span_parent[s],
                    self.span_request[s],
                    self.span_start[s],
                    self.span_end[s],
                    self.span_folded[s],
                ]
                fh.write(json.dumps(row) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
