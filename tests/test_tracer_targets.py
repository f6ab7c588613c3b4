"""Every target the perfbench tracer wraps exists in ``rabuild``.

``perfbench/tracer.py`` names its targets by strings (``"symmetry"``,
``"BallAutomorphism.verify"``), so a target renamed or deleted in ``rabuild``
otherwise shows only when a traced benchmark runs.  The tracer module is
loaded from its file and left unchanged, and each target is resolved as its
installer resolves it: the last name must be defined on its owner itself.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_a_callable_in_rabuild(monkeypatch):
    targets = _tracer_targets(monkeypatch)
    assert targets
    missing = []
    for t in targets:
        owner = importlib.import_module(f"rabuild.{t.layer}")
        *path, last = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = None if owner is None else vars(owner).get(last)
        if not callable(found):
            missing.append(f"{t.layer}.{t.attr}")
    assert not missing, f"tracer targets missing from rabuild: {missing}"
