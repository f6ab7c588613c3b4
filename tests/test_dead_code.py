"""Dead-code guard: every public definition in ``src/rabuild`` has a caller.

A public top-level function or class, or a public method, must be referenced
somewhere in ``src/rabuild/*.py`` or ``perfbench/*.py`` outside its own
definition.  References are names, attribute names and imported names; in
``perfbench`` the identifiers inside string constants count too, because the
tracer names its targets by strings (``"GraphProduct.delta"``).  Tests do not
count: code that only a test calls is not part of any pipeline.

A definition that only ``perfbench`` names is kept for the benchmark alone.
Those are listed in ``BENCHMARK_ONLY`` and the list is held to the computed
set, so dropping a tracer target shows what it frees.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rabuild"

# Check entry points that only the acceptance tests call.  Each certifies a
# step of the paper's argument on its own, so it is kept without a pipeline.
ALLOWED = {
    "cog.is_admissible",  # criterion 5: admissibility of a complex of groups
    "symmetry.composed_quotient_covering",  # criterion 9: composed coverings
}

# Definitions no pipeline calls, kept because the perfbench tracer names them
# as targets.
BENCHMARK_ONLY = {
    "building.Building.residue_chambers",
    "building.load_ball_cache",
    "clump.Clump.mirror_counts",
    "coxeter.reduce",
    "symmetry.extend_to_ball",
}


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant
            ):
                out.add(id(body[0].value))
    return out


def _references(path, with_strings):
    """(identifier, line, names a method) for every reference in one file.

    A bare name cannot call a method, so only attribute names and strings
    count as references to one.
    """
    tree = ast.parse(path.read_text())
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno, False
        elif (
            with_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
        ):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node.lineno, True


def _definitions(path):
    """(qualified name, bare name, is a method, first line, last line)."""
    tree = ast.parse(path.read_text())
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield (
                        f"{path.stem}.{node.name}.{sub.name}",
                        sub.name,
                        True,
                        sub.lineno,
                        sub.end_lineno,
                    )


def test_every_public_definition_has_a_caller():
    refs = {}
    for path in sorted(SRC.glob("*.py")):
        refs[path] = list(_references(path, with_strings=False))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs[path] = list(_references(path, with_strings=True))
    dead = []
    benchmark_only = set()
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, name, method, first, last in _definitions(path):
            defined.add(qualname)
            callers = {
                where.parent.name
                for where, found in refs.items()
                for word, line, dotted in found
                if word == name
                and (dotted or not method)
                and not (where == path and first <= line <= last)
            }
            if qualname in ALLOWED:
                continue
            if not callers:
                dead.append(qualname)
            elif callers == {"perfbench"}:
                benchmark_only.add(qualname)
    assert not dead, f"public definitions without a caller: {dead}"
    assert ALLOWED <= defined, f"allowlisted but not defined: {sorted(ALLOWED - defined)}"
    assert benchmark_only == BENCHMARK_ONLY, (
        f"kept for perfbench alone: {sorted(benchmark_only)}"
    )
