"""Every public name has a caller: the run path, the CLI, the bench or an acceptance criterion.

For each name ``grapemix`` exports, and each public method of an exported
class, some ``ast.Name`` or ``ast.Attribute`` outside its own definition
must refer to it, in ``src/grapemix``, ``bench/`` or
``tests/test_acceptance.py``.  A name without one is dead surface: delete
it, or name it in ``ALLOWED`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grapemix"
CALLER_FILES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# The public names without such a caller, each with the reason it stays.
ALLOWED = {
    "chain_cross_entropy": "the oracle of the corpus test in tests/test_data.py",
    "bregman_entropy_divergence": "until the per-update telemetry (ROADMAP item 4) calls it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported() -> set[str]:
    """The names that ``grapemix/__init__.py`` imports from its modules."""
    return {alias.asname or alias.name for node in _parse(PACKAGE / "__init__.py").body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _surface() -> dict[str, tuple[Path, ast.stmt]]:
    """Each exported name, and each public method of an exported class, with its definition."""
    exported, surface = _exported(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            for name in exported.intersection(_defined(node)):
                surface[name] = (path, node)
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        surface[f"{name}.{member.name}"] = (path, member)
    return surface


def _references() -> list[tuple[Path, int, str]]:
    """(file, line, name) of every Name and Attribute in the caller files."""
    return [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path in CALLER_FILES for node in ast.walk(_parse(path)) if isinstance(node, (ast.Name, ast.Attribute))]


def test_every_export_is_defined_in_the_package():
    assert _exported() <= _surface().keys()


def test_every_public_name_has_a_caller_outside_its_definition():
    references = _references()

    def called(path: Path, node: ast.stmt, name: str) -> bool:
        return any(ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
                   for where, line, ref in references)

    uncalled = {f"{name} ({path.name}:{node.lineno})": name for name, (path, node) in _surface().items()
                if not called(path, node, name.rsplit(".", 1)[-1])}
    # an allowed name that has gained a caller leaves ALLOWED
    assert sorted(uncalled.values()) == sorted(ALLOWED), f"without a caller: {sorted(uncalled)}"
