"""No ``grapemix`` module imports another module's private names.

A name that starts with an underscore belongs to its module.  When a
second module imports it, a decision sits in two places; move the name to
the module that uses it, make it public, or name it in ``ALLOWED`` with
the reason both modules share it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grapemix"

# The private names one grapemix module may import from another, each with the reason.
ALLOWED = {
    "_ALPHABET": "data owns the alphabet, and the char LM's vocabulary is a prefix of it as a Markov spec's is",
    "_DRAW_BLOCK": "the loop's cap on the examples it draws at once is the char LM's gather chunk: one bound",
}


def _private_imports() -> list[tuple[str, str, str]]:
    """(importing module, imported module, name) of every underscore name a
    ``grapemix`` module imports from another ``grapemix`` module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("grapemix")):
                found += [(path.stem, node.module or "", alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = _private_imports()
    unexplained = [f"{importer} imports {name} from {module}" for importer, module, name in found if name not in ALLOWED]
    assert not unexplained, unexplained
    # an allowed name that is no longer imported leaves ALLOWED
    assert {name for _, _, name in found} == ALLOWED.keys()
