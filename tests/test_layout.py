"""Source layout: every module-level private function or class of the
package is used somewhere in the package outside its own definition, so
no dead helper survives a refactor, and the README names every export.
Standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uptail"


def _names_used(node):
    """Names, attributes and imported names referenced anywhere in node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_helper_is_referenced():
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    unused = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not any(node.name in _names_used(other)
                   for _m, other in statements if other is not node):
            unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, unused


def test_readme_names_every_export():
    """Every name `uptail/__init__.py` imports appears in backticks in the
    README, so a removed or added export shows up in the docs."""
    readme = (SRC.parents[1] / "README.md").read_text()
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    missing = sorted(name for name in exported if f"`{name}`" not in readme)
    assert not missing, missing
