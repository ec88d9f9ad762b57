"""Source layout: every module-level private function or class of the
package is used somewhere in the package outside its own definition, and
every public one is also exported or used there, so no dead helper
survives a refactor, no module keeps a hand-rolled cache,
the README names every export, and every name the benchmark's tracer
wraps exists.  Sources are read with `ast`; only the last test imports the
package."""

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


def _unreferenced(private):
    """Module-level functions and classes, private or public, that no other
    statement of the package names (an export in `__init__.py` names its
    public ones)."""
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    unused = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") or node.name.startswith("_") != private:
            continue
        if not any(node.name in _names_used(other)
                   for _m, other in statements if other is not node):
            unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_private_helper_is_referenced():
    unused = _unreferenced(private=True)
    assert not unused, unused


def test_every_public_name_is_exported_or_used():
    """A public function or class that the package neither exports nor
    calls serves only the tests, which keep such helpers themselves."""
    unused = _unreferenced(private=False)
    assert not unused, unused


def test_no_module_keeps_a_hand_rolled_cache():
    """No module-level name is bound to an empty dict or list, which a
    function then fills: caches are `functools.cache`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if (isinstance(value, ast.Dict) and not value.keys
                    or isinstance(value, ast.List) and not value.elts):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_readme_names_every_export():
    """Every name `uptail/__init__.py` imports appears in backticks in the
    README, so a removed or added export shows up in the docs."""
    readme = (SRC.parents[1] / "README.md").read_text()
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    missing = sorted(name for name in exported if f"`{name}`" not in readme)
    assert not missing, missing


def _wrapped_by_tracer():
    """(owner, attribute) of every layer perfbench/tracer.py's `install`
    wraps, read from its source: owners as dotted paths from the package,
    each name of a `for` loop over a tuple of modules taken in turn."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracer.py").read_text())
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    package = install.args.args[1].arg
    aliases, wrap = {}, {"tracer.wrap"}
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                aliases.update((t.id, ast.unparse(v)) for t, v in zip(target.elts, value.elts))
            elif isinstance(target, ast.Name) and ast.unparse(value) in wrap:
                wrap.add(target.id)

    def owners(expr, loops):
        head, *rest = ast.unparse(expr).split(".")
        for name in loops.get(head, [head]):
            yield ".".join([aliases.get(name, name), *rest])

    found = []

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            loops = {**loops, node.target.id: [ast.unparse(e) for e in node.iter.elts]}
        if isinstance(node, ast.Call) and ast.unparse(node.func) in wrap:
            found.extend((owner, node.args[1].value) for owner in owners(node.args[0], loops))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(install, {})
    return package, found


def test_tracer_wraps_only_names_the_package_has():
    """Each layer the benchmark's traced run wraps by name resolves in
    uptail, so renaming or deleting a wrapped function fails here rather
    than in the traced run.  The tracer is read, not imported."""
    import uptail

    package, wrapped = _wrapped_by_tracer()
    assert ("uptail.solver", "solve_phi") in wrapped and len(wrapped) > 10
    missing = []
    for owner, attr in wrapped:
        obj = uptail
        for part in owner.split(".")[1:]:
            obj = getattr(obj, part, None)
        if owner.split(".")[0] != package or not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert not missing, missing
