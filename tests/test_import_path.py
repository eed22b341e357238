"""What importing the library loads, each probe in a fresh interpreter,
what the library's modules import, and that every function they define is
named somewhere.

The CLI runs one process per job, so every module on its import path is
paid for by every job, and an import nothing uses is paid for by all of
them.  The benchmark tracer, in turn, relies on a plain `import towerlab`
loading every traced layer, and on every name it wraps existing.
"""

import ast
import glob
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", os.path.join(ROOT, "bench", "tracer.py")
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _loaded_after(code: str) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    return set(out.split())


def test_cli_import_skips_dataclasses_inspect_and_typing():
    bare = _loaded_after("pass")
    cli = _loaded_after("import towerlab.cli")
    assert "towerlab.cli" in cli
    assert {"dataclasses", "inspect", "typing"} & (cli - bare) == set()


def test_package_import_loads_every_traced_layer():
    loaded = _loaded_after("import towerlab")
    # the tracer imports towerlab.cli itself; every other layer must come
    # with the package, including the submodules whose entries it wraps
    wanted = {layer for layer in tracer.LAYERS if layer != "cli"}
    wanted |= {mod for mod, _attr, _name in tracer.ENTRIES if mod != "cli"}
    assert wanted >= {"ffield", "omfactor.places", "checker"}
    assert {"towerlab." + m for m in wanted} <= loaded


def _unused_imports(path: str) -> list[str]:
    """Names a module-level import binds that the module never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_module_level_imports():
    # package __init__ files import to re-export
    paths = glob.glob(os.path.join(SRC, "towerlab", "**", "*.py"), recursive=True)
    unused = {
        os.path.relpath(path, SRC): names
        for path in sorted(paths)
        if os.path.basename(path) != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}


def test_tracer_wraps_every_entry_and_restores_it():
    import towerlab.ffield as ffield

    original = ffield.is_irreducible
    t = tracer.Tracer()
    try:
        t.install()
        assert ffield.is_irreducible is not original
    finally:
        t.uninstall()
    assert ffield.is_irreducible is original


def _names_read(node, inside=()) -> tuple[set, set]:
    """(names, attributes) a module reads, leaving out a function's reads
    of its own name inside its def.  Attributes include imported names and
    the parts of dotted-identifier strings (the tracer's entries); names
    are those read as plain names, plus every attribute."""
    names, attrs = set(), set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        attrs.add(node.attr)
    elif isinstance(node, ast.alias):
        attrs.add(node.name.split(".")[-1])
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if all(part.isidentifier() for part in node.value.split(".")):
            attrs.update(node.value.split("."))
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside += (node.name,)
    for child in ast.iter_child_nodes(node):
        n, a = _names_read(child, inside)
        names |= n
        attrs |= a
    return names - set(inside) | attrs - set(inside), attrs - set(inside)


def _defined(tree):
    """(name, is_method) for every non-dunder function a module defines;
    dunder methods are called by the language, not by name."""
    methods = {
        id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, id(node) in methods


def test_every_function_is_named_outside_its_def():
    # a method counts as named only through an attribute (or a dotted
    # string), so a local variable of the same name does not keep it alive
    names, attrs, unnamed = set(), set(), set()
    trees = {}
    for top in ("src", "tests", "bench"):
        for path in glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True):
            with open(path) as fh:
                trees[path] = ast.parse(fh.read())
            n, a = _names_read(trees[path])
            names |= n
            attrs |= a
    for path, tree in trees.items():
        if path.startswith(os.path.join(SRC, "towerlab")):
            for name, is_method in _defined(tree):
                if name not in (attrs if is_method else names):
                    unnamed.add(name)
    assert sorted(unnamed) == []


def _slot_reads(node, in_init=False, of_self=False) -> set:
    """Attributes a tree reads outside any __init__ (only as self.<name>
    with of_self)."""
    reads = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        in_init = node.name == "__init__"
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not in_init:
        if not of_self or isinstance(node.value, ast.Name) and node.value.id == "self":
            reads.add(node.attr)
    for child in ast.iter_child_nodes(node):
        reads |= _slot_reads(child, in_init, of_self)
    return reads


def _slots(cls: ast.ClassDef) -> list[str]:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            return [e.value for e in ast.walk(stmt.value) if isinstance(e, ast.Constant)]
    return []


def test_every_stored_slot_is_read():
    # a Record's fields take part in its equality and repr, so only the
    # slots of other classes must be read somewhere past their __init__; a
    # private class of the library must read each of its slots itself, so
    # a read of the same name on another object does not keep one alive
    reads, classes = set(), []
    for top in ("src", "bench"):
        for path in glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            reads |= _slot_reads(tree)
            classes += [
                (node, top == "src" and node.name.startswith("_"))
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            ]
    unread = sorted(
        f"{c.name}.{slot}" for c, private in classes
        if not any(isinstance(b, ast.Name) and b.id == "Record" for b in c.bases)
        for slot in _slots(c) if slot not in (_slot_reads(c, of_self=True) if private else reads)
    )
    assert unread == []
