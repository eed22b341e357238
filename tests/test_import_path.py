"""What importing the library loads, each probe in a fresh interpreter,
and what the library's modules import.

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
