"""What importing the library loads, each probe in a fresh interpreter.

The CLI runs one process per job, so every module on its import path is
paid for by every job.  The benchmark tracer, in turn, relies on a plain
`import towerlab` loading every traced layer.
"""

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
