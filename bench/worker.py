"""One workload in one fresh interpreter (started by run.py).

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up, report ready, exit), `run` (whole passes, at least
the workload's `min_passes`, until at least SECONDS have been measured),
`once` (exactly pass 0) or `traced` (exactly pass 0 under the tracer).  The
worker prints `READY` once set up, then one JSON line with the per-item
results.  Inputs depend only on (SEED, pass number).
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import workloads as W

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ITEM_TIMEOUT_S = 120
CLI_ENTRY = "import sys; from towerlab.cli import main; sys.exit(main())"


def load_goldens() -> dict:
    with open(os.path.join(BENCH_DIR, "goldens.json")) as fh:
        return json.load(fh)


def pass_rng(seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{seed}/{pass_no}")


class _ItemTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _ItemTimeout(f"item exceeded {ITEM_TIMEOUT_S} s")


def timed(fn, *args):
    """(seconds, result, error message or None) of one in-process item."""
    signal.alarm(ITEM_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
        err = None
    except Exception as exc:  # every failure is a failed item, never a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    signal.alarm(0)
    return dt, out, err


# -- sweep ----------------------------------------------------------------------


class Sweep:
    """One item: irreducibility, ramification locus, places above each locus
    place of one curve.  Pool curves appear as seeded isomorphic copies."""

    # a run measures at least min_passes passes, and the tail latency is
    # taken over exactly these, so that its sample count is the same in
    # every run; the light items near the median scatter with the host's
    # speed, so a run averages over several passes
    min_passes = 4

    def __init__(self, goldens: dict):
        from towerlab.ffield import make_field

        g = goldens["sweep"]
        self.pool = [W.make_curve(spec) for spec in g["pool"]]
        self.digests = g["digests"]
        self.pinned = W.make_curve(W.PINNED)
        self.pinned_digest = g["pinned_digest"]
        for p, k in g["warm_fields"]:
            make_field(p, k)
        # the pinned curve is the same in every pass, so its residue-field
        # caches are warmed here like the make_field cache
        self.run_item(self.pinned)

    def inputs(self, seed: int, pass_no: int) -> list:
        rng = pass_rng(seed, pass_no)
        items = [(W.random_substitution(F, rng), d) for F, d in zip(self.pool, self.digests)]
        items.append((self.pinned, self.pinned_digest))
        rng.shuffle(items)
        return items

    @staticmethod
    def run_item(F):
        from towerlab.basicfield import ramification_locus
        from towerlab.omfactor import is_irreducible_over_ratfield, places_above

        irreducible = is_irreducible_over_ratfield(F)
        locus = ramification_locus(F)
        return irreducible, locus, [places_above(F, P) for P in locus]

    def item(self, inp) -> dict:
        F, want = inp
        dt, out, err = timed(self.run_item, F)
        if err is None:
            irreducible, locus, places = out
            if not irreducible:
                err = "irreducible curve reported reducible"
            elif any(sum(pl.e * pl.f for pl in pls) != F.deg_y() for pls in places):
                err = "fundamental equality fails at a locus place"
            elif W.digest(W.place_rows(locus, places)) != want:
                err = "place table differs from golden"
        return {"s": dt, "err": err}


# -- genus-oracle -----------------------------------------------------------------


class GenusOracle:
    """One item: zeta_genus on a (curve, cap) pair, checked against the known
    genus; on the q = 2 family also reconcile_different with the oracle."""

    min_passes = 1

    def __init__(self, goldens: dict):
        from towerlab.ffield import make_field

        for p, k in goldens["genus-oracle"]["warm_fields"]:
            make_field(p, k)
        self.curves = {name: W.genus_curve(name) for name in W.GENUS_CURVES}

    def inputs(self, seed: int, pass_no: int) -> list:
        rng = pass_rng(seed, pass_no)
        # scaling only: a shift x -> x + b changes the sparsity of F, and
        # with it the cost of the point count
        items = [(name, cap, W.random_substitution(self.curves[name], rng, shift=False))
                 for name, cap in W.GENUS_PAIRS]
        rng.shuffle(items)
        return items

    @staticmethod
    def run_item(name, cap, F):
        from towerlab.basicfield import genus_from_table, ram_table, reconcile_different, zeta_genus

        g = zeta_genus(F, cap)
        if name != "family2":
            return g, None
        res = genus_from_table(reconcile_different(ram_table(F), g))
        return g, [res.genus, res.exact, list(res.diff_degree_bounds)]

    def item(self, inp) -> dict:
        name, cap, F = inp
        dt, out, err = timed(self.run_item, name, cap, F)
        if err is None:
            g, reconciled = out
            if g != W.GENUS_CURVES[name]["genus"]:
                err = f"{name} cap {cap}: zeta genus {g}"
            elif name == "family2" and reconciled != W.FAMILY_RECONCILED:
                err = f"{name} cap {cap}: reconciled {reconciled}"
        return {"s": dt, "err": err}


# -- cli-cold ---------------------------------------------------------------------


def cli_env(factor_seed: int | None = None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TOWERLAB_SEED", None)
    if factor_seed is not None:
        env["TOWERLAB_SEED"] = str(factor_seed)
    return env


def run_cli(argv: list[str], env: dict, trace_out: str | None = None):
    """(wall seconds, exit code, stdout bytes, error or None, spawn time)."""
    if trace_out is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_shim.py"), trace_out, *argv]
    spawned = time.time()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=ITEM_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, b"", f"timeout after {ITEM_TIMEOUT_S} s", spawned
    return time.perf_counter() - t0, proc.returncode, proc.stdout, None, spawned


class CliCold:
    """One item: one fresh `towerlab ... --json` process, checked against the
    golden exit code and report sha256."""

    min_passes = 2

    def __init__(self, goldens: dict):
        import towerlab.cli  # noqa: F401  (fail at set-up, not per job)

        self.golden = goldens["cli-cold"]
        self.env = cli_env()
        self.trace_dir = None
        self.outputs: dict[str, tuple[int, bytes]] = {}

    def inputs(self, seed: int, pass_no: int) -> list:
        jobs = list(W.CLI_JOBS)
        pass_rng(seed, pass_no).shuffle(jobs)
        return jobs

    def item(self, argv) -> dict:
        key = W.job_key(argv)
        trace_out = None
        if self.trace_dir is not None:
            trace_out = os.path.join(self.trace_dir, f"job{len(self.outputs)}.json")
        dt, code, out, err, spawned = run_cli(argv, self.env, trace_out)
        want = self.golden[key]
        if err is None and code != want["code"]:
            err = f"exit code {code}, golden {want['code']}"
        elif err is None and W.sha256(out) != want["sha256"]:
            err = "report differs from golden"
        self.outputs.setdefault(key, (code, out))
        res = {"s": dt, "err": err}
        if trace_out is not None:
            with open(trace_out) as fh:
                shim = json.load(fh)
            os.remove(trace_out)
            res["start_s"] = shim["t_ready"] - spawned
            res["trace"] = shim["trace"]
        return res


WORKLOADS = {"sweep": Sweep, "genus-oracle": GenusOracle, "cli-cold": CliCold}


def main() -> int:
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    signal.signal(signal.SIGALRM, _alarm)
    wl = WORKLOADS[workload](load_goldens())
    print("READY", flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "traced":
        if workload == "cli-cold":
            wl.trace_dir = os.path.join(ROOT, ".bench_out", f"cli-{os.getpid()}")
            os.makedirs(wl.trace_dir, exist_ok=True)
        else:
            from tracer import Tracer

            tracer = Tracer().install()
    passes = []
    measured = 0.0
    while True:
        inputs = wl.inputs(seed, len(passes))
        t0 = time.perf_counter()
        items = [wl.item(inp) for inp in inputs]
        passes.append({"s": time.perf_counter() - t0, "items": items})
        measured += passes[-1]["s"]
        if mode != "run" or (len(passes) >= wl.min_passes and measured >= seconds):
            break
    out = {"passes": passes}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.dump()
    if workload == "cli-cold":
        # the job processes' peak, not this driver's
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if wl.trace_dir is not None:
            os.rmdir(wl.trace_dir)
        out["outputs"] = {k: [c, v.decode()] for k, (c, v) in wl.outputs.items()}
    else:
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
