"""Regenerate bench/goldens.json from the library at the current commit.

    python3 bench/regen_goldens.py

The benchmark never writes goldens; run this only when a change is meant to
alter the outputs, and review the diff of goldens.json.  It records:

* sweep: the curve pool (criterion-4 generator at POOL_SEED), the number of
  rejected candidates, each curve's place-table digest, and the fields
  (p, k) the pool builds, which the benchmark warms during set-up;
* genus-oracle: the fields its pairs build;
* cli-cold: exit code and report sha256 of every job.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def record_fields(fn) -> list:
    """Run fn() and return the sorted (p, k) arguments make_field saw."""
    from towerlab import ffield

    orig, seen = ffield.make_field, set()

    def recording(p, k=1):
        seen.add((p, k))
        return orig(p, k)

    modules = [m for m in tracer.towerlab_modules().values()
               if m.__dict__.get("make_field") is orig]
    for mod in modules:
        mod.make_field = recording
    try:
        fn()
    finally:
        for mod in modules:
            mod.make_field = orig
    return sorted(seen)


def sweep_goldens() -> dict:
    pool, rejected = W.generate_pool()
    digests = []

    def run_pool():
        for spec in pool:
            F = W.make_curve(spec)
            _irr, locus, places = worker.Sweep.run_item(F)
            digests.append(W.digest(W.place_rows(locus, places)))
        F = W.make_curve(W.PINNED)
        _irr, locus, places = worker.Sweep.run_item(F)
        digests.append(W.digest(W.place_rows(locus, places)))

    fields = record_fields(run_pool)
    return {"pool": pool, "rejected": rejected, "digests": digests[:-1],
            "pinned_digest": digests[-1], "warm_fields": fields}


def genus_goldens() -> dict:
    def run_pairs():
        for name, cap in W.GENUS_PAIRS:
            worker.GenusOracle.run_item(name, cap, W.genus_curve(name))

    return {"warm_fields": record_fields(run_pairs)}


def cli_goldens() -> dict:
    env = worker.cli_env()
    out = {}
    for argv in W.CLI_JOBS:
        _dt, code, stdout, err, _spawned = worker.run_cli(argv, env)
        if err is not None:
            raise SystemExit(f"{W.job_key(argv)}: {err}")
        out[W.job_key(argv)] = {"code": code, "sha256": W.sha256(stdout)}
    return out


def main() -> None:
    goldens = {
        "sweep": sweep_goldens(),
        "genus-oracle": genus_goldens(),
        "cli-cold": cli_goldens(),
    }
    path = os.path.join(BENCH_DIR, "goldens.json")
    with open(path, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
