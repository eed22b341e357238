"""Smoke test of the benchmark harness itself, on its own small inputs.

    python3 bench/selftest.py

Checks the tracer (re-binding, counts, self time, uninstall), the output
gates against goldens (and that they catch a wrong output), the metric
printer, one cli job plain and traced, and that the benchmark refuses to run
without the library.  Takes a few seconds; prints no benchmark numbers.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def small_item():
    F = W.random_substitution(W.genus_curve("elliptic5"), random.Random(3))
    return worker.Sweep.run_item(F)


def test_tracer():
    from towerlab import basicfield, ffield, omfactor

    orig_factor, orig_divmod = ffield.poly_factor, ffield.FFPoly.__divmod__
    orig_places = omfactor.places_above
    dumps, walls = [], []
    for _ in range(2):
        tr = tracer.Tracer().install()
        check(basicfield.poly_factor is not orig_factor,
              "tracer re-binds a by-name import (basicfield.poly_factor)")
        t0 = time.perf_counter()
        small_item()
        walls.append(time.perf_counter() - t0)
        tr.uninstall()
        dumps.append(tr.dump())
    check(basicfield.poly_factor is orig_factor and ffield.FFPoly.__divmod__ is orig_divmod
          and omfactor.places_above is orig_places,
          "uninstall restores every binding")
    d = dumps[0]
    for name in ("ffield.poly_divmod", "ffield.poly_factor", "omfactor.places_above",
                 "basicfield.ramification_locus", "omfactor.is_irreducible_over_ratfield"):
        check(d["entries"][name]["calls"] > 0, f"{name} is counted")
    check(d["refinement_stages"] > 0, "refinement stages are summed from the chains")
    layers = tracer.layer_self(d)
    check(0 < sum(layers.values()) <= walls[0], "layer self times add up to at most the wall time")
    check(run.counts(dumps[0]) == run.counts(dumps[1]), "counts repeat across two traced runs")
    merged = tracer.merge(dumps)
    check(merged["entries"]["ffield.poly_divmod"]["calls"]
          == 2 * d["entries"]["ffield.poly_divmod"]["calls"], "merge sums counts")


def test_goldens():
    g = worker.load_goldens()["sweep"]
    F = W.make_curve(g["pool"][0])
    _irr, locus, places = worker.Sweep.run_item(F)
    rows = W.place_rows(locus, places)
    check(W.digest(rows) == g["digests"][0], "pool curve 0 matches its golden digest")
    G = W.random_substitution(F, random.Random(7))
    _irr, locus, places = worker.Sweep.run_item(G)
    check(W.digest(W.place_rows(locus, places)) == g["digests"][0],
          "an isomorphic copy matches the same golden")
    rows[0][1] += 1
    check(W.digest(rows) != g["digests"][0], "a wrong place table fails the gate")
    oracle = worker.GenusOracle(worker.load_goldens())
    res = oracle.item(("cubic2", 1, W.genus_curve("cubic2")))
    check(res["err"] is None, "genus gate passes cubic2 cap 1")
    res = oracle.item(("cubic2", 1, W.genus_curve("elliptic5")))
    check(res["err"] is not None, "genus gate catches a wrong genus")


def test_printer():
    hundred = [{"s": float(i)} for i in range(100)]
    check(run.tail(hundred) == (89.0, 90.0), "tail of 100 samples is p90")
    check(run.tail(hundred[:30]) == (19.0, 100.0 * 20 / 30), "tail of 30 samples is p66.7")
    check(run.tail(hundred[:15]) == (14.0, 100.0), "tail of 15 samples is the maximum")
    items = [{"s": 1.0, "err": None}, {"s": 2.0, "err": "boom"}]
    lines = run.render("t", {"m_s": (1.5, "s")}, {}, items, ["boom"])
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] is False and result["failed"] == 1
          and result["metrics"]["m_s"] == {"value": 1.5, "unit": "s"},
          "result line has the four keys and counts the failure")
    check(any("m_s" in line and " s" in line for line in lines[:-1]),
          "every metric is printed with its unit")


def test_cli():
    argv = ["climb", "--m", "3", "--n", "1", "--r", "2", "--p", "2", "--levels", "6", "--json"]
    want = worker.load_goldens()["cli-cold"][W.job_key(argv)]
    _dt, code, out, err, _ = worker.run_cli(argv, worker.cli_env())
    check(err is None and code == want["code"] and W.sha256(out) == want["sha256"],
          "plain cli job matches its golden")
    path = os.path.join(ROOT, ".bench_out", "selftest-trace.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _dt, code, out, err, _ = worker.run_cli(argv, worker.cli_env(12345), path)
    with open(path) as fh:
        shim = json.load(fh)
    os.remove(path)
    check(err is None and W.sha256(out) == want["sha256"],
          "traced cli job under another factor seed gives the same report")
    check(shim["trace"]["entries"]["cli.main"]["calls"] == 1
          and shim["trace"]["entries"]["pyramid.climb"]["calls"] >= 1,
          "shim traces cli.main and pyramid.climb")


def test_refuses_without_library():
    scratch = os.path.join(ROOT, ".bench_out", "selftest-empty")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(scratch, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep"],
                              cwd=scratch, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(scratch)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "without the library the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    test_printer()
    test_tracer()
    test_goldens()
    test_cli()
    test_refuses_without_library()
    print("selftest passed")
