"""towerlab benchmark: one workload per call, every metric printed by name.

    python3 bench/run.py --workload {sweep,cli-cold,genus-oracle} \\
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  Each workload runs in fresh worker interpreters (worker.py), one
closed-loop caller, no threads.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import tracer
import worker
import workloads as W

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

DEFAULT_SEED = 20260826
# set-up is sampled SETUP_SAMPLES times per run (probes plus the measuring
# worker) and reported as the median
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


class HarnessError(Exception):
    pass


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start a worker; return (process, seconds from spawn to READY)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, str(seed),
           str(seconds), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker.cli_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise HarnessError(f"{workload} worker failed during set-up")
    return proc, setup


def finish_worker(proc) -> dict | None:
    """Wait for a worker; return its result line (None for a set-up probe)."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_worker(workload: str, seed: int, seconds: float, mode: str):
    proc, setup = start_worker(workload, seed, seconds, mode)
    return finish_worker(proc), setup


def tail(items: list[dict]) -> tuple[float, float]:
    """(latency, percentile): the highest percentile of the item latencies
    with at least ten samples beyond it, or the maximum when that
    percentile would lie below the median (fewer than 20 samples)."""
    lat = sorted(it["s"] for it in items)
    n = len(lat)
    if n < 20:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def failures(items: list[dict]) -> list[str]:
    return [it["err"] for it in items if it["err"] is not None]


def seed_check(outputs: dict, seed: int) -> list[str]:
    """Re-run every cli-cold job under a second factorization seed and
    require byte-identical reports and equal exit codes.  This check is not
    timed, so it runs two jobs at a time."""
    factor_seed = random.Random(f"factor/{seed}").randrange(1, 2**31)
    env = worker.cli_env(factor_seed)
    jobs = [argv for argv in W.CLI_JOBS if W.job_key(argv) in outputs]
    errors = []
    for i in range(0, len(jobs), 2):
        procs = [(argv, subprocess.Popen([sys.executable, "-c", worker.CLI_ENTRY, *argv],
                                         env=env, cwd=ROOT, stdout=subprocess.PIPE))
                 for argv in jobs[i:i + 2]]
        for argv, proc in procs:
            try:
                out, _ = proc.communicate(timeout=worker.ITEM_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            if [proc.returncode, out.decode()] != list(outputs[W.job_key(argv)]):
                errors.append(f"TOWERLAB_SEED={factor_seed} changes the report of: "
                              f"{W.job_key(argv)}")
    return errors


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list, list, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(workload, seed, seconds, "setup")
        finish_worker(proc)
        setups.append(setup)
    res, setup = run_worker(workload, seed, seconds, "run")
    setups.append(setup)
    passes = res["passes"]
    items = [it for ps in passes for it in ps["items"]]
    min_passes = worker.WORKLOADS[workload].min_passes
    tail_items = [it for ps in passes[:min_passes] for it in ps["items"]]
    tail_s, tail_pct = tail(tail_items)
    errors = failures(items)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(items) / sum(ps["s"] for ps in passes), "1/s"),
        "latency_p50_s": (statistics.median(it["s"] for it in items), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "ok_ratio": ((len(items) - len(errors)) / len(items), "ratio"),
    }
    n = len(passes[0]["items"])
    info = {
        "fail_ratio": f"{len(errors) / len(items):.4f} ratio",
        "latency_tail_percentile": f"p{tail_pct:.1f} of the n={len(tail_items)} items "
                                   f"of the first {min_passes} pass(es)",
        "passes": f"{len(passes)} of {n} items, "
                  + " ".join(f"{ps['s']:.3f}" for ps in passes) + " s",
        "setup_samples_s": " ".join(f"{s:.4f}" for s in setups),
    }
    return metrics, items, errors, info


def layer_metrics(trace: dict, base_wall: float, traced_wall: float,
                  items: list[dict]) -> dict:
    def e(name):
        return trace["entries"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    m = {f"{layer}.self_s": (v, "s") for layer, v in tracer.layer_self(trace).items()}
    for name in ("poly_divmod", "poly_mul", "elem_pow"):
        m[f"ffield.{name}.calls"] = (e(f"ffield.{name}")["calls"], "count")
        m[f"ffield.{name}.self_s"] = (e(f"ffield.{name}")["self_s"], "s")
    for name in ("ffield.poly_gcd", "ffield.poly_factor", "ffield.is_irreducible",
                 "ffield.make_field", "ratfunc.residue_field", "omfactor.places_above",
                 "omfactor.expand_in"):
        m[f"{name}.calls"] = (e(name)["calls"], "count")
        m[f"{name}.s"] = (e(name)["s"], "s")
    for name in ("omfactor.decompose", "omfactor.is_irreducible_over_ratfield",
                 "basicfield.zeta_genus", "basicfield.ram_table", "pyramid.climb",
                 "checker.verify_family_facts", "checker.check_theorem"):
        m[f"{name}.s"] = (e(name)["s"], "s")
    m["ffield.eval_x.calls"] = (e("ffield.eval_x")["calls"], "count")
    m["ratfunc.ops.calls"] = (e("ratfunc.ops")["calls"], "count")
    m["omfactor.augment.calls"] = (e("omfactor.augment")["calls"], "count")
    m["omfactor.refinement_stages"] = (trace["refinement_stages"], "count")
    walked = trace["fiber_elements"]
    m["basicfield.point_count.fiber_ratio"] = (
        trace["fiber_evals"] / walked if walked else 0.0, "ratio")
    starts = [it["start_s"] for it in items if "start_s" in it]
    m["cli.process_start_s"] = (statistics.median(starts) if starts else 0.0, "s")
    m["cli.render_s"] = (e("cli.main")["s"] - e("cli.run")["s"], "s")
    m["trace.overhead"] = (traced_wall / base_wall, "ratio")
    return m


def counts(trace: dict) -> dict:
    out = {name: e["calls"] for name, e in trace["entries"].items()}
    for k in ("refinement_stages", "fiber_evals", "fiber_elements"):
        out[k] = trace[k]
    return out


def per_layer(workload: str, seed: int) -> tuple[dict, list, list, dict]:
    base, _ = run_worker(workload, seed, 0, "once")
    traced = [run_worker(workload, seed, 0, "traced")[0] for _ in range(2)]
    dumps = []
    for res in traced:
        if workload == "cli-cold":
            dumps.append(tracer.merge([it["trace"] for it in res["passes"][0]["items"]]))
        else:
            dumps.append(res["trace"])
    items = [it for res in (base, *traced) for it in res["passes"][0]["items"]]
    errors = failures(items)
    c1, c2 = counts(dumps[0]), counts(dumps[1])
    if c1 != c2:
        diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
        errors.append(f"per-layer counts differ between two traced runs: {diff}")
    if workload == "cli-cold":
        # once per benchmark invocation, outside the timed runs
        errors += seed_check(base["outputs"], seed)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"trace-{workload}.json"), "w") as fh:
        json.dump(dumps[0], fh, indent=1, sort_keys=True)
    metrics = layer_metrics(dumps[0], base["passes"][0]["s"],
                            traced[0]["passes"][0]["s"], traced[0]["passes"][0]["items"])
    info = {"trace_file": f".bench_out/trace-{workload}.json",
            "traced_pass_s": f"{traced[0]['passes'][0]['s']:.4f} s",
            "untraced_pass_s": f"{base['passes'][0]['s']:.4f} s"}
    return metrics, items, errors, info


def render(title: str, metrics: dict, info: dict, items: list, errors: list) -> list[str]:
    """Human-readable lines, then the JSON result line."""
    lines = [title]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    for name, text in info.items():
        lines.append(f"  {name:<40} {text}")
    lines += [f"  FAILED: {err}" for err in sorted(set(errors))]
    result = {
        "correct": not errors,
        "attempted": len(items),
        "failed": len(failures(items)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join(ROOT, "src", "towerlab", "__init__.py"),
                 os.path.join(BENCH_DIR, "goldens.json")):
        if not os.path.isfile(need):
            print(f"benchmark: missing {os.path.relpath(need, ROOT)}; run from a "
                  "towerlab checkout", file=sys.stderr)
            return 2
    try:
        if args.trace:
            metrics, items, errors, info = per_layer(args.workload, args.seed)
        else:
            metrics, items, errors, info = end_to_end(args.workload, args.seed, args.seconds)
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for line in render(f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
                       metrics, info, items, errors):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
