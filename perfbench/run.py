"""channelms benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload sweep_rbc --seed 1 --seconds 30 --trace 0

Each experiment runs in a fresh process (experiment.py), one at a time, with
BLAS and OpenMP pinned to one thread.  Experiments repeat while the next one
is expected to end within --seconds (at least MIN_REPS of them), and each
metric is the median over them.
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced experiments alternate and
it carries the per-layer metrics, including the tracing overhead.  Every
row of every experiment is checked (checks.py); the full record is written
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import failed_rows, load_reference
from tracer import CORE_HOOKS, LAYER_HOOKS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = {0: 3, 1: 4}
DEADLINE_S = 170.0  # the whole run, child processes included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
# traced Σ self_s / traced sweep_s must lie here on single-threaded workloads
COVERAGE = (0.98, 1.0 + 1e-9)


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30).stdout.strip()
    return {"rev": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_child(workload, seed, trace, timeout) -> tuple[dict, float]:
    record = OUT / f"{workload}-seed{seed}-rec.json"
    spans = OUT / f"{workload}-seed{seed}-spans.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "experiment.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--record", str(record), "--spans", str(spans)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PINNED),
                              capture_output=True, text=True, timeout=timeout)
        failure = proc.returncode and (proc.stderr.strip().splitlines() or ["?"])[-1]
    except subprocess.TimeoutExpired:
        failure = f"experiment exceeded {timeout:.0f} s"
    wall = time.perf_counter() - t0
    if failure or not record.exists():
        return {"error": f"experiment process failed: {failure or 'no record'}",
                "seed": seed, "trace": trace}, wall
    rec = json.loads(record.read_text())
    record.unlink()
    return rec, wall


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(rec) -> dict:
    if "sweep_s" not in rec or rec.get("setup_s") is None:
        return {}
    return {"sweep_s": rec["sweep_s"], "setup_s": rec["setup_s"],
            "offline_s": rec["offline_s"],
            "online_s": rec["sweep_s"] - rec["setup_s"] - rec["offline_s"],
            "peak_rss_mb": rec["peak_rss_mb"]}


def end_to_end_metrics(untraced, spec) -> dict:
    out = {m["name"]: _median(r["e2e"].get(m["name"]) for r in untraced)
           for m in spec["end_to_end"]}
    # the median row pools the rows of every untraced experiment
    out["row_s_p50"] = _median(row["seconds_total"] for r in untraced
                               for row in r.get("rows", ()))
    return out


def _unresolved_names(recs) -> set:
    """Hook names none of whose targets resolved."""
    missing = {t for r in recs for t in r.get("unresolved", ())}
    names = {}
    for h in CORE_HOOKS + LAYER_HOOKS:
        names.setdefault(h.name, []).append(h.target in missing)
    return {n for n, flags in names.items() if all(flags)}


def per_layer(name, traced, unresolved) -> float | None:
    """Median over the traced experiments; 0 for a resolved layer that was
    never called, None (no metric) for a hook that no longer resolves."""
    values = [r["layers"].get(name) for r in traced if "layers" in r]
    if any(v is not None for v in values):
        return statistics.median(v or 0 for v in values)
    owner = name.rsplit(".", 1)[0].replace(".lu_solve", ".splu")
    return None if owner in unresolved or not values else 0


def per_layer_metrics(traced, untraced_sweep_s, spec, problems) -> dict:
    unresolved = _unresolved_names(traced)
    out = {m["name"]: per_layer(m["name"], traced, unresolved)
           for m in spec["per_layer"]}
    traced_sweep_s = _median(r["e2e"].get("sweep_s") for r in traced)
    if traced_sweep_s is not None and untraced_sweep_s is not None:
        out["trace_overhead_s"] = traced_sweep_s - untraced_sweep_s
    coverage = [r["self_total_s"] / r["sweep_s"] for r in traced if "sweep_s" in r]
    out["self_coverage"] = _median(coverage)
    if all(r.get("threads") == 1 for r in traced) and not all(
            COVERAGE[0] <= c <= COVERAGE[1] for c in coverage):
        problems.append(f"layer self times cover {min(coverage, default=0):.4f} "
                        "of the traced sweep_s")
    return out


def measure(workload, seed, seconds, trace) -> tuple[list, float]:
    """Run experiments until `seconds` is spent; with trace, every second
    experiment is traced."""
    start = time.perf_counter()
    recs, walls = [], []
    while True:
        elapsed = time.perf_counter() - start
        if (len(recs) >= MIN_REPS[trace]
                and elapsed + statistics.median(walls) > seconds):
            break
        if elapsed > DEADLINE_S - 5:
            break
        traced = bool(trace) and len(recs) % 2 == 1
        rec, wall = run_child(workload, seed, traced, DEADLINE_S - elapsed)
        recs.append(rec)
        walls.append(wall)
    return recs, time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "channelms" / "harness.py").is_file():
        print(f"perfbench: no channelms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    reference = load_reference().get(args.workload)

    recs, total = measure(args.workload, args.seed, args.seconds, args.trace)
    attempted = failed = 0
    problems = []
    for i, rec in enumerate(recs):
        if "expected_rows" not in rec:  # the process died before reporting
            rec["expected_rows"] = recs[0].get("expected_rows", 1)
        a, f, why = failed_rows(rec, reference)
        attempted, failed = attempted + a, failed + f
        problems += [f"experiment {i + 1}: {w}" for w in why]
        rec["e2e"] = end_to_end(rec)
    untraced = [r for r in recs if not r.get("trace")]
    traced = [r for r in recs if r.get("trace")]
    e2e = end_to_end_metrics(untraced, spec)
    if args.trace:
        kind, units = "per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer_metrics(traced, e2e["sweep_s"], spec, problems)
        extra = {k: _median(r["layers"].get(k) for r in traced)
                 for k in sorted({k for r in traced for k in r["layers"]})}
    else:
        kind, units = "end_to_end", {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, extra = e2e, {}
    metrics = {k: v for k, v in metrics.items() if v is not None}
    correct = failed == 0 and not problems and bool(recs)

    first = next((r for r in recs if "rows" in r), {})
    env = {**_git(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           **{k: first.get(k) for k in ("python", "numpy", "scipy", "blas",
                                        "blas_threads", "threads", "fine_dof_u",
                                        "fine_dof_c", "fine_hash")},
           "workload": args.workload, "config": WORKLOADS[args.workload].overrides,
           "seed": args.seed, "rows": len(first.get("rows", ())),
           "experiments": len(recs), "traced": len(traced), "seconds": total}

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(recs)} experiments in {total:.1f} s")
    for i, rec in enumerate(recs):
        shown = " ".join(f"{k}={v:.4g}" for k, v in rec["e2e"].items())
        print(f"#   {i + 1} {'traced' if rec.get('trace') else 'plain '} {shown}")
    print("# env " + json.dumps(env, default=str))
    print(f"# {kind} metrics, median over "
          f"{len(traced) if args.trace else len(untraced)} experiments:")
    for name, value in metrics.items():
        print(f"#   {name:58s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        if name not in metrics:
            print(f"#   {name:58s} {value:.6g} (not in BENCHMARK.json)")
    print(f"#   row_fail_ratio {failed / attempted if attempted else 1.0:.4g} "
          f"({failed} of {attempted} rows)")
    missing = sorted({t for r in recs for t in r.get("unresolved", ())})
    if missing:
        print("# unresolved hooks: " + ", ".join(missing))
    for why in problems:
        print(f"# FAILED {why}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "problems": problems,
                    "experiments": recs}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
