"""Run one benchmark experiment in this (fresh) process and write its record.

    python3 perfbench/experiment.py --workload sweep_rbc --seed 0 --trace 0 \
        --record out.json [--spans spans.json]

The record holds the error rows, the end-to-end timings, the peak RSS and,
with --trace 1, the per-layer metrics.  run.py starts one of these per
experiment and checks the rows; this file checks nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from channelms import cli, harness  # noqa: E402

from tracer import CORE_HOOKS, LAYER_HOOKS, POOLS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def library_versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _rows(report) -> list:
    return [{"Mu": r["Mu"], "Mc": r["Mc"], "e_u": r.get("e_u"),
             "e_c": r.get("e_c", {}), "seconds_total": r.get("seconds_total"),
             "error": r.get("error")} for r in report.rows]


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run(workload, seed: int, trace: bool, scratch: Path) -> tuple[dict, Tracer]:
    tmp = Path(tempfile.mkdtemp(prefix="exp-", dir=scratch))
    tracer = Tracer()
    tracer.install(CORE_HOOKS + (LAYER_HOOKS if trace else ()),
                   POOLS if trace else ())
    rec = {"workload": workload.name, "seed": seed, "trace": trace,
           "unresolved": tracer.unresolved}
    cfg = replace(cli.load_preset(workload.preset), **workload.overrides,
                  seed=seed, out_dir=str(tmp / "out") if workload.out_dir else None)
    path = tmp / f"{workload.name}.ini"
    harness.save_config(cfg, path)
    try:
        t0 = time.perf_counter()
        if workload.cli:
            cli.main([*workload.cli, "--config", str(path)])
        else:
            harness.run_experiment(harness.load_config(path))
        rec["sweep_s"] = time.perf_counter() - t0
    except Exception:  # recorded as failed rows by run.py
        rec["error"] = traceback.format_exc()
    finally:
        tracer.uninstall()
    report, fine = tracer.captured.get("report"), tracer.captured.get("fine")
    rec["expected_rows"] = (1 if workload.cli
                            else len(cfg.mu_list) * len(cfg.mc_list))
    rec["seeded"] = cfg.partition_mode == "unstructured"
    rec["threads"] = cfg.threads
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if report is not None and fine is not None:
        rec["rows"] = _rows(report)
        rec["fine_hash"] = report.fine_hash
        rec["fine_dof_u"], rec["fine_dof_c"] = report.fine_dof_u, report.fine_dof_c
        try:
            fine.check_hash()
            rec["fine_hash_unchanged"] = report.fine_hash == fine.hash
        except RuntimeError:
            rec["fine_hash_unchanged"] = False
    layers = tracer.summary()
    rec["setup_s"] = layers.get("harness.run_fine_phase.s")
    rec["offline_s"] = (layers.get("velocity_basis.build_velocity_space.s", 0.0)
                        + layers.get("transport_basis.build_concentration_space.s", 0.0))
    if workload.out_dir:
        rec["out_bytes"] = _dir_bytes(tmp / "out")
    shutil.rmtree(tmp, ignore_errors=True)
    if trace:
        layers["harness.out_bytes"] = rec.get("out_bytes", 0)
        rec["layers"] = layers
        rec["self_total_s"] = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    rec.update(library_versions())
    return rec, tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", required=True, help="JSON record to write")
    p.add_argument("--spans", help="with --trace 1, write the spans here")
    args = p.parse_args(argv)
    record = Path(args.record)
    rec, tracer = run(WORKLOADS[args.workload], args.seed, bool(args.trace),
                      record.parent)
    record.write_text(json.dumps(rec))
    if args.trace and args.spans:
        Path(args.spans).write_text(json.dumps(tracer.dump_spans()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
