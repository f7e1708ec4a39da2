"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from channelms import harness, velocity_basis  # noqa: E402
from channelms.cli import load_preset  # noqa: E402

from checks import failed_rows  # noqa: E402
from tracer import CORE_HOOKS, LAYER_HOOKS, POOLS, Hook, Span, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _rows(report):
    return [(r["Mu"], r["Mc"], r["e_u"], tuple(sorted(r["e_c"].items())))
            for r in report.rows]


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_and_untraced_rows_are_bitwise_equal(threads):
    cfg = replace(load_preset("test1_rbc"), target_cells=600, n_domains=3,
                  mu_list=(2, 4), mc_list=(1, 2), n_steps=8, threads=threads)
    plain = harness.run_experiment(cfg)
    original = velocity_basis.splu
    with Tracer().install(CORE_HOOKS + LAYER_HOOKS, POOLS) as tracer:
        traced = harness.run_experiment(cfg)
    assert velocity_basis.splu is original
    assert tracer.unresolved == []
    assert _rows(traced) == _rows(plain)
    layers = tracer.summary()
    assert layers["velocity_basis.build_velocity_space.calls"] == 2
    assert layers["velocity_basis.splu.calls"] == 2 * 3 * 2
    assert layers["velocity_basis.splu.distinct_ratio"] == pytest.approx(3 / 12)
    # every pool job hangs under the build that submitted it
    builds = {id(s) for s in tracer.spans
              if s.name == "velocity_basis.build_velocity_space"}
    jobs = [s for s in tracer.spans if s.name == "velocity_basis.velocity_snapshots"]
    assert jobs and all(id(s.parent) in builds for s in jobs)


def test_unresolved_hooks_are_listed_and_give_no_metric():
    hooks = (Hook("harness.gone", "harness.no_such_function"),
             Hook("nowhere.f", "no_such_module.f"),
             Hook("harness.gone_method", "harness.FinePhase.no_such_method"))
    with Tracer().install(hooks, ("velocity_basis.NoSuchPool",)) as tracer:
        pass
    assert tracer.unresolved == ["harness.no_such_function", "no_such_module.f",
                                 "harness.FinePhase.no_such_method",
                                 "velocity_basis.NoSuchPool"]
    assert tracer.summary() == {}


def _span(name, parent, start, end, cpu=0.0):
    s = Span(name, parent)
    s.start, s.end, s.cpu = start, end, cpu
    return s


def test_self_time_subtracts_the_union_of_child_intervals():
    tracer = Tracer()
    root = _span("a.root", None, 0.0, 10.0)
    tracer.spans = [root,
                    _span("a.kid", root, 1.0, 3.0),
                    _span("a.kid", root, 2.0, 5.0),  # overlaps: pool threads
                    _span("a.kid", root, 6.0, 7.0)]
    out = tracer.summary()
    assert out["a.root.self_s"] == pytest.approx(10.0 - 5.0)
    assert out["a.kid.calls"] == 3
    assert out["a.kid.s"] == pytest.approx(6.0)


def _record(rows, seed=1, seeded=True):
    return {"seed": seed, "seeded": seeded, "expected_rows": len(rows),
            "fine_hash_unchanged": True,
            "rows": [{"Mu": mu, "Mc": mc, "e_u": eu,
                      "e_c": dict(m10=1.0, m20=1.0, m30=1.0, m40=ec)}
                     for mu, mc, eu, ec in rows]}


def test_checks_flag_growing_velocity_error_and_reference_drift():
    good = [(5, 1, 2.0, 1.0), (10, 1, 1.0, 1.0)]
    assert failed_rows(_record(good), None)[:2] == (2, 0)
    grows = [(5, 1, 1.0, 1.0), (10, 1, 2.0, 1.0)]
    assert failed_rows(_record(grows), None)[:2] == (2, 1)
    nan = [(5, 1, 2.0, float("nan")), (10, 1, 1.0, 1.0)]
    assert failed_rows(_record(nan), None)[:2] == (2, 1)
    reference = _record(good)
    drift = [(5, 1, 2.0, 1.0), (10, 1, 1.0, 1.0 + 1e-5)]
    assert failed_rows(_record(drift, seed=0), reference)[:2] == (2, 1)
    # a seeded workload at another seed is not compared to the reference
    assert failed_rows(_record(drift, seed=3), reference)[:2] == (2, 0)
    assert failed_rows(_record(drift, seed=3, seeded=False), reference)[:2] == (2, 1)
    crashed = {"seed": 1, "seeded": False, "expected_rows": 4, "error": "boom"}
    assert failed_rows(crashed, None)[:2] == (4, 4)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_workloads_and_limits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
