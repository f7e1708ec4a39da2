"""Every layer hook and thread pool of the benchmark tracer resolves, the
hooks of the online layers fire in a reduced-velocity sweep, and the hooks of
the offline layers fire in a pooled basis build."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from channelms import cli, harness

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    return bench


def test_every_perfbench_hook_resolves(monkeypatch):
    bench = _load_tracer(monkeypatch)
    tracer = bench.Tracer()
    try:
        tracer.install(bench.CORE_HOOKS + bench.LAYER_HOOKS, bench.POOLS)
        assert tracer.unresolved == []
    finally:
        tracer.uninstall()


def test_online_hooks_fire_in_a_reduced_velocity_sweep(monkeypatch):
    # a hook that resolves but is never called reads as a zero layer metric
    bench = _load_tracer(monkeypatch)
    cfg = replace(cli.load_preset("test3_unstructured"), target_cells=400,
                  n_domains=4, mu_list=(1, 2), mc_list=(1, 2), n_steps=4,
                  t_max=0.1)
    tracer = bench.Tracer()
    try:
        tracer.install(bench.CORE_HOOKS + bench.LAYER_HOOKS)
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    calls = tracer.summary()
    for name in ("fine_solver.assemble_convection", "fine_solver.splu",
                 "coarse_solver.solve_coarse_transport",
                 "coarse_solver.assemble_convection"):
        assert calls.get(name + ".calls", 0) >= 1, name
    assert calls["coarse_solver.solve_coarse_transport.calls"] == 2  # one per M_u


def test_offline_hooks_fire_in_a_pooled_timevelocity_sweep(monkeypatch):
    # every basis-layer hook fires when the builds run on a 2-thread pool,
    # and each snapshot job hangs under the build that submitted it
    bench = _load_tracer(monkeypatch)
    cfg = replace(cli.load_preset("test1_rbc"), target_cells=400, n_domains=4,
                  velocity_type="type2", concentration_type="type2",
                  variant="timevelocity", mu_list=(1, 2), mc_list=(1, 2),
                  n_steps=4, t_max=0.1, threads=2)
    tracer = bench.Tracer()
    try:
        tracer.install(bench.CORE_HOOKS + bench.LAYER_HOOKS, bench.POOLS)
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    calls = tracer.summary()
    offline = [h.name for h in bench.LAYER_HOOKS
               if h.name.startswith(("velocity_basis.", "transport_basis."))]
    assert offline
    for name in offline:
        assert calls.get(name + ".calls", 0) >= 1, name
    for layer, snaps, build in (
            ("velocity_basis", "velocity_snapshots", "build_velocity_space"),
            ("transport_basis", "concentration_snapshots",
             "build_concentration_space")):
        jobs = [s for s in tracer.spans if s.name == f"{layer}.{snaps}"]
        assert jobs and all(s.parent is not None
                            and s.parent.name == f"{layer}.{build}"
                            for s in jobs), layer
