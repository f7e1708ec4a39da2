"""Command-line driver: mesh / fine / basis / coarse / run subcommands."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from importlib import resources

from . import harness
from .harness import ExperimentConfig, load_config, run_experiment
from .mesh import generate_channel, partition_coarse, write_mesh
from .vtkio import write_vtk

log = logging.getLogger(__name__)


def preset_names() -> list[str]:
    files = resources.files("channelms.presets")
    return sorted(p.name[:-4] for p in files.iterdir() if p.name.endswith(".ini"))


def load_preset(name: str) -> ExperimentConfig:
    ref = resources.files("channelms.presets") / f"{name}.ini"
    with ref.open() as fh:
        return harness.load_config(fh)


def _resolve_config(args) -> ExperimentConfig:
    if args.config is None:
        raise SystemExit("--config is required (a .ini path or preset name: "
                         + ", ".join(preset_names()) + ")")
    if os.path.exists(args.config):
        cfg = load_config(args.config)
    elif args.config in preset_names():
        cfg = load_preset(args.config)
    else:
        raise SystemExit(f"config {args.config!r} is neither a file nor a preset")
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def _add_common(p):
    p.add_argument("--config", help="config file path or preset name")
    p.add_argument("--out", help="output directory")
    p.add_argument("--threads", type=int, help="worker threads for basis builds")
    p.add_argument("--seed", type=int, help="partition / mesh-flip seed")


def cmd_mesh(args):
    cfg = _resolve_config(args)
    mesh = generate_channel(cfg.channel_params())
    part = partition_coarse(mesh, cfg.n_domains, mode=cfg.partition_mode,
                            seed=cfg.seed)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "mesh.txt")
    write_mesh(path, mesh, part)
    print(f"wrote {path}: {mesh.n_cells} cells, {mesh.n_facets} facets, "
          f"{cfg.n_domains} domains, h={mesh.h:.4g}")


def cmd_fine(args):
    cfg = _resolve_config(args)
    fine = harness.run_fine_phase(cfg)
    n = fine.grid.n_steps
    print(f"fine dofs: velocity+pressure={fine.dz.dofs.n_velocity + fine.dz.dofs.n_pressure}"
          f" concentration={fine.dz.dofs.n_concentration}")
    print(f"steady flow step: {fine.flow.steady_step}")
    print(f"fine hash: {fine.hash}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fields_fine.vtk")
        write_vtk(path, fine.dz.mesh, concentration=fine.transport.reported[n],
                  velocity=fine.flow.velocity_at(n),
                  pressure=fine.flow.pressures[-1], partition=fine.partition)
        print(f"wrote {path}")


def cmd_basis(args):
    cfg = _resolve_config(args)
    offline = harness.run_offline_phase(cfg, harness.run_fine_phase(cfg))
    for name, space, M in (("velocity", offline.velocity, cfg.mu_list[-1]),
                           ("concentration", offline.concentration,
                            cfg.mc_list[-1])):
        print(f"{name} space: {space.R.shape[0]} rows, "
              f"reported dof {space.reported_dof(M)}")
    if cfg.out_dir:
        print(f"wrote eigenvalue CSVs to {cfg.out_dir}")


def cmd_coarse(args):
    cfg = _resolve_config(args)
    cfg = replace(cfg, mu_list=(cfg.mu_list[-1],), mc_list=(cfg.mc_list[-1],),
                  snapshot_mu=cfg.mu_list[-1])
    report = run_experiment(cfg)
    print(harness.CSV_HEADER)
    print(report.to_csv().splitlines()[1])


def cmd_run(args):
    cfg = _resolve_config(args)
    report = run_experiment(cfg)
    sys.stdout.write(report.to_csv())
    for phase, sec in report.timings.items():
        print(f"# {phase}: {sec:.1f}s", file=sys.stderr)
    if cfg.out_dir:
        print(f"# artifacts in {cfg.out_dir}", file=sys.stderr)


def main(argv=None):
    logging.basicConfig(level=logging.WARNING)
    parser = argparse.ArgumentParser(
        prog="channelms",
        description="Multiscale reduced-order solver for reactive transport "
                    "in thin channels")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_ in (
            ("mesh", cmd_mesh, "generate and write the fine mesh + partition"),
            ("fine", cmd_fine, "run the fine reference solve"),
            ("basis", cmd_basis, "build multiscale bases and dump eigenvalues"),
            ("coarse", cmd_coarse, "single coarse run at the largest basis"),
            ("run", cmd_run, "full experiment sweep, CSV to stdout")):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
