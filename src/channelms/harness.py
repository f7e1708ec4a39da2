"""End-to-end experiment driver.

Reads a sectioned key/value config, runs the fine reference once, then sweeps
the requested (M_u, M_c) pairs through basis construction and coarse solves,
and writes a CSV of relative errors plus optional VTK / eigenvalue artifacts.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import Discretization, assemble_flow, assemble_transport
from .coarse_solver import (pressure_space, project_flow, project_transport,
                            solve_coarse_flow, solve_coarse_transport)
from .errors import concentration_error, velocity_error
from .fine_solver import (TimeGrid, constant_concentration, solve_flow,
                          solve_transport)
from .mesh import ChannelParams, generate_channel, partition_coarse
from .spectral import NestedSpace
from .transport_basis import build_concentration_space, expected_transport_dof
from .velocity_basis import build_velocity_space, expected_flow_dof
from .vtkio import write_vtk

log = logging.getLogger(__name__)

CSV_HEADER = ("type,variant,Mu,Mc,dof_u_H,dof_c_H,e_u,"
              "e_c_m10,e_c_m20,e_c_m30,e_c_m40,error,seconds_total")


@dataclass
class ExperimentConfig:
    """Full description of one experiment (geometry through basis plan)."""

    # geometry
    length: float = 1.0
    half_width: float = 0.05
    profile: str = "straight"
    amplitude: float = 0.0
    wavelength: float = 0.25
    target_cells: int = 15000
    # partition
    n_domains: int = 10
    partition_mode: str = "structured"
    seed: int = 0
    # physics
    mu: float = 1.0
    rho: float = 1.0
    diffusion: float = 0.01
    alpha: float = 0.01
    beta: float = 0.01
    c_w: float = 1.0
    c_in: float = 0.0
    c_0: float = 1.0
    u_in: float = 1.0
    inflow_n: float = 2.0
    # penalties
    gamma_u: float = 8.0
    gamma_c: float = 8.0
    # time
    t_max: float = 0.7
    n_steps: int = 40
    # basis plan
    velocity_type: str = "type2"
    concentration_type: str = "type2"
    variant: str = "elliptic"
    mu_list: tuple = (5, 10, 20, 40)
    mc_list: tuple = (1, 3, 5, 10, 20)
    bc_kind: str = "rbc"
    transport_velocity: str = "fine"  # "fine" | "multiscale"
    snapshot_mu: int | None = None  # velocity basis size behind u_ms snapshots
    # output
    out_dir: str | None = None
    write_fields: bool = False
    threads: int = 1

    def validate(self):
        self.channel_params().validate()
        for name in ("mu", "rho", "diffusion", "alpha", "beta", "u_in",
                     "gamma_u", "gamma_c", "t_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.mu <= 0 or self.diffusion <= 0 or self.t_max <= 0:
            raise ValueError("mu, diffusion and t_max must be positive")
        for name in ("n_domains", "n_steps", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.partition_mode not in ("structured", "unstructured"):
            raise ValueError(f"unknown partition_mode {self.partition_mode!r}")
        for name in ("velocity_type", "concentration_type"):
            if getattr(self, name).lower() not in ("type1", "type2"):
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("mu_list", "mc_list"):
            ms = list(getattr(self, name))
            if not ms or ms != sorted(ms) or len(set(ms)) != len(ms):
                raise ValueError(f"{name} must be nonempty strictly ascending")
        if self.bc_kind not in ("dbc", "nbc", "rbc"):
            raise ValueError(f"unknown bc_kind {self.bc_kind!r}")
        if self.variant not in ("elliptic", "timevelocity"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.transport_velocity not in ("fine", "multiscale"):
            raise ValueError(f"unknown transport_velocity {self.transport_velocity!r}")
        if self.snapshot_mu is not None and self.snapshot_mu not in self.mu_list:
            raise ValueError("snapshot_mu must be one of mu_list")

    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            length=self.length, half_width=self.half_width,
            profile=self.profile, amplitude=self.amplitude,
            wavelength=self.wavelength, target_cells=self.target_cells,
            flip_seed=self.seed if self.partition_mode == "unstructured" else None)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.t_max, self.n_steps)

    def report_steps(self) -> tuple:
        n = self.n_steps
        return tuple(sorted({max(1, n // 4), max(1, n // 2),
                             max(1, 3 * n // 4), n}))

    def wall_data(self) -> float:
        return self.beta if self.bc_kind == "nbc" else self.c_w


_SECTIONS = {
    "geometry": ("length", "half_width", "profile", "amplitude", "wavelength",
                 "target_cells"),
    "partition": ("n_domains", "partition_mode", "seed"),
    "physics": ("mu", "rho", "diffusion", "alpha", "beta", "c_w", "c_in",
                "c_0", "u_in", "inflow_n"),
    "penalties": ("gamma_u", "gamma_c"),
    "time": ("t_max", "n_steps"),
    "basis": ("velocity_type", "concentration_type", "variant", "mu_list",
              "mc_list", "bc_kind", "transport_velocity", "snapshot_mu"),
    "output": ("out_dir", "write_fields", "threads"),
}


def save_config(cfg: ExperimentConfig, path):
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {}
        for name in names:
            v = getattr(cfg, name)
            if v is None:
                continue
            if isinstance(v, (tuple, list)):
                v = ",".join(str(x) for x in v)
            parser[section][name] = str(v)
    with open(path, "w") as fh:
        parser.write(fh)


def load_config(path_or_file) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    if hasattr(path_or_file, "read"):
        parser.read_file(path_or_file)
    else:
        with open(path_or_file) as fh:
            parser.read_file(fh)
    cfg = ExperimentConfig()
    kwargs = {}
    for section, names in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for name in names:
            if not parser.has_option(section, name):
                continue
            raw = parser.get(section, name)
            default = getattr(cfg, name)
            if name in ("mu_list", "mc_list"):
                kwargs[name] = tuple(int(x) for x in raw.split(",") if x.strip())
            elif name == "snapshot_mu":
                kwargs[name] = int(raw)
            elif isinstance(default, bool):
                kwargs[name] = parser.getboolean(section, name)
            elif isinstance(default, int):
                kwargs[name] = int(raw)
            elif isinstance(default, float):
                kwargs[name] = float(raw)
            else:
                kwargs[name] = raw
    cfg = replace(cfg, **kwargs)
    cfg.validate()
    return cfg


def inflow_profile(cfg: ExperimentConfig, params: ChannelParams | None = None):
    """Mean-normalized power-law inflow: u_in·(n+2)/n·(1 − (r/r_max)^n) in the
    x direction inside the inlet disk, zero outside."""
    if params is None:
        params = cfg.channel_params()
    y0, rmax, n, u_in = params.inlet_y0, params.inlet_rmax, cfg.inflow_n, cfg.u_in

    def g(x):
        x = np.asarray(x, dtype=float)
        r = np.abs(x[:, 1] - y0)
        out = np.zeros_like(x)
        inside = r <= rmax
        out[inside, 0] = u_in * (n + 2) / n * (1.0 - (r[inside] / rmax) ** n)
        return out

    return g


@dataclass
class ErrorReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)  # dicts, one per (Mu, Mc)
    fine_dof_u: int = 0
    fine_dof_c: int = 0
    fine_hash: str = ""
    timings: dict = field(default_factory=dict)  # phase -> seconds

    def to_csv(self) -> str:
        """One line per row; `error` is empty for completed rows and holds
        the failure, on one line and quoted where needed, for failed ones."""
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        out = csv.writer(buf, lineterminator="\n")
        for r in self.rows:
            e_c = r.get("e_c", {})
            out.writerow([r["type"], r["variant"], r["Mu"], r["Mc"],
                          r["dof_u_H"], r["dof_c_H"], _fmt(r.get("e_u")),
                          *(_fmt(e_c.get(k)) for k in ("m10", "m20", "m30", "m40")),
                          " ".join(r.get("error", "").split()),
                          "%.3f" % r.get("seconds_total", float("nan"))])
        return buf.getvalue()


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "nan"
    return "%.6g" % v


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@dataclass
class FinePhase:
    """Cached fine reference shared by every sweep row."""

    dz: Discretization
    partition: object
    grid: TimeGrid
    flow_ops: object
    transport_ops: object
    flow: object
    transport: object
    c0: np.ndarray
    report: tuple
    hash: str

    def check_hash(self):
        got = _hash_arrays(self.flow.velocity_at(self.grid.n_steps),
                           *(self.transport.reported[m] for m in self.report))
        if got != self.hash:
            raise RuntimeError("fine reference mutated during the sweep")


def run_fine_phase(cfg: ExperimentConfig, timings: dict | None = None) -> FinePhase:
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    params = cfg.channel_params()
    mesh = generate_channel(params)
    partition = partition_coarse(mesh, cfg.n_domains, mode=cfg.partition_mode,
                                 seed=cfg.seed)
    dz = Discretization.from_mesh(mesh)
    timings["mesh"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = cfg.time_grid()
    g = inflow_profile(cfg, params)
    flow_ops = assemble_flow(dz, cfg.mu, cfg.rho, cfg.gamma_u, g)
    flow = solve_flow(dz, flow_ops, grid)
    transport_ops = assemble_transport(dz, cfg.diffusion, cfg.alpha,
                                       cfg.gamma_c, cfg.bc_kind,
                                       cfg.wall_data(), cfg.c_in, None)
    c0 = constant_concentration(dz, cfg.c_0)
    report = cfg.report_steps()
    transport = solve_transport(dz, transport_ops.M, transport_ops.A,
                                transport_ops.F, flow.velocity_at, cfg.c_in,
                                grid, c0, report_steps=report)
    timings["fine"] = time.perf_counter() - t0
    h = _hash_arrays(flow.velocity_at(grid.n_steps),
                     *(transport.reported[m] for m in report))
    return FinePhase(dz=dz, partition=partition, grid=grid, flow_ops=flow_ops,
                     transport_ops=transport_ops, flow=flow,
                     transport=transport, c0=c0, report=report, hash=h)


@dataclass
class OfflinePhase:
    """Both nested spaces of a sweep, each built once at its largest size,
    and the coarse flow of every M_u (time+velocity snapshots need one)."""

    velocity: NestedSpace
    concentration: NestedSpace
    flows: dict  # Mu -> (coarse flow or the error that stopped it, e_u)


def run_offline_phase(cfg: ExperimentConfig, fine: FinePhase,
                      timings: dict | None = None) -> OfflinePhase:
    """Build the velocity space at the largest M_u and solve the coarse flow
    of every M_u on its rows, then build the concentration space at the
    largest M_c from the coarse flow at `snapshot_mu`.  Checks the dof count
    of every size and writes each space's eigenvalue CSV."""
    timings = {} if timings is None else timings
    dz, partition, grid = fine.dz, fine.partition, fine.grid
    u_ref = fine.flow.velocity_at(grid.n_steps)

    # one flow projection at the largest M_u; each smaller M_u takes the
    # principal submatrix of its rows
    t0 = time.perf_counter()
    vs = build_velocity_space(dz, partition, cfg.velocity_type,
                              cfg.mu_list[-1], cfg.mu, cfg.gamma_u,
                              threads=cfg.threads)
    cops_max = project_flow(vs, pressure_space(partition), fine.flow_ops)
    _dump_eigen(cfg, "eigen_u.csv", vs.eigen_rows)
    flows = {}
    for Mu in cfg.mu_list:
        _check_dof("velocity", Mu, vs.reported_dof(Mu),
                   expected_flow_dof(cfg.velocity_type, cfg.n_domains, Mu))
        try:
            cf = solve_coarse_flow(vs, cops_max.restrict(Mu, vs.rows(Mu)), grid)
            flows[Mu] = (cf, velocity_error(dz, cf.final_velocity, u_ref))
        except np.linalg.LinAlgError as exc:  # fails the rows of this M_u only
            flows[Mu] = (exc, None)
    timings["velocity_basis"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kw = {}
    if cfg.variant == "timevelocity":
        snap_mu = cfg.snapshot_mu if cfg.snapshot_mu is not None else cfg.mu_list[-1]
        snap_flow = flows[snap_mu][0]
        if isinstance(snap_flow, Exception):
            raise snap_flow
        kw = dict(u_ms=snap_flow.final_velocity, tau=grid.tau)
    cs = build_concentration_space(dz, partition, cfg.concentration_type,
                                   cfg.mc_list[-1], cfg.bc_kind, cfg.variant,
                                   cfg.diffusion, cfg.alpha, cfg.gamma_c,
                                   threads=cfg.threads, **kw)
    for Mc in cfg.mc_list:
        _check_dof("concentration", Mc, cs.reported_dof(Mc),
                   expected_transport_dof(cfg.concentration_type,
                                          cfg.n_domains, Mc))
    _dump_eigen(cfg, f"eigen_c_{cfg.variant}.csv", cs.eigen_rows)
    timings["concentration_basis"] = time.perf_counter() - t0
    return OfflinePhase(velocity=vs, concentration=cs, flows=flows)


def run_experiment(cfg: ExperimentConfig) -> ErrorReport:
    """Run the fine reference once, then all (M_u, M_c) sweep rows."""
    cfg.validate()
    timings = {}
    t_start = time.perf_counter()
    fine = run_fine_phase(cfg, timings)
    dz, grid = fine.dz, fine.grid
    report = ErrorReport(config=cfg, fine_dof_u=dz.dofs.n_velocity + dz.dofs.n_pressure,
                         fine_dof_c=dz.dofs.n_concentration, fine_hash=fine.hash,
                         timings=timings)
    report_keys = dict(zip(fine.report, ("m10", "m20", "m30", "m40")))
    offline = run_offline_phase(cfg, fine, timings)

    # transport phase: one projection for the sweep, then one shared solve
    # per velocity source steps every M_c; each row is charged an even share
    # of the projection, of its solve and of its errors
    t0 = time.perf_counter()
    if cfg.transport_velocity == "fine":
        sources = [(cfg.mu_list, fine.flow.velocity_at)]
    else:
        sources = [((Mu,), cf.velocity_at) for Mu, (cf, _) in offline.flows.items()
                   if not isinstance(cf, Exception)]
    tops = fine.transport_ops
    cops = project_transport(dz, offline.concentration, tops.M, tops.A, tops.F,
                             fine.c0)
    served = sum(len(mus) for mus, _ in sources) * len(cfg.mc_list)
    projection_share = (time.perf_counter() - t0) / max(served, 1)
    outcomes = {}  # (Mu, Mc) -> (final field or error, e_c, seconds)
    for mus, velocity_at in sources:
        t_solve = time.perf_counter()
        try:
            solutions = solve_coarse_transport(cops, velocity_at, cfg.c_in, grid,
                                               cfg.mc_list, report_steps=fine.report)
        except Exception as exc:  # record and keep sweeping
            log.exception("coarse transport for M_u in %s failed", mus)
            solutions = [exc] * len(cfg.mc_list)
        share = projection_share + ((time.perf_counter() - t_solve)
                                    / (len(mus) * len(cfg.mc_list)))
        for Mc, ct in zip(cfg.mc_list, solutions):
            t_err = time.perf_counter()
            if isinstance(ct, Exception):
                outcome, e_c = ct, {}
            else:
                outcome = ct.final
                e_c = {key: concentration_error(dz, ct.reported[m],
                                                fine.transport.reported[m])
                       for m, key in report_keys.items()}
            seconds = share + (time.perf_counter() - t_err) / len(mus)
            for Mu in mus:
                outcomes[Mu, Mc] = (outcome, e_c, seconds)
        fine.check_hash()

    last_ok = None
    for Mu in cfg.mu_list:
        cf, e_u = offline.flows[Mu]
        dof_u = offline.velocity.reported_dof(Mu)
        for Mc in cfg.mc_list:
            final, e_c, seconds = outcomes.get((Mu, Mc), (cf, {}, 0.0))
            row = {"type": cfg.concentration_type, "variant": cfg.variant,
                   "Mu": Mu, "Mc": Mc, "dof_u_H": dof_u,
                   "dof_c_H": offline.concentration.reported_dof(Mc),
                   "e_u": e_u, "e_c": {},
                   "seconds_total": seconds}
            failure = next((x for x in (cf, final) if isinstance(x, Exception)),
                           None)
            if failure is None:
                row["e_c"] = e_c
                last_ok = (final, cf)
            else:
                row["error"] = f"{type(failure).__name__}: {failure}"
                log.error("sweep row Mu=%d Mc=%d failed: %s", Mu, Mc,
                          row["error"])
            report.rows.append(row)
    timings["coarse"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    _write_outputs(cfg, report, fine, last_ok)
    return report


def _check_dof(space: str, M: int, reported: int, expected: int):
    if reported != expected:
        raise RuntimeError(f"{space} space at M={M} reports {reported} coarse "
                           f"dofs, the closed formula gives {expected}")


def _dump_eigen(cfg: ExperimentConfig, name: str, eigen_rows):
    if cfg.out_dir is None:
        return
    import os
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, name), "w") as fh:
        fh.write("domain,r,k,lambda\n")
        for dom, r, k, lam in eigen_rows:
            fh.write(f"{dom},{r},{k},{lam!r}\n")


def _write_outputs(cfg: ExperimentConfig, report: ErrorReport, fine: FinePhase,
                   last_ok):
    if cfg.out_dir is None:
        return
    import os
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "errors.csv"), "w") as fh:
        fh.write(report.to_csv())
    with open(os.path.join(cfg.out_dir, "timings.csv"), "w") as fh:
        fh.write("phase,seconds\n")
        for phase, sec in report.timings.items():
            fh.write(f"{phase},{sec:.3f}\n")
    if cfg.write_fields:
        mesh = fine.dz.mesh
        n = fine.grid.n_steps
        write_vtk(os.path.join(cfg.out_dir, "fields_fine.vtk"), mesh,
                  concentration=fine.transport.reported[n],
                  velocity=fine.flow.velocity_at(n),
                  pressure=fine.flow.pressures[-1], partition=fine.partition)
        if last_ok is not None:
            c_final, cf = last_ok
            write_vtk(os.path.join(cfg.out_dir, "fields_ms.vtk"), mesh,
                      concentration=c_final,
                      velocity=cf.final_velocity, partition=fine.partition)
