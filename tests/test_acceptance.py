"""End-to-end acceptance checks.

Each criterion test prints exactly one `criterion N: PASS/FAIL` line (written
to the real stdout so it survives output capture) and then asserts the same
verdict.  The last test pins the errors of those runs.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from helpers import (CRITERION_LINES, closed_copy, final_errors,
                     manufactured_transport_error, trend_ok, velocity_errors)

from channelms.assembly import (DATA_PENALTY, Discretization, LocalDomain,
                                assemble_convection, assemble_flow,
                                assemble_local_concentration_forms,
                                assemble_local_velocity_forms,
                                assemble_transport, assemble_local_stokes,
                                local_diffusion_with_bc, local_interior_form)
from channelms.cli import load_preset
from channelms.coarse_solver import (pressure_space, project_flow,
                                     project_transport, solve_coarse_flow,
                                     solve_coarse_transport)
from channelms.errors import concentration_error, velocity_error
from channelms.fine_solver import (TimeGrid, constant_concentration,
                                   solve_flow, solve_transport)
from channelms.harness import ExperimentConfig, inflow_profile, run_experiment
from channelms.mesh import generate_channel, partition_coarse
from channelms.transport_basis import (build_concentration_space,
                                       concentration_snapshots,
                                       expected_transport_dof, local_operators)
from channelms.velocity_basis import (build_velocity_space, expected_flow_dof,
                                      local_stokes, velocity_snapshots)
from test_spectral import check_spectral


def _crit(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. fine transport converges at second order on a manufactured solution
# --------------------------------------------------------------------------

def test_criterion_1_manufactured_convergence():
    t0 = time.perf_counter()
    errs, cells = zip(*(manufactured_transport_error(h)
                        for h in (0.05, 0.025, 0.0125)))
    seconds = time.perf_counter() - t0
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = (all(r >= 3.5 for r in ratios) and max(cells) <= 5000
          and seconds < 120.0)
    _crit(1, ok, f"L2 ratios {['%.2f' % r for r in ratios]} (need >= 3.5), "
                 f"{max(cells)} cells, {seconds:.1f}s")


# --------------------------------------------------------------------------
# 2. assembled operators match an independent dense brute-force assembler
# --------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence(tiny_dz, tiny_partition):
    md = oracles.MeshData(tiny_dz.mesh)

    def diff(a, b):
        return np.abs(np.asarray(sp.csr_matrix(a).todense()) - b).max()

    worst = 0.0
    ops = assemble_transport(tiny_dz, D=0.05, alpha=0.7, gamma_c=8.0,
                             wall_bc="rbc", wall_data=1.0, c_in=0.0, u_h=None)
    worst = max(worst, diff(ops.A, oracles.transport_diffusion(md, 0.05, 0.7,
                                                               8.0, "rbc")))
    worst = max(worst, diff(ops.M, oracles.scalar_mass(md)))
    cfg = ExperimentConfig(length=1.0, half_width=0.1, target_cells=8)
    fl = assemble_flow(tiny_dz, mu=1.3, rho=0.9, gamma_u=8.0,
                       inflow=inflow_profile(cfg))
    worst = max(worst, diff(fl.A, oracles.flow_viscous(md, 1.3, 8.0)))
    worst = max(worst, diff(fl.B, oracles.divergence_coupling(md)))
    u = np.array([1.0, 0.3])
    C, _ = assemble_convection(tiny_dz, np.tile(u, 3 * tiny_dz.mesh.n_cells), 0.0)
    worst = max(worst, diff(C, oracles.convection_constant_u(md, u)))
    worst_rel = 0.0
    for i in range(2):
        dom = LocalDomain.build(tiny_dz.mesh, tiny_partition, i)
        cells = tiny_partition.domain_cells(i)
        A = local_diffusion_with_bc(tiny_dz, dom, 0.01, 8.0, dom.gamma_e,
                                    dom.gamma_w, 0.5,
                                    local_interior_form(tiny_dz, dom, 0.01, 8.0))
        worst = max(worst, diff(A, oracles.local_diffusion_with_bc(
            md, cells, 0.01, 8.0, dom.gamma_e, dom.gamma_w, 0.5)))
        As, Bs = assemble_local_stokes(tiny_dz, dom, 1.0, 8.0,
                                       local_interior_form(tiny_dz, dom, 1.0, 8.0))
        worst = max(worst, diff(Bs, oracles.local_stokes_b(md, cells)))
        bd = dom.boundary()
        ref = oracles.local_interior_form(md, cells, 1.0, 8.0)
        pen = oracles.sipg_onesided(md, bd, dom.inside_side(tiny_dz.mesh, bd), 1.0,
                                    8.0 * DATA_PENALTY)
        sd = (3 * cells[:, None] + np.arange(3)[None, :]).reshape(-1)
        ref = oracles.expand_vector(ref + pen[np.ix_(sd, sd)])
        worst_rel = max(worst_rel, diff(As, ref) / np.abs(ref).max())
    ok = worst < 1e-12 and worst_rel < 1e-12
    _crit(2, ok, f"max abs deviation {worst:.2e}, max relative deviation "
                 f"{worst_rel:.2e} (need < 1e-12)")


# --------------------------------------------------------------------------
# 3. closed-wall transport conserves total mass over the full horizon
# --------------------------------------------------------------------------

def test_criterion_3_closed_wall_conservation(small_mesh, rng):
    dz = closed_copy(small_mesh)
    ops = assemble_transport(dz, D=0.01, alpha=0.0, gamma_c=8.0,
                             wall_bc="nbc", wall_data=0.0, c_in=0.0, u_h=None)
    u_h = rng.standard_normal(dz.dofs.n_velocity)
    c0 = 1.0 + 0.5 * rng.random(dz.dofs.n_concentration)
    ones = np.ones(len(c0))
    mass0 = float(ones @ (ops.M @ c0))
    sol = solve_transport(dz, ops.M, ops.A, ops.F, lambda s: u_h, 0.0,
                          TimeGrid(0.7, 40), c0)
    drift = abs(float(ones @ (ops.M @ sol.final)) - mass0) / abs(mass0)
    ok = drift <= 1e-8
    _crit(3, ok, f"relative mass drift {drift:.2e} over 40 steps "
                 f"(need <= 1e-8)")


# --------------------------------------------------------------------------
# 4. full snapshot spaces reproduce the fine solution on a two-domain channel
# --------------------------------------------------------------------------

def full_space_errors():
    """(e_u, final e_c) of the full snapshot spaces on a two-domain channel."""
    cfg = ExperimentConfig(length=0.1, half_width=0.01, target_cells=800,
                           n_domains=2, diffusion=0.05, alpha=0.01,
                           gamma_u=128.0, gamma_c=128.0, t_max=0.02, n_steps=40)
    mesh = generate_channel(cfg.channel_params())
    part = partition_coarse(mesh, 2, mode="structured")
    dz = Discretization.from_mesh(mesh)
    grid = cfg.time_grid()
    fops = assemble_flow(dz, cfg.mu, cfg.rho, cfg.gamma_u, inflow_profile(cfg))
    flow = solve_flow(dz, fops, grid)
    tops = assemble_transport(dz, cfg.diffusion, cfg.alpha, cfg.gamma_c,
                              "rbc", cfg.c_w, cfg.c_in, None)
    c0 = constant_concentration(dz, cfg.c_0)
    fine = solve_transport(dz, tops.M, tops.A, tops.F, flow.velocity_at,
                           cfg.c_in, grid, c0)
    vs = build_velocity_space(dz, part, "type2", None, cfg.mu, cfg.gamma_u)
    cs = build_concentration_space(dz, part, "type2", None, "rbc", "elliptic",
                                   cfg.diffusion, cfg.alpha, cfg.gamma_c)
    cf = solve_coarse_flow(vs, project_flow(vs, pressure_space(part), fops), grid)
    (ct,) = solve_coarse_transport(
        project_transport(dz, cs, tops.M, tops.A, tops.F, c0),
        flow.velocity_at, cfg.c_in, grid)
    e_u = velocity_error(dz, cf.final_velocity, flow.velocity_at(grid.n_steps))
    return e_u, concentration_error(dz, ct.final, fine.final)


@pytest.fixture(scope="module")
def full_space():
    return full_space_errors()


def test_criterion_4_full_space_reproduction(full_space):
    e_u, e_c = full_space
    ok = e_u < 1.0 and e_c < 1.0
    _crit(4, ok, f"full-snapshot errors e_u={e_u:.3f}% e_c={e_c:.3f}% "
                 f"(need < 1%)")


# --------------------------------------------------------------------------
# 5. reference-scale reactive-wall study: monotone error decay in both basis
#    sizes and a >= 5x drop from M_c=3 to M_c=20 with the reduced velocity
# --------------------------------------------------------------------------

def reference_study():
    """(elliptic report, time+velocity report, seconds) of test1_rbc at
    reference scale."""
    t0 = time.perf_counter()
    cfg = replace(load_preset("test1_rbc"), threads=4)
    r_ell = run_experiment(cfg)
    r_tv = run_experiment(replace(cfg, variant="timevelocity", mu_list=(20,)))
    return r_ell, r_tv, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reference_reports():
    return reference_study()


def test_criterion_5_reference_study(reference_reports):
    r_ell, r_tv, seconds = reference_reports
    e_u = velocity_errors(r_ell)
    fin_ell = final_errors(r_ell, Mu=max(r_ell.config.mu_list))
    fin_tv = final_errors(r_tv, Mu=20)
    ok_rows = fin_ell is not None and fin_tv is not None
    ratio = fin_tv[1] / fin_tv[4] if ok_rows else float("nan")  # Mc=3 vs 20
    ok = (ok_rows and trend_ok(e_u) and trend_ok(fin_ell) and trend_ok(fin_tv)
          and ratio >= 5.0 and seconds < 900.0)
    _crit(5, ok,
          f"e_u={['%.2f' % e for e in e_u]}%, "
          f"final e_c (elliptic)={['%.2f' % e for e in fin_ell or []]}%, "
          f"final e_c (time+velocity)={['%.2f' % e for e in fin_tv or []]}%, "
          f"Mc=3/Mc=20 ratio {ratio:.2f} (need >= 5), {seconds:.0f}s")


# --------------------------------------------------------------------------
# 6. reported coarse dof counts match the closed formulas
# --------------------------------------------------------------------------

def test_criterion_6_dof_accounting(small_dz, small_partition):
    stub_ok = (expected_flow_dof("type2", 10, 5) == 110
               and expected_flow_dof("type2", 10, 20) == 410
               and expected_flow_dof("type2", 20, 20) == 820
               and expected_transport_dof("type2", 10, 1) == 30
               and expected_transport_dof("type1", 10, 2) == 30
               and expected_transport_dof("type2", 20, 10) == 420)
    built_ok = True
    for kind, M in (("type1", 2), ("type2", 3)):
        vs = build_velocity_space(small_dz, small_partition, kind, M, 1.0, 8.0)
        cs = build_concentration_space(small_dz, small_partition, kind, M,
                                       "rbc", "elliptic", 0.05, 0.01, 8.0)
        built_ok = built_ok and (
            vs.reported_dof(M) == expected_flow_dof(kind, 4, M)
            and cs.reported_dof(M) == expected_transport_dof(kind, 4, M))
    ok = stub_ok and built_ok
    _crit(6, ok, "formula stubs and built spaces "
                 + ("agree" if ok else "disagree"))


# --------------------------------------------------------------------------
# 7. spectral reductions verify on real local problems; eigenvalues exported
# --------------------------------------------------------------------------

def test_criterion_7_spectral_verification(small_dz, small_partition, tmp_path):
    detail = []
    ok = True
    try:
        dom = LocalDomain.build(small_dz.mesh, small_partition, 1)
        interior = local_interior_form(small_dz, dom, 1.0, 8.0)
        vsnap = velocity_snapshots(small_dz, dom, 0, 1.0, 8.0,
                                   local_stokes(small_dz, dom, 1.0, 8.0, interior))
        A, S = assemble_local_velocity_forms(small_dz, dom, interior)
        check_spectral(vsnap, A.toarray(), S.toarray(), 5)
        ops = local_operators(small_dz, dom, "elliptic", 0.05, 8.0)
        csnap = concentration_snapshots(small_dz, dom, "interface", "rbc",
                                        "elliptic", 0.05, 0.01, 8.0, *ops)
        A, S = assemble_local_concentration_forms(small_dz, dom, ops[0])
        check_spectral(csnap, A.toarray(), S.toarray(), 5)
        detail.append("eigenpair residuals/orthonormality verified")
    except AssertionError as exc:
        ok = False
        detail.append(f"spectral check failed: {exc}")

    cfg = ExperimentConfig(length=0.5, half_width=0.05, target_cells=400,
                           n_domains=4, mu_list=(2,), mc_list=(1,),
                           n_steps=4, t_max=0.1, out_dir=str(tmp_path))
    run_experiment(cfg)
    files = ["eigen_u.csv", "eigen_c_elliptic.csv"]
    for name in files:
        path = tmp_path / name
        if not path.exists():
            ok = False
            detail.append(f"missing {name}")
            continue
        lines = path.read_text().splitlines()
        if lines[0] != "domain,r,k,lambda" or len(lines) < 5:
            ok = False
            detail.append(f"malformed {name}")
    detail.append("eigenvalue CSVs emitted")
    _crit(7, ok, "; ".join(detail))


# --------------------------------------------------------------------------
# 8/9. desk-scale runs of every shipped preset
# --------------------------------------------------------------------------

def _desk(cfg):
    """Shrink a reference-scale preset so its largest basis still fits the
    per-domain snapshot count at ~3000 cells."""
    return replace(cfg, target_cells=3000, threads=4,
                   mu_list=tuple(m for m in cfg.mu_list if m <= 20),
                   mc_list=tuple(m for m in cfg.mc_list if m <= 10))


PRESETS = ("test1_rbc", "test2_dbc", "test2_nbc", "test2_d01", "test2_d1",
           "test3_unstructured")


def desk_studies():
    """{run: report} of every shipped preset at desk scale, the unstructured
    one with the fine velocity too, and test2_d01 at three diffusivities."""
    out = {}
    for name in PRESETS:
        out[name] = run_experiment(_desk(load_preset(name)))
    cfg3 = _desk(load_preset("test3_unstructured"))
    out["test3_fine_velocity"] = run_experiment(
        replace(cfg3, transport_velocity="fine"))
    base = _desk(load_preset("test2_d01"))
    for D in (0.01, 0.1, 1.0):
        out[f"D={D}"] = run_experiment(replace(base, diffusion=D))
    return out


@pytest.fixture(scope="module")
def desk_reports():
    return desk_studies()


def _m_need(report, mu, threshold):
    """Smallest M_c whose final-time error is below threshold (inf if none)."""
    fins = final_errors(report, Mu=mu)
    mcs = sorted({row["Mc"] for row in report.rows})
    for mc, e in zip(mcs, fins):
        if e < threshold:
            return mc
    return float("inf")


def test_criterion_8_preset_studies(desk_reports):
    detail = []
    ok = True
    for name in PRESETS:
        r = desk_reports[name]
        mu = max(r.config.mu_list)
        fins = final_errors(r, Mu=mu)
        if fins is None:
            ok = False
            detail.append(f"{name}: sweep row failed")
            continue
        good = trend_ok(velocity_errors(r)) and trend_ok(fins)
        ok = ok and good
        detail.append(f"{name}: trends {'ok' if good else 'BROKEN'} "
                      f"(final e_c {fins[-1]:.2f}%)")
    needs = [_m_need(desk_reports[f"D={D}"], 20, 5.0)
             for D in (0.01, 0.1, 1.0)]
    mono = all(b <= a for a, b in zip(needs, needs[1:]))
    ok = ok and mono
    detail.append(f"M_c needed for <5% vs diffusivity: {needs} "
                  f"({'non-increasing' if mono else 'NOT monotone'})")
    _crit(8, ok, "; ".join(detail))


def test_criterion_9_unstructured_with_reduced_velocity(desk_reports):
    r_ms = desk_reports["test3_unstructured"]
    r_fine = desk_reports["test3_fine_velocity"]
    fins_ms = final_errors(r_ms, Mu=20)
    fins_fine = final_errors(r_fine, Mu=20)
    ok = fins_ms is not None and fins_fine is not None
    factor = fins_ms[-1] / fins_fine[-1] if ok else float("nan")
    ok = (ok and trend_ok(velocity_errors(r_ms)) and trend_ok(fins_ms)
          and factor <= 2.0)
    _crit(9, ok, f"multiscale-velocity final e_c {fins_ms[-1] if fins_ms else 'n/a'}"
                 f" vs fine-velocity {fins_fine[-1] if fins_fine else 'n/a'}"
                 f" (factor {factor:.2f}, need <= 2)")


# --------------------------------------------------------------------------
# the published errors of the runs above, pinned to tests/pinned_errors.json
# (rewritten by tests/record_pinned_errors.py)
# --------------------------------------------------------------------------

PINNED = Path(__file__).with_name("pinned_errors.json")

# Left out: the values that move by more than the bound between one and two
# BLAS threads on the same code (relative): criterion 4's e_c by 2.0e-8, at
# the rounding floor of a 0.28 % error, and criterion 5's e_u by 3.7e-5 and
# its time+velocity e_c by 5.9e-6, because its velocity spaces depend on the
# BLAS thread count.  Every desk value moves by at most 1.3e-9.


def _rows(report, e_u=True):
    return [{"Mu": r["Mu"], "Mc": r["Mc"], **({"e_u": r["e_u"]} if e_u else {}),
             "e_c": r["e_c"]} for r in report.rows]


def pinned_values(full_space, reference_reports, desk_reports):
    """{run: rows of (Mu, Mc, e_u, e_c by report key)} of criteria 4, 5 and
    the desk runs, without the values left out above."""
    r_ell, _, _ = reference_reports
    out = {"criterion 4": [{"Mu": None, "Mc": None, "e_u": full_space[0], "e_c": {}}],
           "reference test1_rbc": _rows(r_ell, e_u=False)}
    out.update((f"desk {name}", _rows(r)) for name, r in desk_reports.items())
    return out


def _values(row):
    """{name: value} of a pinned row."""
    out = {"e_u": row["e_u"]} if "e_u" in row else {}
    out.update((f"e_c {k}", v) for k, v in row["e_c"].items())
    return out


def test_published_errors_are_pinned(full_space, reference_reports, desk_reports):
    got = pinned_values(full_space, reference_reports, desk_reports)
    want = json.loads(PINNED.read_text())
    assert sorted(got) == sorted(want)
    moved = []
    for run, rows in want.items():
        assert len(got[run]) == len(rows), run
        for g, w in zip(got[run], rows):
            assert (g["Mu"], g["Mc"]) == (w["Mu"], w["Mc"]), run
            a, b = _values(g), _values(w)
            assert sorted(a) == sorted(b), (run, w["Mu"], w["Mc"])
            moved += [f"{run} Mu={w['Mu']} Mc={w['Mc']} {name}: {a[name]} (pinned {b[name]})"
                      for name in b if not abs(a[name] - b[name]) <= 1e-8 * abs(b[name])]
    assert moved == [], "\n".join(moved)
