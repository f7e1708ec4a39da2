"""Experiment driver: config IO, inflow data, error metric, sweep outputs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from channelms import cli, fine_solver, harness, transport_basis
from channelms.errors import concentration_error, relative_l2_error
from channelms.harness import (CSV_HEADER, ExperimentConfig, inflow_profile,
                               load_config, run_experiment, save_config)

import oracles
from helpers import zero_mode


def _tiny_cfg(**kw):
    base = dict(length=0.5, half_width=0.05, target_cells=400, n_domains=4,
                mu_list=(2,), mc_list=(1, 2), n_steps=4, t_max=0.1)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    cfg = _tiny_cfg()
    r1 = run_experiment(cfg)
    r2 = run_experiment(replace(cfg, out_dir=str(out), write_fields=True))
    return r1, r2, out


def test_fine_phase_factors_once_per_system(monkeypatch, caplog):
    # one flow and one transport factorization on a desk run, however many
    # velocities the fine flow passes through before it settles
    made = []

    def counted(K, **kw):
        made.append(K.shape)
        return splu(K, **kw)

    monkeypatch.setattr(fine_solver, "splu", counted)
    cfg = replace(cli.load_preset("test2_d1"), target_cells=3000)
    with caplog.at_level("INFO", logger="channelms.harness"):
        fine = harness.run_fine_phase(cfg)
    assert len(made) == 2
    assert fine.flow.steady_step > 2  # several transient velocities refined
    assert fine.transport.fallback_steps == []
    assert fine.transport.lu_solves > fine.grid.n_steps
    assert f"{fine.transport.lu_solves} LU solves" in caplog.text


# --- inflow data -----------------------------------------------------------

def test_inflow_profile_shape_and_mean():
    cfg = ExperimentConfig(length=1.0, half_width=0.1)
    params = cfg.channel_params()
    g = inflow_profile(cfg)
    y0, rmax = params.inlet_y0, params.inlet_rmax
    center = g(np.array([[0.0, y0]]))
    assert np.allclose(center, [[cfg.u_in * 2.0, 0.0]])  # (n+2)/n at r=0, n=2
    edge = g(np.array([[0.0, y0 + rmax], [0.0, y0 - rmax]]))
    assert np.allclose(edge, 0.0)
    # disk-weighted radial mean recovers u_in: int g 2 pi r dr / (pi rmax^2)
    r = np.linspace(0.0, rmax, 20001)
    vals = g(np.column_stack([np.zeros_like(r), y0 + r]))[:, 0]
    mean = np.trapezoid(vals * 2.0 * r, r) / rmax**2
    assert np.isclose(mean, cfg.u_in, rtol=1e-6)


def test_inflow_profile_zero_outside_inlet_disk():
    cfg = ExperimentConfig(length=1.0, half_width=0.1)
    params = replace(cfg.channel_params(), inlet_center=0.05, inlet_radius=0.02)
    g = inflow_profile(cfg, params)
    pts = np.array([[0.0, 0.05], [0.0, 0.08], [0.0, 0.01]])
    vals = g(pts)
    assert vals[0, 0] > 0
    assert np.allclose(vals[1:], 0.0)


# --- error metric ----------------------------------------------------------

def test_relative_l2_error_basics(tiny_dz, rng):
    md = oracles.MeshData(tiny_dz.mesh)
    M = oracles.scalar_mass(md)
    ref = 1.0 + rng.random(tiny_dz.dofs.n_concentration)
    assert relative_l2_error(M, ref, ref) == 0.0
    assert np.isclose(relative_l2_error(M, 2.0 * ref, ref), 100.0)
    assert np.isnan(relative_l2_error(M, ref, np.zeros_like(ref)))
    approx = ref + rng.standard_normal(len(ref))
    want = 100.0 * np.sqrt(((approx - ref) @ M @ (approx - ref))
                           / (ref @ M @ ref))
    assert np.isclose(concentration_error(tiny_dz, approx, ref), want)


# --- config round trip and validation --------------------------------------

def test_config_save_load_round_trip(tmp_path):
    cfg = _tiny_cfg(bc_kind="nbc", variant="timevelocity", beta=0.025,
                    mu_list=(2, 3), partition_mode="unstructured", seed=5,
                    snapshot_mu=3, transport_velocity="multiscale",
                    write_fields=True, threads=2)
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    back = load_config(path)
    assert back == replace(cfg, out_dir=None)


@settings(max_examples=20, deadline=None)
@given(st.floats(1e-3, 10.0), st.integers(1, 200), st.integers(1, 6))
def test_config_numeric_round_trip(tmp_path_factory, diffusion, n_steps, m):
    cfg = ExperimentConfig(diffusion=diffusion, n_steps=n_steps,
                           mc_list=tuple(range(1, m + 1)))
    path = tmp_path_factory.mktemp("cfg") / "c.ini"
    save_config(cfg, path)
    back = load_config(path)
    assert back.diffusion == diffusion
    assert back.n_steps == n_steps
    assert back.mc_list == cfg.mc_list


def test_config_validation_errors():
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(diffusion=0.0).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        ExperimentConfig(alpha=-1.0).validate()
    with pytest.raises(ValueError, match="ascending"):
        ExperimentConfig(mu_list=(5, 3)).validate()
    with pytest.raises(ValueError, match="bc_kind"):
        ExperimentConfig(bc_kind="robin").validate()
    with pytest.raises(ValueError, match="transport_velocity"):
        ExperimentConfig(transport_velocity="coarse").validate()


def test_report_steps_and_wall_data():
    assert ExperimentConfig(n_steps=40).report_steps() == (10, 20, 30, 40)
    assert ExperimentConfig(n_steps=3).report_steps() == (1, 2, 3)
    assert ExperimentConfig(bc_kind="nbc", beta=0.3, c_w=9.0).wall_data() == 0.3
    assert ExperimentConfig(bc_kind="rbc", beta=0.3, c_w=9.0).wall_data() == 9.0


# --- sweep outputs ----------------------------------------------------------

def _strip_seconds(csv_text):
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


def test_sweep_csv_deterministic(tiny_reports):
    r1, r2, _ = tiny_reports
    assert r1.fine_hash == r2.fine_hash
    assert _strip_seconds(r1.to_csv()) == _strip_seconds(r2.to_csv())


def test_sweep_rows_and_header(tiny_reports):
    r1, _, _ = tiny_reports
    lines = r1.to_csv().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(r1.rows) == 1 + 2  # one row per (Mu, Mc)
    for row in r1.rows:
        assert set(row["e_c"]) == {"m10", "m20", "m30", "m40"}
        assert all(np.isfinite(v) for v in row["e_c"].values())
        assert np.isfinite(row["e_u"])


def test_sweep_artifacts_written(tiny_reports):
    _, r2, out = tiny_reports
    assert (out / "errors.csv").read_text() == r2.to_csv()
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "phase,seconds"
    assert {t.split(",")[0] for t in timings[1:]} >= {"mesh", "fine", "total"}
    eig = (out / "eigen_u.csv").read_text().splitlines()
    assert eig[0] == "domain,r,k,lambda"
    doms = {int(line.split(",")[0]) for line in eig[1:]}
    assert doms == {0, 1, 2, 3}
    assert (out / "eigen_c_elliptic.csv").exists()
    assert not list(out.glob("eigen_*_M*.csv"))  # one file per space
    _check_vtk(out / "fields_fine.vtk")
    _check_vtk(out / "fields_ms.vtk")


def _check_vtk(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    k = next(i for i, l in enumerate(lines) if l.startswith("POINTS"))
    n_pts = int(lines[k].split()[1])
    assert n_pts % 3 == 0
    for l in lines[k + 1:k + 1 + n_pts]:
        xs = [float(tok) for tok in l.split()]
        assert len(xs) == 3 and all(np.isfinite(xs))
    assert any(l.startswith("SCALARS concentration") for l in lines)
    assert any(l.startswith("VECTORS velocity") for l in lines)


def test_failed_row_recorded_without_aborting(monkeypatch):
    # the shared projection gets a zeroed second mode that only the M_c=2
    # space keeps
    calls = {"n": 0}
    orig = harness.project_transport

    def singular_at_mc2(dz, space, *args, **kw):
        calls["n"] += 1
        return orig(dz, zero_mode(space, 1), *args, **kw)

    monkeypatch.setattr(harness, "project_transport", singular_at_mc2)
    report = run_experiment(_tiny_cfg())
    assert calls["n"] == 1  # one shared projection serves both M_c
    by_mc = {row["Mc"]: row for row in report.rows}
    assert by_mc[2]["error"].startswith(
        "LinAlgError: singular coarse transport mass matrix at M_c=2")
    assert "error" not in by_mc[1] and by_mc[1]["e_c"]
    lines = report.to_csv().splitlines()
    assert lines[2].split(",")[7:11] == ["nan"] * 4
    assert "M_c=2" in lines[2].split(",")[-2]
    assert lines[1].split(",")[-2] == ""


def test_coarse_flows_lift_through_the_whole_velocity_space():
    # every M_u reconstructs through the largest space's R with zero
    # padding, bitwise equal to the product with a copy of its rows
    cfg = _tiny_cfg(mu_list=(1, 2, 3))
    offline = harness.run_offline_phase(cfg, harness.run_fine_phase(cfg))
    vs = offline.velocity
    for Mu, (cf, _) in offline.flows.items():
        assert cf.space is vs
        R = vs.R[vs.rows(Mu)]
        assert R.shape[0] < vs.R.shape[0] or Mu == 3
        for step, uH in enumerate(cf.coefficients):
            assert np.array_equal(cf.velocity_at(step), R.T @ uH)


@pytest.mark.parametrize("velocity", ["fine", "multiscale"])
def test_singular_flow_fails_only_its_rows(monkeypatch, velocity):
    # a zero second mode on domain 0 makes M_u=2 exactly singular; the nested
    # M_u=1 space does not hold it
    orig = harness.build_velocity_space
    monkeypatch.setattr(harness, "build_velocity_space",
                        lambda *args, **kw: zero_mode(orig(*args, **kw), 1))
    report = run_experiment(_tiny_cfg(mu_list=(1, 2), mc_list=(1,),
                                      transport_velocity=velocity))
    by_mu = {row["Mu"]: row for row in report.rows}
    assert by_mu[2]["error"].startswith(
        "LinAlgError: singular coarse flow system at M_u=2")
    assert "error" not in by_mu[1] and by_mu[1]["e_c"]


def test_empty_wall_family_fails_the_dof_check(monkeypatch):
    orig = transport_basis.concentration_snapshots

    def no_wall_on_domain_0(dz, dom, family, *args):
        snaps = orig(dz, dom, family, *args)
        if dom.index == 0 and family == "wall":
            snaps = snaps[:0]
        return snaps

    monkeypatch.setattr(transport_basis, "concentration_snapshots",
                        no_wall_on_domain_0)
    with pytest.raises(RuntimeError, match="concentration space at M=1 "
                                           "reports 11 coarse dofs, .* gives 12"):
        run_experiment(_tiny_cfg())


@pytest.mark.parametrize("preset", ["test1_rbc", "test3_unstructured"])
@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_shared_online_stage_matches_per_row_oracle(preset, kind):
    # test1_rbc drives transport with the fine velocity, test3_unstructured
    # with each M_u's reduced velocity
    cfg = replace(cli.load_preset(preset), target_cells=1500,
                  velocity_type=kind, concentration_type=kind,
                  mu_list=(5, 10), mc_list=(1, 3, 5))
    want = oracles.per_row_sweep(cfg)
    report = run_experiment(cfg)
    assert len(report.rows) == len(want) == 6
    for row in report.rows:
        e_u, e_c = want[row["Mu"], row["Mc"]]
        assert np.isclose(row["e_u"], e_u, rtol=1e-10, atol=0)
        assert set(row["e_c"]) == set(e_c)
        for key, value in e_c.items():
            assert np.isclose(row["e_c"][key], value, rtol=1e-10, atol=0)


@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_sweep_errors_do_not_depend_on_threads(kind):
    cfg = _tiny_cfg(target_cells=1200, n_domains=6, partition_mode="unstructured",
                    transport_velocity="multiscale", velocity_type=kind,
                    concentration_type=kind, mu_list=(2, 4), mc_list=(1, 3))
    errors = {}
    for threads in (1, 2):
        report = run_experiment(replace(cfg, threads=threads))
        assert len(report.rows) == 4 and all("error" not in r for r in report.rows)
        errors[threads] = [(r["Mu"], r["Mc"], r["e_u"], r["e_c"])
                           for r in report.rows]
    assert errors[1] == errors[2]  # bitwise: floats compare exactly


def test_snapshot_mu_must_be_swept(tmp_path):
    with pytest.raises(ValueError, match="snapshot_mu"):
        run_experiment(_tiny_cfg(snapshot_mu=7))
    path = tmp_path / "cfg.ini"
    save_config(_tiny_cfg(snapshot_mu=7), path)
    with pytest.raises(ValueError, match="snapshot_mu must be one of mu_list"):
        load_config(path)


@pytest.mark.parametrize("name,value", [
    ("velocity_type", "type3"), ("concentration_type", "tpye2"),
    ("partition_mode", "grid"), ("threads", 0), ("threads", -2),
    ("n_domains", 0), ("n_steps", 0)])
def test_load_config_rejects_bad_values(tmp_path, name, value):
    path = tmp_path / "cfg.ini"
    save_config(_tiny_cfg(**{name: value}), path)
    with pytest.raises(ValueError, match=name):
        load_config(path)


@pytest.mark.parametrize("lists", [dict(mu_list=(0, 2)), dict(mu_list=(-1, 2)),
                                   dict(mc_list=(0, 1))])
def test_basis_sizes_below_one_fail_before_the_fine_phase(monkeypatch, tmp_path, lists):
    (name,) = lists
    cfg = _tiny_cfg(**lists)
    with pytest.raises(ValueError, match=name):
        cfg.validate()
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    with pytest.raises(ValueError, match=name):
        load_config(path)
    calls = []
    monkeypatch.setattr(harness, "generate_channel", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=name):
        run_experiment(cfg)
    assert calls == []


def test_load_config_accepts_what_the_builders_accept(tmp_path):
    path = tmp_path / "cfg.ini"
    save_config(_tiny_cfg(velocity_type="Type1", concentration_type="TYPE2",
                          partition_mode="unstructured", n_domains=1,
                          n_steps=1, threads=1), path)
    assert load_config(path).velocity_type == "Type1"


@pytest.mark.parametrize("space,formula", [("velocity", "expected_flow_dof"),
                                           ("concentration",
                                            "expected_transport_dof")])
def test_dof_mismatch_is_an_error(monkeypatch, space, formula):
    monkeypatch.setattr(harness, formula, lambda *args, **kw: -1)
    with pytest.raises(RuntimeError, match=f"{space} space at M=1 reports "
                                           r"\d+ coarse dofs, .* gives -1"):
        run_experiment(_tiny_cfg(mu_list=(1, 2)))


@pytest.mark.parametrize("lists,match", [
    (dict(mu_list=(2, 500)), r"velocity basis on domain 0 \(direction 0\), "
                             r"M=500: requested 500 modes .* rank \d+"),
    (dict(mc_list=(1, 500)), r"concentration basis on domain 0 \(interface "
                             r"family\), M=500: requested 500 modes .* "
                             r"rank \d+")])
def test_rank_shortfall_fails_before_any_row(monkeypatch, lists, match):
    calls = []
    for name in ("solve_coarse_flow", "solve_coarse_transport"):
        orig = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, _f=orig, _n=name, **kw:
                            calls.append(_n) or _f(*a, **kw))
    with pytest.raises(ValueError, match=match):
        run_experiment(_tiny_cfg(**lists))
    assert "solve_coarse_transport" not in calls
    if "mu_list" in lists:
        assert calls == []


# --- presets and CLI --------------------------------------------------------

def test_presets_load_and_validate():
    names = cli.preset_names()
    assert names == ["test1_rbc", "test2_d01", "test2_d1", "test2_dbc",
                     "test2_nbc", "test3_unstructured"]
    for name in names:
        cfg = cli.load_preset(name)
        cfg.validate()
        assert cfg.target_cells == 15000
    assert cli.load_preset("test2_nbc").bc_kind == "nbc"
    assert cli.load_preset("test3_unstructured").partition_mode == "unstructured"


def test_cli_mesh_and_fine(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    save_config(_tiny_cfg(), path)
    cli.main(["mesh", "--config", str(path), "--out", str(tmp_path)])
    assert (tmp_path / "mesh.txt").exists()
    cli.main(["fine", "--config", str(path)])
    out = capsys.readouterr().out
    assert "fine dofs" in out and "fine hash" in out


def test_cli_run_emits_csv(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    save_config(_tiny_cfg(mc_list=(1,)), path)
    cli.main(["run", "--config", str(path)])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert len(out.splitlines()) == 2


def test_cli_basis_writes_the_spaces_of_run(tmp_path, capsys):
    # time+velocity snapshots come from the coarse flow at snapshot_mu, in
    # `basis` as in `run`
    cfg = _tiny_cfg(variant="timevelocity", mu_list=(1, 2), snapshot_mu=1)
    path = tmp_path / "cfg.ini"
    save_config(cfg, path)
    cli.main(["basis", "--config", str(path), "--out", str(tmp_path / "basis")])
    assert "concentration space: 20 rows, reported dof 20" in capsys.readouterr().out
    run_experiment(replace(cfg, out_dir=str(tmp_path / "run")))
    for name in ("eigen_u.csv", "eigen_c_timevelocity.csv"):
        assert ((tmp_path / "basis" / name).read_text()
                == (tmp_path / "run" / name).read_text())


def test_cli_rejects_unknown_config():
    with pytest.raises(SystemExit, match="neither a file nor a preset"):
        cli.main(["run", "--config", "not_a_preset"])
