"""VTK writer, performance model, configuration and the CLI driver."""

import inspect
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from eulerflow import cli, output, perf, physics, problems
from eulerflow.assembly import assemble
from eulerflow.cli import _config_from_args, build_parser, main
from eulerflow.config import RunConfig, parse_config_file
from eulerflow.stepper import Solver


@pytest.fixture()
def small_setup():
    setup = problems.periodic_smooth(n=6)
    mat = assemble(setup.mesh)
    return setup, mat


# ----- VTK -------------------------------------------------------------------

def test_vtk_structure_and_determinism(tmp_path, small_setup):
    setup, mat = small_setup
    path = tmp_path / "snap.vtk"
    output.write_vtk(str(path), setup.mesh, setup.U0, mat)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines
    assert "DATASET UNSTRUCTURED_GRID" in lines
    npts = len(setup.mesh.points)
    assert f"POINTS {npts} double" in text
    assert f"CELLS {len(setup.mesh.cells)} {len(setup.mesh.cells) * 5}" in text
    assert "SCALARS density double" in text
    assert "VECTORS momentum double" in text
    assert "SCALARS pressure double" in text
    assert "SCALARS schlieren double" in text
    # deterministic bytes
    path2 = tmp_path / "snap2.vtk"
    output.write_vtk(str(path2), setup.mesh, setup.U0, mat)
    assert path2.read_bytes() == path.read_bytes()
    # density block round-trips through the 17-digit format
    i0 = lines.index("SCALARS density double") + 2
    vals = np.array([float(v) for v in lines[i0:i0 + npts]])
    assert np.array_equal(vals, setup.U0[setup.mesh.reduced_index, 0])


def test_vtk_cell_types(tmp_path):
    setup = problems.mach3_channel(3)
    mat = assemble(setup.mesh)
    path = tmp_path / "hex.vtk"
    output.write_vtk(str(path), setup.mesh, setup.U0, mat)
    assert "\n12\n" in path.read_text()


def test_schlieren_constant_density_is_one(small_setup):
    setup, mat = small_setup
    U = np.tile([1.0, 0.2, 0.1, 3.0], (mat.n, 1))
    s = output.schlieren(U, mat)
    assert np.array_equal(s, np.ones(mat.n))


def test_schlieren_range(small_setup):
    setup, mat = small_setup
    s = output.schlieren(setup.U0, mat)
    assert (s > 0.0).all() and (s <= 1.0).all()
    assert s.min() == pytest.approx(np.exp(-10.0))


# ----- performance model ------------------------------------------------------

def test_traffic_prediction_3d_final_pass():
    pred = perf.predict_traffic(3)
    assert pred["step6"].reads == pytest.approx(6.69, abs=0.05)
    assert pred["step6"].writes == pytest.approx(0.19, abs=0.05)


def test_traffic_prediction_monotone_in_cardinality():
    # wider stencils amortize per-node traffic
    narrow = perf.predict_traffic(2, card=5)
    wide = perf.predict_traffic(2, card=25)
    for k in narrow:
        assert wide[k].reads <= narrow[k].reads + 1e-12


def test_perf_table_and_csv(tmp_path, small_setup):
    setup, mat = small_setup
    s = Solver(mat, ranks=2)
    s.set_state(setup.U0)
    s.ssp_rk3_step()
    text = perf.report(s, csv_path=str(tmp_path / "perf.csv"))
    assert "approximate" in text
    assert "syncs=" in text
    rows = (tmp_path / "perf.csv").read_text().splitlines()
    assert rows[0].startswith("phase,reads_per_nnz")
    assert len(rows) == 1 + 7 + 1  # header, 7 phases, sync summary


# ----- configuration -----------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "problem = sod1d\n"
        "refine=1  # one uniform refinement\n"
        "t-final = 0.05\n"
        "ranks = 2\n"
        "overlap = off\n"
        "\n"
    )
    cfg = parse_config_file(str(cfg_file))
    assert cfg.problem == "sod1d"
    assert cfg.refine == 1
    assert cfg.t_final == 0.05
    assert cfg.ranks == 2
    assert cfg.overlap is False


def test_config_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))
    # a value that does not parse names its file, line and key
    for line, message in [("refine = 1.5", "invalid literal for int() with base 10: '1.5'"),
                          ("c_cfl = abc", "could not convert string to float: 'abc'")]:
        bad.write_text(f"# comment\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=re.escape(f"{bad}:2: {key}: {message}")):
            parse_config_file(str(bad))
    # so does a value its rule rejects, checked as its line is read
    for line, message in [("refine = -1", "refine must be an integer >= 0"),
                          ("problem = bogus", "problem must be one of ('cylinder2d', ")]:
        bad.write_text(f"# comment\n{line}\nrefine = 1.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}:2: {message}")):
            parse_config_file(str(bad))
    with pytest.raises(ValueError):
        RunConfig(problem="nope").validate()
    with pytest.raises(ValueError):
        RunConfig(c_cfl=2.0).validate()
    for bad in [
        dict(refine=1.5), dict(refine=-1), dict(limiter_passes=2.0), dict(newton_steps=-1),
        dict(workers=True), dict(workers=0), dict(ranks=1.0), dict(output_every=2.5),
        dict(t_final=float("inf")), dict(t_final=float("nan")), dict(t_final=0.0),
        dict(t_final=True), dict(t_final="1"),
        dict(c_cfl=True), dict(c_cfl="0.5"), dict(c_cfl=float("nan")), dict(c_cfl=None),
        dict(overlap="no"), dict(overlap=None), dict(overlap=1), dict(overlap=0.0),
        dict(perf="yes"), dict(perf=None), dict(perf=0), dict(perf=1.0),
    ]:
        with pytest.raises(ValueError):
            RunConfig(**bad).validate()
    RunConfig(refine=np.int64(1), workers=2, output_every=0, t_final=1, c_cfl=1).validate()
    RunConfig(overlap=np.bool_(False), perf=np.bool_(True)).validate()
    assert main(["--problem", "sod1d", "--t-final", "inf"]) == 1


def other_value(field):
    """A valid value of a RunConfig field other than its default."""
    if field.type == "bool":
        return not field.default
    if field.type == "int":
        return field.default + 1
    if field.type == "float":
        return field.default / 2
    return {"problem": "sod1d"}.get(field.name, "elsewhere")


def test_every_run_setting_has_a_flag_and_a_config_key(tmp_path):
    parser = build_parser()
    actions = {action.dest: action for action in parser._actions}
    for field in fields(RunConfig):
        value = other_value(field)
        want = replace(RunConfig(), **{field.name: value})
        action = actions[field.name]
        flag = action.option_strings[0]
        args = parser.parse_args([flag] if action.nargs == 0 else [flag, str(value)])
        assert _config_from_args(args) == want, flag
        path = tmp_path / f"{field.name}.cfg"
        path.write_text(f"{field.name} = {value}\n")
        assert parse_config_file(str(path)) == want, field.name
    # a flag that is not given leaves the config file's value
    path = tmp_path / "flags.cfg"
    path.write_text("overlap = off\nperf = on\n")
    args = parser.parse_args(["--config", str(path)])
    assert _config_from_args(args) == RunConfig(overlap=False, perf=True)


class _Stop(Exception):
    """Ends cli.run at the Solver call."""


def test_run_hands_every_solver_setting_to_the_solver(monkeypatch):
    held = [f for f in fields(RunConfig) if f.name in inspect.signature(Solver).parameters]
    assert [f.name for f in held] == ["c_cfl", "limiter_passes", "newton_steps", "workers",
                                      "ranks", "overlap"]
    cfg = RunConfig(problem="sod1d", **{f.name: other_value(f) for f in held})
    seen = {}

    def recording_solver(matrices, **kwargs):
        seen.update(kwargs)
        raise _Stop

    monkeypatch.setattr(cli, "Solver", recording_solver)
    with pytest.raises(_Stop):
        cli.run(cfg, log=lambda *args: None)
    assert {f.name: seen[f.name] for f in held} == {f.name: getattr(cfg, f.name) for f in held}


def test_run_config_defaults_are_the_solver_defaults():
    # a run that sets none of the Solver settings steps as a Solver built
    # with its own defaults
    params = inspect.signature(Solver).parameters
    held = [f for f in fields(RunConfig) if f.name in params]
    assert len(held) == 6
    assert {f.name: f.default for f in held} == {f.name: params[f.name].default for f in held}


def test_parser_exposes_documented_flags():
    parser = build_parser()
    text = parser.format_help()
    for flag in ["--problem", "--refine", "--t-final", "--cfl",
                 "--limiter-passes", "--newton-steps", "--workers",
                 "--ranks", "--output-every", "--output-dir", "--perf"]:
        assert flag in text


# ----- CLI end to end -----------------------------------------------------------

def test_cli_end_to_end(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "--problem", "sod1d", "--t-final", "0.01", "--cfl", "0.5",
        "--ranks", "2", "--workers", "2", "--output-dir", str(out), "--perf",
    ])
    assert rc == 0
    files = os.listdir(out)
    assert "sod1d_0000.vtk" in files
    assert "sod1d_final.vtk" in files
    assert "perf.csv" in files


def test_cli_rejects_bad_cfl(capsys):
    rc = main(["--problem", "sod1d", "--cfl", "1.7", "--t-final", "0.01"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_problem_factory_names():
    for name in ("cylinder2d", "cylinder3d", "periodic-smooth", "sod1d"):
        setup = problems.make_problem(name)
        assert physics.is_admissible(setup.U0).all()
    with pytest.raises(ValueError):
        problems.make_problem("bogus")
