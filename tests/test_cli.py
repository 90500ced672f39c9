"""Round trips through `nbv run`, `nbv summarize` and `nbv bench` at a tiny size."""

import csv
import logging

import numpy as np
import pytest

from nbvplan.cli import _setup_logging, main
from nbvplan.config import RunConfig
from nbvplan.harness import run, summarize
from nbvplan.mesh import save_obj
from nbvplan.shapes import make_shape

TINY = [
    "--width", "160", "--height", "120", "--fx", "145", "--fy", "145",
    "--candidates", "16", "--t-max", "2", "--stride", "16",
]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_then_summarize_pads_shorter_runs(mesh_dir, tmp_path):
    mesh = str(mesh_dir / "u_prism.obj")
    short, long = tmp_path / "short", tmp_path / "long"
    assert main(["run", "--mesh", mesh, "--iterations", "2", "--out", str(short)] + TINY) == 0
    assert main(["run", "--mesh", mesh, "--iterations", "3", "--out", str(long)] + TINY) == 0
    short_rows = _rows(short / "records.csv")
    long_rows = _rows(long / "records.csv")
    assert [len(short_rows), len(long_rows)] == [2, 3]
    assert (short / "final.ply").exists()

    out = tmp_path / "summary.csv"
    assert main(["summarize", str(short), str(long), "--out", str(out)]) == 0
    summary = _rows(out)
    assert [int(r["iteration"]) for r in summary] == list(range(1, 11))  # default target 10
    assert all(int(r["n_runs"]) == 2 for r in summary)

    # A run longer than the target sets the row count; the shorter one
    # repeats its last record.
    rows = summarize([str(short), str(long)], target_iterations=2)
    assert len(rows) == 3
    expected = np.mean([float(short_rows[-1]["coverage"]), float(long_rows[-1]["coverage"])])
    assert rows[-1]["mean_coverage"] == pytest.approx(expected)


def test_bench_writes_one_row_per_candidate(mesh_dir, tmp_path, capsys):
    mesh = str(mesh_dir / "u_prism.obj")
    assert main(["bench", "--mesh", mesh, "--out", str(tmp_path)] + TINY) == 0
    rows = _rows(tmp_path / "benchmark.csv")
    assert [int(r["candidate"]) for r in rows] == list(range(16))
    assert "speedup" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "bench"])
def test_missing_mesh_is_a_clear_error(command, tmp_path, capsys):
    argv = [command, "--mesh", str(tmp_path / "missing.obj"), "--out", str(tmp_path)] + TINY
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: mesh not found")


@pytest.mark.parametrize("command", ["run", "bench"])
def test_mesh_outside_first_view_is_a_clear_error(command, tmp_path, capsys):
    cube = make_shape("cube")
    cube.vertices = cube.vertices + np.array([3.0, 0.0, 0.0])
    path = tmp_path / "far_cube.obj"
    save_obj(str(path), cube)
    assert main([command, "--mesh", str(path), "--out", str(tmp_path)] + TINY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial observation saw nothing")
    assert "Traceback" not in err


def test_debug_dumps_restart_with_each_run(mesh_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="nbvplan")
    config = RunConfig(
        mesh=str(mesh_dir / "u_prism.obj"), width=160, height=120, fx=145.0, fy=145.0,
        candidates=16, t_max=2, iterations=1, out=str(tmp_path),
    )
    _, state = run(config)
    dump = tmp_path / "ellipsoids.txt"
    lines = dump.read_text().splitlines()
    assert len(lines) == len(state.e_o) + len(state.e_f) > 0
    assert (tmp_path / "voxels_01.ply").exists()
    run(config)
    assert dump.read_text().splitlines() == lines


@pytest.mark.parametrize(
    "value, level",
    [
        ("1", logging.INFO), ("info", logging.INFO), ("Debug", logging.DEBUG),
        ("WARNING", logging.WARNING), ("error", logging.ERROR), ("CRITICAL", logging.CRITICAL),
        ("", logging.WARNING), (None, logging.WARNING),
    ],
)
def test_nbv_log_sets_the_level(value, level, monkeypatch):
    if value is None:
        monkeypatch.delenv("NBV_LOG", raising=False)
    else:
        monkeypatch.setenv("NBV_LOG", value)
    seen = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.append(kwargs["level"]))
    _setup_logging()
    assert seen == [level]


@pytest.mark.parametrize("value", ["verbose", "2", "basic_format"])
def test_nbv_log_rejects_other_values(value, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("NBV_LOG", value)
    assert main(["summarize", str(tmp_path), "--out", str(tmp_path / "summary.csv")]) == 1
    assert capsys.readouterr().err == f"error: NBV_LOG={value} is not a log level\n"
    assert not (tmp_path / "summary.csv").exists()
