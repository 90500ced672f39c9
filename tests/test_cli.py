"""Round trips through `nbv run`, `nbv summarize` and `nbv bench` at a tiny size."""

import csv
import logging
import re
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from nbvplan import cli, planner
from nbvplan.cli import _setup_logging, main
from nbvplan.config import RunConfig
from nbvplan.harness import CSV_FIELDS, coverage_quality, run, summarize
from nbvplan.mesh import save_obj
from nbvplan.oracle import oracle_evaluate, rank_agreement
from nbvplan.projection import evaluate_all
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


def _write_run(run_dir, coverages):
    run_dir.mkdir()
    with open(run_dir / "records.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for i, cov in enumerate(coverages, start=1):
            row = {k: 0 for k in CSV_FIELDS}
            writer.writerow(row | {"iteration": i, "coverage": cov, "compute_time_s": 0.5})


def test_summarize_prints_coverage_auc_and_iterations_to_95(tmp_path, capsys):
    # Padded to 10 iterations: AUC (0.5 + 0.96 + 8 * 0.97) / 10 = 0.922, 95% at 2;
    # AUC (0.3 + 0.6 + 0.9 + 7 * 0.94) / 10 = 0.838, never 95%, counted as 11.
    _write_run(tmp_path / "a", [0.5, 0.96, 0.97])
    _write_run(tmp_path / "b", [0.3, 0.6, 0.9, 0.94])
    out = tmp_path / "summary.csv"
    assert main(["summarize", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mean coverage AUC 0.8800" in printed
    assert "mean iterations to 95% coverage 6.5" in printed
    assert coverage_quality([str(tmp_path / "a"), str(tmp_path / "b")]) == pytest.approx((0.88, 6.5))
    summary = _rows(out)
    assert list(summary[0]) == [
        "iteration", "mean_coverage", "std_coverage", "mean_compute_time_s", "std_compute_time_s", "n_runs",
    ]
    assert len(summary) == 10


def test_bench_writes_one_row_per_candidate(mesh_dir, tmp_path, capsys, monkeypatch):
    """The oracle scores the set in one call; each row's counts are those of
    scoring its candidate alone."""
    mesh = str(mesh_dir / "u_prism.obj")
    benched = []

    def recording_candidate_views(state):
        benched.append((state, planner.candidate_views(state)))
        return benched[-1][1]

    monkeypatch.setattr(cli, "candidate_views", recording_candidate_views)
    assert main(["bench", "--mesh", mesh, "--out", str(tmp_path)] + TINY) == 0
    with open(tmp_path / "benchmark.csv", newline="") as fh:
        assert fh.readline() == "candidate,projection_score,visible_frontier,visible_occupied\r\n"
    rows = _rows(tmp_path / "benchmark.csv")
    assert [int(r["candidate"]) for r in rows] == list(range(16))
    [(state, candidates)] = benched
    for row, view in zip(rows, candidates):
        score = oracle_evaluate(view, state.grid, state.config.intrinsics(), state.config.stride)
        assert (int(row["visible_frontier"]), int(row["visible_occupied"])) == (
            score.visible_frontier, score.visible_occupied,
        )
    assert max(int(row["visible_frontier"]) for row in rows) > 0
    assert "speedup" in capsys.readouterr().out


def test_bench_reports_rank_agreement(mesh_dir, tmp_path, capsys, monkeypatch):
    mesh = str(mesh_dir / "torus.obj")
    argv = ["bench", "--mesh", mesh, "--out", str(tmp_path)] + TINY + ["--stride", "8"]
    passes = []

    def timed_evaluate_all(*args, **kwargs):
        t0 = time.perf_counter()
        scores = evaluate_all(*args, **kwargs)
        passes.append(time.perf_counter() - t0)
        return scores

    monkeypatch.setattr(cli, "evaluate_all", timed_evaluate_all)
    assert main(argv) == 0
    rows = _rows(tmp_path / "benchmark.csv")
    f = np.array([float(r["projection_score"]) for r in rows])
    seen = np.array([int(r["visible_frontier"]) for r in rows])
    assert np.ptp(f) > 0 and np.ptp(seen) > 0
    rho = spearmanr(f, seen).statistic
    regret = (seen.max() - seen[np.argmax(f)]) / seen.max()
    out = capsys.readouterr().out
    assert f"spearman {rho:.3f}" in out
    assert f"top-1 regret {regret:.3f}" in out
    # projection scoring is timed over repeats, and its median is printed
    median, repeats, total = re.search(
        r"projection (\S+)s \(median of (\d+), (\S+)s in all\)", out
    ).groups()
    assert int(repeats) == len(passes) >= cli.BENCH_MIN_REPEATS
    # The bench stops on its own clock, which spans each wrapped pass.
    assert float(total) >= cli.BENCH_MIN_SECONDS
    assert sum(passes) <= float(total)
    assert float(median) == pytest.approx(np.median(passes), abs=2e-4)
    # followed by the projection throughput of the median pass, to the
    # printed digits of both (4 decimals of the median, 3 of the rate)
    rate = re.search(r"in all\) (\S+) candidates/s", out).group(1)
    assert 16 / float(rate) == pytest.approx(float(median), abs=1e-4)


def test_rank_agreement_edge_cases():
    # perfect order, then the top-scoring view seeing half of the best
    assert rank_agreement([3.0, 1.0, 2.0], [30, 10, 20]) == (1.0, 0.0)
    rho, regret = rank_agreement([3.0, 1.0, 2.0], [10, 5, 20])
    assert rho == pytest.approx(0.5) and regret == pytest.approx(0.5)
    # a constant side has no rank correlation; nothing visible has no regret
    rho, regret = rank_agreement([1.0, 2.0, 3.0], [0, 0, 0])
    assert np.isnan(rho) and regret == 0.0
    assert np.isnan(rank_agreement([1.0, 1.0], [4, 2])[0])


@pytest.mark.parametrize("command", ["run", "bench"])
def test_missing_mesh_is_a_clear_error(command, tmp_path, capsys):
    argv = [command, "--mesh", str(tmp_path / "missing.obj"), "--out", str(tmp_path)] + TINY
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: mesh not found")


@pytest.mark.parametrize("case", ["mesh_is_dir", "config_is_dir", "out_under_file", "out_is_file"])
def test_unusable_path_is_a_clear_error(case, mesh_dir, tmp_path, capsys):
    folder = tmp_path / "d.obj"
    folder.mkdir()
    plain = tmp_path / "f"
    plain.write_text("")
    mesh, out = str(mesh_dir / "cube.obj"), str(tmp_path / "run")
    bad, extra = {
        "mesh_is_dir": (folder, ["--mesh", str(folder), "--out", out]),
        "config_is_dir": (folder, ["--mesh", mesh, "--out", out, "--config", str(folder)]),
        "out_under_file": (plain, ["--mesh", mesh, "--out", str(plain / "x")]),
        "out_is_file": (plain, ["--mesh", mesh, "--out", str(plain)]),
    }[case]
    assert main(["run"] + extra + TINY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


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


def test_fewer_candidates_than_parallels_fails_before_rendering(mesh_dir, tmp_path, capsys, monkeypatch):
    renders = []
    monkeypatch.setattr(planner, "render_depth", lambda *args, **kwargs: renders.append(args))
    argv = ["run", "--mesh", str(mesh_dir / "cube.obj"), "--out", str(tmp_path)] + TINY
    assert main(argv + ["--candidates", "4", "--alpha", "8"]) == 1
    assert "4 candidates < alpha 8" in capsys.readouterr().err
    assert renders == []


def test_non_finite_setting_fails_before_the_run(mesh_dir, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["run", "--mesh", str(mesh_dir / "cube.obj"), "--out", str(out), "--iterations", "2"] + TINY
    assert main(argv + ["--coverage-threshold", "nan"]) == 1
    assert capsys.readouterr().err == "error: coverage_threshold must be finite\n"
    assert not out.exists()


def test_bench_checks_out_before_scanning(mesh_dir, tmp_path, capsys, monkeypatch):
    plain = tmp_path / "f"
    plain.write_text("")
    scans = []
    monkeypatch.setattr(cli, "initialize", lambda *args: scans.append(args))
    assert main(["bench", "--mesh", str(mesh_dir / "cube.obj"), "--out", str(plain)] + TINY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plain) in err
    assert scans == []


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
