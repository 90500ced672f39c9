"""Command-line entry point.

  nbv run --mesh <path> [--mode full_sphere --resolution 0.03 --t-max 10
          --beta 4 --candidates 800 --iterations 10 --seed 7
          --evaluator projection --out <dir> --config <file>]
  nbv summarize <run_dir> [<run_dir> ...] [--out summary.csv]
  nbv bench --mesh <path> [--candidates 800 --stride 4 --out <dir>]

`nbv summarize` writes the per-iteration mean and spread of coverage and
compute time to summary.csv, and prints the mean final coverage, the mean
coverage AUC and the mean iterations to 95% coverage over the runs, each run
padded to 10 iterations by repeating its last record.  Each run's
records.csv is read once; a malformed one is an error naming its file and
line.

`nbv bench` times projection scoring against the ray-casting oracle on the
same candidates and reports how well the two agree: the Spearman rho of F
against the oracle's visible frontier, and the top-1 regret.  One scoring
pass takes milliseconds, so it is repeated at least 5 times and for at least
0.2 s, and the median is reported with the repeat count, the total time of
the passes and the projection throughput (candidates scored per second of
the median pass).  The oracle time is that of one `oracle_scores` call on
the whole set, the call the planner makes with `--evaluator oracle`.
benchmark.csv has one row per candidate: candidate, projection_score,
visible_frontier and visible_occupied.

Any config-file key can be overridden by the flag of the same name.  Bad
input (a missing or malformed file, a path that cannot be read or written, an
invalid value, a mesh the first view does not see) prints `error: ...` and
exits with status 1.

NBV_LOG is read here and nowhere else: it sets the log level.  It takes
DEBUG, INFO, WARNING, ERROR or CRITICAL in any case, or 1 for INFO; unset or
empty means WARNING, and any other value is an error.  At INFO and below
(INFO or DEBUG) the run logs its progress, and `harness.run` writes voxel
and ellipsoid dumps next to records.csv.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from .config import FIELD_PARSERS, RunConfig, load_config_file
from .harness import coverage_quality, padded_runs, run, summarize, write_csv
from .mesh import load_mesh
from .oracle import oracle_scores, rank_agreement
from .planner import candidate_views, initialize, run_iteration
from .projection import evaluate_all

BENCH_MIN_REPEATS = 5      # projection scoring passes timed by `nbv bench`, at least
BENCH_MIN_SECONDS = 0.2    # and for at least this long in total

LOG_LEVELS = {
    "1": logging.INFO,
    "DEBUG": logging.DEBUG,
    "INFO": logging.INFO,
    "WARNING": logging.WARNING,
    "ERROR": logging.ERROR,
    "CRITICAL": logging.CRITICAL,
}


def _setup_logging() -> None:
    value = os.environ.get("NBV_LOG") or "WARNING"
    level = LOG_LEVELS.get(value.upper())
    if level is None:
        raise ValueError(f"NBV_LOG={value} is not a log level")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    for name, parse in FIELD_PARSERS.items():
        help_text = "mesh file (ASCII OBJ or PLY)" if name == "mesh" else None
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=parse, default=argparse.SUPPRESS,
            help=help_text,
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in FIELD_PARSERS}
    config = RunConfig(**{**file_values, **flags})
    if not config.mesh:
        raise ValueError("--mesh is required")
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    records, _ = run(config)
    final = records[-1].coverage if records else 0.0
    total = sum(r.compute_time_s for r in records)
    print(
        f"{len(records)} iterations, final coverage {final:.4f}, "
        f"total compute {total:.2f}s -> {config.out}/records.csv"
    )
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    padded = padded_runs(args.run_dirs)
    summary = summarize(padded)
    write_csv(args.out, list(summary[0]), summary)
    auc, iterations = coverage_quality(padded)
    last = summary[-1]
    print(
        f"{last['n_runs']} runs, mean final coverage {last['mean_coverage']:.4f}, "
        f"mean coverage AUC {auc:.4f}, mean iterations to 95% coverage {iterations:.1f} "
        f"-> {args.out}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Paired projection-vs-oracle timing and rank agreement on one mid-scan scene."""
    config = _config_from_args(args)
    os.makedirs(config.out, exist_ok=True)
    state = initialize(load_mesh(config.mesh), config)
    for _ in range(2):  # a couple of steps so the scene is genuinely mid-scan
        run_iteration(state)

    intr = config.intrinsics()
    candidates = candidate_views(state)

    proj_times: list[float] = []
    while len(proj_times) < BENCH_MIN_REPEATS or sum(proj_times) < BENCH_MIN_SECONDS:
        t0 = time.perf_counter()
        scores = evaluate_all(candidates, state.e_o, state.e_f, intr)
        proj_times.append(time.perf_counter() - t0)
    t_proj = float(np.median(proj_times))

    t0 = time.perf_counter()
    visible_frontier, visible_occupied = oracle_scores(
        candidates.rotations, candidates.positions, state.grid, intr, config.stride
    )
    t_oracle = time.perf_counter() - t0
    bench_path = os.path.join(config.out, "benchmark.csv")
    rows = [
        {"candidate": i, "projection_score": float(f), "visible_frontier": int(seen), "visible_occupied": int(occ)}
        for i, (f, seen, occ) in enumerate(zip(scores, visible_frontier, visible_occupied))
    ]
    write_csv(bench_path, list(rows[0]), rows)

    counts = state.grid.state_counts()
    active = counts["occupied"] + counts["unknown"] + counts["frontier"] + counts["empty"]
    speedup = t_oracle / t_proj if t_proj > 0 else float("inf")
    throughput = len(candidates) / t_proj if t_proj > 0 else float("inf")
    rho, regret = rank_agreement(scores, visible_frontier)
    print(
        f"{len(candidates)} candidates, {active} active voxels, "
        f"{len(state.e_o) + len(state.e_f)} ellipsoids (stride {config.stride})"
    )
    print(
        f"projection {t_proj:.4f}s (median of {len(proj_times)}, {sum(proj_times)!r}s in all) "
        f"{throughput:.3g} candidates/s  "
        f"oracle {t_oracle:.3f}s  "
        f"speedup x{speedup:.1f}  spearman {rho:.3f}  top-1 regret {regret:.3f} "
        f"-> {bench_path}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nbv", description="projection-based NBV planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the planning loop on a mesh")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate records across run directories")
    p_sum.add_argument("run_dirs", nargs="+")
    p_sum.add_argument("--out", default="summary.csv")
    p_sum.set_defaults(func=cmd_summarize)

    p_bench = sub.add_parser("bench", help="paired projection/oracle timing")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
