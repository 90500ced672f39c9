"""Command-line entry point.

  nbv run --mesh <path> [--mode full_sphere --resolution 0.03 --t-max 10
          --beta 4 --candidates 800 --iterations 10 --seed 7
          --evaluator projection --out <dir> --config <file>]
  nbv summarize <run_dir> [<run_dir> ...] [--out summary.csv]
  nbv bench --mesh <path> [--candidates 800 --stride 4 --out <dir>]

Any config-file key can be overridden by the flag of the same name.  Bad
input (a missing or malformed file, an invalid value, a mesh the first view
does not see) prints `error: ...` and exits with status 1.

NBV_LOG is read here and nowhere else: it sets the log level.  It takes
DEBUG, INFO, WARNING, ERROR or CRITICAL in any case, or 1 for INFO; unset or
empty means WARNING, and any other value is an error.  At INFO and above the
run logs its progress, and `harness.run` writes voxel and ellipsoid dumps
next to records.csv.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time

from .config import FIELD_PARSERS, RunConfig, load_config_file, make_config
from .harness import run, summarize, write_summary
from .mesh import load_mesh
from .oracle import oracle_evaluate
from .planner import candidate_views, initialize, run_iteration
from .projection import evaluate_all


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
    file_values = load_config_file(args.config) if args.config else None
    config = make_config(file_values, {k: v for k, v in vars(args).items() if k in FIELD_PARSERS})
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
    summary = summarize(args.run_dirs)
    write_summary(args.out, summary)
    last = summary[-1]
    print(
        f"{last['n_runs']} runs, mean final coverage {last['mean_coverage']:.4f} "
        f"-> {args.out}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Paired projection-vs-oracle timing on one mid-scan scene."""
    config = _config_from_args(args)
    state = initialize(load_mesh(config.mesh), config)
    for _ in range(2):  # a couple of steps so the scene is genuinely mid-scan
        run_iteration(state)

    intr = config.intrinsics()
    candidates = candidate_views(state)

    t0 = time.perf_counter()
    evaluate_all(candidates, state.e_o, state.e_f, intr)
    t_proj = time.perf_counter() - t0

    os.makedirs(config.out, exist_ok=True)
    rows = []
    t_oracle = 0.0
    for i, v in enumerate(candidates):
        t0 = time.perf_counter()
        score = oracle_evaluate(v, state.grid, intr, config.stride)
        dt = time.perf_counter() - t0
        t_oracle += dt
        rows.append(
            {
                "candidate": i,
                "visible_frontier": score.visible_frontier,
                "visible_occupied": score.visible_occupied,
                "eval_time_s": f"{dt:.6f}",
            }
        )
    bench_path = os.path.join(config.out, "benchmark.csv")
    with open(bench_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    counts = state.grid.state_counts()
    active = counts["occupied"] + counts["unknown"] + counts["frontier"] + counts["empty"]
    speedup = t_oracle / t_proj if t_proj > 0 else float("inf")
    print(
        f"{len(candidates)} candidates, {active} active voxels, "
        f"{len(state.e_o) + len(state.e_f)} ellipsoids (stride {config.stride})"
    )
    print(
        f"projection {t_proj:.3f}s  oracle {t_oracle:.3f}s  "
        f"speedup x{speedup:.1f} -> {bench_path}"
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
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
