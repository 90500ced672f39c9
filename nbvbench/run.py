"""nbvplan benchmark command.

    python3 nbvbench/run.py --workload {scan,select,observe} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a checkout.  Builds its inputs from the seed, measures
for about S seconds, checks the outputs, and prints as its last line one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The line before it is `{"info": ...}`: environment, trajectory fingerprints,
program-clock gap and tracing overhead.  Exits 1 when a check fails and 2
when the checkout has no nbvplan sources.  See nbvbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("scan", "select", "observe")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="nbvbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nbvplan", "__init__.py")):
        print(f"error: no nbvplan sources under {src}", file=sys.stderr)
        return 2
    # One process, BLAS/OpenMP pinned to one thread: set before numpy loads.
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    # SIGTERM unwinds like an exception so the temporary mesh directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import workloads

    result, info = workloads.run(
        args.workload, args.size, args.seed, args.seconds, bool(args.trace), root
    )
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
