"""The nbvplan benchmark workloads: `scan`, `select` and `observe`.

Every workload is a fixed *pass* of work made from the seed; the timed
section repeats passes while another one fits in `--seconds`, and at least
`Size.min_passes` times.  A pass is cut into *segments* (an initial view,
an iteration with its coverage, a selection, a block of oracle candidates)
that every pass repeats identically.  Each segment's reading is the median
over the run's repeats, and the timing metrics add those medians up: on a
shared host identical work slows by up to 2x in phases that last from a
second to minutes, and a median per segment follows the machine's usual
speed during the run rather than whichever phase one pass met.

An operation is one round of the workload over its scenes: iteration k of
every scene on scan/observe, one sample -> score -> argmax selection per
snapshot on select.  Single iterations differ in cost by 2x and their order
changes with the seed, so a median over them jumps from seed to seed.

The program is driven only through its public API and timed from outside:
call sites are wrapped with `tracing.patched`.  An untraced run wraps the
four calls its metrics need (render_depth, sample_candidates,
assign_partitions, evaluate_all); a traced run wraps every layer boundary
and keeps spans in memory.
"""

from __future__ import annotations

import hashlib
import logging
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.stats import spearmanr

from nbvplan import ellipsoid, planner
from nbvplan.config import RunConfig
from nbvplan.ellipsoid import EM_MAX_ITER
from nbvplan.harness import coverage
from nbvplan.mesh import load_mesh, sample_surface_points, save_obj
from nbvplan.oracle import oracle_evaluate
from nbvplan.planner import (
    InfeasiblePartitionError,
    PartitionLedger,
    admissible_partitions,
    initialize,
    run_iteration,
    should_terminate,
)
from nbvplan.shapes import make_shape
from nbvplan.views import SamplingConfig, assign_partitions, sample_candidates, sampling_radius

from tracing import Recorder, patched

GOLDEN_ANGLE_DEG = 137.50776405003785
COVERAGE_TARGET = 0.95
ORACLE_SEGMENT = 16  # oracle candidates per timed segment on select


@dataclass(frozen=True)
class Size:
    """Problem size; `FULL` is the benchmark, `SMOKE` its smoke test."""

    width: int
    height: int
    fx: float
    t_max: int           # scan/select; observe always fits one component
    scan_candidates: int
    scan_iterations: int
    observe_candidates: int
    observe_iterations: int
    snapshots: tuple[tuple[str, int], ...]  # (scene, iterations before the freeze)
    oracle_set: int      # fixed candidates per select snapshot ranked by the oracle
    oracle_stride: int
    setup_reps: int      # set-ups on scan/observe before the passes and after each
    snapshot_reps: int   # set-ups per run on select, which builds the snapshots
    min_passes: int      # passes per run at least, so every segment has repeats


FULL = Size(
    width=640, height=480, fx=580.0, t_max=10,
    scan_candidates=800, scan_iterations=2,
    observe_candidates=64, observe_iterations=3,
    snapshots=(("u_prism", 1), ("torus", 1), ("cube", 1)),
    oracle_set=80, oracle_stride=16,
    setup_reps=4, snapshot_reps=3, min_passes=3,
)
SMOKE = Size(
    width=160, height=120, fx=145.0, t_max=3,
    scan_candidates=16, scan_iterations=2,
    observe_candidates=16, observe_iterations=2,
    snapshots=(("u_prism", 1),),
    oracle_set=16, oracle_stride=16,
    setup_reps=2, snapshot_reps=2, min_passes=1,
)
SIZES = {"full": FULL, "smoke": SMOKE}

SCENES = {
    "scan": ("u_prism", "torus"),
    "observe": ("sphere", "l_prism", "torus"),
}


def make_config(workload: str, size: Size, seed: int) -> RunConfig:
    """The run config the program receives; the seed sets seed and azimuth.

    select's snapshots all start from azimuth 0.  They are one iteration
    old, and a seed-drawn start direction spread their coverage by an
    IQR/median of 0.15-0.34 over ten seeds; from one start it stays within
    0.52-0.64.  The seed still seeds the GMM fits, so the snapshots differ.

    select fits one component per voxel class (t_max=1).  With the default
    t_max=10 the seed-drawn BIC choice put 18-23 ellipsoids in front of each
    set of candidates, which moved scoring time by up to 30% from seed to
    seed, on top of the host's own noise.
    """
    azimuth = 0.0 if workload == "select" else (seed * GOLDEN_ANGLE_DEG) % 360.0
    common = dict(
        seed=seed,
        initial_azimuth_deg=azimuth,
        width=size.width, height=size.height, fx=size.fx, fy=size.fx,
    )
    if workload == "observe":
        return RunConfig(
            resolution=0.01, t_max=1, candidates=size.observe_candidates,
            iterations=size.observe_iterations, **common,
        )
    return RunConfig(
        t_max=1 if workload == "select" else size.t_max,
        candidates=size.scan_candidates, iterations=size.scan_iterations, **common,
    )


# ---- checks -----------------------------------------------------------------


class Checks:
    """Correctness failures collected during a run; any one fails the run."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 50:
            self.failures.append(message)


class FallbackLog(logging.Handler):
    """Counts the planner's own record of a partition fallback."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.fallbacks = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "partition constraint infeasible" in record.getMessage():
            self.fallbacks += 1


# ---- call-site wrapping -------------------------------------------------------


class Probes:
    """Counters and checks attached to wrapped calls."""

    def __init__(self, rec: Recorder, checks: Checks):
        self.rec = rec
        self.checks = checks
        self._refit_ts: list[int] = []

    def scored(self, args, kwargs, result):
        candidates = args[0]
        occupied, frontier = args[1], args[2]
        scores = np.array([v.score for v in candidates], dtype=float)
        self.checks.require(bool(np.isfinite(scores).all()), "non-finite projection score")
        self.rec.count("views.candidates", len(candidates))
        self.rec.count("projection.pairs", len(candidates) * (len(occupied) + len(frontier)))

    def integrated(self, args, kwargs, result):
        self.rec.count("voxel.rays", len(args[1].points))

    def components(self, args, kwargs, result):
        self._refit_ts.append(int(result[0]))

    def refitted(self, args, kwargs, result):
        # refit_all sweeps the Occupied class first, then Frontier if any.
        ts, self._refit_ts = self._refit_ts, []
        if ts:
            self.rec.count("ellipsoid.t_occupied_sum", ts[0])
            self.rec.count("ellipsoid.refits")
        if len(ts) > 1:
            self.rec.count("ellipsoid.t_frontier_sum", ts[1])
            self.rec.count("ellipsoid.frontier_refits")

    def gmm(self, args, kwargs, result):
        iters = len(result[0].ll_trace)
        self.rec.count("ellipsoid.em_iters", iters)
        self.rec.count("ellipsoid.em_cap_hits", int(iters >= EM_MAX_ITER))

    def mvee(self, args, kwargs, result):
        points = np.asarray(args[0], dtype=float).reshape(-1, 3)
        tol = kwargs.get("tol", 1e-3)
        self.rec.count("ellipsoid.mvee_points", len(points))
        worst = float(result.form(points).max())
        self.checks.require(
            worst <= 1.0 + tol + 1e-9, f"fit_mvee leaves a point outside: form {worst:.6g}"
        )


def call_site_wraps(rec: Recorder, probes: Probes, traced: bool) -> list:
    """Targets for `patched`: the clocks every run needs, plus layer spans when traced."""
    w = rec.wrapper
    targets = [
        (planner, "render_depth", w("render.depth")),
        (planner, "sample_candidates", w("views.sample")),
        (planner, "assign_partitions", w("views.sample")),
        (planner, "evaluate_all", w("projection.score", probes.scored)),
    ]
    if traced:
        targets += [
            (planner, "select_next_view", w("planner.select")),
            (planner, "preprocess_points", w("voxel.preprocess")),
            (planner, "integrate_observation", w("voxel.integrate", probes.integrated)),
            (planner, "update_bbox", w("voxel.bbox")),
            (planner, "update_frontier", w("voxel.frontier")),
            (planner, "refit_all", w("ellipsoid.refit", probes.refitted)),
            (ellipsoid, "select_components", w("ellipsoid.select", probes.components)),
            (ellipsoid, "fit_gmm", w("ellipsoid.gmm", probes.gmm)),
            (ellipsoid, "fit_mvee", w("ellipsoid.mvee", probes.mvee)),
        ]
    return targets


# ---- scenes, snapshots and fingerprints ----------------------------------------


@dataclass
class Scene:
    name: str
    mesh: object
    model_points: np.ndarray


@dataclass
class Snapshot:
    """A frozen mid-scan planner state and what the oracle says about it."""

    scene: str
    state: object                      # PlannerState, never advanced after the freeze
    model_points: np.ndarray
    coverages: list[float]
    fingerprint: str
    candidates: list = field(default_factory=list)   # fixed set for the oracle
    oracle: dict = field(default_factory=dict)       # candidate index -> visible frontier
    chosen: tuple | None = None                      # (partition, position) of the argmax


class Trajectory:
    """Digest of chosen partitions, positions (1e-9) and voxel counts per iteration."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, partition: int, position: np.ndarray, counts: dict) -> None:
        pos = " ".join(f"{v:.9f}" for v in np.round(position, 9))
        cnt = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        self._h.update(f"{partition}|{pos}|{cnt}\n".encode())

    def digest(self) -> str:
        return self._h.hexdigest()[:16]


def write_meshes(names, workdir: str) -> None:
    """The program's input files: one OBJ per builtin shape."""
    for name in names:
        save_obj(os.path.join(workdir, f"{name}.obj"), make_shape(name))


def load_scenes(names, cfg: RunConfig, workdir: str, rec: Recorder) -> dict[str, Scene]:
    scenes = {}
    for name in names:
        path = os.path.join(workdir, f"{name}.obj")
        with rec.span("mesh.load"):
            mesh = load_mesh(path)
        with rec.span("mesh.sample"):
            points = sample_surface_points(mesh, cfg.coverage_samples, seed=cfg.seed)
        scenes[name] = Scene(name, mesh, points)
    return scenes


def sampling_for(state, cfg: RunConfig, n_views: int):
    bbox = state.grid.bbox
    center = 0.5 * (bbox[0] + bbox[1])
    radius = sampling_radius(bbox, cfg.d_c)
    sampling = SamplingConfig(
        mode=cfg.mode, alpha=cfg.alpha, n_views=n_views, working_distance=cfg.d_c
    )
    return sampling, center, radius


def fixed_candidates(state, cfg: RunConfig, n_views: int) -> list:
    sampling, center, radius = sampling_for(state, cfg, n_views)
    return assign_partitions(sample_candidates(sampling, center, radius), cfg.beta)


def build_snapshot(scene: Scene, iterations: int, cfg: RunConfig, size: Size) -> Snapshot:
    state = initialize(scene.mesh, cfg)
    traj = Trajectory()
    covs = []
    for _ in range(iterations):
        chosen = run_iteration(state)
        covs.append(coverage(scene.model_points, state.acquired_points, cfg.coverage_threshold))
        traj.add(chosen.partition_index, chosen.position, state.grid.state_counts())
    return Snapshot(
        scene.name, state, scene.model_points, covs, traj.digest(),
        candidates=fixed_candidates(state, cfg, size.oracle_set),
    )


# ---- one pass -------------------------------------------------------------------


@dataclass
class Segment:
    """One piece of a pass, which every pass repeats with the same work."""

    wall: float = 0.0
    compute: float | None = None   # set on operations only
    view_s: float = 0.0            # sample + score time
    views: int = 0
    op: tuple | None = None        # operation the compute belongs to; default its own


def segment_medians(passes: list[PassResult]) -> dict[tuple, Segment]:
    """Each segment's median reading over the passes, field by field."""
    readings: dict[tuple, list[Segment]] = {}
    for p in passes:
        for key, seg in p.segments.items():
            readings.setdefault(key, []).append(seg)
    typical = {}
    for key, segs in readings.items():
        computes = [seg.compute for seg in segs if seg.compute is not None]
        typical[key] = Segment(
            wall=statistics.median(seg.wall for seg in segs),
            compute=statistics.median(computes) if computes else None,
            view_s=statistics.median(seg.view_s for seg in segs),
            views=segs[0].views,
            op=segs[0].op,
        )
    return typical


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0
    segments: dict[tuple, Segment] = field(default_factory=dict)
    ops: list[float] = field(default_factory=list)   # compute per operation
    program: list[float] = field(default_factory=list)  # IterationTiming.compute_s
    op_ids: list[int] = field(default_factory=list)

    @property
    def compute(self) -> float:
        return sum(self.ops)


@dataclass
class EpisodeResult:
    scene: str
    coverages: list[float]
    fingerprint: str


class Bench:
    """State shared by the passes of one run."""

    def __init__(self, workload: str, size: Size, seed: int, trace: bool):
        self.workload = workload
        self.size = size
        self.trace = trace
        self.cfg = make_config(workload, size, seed)
        self.checks = Checks()
        self.fallback_log = FallbackLog()
        self.attempted = 0
        self.failed = 0
        self.next_op = 0
        self.scenes: dict[str, Scene] = {}
        self.snapshots: list[Snapshot] = []
        self.episodes: dict[str, EpisodeResult] = {}   # first pass, per scene
        self.plain = Recorder(spans=False)
        self.traced = Recorder(spans=True)
        self.setup_rec = Recorder(spans=False)
        self.setup_durations: list[float] = []
        self._setup_digests: list[str] | None = None

    # -- set-up --

    def set_up(self, workdir: str) -> None:
        """Write the meshes, then run the set-up.

        select builds its snapshots `snapshot_reps` times here.  The cheap
        scan/observe set-up runs `setup_reps` times here and again after
        every pass (`repeat_set_up`), so its median spans the run, not the
        half-second a burst of set-ups takes.
        """
        self.workdir = workdir
        self.names = SCENES.get(self.workload) or tuple(s for s, _ in self.size.snapshots)
        write_meshes(self.names, workdir)
        self.repeat_set_up(
            self.size.snapshot_reps if self.workload == "select" else self.size.setup_reps
        )

    def repeat_set_up(self, reps: int) -> None:
        """Run the set-up `reps` times; keep the last and check that they all agree."""
        for _ in range(reps):
            t0 = time.perf_counter()
            scenes = load_scenes(self.names, self.cfg, self.workdir, self.setup_rec)
            snapshots = []
            if self.workload == "select":
                snapshots = [
                    build_snapshot(scenes[name], k, self.cfg, self.size)
                    for name, k in self.size.snapshots
                ]
            self.setup_durations.append(time.perf_counter() - t0)
            now = [s.fingerprint for s in snapshots]
            self.checks.require(
                self._setup_digests in (None, now), "set-up is not deterministic"
            )
            self._setup_digests = now
            self.scenes, self.snapshots = scenes, snapshots

    # -- scan / observe --

    def _op(self, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args), True
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, False

    def episode(self, scene: Scene, rec: Recorder, result: PassResult, first: bool) -> None:
        cfg = self.cfg
        t0 = time.perf_counter()
        state, ok = self._op(initialize, scene.mesh, cfg)
        result.segments[(scene.name, "init")] = Segment(wall=time.perf_counter() - t0)
        if not ok:
            return
        traj = Trajectory()
        covs: list[float] = []
        while not should_terminate(state):
            allowed = admissible_partitions(state.ledger)
            fallbacks = self.fallback_log.fallbacks
            op_id = self.next_op
            self.next_op += 1
            rec.op = op_id
            render0 = rec.total["render.depth"]
            iter0 = rec.total["planner.iteration"]
            view0 = rec.total["views.sample"] + rec.total["projection.score"]
            t0 = time.perf_counter()
            with rec.span("planner.iteration"):
                chosen, ok = self._op(run_iteration, state)
            rec.op = None
            if not ok:
                return
            elapsed = rec.total["planner.iteration"] - iter0
            compute = elapsed - (rec.total["render.depth"] - render0)
            result.ops.append(compute)
            result.op_ids.append(op_id)
            result.program.append(state.timings[-1].compute_s)
            seg = Segment(
                compute=compute,
                op=("iteration", len(covs)),
                view_s=rec.total["views.sample"] + rec.total["projection.score"] - view0,
                views=cfg.candidates,
            )
            result.segments[(scene.name, len(covs))] = seg
            fell_back = self.fallback_log.fallbacks > fallbacks
            if fell_back:
                rec.count("planner.partition_fallbacks")
            self.checks.require(
                chosen.partition_index in allowed or fell_back,
                f"{scene.name}: partition {chosen.partition_index} not admissible {sorted(allowed)}",
            )
            with rec.span("harness.coverage"):
                cov = coverage(scene.model_points, state.acquired_points, cfg.coverage_threshold)
            self.checks.require(0.0 <= cov <= 1.0, f"{scene.name}: coverage {cov} outside [0, 1]")
            self.checks.require(
                not covs or cov >= covs[-1], f"{scene.name}: coverage decreased to {cov}"
            )
            seg.wall = time.perf_counter() - t0
            covs.append(cov)
            traj.add(chosen.partition_index, chosen.position, state.grid.state_counts())
        final = state.grid.state_counts()
        if first:
            self.episodes[scene.name] = EpisodeResult(scene.name, covs, traj.digest())
        else:
            kept = self.episodes.get(scene.name)
            self.checks.require(
                kept is not None and kept.fingerprint == traj.digest(),
                f"{scene.name}: trajectory differs between passes",
            )
        rec.count("voxel.frontier_final", final["frontier"])
        rec.count("voxel.occupied_final", final["occupied"])
        rec.count("voxel.unknown_final", final["unknown"])

    def scan_pass(self, index: int, rec: Recorder, result: PassResult) -> None:
        for name in SCENES[self.workload]:
            self.episode(self.scenes[name], rec, result, first=index == 0)

    # -- select --

    def selection(self, snap: Snapshot, rec: Recorder, result: PassResult) -> float | None:
        """sample -> score -> argmax on a frozen snapshot, as run_iteration does it.

        Calls go through the names `nbvplan.planner` uses so the same
        call-site wraps time scan and select alike.  Returns the compute
        time, or None when the selection raised.
        """
        cfg = self.cfg
        state = snap.state
        view0 = rec.total["views.sample"] + rec.total["projection.score"]
        fallback = False

        def select():
            nonlocal fallback
            sampling, center, radius = sampling_for(state, cfg, cfg.candidates)
            cands = planner.sample_candidates(sampling, center, radius)
            planner.assign_partitions(cands, cfg.beta)
            planner.evaluate_all(cands, state.e_o, state.e_f, cfg.intrinsics())
            ledger = PartitionLedger(beta=cfg.beta, scanned=set(state.ledger.scanned))
            try:
                return planner.select_next_view(cands, ledger, iteration=state.iteration)
            except InfeasiblePartitionError:
                fallback = True
                ledger.scanned = set(range(cfg.beta))
                return planner.select_next_view(cands, ledger, iteration=state.iteration)

        allowed = admissible_partitions(state.ledger)
        select0 = rec.total["planner.selection"]
        with rec.span("planner.selection"):
            chosen, ok = self._op(select)
        if not ok:
            return None
        compute = rec.total["planner.selection"] - select0
        result.segments[(snap.scene, "select")] = Segment(
            wall=compute,
            compute=compute,
            op=("round",),
            view_s=rec.total["views.sample"] + rec.total["projection.score"] - view0,
            views=cfg.candidates,
        )
        if fallback:
            rec.count("planner.partition_fallbacks")
        self.checks.require(
            chosen.partition_index in allowed or fallback,
            f"{snap.scene}: partition {chosen.partition_index} not admissible {sorted(allowed)}",
        )
        key = (chosen.partition_index, tuple(np.round(chosen.position, 9)))
        self.checks.require(snap.chosen in (None, key), f"{snap.scene}: selection not repeatable")
        snap.chosen = key
        return compute

    def oracle_rank(self, snap: Snapshot, rec: Recorder, result: PassResult) -> None:
        """Rank the snapshot's fixed candidate set, timed in segments of ORACLE_SEGMENT."""
        cfg = self.cfg
        n = len(snap.candidates)
        for lo in range(0, n, ORACLE_SEGMENT):
            t0 = time.perf_counter()
            for i in range(lo, min(lo + ORACLE_SEGMENT, n)):
                with rec.span("oracle.evaluate"):
                    score = oracle_evaluate(
                        snap.candidates[i], snap.state.grid, cfg.intrinsics(),
                        self.size.oracle_stride,
                    )
                rec.count("oracle.rays", score.rays_cast)
                counts = (score.visible_frontier, score.visible_occupied)
                self.checks.require(
                    bool(np.isfinite(counts).all()) and min(counts) >= 0,
                    f"{snap.scene}: bad oracle count {counts}",
                )
                self.checks.require(
                    snap.oracle.get(i, score.visible_frontier) == score.visible_frontier,
                    f"{snap.scene}: oracle not repeatable",
                )
                snap.oracle[i] = score.visible_frontier
            result.segments[(snap.scene, "oracle", lo)] = Segment(wall=time.perf_counter() - t0)

    def select_pass(self, index: int, rec: Recorder, result: PassResult) -> None:
        op_id = self.next_op
        self.next_op += 1
        spent = []
        for snap in self.snapshots:
            rec.op = op_id
            spent.append(self.selection(snap, rec, result))
            rec.op = None
            self.oracle_rank(snap, rec, result)
            t0 = time.perf_counter()
            with rec.span("harness.coverage"):
                cov = coverage(
                    snap.model_points, snap.state.acquired_points, self.cfg.coverage_threshold
                )
            result.segments[(snap.scene, "coverage")] = Segment(wall=time.perf_counter() - t0)
            self.checks.require(cov == snap.coverages[-1], f"{snap.scene}: coverage changed")
            counts = snap.state.grid.state_counts()
            rec.count("voxel.frontier_final", counts["frontier"])
            rec.count("voxel.occupied_final", counts["occupied"])
            rec.count("voxel.unknown_final", counts["unknown"])
        if None not in spent:
            result.ops.append(sum(spent))
            result.op_ids.append(op_id)

    # -- the timed section --

    def run_pass(self, index: int, traced: bool) -> PassResult:
        rec = self.traced if traced else self.plain
        result = PassResult(traced=traced)
        probes = Probes(rec, self.checks)
        body = self.select_pass if self.workload == "select" else self.scan_pass
        t0 = time.perf_counter()
        with patched(call_site_wraps(rec, probes, traced)):
            body(index, rec, result)
        result.wall = time.perf_counter() - t0
        return result

    def timed(self, seconds: float) -> list[PassResult]:
        """Passes while another fits in `seconds`, at least `min_passes` (2 when traced).

        Traced runs alternate plain and traced passes, starting plain.
        """
        min_passes = max(self.size.min_passes, 2 if self.trace else 1)
        passes: list[PassResult] = []
        start = time.perf_counter()
        while True:
            index = len(passes)
            passes.append(self.run_pass(index, traced=self.trace and index % 2 == 1))
            if self.workload != "select":
                self.repeat_set_up(self.size.setup_reps)
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
                return passes


# ---- quality ----------------------------------------------------------------------


def oracle_agreement(snap: Snapshot, cfg: RunConfig) -> tuple[float, float]:
    """(Spearman rho of F vs oracle visible frontier, top-1 regret fraction)."""
    cands = snap.candidates
    planner.evaluate_all(cands, snap.state.e_o, snap.state.e_f, cfg.intrinsics())
    f = np.array([v.score for v in cands], dtype=float)
    oracle = np.array([snap.oracle[i] for i in range(len(cands))], dtype=float)
    rho = float(spearmanr(f, oracle).statistic)
    best = oracle.max()
    regret = float((best - oracle[int(np.argmax(f))]) / best) if best > 0 else 0.0
    return rho, regret


def coverage_quality(curves: list[list[float]], budgets: list[int]):
    """(mean AUC, mean final coverage, mean iterations to 95%) over scenes."""
    aucs, finals, reach = [], [], []
    for covs, budget in zip(curves, budgets):
        padded = covs + [covs[-1]] * (budget - len(covs))
        aucs.append(float(np.mean(padded)))
        finals.append(padded[-1])
        hit = [i + 1 for i, c in enumerate(padded) if c >= COVERAGE_TARGET]
        reach.append(hit[0] if hit else budget + 1)
    return float(np.mean(aucs)), float(np.mean(finals)), float(np.mean(reach))


# ---- metrics ------------------------------------------------------------------------


def layer_metrics(bench: Bench, n: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes, per pass unless a rate or mean."""
    rec = bench.traced
    t, c = rec.total, rec.counts
    op_self = sum(
        own for sp, own in zip(rec.spans, rec.own_times())
        if sp.name in ("planner.iteration", "planner.selection")
    )

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    setup = bench.setup_rec
    reps = setup.calls["mesh.load"] / len(bench.scenes)
    return {
        "render.s": (t["render.depth"] / n, "s"),
        "render.frames": (rec.calls["render.depth"] / n, "count"),
        "voxel.preprocess_s": (t["voxel.preprocess"] / n, "s"),
        "voxel.integrate_s": (t["voxel.integrate"] / n, "s"),
        "voxel.rays": (c["voxel.rays"] / n, "count"),
        "voxel.rays_per_s": (rate(c["voxel.rays"], t["voxel.integrate"]), "1/s"),
        "voxel.bbox_s": (t["voxel.bbox"] / n, "s"),
        "voxel.frontier_s": (t["voxel.frontier"] / n, "s"),
        "voxel.frontier_final": (c["voxel.frontier_final"] / n, "voxels"),
        "voxel.occupied_final": (c["voxel.occupied_final"] / n, "voxels"),
        "voxel.unknown_final": (c["voxel.unknown_final"] / n, "voxels"),
        "ellipsoid.refit_s": (t["ellipsoid.refit"] / n, "s"),
        "ellipsoid.gmm_s": (t["ellipsoid.gmm"] / n, "s"),
        "ellipsoid.em_fits": (rec.calls["ellipsoid.gmm"] / n, "count"),
        "ellipsoid.em_iters": (c["ellipsoid.em_iters"] / n, "count"),
        "ellipsoid.em_cap_hits": (c["ellipsoid.em_cap_hits"] / n, "count"),
        "ellipsoid.t_occupied": (
            rate(c["ellipsoid.t_occupied_sum"], c["ellipsoid.refits"]), "components"),
        "ellipsoid.t_frontier": (
            rate(c["ellipsoid.t_frontier_sum"], c["ellipsoid.frontier_refits"]), "components"),
        "ellipsoid.mvee_s": (t["ellipsoid.mvee"] / n, "s"),
        "ellipsoid.mvee_fits": (rec.calls["ellipsoid.mvee"] / n, "count"),
        "ellipsoid.mvee_points": (c["ellipsoid.mvee_points"] / n, "count"),
        "views.sample_s": (t["views.sample"] / n, "s"),
        "views.candidates": (c["views.candidates"] / n, "count"),
        "projection.score_s": (t["projection.score"] / n, "s"),
        "projection.pairs": (c["projection.pairs"] / n, "count"),
        "projection.pairs_per_s": (rate(c["projection.pairs"], t["projection.score"]), "1/s"),
        "planner.select_s": (t["planner.select"] / n, "s"),
        "planner.self_s": (op_self / n, "s"),
        "planner.partition_fallbacks": (c["planner.partition_fallbacks"] / n, "count"),
        "oracle.s": (t["oracle.evaluate"] / n, "s"),
        "oracle.rays": (c["oracle.rays"] / n, "count"),
        "oracle.rays_per_s": (rate(c["oracle.rays"], t["oracle.evaluate"]), "1/s"),
        "harness.coverage_s": (t["harness.coverage"] / n, "s"),
        "mesh.load_s": (setup.total["mesh.load"] / reps, "s"),
        "mesh.sample_s": (setup.total["mesh.sample"] / reps, "s"),
    }


def layer_accounting(bench: Bench, traced: list[PassResult]) -> tuple[dict, float]:
    """Self time per layer inside operations, and its worst mismatch with op compute."""
    rec = bench.traced
    ops = {op: comp for p in traced for op, comp in zip(p.op_ids, p.ops)}
    by_op: dict[int, float] = {}
    layers: dict[str, float] = {}
    for sp, own in zip(rec.spans, rec.own_times()):
        if sp.op not in ops or sp.name == "render.depth":
            continue
        by_op[sp.op] = by_op.get(sp.op, 0.0) + own
        layer = sp.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    worst = max(
        (abs(by_op.get(op, 0.0) - comp) / comp for op, comp in ops.items() if comp > 0),
        default=0.0,
    )
    total = sum(ops.values())
    shares = {k: v / total for k, v in sorted(layers.items())} if total > 0 else {}
    return shares, worst


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name', '')} {deps[k].get('version', '')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {k: os.environ.get(k) for k in threads},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def pass_timings(passes: list[PassResult]) -> dict:
    """A typical pass: wall, compute, op computes and views/s from segment medians."""
    typical = segment_medians(passes)
    ops: dict[tuple, float] = {}
    for key, seg in typical.items():
        if seg.compute is not None:
            ops[seg.op or key] = ops.get(seg.op or key, 0.0) + seg.compute
    segs = typical.values()
    view_s = sum(seg.view_s for seg in segs)
    return {
        "wall": sum(seg.wall for seg in segs),
        "compute": sum(ops.values()),
        "ops": list(ops.values()),
        "views_per_s": sum(seg.views for seg in segs) / view_s if view_s > 0 else 0.0,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, size_name: str, seed: int, seconds: float, trace: bool, root: str):
    """Run one workload; returns (result line, info dict)."""
    size = SIZES[size_name]
    bench = Bench(workload, size, seed, trace)
    log = logging.getLogger("nbvplan")
    log.addHandler(bench.fallback_log)
    workdir = tempfile.mkdtemp(prefix=".nbvbench_work_", dir=root)
    try:
        bench.set_up(workdir)
        passes = bench.timed(seconds)
    finally:
        log.removeHandler(bench.fallback_log)
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    checks = bench.checks

    if workload == "select":
        snaps = bench.snapshots
        curves = [s.coverages for s in snaps]
        budgets = [k for _, k in size.snapshots]
        fingerprints = {s.scene: s.fingerprint for s in snaps}
    else:
        curves = [e.coverages for e in bench.episodes.values()]
        budgets = [bench.cfg.iterations] * len(curves)
        fingerprints = {e.scene: e.fingerprint for e in bench.episodes.values()}
    checks.require(bool(curves) and all(curves), "an episode produced no iterations")
    auc = final = reach = 0.0
    if curves and all(curves):
        auc, final, reach = coverage_quality(curves, budgets)
    checks.require(bench.failed == 0, f"{bench.failed} operations raised")

    typical = pass_timings(plain)
    metrics = {
        "setup_s": (_median(bench.setup_durations), "s"),
        "wall_s": (typical["wall"], "s"),
        "compute_s": (typical["compute"], "s"),
        "step_p50_s": (_median(typical["ops"]), "s"),
        "views_per_s": (typical["views_per_s"], "1/s"),
        "coverage_auc": (auc, "fraction"),
        "coverage_final": (final, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ops = [o for p in plain for o in p.ops]

    info = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "step_samples": len(typical["ops"]),
        "step_median_s": typical["ops"],
        "step_s": ops,
        "pass_median": {
            "wall_s": _median([p.wall for p in plain]),
            "compute_s": _median([p.compute for p in plain]),
        },
        "fingerprints": fingerprints,
        "iters_to_95": reach,
        "environment": environment(),
    }
    if workload == "select":
        agreement = {s.scene: oracle_agreement(s, bench.cfg) for s in bench.snapshots}
        for scene, (rho, _) in agreement.items():
            checks.require(bool(np.isfinite(rho)), f"{scene}: oracle Spearman rho is not finite")
        info["oracle_agreement"] = {
            "spearman": float(np.mean([a[0] for a in agreement.values()])),
            "top1_regret": float(np.mean([a[1] for a in agreement.values()])),
            "per_snapshot": agreement,
            "candidates": size.oracle_set,
            "stride": size.oracle_stride,
        }
    if len(ops) >= 20:
        # highest percentile with at least ten samples beyond it
        q = int(100 * (1 - 10 / len(ops)))
        info[f"step_p{q}_s"] = float(np.percentile(ops, q))
    program = [x for p in plain for x in p.program]
    if program:
        outside = sum(ops)
        info["program_clock_gap"] = {
            "outside_compute_s": outside,
            "program_compute_s": sum(program),
            "gap_frac": (outside - sum(program)) / outside,
        }
    if traced:
        n = len(traced)
        shares, worst = layer_accounting(bench, traced)
        checks.require(worst < 1e-6, f"layer self times miss op compute by {worst:.3g}")
        traced_compute = pass_timings(traced)["compute"]
        info["layer_self_share"] = shares
        untraced_compute = metrics["compute_s"][0]
        info["tracing_overhead"] = {
            "traced_compute_s": traced_compute,
            "untraced_compute_s": untraced_compute,
            "overhead_s": traced_compute - untraced_compute,
            "overhead_frac": (traced_compute - untraced_compute) / untraced_compute,
        }
        metrics = layer_metrics(bench, n)
    info["failures"] = checks.failures

    result = {
        "correct": not checks.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info
