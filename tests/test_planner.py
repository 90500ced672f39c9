import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from nbvplan import geometry, planner
from nbvplan import views as views_module
from nbvplan.config import RunConfig
from nbvplan.geometry import DepthFrame, Pose, look_at
from nbvplan.oracle import oracle_scores
from nbvplan.planner import (
    InfeasiblePartitionError,
    PartitionLedger,
    admissible_partitions,
    select_next_view,
    should_terminate,
)
from nbvplan.render import render_depth
from nbvplan.shapes import make_shape
from nbvplan.views import UP
from nbvplan.voxel import VoxelState, integrate_observation, traverse_rays, update_bbox, update_frontier

POSE = look_at([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def records(*partitions_and_scores):
    return [ref.CandidateView(pose=POSE, partition_index=p, score=s) for p, s in partitions_and_scores]


def views(*partitions_and_scores):
    return ref.stack(records(*partitions_and_scores))


# ---- admissible_partitions --------------------------------------------------


def test_empty_ledger_admits_every_sector():
    assert admissible_partitions(PartitionLedger(beta=5)) == {0, 1, 2, 3, 4}


@pytest.mark.parametrize(
    "scanned,admitted",
    [({0}, {1, 5}), ({5}, {0, 4}), ({2, 3}, {1, 4}), ({0, 5}, {1, 4}), ({0, 1, 2, 3, 4}, {5})],
)
def test_admits_unscanned_neighbours_mod_beta(scanned, admitted):
    assert admissible_partitions(PartitionLedger(beta=6, scanned=set(scanned))) == admitted


def test_full_ledger_admits_every_sector():
    assert admissible_partitions(PartitionLedger(beta=4, scanned={0, 1, 2, 3})) == {0, 1, 2, 3}


# ---- select_next_view -------------------------------------------------------


def test_ties_go_to_the_lower_index_and_the_sector_is_marked():
    ledger = PartitionLedger(beta=4, scanned={0})
    scored = views((0, 9.0), (1, 2.0), (3, 5.0), (1, 5.0), (2, 7.0))
    assert select_next_view(scored, ledger).index == 2
    assert ledger.scanned == {0, 3}


def test_raises_when_no_candidate_is_admissible():
    ledger = PartitionLedger(beta=4, scanned={0})
    with pytest.raises(InfeasiblePartitionError):
        select_next_view(views((0, 1.0), (2, 3.0)), ledger)
    assert ledger.scanned == {0}


def test_empty_candidate_list_is_an_error():
    with pytest.raises(ValueError):
        select_next_view(views(), PartitionLedger(beta=4))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", [0, 1])
def test_a_missing_or_non_finite_score_is_an_error(bad, position):
    """A NaN first admissible score used to win: `score > best` is never
    true against NaN.  A set holds a missing score as NaN."""
    scored = views((1, 1.0), (1, 2.0))
    scored.scores[position] = bad
    ledger = PartitionLedger(beta=4)
    with pytest.raises(ValueError, match="score"):
        select_next_view(scored, ledger)
    assert ledger.scanned == set()


def test_inadmissible_scores_are_not_checked():
    ledger = PartitionLedger(beta=4, scanned={0})
    scored = views((2, float("nan")), (1, 1.0))
    assert select_next_view(scored, ledger).index == 1


finite = st.sampled_from([0.0, 1.0, 2.5, -1.0]) | st.floats(-5.0, 5.0)  # ties are likely
unfit = st.sampled_from([None, float("nan"), float("inf"), float("-inf")])


def _outcome(select, scored, ledger):
    """(index chosen or None, error type, error text, sectors scanned afterwards)."""
    try:
        winner = select(scored, ledger)
    except (ValueError, InfeasiblePartitionError) as exc:
        return None, type(exc), str(exc), ledger.scanned
    return winner, None, None, ledger.scanned


@given(data=st.data(), beta=st.integers(1, 6), n=st.integers(1, 12), with_unfit=st.booleans())
@settings(max_examples=300, deadline=None)
def test_masked_argmax_matches_the_per_view_loop(data, beta, n, with_unfit):
    """On the set stacked from a list of records, the masked argmax picks
    the view the per-view loop picks, marks the same sector, and raises the
    same errors; a non-finite score outside the admissible sectors is
    ignored."""
    scores = data.draw(st.lists(finite | unfit if with_unfit else finite, min_size=n, max_size=n))
    partitions = data.draw(st.lists(st.integers(0, beta - 1), min_size=n, max_size=n))
    scanned = data.draw(st.sets(st.integers(0, beta - 1)))
    scored = records(*zip(partitions, scores))
    pick, error, text, marked = _outcome(ref.select_next_view, scored, PartitionLedger(beta, set(scanned)))
    want = None if pick is None else next(i for i, v in enumerate(scored) if v is pick)

    handle, *rest = _outcome(select_next_view, ref.stack(scored), PartitionLedger(beta, set(scanned)))
    assert (None if handle is None else handle.index) == want
    assert rest[0] is error and rest[2] == marked
    if error is ValueError:  # a missing score is NaN in a set
        assert rest[1] == text.replace("None", "nan")


# ---- should_terminate -------------------------------------------------------


def test_terminates_once_the_budget_is_spent():
    state = planner.PlannerState(config=RunConfig(iterations=3), grid=None, mesh=None)
    for iteration in range(3):
        state.iteration = iteration
        assert not should_terminate(state)
    state.iteration = 3
    assert should_terminate(state)


def test_an_empty_frontier_does_not_stop_the_run():
    """ROADMAP item 6: on the cube seen from azimuth 0 the first frame leaves
    no Frontier voxel, as the Occupied face parts the Empty layer in front
    from the Unknown one behind.  The run still takes every view."""
    config = RunConfig(evaluator="random", seed=3, initial_azimuth_deg=0.0, iterations=3)
    state = planner.initialize(make_shape("cube"), config)
    assert state.grid.state_counts()["frontier"] == 0 and state.e_f == []
    while not should_terminate(state):
        planner.run_iteration(state)
    assert state.iteration == 3


# ---- refit -------------------------------------------------------------------


def test_a_refit_of_unchanged_voxels_gives_the_same_ellipsoids():
    """The refit seed does not depend on the iteration (ROADMAP item 9)."""
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=64)
    state = planner.initialize(make_shape("u_prism"), config)
    counts, first = (len(state.e_o), len(state.e_f)), state.e_o + state.e_f
    state.iteration = 1
    planner._refit(state)
    assert (len(state.e_o), len(state.e_f)) == counts
    for a, b in zip(state.e_o + state.e_f, first):
        assert np.array_equal(a.center, b.center) and np.array_equal(a.shape, b.shape)


# ---- observation -------------------------------------------------------------


def test_observe_drops_points_outside_the_grid(monkeypatch):
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=16, t_max=1)
    state = planner.initialize(make_shape("cube"), config)
    lo, hi = state.grid.span
    inside = np.array([lo + 0.1, 0.5 * (lo + hi), hi - 0.1, hi])  # the upper face counts
    outside = np.array([lo - 0.01, hi + [0.0, 0.0, 0.01], [hi[0] + 1.0, 0.0, 0.0]])
    frame_points = np.vstack([outside[:1], inside[:2], outside[1:], inside[2:]])
    monkeypatch.setattr(planner, "frame_to_points", lambda frame: frame_points)
    n_chunks = len(state.point_chunks)

    obs, _ = planner._observe(state, POSE, frame_seed=1)
    assert len(state.point_chunks) == n_chunks + 1
    np.testing.assert_array_equal(state.point_chunks[-1], inside)
    np.testing.assert_array_equal(obs.points, inside)

    monkeypatch.setattr(planner, "frame_to_points", lambda frame: outside)
    assert planner._observe(state, POSE, frame_seed=2)[0] is None
    assert len(state.point_chunks) == n_chunks + 1


def test_observe_keeps_points_on_the_span_faces(monkeypatch):
    """A point exactly on any face of the grid span is kept; the same point
    one float step outside that face is dropped."""
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=16, t_max=1)
    state = planner.initialize(make_shape("cube"), config)
    lo, hi = state.grid.span
    on_face, beyond = [], []
    for axis in range(3):
        for face, away in ((lo, -np.inf), (hi, np.inf)):
            point = 0.5 * (lo + hi)
            point[axis] = face[axis]
            on_face.append(point.copy())
            point[axis] = np.nextafter(face[axis], away)
            beyond.append(point)
    frame_points = np.array([p for pair in zip(beyond, on_face) for p in pair])
    monkeypatch.setattr(planner, "frame_to_points", lambda frame: frame_points)

    planner._observe(state, POSE, frame_seed=1)
    np.testing.assert_array_equal(state.point_chunks[-1], on_face)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 60),
    on_faces=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_crop_matches_one_test_over_all_columns(seed, n, on_faces):
    """The per-column crop keeps the rows, in order, that one `np.all` over
    the (N, 3) comparisons keeps, for points inside, outside, on the faces
    and one float step beyond them."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 0.0, 3)
    hi = lo + rng.uniform(0.0, 2.0, 3)
    points = rng.uniform(lo - 0.5, hi + 0.5, (n, 3))
    face = rng.random((n, 3)) < on_faces
    points[face] = np.where(rng.random((n, 3)) < 0.5, lo, hi)[face]
    step = rng.random((n, 3)) < 0.3
    points[step] = np.nextafter(points, rng.choice([-np.inf, np.inf], (n, 3)))[step]
    got = planner._crop(points, lo, hi)
    assert np.array_equal(got, ref.crop_all(points, lo, hi))


# ---- run_iteration ----------------------------------------------------------


def _first_step(evaluator: str, monkeypatch):
    """One tiny iteration with `scanned={0}`; returns the scored candidates,
    the admissible sectors, the oracle's visible-frontier array at selection
    time and the view."""
    config = RunConfig(
        width=160, height=120, fx=145.0, fy=145.0, candidates=16, t_max=1, evaluator=evaluator
    )
    state = planner.initialize(make_shape("u_prism"), config)
    state.ledger.scanned = {0}
    real_select = planner.select_next_view
    seen = []

    def recording_select(scored, ledger, iteration=0):
        visible_frontier, _ = oracle_scores(
            scored.rotations, scored.positions, state.grid, config.intrinsics(), config.stride
        )
        seen.append((scored, admissible_partitions(ledger), visible_frontier))
        return real_select(scored, ledger, iteration)

    monkeypatch.setattr(planner, "select_next_view", recording_select)
    chosen = planner.run_iteration(state)
    assert len(seen) == 1
    return (*seen[0], chosen)


@pytest.mark.parametrize("evaluator", ["oracle", "random"])
def test_oracle_and_random_evaluators_choose_the_admissible_argmax(evaluator, monkeypatch):
    scored, allowed, oracle, chosen = _first_step(evaluator, monkeypatch)
    scores = [v.score for v in scored]
    assert len(scores) == 16 and all(np.isfinite(scores))
    assert allowed == {1, 3}
    admissible = [v for v in scored if v.partition_index in allowed]
    assert chosen.index == max(admissible, key=lambda v: v.score).index

    again = [v.score for v in _first_step(evaluator, monkeypatch)[0]]
    assert again == scores  # both evaluators repeat for the same (seed, iteration)
    if evaluator == "oracle":
        assert scores == [float(s) for s in oracle] and max(scores) > 0
    else:
        assert scores == np.random.default_rng((7, 0)).random(16).tolist()
        assert len(set(scores)) == 16


def test_infeasible_partition_falls_back_to_every_sector(monkeypatch, caplog):
    """The warning text is counted by the benchmark's fallback probe."""
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=16, t_max=1, iterations=2)
    state = planner.initialize(make_shape("cube"), config)
    real = planner.candidate_views

    def one_sector(state):
        candidates = real(state)
        candidates.partition[:] = 0
        return candidates

    monkeypatch.setattr(planner, "candidate_views", one_sector)
    state.ledger.scanned = {2}
    with caplog.at_level(logging.WARNING, logger="nbvplan"):
        chosen = planner.run_iteration(state)
    assert chosen.partition_index == 0
    assert state.ledger.scanned == {0, 1, 2, 3}
    assert any(
        "partition constraint infeasible" in r.getMessage() for r in caplog.records
    )
    assert np.isfinite(chosen.score) and state.iteration == 1


def test_selection_builds_no_per_candidate_objects(monkeypatch):
    """Sampling, scoring and the argmax build no `Pose`; an iteration
    builds one `Pose`, the winner's."""
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=64, t_max=1)
    state = planner.initialize(make_shape("u_prism"), config)
    built = []
    checked_pose, post_init = geometry._checked_pose, Pose.__post_init__

    def counting_checked_pose(rotation, translation):
        built.append(translation)
        return checked_pose(rotation, translation)

    def counting_post_init(pose):
        built.append(pose.translation)
        post_init(pose)

    monkeypatch.setattr(geometry, "_checked_pose", counting_checked_pose)
    monkeypatch.setattr(views_module, "_checked_pose", counting_checked_pose)
    monkeypatch.setattr(Pose, "__post_init__", counting_post_init)

    candidates = planner.candidate_views(state)
    planner.evaluate_all(candidates, state.e_o, state.e_f, config.intrinsics())
    ledger = PartitionLedger(beta=config.beta, scanned=set(state.ledger.scanned))
    planner.select_next_view(candidates, ledger)
    assert len(candidates) == 64 and built == []

    chosen = planner.run_iteration(state)
    assert len(built) == 1 and np.array_equal(built[0], chosen.position)


def test_an_all_miss_iteration_leaves_the_grid_and_refits(monkeypatch, caplog):
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=16, t_max=1, iterations=2)
    state = planner.initialize(make_shape("cube"), config)
    states, bbox, chunks = state.grid.states.copy(), state.grid.bbox, list(state.point_chunks)
    real_refit = planner.refit_all
    refits = []

    def counting_refit(*args, **kwargs):
        refits.append(real_refit(*args, **kwargs))
        return refits[-1]

    def all_miss(mesh, pose, intrinsics, **kwargs):
        return DepthFrame(np.full((intrinsics.height, intrinsics.width), np.inf), pose, intrinsics)

    monkeypatch.setattr(planner, "refit_all", counting_refit)
    monkeypatch.setattr(planner, "render_depth", all_miss)
    with caplog.at_level(logging.WARNING, logger="nbvplan"):
        planner.run_iteration(state)
    assert any(r.getMessage() == "all-miss observation at iteration 0" for r in caplog.records)
    assert np.array_equal(state.grid.states, states)
    assert state.grid.bbox is bbox
    assert len(state.point_chunks) == len(chunks)
    assert all(a is b for a, b in zip(state.point_chunks, chunks))
    assert len(refits) == 1 and state.e_o is refits[0][0] and state.e_f is refits[0][1]
    assert state.iteration == 1 and len(state.timings) == 1


# ---- ROADMAP item 2: free space from no-return pixels, a frontier that drains --


def _crossings(grid, origin, deltas):
    """How many of the segments from `origin` by each row of `deltas` cross each voxel."""
    counts = np.zeros(grid.n_voxels, dtype=int)
    for _, flat, valid in traverse_rays(grid, origin, deltas, 1.0):
        counts += np.bincount(flat[valid], minlength=grid.n_voxels)
    return counts


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: no-return pixels are not integrated as free-space rays",
)
def test_a_no_return_ray_of_the_opposite_view_empties_a_shadow_voxel():
    """Take the voxel outside the sphere that the first frame left Unknown,
    that no return ray of the opposite view crosses, and that the most of
    that view's no-return pixel rays cross: once the view is integrated, it
    should be Empty."""
    config = RunConfig(t_max=1, candidates=64)
    mesh = make_shape("sphere")
    state = planner.initialize(mesh, config)
    grid = state.grid
    polar = np.deg2rad(config.initial_polar_deg)
    opposite = -(config.d_c + 0.15) * np.array([np.sin(polar), 0.0, np.cos(polar)])
    pose = look_at(opposite, np.zeros(3), UP)

    frame = render_depth(mesh, pose, config.intrinsics())
    rays = config.intrinsics().pixel_rays(*np.indices(frame.depths.shape)) @ pose.rotation.T
    hit = frame.hit_mask
    misses = _crossings(grid, pose.translation, rays[~hit] * config.max_range)
    returns = _crossings(grid, pose.translation, rays[hit] * frame.depths[hit][:, None])
    centers = grid.voxel_centers(grid.unflat(np.arange(grid.n_voxels)))
    outside = np.linalg.norm(centers, axis=1) > 0.15 + grid.resolution  # the sphere's radius is 0.15
    shadow = np.flatnonzero((grid.states == VoxelState.UNKNOWN) & outside & (returns == 0) & (misses > 0))
    center = centers[shadow[np.argmax(misses[shadow])]]

    obs, _ = planner._observe(state, pose, frame_seed=1)
    integrate_observation(state.grid, obs)
    update_bbox(state.grid)
    update_frontier(state.grid)
    grid = state.grid  # integration may have grown the grid
    assert grid.states[grid.flat_index(grid.voxel_of(center[None]))[0]] == VoxelState.EMPTY


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: a Frontier shell remains at the end of a sphere run",
)
def test_a_sphere_run_ends_with_no_frontier():
    """At 3 cm, t_max=1 and 64 candidates, 108 Frontier voxels remain after
    the 10 iterations today."""
    state = planner.initialize(make_shape("sphere"), RunConfig(t_max=1, candidates=64))
    while not should_terminate(state):
        planner.run_iteration(state)
    assert state.grid.state_counts()["frontier"] == 0
