"""Pinned view scores: F must not move when the scorer is rewritten.

The expected values were recorded from the per-pair scorer that preceded the
batched one, except the two cases whose silhouette crosses the image border
(`crosses_one_edge`, `spans_both_edges`): they were re-recorded when the
256-gon clip gave way to the exact ellipse-image area, which is larger by
at most the polygon's deficit, 1.004e-4 pi a b.  They cover a 40-view scene with 6 occupied and 5 frontier
ellipsoids, and hand-placed (view, ellipsoid) pairs for each case the scorer
distinguishes.  Scores are compared to within 1e-9 of the largest |F|.
"""

import numpy as np
import pytest

from nbvplan.ellipsoid import Ellipsoid
from nbvplan.geometry import CameraIntrinsics, Pose, look_at
from nbvplan.projection import evaluate_all
from scalar_reference import CandidateView, stack

INTRINSICS = CameraIntrinsics(
    fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
    max_range=5.0,
)

SCENE_F = [
    871.0594465839133,
    121.88684200768421,
    692.3545370353161,
    884.2573924851974,
    785.4906128969137,
    1670.969205218001,
    913.2987934414427,
    902.6094332155488,
    530.5387050380298,
    366.0475458606089,
    -298.57428537388176,
    381.7839852257184,
    3513.0778671959647,
    -151.51302319277414,
    1024.0603784396683,
    274.741997498816,
    649.81533409541,
    633.9403851035224,
    1308.1954031138441,
    1355.1641292441682,
    -1545.863813043492,
    818.206919703065,
    1251.545603017009,
    3787.200772470322,
    1154.0374272958957,
    370.2094286755399,
    -173.0138837091196,
    -5624.582431042864,
    454.9658840607307,
    1237.6992803056237,
    636.7444606895184,
    426.6238635488953,
    516.1993557377621,
    553.9334007242101,
    103.40130706206878,
    334.86020647477426,
    507.41678198782375,
    341.63052732883875,
    1379.9939541747833,
    1604.5368726104039,
]

# name -> (occupied [(center, semi-axes)], frontier [...], expected F),
# all seen by a camera at the origin looking along +z.
CASES = {
    "fully_inside": (
        [],
        [((0.05, -0.04, 0.8), (0.08, 0.08, 0.08))],
        7958.941471033334,
    ),
    "crosses_one_edge": (
        [((0.6, 0.0, 1.0), (0.1, 0.1, 0.1))],
        [],
        -6265.329184961134,
    ),
    "spans_both_edges": (
        [],
        [((0.0, 0.0, 1.0), (1.5, 0.1, 0.1))],
        62334.40887719596,
    ),
    "fully_outside": (
        [],
        [((5.0, 0.0, 1.0), (0.05, 0.05, 0.05))],
        0.0,
    ),
    "centre_behind_camera": (
        [],
        [((0.0, 0.0, -1.0), (0.1, 0.1, 0.1))],
        0.0,
    ),
    "camera_inside": (
        [],
        [((0.0, 0.0, 0.05), (0.5, 0.5, 0.5))],
        0.0,
    ),
    "equal_depth_tie": (
        [((-0.2, 0.0, 1.0), (0.1, 0.1, 0.1))],
        [((0.2, 0.0, 1.0), (0.12, 0.12, 0.12))],
        -2239.241830496492,
    ),
    "behind_camera_keeps_rank": (
        [((0.0, 0.0, -1.0), (0.1, 0.1, 0.1))],
        [((0.05, -0.04, 0.8), (0.08, 0.08, 0.08))],
        3979.470735516667,
    ),
}


def _ellipsoid(center, axes):
    return Ellipsoid(
        center=np.asarray(center, dtype=float),
        shape=np.diag(1.0 / np.asarray(axes, dtype=float) ** 2),
        member_count=1,
    )


def _view(pose):
    return CandidateView(pose=pose)


def _scores(views, occupied, frontier):
    return evaluate_all(stack(views), occupied, frontier, INTRINSICS)


def scene():
    rng = np.random.default_rng(3)
    occ = [_ellipsoid(rng.normal(scale=0.1, size=3), [0.05] * 3) for i in range(6)]
    fr = [_ellipsoid(rng.normal(scale=0.1, size=3), [0.07] * 3) for i in range(5)]
    positions = rng.normal(scale=1.0, size=(40, 3)) + [0, 0, 2.0]
    views = [_view(look_at(p, [0, 0, 0], [0, 0, 1])) for p in positions]
    return views, occ, fr


def case_scores(name):
    occ_spec, fr_spec, _ = CASES[name]
    occ = [_ellipsoid(c, a) for c, a in occ_spec]
    fr = [_ellipsoid(c, a) for c, a in fr_spec]
    view = _view(Pose(rotation=np.eye(3), translation=np.zeros(3)))
    return _scores([view], occ, fr)[0]


def test_scene_scores_pinned():
    expected = np.array(SCENE_F)
    got = _scores(*scene())
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9 * np.abs(expected).max())


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_score_pinned(name):
    expected = CASES[name][2]
    scale = max(abs(CASES[n][2]) for n in CASES)
    assert case_scores(name) == pytest.approx(expected, rel=0, abs=1e-9 * scale)
