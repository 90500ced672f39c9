"""Pinned voxel states and oracle counts: ray traversal must not move them.

The expected values were recorded from the per-step batch walk that
preceded the array traversal, and re-recorded once each voxel cluster's
ellipsoid was its moment ellipsoid: that changes the view the one planner
iteration chooses, and so the states it integrates.  Each case initializes a 1 cm grid on a
builtin shape with a small camera, runs one planner iteration, and pins a
digest of every voxel state and the ray-casting oracle's counts for 8 fixed
views at stride 4.
"""

import hashlib

import numpy as np
import pytest

from nbvplan.config import RunConfig
from nbvplan.geometry import look_at
from nbvplan.oracle import oracle_evaluate
from nbvplan.planner import initialize, run_iteration
from nbvplan.shapes import make_shape
from scalar_reference import CandidateView

# shape -> (sha256 of dims + states, [(visible_frontier, visible_occupied)] * 8)
PINNED = {
    "u_prism": (
        "81bddb4eda273fb6908112185c97121d70520f6735bd150241609ab09572ae11",
        [(11, 427), (46, 422), (49, 391), (61, 291), (20, 330), (145, 295), (111, 362), (251, 398)],
    ),
    "torus": (
        "0f44f5c51f75d3a2a94bc265bb0a9f82d396e8b2f4f9d4dabb07314da00ce173",
        [(86, 261), (224, 272), (291, 268), (162, 263), (87, 236), (199, 221), (225, 210), (144, 228)],
    ),
}


def fixed_views():
    """8 views at 0.5 m around the origin: two rings of four azimuths."""
    views = []
    for polar in (np.deg2rad(50.0), np.deg2rad(115.0)):
        for azimuth in np.deg2rad([20.0, 110.0, 200.0, 290.0]):
            position = 0.5 * np.array(
                [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
            )
            pose = look_at(position, np.zeros(3), np.array([0.0, 0.0, 1.0]))
            views.append(CandidateView(pose=pose, azimuth=azimuth))
    return views


def states_digest(grid) -> str:
    h = hashlib.sha256(np.asarray(grid.dims, dtype=np.int64).tobytes())
    h.update(grid.states.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_states_and_oracle_counts_pinned(shape):
    config = RunConfig(
        resolution=0.01, width=160, height=120, fx=145.0, fy=145.0,
        candidates=64, t_max=1, iterations=1, seed=7,
    )
    state = initialize(make_shape(shape), config)
    run_iteration(state)
    digest, counts = PINNED[shape]
    assert states_digest(state.grid) == digest
    got = [
        (s.visible_frontier, s.visible_occupied)
        for s in (oracle_evaluate(v, state.grid, config.intrinsics(), stride=4) for v in fixed_views())
    ]
    assert got == counts
