"""Golden end-to-end runs: the planner must keep choosing the same views.

The expected values were recorded from the seed implementation.  A change
that alters any chosen view, voxel count, ellipsoid count or coverage on
these runs changes the planner's behaviour and must say so.
"""

import csv

import numpy as np
import pytest

from nbvplan.config import RunConfig
from nbvplan.harness import run

# (iteration, partition, position, (n_empty, n_occupied, n_unknown, n_frontier),
#  n_eo, n_ef, coverage)
GOLDEN = {
    "u_prism": [
        (1, 0, (0.301509741594017, 0.024146153770145833, -0.7919916515095913), (464, 195, 1549, 43), 2, 2, 0.4958),
        (2, 1, (-0.8750363664488382, 0.5412043569490034, 0.052250000642021205), (813, 273, 1324, 42), 3, 2, 0.702),
        (3, 2, (-0.9910236134031558, -0.3209560661644325, 0.053504488425006075), (1319, 349, 1235, 73), 3, 3, 0.7502),
    ],
    "torus": [
        (1, 2, (-0.48006038768056325, -0.761280955384282, -0.26868611691840605), (342, 173, 1255, 55), 1, 3, 0.6563),
        (2, 3, (0.5141427401280123, -0.1706337969015917, 0.356715642833461), (414, 173, 1441, 52), 1, 2, 0.6776),
        (3, 0, (-0.14772955699946633, 0.4973161674733585, 0.5965015968036068), (508, 193, 1816, 70), 2, 3, 0.8112),
    ],
}

RECORDS_HEADER = [
    "iteration", "coverage", "compute_time_s", "pos_x", "pos_y", "pos_z",
    "partition", "n_empty", "n_occupied", "n_unknown", "n_frontier", "n_eo", "n_ef",
]


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_golden_trajectory(shape, mesh_dir, tmp_path):
    config = RunConfig(
        mesh=str(mesh_dir / f"{shape}.obj"), width=160, height=120, fx=145.0, fy=145.0,
        candidates=64, t_max=3, iterations=3, seed=7, out=str(tmp_path),
    )
    records, _ = run(config)
    assert len(records) == len(GOLDEN[shape])
    for rec, (it, part, pos, counts, n_eo, n_ef, cov) in zip(records, GOLDEN[shape]):
        assert rec.iteration == it
        assert rec.partition == part
        np.testing.assert_allclose(rec.pos, pos, rtol=0, atol=1e-9)
        assert (rec.n_empty, rec.n_occupied, rec.n_unknown, rec.n_frontier) == counts
        assert (rec.n_eo, rec.n_ef) == (n_eo, n_ef)
        assert rec.coverage == pytest.approx(cov, abs=1e-12)
        assert rec.compute_time_s > 0

    with open(tmp_path / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RECORDS_HEADER
    assert [int(r[6]) for r in rows[1:]] == [g[1] for g in GOLDEN[shape]]
