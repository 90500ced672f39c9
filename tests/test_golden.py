"""Golden end-to-end runs: the planner must keep choosing the same views.

The expected values were recorded once each voxel cluster's ellipsoid was
its moment ellipsoid, scaled to enclose the cluster (before, the
minimum-volume enclosing ellipsoid).  A change that
alters any chosen view, voxel count, ellipsoid count or coverage on these
runs changes the planner's behaviour and must say so.
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
        (1, 0, (0.301509741594017, 0.024146153770145833, -0.7919916515095913), (464, 195, 1549, 43), 2, 3, 0.4958),
        (2, 1, (-0.47211484815995497, 0.7042655029479176, -0.5646641645291256), (796, 295, 1366, 22), 3, 3, 0.7348),
        (3, 2, (-0.9910236134031558, -0.3209560661644325, 0.053504488425006075), (1241, 371, 1220, 44), 3, 3, 0.8307),
    ],
    "torus": [
        (1, 1, (-0.3203769880531244, 0.16747276658576046, -0.9032444252816223), (647, 178, 1054, 66), 1, 3, 0.7592),
        (2, 0, (0.6400354144639283, 0.12049493317996912, -0.25054810181263676), (709, 181, 1573, 72), 1, 3, 0.7842),
        (3, 2, (-0.6885678831119822, -0.09707695334877671, 0.6091232093387859), (850, 197, 1674, 86), 1, 3, 0.9425),
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
