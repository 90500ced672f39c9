"""Projection-based next-best-view planning with a desk-scale scan simulator.

Pipeline: render synthetic depth frames, classify voxels (empty / occupied /
unknown / frontier) inside an adaptive bounding box, cluster occupied and
frontier voxels with a BIC-selected Gaussian mixture, wrap each cluster in a
minimum-volume enclosing ellipsoid, and score candidate viewpoints by
depth-ranked dual-quadric projection instead of ray casting.  A ray-casting
oracle is included as the correctness and speed baseline.

The package imports none of its modules; import each name from its own
module, e.g. `from nbvplan.planner import run_iteration`.
"""
