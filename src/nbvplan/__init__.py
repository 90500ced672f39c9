"""Projection-based next-best-view planning with a desk-scale scan simulator.

Pipeline: render synthetic depth frames, classify voxels (empty / occupied /
unknown / frontier) inside an adaptive bounding box, cluster occupied and
frontier voxels with a BIC-selected Gaussian mixture, wrap each cluster in a
minimum-volume enclosing ellipsoid, and score candidate viewpoints by
depth-ranked dual-quadric projection instead of ray casting.  A ray-casting
oracle is included as the correctness and speed baseline.
"""

from .config import RunConfig, load_config_file, make_config
from .ellipsoid import (
    Ellipsoid,
    GmmModel,
    InfeasibleModelError,
    bic,
    fit_gmm,
    fit_mvee,
    refit_all,
    select_components,
)
from .geometry import CameraIntrinsics, DepthFrame, Pose, look_at, look_at_many
from .harness import coverage, run, summarize
from .mesh import EmptyMeshError, MeshFormatError, TriangleMesh, load_mesh, sample_surface_points, save_obj, save_ply_points
from .oracle import OracleScore, oracle_evaluate, oracle_scores, rank_agreement
from .planner import (
    InfeasiblePartitionError,
    PartitionLedger,
    PlannerState,
    admissible_partitions,
    initialize,
    run_iteration,
    select_next_view,
    should_terminate,
)
from .projection import depth_weights, evaluate_all, project
from .render import frame_to_points, project_points, render_depth
from .shapes import BUILTIN_SHAPES, make_shape
from .views import (
    CandidateView,
    SamplingConfig,
    assign_partitions,
    sample_candidates,
    sampling_radius,
)
from .voxel import (
    Observation,
    VoxelGrid,
    VoxelState,
    integrate_observation,
    mark_occupied,
    preprocess_points,
    traverse_rays,
    update_bbox,
    update_frontier,
)

__version__ = "0.1.0"
