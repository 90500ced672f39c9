"""Run configuration: defaults, key=value config files, CLI overrides.

Config files are plain text, one `key=value` per line, `#` comments allowed.
Every key can be overridden by a CLI flag of the same name (underscores
become dashes); unknown keys and a key given twice in one file are errors.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from .geometry import CameraIntrinsics
from .views import SamplingConfig

EVALUATORS = ("projection", "oracle", "random")


@dataclass
class RunConfig:
    mesh: str = ""
    mode: str = "full_sphere"
    resolution: float = 0.03        # voxel edge (m)
    t_max: int = 10                 # BIC search upper bound per voxel class
    beta: int = 4                   # longitude partitions
    alpha: int = 8                  # sampling parallels
    candidates: int = 800           # total candidate views N
    d_c: float = 0.4                # camera working distance (m)
    iterations: int = 10
    seed: int = 7
    evaluator: str = "projection"
    out: str = "nbv_out"

    # camera model
    width: int = 640
    height: int = 480
    fx: float = 580.0
    fy: float = 580.0
    max_range: float = 2.5
    noise_sigma: float = 0.0

    # workspace / metric / misc
    workspace_half: float = 0.4     # grid spans a cube of this half-size (m)
    stride: int = 4                 # oracle pixel stride
    coverage_threshold: float = 0.005
    coverage_samples: int = 10000
    initial_polar_deg: float = 60.0
    initial_azimuth_deg: float = 0.0

    def __post_init__(self):
        if self.evaluator not in EVALUATORS:
            raise ValueError(f"evaluator must be one of {EVALUATORS}")
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for name in (
            "resolution", "t_max", "beta", "alpha", "candidates", "d_c",
            "iterations", "width", "height", "fx", "fy", "max_range",
            "workspace_half", "stride", "coverage_threshold",
            "coverage_samples",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.sampling()  # mode, and at least one candidate per parallel

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.fx,
            fy=self.fy,
            cx=self.width / 2.0,
            cy=self.height / 2.0,
            width=self.width,
            height=self.height,
            max_range=self.max_range,
        )

    def sampling(self) -> SamplingConfig:
        return SamplingConfig(
            mode=self.mode, alpha=self.alpha, n_views=self.candidates, working_distance=self.d_c
        )


_PARSERS = {int: int, float: float, str: str}

# One parser per RunConfig field, from its resolved type; shared by config
# files and CLI flags.  A field of a type without a parser fails at import.
FIELD_PARSERS = {name: _PARSERS[t] for name, t in typing.get_type_hints(RunConfig).items()}


def load_config_file(path: str) -> dict:
    """Parse a key=value config file; unknown and repeated keys raise."""
    values = {}
    first_line = {}
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in FIELD_PARSERS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}:{line_no}: duplicate key {key!r} (first on line {first_line[key]})"
                )
            first_line[key] = line_no
            try:
                values[key] = FIELD_PARSERS[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return values

