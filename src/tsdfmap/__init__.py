"""Incremental neural TSDF mapping from posed LiDAR scans.

Learns a truncated signed distance field online from a scan stream,
manages replay memory with reliability-based per-voxel pooling, focuses
the optimization budget with uncertainty-guided batch construction, and
extracts/evaluates triangle meshes.
"""

__version__ = "0.3.0"

from .config import RunConfig, load_config  # noqa: E402
from .mesher import TriMesh, extract_map_mesh, load_mesh, write_mesh  # noqa: E402
from .metrics import EvalConfig, EvalResult, evaluate  # noqa: E402
from .sampler import Scan  # noqa: E402
from .trainer import Mapper, TrainConfig  # noqa: E402

__all__ = [
    "__version__",
    "RunConfig",
    "load_config",
    "TriMesh",
    "extract_map_mesh",
    "load_mesh",
    "write_mesh",
    "EvalConfig",
    "EvalResult",
    "evaluate",
    "Scan",
    "Mapper",
    "TrainConfig",
]
