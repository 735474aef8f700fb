"""OMU reproduction: probabilistic 3D occupancy mapping acceleration.

A from-scratch Python reproduction of *"OMU: A Probabilistic 3D Occupancy
Mapping Accelerator for Real-time OctoMap at the Edge"* (DATE 2022).  The
package is organised by subsystem:

* :mod:`repro.octomap` -- the software OctoMap substrate (octree, log-odds
  occupancy, ray casting, scan insertion) used both as the functional golden
  model and as the CPU baseline workload.
* :mod:`repro.core` -- the OMU accelerator model (PE array, banked TreeMem,
  prune address manager, voxel scheduler, query unit) at functional +
  cycle-approximate fidelity.
* :mod:`repro.datasets` -- synthetic stand-ins for the OctoMap 3D scan
  datasets, matched to the paper's Table II statistics.
* :mod:`repro.baselines` -- calibrated Intel i9 / ARM Cortex-A57 cost models
  and the instrumented software baseline runner.
* :mod:`repro.energy` -- 12 nm power / energy / area models.
* :mod:`repro.analysis` -- one experiment driver per paper table and figure,
  plus the service-level load experiments.
* :mod:`repro.serving` -- the multi-session occupancy-mapping *service*
  layer: named map sessions sharded over pools of accelerator workers,
  batched ingestion in arrival order,
  a generation-stamped cached query engine, and per-session service
  statistics.  This is the layer a fleet of robots (or a cloud mapping API)
  would talk to; the ``repro-serve`` console script demos it.

Quickstart (single map, the paper's workload)::

    from repro import OMUAccelerator, OMUConfig
    from repro.datasets import generate_named_graph

    descriptor, graph = generate_named_graph("FR-079 corridor", num_scans=3)
    accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2))
    timing = accelerator.process_scan_graph(graph)
    print(timing.cycles_per_update(), accelerator.classify(1.0, 0.0, 1.2))

Quickstart (multi-session service)::

    from repro.serving import MapSessionManager, ScanRequest, SessionConfig

    manager = MapSessionManager(SessionConfig(num_shards=4))
    manager.ingest(ScanRequest.from_scan_node("warehouse", scan))
    print(manager.query("warehouse", 1.0, 0.0, 0.5).status)
    print(manager.render_stats())
"""

from repro.core import OMUAccelerator, OMUConfig
from repro.octomap import OccupancyOcTree, PointCloud, Pose6D, ScanGraph, ScanNode

__version__ = "1.2.0"

__all__ = [
    "OMUAccelerator",
    "OMUConfig",
    "OccupancyOcTree",
    "PointCloud",
    "Pose6D",
    "ScanGraph",
    "ScanNode",
    "__version__",
]
