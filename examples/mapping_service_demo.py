"""Two concurrent map sessions served by the occupancy-mapping service layer.

A drone with a spinning LiDAR maps the corridor scene while a rover with a
depth camera maps the campus scene.  Their scans arrive interleaved at one
:class:`repro.serving.MapSessionManager`; each session shards its map over a
pool of accelerator workers, batches the incoming scans, and answers
collision queries through the generation-stamped query cache.  The script
ends by printing the per-session service statistics and showing that the
stitched session maps match direct sequential insertion.

The shard execution backend is selectable: ``--backend process`` runs every
shard's accelerator in its own worker process (the maps are identical --
that is the whole point of the backend abstraction).

Run with:  python examples/mapping_service_demo.py [--backend inline|thread|process]
"""

from __future__ import annotations

import argparse

from repro.core.verification import compare_trees
from repro.datasets import ClientSpec, generate_interleaved_stream
from repro.octomap import OccupancyOcTree
from repro.serving import BACKEND_NAMES, MapSessionManager, ScanRequest, SessionConfig


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="inline",
        help="shard execution backend (default inline)",
    )
    args = parser.parse_args(argv)
    # 1. Two clients, two sessions: LiDAR corridor + depth-camera campus.
    clients = (
        ClientSpec(
            client_id="drone",
            session_id="corridor-map",
            scene="corridor",
            sensor="lidar",
            num_scans=3,
            max_range_m=15.0,
        ),
        ClientSpec(
            client_id="rover",
            session_id="campus-map",
            scene="campus",
            sensor="depth_camera",
            num_scans=3,
            max_range_m=8.0,
        ),
    )
    stream = generate_interleaved_stream(clients, seed=42)
    print(f"Interleaved stream: {len(stream)} scans from {len(clients)} clients")

    # 2. One service instance; every session shards over 4 workers on the
    #    chosen execution backend and coalesces scans into batches of 2,
    #    in arrival order.
    manager = MapSessionManager(
        SessionConfig(
            num_shards=4,
            batch_size=2,
            backend=args.backend,
        )
    )
    for event in stream:
        receipt = manager.submit(
            ScanRequest.from_scan_node(
                event.session_id,
                event.scan,
                max_range=event.max_range_m,
                client_id=event.client_id,
            )
        )
        print(
            f"  accepted #{receipt.request_id} from {event.client_id:5s} "
            f"-> {event.session_id} ({receipt.num_points} points, queue {receipt.queue_depth})"
        )
    reports = manager.flush_all()
    print(f"Dispatched {len(reports)} batches across {len(manager)} sessions")

    # 3. Collision queries: the second round of each pattern hits the cache.
    corridor_path = [(x * 0.5, 0.0, 0.2) for x in range(-6, 7)]
    campus_path = [(10.0 + x * 0.5, 2.0, 0.2) for x in range(-4, 5)]
    for _ in range(2):
        blocked = sum(1 for r in manager.query_batch("corridor-map", corridor_path) if r.occupied)
        print(f"  corridor-map: {blocked}/{len(corridor_path)} path voxels occupied")
        blocked = sum(1 for r in manager.query_batch("campus-map", campus_path) if r.occupied)
        print(f"  campus-map:   {blocked}/{len(campus_path)} path voxels occupied")
    ray = manager.raycast("corridor-map", (4.9, 0.0, 0.1), (0.0, 1.0, 0.0), 10.0)
    where = f"at {tuple(round(c, 2) for c in ray.hit_point)}" if ray.hit else "nowhere"
    print(f"  corridor-map: sideways ray collides {where} ({ray.voxels_traversed} voxels walked)")

    # 4. The service must not change the maps: each stitched session map is
    #    bit-identical to sequential software insertion of its own scans.
    for session_id in manager.session_ids():
        session = manager.get_session(session_id)
        quantized = session.config.accelerator.quantized_params()
        reference = OccupancyOcTree(
            session.config.accelerator.resolution_m,
            tree_depth=session.config.accelerator.tree_depth,
            params=quantized.as_float_params(),
        )
        for event in stream:
            if event.session_id == session_id:
                reference.insert_point_cloud(
                    event.scan.world_cloud(), event.scan.origin(), max_range=event.max_range_m
                )
        reference.prune()
        tolerance = session.config.accelerator.fixed_point.scale / 2.0
        report = compare_trees(reference, session.export_octree(), tolerance)
        print(f"  {session_id}: {report.summary()}")

    # 5. The service dashboard, then release the worker pool.
    print()
    print(manager.render_stats())
    manager.shutdown()


if __name__ == "__main__":
    main()
