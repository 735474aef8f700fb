"""The network API end to end: server, scan submits, export job.

Starts :class:`repro.serving.http.HttpMapServer` on an ephemeral loopback
port over one :class:`repro.serving.AsyncMapService`, then drives it purely
through :class:`repro.serving.http.MapServiceClient` -- exactly what a
remote caller would do:

1. create a session (with a config override, to show the knob),
2. submit a corridor scan stream one scan per request,
3. flush, run point / bbox / raycast queries over the wire,
4. start a map-export *job*, poll it to ``done``, download the serialized
   octree artifact and verify it deserializes to the live map.

Run with:  python examples/http_service_demo.py [--backend inline|thread|process]
"""

from __future__ import annotations

import argparse
import asyncio

from repro.core.verification import compare_trees
from repro.datasets import ClientSpec, generate_interleaved_stream
from repro.octomap.serialization import deserialize_tree
from repro.serving import AsyncMapService, BACKEND_NAMES, SessionConfig
from repro.serving.http import HttpMapServer, MapServiceClient


async def run_demo(backend: str) -> None:
    clients = tuple(
        ClientSpec(
            client_id=f"drone-{index}",
            session_id="warehouse",
            scene="corridor",
            num_scans=3,
            max_range_m=15.0,
        )
        for index in range(2)
    )
    stream = generate_interleaved_stream(clients, seed=7)

    config = SessionConfig(num_shards=2, batch_size=2, backend=backend)
    service = AsyncMapService(default_config=config)
    async with HttpMapServer(service, port=0) as server:
        # The client keeps its connections between calls; leaving the block
        # closes them.
        async with MapServiceClient(*server.address) as client:
            print(f"serving http://{client.host}:{client.port}  (backend={backend})")
            print("healthz:", await client.healthz())

            created = await client.create_session("warehouse", {"batch_size": 3})
            print("session:", created)

            for event in stream:
                await client.submit_scan(
                    "warehouse",
                    event.scan.world_cloud().points.tolist(),
                    event.scan.origin(),
                    max_range=15.0,
                    client_id=event.client_id,
                )
            print(f"submitted {len(stream)} scans, one request each")

            reports = await client.flush("warehouse")
            print(
                f"flushed {sum(r['scans'] for r in reports)} scans in "
                f"{len(reports)} batches, "
                f"{sum(r['voxel_updates'] for r in reports)} voxel updates"
            )

            point = await client.query("warehouse", 1.0, 0.0, 0.5)
            print("point query:", point)
            box = await client.query_bbox("warehouse", (-2.0, -2.0, 0.0), (2.0, 2.0, 1.0))
            print("bbox sweep:", box)
            ray = await client.raycast("warehouse", (0.0, 0.0, 0.5), (1.0, 0.0, 0.0), 12.0)
            print("raycast:", ray)

            started = await client.start_export("warehouse")
            record = await client.wait_job(started["job_id"])
            print(f"export job {record['job_id']}: {' -> '.join(record['history'])}")
            artifact = await client.job_result(record["job_id"])
            tree = deserialize_tree(artifact)
            live = service.manager.get_session("warehouse").export_octree()
            diff = compare_trees(tree, live, 1e-9)
            assert diff.equivalent, diff.summary()
            print(
                f"artifact: {len(artifact)} bytes, {tree.num_leaf_nodes()} leaf nodes, "
                "equivalent to the live map"
            )
            http = (await client.healthz())["http"]
            print(f"{http['requests']} requests over {http['connections_accepted']} connection(s)")
    await service.close(drain=True)
    print(service.render_stats())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=BACKEND_NAMES, default="inline")
    args = parser.parse_args()
    asyncio.run(run_demo(args.backend))


if __name__ == "__main__":
    main()
