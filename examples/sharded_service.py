#!/usr/bin/env python3
"""Share-nothing sharded serving: one process per share of the points.

Builds the neighborhoods layer once and serves a probe-heavy skewed
stream from a 4-lane ``ShardedJoinService``: the layer is published once
in a single shared-memory segment that every worker attaches read-only,
each batch slice is written once into a shared-memory ring, lane k
computes the cell ids of its positional share of the slice and joins
that same share, and the partial results are merged bit-identically.  A
swap then retrains the layer on observed traffic and fans the new
snapshot out to every shard with zero downtime.

Run:  python examples/sharded_service.py
"""

import time

from repro import PolygonIndex
from repro.datasets import polygon_dataset, shard_probe_points
from repro.serve import ShardedJoinService

NUM_SHARDS = 4


def main() -> None:
    print("building the neighborhoods layer (15 m precision bound)...")
    start = time.perf_counter()
    index = PolygonIndex.build(
        polygon_dataset("neighborhoods"), precision_meters=15.0
    )
    print(f"  built in {time.perf_counter() - start:.1f}s: "
          f"{index.num_polygons} polygons, {index.num_cells:,} cells")

    lats, lngs = shard_probe_points(200_000)
    reference = index.join(lats, lngs, exact=True)

    print(f"\nspawning {NUM_SHARDS} shard workers...")
    with ShardedJoinService(index, num_shards=NUM_SHARDS) as service:
        geometry_bytes, coverage_bytes = service.plane_bytes()
        print(f"  one segment for the layer: {geometry_bytes / 1024:,.0f} KiB "
              f"geometry + {coverage_bytes / 1024:,.0f} KiB coverage, "
              "attached by every shard")
        plan = service.plan()
        shares = ", ".join(
            "lane {} [{:,}, {:,})".format(shard, *plan.share(shard, 32_768))
            for shard in range(NUM_SHARDS)
        )
        print(f"  each 32,768-point op splits by position: {shares}")
        start = time.perf_counter()
        for lo in range(0, len(lats), 32_768):
            service.join(lats[lo:lo + 32_768], lngs[lo:lo + 32_768], exact=True)
        elapsed = time.perf_counter() - start
        check = service.join(lats, lngs, exact=True)
        assert (check.counts == reference.counts).all(), "sharding must be invisible"
        print(f"  streamed {len(lats):,} exact-join points in {elapsed:.2f}s "
              f"({len(lats) / elapsed:,.0f} points/s), counts bit-identical "
              "to PolygonIndex.join")

        # Zero-downtime retrain + swap, fanned out per shard.
        trained = index.retrained(index.cell_ids_for(lats[:100_000], lngs[:100_000]))
        service.swap_layer("default", trained)
        after = service.join(lats, lngs, exact=True)
        assert (after.counts == reference.counts).all()
        print(f"  swapped in retrained snapshot v{trained.version} on every "
              f"shard; solely-true-hit rate {reference.sth_rate:.1%} -> "
              f"{after.sth_rate:.1%}")

        stats = service.stats()
        print(f"\nmerged stats: {stats.requests} requests, "
              f"p50 {stats.p50_ms:.1f} ms, cache hit rate "
              f"{stats.cache_hit_rate:.1%}")
        for shard in stats.shards:
            print(f"  lane {shard.shard}: {shard.stats.points:,} points, "
                  f"p50 {shard.stats.p50_ms:.1f} ms")


if __name__ == "__main__":
    main()
