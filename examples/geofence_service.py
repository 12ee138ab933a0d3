#!/usr/bin/env python3
"""Online geofencing on top of the JoinService.

The streaming scenario of ``geofence_alerts.py``, rewritten as a *service*:
two polygon layers (surge-pricing zones and boroughs) are hosted behind one
``JoinService``; driver apps issue single-point lookups from many threads
(coalesced into micro-batches), while the analytics pipeline submits whole
position batches fanned out to both layers.  A skewed check-in stream keeps
the hot-cell cache busy — venues repeat exactly, so a repeated position
takes its leaf cell id and its entry from the table, skipping the cell-id
kernel and the trie — and the service's stats snapshot reports p50/p99
latency, throughput, and cache hit rate.

Run:  python examples/geofence_service.py
"""

import time
from concurrent.futures import ThreadPoolExecutor

from repro import JoinService, PolygonIndex
from repro.datasets import polygon_dataset, venue_points


def main() -> None:
    print("building two geofence layers with a 4 m precision bound...")
    start = time.perf_counter()
    layers = {
        "zones": PolygonIndex.build(
            polygon_dataset("neighborhoods"), precision_meters=4.0
        ),
        "boroughs": PolygonIndex.build(
            polygon_dataset("boroughs"), precision_meters=4.0
        ),
    }
    print(f"  built in {time.perf_counter() - start:.1f}s: "
          + ", ".join(f"{name} ({len(ix.polygons)} polygons)"
                      for name, ix in layers.items()))

    with JoinService(layers, default_layer="zones") as service:
        # --- Driver apps: concurrent single-point lookups -------------
        num_lookups = 2_000
        lats, lngs = venue_points(num_lookups, num_venues=500)
        print(f"\n{num_lookups:,} concurrent lookups from 8 client threads...")
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as clients:
            futures = [
                clients.submit(service.lookup, lat, lng)
                for lat, lng in zip(lats, lngs)
            ]
            hits = sum(bool(f.result()) for f in futures)
        elapsed = time.perf_counter() - start
        print(f"  {num_lookups / elapsed:,.0f} lookups/s, "
              f"{hits:,} inside a surge zone")

        # --- Analytics: batches fanned out to every layer -------------
        batch_size = 100_000
        print(f"\nfanning a {batch_size:,}-position batch out to "
              f"{list(service.layers)}...")
        lats, lngs = venue_points(batch_size, num_venues=2_000, seed=7)
        start = time.perf_counter()
        per_layer = service.join_layers(lats, lngs)
        elapsed = time.perf_counter() - start
        for name, result in per_layer.items():
            busiest = int(result.counts.argmax())
            print(f"  {name:>9}: {result.num_pairs:,} hits, busiest polygon "
                  f"#{busiest} ({result.counts[busiest]:,} positions)")
        print(f"  {batch_size * len(per_layer) / elapsed / 1e6:.1f} M "
              f"positions/s across layers")

        # --- Observability --------------------------------------------
        stats = service.stats()
        print(f"\nservice stats: {stats.requests:,} requests, "
              f"{stats.points:,} points, {stats.dispatches:,} dispatches "
              f"(mean batch {stats.mean_batch_size:,.1f})")
        print(f"  latency p50 {stats.p50_ms:.2f} ms, p99 {stats.p99_ms:.2f} ms; "
              f"throughput {stats.throughput_pps / 1e6:.1f} M points/s")
        for name, cache in stats.cache.items():
            print(f"  cache[{name}]: {cache.hit_rate:.1%} hit rate "
                  f"({cache.hits:,} hits / {cache.requests:,} looked up, "
                  f"{cache.bypassed:,} bypassed, {cache.size:,} entries)")


if __name__ == "__main__":
    main()
