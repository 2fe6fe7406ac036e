"""Serving fleet: warm hits in-process, single-flight compiles, failover.

Run with::

    python examples/fleet_serving.py

The example starts a ``ServingFleet`` with a two-worker compile pool — an
in-process front end over one on-disk plan-cache namespace, plus two
worker processes that only run the fusion search — and walks the three
behaviours the fleet layer adds over a single ``ModelServer``:

1. **in-process warm path**: once a shape is compiled, requests for it are
   answered by the front end without touching a worker (``worker`` is
   ``None``);
2. **single-flight compiles**: concurrent misses on one shape share one
   compile on the pool — one answer reports ``compiled``, the others
   ``table``;
3. **failover**: killing a worker mid-compile loses nothing — its
   in-flight compile tasks are re-dispatched to the survivor and the dead
   process is restarted by the health monitor.
"""

from __future__ import annotations

import threading
import time

from repro import FleetConfig, ServingFleet

#: Cheap search knobs so the demo's cold compiles finish in milliseconds.
CONFIG = FleetConfig(workers=2, top_k=2, max_tile=64, health_interval_s=0.1)


def main() -> None:
    with ServingFleet(CONFIG) as fleet:
        # 1. One cold compile on the pool, then an in-process table hit.
        cold = fleet.serve("G4", m=100)
        warm = fleet.serve("G4", m=100)
        print(
            f"G4 cold: worker {cold.worker}, source {cold.source}, "
            f"{cold.latency_us / 1000:.1f} ms"
        )
        print(
            f"G4 warm: worker {warm.worker}, source {warm.source}, "
            f"{warm.latency_us:.0f} us"
        )
        assert cold.worker is not None and warm.worker is None

        # 2. Four concurrent misses on one shape: one compile, three hits.
        dispatched = fleet.stats().router["dispatched"]
        barrier = threading.Barrier(4)
        sources = []

        def miss() -> None:
            barrier.wait()
            sources.append(fleet.request("G10", 40).source)

        threads = [threading.Thread(target=miss) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        compiles = fleet.stats().router["dispatched"] - dispatched
        print(f"G10 x4 concurrently: sources {sorted(sources)}, {compiles} compile")
        assert compiles == 1, compiles

        # 3. Failover: pin slow compiles to worker 0, kill it mid-flight.
        results = []
        threads = [
            threading.Thread(
                target=lambda t=target: results.append(
                    fleet.request(t, 100, worker=0)
                ),
                daemon=True,
            )
            for target in ("G7", "G8", "G9")
        ]
        for thread in threads:
            thread.start()
        while fleet.queue_depths().get(0, 0) < 3:
            time.sleep(0.01)
        fleet.kill_worker(0)
        for thread in threads:
            thread.join(timeout=120.0)
        survivors = {response.worker for response in results}
        print(
            f"after killing worker 0: {len(results)} responses, "
            f"{sum(r.ok for r in results)} ok, compiled by workers {survivors}"
        )
        assert all(response.ok for response in results), "requests were lost"

        stats = fleet.stats().to_dict()
        router = stats["router"]
        print(
            f"fleet stats: routed {router['routed']}, "
            f"dispatched {router['dispatched']}, "
            f"restarts {router['restarts']}, "
            f"alive {stats['alive']}/{stats['workers']}"
        )
        assert router["restarts"] >= 1


if __name__ == "__main__":
    main()
