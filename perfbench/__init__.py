"""End-to-end and per-layer benchmark of the FlashFuser reproduction.

Run one workload with::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced pass (see :mod:`perfbench.spans`).  ``BENCHMARK.json`` at
the repository root lists every metric; :mod:`perfbench.layers` records
which end-to-end metric each per-layer metric should move, and on which
workload.
"""
