"""End-to-end benchmark of the simulator's public entry points.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from a fresh checkout; see ``perfbench/README.md``.
"""
