"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``--selftest`` exercises every
workload briefly.  ``perfbench/WORKLOADS.md`` documents the workloads,
their inputs and the metric definitions.
"""
