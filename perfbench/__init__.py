"""Benchmark of the repro package: five workloads, end-to-end and per-layer metrics.

See ``perfbench/README.md`` for the workloads, the metrics and how to run it.
"""
