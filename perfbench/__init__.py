"""perfbench: the repo's one work-bounded serving benchmark.

See ``perfbench/README.md`` for the workloads, the metrics and how the
numbers are meant to be read; ``BENCHMARK.json`` at the repo root is the
contract the names and bounds are fixed in.
"""
