"""The repo's standing benchmark: five workloads along the SQL/core
borderline, measured end to end and, in a separate traced run, layer
by layer.  See README.md in this directory; ``python -m
benchmarks.suite run`` is the one command.
"""
