"""Closed-loop, stage-attributed benchmark of the decode serving stack.

Run it with ``python3 bench/run.py``; see ``bench/README.md`` for the
workloads, metrics, placement rule and how to read the stage table.
"""
