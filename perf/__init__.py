"""The host-performance benchmark of the PLATINUM simulator.

Run it with ``python3 perf/run.py``; ``perf/README.md`` is the manual.
"""
