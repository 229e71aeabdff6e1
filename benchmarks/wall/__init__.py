"""Wall-clock observatory: what a co-allocation costs on the host.

See README.md in this directory; run with
``PYTHONPATH=src python -m benchmarks.wall --seed 42``.
"""
