"""Fig. 7 design-point throughput benchmark (run with ``python3 perfbench/run.py``)."""
