"""Benchmark harness for the pufir CLI; run it as ``python3 perfbench/run.py``."""
