"""Benchmark for gridcp; run `python3 perfbench/run.py --help`."""
