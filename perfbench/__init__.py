"""Benchmark for the coarsetowers library; entry point ``perfbench/run.py``."""
