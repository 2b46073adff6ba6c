"""Benchmark for the arcbench CLI; see README.md in this directory."""
