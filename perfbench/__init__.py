"""The repository benchmark: paper grids and beacon scenes, timed and traced.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``BENCHMARK.json`` lists the
workloads and the metrics it prints.
"""
