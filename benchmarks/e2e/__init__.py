"""End-to-end benchmark of the occupancy-mapping service (see README.md).

``python3 benchmarks/e2e/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the one command; ``BENCHMARK.json`` at the repository
root fixes the workload and metric vocabulary it prints.
"""
