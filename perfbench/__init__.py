"""The repository benchmark: three seeded workloads, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the public entry points
(``EasyHPS.run``, ``run_simulated``, ``ServeDaemon``), checks every
output, and prints one JSON result line. ``--trace 1`` runs the same
inputs through the per-layer tracing suite instead (see
:mod:`perfbench.layers`). ``perfbench/metric_map.py`` records which
layer metric should move which end-to-end metric on which workload.
"""
