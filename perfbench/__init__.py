"""Repository benchmark: three closed-loop workloads and a traced run.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``perfbench/README.md``.
"""
