"""The repository's benchmark: workloads, correctness checks and tracing.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` explains
the workloads and metrics.  The package only calls public entry points of
:mod:`repro` and never uses :mod:`repro.obs` or :mod:`repro.perf`, so a
change to those modules cannot change how the repository is measured.
"""
