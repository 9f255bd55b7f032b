"""The repository benchmark: three workloads measured from outside the program.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; ``--workload all`` runs every
workload and prints one table.  ``BENCHMARK.json`` at the repository root
names the workloads and metrics; ``perfbench/selftest.py`` checks the
benchmark itself at tiny sizes.

Nothing in this package may import NumPy at module level before
:func:`perfbench.common.pin_blas` has run in the process.
"""
