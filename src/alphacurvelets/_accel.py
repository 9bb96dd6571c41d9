"""Compatibility flag read only by the benchmark's environment record.

The package has no compiled kernels; the consistency sums run in numpy
(``molecules._pairwise_sups``).  ``perfbench`` still imports this flag.
"""

USING_NUMBA = False
