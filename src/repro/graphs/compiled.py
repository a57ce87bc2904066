"""Placeholder module of the ``graphs`` layer; it holds no code.

The batched graph kernels have one implementation, in
:mod:`repro.graphs.csr`.  The layered benchmark
(``benchmarks/e2e/tracer.py``) names this module in its ``graphs`` layer, so
it stays importable until that list changes.
"""
