"""Placeholder module of the ``hybrid`` layer; it holds no code.

The message plane has one implementation, in :mod:`repro.hybrid.network`.
The layered benchmark (``benchmarks/e2e/tracer.py``) names this module in
its ``hybrid`` layer, so it stays importable until that list changes.
"""
