"""Fixture: a waiver naming a code no checker has (RL090, orphan)."""

LIMIT = 1  # repro-lint: waive[RL077] -- no such rule
