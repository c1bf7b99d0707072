"""Checkpoint I/O cost modelling (measured breakdown + analytic storage)."""
