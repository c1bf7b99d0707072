"""Failure models and their exascale projection."""
