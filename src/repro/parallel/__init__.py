"""Slab compression across worker processes."""
