"""Experiment drivers and reporting helpers."""
