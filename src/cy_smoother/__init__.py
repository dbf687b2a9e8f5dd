"""Exact-arithmetic invariants of Calabi-Yau 3-folds built by smoothing
two-component normal crossing degenerations."""

__version__ = "0.1.0"
