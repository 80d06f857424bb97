"""Desk-scale laboratory for oracle learning problems.

Simulates k-query quantum algorithms against finite function classes,
decides classical query-uselessness exactly, derives quantum query lower
bounds from it, and compiles Boolean-oracle quantum algorithms into
bias-equivalent classical subset samplers.
"""

__version__ = "0.1.0"
