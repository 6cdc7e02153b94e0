"""Optimization substrate: GP surrogates, MOBO, SH/MSH, NSGA-II, hypervolume.

Everything here is problem-agnostic (operates on design-space configs and
objective vectors); the UNICO-specific logic (robustness metric, high-
fidelity update, Algorithm 1) composes these pieces in :mod:`repro.core`.
"""
