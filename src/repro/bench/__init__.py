"""Experiment harness (system S10 in DESIGN.md).

The library-side machinery behind the ``benchmarks/`` drivers: the three
paper experiments (Tables I-III + Figures 2-13), the extended random
suites (scaling, ablations, constraint sweeps) and artefact generation.
"""
