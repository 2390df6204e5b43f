"""Exact invariants of reflection-group extensions: carousel monodromy
models, cyclotomic Hecke algebras, and induced braid modules."""

__version__ = "0.1.0"
