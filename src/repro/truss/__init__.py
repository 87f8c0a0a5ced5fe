"""Truss substrate: local kernel, naive oracle, distributed (DataFrame) triangles and support."""
from repro.truss.local import INF_T, LocalGraph, TrussState, decompose  # noqa: F401
