"""Truss substrate: local kernel and naive oracle."""
from repro.truss.local import INF_T, LocalGraph, TrussState, decompose  # noqa: F401
