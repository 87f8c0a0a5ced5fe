"""Edge-list canonicalisation.

Every graph in this repo is an unweighted, undirected simple graph
represented as an edge list with integer vertex ids. The canonical form
used everywhere is:

* columns ``src``, ``dst`` (int64), with ``src < dst`` on every row;
* no self loops, no duplicate rows;
* rows sorted by ``(src, dst)`` so that the *edge id* (the row position
  in the canonical frame) is a deterministic function of the edge set.

Edge ids are load-bearing: the paper's tree structure keys nodes by the
smallest edge id, and our greedy tie-breaks on edge id, so determinism
here makes BASE / BASE+ / GAS produce byte-identical anchor sets.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _vertex_ids(col: pd.Series) -> np.ndarray:
    """``col`` as int64 vertex ids; ValueError if any is not a finite integer."""
    if pd.api.types.is_integer_dtype(col.dtype) and not col.hasnans:
        return col.to_numpy(dtype=np.int64)
    ids = col.to_numpy(dtype=np.float64, na_value=np.nan)
    if not np.isfinite(ids).all() or (ids != np.trunc(ids)).any():
        raise ValueError(f"column {col.name!r} holds a non-finite or non-integral vertex id")
    return ids.astype(np.int64)


def canonical_edges(pdf: pd.DataFrame) -> pd.DataFrame:
    """Return the canonical (sorted, deduped, src<dst) edge frame.

    Accepts any frame with ``src``/``dst`` columns of integer vertex ids
    (integral floats are accepted); self loops are dropped and both
    orientations of the same edge collapse to one row.
    """
    src = _vertex_ids(pdf["src"])
    dst = _vertex_ids(pdf["dst"])
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    out = pd.DataFrame({"src": lo[keep], "dst": hi[keep]})
    out = out.drop_duplicates().sort_values(["src", "dst"]).reset_index(drop=True)
    return out
