"""The eight evaluation datasets (synthetic stand-ins for SNAP graphs).

The paper's SNAP downloads (College .. Pokec, 13.8K .. 22.3M edges) are
not available offline, so each dataset is a deterministic synthetic
community graph (see :func:`repro.graphs.gen.community_graph`) scaled
~1000x down but ordered identically by edge count, with clique-size
parameters chosen so that the *relative* shape survives: College is
the smallest with the smallest ``k_max``; Facebook is the densest with
the deepest truss structure and the largest upward routes; Patents is
sparse with shallow truss structure. EXPERIMENTS.md records the
substitution next to the paper's numbers.

``DATASETS`` maps name -> generator parameters; ``load`` materialises a
:class:`~repro.truss.local.LocalGraph`. ``MICRO`` are miniature
versions of the same shapes for unit tests.
"""
from __future__ import annotations

import pandas as pd

from repro.graphs.gen import community_graph
from repro.truss.local import LocalGraph

#: Paper dataset order (Table III order: increasing |E|).
NAMES = [
    "college",
    "facebook",
    "brightkite",
    "gowalla",
    "youtube",
    "google",
    "patents",
    "pokec",
]

#: Tuned so that every dataset (a) keeps the paper's |E| ordering,
#: (b) has non-trivial single-anchor headroom (clique *overlap* is what
#: creates edges one triangle short of the next hull — isolated
#: near-cliques provably have none), and (c) keeps upward routes short
#: except on the dense graphs, mirroring Table IV's profile.
DATASETS: dict[str, dict] = {
    "college": dict(
        n_strips=6, strip_min=2, strip_max=7,
        n=300, n_cliques=135, clique_min=3, clique_max=8, pref_exp=0.45,
        n_noise=140, drop_frac=0.08, seed=101,
    ),
    "facebook": dict(
        n_strips=6, strip_min=2, strip_max=7,
        n=850, n_cliques=230, clique_min=4, clique_max=14, pref_exp=0.35,
        n_noise=220, drop_frac=0.08, seed=102,
    ),
    "brightkite": dict(
        n_strips=8, strip_min=2, strip_max=7,
        n=1200, n_cliques=500, clique_min=3, clique_max=10, pref_exp=0.5,
        n_noise=500, drop_frac=0.08, seed=103,
    ),
    "gowalla": dict(
        n_strips=10, strip_min=2, strip_max=7,
        n=1900, n_cliques=720, clique_min=3, clique_max=9, pref_exp=0.5,
        n_noise=750, drop_frac=0.08, seed=104,
    ),
    "youtube": dict(
        n_strips=10, strip_min=2, strip_max=7,
        n=2200, n_cliques=950, clique_min=3, clique_max=8, pref_exp=0.55,
        n_noise=1300, drop_frac=0.08, seed=105,
    ),
    "google": dict(
        n_strips=12, strip_min=2, strip_max=7,
        n=2300, n_cliques=900, clique_min=3, clique_max=12, pref_exp=0.45,
        n_noise=900, drop_frac=0.08, seed=106,
    ),
    "patents": dict(
        n_strips=12, strip_min=2, strip_max=7,
        n=4200, n_cliques=1650, clique_min=3, clique_max=7, pref_exp=0.5,
        n_noise=3100, drop_frac=0.08, seed=107,
    ),
    "pokec": dict(
        n_strips=14, strip_min=2, strip_max=7,
        n=3400, n_cliques=1500, clique_min=3, clique_max=10, pref_exp=0.5,
        n_noise=2300, drop_frac=0.08, seed=108,
    ),
}

#: Miniatures of the same shapes for tests.
MICRO: dict[str, dict] = {
    "college_mini": dict(
        n_strips=2, strip_min=2, strip_max=4,
        n=60, n_cliques=25, clique_min=3, clique_max=7, pref_exp=0.35,
        n_noise=25, drop_frac=0.10, seed=201,
    ),
    "facebook_mini": dict(
        n_strips=2, strip_min=2, strip_max=4,
        n=120, n_cliques=45, clique_min=4, clique_max=10, pref_exp=0.35,
        n_noise=40, drop_frac=0.10, seed=202,
    ),
    "sparse_mini": dict(
        n_strips=2, strip_min=2, strip_max=4,
        n=160, n_cliques=40, clique_min=3, clique_max=5, pref_exp=0.3,
        n_noise=80, drop_frac=0.10, seed=203,
    ),
}


def edge_frame(name: str) -> pd.DataFrame:
    """Canonical edge frame of a named dataset (full or micro)."""
    params = DATASETS.get(name) or MICRO.get(name)
    if params is None:
        raise ValueError(f"unknown dataset {name!r}; known: {', '.join([*DATASETS, *MICRO])}")
    return community_graph(**params)


def load(name: str) -> LocalGraph:
    """Materialised :class:`LocalGraph` of a named dataset."""
    return LocalGraph(edge_frame(name))
