"""Fusion search engine (Section IV-C).

The search engine explores loop schedules x cluster geometries x tile sizes,
prunes the space with Rules 1-5 (:mod:`repro.search.pruning`, computed as
masks over the space's axes), analyses and prices every survivor with
Algorithm 1 and the minimax bandwidth cost model
(:mod:`repro.search.cost_model`) in one array kernel, and profiles the
top-K candidates on the performance simulator to pick the final plan
(:mod:`repro.search.engine`, Algorithm 2).  The unpruned exhaustive search
used for the Table VIII comparison lives in :mod:`repro.search.brute_force`.
Admissible lower bounds and nearest-shape warm-start transfer live in
:mod:`repro.search.incremental`.
"""

from repro.search.cost_model import CostBreakdown, CostModel
from repro.search.engine import FusionCandidate, SearchEngine, SearchResult
from repro.search.incremental import (
    CandidateLowerBound,
    ShapeIndex,
    TransferSearch,
    TransferSeed,
    shape_family_key,
)
from repro.search.pruning import PruningRule, PruningStats, Pruner
from repro.search.space import SearchSpace, SpaceComponents, initial_space_size
from repro.search.brute_force import BruteForceSearch

__all__ = [
    "CandidateLowerBound",
    "CostBreakdown",
    "CostModel",
    "FusionCandidate",
    "SearchEngine",
    "SearchResult",
    "ShapeIndex",
    "TransferSearch",
    "TransferSeed",
    "PruningRule",
    "PruningStats",
    "Pruner",
    "SearchSpace",
    "SpaceComponents",
    "initial_space_size",
    "BruteForceSearch",
    "shape_family_key",
]
