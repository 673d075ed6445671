"""Reference-state system reliability: Monte Carlo classification of coherent systems."""

__version__ = "0.1.0"

from .boundary import ReferenceSet, Side, boundary_search
from .classify import ClassificationResult, classify, cov
from .encoding import EncodedBatch, encode_batch
from .model import ComponentDistribution, SystemModel, check_coherency
from .sampling import SampleBatch, sample_batch
from .sysfn import (
    Graph,
    edge_disjoint_level,
    global_connectivity,
    k_out_of_n,
    pick_od_pair,
    random_geometric_graph,
    single_od_connectivity,
)
from .workflow import (
    PmfReport,
    RunConfig,
    Stage1Result,
    Stage2Report,
    assemble_pmf,
    multistate_pmf,
    stage1_find_references,
    stage2_evaluate,
)

__all__ = [
    "ComponentDistribution",
    "SystemModel",
    "check_coherency",
    "Graph",
    "single_od_connectivity",
    "global_connectivity",
    "edge_disjoint_level",
    "k_out_of_n",
    "random_geometric_graph",
    "pick_od_pair",
    "SampleBatch",
    "sample_batch",
    "EncodedBatch",
    "encode_batch",
    "ClassificationResult",
    "classify",
    "cov",
    "ReferenceSet",
    "Side",
    "boundary_search",
    "RunConfig",
    "Stage1Result",
    "Stage2Report",
    "PmfReport",
    "stage1_find_references",
    "stage2_evaluate",
    "multistate_pmf",
    "assemble_pmf",
]
