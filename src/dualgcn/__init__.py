"""Dual-branch graph convolutional networks with a learned affinity graph,
PPMI diffusion, and cluster-partitioned mini-batch training."""

from .data import DatasetBundle, SplitSpec, builtin_karate, load_dataset, make_planetoid_split
from .graph import Graph, add_self_loops, build_graph, sym_normalize
from .graphlearn import GlConfig, LearnedGraph, gl_loss, learn_S_masked
from .model import (
    FitResult,
    ModelConfig,
    ModelParams,
    accuracy,
    fit,
    forward,
    predict,
    total_loss,
)
from .cluster import (
    Batch,
    Partition,
    PartitionConfig,
    cluster_fit,
    edge_cut_report,
    form_batch,
    partition_graph,
)
from .ppmi import (
    PpmiMatrix,
    WalkConfig,
    frequency_matrix,
    ppmi,
    ppmi_operator,
)
from .rng import RngStream

__version__ = "0.1.0"
