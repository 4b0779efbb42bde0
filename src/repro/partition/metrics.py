"""Partition quality metrics: edge cut, load imbalance, summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.partition.graph import Graph

__all__ = ["edge_cut", "imbalance", "part_weights", "PartitionSummary", "partition_summary"]


def edge_cut(graph: Graph, part: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts."""
    part = np.asarray(part)
    cut = graph.ewgt[part[graph.sources()] != part[graph.adjncy]]
    # cumsum adds in CSR order, like a scalar loop; .sum() would not
    total = float(np.cumsum(cut)[-1]) if len(cut) else 0.0
    return total / 2.0  # each cut edge visited from both sides


def part_weights(graph: Graph, part: np.ndarray, nparts: int) -> np.ndarray:
    weights = np.zeros(nparts)
    np.add.at(weights, np.asarray(part), graph.vwgt)
    return weights


def imbalance(graph: Graph, part: np.ndarray, nparts: int) -> float:
    """max part weight / ideal part weight (1.0 = perfect balance)."""
    weights = part_weights(graph, part, nparts)
    ideal = graph.total_weight() / nparts
    if ideal == 0:
        return 1.0
    return float(weights.max() / ideal)


@dataclass(frozen=True)
class PartitionSummary:
    nparts: int
    edge_cut: float
    imbalance: float
    min_part: float
    max_part: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "nparts": self.nparts,
            "edge_cut": self.edge_cut,
            "imbalance": self.imbalance,
            "min_part": self.min_part,
            "max_part": self.max_part,
        }


def partition_summary(graph: Graph, part: np.ndarray, nparts: int) -> PartitionSummary:
    weights = part_weights(graph, part, nparts)
    return PartitionSummary(
        nparts=nparts,
        edge_cut=edge_cut(graph, part),
        imbalance=imbalance(graph, part, nparts),
        min_part=float(weights.min()),
        max_part=float(weights.max()),
    )
