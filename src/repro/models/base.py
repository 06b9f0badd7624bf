"""Model shell shared by the two evaluated GNNs: encoders, trunk, readout."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.datasets.base import GraphDataset
from repro.errors import ConfigError, ShapeError
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.models.runtime import AggregationRuntime
from repro.tensor import Embedding, Linear, MLP, Module, Tensor
from repro.tensor import functional as F


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters shared by GatedGCN and GT."""

    hidden_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    task: str = "regression"
    num_node_types: int = 0      # 0 => continuous node features
    node_feature_dim: int = 0    # used when num_node_types == 0
    num_edge_types: int = 1
    num_classes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ConfigError("hidden_dim and num_layers must be positive")
        if self.task not in ("regression", "classification"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.num_node_types == 0 and self.node_feature_dim == 0:
            raise ConfigError(
                "need categorical node types or a continuous feature dim")

    @classmethod
    def for_dataset(cls, dataset: GraphDataset, hidden_dim: int = 64,
                    num_layers: int = 4, num_heads: int = 4,
                    seed: int = 0) -> "ModelConfig":
        """Derive encoder/head sizes from a dataset."""
        sample = dataset.train[0]
        node_feats = np.asarray(sample.node_features)
        continuous = node_feats.ndim == 2
        return cls(
            hidden_dim=hidden_dim, num_layers=num_layers,
            num_heads=num_heads, task=dataset.task,
            num_node_types=0 if continuous else max(dataset.num_node_types, 1),
            node_feature_dim=node_feats.shape[1] if continuous else 0,
            num_edge_types=max(dataset.num_edge_types, 1),
            num_classes=dataset.num_classes if dataset.task == "classification"
            else 1,
            seed=seed)


def _check_ids(ids: np.ndarray, vocab: int, what: str) -> None:
    """Raise :class:`ShapeError` unless ``ids`` is 1-d within [0, vocab)."""
    if ids.ndim != 1:
        raise ShapeError(f"{what} ids must be one per row, got shape "
                         f"{ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ShapeError(f"{what} ids out of range [0, {vocab})")


class GNNModel(Module):
    """Encoders + a stack of message-passing layers + mean readout.

    Subclasses populate ``self.layers`` with backend-agnostic layers;
    everything else (embedding lookups, readout, loss) is shared so the
    baseline-vs-MEGA comparison changes nothing but the runtime.
    """

    model_name = "gnn"

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._rng = rng
        d = config.hidden_dim
        if config.num_node_types > 0:
            self.node_encoder = Embedding(config.num_node_types, d, rng=rng)
            self._continuous_nodes = False
        else:
            self.node_encoder = Linear(config.node_feature_dim, d, rng=rng)
            self._continuous_nodes = True
        # One extra slot reserved for the virtual edge type used by the
        # global-attention comparator runtime.
        self.edge_encoder = Embedding(config.num_edge_types + 1, d, rng=rng)
        self.layers: List[Module] = []
        self._build_layers(rng)
        out_dim = config.num_classes if config.task == "classification" else 1
        self.head = MLP(d, d // 2 if d >= 2 else d, out_dim,
                        num_layers=2, rng=rng)

    def _build_layers(self, rng: np.random.Generator) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    def check_input(self, graph: Graph) -> None:
        """Raise :class:`ShapeError` unless :meth:`encode` accepts ``graph``.

        Checks what the encoders need, without running them: at least
        one node (an empty graph has no readout to predict from), node
        and edge features present, continuous node features of the
        right width, and categorical ids inside the embedding
        vocabularies (edge types exclude the slot reserved for virtual
        edges).
        """
        if graph.num_nodes == 0:
            raise ShapeError("graph has no nodes")
        if graph.node_features is None or graph.edge_features is None:
            raise ShapeError("graph needs node and edge features")
        nodes = np.asarray(graph.node_features)
        if self._continuous_nodes:
            if nodes.ndim != 2 or nodes.shape[1] != \
                    self.config.node_feature_dim:
                raise ShapeError(
                    f"node features of shape {nodes.shape}; expected "
                    f"(n, {self.config.node_feature_dim})")
        else:
            _check_ids(nodes, self.config.num_node_types, "node type")
        _check_ids(np.asarray(graph.edge_features),
                   self.config.num_edge_types, "edge type")

    def encode(self, batch: GraphBatch, runtime: AggregationRuntime):
        feats = batch.graph.node_features
        if feats is None:
            raise ShapeError("batch has no node features")
        feats = np.asarray(feats)
        if self._continuous_nodes:
            h = self.node_encoder(Tensor(feats))
        else:
            h = self.node_encoder(feats.astype(np.int64))
        if batch.graph.edge_features is None:
            raise ShapeError("batch has no edge features")
        edge_types = np.asarray(batch.graph.edge_features).astype(np.int64)
        # Per-message edge state (DGL's bidirected convention); virtual
        # pairs (global attention) map to the reserved encoder slot.
        message_types = runtime.message_edge_types(
            edge_types, virtual_type=self.config.num_edge_types)
        e = self.edge_encoder(message_types)
        return h, e

    def forward(self, batch: GraphBatch,
                runtime: AggregationRuntime) -> Tensor:
        h, e = self.encode(batch, runtime)
        for layer in self.layers:
            h, e = layer(h, e, runtime)
        pooled = runtime.readout_mean(h)
        out = self.head(pooled)
        if self.config.task == "regression":
            return out.reshape(len(pooled))
        return out

    def loss(self, predictions: Tensor, labels: np.ndarray) -> Tensor:
        if self.config.task == "regression":
            return F.l1_loss(predictions, Tensor(np.asarray(labels, float)))
        return F.cross_entropy(predictions, labels)

    def metric(self, predictions: Tensor, labels: np.ndarray) -> float:
        """MAE for regression (lower better); accuracy for classification."""
        if self.config.task == "regression":
            return float(np.abs(predictions.data
                                - np.asarray(labels, float)).mean())
        return F.accuracy(predictions, labels)
