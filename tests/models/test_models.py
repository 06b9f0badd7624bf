"""GNN models: Table I, parity, gradients, learnability."""

import numpy as np
import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.errors import ConfigError, ShapeError
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.models import (
    GatedGCN,
    GraphTransformer,
    ModelConfig,
    BaselineRuntime,
    MegaRuntime,
    compute_model_stats,
    table_one,
)
from repro.tensor.optim import Adam


@pytest.fixture(scope="module")
def zinc():
    return load_dataset("ZINC", scale=0.005)


@pytest.fixture(scope="module")
def csl():
    return load_dataset("CSL", scale=0.5)


def runtimes_for(graphs):
    batch = GraphBatch(graphs)
    paths = [PathRepresentation.from_graph(g, MegaConfig()) for g in graphs]
    return batch, BaselineRuntime(batch), MegaRuntime(batch, paths)


class TestTableOne:
    """The reproduction of Table I must be exact."""

    def test_gcn_parameter_volume(self):
        stats = compute_model_stats(GatedGCN)
        assert stats.parameter_volume_d2 == pytest.approx(5.0)

    def test_gt_parameter_volume(self):
        stats = compute_model_stats(GraphTransformer)
        assert stats.parameter_volume_d2 == pytest.approx(14.0)

    def test_scatter_gather_calls(self):
        t1 = table_one()
        assert t1["GCN"].scatter_calls_per_layer == 1
        assert t1["GCN"].gather_calls_per_layer == 2
        assert t1["GT"].scatter_calls_per_layer == 5
        assert t1["GT"].gather_calls_per_layer == 2

    def test_gt_has_more_parameters(self):
        t1 = table_one()
        assert t1["GT"].total_parameters > 2 * t1["GCN"].total_parameters


class TestModelConfig:
    def test_for_dataset_categorical(self, zinc):
        cfg = ModelConfig.for_dataset(zinc)
        assert cfg.num_node_types == 28
        assert cfg.task == "regression"

    def test_for_dataset_continuous(self, csl):
        cfg = ModelConfig.for_dataset(csl)
        assert cfg.num_node_types == 0
        assert cfg.node_feature_dim == 8
        assert cfg.num_classes == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(hidden_dim=0, num_node_types=4)
        with pytest.raises(ConfigError):
            ModelConfig(task="ranking", num_node_types=4)
        with pytest.raises(ConfigError):
            ModelConfig(num_node_types=0, node_feature_dim=0)

    def test_heads_must_divide_dim(self):
        cfg = ModelConfig(hidden_dim=30, num_heads=4, num_node_types=4)
        with pytest.raises(ConfigError):
            GraphTransformer(cfg)


class TestForward:
    @pytest.mark.parametrize("model_cls", [GatedGCN, GraphTransformer])
    def test_regression_output_shape(self, model_cls, zinc):
        cfg = ModelConfig.for_dataset(zinc, hidden_dim=16, num_layers=2)
        model = model_cls(cfg)
        model.eval()
        batch, rt, _ = runtimes_for(zinc.train[:6])
        out = model(batch, rt)
        assert out.shape == (6,)

    def test_classification_output_shape(self, csl):
        cfg = ModelConfig.for_dataset(csl, hidden_dim=16, num_layers=2)
        model = GatedGCN(cfg)
        model.eval()
        batch, rt, _ = runtimes_for(csl.train[:5])
        out = model(batch, rt)
        assert out.shape == (5, 4)

    @pytest.mark.parametrize("model_cls", [GatedGCN, GraphTransformer])
    def test_baseline_mega_parity(self, model_cls, zinc):
        """At full coverage the two schedules compute the same function."""
        cfg = ModelConfig.for_dataset(zinc, hidden_dim=16, num_layers=3)
        model = model_cls(cfg)
        model.eval()
        batch, base_rt, mega_rt = runtimes_for(zinc.train[:8])
        a = model(batch, base_rt).data
        b = model(batch, mega_rt).data
        assert np.allclose(a, b, atol=1e-10)

    @pytest.mark.parametrize("model_cls", [GatedGCN, GraphTransformer])
    def test_gradients_reach_all_parameters(self, model_cls, zinc):
        cfg = ModelConfig.for_dataset(zinc, hidden_dim=16, num_layers=2)
        model = model_cls(cfg)
        batch, rt, _ = runtimes_for(zinc.train[:4])
        loss = model.loss(model(batch, rt), batch.labels)
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        # The final layer's edge-output parameters legitimately receive no
        # gradient (edge state is discarded after the last layer).
        last = f"layer{cfg.num_layers - 1}."
        allowed = {"bn_e", "norm_e1", "norm_e2", "ffn_e", "proj_oe"}
        for name in missing:
            assert name.startswith(last) and any(
                key in name for key in allowed), (
                f"parameter unexpectedly without gradient: {name}")

    def test_loss_metric_regression(self, zinc):
        cfg = ModelConfig.for_dataset(zinc, hidden_dim=16, num_layers=2)
        model = GatedGCN(cfg)
        model.eval()
        batch, rt, _ = runtimes_for(zinc.train[:4])
        pred = model(batch, rt)
        assert model.loss(pred, batch.labels).item() >= 0
        assert model.metric(pred, batch.labels) >= 0


def with_features(graph, **features):
    """``graph`` with some of its feature arrays replaced."""
    kwargs = dict(node_features=graph.node_features,
                  edge_features=graph.edge_features)
    kwargs.update(features)
    return Graph(graph.num_nodes, graph.src, graph.dst,
                 undirected=graph.undirected, **kwargs)


class TestCheckInput:
    """``check_input`` raises ShapeError exactly where encode would fail."""

    def test_dataset_graphs_pass(self, zinc, csl):
        for ds in (zinc, csl):
            model = GatedGCN(ModelConfig.for_dataset(ds, hidden_dim=16,
                                                     num_layers=2))
            for graph in ds.train[:10]:
                model.check_input(graph)

    @pytest.mark.parametrize("change", [
        {"node_features": None},
        {"edge_features": None},
        {"node_features": "shift"},
        {"edge_features": "shift"},
        {"node_features": "2d"},
    ], ids=["no-nodes", "no-edges", "node-vocab", "edge-vocab",
            "float-nodes"])
    def test_malformed_categorical_graph(self, zinc, change):
        graph = zinc.train[0]
        model = GatedGCN(ModelConfig.for_dataset(zinc, hidden_dim=16,
                                                 num_layers=2))
        swapped = {}
        for key, how in change.items():
            feats = np.asarray(getattr(graph, key))
            swapped[key] = (None if how is None
                            else feats + 1000 if how == "shift"
                            else np.ones((len(feats), 3)))
        with pytest.raises(ShapeError):
            model.check_input(with_features(graph, **swapped))

    def test_continuous_width_mismatch(self, csl):
        graph = csl.train[0]
        model = GatedGCN(ModelConfig.for_dataset(csl, hidden_dim=16,
                                                 num_layers=2))
        narrow = np.asarray(graph.node_features)[:, :1]
        with pytest.raises(ShapeError):
            model.check_input(with_features(graph, node_features=narrow))

    def test_encode_without_edge_features_is_typed(self, zinc):
        model = GatedGCN(ModelConfig.for_dataset(zinc, hidden_dim=16,
                                                 num_layers=2))
        model.eval()
        batch = GraphBatch([with_features(zinc.train[0],
                                          edge_features=None)])
        with pytest.raises(ShapeError):
            model(batch, BaselineRuntime(batch))


class TestLearnability:
    def test_gcn_overfits_small_batch(self, zinc):
        """The training loop must be able to drive the loss down."""
        cfg = ModelConfig.for_dataset(zinc, hidden_dim=32, num_layers=2)
        model = GatedGCN(cfg)
        model.train()
        graphs = zinc.train[:8]
        batch, rt, _ = runtimes_for(graphs)
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(30):
            loss = model.loss(model(batch, rt), batch.labels)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first

    def test_mega_training_matches_baseline_training(self, zinc):
        """Training under either runtime yields the same trajectory."""
        graphs = zinc.train[:6]
        batch, base_rt, mega_rt = runtimes_for(graphs)
        losses = {}
        for name, rt in [("base", base_rt), ("mega", mega_rt)]:
            cfg = ModelConfig.for_dataset(zinc, hidden_dim=16, num_layers=2,
                                          seed=7)
            model = GatedGCN(cfg)
            model.train()
            opt = Adam(model.parameters(), lr=1e-3)
            track = []
            for _ in range(5):
                loss = model.loss(model(batch, rt), batch.labels)
                opt.zero_grad()
                loss.backward()
                opt.step()
                track.append(loss.item())
            losses[name] = track
        assert np.allclose(losses["base"], losses["mega"], atol=1e-8)
