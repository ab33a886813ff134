"""Unit tests for the Figure 1 matrix and ground-truth model."""

import pytest

from repro.interference.matrix import (
    FIGURE1_WORKLOADS,
    figure1_matrix,
    pairwise_throughput,
    resolve_profile_name,
    uniform_matrix,
)
from repro.interference.model import InterferenceModel, no_interference_model


class TestMatrix:
    def test_shape(self):
        matrix = figure1_matrix()
        assert set(matrix) == set(FIGURE1_WORKLOADS)
        for row in matrix.values():
            assert set(row) == set(FIGURE1_WORKLOADS)

    def test_published_spot_values(self):
        # Spot-check cells transcribed from Figure 1.
        assert pairwise_throughput("ResNet18", "ResNet18") == 0.93
        assert pairwise_throughput("GPT2", "ResNet18") == 0.79
        assert pairwise_throughput("GCN", "A3C") == 0.65
        assert pairwise_throughput("CycleGAN", "A3C") == 1.00
        assert pairwise_throughput("A3C", "A3C") == 0.67

    def test_asymmetry_preserved(self):
        # Figure 1 is not symmetric: ResNet18 next to GPT2 differs from
        # GPT2 next to ResNet18.
        assert pairwise_throughput("ResNet18", "GPT2") == 0.92
        assert pairwise_throughput("GPT2", "ResNet18") == 0.79

    def test_aliases(self):
        assert resolve_profile_name("ResNet18-2") == "ResNet18"
        assert resolve_profile_name("ResNet18-4") == "ResNet18"
        assert resolve_profile_name("ViT") == "ResNet18"
        assert pairwise_throughput("ViT", "GCN") == pairwise_throughput(
            "ResNet18", "GCN"
        )

    def test_unknown_workload_is_neutral(self):
        assert pairwise_throughput("mystery", "ResNet18") == 1.0

    def test_uniform_matrix(self):
        m = uniform_matrix(0.9)
        assert all(v == 0.9 for row in m.values() for v in row.values())
        with pytest.raises(ValueError):
            uniform_matrix(0.0)


class TestModel:
    def test_product_composition(self):
        model = InterferenceModel()
        solo = model.task_throughput("ResNet18", [])
        pair = model.task_throughput("ResNet18", ["GCN"])
        triple = model.task_throughput("ResNet18", ["GCN", "A3C"])
        assert solo == 1.0
        assert pair == pytest.approx(0.83)
        assert triple == pytest.approx(0.83 * 0.83)

    def test_neighbour_order_irrelevant(self):
        model = InterferenceModel()
        a = model.task_throughput("GPT2", ["ResNet18", "CycleGAN"])
        b = model.task_throughput("GPT2", ["CycleGAN", "ResNet18"])
        assert a == b

    def test_uniform_override(self):
        model = InterferenceModel(uniform_value=0.8)
        assert model.pairwise("anything", "else") == 0.8
        assert model.task_throughput("x", ["a", "b"]) == pytest.approx(0.64)

    def test_explicit_override(self):
        model = InterferenceModel(
            pairwise_override={"ResNet18": {"ResNet18": 0.5}}
        )
        assert model.pairwise("ResNet18", "ResNet18") == 0.5
        assert model.pairwise("ResNet18", "GCN") == 1.0  # absent -> neutral

    def test_no_interference_model(self):
        model = no_interference_model()
        assert model.task_throughput("GCN", ["A3C", "GPT2"]) == 1.0

    def test_caching_consistency(self):
        model = InterferenceModel()
        first = model.task_throughput("GCN", ["A3C"])
        second = model.task_throughput("GCN", ["A3C"])
        assert first == second
