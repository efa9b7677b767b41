"""Tests for transformer configs, layers, full models and the model zoo."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.models import (
    MODEL_ZOO,
    bert_base,
    bert_large,
    get_model_config,
    gpt2_small,
    vit_base,
)
from repro.nn.transformer import (
    TransformerConfig,
    TransformerEncoderLayer,
    TransformerKind,
    TransformerModel,
)


class TestTransformerConfig:
    def test_d_k(self):
        assert bert_base().d_k == 64

    def test_parameter_count_bert_base_about_85m(self):
        """BERT-base layer stack is ~85M parameters (embeddings excluded)."""
        params = bert_base().parameter_count
        assert 80e6 < params < 90e6

    def test_parameter_count_bert_large_about_300m(self):
        params = bert_large().parameter_count
        assert 280e6 < params < 320e6

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigurationError):
            TransformerConfig(
                name="bad",
                kind=TransformerKind.ENCODER_ONLY,
                num_layers=1,
                d_model=30,
                num_heads=4,
                d_ff=64,
                seq_len=8,
            )


class TestEncoderLayer:
    @pytest.fixture
    def layer(self):
        return TransformerEncoderLayer(d_model=16, num_heads=2, d_ff=32)

    def test_forward_shape(self, layer, rng):
        out = layer.forward(rng.normal(0, 1, (6, 16)))
        assert out.shape == (6, 16)

    def test_output_is_layer_normed(self, layer, rng):
        out = layer.forward(rng.normal(0, 1, (6, 16)))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)

    def test_relu_variant(self, rng):
        layer = TransformerEncoderLayer(
            d_model=16, num_heads=2, d_ff=32, activation="relu"
        )
        out = layer.forward(rng.normal(0, 1, (4, 16)))
        assert out.shape == (4, 16)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            TransformerEncoderLayer(
                d_model=16, num_heads=2, d_ff=32, activation="swish"
            )


class TestTransformerModel:
    def test_encoder_forward_shape(self, tiny_transformer):
        x = tiny_transformer.sample_input()
        out = tiny_transformer.forward(x)
        assert out.shape == x.shape

    def test_decoder_is_causal(self, rng):
        config = TransformerConfig(
            name="dec",
            kind=TransformerKind.DECODER_ONLY,
            num_layers=1,
            d_model=16,
            num_heads=2,
            d_ff=32,
            seq_len=6,
        )
        model = TransformerModel(config)
        x = model.sample_input()
        base = model.forward(x)
        # Perturbing the LAST token must not change earlier positions.
        x2 = x.copy()
        x2[-1] += 10.0
        out2 = model.forward(x2)
        assert np.allclose(base[:-1], out2[:-1])
        assert not np.allclose(base[-1], out2[-1])

    def test_encoder_is_not_causal(self, tiny_transformer):
        x = tiny_transformer.sample_input()
        base = tiny_transformer.forward(x)
        x2 = x.copy()
        x2[-1] += 10.0
        out2 = tiny_transformer.forward(x2)
        assert not np.allclose(base[0], out2[0])

    def test_vision_model_returns_logits(self):
        config = TransformerConfig(
            name="vit-tiny",
            kind=TransformerKind.VISION,
            num_layers=1,
            d_model=16,
            num_heads=2,
            d_ff=32,
            seq_len=5,
        )
        model = TransformerModel(config)
        out = model.forward(model.sample_input())
        assert out.shape == (1000,)

    def test_rejects_wrong_input_shape(self, tiny_transformer, rng):
        with pytest.raises(ConfigurationError):
            tiny_transformer.forward(rng.normal(0, 1, (3, 3)))

    def test_deterministic(self, tiny_transformer):
        x = tiny_transformer.sample_input()
        assert np.allclose(
            tiny_transformer.forward(x), tiny_transformer.forward(x)
        )


class TestModelZoo:
    def test_zoo_members(self):
        for name in ("BERT-base", "BERT-large", "GPT-2", "ViT-base"):
            assert name in MODEL_ZOO

    def test_get_by_name(self):
        assert get_model_config("BERT-base").d_model == 768

    def test_every_zoo_model_is_a_registered_workload(self):
        # The workload registry spells the zoo names out so that
        # registering them imports no model module; they must not drift.
        from repro.workloads import TRANSFORMER_WORKLOAD_NAMES

        assert TRANSFORMER_WORKLOAD_NAMES == tuple(MODEL_ZOO)

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigurationError) as exc:
            get_model_config("BERT-giant")
        assert "BERT-base" in str(exc.value)

    def test_gpt2_is_decoder(self):
        assert gpt2_small().kind is TransformerKind.DECODER_ONLY

    def test_vit_is_vision(self):
        assert vit_base().kind is TransformerKind.VISION

    def test_zoo_configs_have_distinct_shapes(self):
        shapes = {
            (c.num_layers, c.d_model, c.seq_len) for c in MODEL_ZOO.values()
        }
        assert len(shapes) >= 4
