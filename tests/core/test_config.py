"""Unit tests for FeatAugConfig."""

import pytest

from repro.core.config import FeatAugConfig


class TestFeatAugConfig:
    def test_defaults_produce_40_features(self):
        config = FeatAugConfig()
        assert config.n_templates * config.queries_per_template == 40

    def test_defaults_validate(self):
        FeatAugConfig().validate()

    def test_invalid_n_templates(self):
        with pytest.raises(ValueError):
            FeatAugConfig(n_templates=0).validate()

    def test_invalid_queries_per_template(self):
        with pytest.raises(ValueError):
            FeatAugConfig(queries_per_template=0).validate()

    def test_invalid_beam_width(self):
        with pytest.raises(ValueError):
            FeatAugConfig(beam_width=0).validate()

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            FeatAugConfig(max_template_depth=0).validate()

    def test_invalid_proxy(self):
        with pytest.raises(ValueError):
            FeatAugConfig(proxy="magic").validate()

    def test_with_overrides_returns_copy(self):
        base = FeatAugConfig()
        changed = base.with_overrides(use_warmup=False, n_templates=3)
        assert changed.use_warmup is False
        assert changed.n_templates == 3
        assert base.use_warmup is True

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            FeatAugConfig().with_overrides(proxy="nope")

    def test_ablation_flags_default_on(self):
        config = FeatAugConfig()
        assert config.use_warmup
        assert config.use_template_identification
        assert config.use_low_cost_proxy
        assert config.use_template_predictor
