"""Tests for transformer shapes, strategies, ZeRO sharding, platforms."""

import re

import pytest

from repro.units import MB
from repro.workloads import (
    Op,
    StrategySet,
    TrainingWorkload,
    ZeroConfig,
    get_model,
    shard_bytes,
)
from repro.workloads.platforms import Platform, profile_for, round_gather
from repro.workloads.strategies import LORA_RANKS
from repro.workloads.transformer import (
    checkpoint_bytes,
    dgrad_bytes,
    logits_bytes,
    recompute_piece_sizes,
    saved_activation_tensors,
    workspace_bytes,
)


class TestTransformerShapes:
    def test_saved_activations_count(self):
        model = get_model("opt-1.3b")
        tensors = saved_activation_tensors(model, 8, 2048)
        assert len(tensors) == 5

    def test_ffn_intermediate_is_largest(self):
        model = get_model("opt-1.3b")
        tensors = dict(saved_activation_tensors(model, 8, 2048))
        assert tensors["ffn_in"] == max(tensors.values())

    def test_checkpoint_is_single_unit(self):
        model = get_model("opt-1.3b")
        assert checkpoint_bytes(model, 8, 2048) == model.activation_bytes(8, 2048)

    def test_checkpoint_smaller_than_saved_set(self):
        model = get_model("opt-1.3b")
        saved = sum(s for _, s in saved_activation_tensors(model, 8, 2048))
        assert checkpoint_bytes(model, 8, 2048) < saved / 5

    def test_logits_scale_with_vocab(self):
        model = get_model("gpt-neox-20b")
        assert logits_bytes(model, 1, 2048) == 2048 * model.vocab_size * 2

    def test_workspace_and_dgrad_are_unit_sized(self):
        model = get_model("opt-13b")
        unit = model.activation_bytes(4, 2048)
        assert workspace_bytes(model, 4, 2048) == unit
        assert dgrad_bytes(model, 4, 2048) == unit


class TestRecomputePieces:
    def test_pieces_sum_to_total(self):
        for salt in range(50):
            pieces = recompute_piece_sizes(64 * MB, salt)
            assert sum(pieces) == 64 * MB

    def test_pieces_are_uneven_and_positive(self):
        pieces = recompute_piece_sizes(64 * MB, 3)
        assert all(p > 0 for p in pieces)

    def test_salt_changes_split(self):
        splits = {tuple(recompute_piece_sizes(64 * MB, s)) for s in range(20)}
        assert len(splits) > 5

    def test_deterministic_per_salt(self):
        assert recompute_piece_sizes(10 * MB, 7) == recompute_piece_sizes(10 * MB, 7)

    def test_tiny_total_survives(self):
        pieces = recompute_piece_sizes(1024, 1)
        assert sum(pieces) == 1024


class TestStrategySet:
    def test_label_roundtrip(self):
        for label in ("N", "R", "LR", "RO", "LRO"):
            assert StrategySet.from_label(label).label == label

    def test_label_order_insensitive(self):
        assert StrategySet.from_label("RL").label == "LR"

    def test_empty_label_is_none(self):
        strategies = StrategySet.from_label("N")
        assert not (strategies.recompute or strategies.lora or strategies.offload)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            StrategySet.from_label("XY")

    def test_lora_rank_cycles(self):
        strategies = StrategySet(lora=True)
        ranks = [strategies.lora_rank(layer) for layer in range(8)]
        assert ranks[:4] == LORA_RANKS
        assert ranks[4:] == LORA_RANKS

    def test_adapter_params_scale_with_rank(self):
        strategies = StrategySet(lora=True)
        assert strategies.adapter_params(1024, 3) > strategies.adapter_params(1024, 0)


class TestZeroSharding:
    def test_shard_divides_evenly(self):
        assert shard_bytes(1024, 4, alignment=1) == 256

    def test_shard_rounds_up(self):
        assert shard_bytes(1000, 3, alignment=256) == 512

    def test_single_gpu_no_sharding(self):
        config = ZeroConfig(n_gpus=1)
        assert not config.shards_params
        assert config.param_shard(1000) == 1000

    def test_stage3_shards(self):
        config = ZeroConfig(n_gpus=4, stage=3)
        assert config.shards_params
        assert config.param_shard(400 * MB) < 110 * MB

    def test_stage0_never_shards(self):
        config = ZeroConfig(n_gpus=4, stage=0)
        assert not config.shards_params

    def test_gather_is_full_layer(self):
        """A ZeRO-3 all-gather buffer holds the whole layer, not a shard."""
        workload = TrainingWorkload("opt-1.3b", batch_size=1, n_gpus=8,
                                    strategies="N", iterations=1)
        layer = workload.model.layer_weight_bytes
        gathers = {e.size for e in workload.build_trace().events
                   if e.op is Op.ALLOC and re.search(r"\.[fb]\.g\d+$", e.tensor)}
        assert gathers == {layer}
        assert ZeroConfig(n_gpus=8).param_shard(layer) < layer

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            ZeroConfig(n_gpus=0)
        with pytest.raises(ValueError):
            ZeroConfig(n_gpus=2, stage=7)
        with pytest.raises(ValueError):
            shard_bytes(100, 0)


class TestPlatforms:
    def test_from_name_aliases(self):
        assert Platform.from_name("ds") is Platform.DEEPSPEED
        assert Platform.from_name("CAI") is Platform.COLOSSALAI
        assert Platform.from_name("fsdp") is Platform.FSDP

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            Platform.from_name("horovod")

    def test_profiles_differ(self):
        deepspeed = profile_for(Platform.DEEPSPEED)
        fsdp = profile_for(Platform.FSDP)
        assert deepspeed.prefetch_depth != fsdp.prefetch_depth

    def test_colossalai_rounds_gathers(self):
        rounded = round_gather(Platform.COLOSSALAI, 100 * MB)
        assert rounded >= 100 * MB
        assert rounded % (64 * MB) == 0

    def test_deepspeed_exact_gathers(self):
        assert round_gather(Platform.DEEPSPEED, 100 * MB) == 100 * MB
