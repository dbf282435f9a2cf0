"""Recommendation model: pretrained item embeddings, fusion MLP, frozen
causal Transformer backbone with optional per-layer temporal filtering,
and fusion-only training."""

from freqrec.model.embeddings import (
    EmbeddingTable,
    PretrainConfig,
    load_external,
    pretrain_id_embeddings,
    save_table,
    text_surrogate_embeddings,
)
from freqrec.model.network import (
    Backbone,
    FusionMLP,
    LayerTrace,
    RecModel,
    build_model,
    fuse,
    forward,
    init_backbone,
    init_fusion_mlp,
)
from freqrec.model.training import (
    AdamW,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "EmbeddingTable", "PretrainConfig", "load_external", "pretrain_id_embeddings",
    "save_table", "text_surrogate_embeddings",
    "Backbone", "FusionMLP", "LayerTrace", "RecModel", "build_model", "fuse", "forward",
    "init_backbone", "init_fusion_mlp",
    "AdamW", "TrainConfig", "load_checkpoint", "save_checkpoint", "train",
]
