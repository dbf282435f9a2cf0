"""Recommendation model: pretrained item embeddings, fusion MLP, frozen
causal Transformer backbone with optional per-layer temporal filtering,
and fusion-only training."""
