"""Trained-model checkpoints: a `freqrec.artifact` whose header holds the
effective config the model was built from, its fingerprint, the item
count and the digest of the graph a token-filtering model filters on,
and whose payload is the fusion MLP's four float64 arrays (w1, b1, w2,
b2), of the shapes that config builds.
Loading checks that config as a config file is checked and rebuilds the
model through `build_model`, the code that built it for training.
"""

from freqrec import artifact
from freqrec.config import checked_config, fingerprint
from freqrec.errors import InputError
from freqrec.model.network import build_model

CHECKPOINT_MAGIC = b"FRQR\x01"
CHECKPOINT_FORMAT = 4


def save_checkpoint(model, path, config):
    """Write `model`, which must be the model `build_model` made from the
    effective config `config` (its MLP weights trained since)."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "fingerprint": fingerprint(config),
        "n_items": model.n_items,
        "config": config,
        "graph": None if model.token_filter is None else model.token_filter.graph.digest(),
    }
    artifact.write(path, header, model.mlp.param_arrays(), magic=CHECKPOINT_MAGIC)


def load_checkpoint(path, id_table, text_table, graph=None):
    """(model, header): the saved model over the given tables.  A model
    that filters its item tokens needs the graph it was trained with."""
    header, blob = artifact.read(path, "checkpoint", counts=("n_items",),
                                 magic=CHECKPOINT_MAGIC)
    if header.get("format") != CHECKPOINT_FORMAT:
        raise InputError(f"{path}: unsupported checkpoint format {header.get('format')} "
                         f"(this version reads format {CHECKPOINT_FORMAT}; re-train "
                         "the model to write one)")
    if header["n_items"] != id_table.n_items:
        raise InputError(
            f"{path}: checkpoint covers {header['n_items']} items, tables have "
            f"{id_table.n_items}")
    malformed = f"malformed checkpoint header in {path}"
    try:
        config, trained_on = checked_config(header.get("config")), header.get("graph")
        if fingerprint(config) != header["fingerprint"]:
            raise InputError(f"its config has fingerprint {fingerprint(config)}, the "
                             f"header says {header['fingerprint']!r}")
    except InputError as exc:
        raise InputError(f"{malformed}: {exc}") from exc
    if (config["model"]["d_id"], config["model"]["d_text"]) != (id_table.dim, text_table.dim):
        raise InputError(f"{path}: embedding dimensions do not match the tables")
    if trained_on is not None:
        if graph is None:
            raise InputError(f"{path}: the model filters its item tokens on a graph; "
                             "pass the graph it was trained with (--graph)")
        if graph.digest() != trained_on:
            raise InputError(f"{path}: graph {graph.digest()} is not the graph the model "
                             f"was trained with ({trained_on})")
    try:
        model = build_model(config, id_table, text_table, graph=graph)
    except InputError as exc:
        raise InputError(f"{malformed}: {exc}") from exc
    if (model.token_filter is None) != (trained_on is None):
        raise InputError(f"{malformed}: graph digest {trained_on!r} does not fit its "
                         f"config's glpf section")
    arrays = model.mlp.param_arrays()
    layout = [(name, a.shape, float) for name, a in zip(("w1", "b1", "w2", "b2"), arrays)]
    for a, saved in zip(arrays, artifact.arrays(blob, layout, path, "weight")):
        a[...] = saved
    return model, header
