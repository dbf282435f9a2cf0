"""The bytes of the three saved artifacts: an embedding table, a
co-occurrence graph and a checkpoint.

Each fixture is built from explicit values or seeded draws, with no
training and no BLAS product, so its bytes do not depend on the thread
count.  The table constant was recorded by saving the same fixture with
the writer as it stood before the shared artifact codec, so a match says
the layout on disk is unchanged and the loader still reads files written
the old way.  The graph constant pins its array payload (i, j as int64,
then the weights as float64), which replaced one text line per entry.
The checkpoint constant pins format 4, whose header holds the effective
config: it changes with any config default, as the checkpoint's
fingerprint does.  Every payload is decoded by one checked reader, so a
truncated, over-long or non-finite payload of any kind is refused.
"""

import hashlib
import struct

import numpy as np
import pytest

from freqrec.checkpoint import load_checkpoint, save_checkpoint
from freqrec.config import fingerprint, load_config
from freqrec.dataset import InteractionLog, build_split
from freqrec.errors import InputError
from freqrec.graph import build_cooccurrence, load_graph, save_graph
from freqrec.model.embeddings import EmbeddingTable, load_external, save_table
from freqrec.model.network import build_model

FINGERPRINT = "22e246fff4b1"

GOLDEN = {
    "table": "c739f8094e55694a9475ac8cf0df1db6bcbe36ead822414f9d9dbcaf83bbae29",
    "graph": "1dd952914c527828839f429df1c289002f5b608d054c5017cbb4ba2453142709",
    "checkpoint": "99e8a982b3ef2a378b6f0126a762698f9b2de4a47b943827414ff2e62a4da8dc",
}


@pytest.fixture(scope="module")
def graph():
    # four users over five items, five interactions each
    rows = [(u, item, t, "") for u, items in enumerate(("abcde", "bcdea", "cdeab", "deabc"))
            for t, item in enumerate(items)]
    graph = build_cooccurrence(build_split(InteractionLog(rows), min_interactions=3))
    graph.fingerprint = FINGERPRINT
    return graph


def tables(n_items):
    id_table = EmbeddingTable(n_items, 3, np.arange(n_items * 3).reshape(n_items, 3) / 8.0 - 1.0,
                              provenance="id", fingerprint=FINGERPRINT)
    text_table = EmbeddingTable(n_items, 2, np.linspace(-0.5, 0.5, n_items * 2).reshape(n_items, 2),
                                provenance="text", fingerprint=FINGERPRINT)
    return id_table, text_table


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_table_bytes(tmp_path):
    table, _ = tables(4)
    path = tmp_path / "id.emb"
    save_table(table, path)
    assert sha256(path) == GOLDEN["table"]
    loaded = load_external(path, expect_dim=3)
    np.testing.assert_array_equal(loaded.rows, table.rows)
    assert (loaded.provenance, loaded.fingerprint) == ("id", FINGERPRINT)


def test_graph_bytes(tmp_path, graph):
    path = tmp_path / "graph.bin"
    save_graph(graph, path)
    assert sha256(path) == GOLDEN["graph"]
    loaded = load_graph(path)
    assert loaded.digest() == graph.digest() and loaded.fingerprint == FINGERPRINT
    np.testing.assert_array_equal(loaded.degrees, graph.degrees)


def checkpoint_fixture(graph):
    """(model, config, id table, text table) of a small fused-mode model."""
    id_table, text_table = tables(graph.n_items)
    config = load_config(overrides={
        "model.d_id": 3, "model.d_text": 2, "model.d_model": 4, "backbone.layers": 2,
        "tfm.cutoff": 0.3, "tfm.order": 2, "glpf.apply_to": "fused",
        "glpf.coefficients": [0.5, 0.25, 0.125]})
    return build_model(config, id_table, text_table, graph=graph), config, id_table, text_table


def test_checkpoint_bytes(tmp_path, graph):
    model, config, id_table, text_table = checkpoint_fixture(graph)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, config)
    assert sha256(path) == GOLDEN["checkpoint"]
    loaded, header = load_checkpoint(path, id_table, text_table, graph=graph)
    assert header["fingerprint"] == fingerprint(config) and header["config"] == config
    assert header["graph"] == graph.digest()
    for a, b in zip(loaded.mlp.param_arrays(), model.mlp.param_arrays()):
        np.testing.assert_array_equal(a, b)
    assert loaded.backbone.parameter_hash() == model.backbone.parameter_hash()
    assert loaded.token_filter.spec == model.token_filter.spec


@pytest.mark.parametrize("kind", ["table", "graph", "checkpoint"])
@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload[:-8], "payload of"),
    (lambda payload: payload[:-1], "payload of"),
    (lambda payload: payload + bytes(8), "payload of"),
    # every payload ends in a float64: the last table row, graph weight or b2
    (lambda payload: payload[:-8] + struct.pack("<d", float("nan")), "is non-finite"),
    (lambda payload: payload[:-8] + struct.pack("<d", float("-inf")), "is non-finite"),
], ids=["truncated", "one-byte-short", "over-long", "nan", "-inf"])
def test_bad_payload_is_refused(tmp_path, graph, kind, edit, message):
    model, config, id_table, text_table = checkpoint_fixture(graph)
    path = tmp_path / kind
    save, load = {
        "table": (lambda: save_table(id_table, path), lambda: load_external(path)),
        "graph": (lambda: save_graph(graph, path), lambda: load_graph(path)),
        "checkpoint": (lambda: save_checkpoint(model, path, config),
                       lambda: load_checkpoint(path, id_table, text_table, graph=graph)),
    }[kind]
    save()
    head, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(head + b"\n" + edit(payload))
    with pytest.raises(InputError, match=message) as info:
        load()
    assert str(info.value).startswith(f"{path}: ")
